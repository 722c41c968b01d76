"""as2org+-style AS-to-organization groupings and crosswalk comparison.

The paper sanity-checks its provider-to-ASN groupings against as2org /
as2org+ sibling datasets (which group ASNs by WHOIS organization) and
finds a mean Jaccard of ~0.9, with ~80 % of groupings matching exactly.
Here the as2org+ analog is derived directly from the simulated WHOIS
registry's organization records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.asn.matching import CrosswalkResult
from repro.asn.whois import WhoisRegistry

__all__ = ["As2OrgDataset", "build_as2org", "compare_groupings"]


@dataclass(frozen=True)
class As2OrgDataset:
    """ASN groupings keyed by organization."""

    groups: dict[str, frozenset[int]]


def build_as2org(registry: WhoisRegistry) -> As2OrgDataset:
    """Group ASNs by their WHOIS organization (the as2org+ analog)."""
    groups: dict[str, set[int]] = {}
    for asn, record in registry.asns.items():
        groups.setdefault(record.org_id, set()).add(asn)
    return As2OrgDataset(
        groups={org: frozenset(asns) for org, asns in groups.items()}
    )


@dataclass(frozen=True)
class GroupingComparison:
    """Agreement statistics between the crosswalk and as2org+ groupings."""

    mean_jaccard: float
    exact_matches: int
    total_groupings: int

    @property
    def exact_match_rate(self) -> float:
        return self.exact_matches / self.total_groupings if self.total_groupings else 0.0


def compare_groupings(
    crosswalk: CrosswalkResult, as2org: As2OrgDataset
) -> GroupingComparison:
    """Compare per-provider ASN groupings with as2org+ groups (paper §6.1).

    For each matched provider, the best-overlapping as2org group is found
    and the Jaccard index recorded; a grouping is "exact" when the two
    sets coincide.
    """
    scores = []
    exact = 0
    total = 0
    for pid, asns in crosswalk.union.items():
        if not asns:
            continue
        total += 1
        best = 0.0
        is_exact = False
        for group in as2org.groups.values():
            inter = len(asns & group)
            if inter == 0:
                continue
            jaccard = inter / len(asns | group)
            if jaccard > best:
                best = jaccard
                is_exact = asns == set(group)
        scores.append(best)
        if is_exact:
            exact += 1
    mean = float(np.mean(scores)) if scores else 0.0
    return GroupingComparison(
        mean_jaccard=mean, exact_matches=exact, total_groupings=total
    )
