"""NBM releases, bi-weekly updates, and map diffs (paper §4.1.3).

After the initial publication, the FCC re-publishes the NBM roughly every
two weeks.  Minor releases fold in (a) resolutions of public challenges
and (b) *non-archived changes*: claims providers quietly withdraw after
FCC internal quality checks or after a challenge exposes a methodological
flaw in their filing.  Only the challenged locations are ever published —
the quiet removals are observable solely by diffing successive releases,
which is exactly what the paper's archived map captures and what this
module reproduces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.fcc.bdc import AvailabilityTable, ClaimKey
from repro.fcc.challenges import ChallengeRecord
from repro.fcc.providers import ProviderUniverse
from repro.utils.rng import stream_rng

__all__ = [
    "RemovalCause",
    "RemovalEvent",
    "ReleaseTimeline",
    "build_release_timeline",
    "MapDiff",
    "diff_releases",
    "infer_unarchived_changes",
]


class RemovalCause(enum.Enum):
    """Why a claim left the map (simulation-internal; not public)."""

    PUBLIC_CHALLENGE = "public_challenge"
    FCC_QUALITY_CHECK = "fcc_quality_check"
    PROVIDER_SELF_CORRECTION = "provider_self_correction"


@dataclass(frozen=True)
class RemovalEvent:
    """One hex-level claim removed at one minor release."""

    claim: ClaimKey
    release_index: int
    cause: RemovalCause


@dataclass
class ReleaseTimeline:
    """The initial claim set plus its removal history.

    ``claims_at(t)`` reconstructs the public map at minor release ``t``;
    the paper's "map diff" datasets fall out of comparing releases.
    """

    initial_claims: frozenset[ClaimKey]
    removals: list[RemovalEvent]
    n_minor_releases: int
    _removed_by_release: dict[int, set[ClaimKey]] = field(default_factory=dict)

    def __post_init__(self):
        for event in self.removals:
            self._removed_by_release.setdefault(event.release_index, set()).add(
                event.claim
            )

    def claims_at(self, release_index: int) -> frozenset[ClaimKey]:
        """Claims present in the map at a minor release (0 = initial)."""
        if not 0 <= release_index <= self.n_minor_releases:
            raise ValueError(
                f"release_index must be in [0, {self.n_minor_releases}]"
            )
        removed: set[ClaimKey] = set()
        for t in range(1, release_index + 1):
            removed |= self._removed_by_release.get(t, set())
        return frozenset(self.initial_claims - removed)

    @property
    def final_claims(self) -> frozenset[ClaimKey]:
        return self.claims_at(self.n_minor_releases)

    def removal_cause(self, claim: ClaimKey) -> RemovalCause | None:
        for event in self.removals:
            if event.claim == claim:
                return event.cause
        return None


def build_release_timeline(
    table: AvailabilityTable,
    universe: ProviderUniverse,
    challenges: list[ChallengeRecord],
    n_minor_releases: int = 24,
    seed: int = 0,
) -> ReleaseTimeline:
    """Assemble the release history of the initial NBM.

    Successful public challenges remove their claims at the resolution
    release.  Independently, each provider's remaining *overclaimed* hexes
    may be silently removed by FCC quality checks / provider self-audits
    (rate = the provider's ``self_correction_rate``), spread over the
    year of minor releases — the paper's non-archived changes.
    """
    keys = table.columnar().keys()
    initial = frozenset(keys)
    removals: list[RemovalEvent] = []
    challenged_removed: set[ClaimKey] = set()

    for record in challenges:
        if record.major_release != 0 or not record.succeeded:
            continue
        key = record.claim_key
        if key in initial and key not in challenged_removed:
            challenged_removed.add(key)
            removals.append(
                RemovalEvent(key, record.resolved_release, RemovalCause.PUBLIC_CHALLENGE)
            )

    # Quiet removals: overclaimed, unchallenged claims withdrawn off-ledger.
    overclaimed = ~table.truly_served[table.claim_first_rows()]
    for row in np.flatnonzero(overclaimed).tolist():
        key = keys[row]
        if key in challenged_removed:
            continue
        provider = universe.provider(key[0])
        rng = stream_rng(seed, "releases", key[0], key[1], key[2])
        if rng.random() < provider.self_correction_rate:
            release = int(rng.integers(2, n_minor_releases + 1))
            cause = (
                RemovalCause.FCC_QUALITY_CHECK
                if rng.random() < 0.5
                else RemovalCause.PROVIDER_SELF_CORRECTION
            )
            removals.append(RemovalEvent(key, release, cause))

    return ReleaseTimeline(
        initial_claims=initial,
        removals=removals,
        n_minor_releases=n_minor_releases,
    )


@dataclass(frozen=True)
class MapDiff:
    """Claims added/removed between two public releases."""

    from_release: int
    to_release: int
    removed: frozenset[ClaimKey]
    added: frozenset[ClaimKey]


def diff_releases(
    timeline: ReleaseTimeline, from_release: int, to_release: int
) -> MapDiff:
    """Diff two releases of the public map (the paper's capture method)."""
    if from_release > to_release:
        raise ValueError("from_release must be <= to_release")
    before = timeline.claims_at(from_release)
    after = timeline.claims_at(to_release)
    return MapDiff(
        from_release=from_release,
        to_release=to_release,
        removed=frozenset(before - after),
        added=frozenset(after - before),
    )


def infer_unarchived_changes(
    timeline: ReleaseTimeline,
    challenges: list[ChallengeRecord],
    first_observed_release: int = 2,
) -> frozenset[ClaimKey]:
    """Removed claims *not* explained by a public challenge (paper §4.1.3).

    The paper began archiving the map a few snapshots after initial
    publication (their first complete capture omitted the true initial
    state), so removals before ``first_observed_release`` are invisible —
    we reproduce that censoring.
    """
    observed_diff = diff_releases(
        timeline, first_observed_release, timeline.n_minor_releases
    )
    publicly_challenged = {
        record.claim_key
        for record in challenges
        if record.major_release == 0 and record.succeeded
    }
    return frozenset(observed_diff.removed - publicly_challenged)
