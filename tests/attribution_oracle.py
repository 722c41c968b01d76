"""Scalar reference for the vectorized MLab attribution pass.

These are the per-test loops :func:`repro.dataset.likely_served.localize_mlab_tests`
and :func:`repro.enrich.build_truth_map` replaced: one scalar
``cells_within_radius`` call per attributed test, a crosswalk dict lookup,
a claimed-set intersection, and one ``directional_summary`` call per
tile.  They are kept only as the oracle the attribution tests compare
the vectorized pass against.
"""

from __future__ import annotations

import numpy as np

from repro.dataset.likely_served import MAX_GEOLOCATION_RADIUS_M
from repro.geo import cells_within_radius
from repro.speedtests.aggregate import directional_summary


def scalar_attribution(
    tests,
    crosswalk,
    claimed_cells_by_provider,
    res: int = 8,
    max_radius_m: float = MAX_GEOLOCATION_RADIUS_M,
):
    """Per-(provider, cell) hit lists plus the two drop tallies.

    Returns ``(hits, n_dropped_radius, n_dropped_unattributed)`` where
    ``hits`` maps each (provider, cell) key to the indices of the tests
    localized there, in test order.
    """
    asn_to_providers: dict[int, set[int]] = {}
    for pid, asns in crosswalk.union.items():
        for asn in asns:
            asn_to_providers.setdefault(asn, set()).add(pid)

    hits: dict[tuple[int, int], list[int]] = {}
    dropped_radius = 0
    dropped_unattributed = 0
    for row, test in enumerate(tests):
        if test.accuracy_radius_m > max_radius_m:
            dropped_radius += 1
            continue
        providers = asn_to_providers.get(test.asn)
        if not providers:
            dropped_unattributed += 1
            continue
        candidates = set(
            cells_within_radius(test.lat, test.lng, test.accuracy_radius_m, res)
        )
        for pid in providers:
            claimed = claimed_cells_by_provider.get(pid)
            if not claimed:
                continue
            for cell in candidates & claimed:
                hits.setdefault((pid, int(cell)), []).append(row)
    return hits, dropped_radius, dropped_unattributed


def scalar_truth_rows(tests, hits):
    """The truth-map columns, one ``directional_summary`` per sorted key."""
    keys = sorted(hits)
    columns = {
        name: [] for name in ("median_down", "p90_down", "median_up", "p90_up")
    }
    for key in keys:
        rows = hits[key]
        summary = directional_summary(
            [tests[i].download_mbps for i in rows],
            [tests[i].upload_mbps for i in rows],
        )
        for name, values in columns.items():
            values.append(getattr(summary, name))
    out = {name: np.array(values, dtype=np.float64) for name, values in columns.items()}
    out["provider_id"] = np.array([k[0] for k in keys], dtype=np.int64)
    out["cell"] = np.array([k[1] for k in keys], dtype=np.uint64)
    out["n_tests"] = np.array([len(hits[k]) for k in keys], dtype=np.int64)
    return out
