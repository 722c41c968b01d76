"""Inferring likely served locations from crowdsourced tests (paper §4.2).

Two crowdsourced signals combine into synthetic "known good" claims:

1. **Ookla service coverage score** — unique testing devices per BSL in a
   hex cell.  A score >= 1 means the cell saw at least one device per
   serviceable location: service is clearly available there from *some*
   provider (Ookla has no provider attribution).
2. **MLab provider localization** — each NDT7 test is attributed to a
   provider through the ASN crosswalk, then localized to the hexes within
   its geolocation accuracy radius (tests with radius > 20 km are
   dropped), intersected with the provider's claimed NBM footprint.

A claim (provider, cell, technology) is *likely served* when the cell's
coverage score clears the threshold, an attributed MLab test could have
run in the cell from that provider's network, and the provider claims the
cell in the NBM.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.asn.matching import CrosswalkResult
from repro.fcc.bdc import AvailabilityTable, ClaimKey
from repro.fcc.fabric import Fabric
# ``cells_within_radius`` stays bound here: the end-to-end benchmark's
# layer tracer wraps it by name in this module.
from repro.geo import cells_within_radius  # noqa: F401
from repro.geo.hexgrid import iter_cells_within_radius
from repro.geo.reproject import HexAggregate
from repro.speedtests.mlab import MLabTest, mlab_columns
from repro.utils.indexing import ColumnIndex, MultiColumnIndex, ragged_arange

__all__ = [
    "service_coverage_scores",
    "AttributionTriples",
    "MLabLocalization",
    "localize_mlab_tests",
    "likely_served_claims",
    "MAX_GEOLOCATION_RADIUS_M",
]

#: Paper §4.2.2: tests with accuracy radius above 20 km are excluded.
MAX_GEOLOCATION_RADIUS_M = 20_000.0


def service_coverage_scores(
    fabric: Fabric, hex_aggregates: dict[int, HexAggregate]
) -> dict[int, float]:
    """Ookla unique devices per BSL for every occupied cell.

    Cells with Ookla data but no Fabric locations are skipped (nothing to
    serve); cells with locations but no tests score 0.
    """
    cells = fabric.occupied_cells
    n_bsl = fabric.bsl_counts_in_cells(cells)
    devices = np.array(
        [agg.devices if (agg := hex_aggregates.get(c)) is not None else 0 for c in cells],
        dtype=np.int64,
    )
    scores = np.divide(devices, n_bsl, out=np.zeros(n_bsl.size), where=n_bsl > 0)
    return dict(zip(cells, scores.tolist()))


@dataclass(frozen=True)
class AttributionTriples:
    """Every (test, provider, cell) hit of one attribution pass, sorted by
    (provider_id, cell, test_row); ``test_row`` indexes the test list.

    Each hit also carries its test's measured throughputs, so the truth
    map reduces the triples without going back to the test list.
    """

    test_row: np.ndarray  # int64
    provider_id: np.ndarray  # int64
    cell: np.ndarray  # uint64
    download_mbps: np.ndarray  # float64, the hit's test's measurement
    upload_mbps: np.ndarray  # float64

    def key_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """(start offset, length) of each distinct (provider, cell) run."""
        change = (np.diff(self.provider_id) != 0) | (np.diff(self.cell) != 0)
        starts = np.flatnonzero(np.r_[self.cell.size > 0, change])
        return starts, np.diff(np.r_[starts, self.cell.size])


@dataclass
class MLabLocalization:
    """Per-provider hex localizations of attributed MLab tests."""

    #: provider_id -> set of cells an attributed test may have run in.
    cells_by_provider: dict[int, set[int]]
    #: (provider_id, cell) -> number of attributed tests localized there.
    test_counts: dict[tuple[int, int], int]
    #: Tests dropped for exceeding the radius cap.
    n_dropped_radius: int
    #: Tests dropped because their ASN matched no provider.
    n_dropped_unattributed: int
    #: The pass's triples; ``None`` for a localization built from counts
    #: alone, which carries no per-test throughputs.
    triples: AttributionTriples | None = field(default=None, repr=False, compare=False)
    #: Lazily-built columnar (provider, cell) -> count index.
    _count_index: "MultiColumnIndex | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _count_values: "np.ndarray | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def provider_test_count(self, provider_id: int, cell: int) -> int:
        return self.test_counts.get((provider_id, int(cell)), 0)

    def provider_test_counts(
        self, provider_ids: np.ndarray, cells: np.ndarray
    ) -> np.ndarray:
        """Attributed test count per (provider, cell) pair, vectorized.

        Element-wise equal to :meth:`provider_test_count`, but resolved
        through a lazily-built two-column index
        (:class:`repro.utils.indexing.MultiColumnIndex`) so batch feature
        building gathers all counts in one pass.
        """
        index, counts = self._count_columns()
        pos = index.positions(
            np.asarray(provider_ids, dtype=np.int64),
            np.asarray(cells, dtype=np.uint64),
        )
        out = np.zeros(pos.size, dtype=np.int64)
        found = pos >= 0
        out[found] = counts[pos[found]]
        return out

    def _count_columns(self) -> tuple[MultiColumnIndex, np.ndarray]:
        if self._count_index is None:
            n = len(self.test_counts)
            pids = np.empty(n, dtype=np.int64)
            cells = np.empty(n, dtype=np.uint64)
            counts = np.empty(n, dtype=np.int64)
            for i, ((pid, cell), count) in enumerate(self.test_counts.items()):
                pids[i] = pid
                cells[i] = cell
                counts[i] = count
            self._count_index = MultiColumnIndex(pids, cells)
            self._count_values = counts
        return self._count_index, self._count_values


def localize_mlab_tests(
    tests: list[MLabTest],
    crosswalk: CrosswalkResult,
    claimed_cells_by_provider: dict[int, set[int]],
    res: int = 8,
    max_radius_m: float = MAX_GEOLOCATION_RADIUS_M,
) -> MLabLocalization:
    """Attribute and localize MLab tests (paper §4.2.2).

    Each test's candidate hexes (centroids within the accuracy radius) are
    intersected with the claimed footprint of every provider its ASN maps
    to.  Shared ASNs legitimately attribute one test to several providers.
    Vectorized over the radius kernel's candidate chunks; the
    :class:`AttributionTriples` it keeps are what the truth map reduces,
    so nothing attributes twice.
    """
    asn, lat, lng, radius, down, up = mlab_columns(
        tests, "asn", "lat", "lng", "accuracy_radius_m", "download_mbps", "upload_mbps"
    )
    pairs = [(a, pid) for pid, asns in crosswalk.union.items() for a in asns]
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    pair_asn, pair_pid = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))].T
    first = np.searchsorted(pair_asn, asn, side="left")
    n_providers = np.searchsorted(pair_asn, asn, side="right") - first
    too_wide = radius > max_radius_m
    unattributed = ~too_wide & (n_providers == 0)
    claimed = claimed_cells_by_provider
    claimed_cells = np.fromiter(itertools.chain.from_iterable(claimed.values()), np.uint64)
    sizes = [len(cells) for cells in claimed.values()]
    footprint = MultiColumnIndex(
        np.repeat(np.fromiter(claimed, np.int64), sizes), claimed_cells
    )

    parts = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.uint64))]
    kept = np.flatnonzero(~too_wide & ~unattributed)
    candidates = iter_cells_within_radius(lat[kept], lng[kept], radius[kept], res)
    for point, cell in candidates:
        # Expand each candidate over its test's providers; keep claimed ones.
        row = kept[point]
        reps = n_providers[row]
        pid = pair_pid[np.repeat(first[row], reps) + ragged_arange(reps)]
        row, cell = np.repeat(row, reps), np.repeat(cell, reps)
        hit = footprint.positions(pid, cell) >= 0
        parts.append((row[hit], pid[hit], cell[hit]))
    row, pid, cell = (np.concatenate(column) for column in zip(*parts))
    order = np.lexsort((row, cell, pid))
    row = row[order]
    triples = AttributionTriples(row, pid[order], cell[order], down[row], up[row])

    starts, counts = triples.key_runs()
    key_pid, key_cell = triples.provider_id[starts], triples.cell[starts]
    pid_list, cell_list = key_pid.tolist(), key_cell.tolist()
    cells_by_provider: dict[int, set[int]] = {}
    for key_p, key_c in zip(pid_list, cell_list):
        cells_by_provider.setdefault(key_p, set()).add(key_c)
    localization = MLabLocalization(
        cells_by_provider=cells_by_provider,
        test_counts=dict(zip(zip(pid_list, cell_list), counts.tolist())),
        n_dropped_radius=int(too_wide.sum()),
        n_dropped_unattributed=int(unattributed.sum()),
        triples=triples,
    )
    localization._count_index = MultiColumnIndex(key_pid, key_cell)
    localization._count_values = counts
    return localization


def likely_served_claims(
    table: AvailabilityTable,
    coverage_scores: dict[int, float],
    localization: MLabLocalization,
    threshold: float = 1.0,
) -> list[tuple[ClaimKey, float]]:
    """Candidate "known good" claims, sorted by descending coverage score.

    A claim qualifies when (a) its cell's Ookla coverage score is >= the
    threshold (a cell with no score scores 0), and (b) an MLab test
    attributed to the claim's provider was localized to the cell.
    Returns (claim, score) pairs; equal scores keep claim-key order.
    Vectorized over the table's claim columns.
    """
    claims = table.columnar()
    cov_cells = np.fromiter(coverage_scores, dtype=np.uint64, count=len(coverage_scores))
    cov_values = np.fromiter(
        coverage_scores.values(), dtype=np.float64, count=len(coverage_scores)
    )
    pos = ColumnIndex(cov_cells).positions(claims.cell)
    scored = pos >= 0
    score = np.zeros(len(claims))
    score[scored] = cov_values[pos[scored]]
    rows = np.flatnonzero(score >= threshold)
    localized = localization.provider_test_counts(claims.provider_id[rows], claims.cell[rows])
    rows = rows[localized > 0]
    pid, cell, tech = claims.provider_id[rows], claims.cell[rows], claims.technology[rows]
    score = score[rows]
    order = np.lexsort((tech, cell, pid, -score))
    keys = zip(pid[order].tolist(), cell[order].tolist(), tech[order].tolist())
    return list(zip(keys, score[order].tolist()))
