"""BDC availability filings and the assembled National Broadband Map.

Every six months each ISP files, for every Broadband Serviceable Location
it serves (or could serve within ten business days), the technology and
maximum advertised speeds offered there (paper Table 1).  This module
generates those filings from the provider universe's claimed footprints
and assembles them into the initial public NBM release.

The table keeps a simulation-internal ``truly_served`` flag per record —
the ground truth the paper never observes directly, used here to drive the
challenge process and to score the final model.  Speed clamping follows
the NBM convention: download below 10 Mbps and upload below 1 Mbps are
published as 0.

Data layout (two granularities, both struct-of-arrays)
------------------------------------------------------

=======================  =====================================================
Surface                  Contents
=======================  =====================================================
:class:`AvailabilityTable`  one row per (provider, BSL, technology) filing
                            record: ids, cell, state, advertised speeds,
                            latency tier, ``truly_served`` ground truth
:class:`ClaimColumns`       frozen columnar roll-up to the hex grain — one
                            row per distinct (provider, cell, technology)
                            claim: claimed-BSL count, published max
                            download/upload, low-latency flag
=======================  =====================================================

:meth:`AvailabilityTable.columnar` builds (and caches) the roll-up; its
:meth:`ClaimColumns.positions` maps *arrays* of claim keys to row
positions in one vectorized lookup (:class:`repro.utils.indexing.MultiColumnIndex`),
so batch consumers — feature building above all — replace a Python
``dict.get`` per observation with a handful of fancy-indexed gathers.
The scalar ``dict``-shaped accessors remain as the readable reference
path; property tests assert both agree exactly, including on keys absent
from the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fcc.fabric import Fabric
from repro.fcc.providers import ProviderUniverse
from repro.fcc.states import STATES
from repro.utils.indexing import MultiColumnIndex, ragged_arange
from repro.utils.rng import stream_rng

__all__ = [
    "AvailabilityTable",
    "ClaimColumns",
    "ClaimKey",
    "generate_filings",
    "NBM_SPEED_FLOORS",
]

#: NBM publication floors: below these, speeds are reported as 0.
NBM_SPEED_FLOORS = (10.0, 1.0)  # (download Mbps, upload Mbps)

#: Hex-level claim identity used across challenges / releases / datasets.
ClaimKey = tuple[int, int, int]  # (provider_id, cell, technology)


@dataclass(frozen=True)
class ClaimColumns:
    """Frozen columnar view of the distinct hex-level claims.

    Parallel arrays, one row per (provider, cell, technology) claim in
    lexicographic key order, carrying the aggregates feature building
    consumes.  ``positions`` maps arrays of claim-key components to row
    positions in one vectorized lookup (``-1`` for keys not in the
    table), so callers gather ``claimed_count``/speed/latency columns by
    fancy index instead of a per-key ``dict`` probe.
    """

    provider_id: np.ndarray  # int64
    cell: np.ndarray  # uint64
    technology: np.ndarray  # int16
    claimed_count: np.ndarray  # int64 — BSL filing rows per claim
    max_download_mbps: np.ndarray  # float64, published (post-floor) max
    max_upload_mbps: np.ndarray  # float64, published (post-floor) max
    low_latency: np.ndarray  # bool — any record low-latency
    #: Filing state per claim (index into repro.fcc.states.STATES), from
    #: the claim's first filing row (AvailabilityTable.claim_first_rows).
    state_idx: np.ndarray  # int16
    #: Composite-key index; ``None`` until first lookup (lazy).  Sharded
    #: stores hold many small per-shard tables, most of which are never
    #: probed, so index construction is deferred to first use (or a
    #: persisted index is passed in — see ``MultiColumnIndex.from_state``).
    _index: MultiColumnIndex | None = field(
        default=None, repr=False, compare=False
    )

    #: Name and dtype of every exported column, in order.
    EXPORT_FIELDS = (
        ("provider_id", np.int64),
        ("cell", np.uint64),
        ("technology", np.int16),
        ("claimed_count", np.int64),
        ("max_download_mbps", np.float64),
        ("max_upload_mbps", np.float64),
        ("low_latency", bool),
        ("state_idx", np.int16),
    )

    def __len__(self) -> int:
        return int(self.provider_id.size)

    def export_arrays(self) -> dict[str, np.ndarray]:
        """The parallel claim columns as a plain name->array dict.

        The pickle-free payload the serve layer persists; composite-key
        indexes are deterministic from the key columns, so
        :meth:`from_arrays` rebuilds them rather than serializing them.
        """
        return {name: getattr(self, name) for name, _ in self.EXPORT_FIELDS}

    @classmethod
    def from_arrays(
        cls, arrays: dict, index: MultiColumnIndex | None = None
    ) -> "ClaimColumns":
        """Rebuild a claim store from exported columns.

        The composite-key index rebuilds lazily on first ``positions``
        call unless a prebuilt (e.g. persisted) ``index`` is supplied.
        """
        fields = {
            name: np.ascontiguousarray(np.asarray(arrays[name]), dtype=dtype)
            for name, dtype in cls.EXPORT_FIELDS
        }
        n = fields["provider_id"].size
        for name, _ in cls.EXPORT_FIELDS:
            if fields[name].ndim != 1 or fields[name].size != n:
                raise ValueError(
                    f"claim column {name!r} must be 1-D with {n} rows, "
                    f"got shape {fields[name].shape}"
                )
        return cls(**fields, _index=index)

    def take(self, rows: np.ndarray) -> "ClaimColumns":
        """A new claim store holding ``rows`` (in the given order).

        Shard extraction: relative key order is whatever ``rows``
        encodes, and the subset's index rebuilds lazily on first lookup.
        """
        rows = np.asarray(rows, dtype=np.intp)
        return ClaimColumns.from_arrays(
            {name: getattr(self, name)[rows] for name, _ in self.EXPORT_FIELDS}
        )

    @property
    def index(self) -> MultiColumnIndex:
        """The composite-key index, built on first use."""
        if self._index is None:
            object.__setattr__(
                self,
                "_index",
                MultiColumnIndex(
                    self.provider_id,
                    self.cell,
                    self.technology.astype(np.int64),
                ),
            )
        return self._index

    def positions(
        self, provider_id: np.ndarray, cell: np.ndarray, technology: np.ndarray
    ) -> np.ndarray:
        """Row position per queried claim key; ``-1`` marks a miss."""
        return self.index.positions(
            np.asarray(provider_id, dtype=np.int64),
            np.asarray(cell, dtype=np.uint64),
            np.asarray(technology, dtype=np.int64),
        )

    def keys(self) -> list[ClaimKey]:
        """Every claim's ``(provider, cell, technology)`` key, in row order."""
        return list(
            zip(self.provider_id.tolist(), self.cell.tolist(), self.technology.tolist())
        )

    def key_at(self, row: int) -> ClaimKey:
        return (
            int(self.provider_id[row]),
            int(self.cell[row]),
            int(self.technology[row]),
        )


@dataclass
class AvailabilityTable:
    """All BSL-level availability records of one filing round (SoA layout).

    One row = one (provider, BSL, technology) claim.  ``truly_served`` is
    simulation ground truth and is *not* part of the public NBM view.
    """

    provider_id: np.ndarray  # int64
    bsl_id: np.ndarray  # int64
    technology: np.ndarray  # int16
    cell: np.ndarray  # uint64
    state_idx: np.ndarray  # int16
    max_download_mbps: np.ndarray  # float64 (as advertised, pre-floor)
    max_upload_mbps: np.ndarray  # float64
    low_latency: np.ndarray  # bool
    truly_served: np.ndarray  # bool
    #: Cached hex-level columnar roll-up (built on first use).
    _columnar: "ClaimColumns | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Each claim's first filing row, cached with ``_columnar``.
    _first_rows: "np.ndarray | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return int(self.provider_id.size)

    # -- public (NBM) views -------------------------------------------------

    def published_download(self) -> np.ndarray:
        """Download speeds as published in the NBM (sub-floor -> 0)."""
        out = self.max_download_mbps.copy()
        out[out < NBM_SPEED_FLOORS[0]] = 0.0
        return out

    def published_upload(self) -> np.ndarray:
        """Upload speeds as published in the NBM (sub-floor -> 0)."""
        out = self.max_upload_mbps.copy()
        out[out < NBM_SPEED_FLOORS[1]] = 0.0
        return out

    def state_abbr(self, row: int) -> str:
        return STATES[int(self.state_idx[row])].abbr

    # -- hex-level aggregation ---------------------------------------------

    def claim_keys(self) -> np.ndarray:
        """Row-aligned structured array of (provider_id, cell, technology)."""
        keys = np.empty(
            len(self),
            dtype=[("provider_id", np.int64), ("cell", np.uint64), ("technology", np.int16)],
        )
        keys["provider_id"] = self.provider_id
        keys["cell"] = self.cell
        keys["technology"] = self.technology
        return keys

    def columnar(self) -> ClaimColumns:
        """The hex-level claims as frozen parallel arrays (cached).

        The one claim reduction of a filing table: one stable
        ``lexsort`` of the rows by (provider, cell, technology), then
        per-claim segment reductions — the count of BSL filing rows,
        the max *published* speeds (post NBM floors) and the OR of the
        low-latency flags.  Each claim's first filing row is cached
        alongside (:meth:`claim_first_rows`).
        """
        if self._columnar is not None:
            return self._columnar
        # Sort in the claim-key dtypes (cells as uint64): the claim order.
        keys = self.claim_keys()
        order = np.lexsort((keys["technology"], keys["cell"], keys["provider_id"]))
        keys = keys[order]
        change = keys[1:] != keys[:-1]
        starts = np.flatnonzero(np.r_[order.size > 0, change])
        first = order[starts]
        uniq = keys[starts]
        provider_id = np.ascontiguousarray(uniq["provider_id"], dtype=np.int64)
        cell = np.ascontiguousarray(uniq["cell"], dtype=np.uint64)
        technology = np.ascontiguousarray(uniq["technology"], dtype=np.int16)
        columns = ClaimColumns(
            provider_id=provider_id,
            cell=cell,
            technology=technology,
            claimed_count=np.diff(np.r_[starts, order.size]).astype(np.int64),
            max_download_mbps=np.maximum.reduceat(self.published_download()[order], starts),
            max_upload_mbps=np.maximum.reduceat(self.published_upload()[order], starts),
            low_latency=np.logical_or.reduceat(self.low_latency[order], starts),
            # Filing state of each claim's first filing row: the per-claim
            # convention for row-level attributes (claim_first_rows).
            state_idx=self.state_idx[first].astype(np.int16),
            _index=MultiColumnIndex(
                provider_id, cell, technology.astype(np.int64)
            ),
        )
        self._columnar = columns
        self._first_rows = first
        return columns

    def claim_first_rows(self) -> np.ndarray:
        """Each claim's first filing row, aligned with :meth:`columnar`.

        A claim's row-level attributes are those of its first filing row:
        ``state_idx`` in the columns, and ground truth as
        ``truly_served[claim_first_rows()]``.
        """
        self.columnar()
        return self._first_rows

    def rows_for_claim(self, key: ClaimKey) -> np.ndarray:
        """Row indices matching a hex-level claim (linear scan, test-sized)."""
        pid, cell, tech = key
        return np.where(
            (self.provider_id == pid)
            & (self.cell == np.uint64(cell))
            & (self.technology == tech)
        )[0]

    def provider_location_counts(self) -> dict[int, int]:
        """Number of BSL claims per provider (paper Fig. 4 uses these)."""
        pids, counts = np.unique(self.provider_id, return_counts=True)
        return {int(p): int(c) for p, c in zip(pids, counts)}

    def subset(self, mask: np.ndarray) -> "AvailabilityTable":
        """A new table containing only rows where ``mask`` is True."""
        return AvailabilityTable(
            provider_id=self.provider_id[mask],
            bsl_id=self.bsl_id[mask],
            technology=self.technology[mask],
            cell=self.cell[mask],
            state_idx=self.state_idx[mask],
            max_download_mbps=self.max_download_mbps[mask],
            max_upload_mbps=self.max_upload_mbps[mask],
            low_latency=self.low_latency[mask],
            truly_served=self.truly_served[mask],
        )


def generate_filings(
    fabric: Fabric,
    universe: ProviderUniverse,
    seed: int = 0,
    claim_fraction_range: tuple[float, float] = (0.55, 0.95),
) -> AvailabilityTable:
    """Generate BSL-level availability records from claimed footprints.

    Within each claimed hex a provider reports a per-provider random
    fraction of the hex's BSLs (the paper's "percentage of locations
    claimed" feature).  Records in overclaimed hexes carry
    ``truly_served=False``.

    Rows come provider by provider (universe order), footprint by
    footprint (insertion order), cell by cell (ascending).  The kernel
    records one entry per claimed cell, maps every entry onto the
    Fabric's cell-sorted BSL layout at once, and expands the entry
    columns with ``np.repeat``; the only per-cell Python work left is the
    ``rng.choice`` of a cell whose BSLs are partly claimed, drawn in that
    same order from the provider's own stream.
    """
    state_index = {s.abbr: i for i, s in enumerate(STATES)}
    by_provider: dict[int, list] = {}
    for (pid, state, tech), fp in universe.footprints.items():
        by_provider.setdefault(pid, []).append((state, tech, fp))

    # One entry per (footprint, claimed cell), in output order: one row
    # per footprint first, expanded to its claimed cells below.
    rngs, fractions, cells, served, footprint_rows = [], [], [], [], []
    for provider in universe.providers:
        rng = stream_rng(seed, "filings", provider.provider_id)
        rngs.append(rng)
        fractions.append(float(rng.uniform(*claim_fraction_range)))
        for state, tech, fp in by_provider.get(provider.provider_id, ()):
            tier = provider.tier_for(tech)
            claimed = np.sort(
                np.fromiter(fp.claimed_cells, dtype=np.uint64, count=len(fp.claimed_cells))
            )
            true = np.fromiter(fp.true_cells, dtype=np.uint64, count=len(fp.true_cells))
            cells.append(claimed)
            served.append(np.isin(claimed, true))
            footprint_rows.append((
                len(rngs) - 1, provider.provider_id, tech, state_index[state],
                tier.max_download_mbps, tier.max_upload_mbps, tier.low_latency,
                claimed.size,
            ))
    provider_row, provider_id, technology, filing_state, down, up, lowlat, n_cells = (
        list(zip(*footprint_rows)) or [()] * 8
    )
    n_cells = np.asarray(n_cells, dtype=np.int64)

    def _per_cell(values, dtype):
        return np.repeat(np.asarray(values, dtype=dtype), n_cells)

    cell = np.concatenate([np.empty(0, dtype=np.uint64), *cells])
    served = np.concatenate([np.empty(0, dtype=bool), *served])
    provider_row = _per_cell(provider_row, np.int64)

    # Every claimed cell's BSLs; hex cells can straddle state borders and
    # a filing only covers the BSLs in the filing's own state.
    entry, bsl = fabric.bsls_in_cells(cell)
    in_state = fabric.state_idx[bsl] == _per_cell(filing_state, np.int16)[entry]
    entry, bsl = entry[in_state], bsl[in_state]
    n = np.bincount(entry, minlength=cell.size)
    starts = np.cumsum(n) - n
    fraction = np.asarray(fractions, dtype=np.float64)[provider_row]
    take = np.where(n > 0, np.maximum(1, np.rint(fraction * n).astype(np.int64)), 0)
    partial = take < n
    take = np.minimum(take, n)

    # Output slot j of entry e reads candidate starts[e] + j, except in
    # partly claimed cells, whose slots hold the provider's rng.choice.
    out_starts = np.cumsum(take) - take
    pick = np.repeat(starts, take) + ragged_arange(take)
    for e in np.flatnonzero(partial).tolist():
        rng = rngs[provider_row[e]]
        k = int(take[e])
        pick[out_starts[e] : out_starts[e] + k] = starts[e] + rng.choice(
            int(n[e]), size=k, replace=False
        )
    bsl_id = bsl[pick].astype(np.int64)
    return AvailabilityTable(
        provider_id=np.repeat(_per_cell(provider_id, np.int64), take),
        bsl_id=bsl_id,
        technology=np.repeat(_per_cell(technology, np.int16), take),
        cell=np.repeat(cell, take),
        state_idx=fabric.state_idx[bsl_id].astype(np.int16),
        max_download_mbps=np.repeat(_per_cell(down, np.float64), take),
        max_upload_mbps=np.repeat(_per_cell(up, np.float64), take),
        low_latency=np.repeat(_per_cell(lowlat, bool), take),
        truly_served=np.repeat(served, take),
    )
