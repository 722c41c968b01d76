"""The Broadband Serviceable Location Fabric (simulated).

The real Fabric — every broadband-serviceable structure in the US — is a
licensed CostQuest dataset the paper could not redistribute.  This module
generates a synthetic Fabric with the spatial statistics the pipeline
depends on:

* locations cluster into towns (2-D Gaussian blobs around town centres,
  with Zipf-distributed town sizes) plus rural *hamlets* — small clusters
  of a few locations, the way rural structures group along roads;
* the per-hex location density matches the paper's Figure 9 (median ≈ 4
  BSLs per resolution-8 hex cell);
* each location carries unit counts and a building type, with community
  anchor institutions (CAIs) flagged separately as in the BDC.

Storage is struct-of-arrays for scale; :class:`BSL` offers a per-row view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fcc.states import STATES, StateInfo, state_by_abbr
from repro.geo import hexgrid
from repro.utils.indexing import ColumnIndex, ragged_arange
from repro.utils.rng import stream_rng

__all__ = ["FabricConfig", "BSL", "Town", "Fabric", "generate_fabric"]

#: Building-type codes.
RESIDENTIAL, BUSINESS, CAI = 0, 1, 2
_BUILDING_TYPE_NAMES = {RESIDENTIAL: "residential", BUSINESS: "business", CAI: "cai"}


@dataclass(frozen=True)
class FabricConfig:
    """Knobs controlling synthetic Fabric generation."""

    #: BSLs generated per million of state population.
    locations_per_million: int = 1500
    #: Towns per million of state population.
    towns_per_million: float = 2.5
    #: Std-dev of the town Gaussian in km.
    town_sigma_km: float = 1.0
    #: Zipf exponent for town sizes (larger -> more top-heavy).
    town_zipf_exponent: float = 0.9
    #: Fraction of BSLs placed in rural hamlets rather than towns.
    rural_fraction: float = 0.15
    #: Mean BSLs per rural hamlet (hamlet sizes are Poisson around this).
    #: Calibrated together with ``town_sigma_km`` and ``hamlet_sigma_km`` so
    #: the median BSL count per occupied res-8 hex is 4 (paper Fig. 9).
    hamlet_mean_size: float = 8.0
    #: Spatial spread of a hamlet in km.
    hamlet_sigma_km: float = 0.08
    #: Hex resolution for localization (the NBM publishes res 8).
    hex_resolution: int = 8
    #: Fraction of locations that are businesses / community anchors.
    business_fraction: float = 0.07
    cai_fraction: float = 0.01

    def validate(self) -> "FabricConfig":
        if self.locations_per_million < 1:
            raise ValueError("locations_per_million must be >= 1")
        if not 0.0 <= self.rural_fraction <= 1.0:
            raise ValueError("rural_fraction must be in [0, 1]")
        if self.business_fraction + self.cai_fraction > 0.5:
            raise ValueError("business + CAI fractions unreasonably high")
        return self


@dataclass(frozen=True)
class Town:
    """A population cluster BSLs are generated around."""

    state: str
    lat: float
    lng: float
    weight: float


@dataclass(frozen=True)
class BSL:
    """One Broadband Serviceable Location (a row view into the Fabric)."""

    bsl_id: int
    lat: float
    lng: float
    state: str
    unit_count: int
    building_type: str
    cell: int


class Fabric:
    """The synthetic BSL Fabric: arrays plus spatial/state indexes."""

    def __init__(
        self,
        lats: np.ndarray,
        lngs: np.ndarray,
        state_idx: np.ndarray,
        unit_counts: np.ndarray,
        building_types: np.ndarray,
        cells: np.ndarray,
        towns: list[Town],
        config: FabricConfig,
    ):
        self.lats = lats
        self.lngs = lngs
        self.state_idx = state_idx
        self.unit_counts = unit_counts
        self.building_types = building_types
        self.cells = cells
        self.towns = towns
        self.config = config
        self._state_abbrs = np.array([s.abbr for s in STATES])
        self._towns_by_state: dict[str, list[Town]] = {}
        for town in towns:
            self._towns_by_state.setdefault(town.state, []).append(town)
        # Cell-sorted layout: the BSL rows of occupied cell ``i`` are
        # ``_bsl_order[_cell_starts[i] : _cell_starts[i] + _occupied_counts[i]]``,
        # ascending within the cell.
        order = np.argsort(cells, kind="stable")
        sorted_cells = cells[order]
        first = np.r_[True, sorted_cells[1:] != sorted_cells[:-1]][: cells.size]
        self._bsl_order = order
        self._cell_starts = np.flatnonzero(first)
        self._occupied = sorted_cells[first].astype(np.uint64)
        self._occupied_counts = np.diff(np.r_[self._cell_starts, cells.size]).astype(np.int64)
        self._occupied_index = ColumnIndex(self._occupied)
        by_state = np.argsort(state_idx, kind="stable")
        self._by_state = _split_by_state(state_idx[by_state], by_state)
        # One (state, cell) reduction: each state's distinct occupied cells.
        pair = np.lexsort((cells, state_idx))
        pair_state, pair_cell = state_idx[pair], cells[pair]
        distinct = np.r_[
            True,
            (pair_state[1:] != pair_state[:-1]) | (pair_cell[1:] != pair_cell[:-1]),
        ][: cells.size]
        self._cells_by_state = _split_by_state(pair_state[distinct], pair_cell[distinct])

    # -- size and row access ------------------------------------------------

    def __len__(self) -> int:
        return int(self.lats.size)

    def bsl(self, bsl_id: int) -> BSL:
        """Materialize one row as a :class:`BSL`."""
        if not 0 <= bsl_id < len(self):
            raise IndexError(f"bsl_id {bsl_id} out of range")
        return BSL(
            bsl_id=bsl_id,
            lat=float(self.lats[bsl_id]),
            lng=float(self.lngs[bsl_id]),
            state=str(self._state_abbrs[self.state_idx[bsl_id]]),
            unit_count=int(self.unit_counts[bsl_id]),
            building_type=_BUILDING_TYPE_NAMES[int(self.building_types[bsl_id])],
            cell=int(self.cells[bsl_id]),
        )

    # -- indexes ------------------------------------------------------------

    @property
    def occupied_cells(self) -> list[int]:
        """Hex cells containing at least one BSL, ascending."""
        return self._occupied.tolist()

    def bsls_in_cells(self, cells) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`bsls_in_cell` for many cells at once.

        Returns ``(row, bsl)``: int64 query rows and the BSL rows of
        ``cells[row]``, each cell's BSLs ascending and queries in order.
        Unoccupied cells contribute nothing.
        """
        cells = np.asarray(cells, dtype=np.uint64).ravel()
        if self._occupied.size == 0 or cells.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        pos = self._occupied_index.positions(cells)
        found = pos >= 0
        counts = np.where(found, self._occupied_counts[pos], 0)
        starts = self._cell_starts[pos]
        row = np.repeat(np.arange(cells.size, dtype=np.int64), counts)
        return row, self._bsl_order[np.repeat(starts, counts) + ragged_arange(counts)]

    def bsls_in_cell(self, cell: int) -> np.ndarray:
        """Row indices of BSLs in a hex cell, ascending (empty if none)."""
        cell = int(cell)
        if not 0 <= cell < 1 << 64:
            return np.empty(0, dtype=np.int64)
        return self.bsls_in_cells([cell])[1]

    def bsl_count_in_cell(self, cell: int) -> int:
        return int(self.bsls_in_cell(cell).size)

    def bsl_counts_in_cells(self, cells: np.ndarray) -> np.ndarray:
        """BSL count per queried cell (0 for unoccupied), vectorized.

        One indexed lookup over the occupied-cell table replaces a
        ``bsl_count_in_cell`` call per cell; equal to the scalar method
        element-wise.
        """
        cells = np.asarray(cells, dtype=np.uint64)
        if self._occupied_counts.size == 0 or cells.size == 0:
            return np.zeros(cells.size, dtype=np.int64)
        pos = self._occupied_index.positions(cells)
        found = pos >= 0
        return np.where(
            found, self._occupied_counts[np.where(found, pos, 0)], 0
        ).astype(np.int64)

    def bsls_in_state(self, abbr: str) -> np.ndarray:
        """Row indices of BSLs in a state."""
        state_by_abbr(abbr)  # validate
        return self._by_state.get(abbr.upper(), np.empty(0, dtype=np.int64))

    def cells_in_state(self, abbr: str) -> list[int]:
        """Distinct occupied cells in a state, ascending."""
        state_by_abbr(abbr)  # validate
        return self._cells_by_state[abbr.upper()].tolist()

    def towns_in_state(self, abbr: str) -> list[Town]:
        return list(self._towns_by_state.get(abbr.upper(), ()))

    def state_of_cell(self, cell: int) -> str | None:
        """State of a cell's BSLs (None for unoccupied cells)."""
        rows = self.bsls_in_cell(cell)
        if rows.size == 0:
            return None
        return str(self._state_abbrs[self.state_idx[rows[0]]])

    def bsls_per_cell_distribution(self) -> np.ndarray:
        """Array of per-occupied-cell BSL counts (paper Fig. 9)."""
        return self._occupied_counts.copy()


def _split_by_state(sorted_state: np.ndarray, values: np.ndarray) -> dict[str, np.ndarray]:
    """Per state abbreviation, the slice of ``values`` whose (ascending)
    ``sorted_state`` entry is that state's index."""
    bounds = np.searchsorted(sorted_state, np.arange(len(STATES) + 1))
    return {s.abbr: values[bounds[i] : bounds[i + 1]] for i, s in enumerate(STATES)}


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=float)
    w = ranks**-exponent
    return w / w.sum()


def generate_fabric(
    config: FabricConfig | None = None,
    seed: int = 0,
    states: tuple[StateInfo, ...] = STATES,
) -> Fabric:
    """Generate a synthetic Fabric (see module docstring for the model)."""
    config = (config or FabricConfig()).validate()
    all_lats: list[np.ndarray] = []
    all_lngs: list[np.ndarray] = []
    all_state_idx: list[np.ndarray] = []
    towns: list[Town] = []
    state_index_map = {s.abbr: i for i, s in enumerate(STATES)}

    for state in states:
        rng = stream_rng(seed, "fabric", state.abbr)
        n_bsl = max(10, int(round(config.locations_per_million * state.population_m)))
        n_towns = max(1, int(round(config.towns_per_million * state.population_m)))
        # Inset town centres so the Gaussian blobs stay mostly inside the box.
        lat_margin = 0.05 * (state.lat_max - state.lat_min)
        lng_margin = 0.05 * (state.lng_max - state.lng_min)
        town_lats = rng.uniform(state.lat_min + lat_margin, state.lat_max - lat_margin, n_towns)
        town_lngs = rng.uniform(state.lng_min + lng_margin, state.lng_max - lng_margin, n_towns)
        weights = _zipf_weights(n_towns, config.town_zipf_exponent)
        for tlat, tlng, w in zip(town_lats, town_lngs, weights):
            towns.append(Town(state.abbr, float(tlat), float(tlng), float(w)))

        n_rural = int(round(config.rural_fraction * n_bsl))
        n_urban = n_bsl - n_rural
        assignment = rng.choice(n_towns, size=n_urban, p=weights)
        sigma_lat = config.town_sigma_km / 111.0
        coslat = np.cos(np.radians((state.lat_min + state.lat_max) / 2.0))
        sigma_lng = sigma_lat / max(coslat, 0.2)
        lats = town_lats[assignment] + rng.normal(0.0, sigma_lat, n_urban)
        lngs = town_lngs[assignment] + rng.normal(0.0, sigma_lng, n_urban)
        # Rural hamlets: a few structures per cluster, not a uniform dusting.
        n_hamlets = max(1, int(round(n_rural / config.hamlet_mean_size)))
        hamlet_lats = rng.uniform(state.lat_min, state.lat_max, n_hamlets)
        hamlet_lngs = rng.uniform(state.lng_min, state.lng_max, n_hamlets)
        hamlet_of = rng.integers(0, n_hamlets, n_rural)
        h_sigma_lat = config.hamlet_sigma_km / 111.0
        h_sigma_lng = h_sigma_lat / max(coslat, 0.2)
        rural_lats = hamlet_lats[hamlet_of] + rng.normal(0.0, h_sigma_lat, n_rural)
        rural_lngs = hamlet_lngs[hamlet_of] + rng.normal(0.0, h_sigma_lng, n_rural)
        lats = np.clip(np.r_[lats, rural_lats], state.lat_min, state.lat_max)
        lngs = np.clip(np.r_[lngs, rural_lngs], state.lng_min, state.lng_max)
        all_lats.append(lats)
        all_lngs.append(lngs)
        all_state_idx.append(
            np.full(n_bsl, state_index_map[state.abbr], dtype=np.int16)
        )

    lats = np.concatenate(all_lats)
    lngs = np.concatenate(all_lngs)
    state_idx = np.concatenate(all_state_idx)

    rng = stream_rng(seed, "fabric", "attributes")
    n = lats.size
    # Unit counts: overwhelmingly single-unit, a thin tail of large MDUs.
    unit_counts = np.ones(n, dtype=np.int32)
    mdu = rng.random(n) < 0.04
    unit_counts[mdu] = rng.integers(2, 120, int(mdu.sum()))
    building_types = np.zeros(n, dtype=np.int8)
    draw = rng.random(n)
    building_types[draw < config.business_fraction] = BUSINESS
    building_types[draw >= 1.0 - config.cai_fraction] = CAI

    cells = hexgrid.latlng_to_cell_vec(lats, lngs, config.hex_resolution)
    return Fabric(
        lats=lats,
        lngs=lngs,
        state_idx=state_idx,
        unit_counts=unit_counts,
        building_types=building_types,
        cells=cells,
        towns=towns,
        config=config,
    )
