"""The simulator's array kernels vs. the scalar code they replaced.

* **Disks** — ``grid_disk_vec`` equals ``grid_disk`` set for set, row by
  row, for k = 0..12, several resolutions and duplicate centres.
* **Filings** — the columnar ``generate_filings`` equals the per-cell
  loop (``filings_oracle.py``) column for column, bitwise: on the tiny
  world, and on hand-built universes with state-straddling cells, empty
  claimed cells, cells where the whole hex is claimed (``take >= n``)
  and footprints of providers that are not in the universe.
* **Re-projection** — the batched ``quadkeys_to_cells`` equals the
  per-tile scalar sample-point conversion, including tiles that span
  several hexes, and ``reproject_tiles`` equals the per-tile fold.
* **Ookla inputs** — ``latlng_to_quadkey_vec`` equals the scalar quadkey
  (points exactly on tile edges included); the served-speed reduction
  equals the per-row dict loop.
* **Fabric** — ``bsls_in_cells`` and ``cells_in_state`` equal direct
  scans of the raw columns.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filings_oracle import scalar_filings
from repro.fcc.bdc import AvailabilityTable, generate_filings
from repro.fcc.fabric import Fabric, FabricConfig
from repro.fcc.providers import (
    FootprintPair,
    Methodology,
    Provider,
    ProviderConfig,
    ProviderUniverse,
    ServiceTier,
)
from repro.fcc.states import STATES
from repro.geo import hexgrid as hg
from repro.geo import quadkey as qk
from repro.geo.reproject import (
    HexAggregate,
    OoklaTileAggregate,
    quadkeys_to_cells,
    reproject_tiles,
)
from repro.speedtests.ookla import _served_speed_by_bsl

_TABLE_ARRAYS = (
    "provider_id",
    "bsl_id",
    "technology",
    "cell",
    "state_idx",
    "max_download_mbps",
    "max_upload_mbps",
    "low_latency",
    "truly_served",
)


def _assert_tables_equal(got: AvailabilityTable, want: AvailabilityTable):
    for name in _TABLE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


# -- disks --------------------------------------------------------------------

_lat = st.floats(min_value=-80.0, max_value=80.0)
_lng = st.floats(min_value=-180.0, max_value=180.0)


@given(
    points=st.lists(st.tuples(_lat, _lng), min_size=1, max_size=5),
    n_dup=st.integers(min_value=0, max_value=2),
    k=st.integers(min_value=0, max_value=12),
    res=st.integers(min_value=4, max_value=10),
)
@settings(max_examples=60, deadline=None)
def test_grid_disk_vec_equals_grid_disk(points, n_dup, k, res):
    centers = [hg.latlng_to_cell(lat, lng, res) for lat, lng in points]
    centers += centers[:1] * n_dup
    rows, cells = hg.grid_disk_vec(centers, k)
    assert rows.dtype == np.int64 and cells.dtype == np.uint64
    assert rows.size == len(centers) * (3 * k * (k + 1) + 1)
    for i, center in enumerate(centers):
        disk = cells[rows == i].tolist()
        assert len(disk) == len(set(disk))
        assert set(disk) == set(hg.grid_disk(center, k))


def test_grid_disk_vec_mixed_resolutions_and_edges():
    a, b = hg.latlng_to_cell(40.0, -100.0, 8), hg.latlng_to_cell(40.0, -100.0, 6)
    rows, cells = hg.grid_disk_vec(np.array([a, b], dtype=np.uint64), 2)
    assert set(cells[rows == 0].tolist()) == set(hg.grid_disk(a, 2))
    assert set(cells[rows == 1].tolist()) == set(hg.grid_disk(b, 2))
    rows, cells = hg.grid_disk_vec([], 3)
    assert rows.size == cells.size == 0
    with pytest.raises(ValueError):
        hg.grid_disk_vec([a], -1)


# -- filings --------------------------------------------------------------------


def _tier(tech, down=100.0, up=10.0, low_latency=True):
    return ServiceTier(tech, down, up, low_latency)


def _provider(pid, tiers):
    return Provider(
        provider_id=pid,
        name=f"P{pid}",
        brand_name=f"P{pid}",
        holding_company=f"P{pid}",
        size_class="local",
        states=("NE", "KS"),
        tiers=tuple(tiers),
        methodology=Methodology.SUBSCRIBER_ADDRESSES,
        methodology_text="",
        overclaim_rate=0.1,
        concede_propensity=0.5,
        self_correction_rate=0.1,
        frns=(1,),
        contact_email="noc@example.com",
        email_domain="example.com",
        hq_address="1 Main Street",
        hq_state="NE",
    )


def _fabric(cells, state_idx):
    cells = np.asarray(cells, dtype=np.uint64)
    n = cells.size
    return Fabric(
        lats=np.zeros(n),
        lngs=np.zeros(n),
        state_idx=np.asarray(state_idx, dtype=np.int16),
        unit_counts=np.ones(n, dtype=np.int32),
        building_types=np.zeros(n, dtype=np.int8),
        cells=cells,
        towns=[],
        config=FabricConfig(),
    )


_STATE = {s.abbr: i for i, s in enumerate(STATES)}
_DISK = hg.grid_disk(hg.latlng_to_cell(40.5, -98.5, 8), 2)  # 19 cells


def test_filings_match_oracle_on_tiny_world(tiny_world):
    world = tiny_world
    got = generate_filings(world.fabric, world.universe, seed=world.config.seed)
    want = scalar_filings(world.fabric, world.universe, seed=world.config.seed)
    _assert_tables_equal(got, want)
    _assert_tables_equal(got, world.table)


def test_filings_hand_built_universe():
    ne, ks = _STATE["NE"], _STATE["KS"]
    c = _DISK
    # c[0]: 6 NE + 3 KS BSLs (straddles the border); c[1]: 1 NE BSL; c[2]:
    # KS only; c[3]: 12 NE BSLs; c[4..]: empty.
    cells = [c[0]] * 9 + [c[1]] + [c[2]] * 2 + [c[3]] * 12
    states = [ne] * 6 + [ks] * 3 + [ne] + [ks] * 2 + [ne] * 12
    order = np.random.default_rng(0).permutation(len(cells))
    fabric = _fabric(np.array(cells, dtype=np.uint64)[order], np.array(states)[order])
    providers = [
        _provider(11, [_tier(50, 940.0, 940.0), _tier(10, 25.0, 3.125, False)]),
        _provider(12, [_tier(40, 400.0, 20.0)]),
        _provider(13, [_tier(70)]),  # files nothing
    ]
    footprints = {
        (11, "NE", 50): FootprintPair(frozenset(c[:2]), frozenset(c[:6])),
        (12, "KS", 40): FootprintPair(frozenset(), frozenset(c[:4])),
        (11, "KS", 10): FootprintPair(frozenset(c[:4]), frozenset(c[:4])),
        (99, "NE", 50): FootprintPair(frozenset(c), frozenset(c)),  # unknown provider
        (12, "NE", 40): FootprintPair(frozenset(), frozenset()),
    }
    universe = ProviderUniverse(providers, footprints, ProviderConfig())
    for fractions in ((0.55, 0.95), (0.0, 0.0), (1.0, 1.0), (0.2, 0.4)):
        got = generate_filings(fabric, universe, seed=3, claim_fraction_range=fractions)
        want = scalar_filings(fabric, universe, seed=3, claim_fraction_range=fractions)
        _assert_tables_equal(got, want)
        # Every row's BSL lies in its footprint's state (c[0] straddles).
        footprint_state = {(11, 50): ne, (12, 40): ks, (11, 10): ks}
        for pid, tech, state in zip(got.provider_id, got.technology, got.state_idx):
            assert state == footprint_state[(int(pid), int(tech))]
    empty = generate_filings(fabric, ProviderUniverse([], {}, ProviderConfig()))
    _assert_tables_equal(empty, scalar_filings(fabric, ProviderUniverse([], {}, ProviderConfig())))


@st.composite
def _universes(draw):
    n_cells = draw(st.integers(min_value=1, max_value=10))
    cells = _DISK[:n_cells]
    extra = _DISK[n_cells : n_cells + 2]  # claimable but unoccupied
    bsls = draw(
        st.lists(
            st.tuples(st.integers(0, n_cells - 1), st.sampled_from(["NE", "KS"])),
            max_size=40,
        )
    )
    fabric = _fabric(
        [cells[i] for i, _ in bsls] or np.empty(0, dtype=np.uint64),
        [_STATE[s] for _, s in bsls],
    )
    providers, footprints = [], {}
    pool = cells + extra
    for pid in range(1, draw(st.integers(min_value=1, max_value=3)) + 1):
        techs = draw(st.lists(st.sampled_from([10, 40, 50]), min_size=1, max_size=2, unique=True))
        providers.append(_provider(pid, [_tier(t, 10.0 * t, float(t)) for t in techs]))
        for state in draw(st.lists(st.sampled_from(["NE", "KS"]), max_size=2, unique=True)):
            for tech in techs:
                claimed = draw(st.sets(st.sampled_from(pool), max_size=len(pool)))
                true = draw(st.sets(st.sampled_from(pool), max_size=len(pool)))
                footprints[(pid, state, tech)] = FootprintPair(
                    frozenset(true), frozenset(claimed)
                )
    lo = draw(st.floats(min_value=0.0, max_value=1.0))
    hi = draw(st.floats(min_value=lo, max_value=1.0))
    return fabric, ProviderUniverse(providers, footprints, ProviderConfig()), (lo, hi)


@given(case=_universes(), seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=80, deadline=None)
def test_filings_match_oracle_on_random_universes(case, seed):
    fabric, universe, fractions = case
    got = generate_filings(fabric, universe, seed=seed, claim_fraction_range=fractions)
    want = scalar_filings(fabric, universe, seed=seed, claim_fraction_range=fractions)
    _assert_tables_equal(got, want)


# -- re-projection --------------------------------------------------------------


def _scalar_quadkey_cells(quadkey: str, res: int) -> list[int]:
    """The per-tile reference: five scalar sample points per tile."""
    lat_s, lat_n, lng_w, lng_e = qk.quadkey_to_bounds(quadkey)
    clat, clng = qk.quadkey_to_center(quadkey)
    points = [(clat, clng), (lat_s, lng_w), (lat_s, lng_e), (lat_n, lng_w), (lat_n, lng_e)]
    return sorted({hg.latlng_to_cell(lat, lng, res) for lat, lng in points})


_tile_point = st.tuples(
    st.floats(min_value=-85.0, max_value=85.0), st.floats(min_value=-180.0, max_value=180.0)
)


@given(
    points=st.lists(_tile_point, max_size=8),
    level=st.integers(min_value=9, max_value=18),
    res=st.integers(min_value=6, max_value=10),
)
@settings(max_examples=60, deadline=None)
def test_quadkeys_to_cells_equals_per_tile_scalar(points, level, res):
    keys = [qk.latlng_to_quadkey(lat, lng, level) for lat, lng in points]
    rows, cells = quadkeys_to_cells(keys, res)
    assert rows.dtype == np.int64 and cells.dtype == np.uint64
    for i, key in enumerate(keys):
        assert cells[rows == i].tolist() == _scalar_quadkey_cells(key, res)


def test_quadkeys_to_cells_multi_hex_and_map_edges():
    keys = [
        qk.latlng_to_quadkey(40.0, -100.0, 12),  # ~10 km tile: many res-8 hexes
        qk.tile_to_quadkey(2**16 - 1, 2**16 - 1, 16),  # south-east map corner
        qk.tile_to_quadkey(0, 0, 16),  # north-west map corner
        qk.latlng_to_quadkey(40.0, -100.0, 16),
    ]
    rows, cells = quadkeys_to_cells(keys, 8)
    assert (rows == 0).sum() > 1
    for i, key in enumerate(keys):
        assert cells[rows == i].tolist() == _scalar_quadkey_cells(key, 8)
    rows, cells = quadkeys_to_cells([], 8)
    assert rows.size == cells.size == 0


def _scalar_reproject(tiles, res):
    out: dict[int, HexAggregate] = {}
    for tile in tiles:
        for cell in _scalar_quadkey_cells(tile.quadkey, res):
            out.setdefault(cell, HexAggregate(cell=cell)).absorb(tile)
    return out


def test_reproject_tiles_equals_per_tile_fold(tiny_world):
    tiles = tiny_world.ookla_tiles
    got = reproject_tiles(tiles, res=8)
    want = _scalar_reproject(tiles, 8)
    assert list(got) == list(want)
    assert got == want
    coarse = [
        OoklaTileAggregate(qk.quadkey_parent(qk.quadkey_parent(t.quadkey)), t.tests,
                           t.devices, t.avg_download_kbps, t.avg_upload_kbps,
                           t.avg_latency_ms)
        for t in tiles[:300]
    ]
    assert reproject_tiles(coarse, res=8) == _scalar_reproject(coarse, 8)


# -- Ookla inputs ---------------------------------------------------------------


@given(
    points=st.lists(
        st.tuples(st.floats(min_value=-89.0, max_value=89.0), st.floats(min_value=-180.0, max_value=180.0)),
        max_size=10,
    ),
    level=st.integers(min_value=1, max_value=23),
)
@settings(max_examples=60, deadline=None)
def test_latlng_to_quadkey_vec_equals_scalar(points, level):
    lats = [p[0] for p in points]
    lngs = [p[1] for p in points]
    assert qk.latlng_to_quadkey_vec(lats, lngs, level) == [
        qk.latlng_to_quadkey(lat, lng, level) for lat, lng in points
    ]


def _tile_edge_points(n, level=16, seed=5):
    """Points whose pixel y lands exactly on the edge between two tile rows
    (``latlng_to_pixel`` adds half a pixel before truncating)."""
    rng = np.random.default_rng(seed)
    size = 256 << level
    fy = 256 * rng.integers(size // 1024, 3 * size // 1024, n)
    y = 0.5 - (fy - 0.5) / size
    lats = [90.0 - 360.0 * math.atan(math.exp(-v * 2.0 * math.pi)) / math.pi for v in y]
    lngs = rng.uniform(-125.0, -66.0, n).tolist()
    return lats, lngs


class _UlpOffNumpy:
    """NumPy whose ``sin`` and ``log`` answer one ulp away from NumPy's."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def sin(x):
        return np.nextafter(np.sin(x), -np.inf)

    @staticmethod
    def log(x):
        return np.nextafter(np.log(x), np.inf)


@pytest.mark.parametrize("ulp_off", [False, True])
def test_latlng_to_quadkey_vec_on_tile_edges(monkeypatch, ulp_off):
    # On a tile edge a last-ulp difference between NumPy's and math's
    # transcendentals decides the tile, so the scalar re-check must.
    if ulp_off:
        monkeypatch.setattr(qk, "np", _UlpOffNumpy())
    lats, lngs = _tile_edge_points(300)
    assert qk.latlng_to_quadkey_vec(lats, lngs, 16) == [
        qk.latlng_to_quadkey(lat, lng, 16) for lat, lng in zip(lats, lngs)
    ]


def _scalar_served_speeds(table):
    speeds: dict[int, float] = {}
    for row in np.where(table.truly_served)[0]:
        bsl = int(table.bsl_id[row])
        speed = float(table.max_download_mbps[row])
        if speed > speeds.get(bsl, 0.0):
            speeds[bsl] = speed
    return speeds


def test_served_speed_reduction_equals_dict_loop(tiny_world):
    table = tiny_world.table
    n = len(tiny_world.fabric)
    cases = [table]
    # Zero-speed served rows and repeated BSLs, which the world never has.
    rng = np.random.default_rng(1)
    k = 500
    cases.append(
        AvailabilityTable(
            provider_id=np.zeros(k, dtype=np.int64),
            bsl_id=rng.integers(0, 50, k).astype(np.int64),
            technology=np.zeros(k, dtype=np.int16),
            cell=np.zeros(k, dtype=np.uint64),
            state_idx=np.zeros(k, dtype=np.int16),
            max_download_mbps=rng.choice([0.0, 5.0, 25.0, 100.0], k),
            max_upload_mbps=np.zeros(k),
            low_latency=np.zeros(k, dtype=bool),
            truly_served=rng.random(k) < 0.6,
        )
    )
    for case in cases:
        speeds = _served_speed_by_bsl(case, n)
        want = _scalar_served_speeds(case)
        assert sorted(np.flatnonzero(speeds > 0).tolist()) == sorted(want)
        for bsl, mbps in want.items():
            assert speeds[bsl] == mbps


# -- fabric ---------------------------------------------------------------------


def test_bsls_in_cells_and_cells_in_state_equal_raw_scans(small_fabric):
    fabric = small_fabric
    occupied = np.unique(fabric.cells)
    queries = np.concatenate([occupied[::7], np.array([12345], dtype=np.uint64), occupied[:3]])
    rows, bsls = fabric.bsls_in_cells(queries)
    for i, cell in enumerate(queries.tolist()):
        want = np.flatnonzero(fabric.cells == np.uint64(cell))
        assert np.array_equal(bsls[rows == i], want)
        assert np.array_equal(fabric.bsls_in_cell(cell), want)
    assert fabric.occupied_cells == occupied.tolist()
    for i, state in enumerate(STATES):
        want = np.unique(fabric.cells[fabric.state_idx == i]).tolist()
        assert fabric.cells_in_state(state.abbr) == want
        assert np.array_equal(fabric.bsls_in_state(state.abbr), np.flatnonzero(fabric.state_idx == i))
