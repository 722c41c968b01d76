"""The one MLab attribution pass vs. the scalar per-test loops it replaced.

* **Reductions** — ``segment_median_p90`` and ``build_truth_map`` agree
  bitwise (NaN-aware) with ``directional_summary`` per tile, over the
  cases simulated worlds never produce: n = 1, odd/even n, duplicates,
  NaN/±inf/0/negative samples, down-only and up-only tiles.
* **Edge cases** — no tests, every test over the radius cap, every test
  unattributed, a provider missing from the claimed map, a provider with
  an empty claimed set: empty results with the oracle's drop counts.
* **World** — on the tiny world's tests, localization counts, drop
  tallies, per-provider cells and all seven truth-map columns equal the
  scalar oracle (``attribution_oracle.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attribution_oracle import scalar_attribution, scalar_truth_rows
from repro.asn.matching import CrosswalkResult
from repro.dataset.likely_served import (
    AttributionTriples,
    MLabLocalization,
    localize_mlab_tests,
)
from repro.enrich import build_truth_map
from repro.enrich.truthmap import _COLUMNS
from repro.geo import hexgrid as hg
from repro.speedtests.aggregate import directional_summary, segment_median_p90
from repro.speedtests.mlab import MLabTest


def _same_floats(a, b) -> bool:
    """Bitwise equality, except that every NaN equals every NaN."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    nan = np.isnan(a)
    return (
        a.shape == b.shape
        and np.array_equal(nan, np.isnan(b))
        and a[~nan].tobytes() == b[~nan].tobytes()
    )


_sample = st.one_of(
    st.sampled_from(
        [0.0, -0.0, -3.5, float("nan"), float("inf"), -float("inf"), 1.0, 2.0, 2.0, 1e308]
    ),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)


# -- reductions ------------------------------------------------------------------


@given(tiles=st.lists(st.lists(_sample, max_size=9), min_size=1, max_size=8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_segment_median_p90_matches_directional_summary(tiles, seed):
    samples = np.array([v for tile in tiles for v in tile], dtype=np.float64)
    segment = np.repeat(np.arange(len(tiles)), [len(t) for t in tiles])
    order = np.random.default_rng(seed).permutation(samples.size)
    with np.errstate(all="ignore"):
        median, p90 = segment_median_p90(samples[order], segment[order], len(tiles))
        for i, tile in enumerate(tiles):
            ref = directional_summary(tile, [])
            assert _same_floats(median[i], ref.median_down), (tile, median[i])
            assert _same_floats(p90[i], ref.p90_down), (tile, p90[i])


@pytest.mark.parametrize(
    "values",
    [[7.0], [3.0, 1.0, 2.0], [4.0, 1.0, 3.0, 2.0], [2.0, 2.0, 2.0, 5.0],
     [0.0, -1.0, float("nan"), float("inf")], [1e308, 1.7e308], []],
)
def test_segment_median_p90_pinned_cases(values):
    with np.errstate(all="ignore"):
        median, p90 = segment_median_p90(values, np.zeros(len(values), np.int64), 1)
        ref = directional_summary(values, [])
    assert _same_floats(median[0], ref.median_down)
    assert _same_floats(p90[0], ref.p90_down)


def _test(i, down, up, asn=64500, lat=40.0, lng=-100.0, radius=1500.0):
    return MLabTest(
        test_id=i, asn=asn, lat=lat, lng=lng, accuracy_radius_m=radius,
        download_mbps=down, upload_mbps=up, latency_ms=20.0,
    )


@given(
    tiles=st.lists(
        st.lists(st.tuples(_sample, _sample), min_size=1, max_size=7),
        min_size=1,
        max_size=6,
    ),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_truth_map_matches_per_tile_directional_summary(tiles, seed):
    """build_truth_map over hand-made triples == the per-tile oracle."""
    rng = np.random.default_rng(seed)
    tests, hits = [], {}
    for t, tile in enumerate(tiles):
        key = (int(rng.integers(1, 4)), 1000 + t)
        for down, up in tile:
            hits.setdefault(key, []).append(len(tests))
            tests.append(_test(len(tests), down, up))
    order = rng.permutation(len(tests))  # test rows need not follow tiles
    tests = [tests[i] for i in order]
    position = np.argsort(order)
    hits = {k: sorted(position[rows].tolist()) for k, rows in hits.items()}
    triples = sorted((pid, cell, row) for (pid, cell), rows in hits.items() for row in rows)
    localization = MLabLocalization(
        cells_by_provider={}, test_counts={}, n_dropped_radius=0,
        n_dropped_unattributed=0,
        triples=AttributionTriples(
            test_row=np.array([r for _, _, r in triples], dtype=np.int64),
            provider_id=np.array([p for p, _, _ in triples], dtype=np.int64),
            cell=np.array([c for _, c, _ in triples], dtype=np.uint64),
            download_mbps=np.array([tests[r].download_mbps for *_, r in triples]),
            upload_mbps=np.array([tests[r].upload_mbps for *_, r in triples]),
        ),
    )
    with np.errstate(all="ignore"):
        tm = build_truth_map(localization)
        ref = scalar_truth_rows(tests, hits)
    for name, dtype in _COLUMNS:
        got = getattr(tm, name)
        assert got.dtype == dtype
        if dtype == np.float64:
            assert _same_floats(got, ref[name]), name
        else:
            np.testing.assert_array_equal(got, ref[name])


def test_truth_map_refuses_a_localization_without_triples():
    localization = MLabLocalization(
        cells_by_provider={}, test_counts={(1, 5): 2}, n_dropped_radius=0,
        n_dropped_unattributed=0,
    )
    with pytest.raises(ValueError, match="triples"):
        build_truth_map(localization)


# -- edge cases --------------------------------------------------------------------


_CELL = hg.latlng_to_cell(40.0, -100.0, 8)
_CROSSWALK = CrosswalkResult(by_method={}, union={1: {64500}, 2: {64500}, 3: {64501}})


def _edge_tests(radius=1500.0, asn=64500):
    return [_test(i, 50.0 + i, 5.0, asn=asn, radius=radius) for i in range(4)]


@pytest.mark.parametrize(
    "tests, claimed, dropped",
    [
        pytest.param([], {1: {_CELL}}, (0, 0), id="no-tests"),
        pytest.param(_edge_tests(radius=25_000.0), {1: {_CELL}}, (4, 0), id="all-over-radius-cap"),
        pytest.param(_edge_tests(asn=65000), {1: {_CELL}}, (0, 4), id="all-unattributed"),
        pytest.param(_edge_tests(), {}, (0, 0), id="providers-missing-from-claimed"),
        pytest.param(_edge_tests(), {1: set(), 2: set()}, (0, 0), id="empty-claimed-sets"),
        pytest.param(_edge_tests(asn=64501), {1: {_CELL}, 2: {_CELL}}, (0, 0), id="claimed-by-others-only"),
    ],
)
def test_empty_attribution_edge_cases(tests, claimed, dropped):
    hits, *oracle_dropped = scalar_attribution(tests, _CROSSWALK, claimed)
    assert hits == {} and tuple(oracle_dropped) == dropped
    localization = localize_mlab_tests(tests, _CROSSWALK, claimed)
    assert localization.test_counts == {}
    assert localization.cells_by_provider == {}
    assert (localization.n_dropped_radius, localization.n_dropped_unattributed) == dropped
    assert len(localization.triples.test_row) == 0
    counts = localization.provider_test_counts(np.array([1]), np.array([_CELL], np.uint64))
    assert counts.tolist() == [0]
    tm = build_truth_map(localization)
    assert len(tm) == 0
    assert all(getattr(tm, name).dtype == dtype for name, dtype in _COLUMNS)


def test_shared_asn_attributes_to_every_claiming_provider():
    tests = _edge_tests()
    claimed = {1: {_CELL}, 2: {_CELL}, 3: {_CELL}}
    localization = localize_mlab_tests(tests, _CROSSWALK, claimed)
    hits, *_ = scalar_attribution(tests, _CROSSWALK, claimed)
    assert localization.test_counts == {k: len(v) for k, v in hits.items()}
    assert localization.test_counts == {(1, _CELL): 4, (2, _CELL): 4}


# -- the tiny world ----------------------------------------------------------------


@pytest.fixture(scope="module")
def world_slice(tiny_world):
    """The first 2000 tiny-world tests: the scalar oracle stays ~1 s."""
    tests = tiny_world.mlab_tests[:2000]
    claimed = {
        p.provider_id: tiny_world.universe.claimed_cells(p.provider_id)
        for p in tiny_world.universe.providers
    }
    res = tiny_world.fabric.config.hex_resolution
    return tests, tiny_world.crosswalk, claimed, res


def test_world_attribution_matches_the_scalar_oracle(world_slice):
    tests, crosswalk, claimed, res = world_slice
    hits, dropped_radius, dropped_unattributed = scalar_attribution(
        tests, crosswalk, claimed, res=res
    )
    localization = localize_mlab_tests(tests, crosswalk, claimed, res=res)
    assert len(hits) > 100 and dropped_radius > 0
    assert localization.test_counts == {k: len(v) for k, v in hits.items()}
    assert localization.n_dropped_radius == dropped_radius
    assert localization.n_dropped_unattributed == dropped_unattributed
    cells_by_provider = {}
    for pid, cell in hits:
        cells_by_provider.setdefault(pid, set()).add(cell)
    assert localization.cells_by_provider == cells_by_provider
    keys = list(hits)
    pids = np.array([k[0] for k in keys], dtype=np.int64)
    cells = np.array([k[1] for k in keys], dtype=np.uint64)
    assert localization.provider_test_counts(pids, cells).tolist() == [
        len(hits[k]) for k in keys
    ]

    tm = build_truth_map(localization)
    ref = scalar_truth_rows(tests, hits)
    for name, dtype in _COLUMNS:
        got = getattr(tm, name)
        assert got.dtype == dtype
        assert _same_floats(got, ref[name]) if dtype == np.float64 else np.array_equal(got, ref[name]), name
