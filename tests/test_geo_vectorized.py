"""Tests for the vectorized hex-grid code paths (used by the Fabric)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import hexgrid as hg


def _random_points(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(25, 49, n), rng.uniform(-124, -67, n)


def test_vectorized_matches_scalar_conus():
    lats, lngs = _random_points(500)
    vec = hg.latlng_to_cell_vec(lats, lngs, 8)
    for i in range(0, 500, 25):
        assert int(vec[i]) == hg.latlng_to_cell(float(lats[i]), float(lngs[i]), 8)


@given(st.integers(min_value=0, max_value=12))
@settings(max_examples=13, deadline=None)
def test_vectorized_matches_scalar_all_resolutions(res):
    lats, lngs = _random_points(40, seed=res)
    vec = hg.latlng_to_cell_vec(lats, lngs, res)
    scal = [hg.latlng_to_cell(float(a), float(b), res) for a, b in zip(lats, lngs)]
    assert vec.tolist() == scal


def test_cell_to_latlng_vec_roundtrip():
    lats, lngs = _random_points(200, seed=3)
    cells = hg.latlng_to_cell_vec(lats, lngs, 8)
    la, lo = hg.cell_to_latlng_vec(cells)
    back = hg.latlng_to_cell_vec(la, lo, 8)
    np.testing.assert_array_equal(cells, back)


def test_cell_to_latlng_vec_rejects_mixed_resolutions():
    a = hg.latlng_to_cell(40, -100, 8)
    b = hg.latlng_to_cell(40, -100, 7)
    with pytest.raises(ValueError):
        hg.cell_to_latlng_vec(np.array([a, b], dtype=np.uint64))


def test_cell_to_latlng_vec_empty():
    la, lo = hg.cell_to_latlng_vec(np.empty(0, dtype=np.uint64))
    assert la.size == 0 and lo.size == 0


def test_cells_to_axial_vec_matches_unpack():
    lats, lngs = _random_points(100, seed=5)
    cells = hg.latlng_to_cell_vec(lats, lngs, 8)
    res, q, r = hg.cells_to_axial_vec(cells)
    for i in range(0, 100, 10):
        assert (int(res[i]), int(q[i]), int(r[i])) == hg.unpack_cell(int(cells[i]))


def test_vectorized_handles_length_one_arrays():
    out = hg.latlng_to_cell_vec(np.array([40.0]), np.array([-100.0]), 8)
    assert int(out[0]) == hg.latlng_to_cell(40.0, -100.0, 8)


@pytest.mark.parametrize(
    "lat, lng",
    [
        (95.0, -100.0),
        (-90.5, -100.0),
        (float("nan"), -100.0),
        (float("inf"), -100.0),
        (40.0, 181.0),
        (40.0, float("nan")),
        (40.0, float("-inf")),
    ],
)
def test_vectorized_rejects_what_the_scalar_rejects(lat, lng):
    with pytest.raises(ValueError) as scalar:
        hg.latlng_to_cell(lat, lng, 8)
    lats = np.array([40.0, lat, 41.0])
    lngs = np.array([-100.0, lng, -101.0])
    with pytest.raises(ValueError) as vec:
        hg.latlng_to_cell_vec(lats, lngs, 8)
    assert str(vec.value) == str(scalar.value)


def test_vectorized_accepts_the_closed_bounds():
    lats = np.array([90.0, -90.0, 0.0, 0.0])
    lngs = np.array([0.0, 0.0, 180.0, -180.0])
    out = hg.latlng_to_cell_vec(lats, lngs, 8)
    assert out.tolist() == [hg.latlng_to_cell(a, b, 8) for a, b in zip(lats, lngs)]
