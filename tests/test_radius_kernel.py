"""cells_within_radius_vec: the vectorized radius kernel vs. its scalar oracle.

The MLab attribution pass localizes every test through
:func:`repro.geo.hexgrid.cells_within_radius_vec`; its contract is that,
point by point, it returns exactly the cell set the scalar
:func:`~repro.geo.hexgrid.cells_within_radius` returns.  The properties
sample far from the projection's central meridian (-98°) and at high
latitude, where the sinusoidal shear widens the candidate disk, and a
constructed case puts a centroid exactly on the radius so the scalar
re-check band decides it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import hexgrid as hg
from repro.geo.geodesy import haversine_m


def _per_point(rows, cells, n):
    out = [set() for _ in range(n)]
    for row, cell in zip(rows.tolist(), cells.tolist()):
        out[row].add(cell)
    return out


def _assert_matches_scalar(lats, lngs, radii, res):
    rows, cells = hg.cells_within_radius_vec(lats, lngs, radii, res)
    assert rows.dtype == np.int64 and cells.dtype == np.uint64
    got = _per_point(rows, cells, len(lats))
    for i, (lat, lng, radius) in enumerate(zip(lats, lngs, radii)):
        expected = hg.cells_within_radius(lat, lng, radius, res)
        assert len(expected) == len(set(expected))
        assert got[i] == set(expected), (lat, lng, radius, res)
    # No (point, cell) pair is emitted twice.
    assert len(rows) == sum(len(s) for s in got)


_far_lng = st.one_of(
    st.floats(min_value=-180.0, max_value=-140.0),
    st.floats(min_value=-60.0, max_value=180.0),
)
_point = st.tuples(
    st.floats(min_value=-70.0, max_value=70.0),
    _far_lng,
    st.floats(min_value=1.0, max_value=20_000.0),
)


@given(
    points=st.lists(_point, min_size=1, max_size=4),
    res=st.integers(min_value=6, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_vec_equals_scalar_per_point(points, res):
    lats, lngs, radii = (list(col) for col in zip(*points))
    _assert_matches_scalar(lats, lngs, radii, res)


@given(
    lat=st.floats(min_value=-70.0, max_value=70.0),
    lng=_far_lng,
    radius=st.floats(min_value=1.0, max_value=6_000.0),
)
@settings(max_examples=15, deadline=None)
def test_vec_equals_scalar_at_resolution_9(lat, lng, radius):
    # Resolution 9 disks grow ~7x per radius; cap the radius so the
    # scalar oracle stays fast.
    _assert_matches_scalar([lat], [lng], [radius], 9)


def test_vec_equals_scalar_on_a_mixed_batch():
    rng = np.random.default_rng(11)
    n = 80
    lats = rng.uniform(-70, 70, n)
    lngs = np.where(rng.random(n) < 0.5, rng.uniform(-180, -140, n), rng.uniform(-60, 180, n))
    radii = np.exp(rng.uniform(0.0, math.log(20_000.0), n))
    _assert_matches_scalar(lats.tolist(), lngs.tolist(), radii.tolist(), 8)


def test_chunks_hold_whole_points_within_the_candidate_budget():
    # The attribution pass filters each chunk as it arrives, so the
    # budget is the one bound on its transient memory.
    rng = np.random.default_rng(5)
    n = 60
    lats, lngs = rng.uniform(30, 45, n), rng.uniform(-120, -80, n)
    radii = rng.uniform(2_000.0, 20_000.0, n)
    chunks = list(hg.iter_cells_within_radius(lats, lngs, radii, 8))
    assert len(chunks) > 1
    seen = -1
    for rows, _ in chunks:
        points = np.unique(rows)
        assert points[0] > seen  # a point never spans two chunks
        seen = points[-1]
        disks = [3 * k * (k + 1) + 1 for k in (
            hg._radius_ring(lats[p], lngs[p], radii[p], 8) for p in points.tolist()
        )]
        assert len(disks) == 1 or sum(disks) <= hg._RADIUS_CANDIDATE_BUDGET


@pytest.mark.parametrize("res", [6, 8, 9])
@pytest.mark.parametrize("lat, lng", [(61.25, 37.5), (40.1, -150.3), (-33.3, 151.2)])
def test_centroid_exactly_on_the_radius_is_inside(lat, lng, res):
    # The radius is the scalar distance to a ring-3 centroid, so the
    # vectorized distance lands within an ulp of it (at res 8 around
    # (61.25, 37.5) one of them exceeds it): only the scalar re-check band
    # keeps the kernel set-equal to the oracle.
    for target in hg.grid_ring(hg.latlng_to_cell(lat, lng, res), 3):
        radius = haversine_m(lat, lng, *hg.cell_to_latlng(target))
        _, cells = hg.cells_within_radius_vec([lat], [lng], [radius], res)
        assert target in cells.tolist()
        _assert_matches_scalar([lat], [lng], [radius], res)
        # One ulp less and the scalar drops it; the kernel must agree.
        below = math.nextafter(radius, 0.0)
        assert target not in hg.cells_within_radius(lat, lng, below, res)
        _assert_matches_scalar([lat], [lng], [below], res)


def test_empty_input():
    rows, cells = hg.cells_within_radius_vec([], [], [], 8)
    assert rows.dtype == np.int64 and cells.dtype == np.uint64
    assert rows.size == cells.size == 0


@pytest.mark.parametrize(
    "lats, lngs, radii",
    [
        ([91.0], [0.0], [10.0]),
        ([0.0], [181.0], [10.0]),
        ([0.0], [0.0], [0.0]),
        ([0.0], [0.0], [float("nan")]),
        ([0.0, 1.0], [0.0], [10.0]),
    ],
)
def test_invalid_input_raises(lats, lngs, radii):
    with pytest.raises(ValueError):
        hg.cells_within_radius_vec(lats, lngs, radii, 8)
