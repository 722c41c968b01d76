"""Hierarchical hexagonal grid — an H3 work-alike.

The paper keys every observation to an Uber H3 resolution-8 cell.  H3 itself
is a compiled library that is unavailable here, so this module provides an
equivalent discrete global grid with the same *contract*:

* hexagonal, approximately equal-area cells;
* a ladder of resolutions whose edge length shrinks by ``1/sqrt(7)`` per
  level (H3's aperture-7 scaling), calibrated so that resolution 8 covers
  roughly 0.5 km^2 — the figure the paper quotes;
* packed 64-bit cell identifiers;
* the operations the pipeline needs: point -> cell, cell -> centroid,
  neighbors / k-rings, hex distance, disk queries by geodesic radius,
  boundaries, and centroid-based parent/child traversal.

Cells are regular hexagons in a sinusoidal (equal-area) projection of the
sphere; equal area in the projected plane therefore means equal area on the
globe.  Unlike H3 there is no icosahedral base tiling — nothing in the paper
depends on one.  The projection's central meridian sits at -98° (the centre
of the contiguous United States, the paper's study area) so that shape
distortion — which a sinusoidal projection concentrates far from its central
meridian — is a few percent over CONUS.

Cell identifiers pack ``(resolution, q, r)`` axial coordinates into a single
Python int: 4 bits of resolution and 30 bits for each signed axial
coordinate.  Identifiers are stable across processes.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from repro.geo.geodesy import EARTH_RADIUS_M, haversine_m, haversine_m_vec
from repro.utils.indexing import ragged_arange
from repro.utils.validation import check_latitude, check_longitude, check_positive

__all__ = [
    "MAX_RESOLUTION",
    "edge_length_m",
    "cell_area_km2",
    "latlng_to_cell",
    "latlng_to_cell_vec",
    "cell_to_latlng",
    "cell_to_latlng_vec",
    "cell_resolution",
    "pack_cell",
    "unpack_cell",
    "is_valid_cell",
    "grid_disk",
    "grid_disk_vec",
    "grid_ring",
    "grid_distance",
    "cells_to_axial_vec",
    "grid_neighbors",
    "cells_within_radius",
    "cells_within_radius_vec",
    "iter_cells_within_radius",
    "cell_boundary",
    "cell_to_parent",
    "cell_to_children",
    "cell_to_center_child",
]

MAX_RESOLUTION = 15

# Edge length at resolution 0, chosen so resolution 8 has edge ~461 m and
# area ~0.55 km^2, matching H3's published resolution table (H3 res-8 edge
# length is 461.354 m).
_EDGE0_M = 461.354684 * math.sqrt(7.0) ** 8

_SQRT3 = math.sqrt(3.0)
_COORD_BITS = 30
_COORD_OFFSET = 1 << (_COORD_BITS - 1)
_COORD_MASK = (1 << _COORD_BITS) - 1


def edge_length_m(res: int) -> float:
    """Edge (circumradius) length in metres of cells at a resolution.

    >>> 400 < edge_length_m(8) < 500
    True
    """
    _check_res(res)
    return _EDGE0_M / math.sqrt(7.0) ** res


def cell_area_km2(res: int) -> float:
    """Area in km^2 of a cell at a resolution (exact for a regular hexagon).

    >>> 0.4 < cell_area_km2(8) < 0.7
    True
    """
    a = edge_length_m(res)
    return (3.0 * _SQRT3 / 2.0) * a * a / 1e6


def _check_res(res: int) -> int:
    if not isinstance(res, int) or not 0 <= res <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be an int in [0, {MAX_RESOLUTION}], got {res!r}")
    return res


#: Central meridian of the projection (degrees): centre of CONUS.
CENTRAL_MERIDIAN_DEG = -98.0


def _wrap_degrees(deg: float) -> float:
    """Wrap an angle in degrees to [-180, 180)."""
    return (deg + 180.0) % 360.0 - 180.0


def _project(lat: float, lng: float) -> tuple[float, float]:
    """Sinusoidal projection: equal-area (x, y) in metres."""
    phi = math.radians(lat)
    lmb = math.radians(_wrap_degrees(lng - CENTRAL_MERIDIAN_DEG))
    return EARTH_RADIUS_M * lmb * math.cos(phi), EARTH_RADIUS_M * phi


def _unproject(x: float, y: float) -> tuple[float, float]:
    """Inverse sinusoidal projection back to (lat, lng) degrees."""
    phi = y / EARTH_RADIUS_M
    lat = math.degrees(phi)
    coslat = math.cos(phi)
    if abs(coslat) < 1e-12:
        return (90.0 if lat > 0 else -90.0), 0.0
    lng = _wrap_degrees(math.degrees(x / (EARTH_RADIUS_M * coslat)) + CENTRAL_MERIDIAN_DEG)
    # Clamp: cells whose centres fall just past the antimeridian in projected
    # space still need a representable longitude.
    return max(-90.0, min(90.0, lat)), max(-180.0, min(180.0, lng))


def _axial_to_xy(q: int, r: int, size: float) -> tuple[float, float]:
    """Centre of the pointy-top hexagon at axial (q, r)."""
    x = size * _SQRT3 * (q + r / 2.0)
    y = size * 1.5 * r
    return x, y


def _xy_to_axial(x: float, y: float, size: float) -> tuple[int, int]:
    """Containing hexagon of a projected point, via cube rounding."""
    qf = (_SQRT3 / 3.0 * x - y / 3.0) / size
    rf = (2.0 / 3.0 * y) / size
    return _cube_round(qf, rf)


def _cube_round(qf: float, rf: float) -> tuple[int, int]:
    sf = -qf - rf
    q, r, s = round(qf), round(rf), round(sf)
    dq, dr, ds = abs(q - qf), abs(r - rf), abs(s - sf)
    if dq > dr and dq > ds:
        q = -r - s
    elif dr > ds:
        r = -q - s
    return int(q), int(r)


def pack_cell(res: int, q: int, r: int) -> int:
    """Pack (resolution, axial q, axial r) into a 64-bit cell id."""
    _check_res(res)
    if not -_COORD_OFFSET <= q < _COORD_OFFSET or not -_COORD_OFFSET <= r < _COORD_OFFSET:
        raise ValueError(f"axial coordinate out of range: q={q}, r={r}")
    return (res << (2 * _COORD_BITS)) | ((q + _COORD_OFFSET) << _COORD_BITS) | (
        r + _COORD_OFFSET
    )


def unpack_cell(cell: int) -> tuple[int, int, int]:
    """Inverse of :func:`pack_cell`: return (resolution, q, r)."""
    res = cell >> (2 * _COORD_BITS)
    q = ((cell >> _COORD_BITS) & _COORD_MASK) - _COORD_OFFSET
    r = (cell & _COORD_MASK) - _COORD_OFFSET
    _check_res(res)
    return res, q, r


def is_valid_cell(cell: int) -> bool:
    """Whether an integer is a structurally valid cell id."""
    if not isinstance(cell, int) or cell < 0:
        return False
    try:
        res, q, r = unpack_cell(cell)
    except ValueError:
        return False
    # The axial coordinates must correspond to a point on the projected globe.
    size = edge_length_m(res)
    x, y = _axial_to_xy(q, r, size)
    return abs(y) <= EARTH_RADIUS_M * math.pi / 2 + size * 2


def latlng_to_cell(lat: float, lng: float, res: int) -> int:
    """Cell id containing a (lat, lng) point at the given resolution.

    >>> cell = latlng_to_cell(40.0, -100.0, 8)
    >>> cell_resolution(cell)
    8
    """
    check_latitude(lat)
    check_longitude(lng)
    _check_res(res)
    x, y = _project(lat, lng)
    q, r = _xy_to_axial(x, y, edge_length_m(res))
    return pack_cell(res, q, r)


def cell_to_latlng(cell: int) -> tuple[float, float]:
    """Centroid (lat, lng) in degrees of a cell."""
    res, q, r = unpack_cell(cell)
    x, y = _axial_to_xy(q, r, edge_length_m(res))
    return _unproject(x, y)


def cell_resolution(cell: int) -> int:
    """Resolution level encoded in a cell id."""
    return unpack_cell(cell)[0]


def latlng_to_cell_vec(lats: np.ndarray, lngs: np.ndarray, res: int) -> np.ndarray:
    """Vectorized :func:`latlng_to_cell`; returns a uint64 array.

    Values equal the scalar function's output element-wise (cell ids exceed
    the int64 range at fine resolutions, hence uint64).  Like the scalar
    function it raises ``ValueError`` for a NaN, infinite or out-of-range
    coordinate, with the scalar's message for the first offending value.
    """
    _check_res(res)
    lats = np.asarray(lats, dtype=np.float64)
    lngs = np.asarray(lngs, dtype=np.float64)
    bad_lat = ~(np.abs(lats) <= 90.0)
    if bad_lat.any():
        check_latitude(lats[bad_lat].flat[0])
    bad_lng = ~(np.abs(lngs) <= 180.0)
    if bad_lng.any():
        check_longitude(lngs[bad_lng].flat[0])
    phi = np.radians(lats)
    dl = (lngs - CENTRAL_MERIDIAN_DEG + 180.0) % 360.0 - 180.0
    x = EARTH_RADIUS_M * np.radians(dl) * np.cos(phi)
    y = EARTH_RADIUS_M * phi
    size = edge_length_m(res)
    qf = (_SQRT3 / 3.0 * x - y / 3.0) / size
    rf = (2.0 / 3.0 * y) / size
    sf = -qf - rf
    q = np.round(qf)
    r = np.round(rf)
    s = np.round(sf)
    dq, dr, ds = np.abs(q - qf), np.abs(r - rf), np.abs(s - sf)
    fix_q = (dq > dr) & (dq > ds)
    fix_r = ~fix_q & (dr > ds)
    q[fix_q] = -r[fix_q] - s[fix_q]
    r[fix_r] = -q[fix_r] - s[fix_r]
    return _pack_vec(res, q.astype(np.int64), r.astype(np.int64))


def _pack_vec(res, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Vectorized :func:`pack_cell` (no range check) for int64 axial arrays;
    ``res`` is one resolution or an array of them."""
    return (
        (np.asarray(res).astype(np.uint64) << np.uint64(2 * _COORD_BITS))
        | ((q + _COORD_OFFSET).astype(np.uint64) << np.uint64(_COORD_BITS))
        | (r + _COORD_OFFSET).astype(np.uint64)
    )


def cells_to_axial_vec(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`unpack_cell`: (res, q, r) int64 arrays."""
    cells = np.asarray(cells, dtype=np.uint64)
    res = (cells >> np.uint64(2 * _COORD_BITS)).astype(np.int64)
    q = ((cells >> np.uint64(_COORD_BITS)) & np.uint64(_COORD_MASK)).astype(np.int64) - _COORD_OFFSET
    r = (cells & np.uint64(_COORD_MASK)).astype(np.int64) - _COORD_OFFSET
    return res, q, r


def cell_to_latlng_vec(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`cell_to_latlng` for a uint64 cell array."""
    cells = np.asarray(cells, dtype=np.uint64)
    res = (cells >> np.uint64(2 * _COORD_BITS)).astype(np.int64)
    if cells.size and not (res == res.flat[0]).all():
        raise ValueError("all cells must share one resolution")
    q = ((cells >> np.uint64(_COORD_BITS)) & np.uint64(_COORD_MASK)).astype(np.int64) - _COORD_OFFSET
    r = (cells & np.uint64(_COORD_MASK)).astype(np.int64) - _COORD_OFFSET
    if cells.size == 0:
        return np.empty(0), np.empty(0)
    return _axial_to_latlng_vec(q, r, int(res.flat[0]))


def _axial_to_latlng_vec(q: np.ndarray, r: np.ndarray, res: int):
    """Centroid (lat, lng) arrays of the cells at axial (q, r), one resolution."""
    size = edge_length_m(res)
    x = size * _SQRT3 * (q + r / 2.0)
    y = size * 1.5 * r
    phi = y / EARTH_RADIUS_M
    lat = np.degrees(phi)
    coslat = np.cos(phi)
    safe = np.abs(coslat) > 1e-12
    lng = np.zeros_like(x)
    lng[safe] = np.degrees(x[safe] / (EARTH_RADIUS_M * coslat[safe]))
    lng = (lng + CENTRAL_MERIDIAN_DEG + 180.0) % 360.0 - 180.0
    return np.clip(lat, -90.0, 90.0), np.clip(lng, -180.0, 180.0)


def grid_neighbors(cell: int) -> list[int]:
    """The six cells sharing an edge with ``cell``."""
    res, q, r = unpack_cell(cell)
    deltas = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))
    return [pack_cell(res, q + dq, r + dr) for dq, dr in deltas]


def grid_ring(cell: int, k: int) -> list[int]:
    """Cells at exactly hex-distance ``k`` (the "hollow ring")."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return [cell]
    res, q, r = unpack_cell(cell)
    results = []
    # Walk the ring: start k steps in axial direction (-1, 0), then walk k
    # steps along each of the six sides in cube-direction order.
    cq, cr = q - k, r
    directions = ((1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1))
    for dq, dr in directions:
        for _ in range(k):
            results.append(pack_cell(res, cq, cr))
            cq, cr = cq + dq, cr + dr
    return results


def grid_disk(cell: int, k: int) -> list[int]:
    """All cells within hex-distance ``k`` of ``cell`` (inclusive).

    >>> len(grid_disk(latlng_to_cell(40, -100, 8), 2))
    19
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    res, q, r = unpack_cell(cell)
    cells = []
    for dq in range(-k, k + 1):
        for dr in range(max(-k, -dq - k), min(k, -dq + k) + 1):
            cells.append(pack_cell(res, q + dq, r + dr))
    return cells


def grid_disk_vec(centers, k: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`grid_disk` around many centres at once.

    Returns ``(row, cell)``: int64 centre rows and the uint64 cells within
    hex-distance ``k`` of ``centers[row]``, each centre's disk in the
    hex-distance order of :func:`_disk_template`.  Row by row the cell set
    equals ``set(grid_disk(centers[row], k))``; duplicate centres get
    duplicate disks.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    res, q, r = cells_to_axial_vec(np.asarray(centers, dtype=np.uint64).ravel())
    template_q, template_r = _disk_template(int(k))
    n_disk = template_q.size
    row = np.repeat(np.arange(q.size, dtype=np.int64), n_disk)
    cell = _pack_vec(
        np.repeat(res, n_disk),
        (q[:, None] + template_q).ravel(),
        (r[:, None] + template_r).ravel(),
    )
    return row, cell


def grid_distance(cell_a: int, cell_b: int) -> int:
    """Hex (grid-steps) distance between two cells of equal resolution."""
    res_a, qa, ra = unpack_cell(cell_a)
    res_b, qb, rb = unpack_cell(cell_b)
    if res_a != res_b:
        raise ValueError(f"cells have different resolutions: {res_a} != {res_b}")
    dq, dr = qa - qb, ra - rb
    return int((abs(dq) + abs(dr) + abs(dq + dr)) // 2)


def _radius_ring(lat: float, lng: float, radius_m: float, res: int) -> int:
    """Hex distance ``k`` whose disk around a point's cell covers the radius.

    Adjacent centre spacing is sqrt(3) * edge in the projected plane.  The
    sinusoidal projection shears shapes away from the central meridian by
    up to sqrt(1 + (dlmb * sin(phi))^2); the disk is widened by that factor
    (plus one ring for the point's offset inside its own cell).
    """
    dlmb = math.radians(_wrap_degrees(lng - CENTRAL_MERIDIAN_DEG))
    shear = math.sqrt(1.0 + (dlmb * math.sin(math.radians(lat))) ** 2)
    spacing = _SQRT3 * edge_length_m(res)
    return int(math.ceil(shear * radius_m / spacing)) + 1


def cells_within_radius(lat: float, lng: float, radius_m: float, res: int) -> list[int]:
    """Cells whose centroid lies within a geodesic radius of a point.

    This is the primitive the MLab localization step uses: "all hexes within
    the accuracy radius recorded in the IP geolocation of the test".
    """
    check_latitude(lat)
    check_longitude(lng)
    check_positive(radius_m, "radius_m")
    _check_res(res)
    center = latlng_to_cell(lat, lng, res)
    out = []
    for cell in grid_disk(center, _radius_ring(lat, lng, radius_m, res)):
        clat, clng = cell_to_latlng(cell)
        if haversine_m(lat, lng, clat, clng) <= radius_m:
            out.append(cell)
    return out


#: Candidate (point, cell) pairs materialized per vectorized step; bounds
#: the transient memory of :func:`iter_cells_within_radius` and of the
#: per-chunk work of its callers (~10 float64 / int64 columns of this
#: length).
_RADIUS_CANDIDATE_BUDGET = 1 << 13

#: Candidates whose vectorized distance is this close to the radius (m)
#: are re-decided by the scalar path, so last-ulp differences between
#: ``math`` and NumPy transcendentals cannot flip a boundary cell.
_RADIUS_RECHECK_M = 1e-3


def _disk_template(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Axial offsets of the k-disk, ordered by hex distance.

    The first ``3 j (j + 1) + 1`` offsets are exactly the j-disk, so one
    template serves every smaller ``j``.
    """
    dq, dr = np.meshgrid(np.arange(-k, k + 1), np.arange(-k, k + 1), indexing="ij")
    dq, dr = dq.ravel(), dr.ravel()
    dist = (np.abs(dq) + np.abs(dr) + np.abs(dq + dr)) // 2
    order = np.argsort(dist, kind="stable")
    keep = order[dist[order] <= k]
    return dq[keep], dr[keep]


def iter_cells_within_radius(
    lats, lngs, radii, res: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """:func:`cells_within_radius` for many points, one chunk at a time.

    Yields ``(row, cell)`` chunks: int64 point rows and the uint64 cells
    whose centroid lies within ``radii[row]`` metres of point ``row``.
    Over all chunks, each point gets exactly the set the scalar function
    returns.  Each point keeps the scalar's candidate ring ``k`` (shear
    widening included); its candidate disk is the ``k``-prefix of one
    axial offset template.  Points are expanded in chunks of about
    ``_RADIUS_CANDIDATE_BUDGET`` candidates, which is the one bound on the
    transient memory of a caller that filters each chunk as it arrives.
    Distances near the radius (and ``k`` values near an integer step) are
    re-decided by the scalar code.
    """
    _check_res(res)
    lats = np.asarray(lats, dtype=np.float64).ravel()
    lngs = np.asarray(lngs, dtype=np.float64).ravel()
    radii = np.asarray(radii, dtype=np.float64).ravel()
    if not lats.size == lngs.size == radii.size:
        raise ValueError("lats, lngs and radii must have equal length")
    centers = latlng_to_cell_vec(lats, lngs, res)
    if not (radii > 0).all():
        raise ValueError("radii must be > 0")
    if lats.size == 0:
        return

    _, center_q, center_r = cells_to_axial_vec(centers)
    dlmb = np.radians((lngs - CENTRAL_MERIDIAN_DEG + 180.0) % 360.0 - 180.0)
    shear = np.sqrt(1.0 + (dlmb * np.sin(np.radians(lats))) ** 2)
    span = shear * radii / (_SQRT3 * edge_length_m(res))
    k = np.ceil(span).astype(np.int64) + 1
    near_step = np.abs(span - np.rint(span)) <= 1e-9 * np.maximum(span, 1.0)
    for i in np.flatnonzero(near_step).tolist():
        k[i] = _radius_ring(float(lats[i]), float(lngs[i]), float(radii[i]), res)

    # Point i's candidates are the first n_disk[i] template offsets around
    # its centre, expanded raggedly in chunks of about the budget.
    n_disk = 3 * k * (k + 1) + 1
    template_q, template_r = _disk_template(int(k.max()))
    ends = np.cumsum(n_disk)
    start = 0
    while start < lats.size:
        limit = ends[start] - n_disk[start] + _RADIUS_CANDIDATE_BUDGET
        stop = max(start + 1, int(np.searchsorted(ends, limit, side="right")))
        reps = n_disk[start:stop]
        point = np.repeat(np.arange(start, stop), reps)
        offset = ragged_arange(reps)
        q = center_q[point] + template_q[offset]
        r = center_r[point] + template_r[offset]
        clat, clng = _axial_to_latlng_vec(q, r, res)
        d = haversine_m_vec(lats[point], lngs[point], clat, clng)
        radius = radii[point]
        inside = d <= radius
        near = np.abs(d - radius) <= _RADIUS_RECHECK_M
        for j in np.flatnonzero(near).tolist():
            p = point[j]
            clat_j, clng_j = cell_to_latlng(pack_cell(res, int(q[j]), int(r[j])))
            d_j = haversine_m(float(lats[p]), float(lngs[p]), clat_j, clng_j)
            inside[j] = d_j <= float(radius[j])
        yield point[inside], _pack_vec(res, q[inside], r[inside])
        start = stop


def cells_within_radius_vec(
    lats, lngs, radii, res: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`cells_within_radius` for many points at once: every chunk of
    :func:`iter_cells_within_radius`, concatenated into ``(row, cell)``."""
    parts = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64))]
    parts.extend(iter_cells_within_radius(lats, lngs, radii, res))
    rows, cells = zip(*parts)
    return np.concatenate(rows), np.concatenate(cells)


def cell_boundary(cell: int) -> list[tuple[float, float]]:
    """The six (lat, lng) vertices of a cell, counter-clockwise."""
    res, q, r = unpack_cell(cell)
    size = edge_length_m(res)
    cx, cy = _axial_to_xy(q, r, size)
    vertices = []
    for i in range(6):
        # Pointy-top hexagon: vertices at 30, 90, ..., 330 degrees.
        angle = math.pi / 180.0 * (60.0 * i + 30.0)
        vx = cx + size * math.cos(angle)
        vy = cy + size * math.sin(angle)
        vertices.append(_unproject(vx, vy))
    return vertices


def cell_to_parent(cell: int, parent_res: int) -> int:
    """Coarser-resolution cell containing this cell's centroid.

    Like H3's aperture-7 hierarchy, containment is centroid-based: a child's
    area may straddle two parents, in which case the parent owning the
    child's centre wins.
    """
    res = cell_resolution(cell)
    _check_res(parent_res)
    if parent_res > res:
        raise ValueError(f"parent_res {parent_res} is finer than cell resolution {res}")
    if parent_res == res:
        return cell
    lat, lng = cell_to_latlng(cell)
    return latlng_to_cell(lat, lng, parent_res)


def cell_to_center_child(cell: int, child_res: int) -> int:
    """Finest-resolution cell at the centre of this cell."""
    res = cell_resolution(cell)
    _check_res(child_res)
    if child_res < res:
        raise ValueError(f"child_res {child_res} is coarser than cell resolution {res}")
    lat, lng = cell_to_latlng(cell)
    return latlng_to_cell(lat, lng, child_res)


def cell_to_children(cell: int, child_res: int) -> list[int]:
    """Finer-resolution cells whose centroids fall inside this cell.

    With aperture-sqrt(7) scaling a parent covers ~7**(child_res - res)
    children on average.
    """
    res = cell_resolution(cell)
    _check_res(child_res)
    if child_res < res:
        raise ValueError(f"child_res {child_res} is coarser than cell resolution {res}")
    if child_res == res:
        return [cell]
    # Over-cover with a disk around the centre child, then keep children whose
    # centroids map back to this cell.
    center_child = cell_to_center_child(cell, child_res)
    ratio = edge_length_m(res) / edge_length_m(child_res)
    k = int(math.ceil(ratio)) + 1
    return [c for c in grid_disk(center_child, k) if cell_to_parent(c, res) == cell]
