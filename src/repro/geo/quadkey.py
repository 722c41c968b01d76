"""Bing Maps tile system ("quadkeys"), implemented to the published spec.

Ookla's open dataset aggregates speed tests into Web Mercator tiles at zoom
level 16 (~500 m on a side at mid-latitudes) addressed by *quadkeys* —
base-4 strings in which each digit selects a quadrant at successive zoom
levels.  This module implements the Microsoft Bing Maps tile-system math
exactly (https://learn.microsoft.com/en-us/bingmaps/articles/bing-maps-tile-system)
so that the Appendix-D re-projection to hex cells runs against a faithful
tile substrate.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.validation import check_in_range

__all__ = [
    "MIN_LATITUDE",
    "MAX_LATITUDE",
    "OOKLA_ZOOM",
    "ground_resolution_m",
    "map_size",
    "latlng_to_pixel",
    "pixel_to_latlng",
    "pixel_to_tile",
    "tile_to_pixel",
    "tile_to_quadkey",
    "quadkey_to_tile",
    "latlng_to_quadkey",
    "latlng_to_quadkey_vec",
    "quadkey_to_bounds",
    "quadkey_to_center",
    "tile_size_m",
]

#: Web Mercator latitude clamp used by the Bing tile system.
MIN_LATITUDE = -85.05112878
MAX_LATITUDE = 85.05112878
_MIN_LONGITUDE = -180.0
_MAX_LONGITUDE = 180.0

#: WGS84 semi-major axis used by the Bing tile system.
_BING_EARTH_RADIUS_M = 6378137.0

#: Zoom level of Ookla open-data tiles.
OOKLA_ZOOM = 16


def _clip(value: float, low: float, high: float) -> float:
    return min(max(value, low), high)


def map_size(level: int) -> int:
    """Map width/height in pixels at a zoom level (256 * 2**level)."""
    if not 1 <= level <= 23:
        raise ValueError(f"level must be in [1, 23], got {level}")
    return 256 << level


def ground_resolution_m(lat: float, level: int) -> float:
    """Metres per pixel at a latitude and zoom level."""
    lat = _clip(lat, MIN_LATITUDE, MAX_LATITUDE)
    return (
        math.cos(lat * math.pi / 180.0)
        * 2.0
        * math.pi
        * _BING_EARTH_RADIUS_M
        / map_size(level)
    )


def tile_size_m(lat: float, level: int = OOKLA_ZOOM) -> float:
    """Side length in metres of a tile at a latitude and zoom level."""
    return ground_resolution_m(lat, level) * 256.0


def latlng_to_pixel(lat: float, lng: float, level: int) -> tuple[int, int]:
    """Pixel XY of a (lat, lng) point at a zoom level (spec-exact)."""
    lat = _clip(lat, MIN_LATITUDE, MAX_LATITUDE)
    lng = _clip(lng, _MIN_LONGITUDE, _MAX_LONGITUDE)
    x = (lng + 180.0) / 360.0
    sin_lat = math.sin(lat * math.pi / 180.0)
    y = 0.5 - math.log((1.0 + sin_lat) / (1.0 - sin_lat)) / (4.0 * math.pi)
    size = map_size(level)
    px = int(_clip(x * size + 0.5, 0, size - 1))
    py = int(_clip(y * size + 0.5, 0, size - 1))
    return px, py


def pixel_to_latlng(px: int, py: int, level: int) -> tuple[float, float]:
    """(lat, lng) of a pixel XY at a zoom level (spec-exact)."""
    size = map_size(level)
    x = _clip(px, 0, size - 1) / size - 0.5
    y = 0.5 - _clip(py, 0, size - 1) / size
    lat = 90.0 - 360.0 * math.atan(math.exp(-y * 2.0 * math.pi)) / math.pi
    lng = 360.0 * x
    return lat, lng


def pixel_to_tile(px: int, py: int) -> tuple[int, int]:
    """Tile XY containing a pixel."""
    return px // 256, py // 256


def tile_to_pixel(tx: int, ty: int) -> tuple[int, int]:
    """Upper-left pixel of a tile."""
    return tx * 256, ty * 256


def tile_to_quadkey(tx: int, ty: int, level: int) -> str:
    """Quadkey string for a tile at a zoom level.

    >>> tile_to_quadkey(3, 5, 3)
    '213'
    """
    digits = []
    for i in range(level, 0, -1):
        digit = 0
        mask = 1 << (i - 1)
        if tx & mask:
            digit += 1
        if ty & mask:
            digit += 2
        digits.append(str(digit))
    return "".join(digits)


def quadkey_to_tile(quadkey: str) -> tuple[int, int, int]:
    """(tile_x, tile_y, level) for a quadkey string.

    >>> quadkey_to_tile('213')
    (3, 5, 3)
    """
    tx = ty = 0
    level = len(quadkey)
    if level == 0:
        raise ValueError("quadkey must be non-empty")
    for i in range(level, 0, -1):
        mask = 1 << (i - 1)
        digit = quadkey[level - i]
        if digit == "1":
            tx |= mask
        elif digit == "2":
            ty |= mask
        elif digit == "3":
            tx |= mask
            ty |= mask
        elif digit != "0":
            raise ValueError(f"invalid quadkey digit {digit!r} in {quadkey!r}")
    return tx, ty, level


def latlng_to_quadkey(lat: float, lng: float, level: int = OOKLA_ZOOM) -> str:
    """Quadkey of the tile containing a (lat, lng) point."""
    px, py = latlng_to_pixel(lat, lng, level)
    tx, ty = pixel_to_tile(px, py)
    return tile_to_quadkey(tx, ty, level)


#: Pixel coordinates this close to an integer step are re-decided by the
#: scalar :func:`latlng_to_pixel`, so last-ulp differences between
#: ``math`` and NumPy transcendentals cannot move a point across a pixel
#: (hence tile) edge.
_PIXEL_RECHECK = 1e-6


def latlng_to_quadkey_vec(lats, lngs, level: int = OOKLA_ZOOM) -> list[str]:
    """:func:`latlng_to_quadkey` for many points; equal element-wise."""
    size = map_size(level)
    lats = np.asarray(lats, dtype=np.float64).ravel()
    lngs = np.asarray(lngs, dtype=np.float64).ravel()
    lat = np.clip(lats, MIN_LATITUDE, MAX_LATITUDE)
    x = (np.clip(lngs, _MIN_LONGITUDE, _MAX_LONGITUDE) + 180.0) / 360.0
    sin_lat = np.sin(lat * math.pi / 180.0)
    y = 0.5 - np.log((1.0 + sin_lat) / (1.0 - sin_lat)) / (4.0 * math.pi)
    fy = y * size + 0.5
    px = np.clip(x * size + 0.5, 0, size - 1).astype(np.int64)
    py = np.clip(fy, 0, size - 1).astype(np.int64)
    recheck = ~np.isfinite(fy) | (np.abs(fy - np.rint(fy)) <= _PIXEL_RECHECK)
    for i in np.flatnonzero(recheck).tolist():
        px[i], py[i] = latlng_to_pixel(float(lats[i]), float(lngs[i]), level)
    # Digit i (most significant first) is bit (level - 1 - i) of the tile x
    # plus twice that bit of the tile y.
    shifts = np.arange(level - 1, -1, -1)
    digits = ((px[:, None] >> 8) >> shifts & 1) + 2 * ((py[:, None] >> 8) >> shifts & 1)
    chars = np.ascontiguousarray(digits + ord("0"), dtype=np.uint8)
    return chars.view(f"S{level}").ravel().astype(f"U{level}").tolist()


def quadkey_to_bounds(quadkey: str) -> tuple[float, float, float, float]:
    """(lat_min, lat_max, lng_min, lng_max) of a tile."""
    tx, ty, level = quadkey_to_tile(quadkey)
    px, py = tile_to_pixel(tx, ty)
    lat_n, lng_w = pixel_to_latlng(px, py, level)
    lat_s, lng_e = pixel_to_latlng(px + 256, py + 256, level)
    return lat_s, lat_n, lng_w, lng_e


def quadkey_to_center(quadkey: str) -> tuple[float, float]:
    """(lat, lng) of a tile's centre."""
    tx, ty, level = quadkey_to_tile(quadkey)
    px, py = tile_to_pixel(tx, ty)
    return pixel_to_latlng(px + 128, py + 128, level)


def quadkey_children(quadkey: str) -> list[str]:
    """The four child quadkeys one zoom level deeper."""
    return [quadkey + d for d in "0123"]


def quadkey_parent(quadkey: str) -> str:
    """The parent quadkey one zoom level shallower."""
    if len(quadkey) <= 1:
        raise ValueError("level-1 quadkey has no parent")
    return quadkey[:-1]


def validate_quadkey(quadkey: str) -> str:
    """Validate a quadkey string and return it."""
    check_in_range(len(quadkey), 1, 23, "quadkey length")
    if any(c not in "0123" for c in quadkey):
        raise ValueError(f"invalid quadkey {quadkey!r}")
    return quadkey
