"""Quadkey -> hex re-projection (paper Appendix D).

Ookla's open data arrives keyed by Web Mercator quadkey tiles; the rest of
the pipeline is keyed by hex cells.  Following Appendix D of the paper:

* a quadkey tile that falls entirely within one hex cell maps to that cell;
* a tile spanning multiple hex cells maps to *each* relevant cell;
* per-cell aggregation **sums** test and device counts, takes the **max** of
  mean throughputs and the **min** of mean latencies.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.geo import hexgrid, quadkey as qk

__all__ = [
    "OoklaTileAggregate",
    "HexAggregate",
    "quadkey_to_cells",
    "quadkeys_to_cells",
    "reproject_tiles",
]


@dataclass(frozen=True)
class OoklaTileAggregate:
    """One row of the (simulated) Ookla open dataset: a quadkey tile summary."""

    quadkey: str
    tests: int
    devices: int
    avg_download_kbps: float
    avg_upload_kbps: float
    avg_latency_ms: float


@dataclass
class HexAggregate:
    """Ookla attributes accumulated onto one hex cell."""

    cell: int
    tests: int = 0
    devices: int = 0
    max_avg_download_kbps: float = 0.0
    max_avg_upload_kbps: float = 0.0
    min_avg_latency_ms: float = float("inf")
    source_tiles: list[str] = field(default_factory=list)

    def absorb(self, tile: OoklaTileAggregate) -> None:
        """Fold one tile's aggregates into this cell."""
        self.tests += tile.tests
        self.devices += tile.devices
        self.max_avg_download_kbps = max(self.max_avg_download_kbps, tile.avg_download_kbps)
        self.max_avg_upload_kbps = max(self.max_avg_upload_kbps, tile.avg_upload_kbps)
        self.min_avg_latency_ms = min(self.min_avg_latency_ms, tile.avg_latency_ms)
        self.source_tiles.append(tile.quadkey)


def _tile_sample_points(quadkeys: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(lat, lng) arrays of shape (n, 5): each tile's centre, then its SW,
    SE, NW and NE corners.

    Values equal :func:`~repro.geo.quadkey.quadkey_to_center` and
    :func:`~repro.geo.quadkey.quadkey_to_bounds` exactly: longitudes are
    plain arithmetic, and each distinct pixel row's latitude comes from
    the scalar :func:`~repro.geo.quadkey.pixel_to_latlng`.
    """
    tiles = np.array([qk.quadkey_to_tile(key) for key in quadkeys], dtype=np.int64)
    tiles = tiles.reshape(-1, 3)
    level = tiles[:, 2]
    for lv in np.unique(level).tolist():
        qk.map_size(lv)  # raises for a level outside [1, 23]
    size = np.left_shift(256, level)
    # Pixel offsets of the centre and the west/north (0) and east/south
    # (256) edges, in sample-point order.
    dx = np.array([128, 0, 256, 0, 256])
    dy = np.array([128, 256, 256, 0, 0])
    px = np.minimum(tiles[:, :1] * 256 + dx, size[:, None] - 1)
    py = np.minimum(tiles[:, 1:2] * 256 + dy, size[:, None] - 1)
    lngs = 360.0 * (px / size[:, None] - 0.5)
    # One scalar latitude per distinct (level, pixel row); levels are < 32.
    keys, inverse = np.unique((py << 5) | level[:, None], return_inverse=True)
    row_lat = np.array(
        [qk.pixel_to_latlng(0, key >> 5, key & 31)[0] for key in keys.tolist()],
        dtype=np.float64,
    )
    return row_lat[inverse.ravel()].reshape(py.shape), lngs


def quadkeys_to_cells(quadkeys: list[str], res: int) -> tuple[np.ndarray, np.ndarray]:
    """Hex cells every quadkey tile overlaps, for many tiles at once.

    Returns ``(row, cell)``: int64 tile rows and uint64 cells, each tile's
    distinct cells ascending and tiles in order.  All five sample points of
    every tile go through one :func:`~repro.geo.hexgrid.latlng_to_cell_vec`
    call.  Sampling the tile centre plus its four corners is exact whenever
    the tile is smaller than the hex cell (the common case: a zoom-16 tile
    is ~0.37 km^2, a res-8 hex ~0.55 km^2) and a close over-approximation
    otherwise.
    """
    lats, lngs = _tile_sample_points(list(quadkeys))
    cells = np.sort(hexgrid.latlng_to_cell_vec(lats, lngs, res), axis=1)
    distinct = np.ones(cells.shape, dtype=bool)
    distinct[:, 1:] = cells[:, 1:] != cells[:, :-1]
    row = np.broadcast_to(np.arange(cells.shape[0], dtype=np.int64)[:, None], cells.shape)
    return row[distinct], cells[distinct]


def quadkey_to_cells(quadkey: str, res: int) -> list[int]:
    """Hex cells a quadkey tile overlaps, ascending: the one-tile view of
    :func:`quadkeys_to_cells`."""
    return quadkeys_to_cells([quadkey], res)[1].tolist()


def reproject_tiles(
    tiles: Iterable[OoklaTileAggregate], res: int = 8
) -> dict[int, HexAggregate]:
    """Re-project tile aggregates onto hex cells (Appendix D semantics).

    Returns a mapping from cell id to :class:`HexAggregate`.  Tiles spanning
    k cells contribute their full counts to each of the k cells, mirroring
    the paper's "we map it to each relevant H3 tile".
    """
    tiles = list(tiles)
    rows, cells = quadkeys_to_cells([tile.quadkey for tile in tiles], res)
    out: dict[int, HexAggregate] = {}
    for row, cell in zip(rows.tolist(), cells.tolist()):
        agg = out.get(cell)
        if agg is None:
            agg = HexAggregate(cell=cell)
            out[cell] = agg
        agg.absorb(tiles[row])
    return out
