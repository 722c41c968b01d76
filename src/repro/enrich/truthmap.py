"""Tile-level measured-truth aggregates per (provider, cell).

The truth map is the enrichment layer's ground surface: a reduction over
the (test, provider, cell) triples of the world's one MLab attribution
pass (:func:`repro.dataset.likely_served.localize_mlab_tests`).  Each
(provider, cell) tile aggregates its tests' measured throughputs *per
direction* — median and p90 download/upload, bitwise what
:func:`repro.speedtests.aggregate.directional_summary` gives — with an
unmeasured direction coded as ``NaN``, never ``0.0`` (a zero measurement
and a missing measurement mean opposite things to an overstatement ratio).

The result is a frozen struct-of-arrays table in sorted
(provider, cell) order with a lazy two-column composite index, persisted
as the same :mod:`repro.utils.persist` bundle the national shard store
uses — one raw ``.npy`` per column under a manifest committed last — so
a saved bundle loads read-only and zero-copy via
``numpy.load(mmap_mode="r")`` alongside the ``repro.store`` shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dataset.likely_served import MLabLocalization

# ``cells_within_radius`` stays bound here: the end-to-end benchmark's
# layer tracer wraps it by name in this module.
from repro.geo import cells_within_radius  # noqa: F401
from repro.obs.metrics import get_metrics
from repro.speedtests.aggregate import segment_median_p90
from repro.utils import persist
from repro.utils.indexing import MultiColumnIndex

__all__ = ["TruthMap", "build_truth_map"]

_KIND = "truth-map"

_INDEX_GROUP = "index"

#: Name and dtype of every persisted truth-map column, in order.
_COLUMNS = (
    ("provider_id", np.int64),
    ("cell", np.uint64),
    ("median_down", np.float64),
    ("p90_down", np.float64),
    ("median_up", np.float64),
    ("p90_up", np.float64),
    ("n_tests", np.int64),
)


@dataclass(frozen=True)
class TruthMap:
    """Measured-speed aggregates, one row per (provider, cell) tile.

    Parallel arrays in ascending (provider_id, cell) order; the speed
    columns carry ``NaN`` for directions with no valid measurement.
    ``positions`` maps arrays of (provider, cell) pairs to row positions
    (``-1`` = no tile) through a lazily-built composite index, so the
    feature path gathers a whole batch's truth in one pass.
    """

    provider_id: np.ndarray  # int64
    cell: np.ndarray  # uint64
    median_down: np.ndarray  # float64, NaN = direction unmeasured
    p90_down: np.ndarray  # float64
    median_up: np.ndarray  # float64
    p90_up: np.ndarray  # float64
    n_tests: np.ndarray  # int64 — attributed tests localized to the tile
    _index: MultiColumnIndex | None = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return int(self.provider_id.size)

    @property
    def index(self) -> MultiColumnIndex:
        """The (provider, cell) composite index, built on first use."""
        if self._index is None:
            object.__setattr__(
                self,
                "_index",
                MultiColumnIndex(self.provider_id, self.cell),
            )
        return self._index

    def positions(self, provider_id, cell) -> np.ndarray:
        """Tile row per (provider, cell) query; ``-1`` marks no tile."""
        return self.index.positions(
            np.asarray(provider_id, dtype=np.int64),
            np.asarray(cell, dtype=np.uint64),
        )

    def export_arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name, _ in _COLUMNS}

    @classmethod
    def from_arrays(
        cls, arrays: dict, index: MultiColumnIndex | None = None
    ) -> "TruthMap":
        fields = {
            name: np.ascontiguousarray(np.asarray(arrays[name]), dtype=dtype)
            for name, dtype in _COLUMNS
        }
        n = fields["provider_id"].size
        for name, _ in _COLUMNS:
            if fields[name].ndim != 1 or fields[name].size != n:
                raise ValueError(
                    f"truth-map column {name!r} must be 1-D with {n} rows, "
                    f"got shape {fields[name].shape}"
                )
        return cls(**fields, _index=index)

    # -- persistence ---------------------------------------------------------

    def save(self, root: str) -> str:
        """Write the columns plus the persisted composite index as one
        crash-safe :mod:`repro.utils.persist` bundle under ``root``."""
        arrays = dict(self.export_arrays())
        for key, arr in self.index.export_state().items():
            arrays[f"{_INDEX_GROUP}/{key}"] = arr
        return persist.write(root, _KIND, arrays, {"n_rows": len(self)})

    @classmethod
    def load(cls, root: str, mmap: bool = True) -> "TruthMap":
        """Open a saved bundle; ``mmap=True`` maps every column read-only.

        The persisted composite index loads the same way, so lookups on
        a national-scale map touch only the pages a query needs.
        """
        bundle = persist.read(root, _KIND, mmap=mmap)
        missing = {name for name, _ in _COLUMNS} - set(bundle.arrays)
        if missing:
            raise ValueError(f"truth map is missing columns {sorted(missing)}")
        index_state = bundle.group(_INDEX_GROUP)
        index = MultiColumnIndex.from_state(index_state) if index_state else None
        out = cls.from_arrays(bundle.arrays, index=index)
        if int(bundle.manifest["n_rows"]) != len(out):
            raise ValueError(
                f"truth-map row count {len(out)} disagrees with manifest "
                f"({bundle.manifest['n_rows']})"
            )
        return out


def build_truth_map(localization: MLabLocalization) -> TruthMap:
    """Aggregate attributed MLab tests into per-(provider, cell) tiles.

    Reduces ``localization.triples`` (so a tile's ``n_tests`` is the
    localization's count for its key) over the measured throughputs each
    triple carries; an unmeasured direction is ``NaN``, never ``0.0``.
    """
    triples = localization.triples
    if triples is None:
        raise ValueError("localization has no attribution triples (rebuilt from counts?)")
    with get_metrics().histogram("enrich_build_seconds", stage="truthmap").time():
        starts, n_tests = triples.key_runs()
        tile = np.repeat(np.arange(starts.size), n_tests)
        median_down, p90_down = segment_median_p90(
            triples.download_mbps, tile, starts.size
        )
        median_up, p90_up = segment_median_p90(triples.upload_mbps, tile, starts.size)
        return TruthMap(
            provider_id=triples.provider_id[starts],
            cell=triples.cell[starts],
            median_down=median_down,
            p90_down=p90_down,
            median_up=median_up,
            p90_up=p90_up,
            n_tests=n_tests,
        )
