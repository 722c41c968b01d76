"""National-shard claim store: per-state row ranges over one claim table.

The NBM's unit of release is the *state*: real BDC tooling downloads one
availability CSV per state and processes them slice by slice, and the
challenge-analysis literature works on the same per-state grain.  This
module keeps that partition as *metadata* over the monolithic
:class:`~repro.fcc.bdc.ClaimColumns` table: every shard is a contiguous
range of one row array, so the table itself is stored once and persists
as one raw ``.npy`` file per column, whatever the layout.  A saved store
loads *read-only and zero-copy* via ``numpy.load(mmap_mode="r")``: no
column is paged in until something touches it.

A saved store is one :mod:`repro.utils.persist` bundle (crash-safe,
hashed, generation-swapped) whose array keys are::

    <column>         <- the eight ClaimColumns columns, monolithic order
    index/<key>      <- the persisted composite-key index
    shard_rows       <- each shard's monolithic rows (ascending), shards
                        concatenated in name order
    shard_offsets    <- shard i owns shard_rows[off[i]:off[i + 1]]
    <extra>          <- caller payloads aligned to monolithic rows
                        (e.g. margins)

The manifest adds the row count, per-column dtypes and the state->shard
routing map; ``persist.verify`` re-hashes the arrays.

Equivalence contract (property-tested): every shard is
``claims.take(global_rows(name))`` with its rows in ascending monolithic
order, so it preserves the monolithic lexicographic key order among its
own rows; :meth:`to_claims` is the monolithic table itself and
:meth:`positions` is the monolithic composite index.
"""

from __future__ import annotations

import numpy as np

from repro.fcc.bdc import ClaimColumns
from repro.fcc.states import STATES
from repro.obs.metrics import get_metrics
from repro.utils import persist
from repro.utils.indexing import MultiColumnIndex


def _stage_timer(stage: str):
    """Sharded-store stage timer (split, write and load, once per call)."""
    return get_metrics().histogram("shard_build_seconds", stage=stage).time()

__all__ = ["ShardedClaimColumns"]

_KIND = "sharded-claim-columns"

_INDEX_GROUP = "index"

_STATE_ABBRS = tuple(s.abbr for s in STATES)


def _resolve_state_map(shards) -> dict[str, str]:
    """Normalize a shard layout spec into a full state->shard-name map.

    ``None``
        one shard per state, named by the lowercased abbreviation;
    ``int k``
        ``k`` shards named ``shard-00..`` with states dealt round-robin
        by state index (``k`` larger than the state count yields empty
        shards — a supported edge case);
    ``dict``
        explicit abbreviation->shard-name map (must cover every state).
    """
    if shards is None:
        return {abbr: abbr.lower() for abbr in _STATE_ABBRS}
    if isinstance(shards, int):
        if shards < 1:
            raise ValueError("shard count must be >= 1")
        width = max(2, len(str(shards - 1)))
        return {
            abbr: f"shard-{i % shards:0{width}d}"
            for i, abbr in enumerate(_STATE_ABBRS)
        }
    state_map = {str(k): str(v) for k, v in dict(shards).items()}
    missing = [a for a in _STATE_ABBRS if a not in state_map]
    if missing:
        raise ValueError(
            f"shard map must route every state; missing {missing[:5]}"
        )
    return state_map


class ShardedClaimColumns:
    """A ``ClaimColumns`` table partitioned into named per-state shards.

    The table is held once, in monolithic row order.  ``shard_rows``
    lists each shard's monolithic rows in ascending order, shards
    concatenated in name order, and ``shard_offsets`` (one entry per
    shard plus one) delimits them.  Construct with :meth:`from_claims`
    (partition an in-memory table) or :meth:`load` (memory-map a saved
    bundle).
    """

    def __init__(
        self,
        claims: ClaimColumns,
        shard_rows: np.ndarray,
        shard_offsets: np.ndarray,
        state_to_shard: dict[str, str],
        extra_arrays: dict[str, np.ndarray] | None = None,
    ):
        self.state_to_shard = dict(state_to_shard)
        self._names = sorted(set(self.state_to_shard.values()))
        self._claims = claims
        self._shard_rows = np.asarray(shard_rows, dtype=np.int64)
        self._shard_offsets = np.asarray(shard_offsets, dtype=np.int64)
        offsets = self._shard_offsets
        if (
            offsets.shape != (len(self._names) + 1,)
            or offsets[0] != 0
            or offsets[-1] != self._shard_rows.size
            or self._shard_rows.size != len(claims)
            or np.any(np.diff(offsets) < 0)
        ):
            raise ValueError(
                f"shard_offsets {offsets.tolist()[:8]} do not delimit "
                f"{len(self._names)} shards over {len(claims)} rows"
            )
        self._ordinal = {name: i for i, name in enumerate(self._names)}
        #: Caller payloads aligned to monolithic rows (e.g. margins).
        self.extra_arrays = extra_arrays or {}

    def __len__(self) -> int:
        return len(self._claims)

    @property
    def shard_names(self) -> list[str]:
        return list(self._names)

    def global_rows(self, name: str) -> np.ndarray:
        """Monolithic row per shard row, ascending."""
        i = self._ordinal[name]
        return self._shard_rows[self._shard_offsets[i] : self._shard_offsets[i + 1]]

    def shard(self, name: str) -> ClaimColumns:
        return self._claims.take(self.global_rows(name))

    # -- construction --------------------------------------------------------

    @classmethod
    def from_claims(
        cls, claims: ClaimColumns, shards=None
    ) -> "ShardedClaimColumns":
        """Partition a monolithic claim table by its per-row state.

        ``shards`` is a layout spec (see :func:`_resolve_state_map`).
        One stable argsort of the per-row shard ordinal keeps every
        shard's rows in ascending monolithic order, so the monolithic
        lexicographic key order is preserved shard-locally.
        """
        state_map = _resolve_state_map(shards)
        names = sorted(set(state_map.values()))
        ordinal = {name: i for i, name in enumerate(names)}
        shard_of_state = np.array(
            [ordinal[state_map[a]] for a in _STATE_ABBRS], dtype=np.int64
        )
        with _stage_timer("split"):
            shard_per_row = shard_of_state[claims.state_idx.astype(np.int64)]
            shard_rows = np.argsort(shard_per_row, kind="stable")
            offsets = np.zeros(len(names) + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(shard_per_row, minlength=len(names)),
                out=offsets[1:],
            )
        return cls(claims, shard_rows, offsets, state_map)

    # -- monolithic views ----------------------------------------------------

    def to_claims(self) -> ClaimColumns:
        """The monolithic table (a loaded bundle's mapped columns)."""
        return self._claims

    def positions(
        self, provider_id: np.ndarray, cell: np.ndarray, technology: np.ndarray
    ) -> np.ndarray:
        """Monolithic row per claim key (``-1`` = miss)."""
        return self._claims.positions(provider_id, cell, technology)

    # -- persistence ---------------------------------------------------------

    def save(
        self,
        root: str,
        extra_arrays: dict[str, np.ndarray] | None = None,
        extra_manifest: dict | None = None,
    ) -> str:
        """Write the bundle under ``root`` (crash-safe commit).

        One :func:`repro.utils.persist.write` bundle: an interrupted save
        never invalidates a previously committed one.  ``extra_arrays``
        adds caller payloads aligned to monolithic rows (e.g.
        ``{"margin": ...}``); ``extra_manifest`` merges extra top-level
        keys (e.g. ingestion stats) into the manifest.
        """
        arrays: dict[str, np.ndarray] = dict(self._claims.export_arrays())
        arrays["shard_rows"] = self._shard_rows
        arrays["shard_offsets"] = self._shard_offsets
        for key, arr in self._claims.index.export_state().items():
            arrays[f"{_INDEX_GROUP}/{key}"] = arr
        for key, arr in (extra_arrays or {}).items():
            if key in arrays or key.split("/")[0] == _INDEX_GROUP:
                raise ValueError(f"extra array {key!r} shadows a bundle array")
            if np.shape(arr)[:1] != (len(self),):
                raise ValueError(
                    f"extra array {key!r} has shape {np.shape(arr)}, "
                    f"expected one entry per row ({len(self)})"
                )
            arrays[key] = arr
        meta = {
            "n_rows": len(self),
            "columns": {
                name: str(np.dtype(dtype))
                for name, dtype in ClaimColumns.EXPORT_FIELDS
            },
            "state_to_shard": dict(sorted(self.state_to_shard.items())),
        }
        for key in extra_manifest or {}:
            if key in meta:
                raise ValueError(f"extra manifest key {key!r} is reserved")
        meta.update(extra_manifest or {})
        with _stage_timer("write"):
            return persist.write(root, _KIND, arrays, meta)

    @classmethod
    def load(cls, root: str, mmap: bool = True) -> "ShardedClaimColumns":
        """Open a saved bundle; ``mmap=True`` maps every array read-only.

        Memory-mapped columns are zero-copy views: nothing is paged in
        until a lookup touches it, and the persisted composite-key index
        loads the same way (no re-factorization).
        """
        with _stage_timer("load"):
            bundle = persist.read(root, _KIND, mmap=mmap)
        arrays = dict(bundle.arrays)
        index_state = bundle.group(_INDEX_GROUP)
        for key in index_state:
            del arrays[f"{_INDEX_GROUP}/{key}"]
        column_names = [name for name, _ in ClaimColumns.EXPORT_FIELDS]
        missing = {*column_names, "shard_rows", "shard_offsets"} - set(arrays)
        if missing:
            raise ValueError(
                f"claim bundle at {root} is missing arrays {sorted(missing)}"
            )
        claims = ClaimColumns.from_arrays(
            {name: arrays.pop(name) for name in column_names},
            index=MultiColumnIndex.from_state(index_state) if index_state else None,
        )
        if len(claims) != bundle.manifest["n_rows"]:
            raise ValueError(
                f"claim bundle at {root} holds {len(claims)} rows, its "
                f"manifest says {bundle.manifest['n_rows']}"
            )
        return cls(
            claims,
            arrays.pop("shard_rows"),
            arrays.pop("shard_offsets"),
            bundle.manifest["state_to_shard"],
            extra_arrays=arrays,
        )
