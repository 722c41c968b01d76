"""Precomputed per-claim score store (the serving read path).

The NBM's unit of consumption is the distinct (provider, cell,
technology) claim, and the set of claims only changes at filing
deadlines — so the serving layer scores **every** claim once, up front,
through the binned inference path, and answers queries from frozen
parallel arrays:

========================  ===================================================
Array                     Contents
========================  ===================================================
``margin`` / ``score``    raw log-odds and P(suspicious) per claim
``percentile``            empirical percentile of the claim's margin among
                          all claims (ties share a value; max is 100)
``sus_order``             claim rows in descending-suspicion order (ties
                          broken by claim row for determinism)
``sus_rank``              inverse of ``sus_order`` — 0 marks the most
                          suspicious claim
========================  ===================================================

Lookups key through the claim store's existing composite index
(:meth:`~repro.fcc.bdc.ClaimColumns.positions`), so a batch of claim keys
resolves to scores with a handful of fancy-indexed gathers.  Filtered
top-k queries (provider / state / technology / hex) walk ``sus_order``
through a boolean mask — one vectorized pass, no sorting at query time.

Percentiles are computed on margins, not probabilities: the sigmoid
saturates to exactly 1.0 at large margins, which would collapse distinct
suspicion levels into artificial ties.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.dataset.observations import ObservationColumns
from repro.fcc.bdc import ClaimColumns
from repro.fcc.states import STATES
from repro.ml.gbdt import GradientBoostedClassifier, _sigmoid
from repro.obs.metrics import get_metrics
from repro.serve.schemas import ScoreRecord

__all__ = ["ClaimScoreStore", "score_claim_blocks"]

# Store-level instruments live in the process-wide registry: a score
# store has no owning service, and build/load timings matter across all
# of them.  Resolved once at import; updates are lock-cheap.
_LOOKUPS = get_metrics().counter("store_lookups_total")
_LOOKUP_HITS = get_metrics().counter("store_lookup_hits_total")
_BUILD_SECONDS = get_metrics().histogram("store_build_seconds")

#: Rows scored per vectorize-and-traverse block while building the store.
_BUILD_BLOCK_ROWS = 32_768

#: State abbreviation per STATES index, for claim-record rendering.
_STATE_ABBRS = np.array([s.abbr for s in STATES], dtype=object)


def score_claim_blocks(
    classifier: GradientBoostedClassifier,
    builder,
    claims: ClaimColumns,
    block_rows: int = _BUILD_BLOCK_ROWS,
    binned: bool = True,
) -> np.ndarray:
    """Margin per claim row, scored in bounded blocks.

    The single scoring kernel behind both :meth:`ClaimScoreStore.build`
    (monolithic, in-process) and the shard-parallel workers of
    :mod:`repro.store.parallel`.  Every row is vectorized and scored
    independently of its block, so any partition of the rows — blocks,
    shards, processes — produces bitwise-identical margins; the sharded
    equivalence suite pins that contract.
    """
    binner = classifier.binner
    ensemble = classifier.flat_ensemble
    if binned:
        ensemble.bind_binner(binner)
    n = len(claims)
    margin = np.empty(n)
    states = _STATE_ABBRS[claims.state_idx]
    step = max(1, int(block_rows))
    for start in range(0, n, step):
        stop = min(start + step, n)
        cols = ObservationColumns(
            provider_id=claims.provider_id[start:stop],
            cell=claims.cell[start:stop],
            technology=claims.technology[start:stop].astype(np.int64),
            state=states[start:stop],
            unserved=np.zeros(stop - start, dtype=np.int64),
        )
        X = builder.vectorize_columns(cols)
        if binned:
            margin[start:stop] = ensemble.predict_margin(
                binner.transform(X),
                base_margin=classifier.base_margin,
                binned=True,
            )
        else:
            margin[start:stop] = classifier.predict_margin(X)
    return margin


class ClaimScoreStore:
    """Frozen scores, percentiles, and suspicion orderings for all claims."""

    def __init__(self, claims: ClaimColumns, margin: np.ndarray):
        margin = np.asarray(margin, dtype=np.float64)
        if margin.ndim != 1 or margin.size != len(claims):
            raise ValueError(
                f"margin must be 1-D with {len(claims)} entries, "
                f"got shape {margin.shape}"
            )
        self.claims = claims
        self.margin = margin
        self.score = _sigmoid(margin)
        n = margin.size
        # Descending suspicion; stable sort breaks ties by claim row.
        self.sus_order = np.argsort(-margin, kind="stable")
        self.sus_rank = np.empty(n, dtype=np.int64)
        self.sus_rank[self.sus_order] = np.arange(n, dtype=np.int64)
        # Kept for O(log n) percentile placement of cold-path margins.
        self._sorted_margin = np.sort(margin)
        self.percentile = (
            100.0 * np.searchsorted(self._sorted_margin, margin, side="right") / n
            if n
            else np.empty(0)
        )
        for arr in (self.margin, self.score, self.sus_order, self.sus_rank,
                    self.percentile, self._sorted_margin):
            arr.setflags(write=False)
        self._etag: str | None = None
        self._record_json_cache: dict[int, bytes] = {}

    #: Derived arrays persisted by ``save_sharded`` so a single-shard
    #: bundle can serve without recomputing them per process (key ->
    #: required dtype).  All are deterministic functions of the margins.
    _DERIVED_SPECS = {
        "score": np.float64,
        "sus_order": np.int64,
        "sus_rank": np.int64,
        "sorted_margin": np.float64,
        "percentile": np.float64,
    }

    @classmethod
    def _from_saved_arrays(
        cls, claims: ClaimColumns, margin: np.ndarray, derived: dict
    ) -> "ClaimScoreStore":
        """Construct from persisted derived arrays, skipping recompute.

        The zero-copy pre-fork path: with an mmap-backed single-shard
        bundle every array — claims, margin, *and* the derived orderings
        — stays a read-only mapped page shared by all worker processes,
        instead of each fork rebuilding ~40 bytes/claim of private heap.
        """
        obj = cls.__new__(cls)
        margin = np.asarray(margin, dtype=np.float64)
        if margin.ndim != 1 or margin.size != len(claims):
            raise ValueError(
                f"margin must be 1-D with {len(claims)} entries, "
                f"got shape {margin.shape}"
            )
        obj.claims = claims
        obj.margin = margin
        arrays = {}
        for key, dtype in cls._DERIVED_SPECS.items():
            arr = np.asarray(derived[key], dtype=dtype)
            if arr.shape != margin.shape:
                raise ValueError(
                    f"derived array {key!r} has shape {arr.shape}, "
                    f"expected {margin.shape}"
                )
            arrays[key] = arr
        obj.score = arrays["score"]
        obj.sus_order = arrays["sus_order"]
        obj.sus_rank = arrays["sus_rank"]
        obj._sorted_margin = arrays["sorted_margin"]
        obj.percentile = arrays["percentile"]
        for arr in (obj.margin, obj.score, obj.sus_order, obj.sus_rank,
                    obj.percentile, obj._sorted_margin):
            if arr.flags.writeable:
                arr.setflags(write=False)
        obj._etag = None
        obj._record_json_cache = {}
        return obj

    def __len__(self) -> int:
        return int(self.margin.size)

    @property
    def etag(self) -> str:
        """Content fingerprint of this store's margins (lazy, cached).

        Pagination cursors embed it so a cursor minted against one
        *build* of a store cannot silently resume against another — a
        restart that reloads a retrained store under the same version
        name changes the etag even though the name matches.
        """
        if self._etag is None:
            digest = hashlib.sha1(np.int64(len(self)).tobytes())
            digest.update(self.margin.tobytes())
            self._etag = digest.hexdigest()[:16]
        return self._etag

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        classifier: GradientBoostedClassifier,
        builder,
        claims: ClaimColumns | None = None,
        block_rows: int = _BUILD_BLOCK_ROWS,
        binned: bool = True,
    ) -> "ClaimScoreStore":
        """Score every distinct claim of a columnar store once.

        Claims default to the builder's own claim store (every claim in
        the filing table).  Rows are vectorized straight from the claim
        arrays (:meth:`FeatureBuilder.vectorize_columns` — no per-claim
        ``Observation`` objects) and scored through the binned route-word
        path (:meth:`FlatEnsemble.bind_binner` +
        ``predict_margin(binned=True)``), block by block so peak memory
        stays bounded at NBM scale.  ``binned=False`` scores the same
        blocks through the float traversal instead — the reference the
        scenario harness compares the production path against bitwise.
        """
        if claims is None:
            claims = builder.claims
        with _BUILD_SECONDS.time():
            margin = score_claim_blocks(
                classifier, builder, claims, block_rows=block_rows, binned=binned
            )
            return cls(claims, margin)

    @classmethod
    def build_sharded(
        cls,
        classifier: GradientBoostedClassifier,
        builder,
        claims: ClaimColumns | None = None,
        shards=None,
        n_workers: int = 2,
        workdir: str | None = None,
        block_rows: int = _BUILD_BLOCK_ROWS,
        binned: bool = True,
    ) -> "ClaimScoreStore":
        """Score the claims shard-parallel across worker processes.

        Splits the claim table into per-state shards
        (:class:`repro.store.sharded.ShardedClaimColumns`; ``shards``
        picks the layout), saves the model artifacts plus a frozen
        feature-table bundle into ``workdir`` (a temporary directory by
        default), scores each shard in a ``multiprocessing`` worker that
        loads everything from those pickle-free bundles, and stitches
        the per-shard margin partials back into monolithic row order.
        Bitwise-identical to :meth:`build` — per-row scoring does not
        depend on batch composition (the equivalence suite enforces it).
        """
        from repro.store.parallel import build_sharded_margins
        from repro.store.sharded import ShardedClaimColumns

        if claims is None:
            claims = builder.claims
        sharded = ShardedClaimColumns.from_claims(claims, shards=shards)
        margin = build_sharded_margins(
            classifier,
            builder,
            sharded,
            n_workers=n_workers,
            workdir=workdir,
            block_rows=block_rows,
            binned=binned,
        )
        return cls(claims, margin)

    # -- lookups ------------------------------------------------------------

    def positions(
        self, provider_id: np.ndarray, cell: np.ndarray, technology: np.ndarray
    ) -> np.ndarray:
        """Claim row per key through the composite index (``-1`` = miss)."""
        pos = self.claims.positions(provider_id, cell, technology)
        _LOOKUPS.inc(int(pos.size))
        _LOOKUP_HITS.inc(int((pos >= 0).sum()))
        return pos

    def record(self, row: int) -> dict:
        """One claim's score record as a JSON-safe dict.

        This is the serving hot path (top-k, pages, and bulk scoring all
        build thousands of these per request), so the dict is built
        directly; the key order is the canonical wire shape of
        :class:`~repro.serve.schemas.ScoreRecord` — a unit test pins
        ``record(row) == typed_record(row).to_dict()`` so the two
        encoders cannot drift.
        """
        claims = self.claims
        return {
            "provider_id": int(claims.provider_id[row]),
            "cell": int(claims.cell[row]),
            "technology": int(claims.technology[row]),
            "state": str(_STATE_ABBRS[claims.state_idx[row]]),
            "score": float(self.score[row]),
            "margin": float(self.margin[row]),
            "percentile": float(self.percentile[row]),
            "rank": int(self.sus_rank[row]),
            "claimed_count": int(claims.claimed_count[row]),
            "max_download_mbps": float(claims.max_download_mbps[row]),
            "max_upload_mbps": float(claims.max_upload_mbps[row]),
            "low_latency": bool(claims.low_latency[row]),
            "precomputed": True,
        }

    def typed_record(self, row: int) -> ScoreRecord:
        """One claim's score record as a typed :class:`ScoreRecord`."""
        return ScoreRecord.from_dict(self.record(row))

    def records(self, rows: np.ndarray) -> list[dict]:
        return [self.record(int(r)) for r in np.asarray(rows, dtype=np.int64)]

    def record_json(self, row: int) -> bytes:
        """One claim's record pre-encoded as a JSON fragment (cached).

        A store's records are frozen for its lifetime, so each row is
        encoded at most once and paginated walks splice the cached bytes
        into the response envelope instead of re-serializing the dict on
        every page.  The fragment is byte-identical to ``json.dumps`` of
        :meth:`record` with default separators (a unit test pins it).
        Concurrent first encodes of the same row are benign: both threads
        compute identical bytes.
        """
        cached = self._record_json_cache.get(row)
        if cached is None:
            cached = json.dumps(self.record(row)).encode("utf-8")
            self._record_json_cache[row] = cached
        return cached

    def records_json(self, rows: np.ndarray) -> list[bytes]:
        """Pre-encoded JSON fragments for a batch of rows."""
        return [
            self.record_json(int(r)) for r in np.asarray(rows, dtype=np.int64)
        ]

    def margin_percentile(self, margin) -> np.ndarray:
        """Percentile of arbitrary margins against the stored distribution.

        The cold-path hook: a hypothetical claim's score is placed on the
        same empirical scale as the precomputed claims.
        """
        if not len(self):
            return np.zeros(np.asarray(margin, dtype=np.float64).size)
        idx = np.searchsorted(
            self._sorted_margin, np.asarray(margin, dtype=np.float64), side="right"
        )
        return 100.0 * idx / len(self)

    # -- top-k --------------------------------------------------------------

    def top_suspicious(
        self,
        k: int = 10,
        provider_id: int | None = None,
        state_idx: int | None = None,
        technology: int | None = None,
        cell: int | None = None,
    ) -> np.ndarray:
        """Claim rows of the k most suspicious claims matching the filters.

        Walks the precomputed descending order through one boolean mask;
        with no filters this is a pure slice of ``sus_order``.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        order = self.sus_order
        mask = self._filter_mask(provider_id, state_idx, technology, cell)
        if mask is None:
            return order[:k].copy()
        sel = order[mask[order]]
        return sel[:k]

    # -- cursor pagination ---------------------------------------------------

    def _filter_mask(
        self,
        provider_id: int | None = None,
        state_idx: int | None = None,
        technology: int | None = None,
        cell: int | None = None,
    ) -> np.ndarray | None:
        """Boolean claim mask for a filter set; ``None`` when unfiltered."""
        if (
            provider_id is None
            and state_idx is None
            and technology is None
            and cell is None
        ):
            return None
        claims = self.claims
        mask = np.ones(len(self), dtype=bool)
        if provider_id is not None:
            mask &= claims.provider_id == np.int64(provider_id)
        if state_idx is not None:
            mask &= claims.state_idx == np.int16(state_idx)
        if technology is not None:
            mask &= claims.technology == np.int16(technology)
        if cell is not None:
            mask &= claims.cell == np.uint64(cell)
        return mask

    def page_suspicious(
        self,
        after_rank: int = 0,
        limit: int = 100,
        provider_id: int | None = None,
        state_idx: int | None = None,
        technology: int | None = None,
        cell: int | None = None,
    ) -> tuple[np.ndarray, int | None, int]:
        """One page of the filtered descending-suspicion walk.

        Returns ``(rows, next_rank, total)``: up to ``limit`` claim rows
        whose suspicion rank is ``>= after_rank``, in descending
        suspicion; the rank where the next page starts (``None`` when
        this page exhausts the walk); and the total number of rows
        matching the filters.  Ranks are positions in the *unfiltered*
        suspicion order, so concatenating pages reproduces
        ``sus_order`` (masked by the filters) exactly — the pagination
        contract the API's cursors encode.

        A *filtered* page rebuilds the boolean mask, so a full filtered
        walk is O(n) per page.  That is a deliberate tradeoff: pages
        stay stateless (nothing server-side to invalidate on hot-swap)
        and the mask build is a handful of vectorized compares — revisit
        with a per-fingerprint mask cache if filtered walks at much
        larger n ever dominate.
        """
        if after_rank < 0:
            raise ValueError("after_rank must be >= 0")
        if limit < 1:
            raise ValueError("limit must be >= 1")
        n = len(self)
        mask = self._filter_mask(provider_id, state_idx, technology, cell)
        order = self.sus_order
        if mask is None:
            total = n
            rows = order[after_rank : after_rank + limit]
            stop = after_rank + rows.size
            return rows.copy(), (stop if stop < n else None), total
        total = int(np.count_nonzero(mask))
        tail = order[after_rank:]
        sel = tail[mask[tail]]
        rows = sel[:limit]
        if sel.size > rows.size:
            next_rank = int(self.sus_rank[rows[-1]]) + 1
        else:
            next_rank = None
        return rows.copy(), next_rank, total

    # -- persistence --------------------------------------------------------

    def save_sharded(
        self, path: str, shards=None, include_derived: bool = True
    ) -> str:
        """Write the store as a per-state sharded bundle (raw-mmap files).

        The claim columns shard through
        :class:`repro.store.sharded.ShardedClaimColumns` (``shards``
        picks the layout) and each shard carries its slice of the margin
        array.  A *single-shard* bundle additionally persists the
        derived arrays (score, orderings, percentiles) so
        :meth:`load_sharded` can serve them straight off the mapped
        pages — the pre-fork worker pool shares one page-cache copy
        instead of recomputing per process.  Multi-shard bundles skip
        them (the orderings are global, not per-shard) and recompute on
        load; ``include_derived=False`` forces the lean layout.
        """
        from repro.store.sharded import ShardedClaimColumns

        sharded = ShardedClaimColumns.from_claims(self.claims, shards=shards)
        extra_shard_arrays = {
            name: {"margin": self.margin[sharded.global_rows(name)]}
            for name in sharded.shard_names
        }
        names = sharded.shard_names
        if include_derived and len(names) == 1:
            rows = sharded.global_rows(names[0])
            # Shard row i holds global row rows[i]; sus_order/sus_rank
            # speak in row indices, so they only persist unchanged when
            # the mapping is the identity (always true for one shard of
            # canonically sorted claims — guarded, not assumed).
            if np.array_equal(rows, np.arange(rows.size, dtype=rows.dtype)):
                extra_shard_arrays[names[0]].update(
                    {
                        "score": self.score,
                        "sus_order": self.sus_order,
                        "sus_rank": self.sus_rank,
                        "sorted_margin": self._sorted_margin,
                        "percentile": self.percentile,
                    }
                )
        return sharded.save(
            path,
            extra_shard_arrays=extra_shard_arrays,
            extra_manifest={"store": {"kind": "claim-score-store"}},
        )

    @classmethod
    def load_sharded(cls, path: str, mmap: bool = True) -> "ClaimScoreStore":
        """Rebuild a store from a bundle written by :meth:`save_sharded`.

        With ``mmap=True`` the shard columns open as read-only
        memory-mapped views; a single-shard bundle serves *zero-copy*
        (claims and margin stay mmap-backed), while multi-shard bundles
        scatter shards back into monolithic row order.
        """
        mode = "mmap" if mmap else "eager"
        with get_metrics().histogram("store_load_seconds", mode=mode).time():
            return cls._load_sharded(path, mmap=mmap)

    @classmethod
    def _load_sharded(cls, path: str, mmap: bool) -> "ClaimScoreStore":
        from repro.store.sharded import ShardedClaimColumns

        sharded = ShardedClaimColumns.load(path, mmap=mmap)
        missing = [
            name
            for name in sharded.shard_names
            if "margin" not in sharded.extra_arrays.get(name, {})
        ]
        if missing:
            raise ValueError(
                f"sharded bundle at {path} has no margin payload for "
                f"shard(s) {missing[:5]} (was it written by save_sharded?)"
            )
        names = sharded.shard_names
        if len(names) == 1:
            name = names[0]
            extra = sharded.extra_arrays[name]
            if all(key in extra for key in cls._DERIVED_SPECS):
                return cls._from_saved_arrays(
                    sharded.shard(name), extra["margin"], extra
                )
            return cls(sharded.shard(name), extra["margin"])
        margin = np.empty(len(sharded))
        for name in names:
            margin[sharded.global_rows(name)] = sharded.extra_arrays[name][
                "margin"
            ]
        return cls(sharded.to_claims(), margin)
