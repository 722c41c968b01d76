"""Vectorized multi-column key indexes (the columnar-store backbone).

The pipeline repeatedly needs "hash-map" lookups keyed by small tuples of
integers — (provider, cell, technology) claims, (provider, cell) MLab
test counts, per-cell coverage scores — over batches of millions of
query rows.  Python ``dict`` access costs one interpreter round-trip per
observation; this module provides the columnar replacement:

=========================  ===================================================
Class                      Lookup
=========================  ===================================================
:class:`ColumnIndex`       one integer key column -> stored row position
:class:`MultiColumnIndex`  k parallel integer key columns -> stored row
                           position
=========================  ===================================================

Both map *arrays* of query keys to *arrays* of row positions in a single
vectorized pass (``-1`` marks a miss), so callers gather value columns
with one fancy index instead of looping a ``dict.get`` per row.

Design: each key column is factorized against its sorted unique values
(``np.searchsorted``); multi-column keys are fused two columns at a time
with a re-factorization after every fuse, which keeps every intermediate
code below ``n_keys * column_cardinality`` — int64-safe at any
realistic table size (overflow would need more than ~3e9 stored keys).
Because H3 cell ids occupy the full uint64 range, query columns are cast
to the stored column's exact dtype before comparison; mixing signed
queries against unsigned keys (or vice versa) is the caller's bug and is
rejected rather than silently routed through a lossy float64 promotion.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ColumnIndex", "MultiColumnIndex", "ragged_arange"]


def ragged_arange(counts) -> np.ndarray:
    """``arange(c)`` for every count ``c``, concatenated.

    The within-group offset of ``np.repeat(x, counts)``: gathering
    ``values[np.repeat(starts, counts) + ragged_arange(counts)]`` reads
    ``counts[i]`` consecutive values from each ``starts[i]``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) - np.repeat(ends - counts, counts)


def _as_key_column(values) -> np.ndarray:
    out = np.asarray(values)
    if out.ndim != 1:
        raise ValueError(f"key columns must be 1-D, got shape {out.shape}")
    if not np.issubdtype(out.dtype, np.integer):
        raise TypeError(f"key columns must be integers, got dtype {out.dtype}")
    return out


def _match_dtype(queries: np.ndarray, stored_dtype: np.dtype) -> np.ndarray:
    """Cast a query column to the stored dtype without a float round-trip."""
    if queries.dtype == stored_dtype:
        return queries
    signed_q = np.issubdtype(queries.dtype, np.signedinteger)
    signed_s = np.issubdtype(stored_dtype, np.signedinteger)
    if signed_q != signed_s:
        raise TypeError(
            f"query dtype {queries.dtype} and key dtype {stored_dtype} "
            "mix signed and unsigned integers"
        )
    return queries.astype(stored_dtype)


class ColumnIndex:
    """Sorted-unique index over one integer key column.

    ``positions(queries)`` returns, per query value, the position of that
    value in the *stored* column (``-1`` when absent).  Duplicate stored
    keys are rejected — the index represents a unique-key table.
    """

    def __init__(self, keys):
        keys = _as_key_column(keys)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        if sorted_keys.size > 1 and (sorted_keys[1:] == sorted_keys[:-1]).any():
            raise ValueError("stored keys must be unique")
        self._sorted = sorted_keys
        self._order = order.astype(np.intp)
        self.n_keys = int(keys.size)

    def positions(self, queries) -> np.ndarray:
        """Stored-row position per query value; ``-1`` marks a miss."""
        queries = _match_dtype(_as_key_column(queries), self._sorted.dtype)
        if self.n_keys == 0 or queries.size == 0:
            return np.full(queries.size, -1, dtype=np.intp)
        slot = np.searchsorted(self._sorted, queries)
        slot[slot == self.n_keys] = 0  # out-of-range probes; rejected below
        hit = self._sorted[slot] == queries
        return np.where(hit, self._order[slot], -1).astype(np.intp, copy=False)


class MultiColumnIndex:
    """Sorted composite index over k parallel integer key columns.

    One stored key is the tuple of the i-th element of every column; keys
    must be unique.  ``positions(*query_columns)`` vectorizes tuple
    lookup: every query column is factorized against the corresponding
    stored column's unique values, the per-column codes are fused into
    one dense composite code (staged, re-factorized after each fuse so
    intermediates never overflow int64), and the final dense code indexes
    a precomputed position table directly — no terminal binary search.
    """

    def __init__(self, *columns):
        if not columns:
            raise ValueError("at least one key column required")
        cols = [_as_key_column(c) for c in columns]
        n = cols[0].size
        if any(c.size != n for c in cols):
            raise ValueError("key columns must have equal length")
        self.n_keys = int(n)
        #: Per column: sorted unique values observed among stored keys.
        self._uniques: list[np.ndarray] = []
        #: Per fuse stage (columns 1..k-1): sorted unique fused codes.
        self._stage_codes: list[np.ndarray] = []
        uniq, codes = np.unique(cols[0], return_inverse=True)
        self._uniques.append(uniq)
        codes = codes.astype(np.int64)
        for col in cols[1:]:
            uniq, col_codes = np.unique(col, return_inverse=True)
            self._uniques.append(uniq)
            fused = codes * np.int64(max(uniq.size, 1)) + col_codes.astype(np.int64)
            stage, codes = np.unique(fused, return_inverse=True)
            self._stage_codes.append(stage)
            codes = codes.astype(np.int64)
        if np.unique(codes).size != n:
            raise ValueError("stored keys must be unique")
        # Final codes are dense 0..n-1, one per stored row: invert them.
        self._pos_by_code = np.empty(n, dtype=np.intp)
        self._pos_by_code[codes] = np.arange(n, dtype=np.intp)

    @property
    def n_columns(self) -> int:
        return len(self._uniques)

    # -- persistence ---------------------------------------------------------

    def export_state(self) -> dict[str, np.ndarray]:
        """The index internals as a flat name->array dict.

        Everything :meth:`positions` consults — per-column sorted uniques,
        per-stage fused codes, and the dense code->row table — so
        :meth:`from_state` rebuilds a working index without re-factorizing
        the key columns.  The sharded claim store persists these arrays
        once per bundle (the manifest's "composite-key index" payload)
        and memory-maps them back read-only.
        """
        out = {
            f"uniques_{i}": uniq for i, uniq in enumerate(self._uniques)
        }
        out.update(
            {f"stage_{i}": stage for i, stage in enumerate(self._stage_codes)}
        )
        out["pos_by_code"] = self._pos_by_code
        return out

    @classmethod
    def from_state(cls, arrays) -> "MultiColumnIndex":
        """Rebuild an index from :meth:`export_state` arrays (no refactorize).

        The arrays are used as given (read-only or memory-mapped views
        work); only the position table's dtype is normalized.  Malformed
        payloads (missing stages, wrong counts) raise ``ValueError``.
        """
        self = cls.__new__(cls)
        uniques: list[np.ndarray] = []
        while f"uniques_{len(uniques)}" in arrays:
            uniques.append(np.asarray(arrays[f"uniques_{len(uniques)}"]))
        if not uniques:
            raise ValueError("index state has no uniques_0 column")
        stages: list[np.ndarray] = []
        while f"stage_{len(stages)}" in arrays:
            stages.append(
                np.asarray(arrays[f"stage_{len(stages)}"], dtype=np.int64)
            )
        if len(stages) != len(uniques) - 1:
            raise ValueError(
                f"index state has {len(uniques)} key columns but "
                f"{len(stages)} fuse stages (expected {len(uniques) - 1})"
            )
        if "pos_by_code" not in arrays:
            raise ValueError("index state is missing the pos_by_code table")
        self._uniques = uniques
        self._stage_codes = stages
        self._pos_by_code = np.asarray(arrays["pos_by_code"]).astype(
            np.intp, copy=False
        )
        self.n_keys = int(self._pos_by_code.size)
        return self

    def positions(self, *query_columns) -> np.ndarray:
        """Stored-row position per query tuple; ``-1`` marks a miss."""
        if len(query_columns) != self.n_columns:
            raise ValueError(
                f"expected {self.n_columns} query columns, got {len(query_columns)}"
            )
        cols = [_as_key_column(c) for c in query_columns]
        m = cols[0].size
        if any(c.size != m for c in cols):
            raise ValueError("query columns must have equal length")
        if self.n_keys == 0 or m == 0:
            return np.full(m, -1, dtype=np.intp)

        def _factorize(table: np.ndarray, values: np.ndarray, valid: np.ndarray):
            slot = np.searchsorted(table, values)
            slot[slot == table.size] = 0
            valid &= table[slot] == values
            return slot.astype(np.int64), valid

        valid = np.ones(m, dtype=bool)
        col = _match_dtype(cols[0], self._uniques[0].dtype)
        codes, valid = _factorize(self._uniques[0], col, valid)
        for uniq, stage, raw in zip(
            self._uniques[1:], self._stage_codes, cols[1:]
        ):
            col = _match_dtype(raw, uniq.dtype)
            col_codes, valid = _factorize(uniq, col, valid)
            fused = codes * np.int64(max(uniq.size, 1)) + col_codes
            codes, valid = _factorize(stage, fused, valid)
        return np.where(valid, self._pos_by_code[codes], -1).astype(
            np.intp, copy=False
        )
