"""Histogram-based regression trees for gradient boosting.

This is the tree learner underneath :mod:`repro.ml.gbdt`, re-implementing
the core of XGBoost (Chen & Guestrin, KDD'16) that the paper relies on:

* quantile histogram binning (``max_bins`` buckets per feature);
* second-order split gain with L2 (``reg_lambda``), L1 (``reg_alpha``) and
  minimum-gain (``gamma``) regularization;
* *sparsity-aware* splits: missing values (NaN) learn a per-node default
  direction by trying both assignments during split search;
* per-node cover (hessian mass) retained for TreeSHAP.

Trees are stored as flat parallel arrays so prediction and SHAP can run
without Python object traversal per node.

========================  ====================================================
Surface                   Role
========================  ====================================================
:class:`HistogramBinner`  quantile cuts; float matrix -> uint8 bin codes
:func:`grow_tree`         one tree from binned data + gradients/hessians
:class:`RegressionTree`   flat per-tree arrays; reference predict paths
:class:`FlatEnsemble`     all trees concatenated; batched float traversal,
                          threshold-space traversal (``threshold_codes`` +
                          ``predict_margin(..., binned=True)``; pre-binned
                          codes via ``bind_binner``), TreeSHAP substrate,
                          expectations, gains
========================  ====================================================

Kernel design (the NumPy hot path)
----------------------------------

The training and inference hot paths are fully vectorized:

**Fused multi-feature histograms.**  Split finding bins every active
feature of a node in *one* ``np.bincount`` call over a *compact* layout
(:class:`_HistLayout`): feature slot ``s`` owns ``n_bins(s) + 1``
consecutive positions from ``offset[s]`` — its value bins, then its
missing bin — so a one-hot column costs 3 positions.
Codes are moved to their positions up front (the offset-code matrix:
once per fit, per tree under row/column subsampling, per node above
``_OFFSET_CODES_MAX_ELEMENTS``; :data:`MISSING_BIN` is clamped onto the
slot's missing position), and
the gradient/hessian/count histograms of all features come back as flat
``Σ(n_bins + 1)`` vectors from a single pass over the node's rows.  The
offset-code matrix is flattened row-major (a free view of the
C-contiguous gather); for any fixed feature the codes still appear in
ascending row order, so each per-feature histogram accumulates
identically to — and is bitwise identical with — the seed's per-feature
``bincount`` loop.

**Sibling subtraction.**  A node's histogram is the elementwise sum of
its children's histograms, so after a split only the *smaller* child's
histogram is computed from rows; the larger child's is derived as
``parent_hist - small_child_hist`` (the LightGBM trick).  This roughly
halves histogram work per level.  Derived histograms can differ from
directly-computed ones in the last float ulp (bins whose derived count is
zero are cleared, so empty bins stay exact); the only observable effect
is at *exact gain ties*, where the perturbed argmax may select the other
equally-optimal split.  Disable with ``sibling_subtraction=False`` for
full bitwise parity with the seed kernels (see
:mod:`repro.ml._reference`).

**Vectorized split selection.**  Active slots are partitioned once per
fit into *width groups* (:func:`_width_runs`: binary columns apart from
the few wide continuous ones, by a padding-vs-call-overhead cost model).
Each group gathers its bins into a padded ``(F_g, W)`` block (padding
reads an always-empty position) and evaluates every (feature,
missing-direction, bin) candidate as one ``(F_g, 2, W-1)`` tensor with
a flat ``argmax``.  When every missing bin of a group is exactly empty
in the node (count, gradient and hessian all zero), the missing-goes-left
candidates equal the missing-goes-right ones element for element, so
the group searches one ``(F_g, 1, W-1)`` direction instead.
C-order flattening gives each group the seed's first-maximum order
(feature, then missing-goes-right before missing-goes-left, then lowest
bin), and across groups an exact gain tie goes to the lower feature
slot, so the chosen split is the seed's sequential scan's.

**Flat ensemble inference.**  :class:`FlatEnsemble` concatenates every
tree's node arrays into one set of parallel arrays (children re-indexed
to global node ids) and routes all (row, tree) pairs simultaneously with
a frontier traversal: ``max_depth`` vectorized gather/where steps replace
the per-tree Python loop.  TreeSHAP (:mod:`repro.ml.shap`) walks the same
flat arrays.

**Threshold-space batch inference.**  The float frontier traversal is
gather-bound: every level gathers six node arrays plus a float64 feature
column for *all* (row, tree) pairs, finished or not.  A fitted ensemble
reads only the features its nodes split on, at only the thresholds they
use, so each :class:`FlatEnsemble` compiles once into its own split
table (:class:`_SplitTable`): per used feature, the sorted distinct node
thresholds, and per node one packed int64 *route word* (comparison
bound, code-matrix column, right-child offset).  A row is reduced to one
uint8 *threshold code* per used feature — the count of that feature's
thresholds strictly below the value, :data:`MISSING_BIN` for non-finite
values (:meth:`FlatEnsemble.threshold_codes`, counted by the binner's
own kernel :func:`_count_below`) — and
``predict_margin(X, binned=True)`` traverses those codes with **two**
gathers per level (route word + code), missing-value handling folded
into the column choice via a pre-incremented copy of the code matrix,
leaves self-looping as all-zero words, and per-depth active-set
compaction once enough (row, tree) pairs have finished.  Leaf values
are added tree by tree inside each row step of the walk, so only one
step's leaf ids exist at a time.  Because
``x <= t_k`` is exactly equivalent to ``code(x) <= k`` (and both paths
send non-finite values to the node's default direction), the margin is
bitwise identical to the float path — asserted by the equivalence and
property tests and re-checked by the perf benchmark on every run.
Pre-binned uint8 rows from the training binner walk the same table:
:meth:`~FlatEnsemble.bind_binner` checks that every threshold is one of
the binner's cuts and maps each binner code to its threshold code with
one lookup table per used feature.  The claim-score store
(:func:`repro.serve.store.score_claim_blocks`) codes every claim this
way, walks only each block's distinct code rows, and never bins a claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FlatEnsemble",
    "HistogramBinner",
    "RegressionTree",
    "TreeGrowthParams",
    "grow_tree",
]

#: Bin code reserved for missing values.
MISSING_BIN = 255

#: Soft cap on elements materialized per fused-histogram / binning block.
_BLOCK_ELEMENTS = 1 << 22

#: Ceiling on (rows x active features) for precomputing the per-tree
#: offset-code matrix (int64 codes already at their compact histogram
#: positions): 2^24 elements = 128 MB.  Above it, nodes fall back to the
#: gather-then-offset path so training memory stays bounded at NBM scale.
_OFFSET_CODES_MAX_ELEMENTS = 1 << 24

#: Row-block cap for frontier traversal: the (rows, trees) temporaries of
#: each level must stay cache-resident or the batched gathers lose to the
#: per-tree loop's contiguous column reads (measured crossover ~2^18).
_TRAVERSAL_BLOCK_ELEMENTS = 1 << 16

#: Row block for cut counting (:func:`_count_below`): each block's
#: columns are transposed once (~7 MB of float64 at 109 features) so
#: every cut comparison streams one contiguous column.
_BINNING_BLOCK_ROWS = 1 << 13

#: Compact the binned-traversal frontier when the live fraction of
#: (row, tree) pairs drops below this (compaction costs a few selects,
#: so it must drop enough dead pairs to pay for itself).
_COMPACTION_THRESHOLD = 0.6


def _count_below(X: np.ndarray, columns, cut_lists: list[np.ndarray]) -> np.ndarray:
    """Per value, the count of its column's sorted cuts strictly below it.

    Column ``j`` of the ``(n, len(cut_lists))`` uint8 result codes
    ``X[:, columns][:, j]`` against ``cut_lists[j]`` (``searchsorted``
    ``left``); non-finite values map to :data:`MISSING_BIN`.  The count
    is accumulated one broadcast comparison per cut over a transposed
    row block.  That is branch-free, where ``searchsorted`` mispredicts
    on unsorted values: per column of 32k-58k claim rows it measured
    20x slower at 1 cut, 1.5x at 128-192 and even only at 253, the
    most cuts a uint8 code holds.
    """
    n = X.shape[0]
    out = np.empty((n, len(cut_lists)), dtype=np.uint8)
    step = _BINNING_BLOCK_ROWS
    for start in range(0, n, step):
        cols = np.ascontiguousarray(X[start : start + step].T[columns])
        codes = np.zeros(cols.shape, dtype=np.uint8)
        for code, col, cuts in zip(codes, cols, cut_lists):
            for cut in cuts:
                code += cut < col
        codes[~np.isfinite(cols)] = MISSING_BIN
        out[start : start + step] = codes.T
    return out


class HistogramBinner:
    """Quantile binning of a float feature matrix into uint8 codes.

    Bin ``b`` of feature ``f`` contains values ``x`` with
    ``split_values[f][b-1] < x <= split_values[f][b]`` (open below for b=0).
    NaN maps to :data:`MISSING_BIN`.

    ``transform`` counts each value's cuts with :func:`_count_below`,
    the kernel the ensemble's threshold codes share.
    """

    def __init__(self, max_bins: int = 64):
        if not 2 <= max_bins <= 254:
            raise ValueError(f"max_bins must be in [2, 254], got {max_bins}")
        self.max_bins = max_bins
        self.split_values_: list[np.ndarray] | None = None

    def fit(self, X: np.ndarray) -> "HistogramBinner":
        """Choose per-feature split candidates from value quantiles."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        splits = []
        for f in range(X.shape[1]):
            col = X[:, f]
            finite = col[np.isfinite(col)]
            if finite.size == 0:
                splits.append(np.empty(0))
                continue
            uniq = np.unique(finite)
            if uniq.size <= self.max_bins - 1:
                # Split between consecutive distinct values.
                cuts = (uniq[:-1] + uniq[1:]) / 2.0 if uniq.size > 1 else np.empty(0)
            else:
                qs = np.linspace(0, 1, self.max_bins + 1)[1:-1]
                cuts = np.unique(np.quantile(finite, qs))
            splits.append(cuts.astype(np.float64))
        self.split_values_ = splits
        return self

    def export_state(self) -> dict[str, np.ndarray]:
        """Fitted cuts as flat arrays (the pickle-free artifact payload).

        The ragged per-feature cut lists are packed into one float64 value
        array plus an int64 offset array (``cut_offsets[f]:cut_offsets[f+1]``
        delimits feature ``f``); :meth:`from_state` inverts the packing
        exactly, so a round-tripped binner produces bitwise-identical codes.
        """
        if self.split_values_ is None:
            raise RuntimeError("binner is not fitted")
        sizes = [c.size for c in self.split_values_]
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        values = (
            np.concatenate(self.split_values_)
            if offsets[-1]
            else np.empty(0, dtype=np.float64)
        ).astype(np.float64)
        return {
            "max_bins": np.int64(self.max_bins),
            "cut_values": values,
            "cut_offsets": offsets,
        }

    @classmethod
    def from_state(cls, state: dict) -> "HistogramBinner":
        """Rebuild a fitted binner from :meth:`export_state` arrays."""
        binner = cls(max_bins=int(state["max_bins"]))
        offsets = np.asarray(state["cut_offsets"], dtype=np.int64)
        values = np.asarray(state["cut_values"], dtype=np.float64)
        if offsets.size < 1 or offsets[0] != 0 or (np.diff(offsets) < 0).any():
            raise ValueError("cut_offsets must start at 0 and be non-decreasing")
        if offsets[-1] != values.size:
            raise ValueError(
                f"cut_offsets end at {int(offsets[-1])}, "
                f"but {values.size} cut values were provided"
            )
        binner.split_values_ = [
            values[offsets[f] : offsets[f + 1]].copy()
            for f in range(offsets.size - 1)
        ]
        return binner

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Map a float matrix to uint8 bin codes (NaN -> MISSING_BIN)."""
        if self.split_values_ is None:
            raise RuntimeError("binner is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.split_values_):
            raise ValueError(
                f"X must be (n, {len(self.split_values_)}), got {np.shape(X)}"
            )
        return _count_below(X, slice(None), self.split_values_)

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def n_bins(self, feature: int) -> int:
        """Number of occupied value bins for a feature (excluding missing)."""
        if self.split_values_ is None:
            raise RuntimeError("binner is not fitted")
        return len(self.split_values_[feature]) + 1

    def threshold_value(self, feature: int, bin_index: int) -> float:
        """Numeric threshold such that ``x <= threshold`` means bin <= bin_index."""
        if self.split_values_ is None:
            raise RuntimeError("binner is not fitted")
        return float(self.split_values_[feature][bin_index])


@dataclass(frozen=True)
class TreeGrowthParams:
    """Regularization and structure limits for one tree."""

    max_depth: int = 6
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0
    reg_alpha: float = 0.0
    gamma: float = 0.0
    min_samples_leaf: int = 1


@dataclass
class RegressionTree:
    """A fitted tree in flat-array form.

    ``children_left[i] == -1`` marks node ``i`` as a leaf; leaves carry
    ``values[i]``.  Internal nodes route ``x[feature[i]] <= threshold[i]``
    left, with NaN following ``default_left[i]``.  Nodes are stored in
    preorder (every child index is greater than its parent's), which the
    flat-ensemble expectation scan relies on.
    """

    feature: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))
    threshold: np.ndarray = field(default_factory=lambda: np.empty(0))
    threshold_bin: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))
    children_left: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))
    children_right: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))
    default_left: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    values: np.ndarray = field(default_factory=lambda: np.empty(0))
    cover: np.ndarray = field(default_factory=lambda: np.empty(0))
    gain: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)

    def is_leaf(self, node: int) -> bool:
        return self.children_left[node] < 0

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Evaluate the tree on raw float rows (NaN = missing)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        out = np.empty(X.shape[0])
        # Vectorized level traversal: route index masks through the tree.
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if self.is_leaf(node):
                out[idx] = self.values[node]
                continue
            col = X[idx, self.feature[node]]
            missing = ~np.isfinite(col)
            go_left = (col <= self.threshold[node]) & ~missing
            if self.default_left[node]:
                go_left |= missing
            stack.append((int(self.children_left[node]), idx[go_left]))
            stack.append((int(self.children_right[node]), idx[~go_left]))
        return out

    def predict_binned(self, Xb: np.ndarray) -> np.ndarray:
        """Evaluate the tree on pre-binned uint8 rows (training fast path)."""
        out = np.empty(Xb.shape[0])
        stack = [(0, np.arange(Xb.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if self.is_leaf(node):
                out[idx] = self.values[node]
                continue
            col = Xb[idx, self.feature[node]]
            missing = col == MISSING_BIN
            go_left = (col <= self.threshold_bin[node]) & ~missing
            if self.default_left[node]:
                go_left |= missing
            stack.append((int(self.children_left[node]), idx[go_left]))
            stack.append((int(self.children_right[node]), idx[~go_left]))
        return out

    def feature_gains(self, n_features: int) -> np.ndarray:
        """Total split gain credited to each feature (negatives clipped)."""
        internal = self.children_left >= 0
        if not internal.any():
            return np.zeros(n_features)
        return np.bincount(
            self.feature[internal],
            weights=np.maximum(self.gain[internal], 0.0),
            minlength=n_features,
        )


@dataclass(eq=False)
class FlatEnsemble:
    """All trees of an ensemble concatenated into parallel node arrays.

    ``children_left``/``children_right`` hold *global* node ids (leaves
    stay ``-1``); ``roots[t]`` is tree ``t``'s root id and ``offsets`` the
    node-range boundaries.  One set of arrays means batched inference can
    route every (row, tree) pair simultaneously instead of looping over
    ``RegressionTree`` objects, and TreeSHAP can walk any tree without
    per-tree reconstruction.
    """

    feature: np.ndarray
    threshold: np.ndarray
    threshold_bin: np.ndarray
    children_left: np.ndarray
    children_right: np.ndarray
    default_left: np.ndarray
    values: np.ndarray
    cover: np.ndarray
    gain: np.ndarray
    roots: np.ndarray
    offsets: np.ndarray
    #: Split table compiled on first binned use, and the binner bound by
    #: :meth:`bind_binner` with its binner-code -> threshold-code tables.
    _table: "_SplitTable | None" = None
    _bound_binner: "HistogramBinner | None" = None
    _bin_lut: np.ndarray | None = None

    @classmethod
    def from_trees(cls, trees: list[RegressionTree]) -> "FlatEnsemble":
        """Concatenate per-tree arrays, re-basing child ids to global ids."""
        sizes = np.array([t.n_nodes for t in trees], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)

        def _cat(name: str, dtype, empty_dtype) -> np.ndarray:
            if not trees:
                return np.empty(0, dtype=empty_dtype)
            return np.concatenate([getattr(t, name) for t in trees]).astype(dtype)

        children_left = [
            np.where(t.children_left >= 0, t.children_left.astype(np.int64) + off, -1)
            for t, off in zip(trees, offsets[:-1])
        ]
        children_right = [
            np.where(t.children_right >= 0, t.children_right.astype(np.int64) + off, -1)
            for t, off in zip(trees, offsets[:-1])
        ]
        return cls(
            feature=_cat("feature", np.int64, np.int64),
            threshold=_cat("threshold", np.float64, np.float64),
            threshold_bin=_cat("threshold_bin", np.int64, np.int64),
            children_left=(
                np.concatenate(children_left) if trees else np.empty(0, np.int64)
            ),
            children_right=(
                np.concatenate(children_right) if trees else np.empty(0, np.int64)
            ),
            default_left=_cat("default_left", bool, bool),
            values=_cat("values", np.float64, np.float64),
            cover=_cat("cover", np.float64, np.float64),
            gain=_cat("gain", np.float64, np.float64),
            roots=offsets[:-1].copy(),
            offsets=offsets,
        )

    #: (name, dtype) of every array :meth:`export_arrays` emits, in order.
    EXPORT_FIELDS = (
        ("feature", np.int64),
        ("threshold", np.float64),
        ("threshold_bin", np.int64),
        ("children_left", np.int64),
        ("children_right", np.int64),
        ("default_left", bool),
        ("values", np.float64),
        ("cover", np.float64),
        ("gain", np.float64),
        ("roots", np.int64),
        ("offsets", np.int64),
    )

    def export_arrays(self) -> dict[str, np.ndarray]:
        """The concatenated node arrays as a plain name->array dict.

        Everything inference, TreeSHAP, and gain importances need — the
        pickle-free payload :func:`repro.serve.artifacts` writes to disk.
        :meth:`from_arrays` reconstructs an ensemble whose traversals are
        bitwise identical to this one's.
        """
        return {name: getattr(self, name) for name, _ in self.EXPORT_FIELDS}

    @classmethod
    def from_arrays(cls, arrays: dict) -> "FlatEnsemble":
        """Rebuild an ensemble from :meth:`export_arrays` output.

        Validates structural sanity (array lengths, child ids in range,
        node ranges partitioned by ``offsets``) so malformed or truncated
        artifacts fail loudly instead of mis-routing traversals.
        """
        fields = {
            name: np.ascontiguousarray(np.asarray(arrays[name]), dtype=dtype)
            for name, dtype in cls.EXPORT_FIELDS
        }
        n_nodes = fields["feature"].size
        per_node = (
            "feature", "threshold", "threshold_bin", "children_left",
            "children_right", "default_left", "values", "cover", "gain",
        )
        for name in per_node:
            if fields[name].ndim != 1 or fields[name].size != n_nodes:
                raise ValueError(
                    f"ensemble array {name!r} must be 1-D with {n_nodes} "
                    f"nodes, got shape {fields[name].shape}"
                )
        offsets = fields["offsets"]
        roots = fields["roots"]
        if offsets.size != roots.size + 1:
            raise ValueError("offsets must have one more entry than roots")
        if offsets.size == 0 or offsets[0] != 0 or offsets[-1] != n_nodes:
            raise ValueError("offsets must run from 0 to n_nodes")
        if (np.diff(offsets) <= 0).any():
            raise ValueError("offsets must be strictly increasing (no empty trees)")
        if not np.array_equal(roots, offsets[:-1]):
            raise ValueError("roots must equal offsets[:-1]")
        if (
            (fields["children_left"] >= 0) != (fields["children_right"] >= 0)
        ).any():
            raise ValueError("children_left/children_right leaf markers disagree")
        for side in ("children_left", "children_right"):
            child = fields[side]
            if child.max(initial=-1) >= n_nodes:
                raise ValueError(f"{side} contains out-of-range node ids")
        return cls(**fields)

    def to_trees(self) -> list[RegressionTree]:
        """Split the concatenated arrays back into per-tree objects.

        Child ids are re-localized to each tree's node range (leaves stay
        ``-1``); ``FlatEnsemble.from_trees(ensemble.to_trees())`` rebuilds
        these exact arrays, which is how artifact loading restores the
        classifier's per-tree view without pickling.
        """
        trees = []
        for t in range(self.n_trees):
            lo, hi = int(self.offsets[t]), int(self.offsets[t + 1])
            left = self.children_left[lo:hi]
            right = self.children_right[lo:hi]
            trees.append(
                RegressionTree(
                    feature=self.feature[lo:hi].astype(np.int32),
                    threshold=self.threshold[lo:hi].copy(),
                    threshold_bin=self.threshold_bin[lo:hi].astype(np.int32),
                    children_left=np.where(left >= 0, left - lo, -1).astype(np.int32),
                    children_right=np.where(right >= 0, right - lo, -1).astype(np.int32),
                    default_left=self.default_left[lo:hi].copy(),
                    values=self.values[lo:hi].copy(),
                    cover=self.cover[lo:hi].copy(),
                    gain=self.gain[lo:hi].copy(),
                )
            )
        return trees

    @property
    def n_trees(self) -> int:
        return int(self.roots.size)

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)

    def _leaves_block(self, X: np.ndarray) -> np.ndarray:
        """Global leaf id reached by every (row, tree) pair of a block."""
        m = X.shape[0]
        cur = np.broadcast_to(self.roots, (m, self.n_trees)).copy()
        rows = np.arange(m)[:, None]
        # Frontier traversal: every iteration advances all still-internal
        # (row, tree) pairs one level; at most max-tree-depth iterations.
        for _ in range(self.n_nodes + 1):
            left = self.children_left[cur]
            internal = left >= 0
            if not internal.any():
                return cur
            feat = np.where(internal, self.feature[cur], 0)
            col = X[rows, feat]
            missing = ~np.isfinite(col)
            go_left = ((col <= self.threshold[cur]) & ~missing) | (
                self.default_left[cur] & missing
            )
            nxt = np.where(go_left, left, self.children_right[cur])
            cur = np.where(internal, nxt, cur)
        raise RuntimeError("malformed ensemble: traversal did not terminate")

    def predict_leaves(self, X: np.ndarray) -> np.ndarray:
        """(n, n_trees) global leaf ids for raw float rows (NaN = missing)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        n = X.shape[0]
        if self.n_trees == 0:
            return np.empty((n, 0), dtype=np.int64)
        out = np.empty((n, self.n_trees), dtype=np.int64)
        step = max(1, _TRAVERSAL_BLOCK_ELEMENTS // max(self.n_trees, 1))
        for start in range(0, n, step):
            out[start : start + step] = self._leaves_block(X[start : start + step])
        return out

    # -- binned inference ---------------------------------------------------

    def _split_table(self) -> "_SplitTable":
        """The ensemble's compiled split table (built on first use)."""
        if self._table is None:
            self._table = _SplitTable(self)
        return self._table

    @property
    def split_features(self) -> np.ndarray:
        """Ascending ids of the features some node splits on.

        Column ``j`` of :meth:`threshold_codes` holds feature
        ``split_features[j]``.
        """
        return self._split_table().features

    def threshold_codes(self, X: np.ndarray) -> np.ndarray:
        """``(n, len(split_features))`` uint8 threshold codes of float rows.

        The code of ``x`` for a used feature is the count of that
        feature's distinct node thresholds strictly below ``x``
        (``searchsorted`` ``left``); non-finite values map to
        :data:`MISSING_BIN`, as the float path sends them to the default
        direction.  Features no node splits on are never read.
        """
        table = self._split_table()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if table.features.size and X.shape[1] <= table.features[-1]:
            raise ValueError(
                f"X has {X.shape[1]} columns but the ensemble splits on "
                f"feature {int(table.features[-1])}"
            )
        return _count_below(X, table.features, table.thresholds)

    def bind_binner(self, binner: "HistogramBinner") -> None:
        """Map a fitted binner's uint8 codes onto the threshold codes.

        Checks that every split threshold ``t`` of feature ``f`` is one
        of the binner's cut values ``cuts_f[k]`` — raising ``ValueError``
        otherwise (the ensemble was not trained against this binner, and
        routing its codes could silently diverge) — then builds one
        256-entry lookup table per used feature: binner code ``b`` means
        ``cuts_f[b-1] < x <= cuts_f[b]``, so threshold ``cuts_f[k]`` lies
        strictly below ``x`` exactly when ``k < b``, and the threshold
        code of ``b`` is the count of the feature's threshold cut
        indices below ``b`` (:data:`MISSING_BIN` maps to itself).
        Pre-binned rows then walk the same split table (and route words,
        see :class:`_SplitTable`) as float rows.
        """
        if binner.split_values_ is None:
            raise RuntimeError("binner is not fitted")
        table = self._split_table()
        d = len(binner.split_values_)
        if table.features.size and table.features[-1] >= d:
            raise ValueError(
                f"the ensemble splits on feature {int(table.features[-1])} but "
                f"the binner has {d}; bind the binner the ensemble was trained with"
            )
        lut = np.empty((table.features.size, MISSING_BIN + 1), dtype=np.uint8)
        all_codes = np.arange(MISSING_BIN + 1)
        for j, (f, thresholds) in enumerate(zip(table.features, table.thresholds)):
            cuts = binner.split_values_[int(f)]
            if cuts.size == 0:
                raise ValueError(
                    f"feature {int(f)} has splits but the binner has no cuts "
                    "for it; bind the binner the ensemble was trained with"
                )
            k = np.searchsorted(cuts, thresholds, side="left")
            bad = (k >= cuts.size) | (cuts[np.minimum(k, cuts.size - 1)] != thresholds)
            if bad.any():
                raise ValueError(
                    f"feature {int(f)}: {int(bad.sum())} split threshold(s) "
                    "are not cut values of this binner; bind the binner the "
                    "ensemble was trained with"
                )
            lut[j] = np.searchsorted(k, all_codes, side="left")
        lut[:, MISSING_BIN] = MISSING_BIN
        self._bound_binner = binner
        self._bin_lut = lut

    def _leaves_block_binned(self, Xb2: np.ndarray) -> np.ndarray:
        """Leaf ids for one block of doubled threshold-code rows.

        ``Xb2`` is a row block of the doubled code matrix (threshold
        codes beside the pre-incremented copy).  Per level: one
        route-word gather, one uint8 code gather, one comparison, one
        child-step add.  When the live fraction of (row, tree) pairs
        drops below :data:`_COMPACTION_THRESHOLD`, the frontier is
        compacted so deeper levels only touch still-routing pairs.
        """
        m = Xb2.shape[0]
        T = self.n_trees
        d2 = Xb2.shape[1]
        codes = Xb2.reshape(-1)
        table = self._split_table()
        route = table.route
        out = np.empty(m * T, dtype=np.int64)
        pos = None  # frontier is dense until first compaction
        cur = np.tile(self.roots, m)
        base = np.repeat(np.arange(m, dtype=np.int64) * d2, T)
        for _ in range(table.max_depth):
            w = route[cur]
            live = w != 0
            n_live = int(np.count_nonzero(live))
            if n_live == 0:
                break
            if n_live < _COMPACTION_THRESHOLD * cur.size:
                done = ~live
                if pos is None:
                    out[done.nonzero()[0]] = cur[done]
                    pos = live.nonzero()[0]
                else:
                    out[pos[done]] = cur[done]
                    pos = pos[live]
                cur = cur[live]
                base = base[live]
                w = w[live]
            col = codes[base + ((w >> 9) & 0x1FFFF)]
            go_left = col < (w & 0x1FF)
            cur = cur + np.where(go_left, 1, w >> 26)
        if pos is None:
            return cur.reshape(m, T)
        out[pos] = cur
        return out.reshape(m, T)

    def _leaves_steps(self, codes: np.ndarray):
        """Yield ``(rows, leaf ids)`` for each traversal step of a code matrix.

        Only one step of ``(rows, n_trees)`` leaf ids, and of the doubled
        code matrix, exists at a time.
        """
        step = max(1, _TRAVERSAL_BLOCK_ELEMENTS // max(self.n_trees, 1))
        for start in range(0, codes.shape[0], step):
            block = codes[start : start + step]
            # Doubled code rows: columns n_used.. hold codes + 1 (uint8
            # wrap), the missing-goes-left view (MISSING_BIN wraps to 0 =
            # "below every threshold").
            doubled = np.concatenate([block, block + np.uint8(1)], axis=1)
            yield slice(start, start + step), self._leaves_block_binned(doubled)

    def _binned_codes(self, Xb: np.ndarray) -> np.ndarray:
        """Threshold codes of pre-binned uint8 rows (see :meth:`bind_binner`)."""
        if self._bin_lut is None:
            raise RuntimeError("no binner bound; call bind_binner() first")
        Xb = np.asarray(Xb)
        if Xb.dtype != np.uint8 or Xb.ndim != 2:
            raise ValueError("Xb must be a 2-D uint8 bin-code matrix")
        d = len(self._bound_binner.split_values_)
        if Xb.shape[1] != d:
            raise ValueError(f"Xb must have {d} columns, got {Xb.shape[1]}")
        features = self._split_table().features
        codes = np.empty((features.size, Xb.shape[0]), dtype=np.uint8)
        for code, lut, col in zip(codes, self._bin_lut, Xb.T[features]):
            np.take(lut, col, out=code)
        return codes.T

    def predict_leaves_binned(self, Xb: np.ndarray) -> np.ndarray:
        """(n, n_trees) global leaf ids for pre-binned uint8 rows.

        Requires :meth:`bind_binner` first; ``Xb`` must be codes produced
        by the bound binner's :meth:`HistogramBinner.transform`.
        """
        codes = self._binned_codes(Xb)
        out = np.empty((codes.shape[0], self.n_trees), dtype=np.int64)
        for rows, leaves in self._leaves_steps(codes):
            out[rows] = leaves
        return out

    def predict_margin_codes(
        self, codes: np.ndarray, base_margin: float = 0.0
    ) -> np.ndarray:
        """Additive score per row of a :meth:`threshold_codes` matrix.

        Leaf values are added tree by tree, in ensemble order, inside
        each traversal step, so memory stays bounded by the step.
        """
        codes = np.asarray(codes)
        if codes.dtype != np.uint8 or codes.shape[1:] != self.split_features.shape:
            raise ValueError(
                f"codes must be (n, {self.split_features.size}) uint8 "
                f"threshold codes, got {codes.dtype} {codes.shape}"
            )
        margin = np.full(codes.shape[0], float(base_margin))
        for rows, leaves in self._leaves_steps(codes):
            block = margin[rows]
            for t in range(self.n_trees):
                block += self.values[leaves[:, t]]
        return margin

    def predict_margin(
        self,
        X: np.ndarray,
        base_margin: float = 0.0,
        *,
        binned: bool = False,
        binner: "HistogramBinner | None" = None,
    ) -> np.ndarray:
        """Additive ensemble score per row via one batched traversal.

        With ``binned=True`` the rows walk the ensemble's split table
        (see the module docstring): float ``X`` is coded against the
        node thresholds directly (:meth:`threshold_codes`), and uint8
        ``X`` — codes from the training binner's ``transform`` — goes
        through the lookup tables of ``binner`` (or one previously bound
        with :meth:`bind_binner`).  Both paths accumulate leaf values
        tree-by-tree (vectorized over rows), so results are bitwise
        identical to each other and to summing per-tree predictions in
        ensemble order.
        """
        if not binned:
            return self._sum_leaves(self.predict_leaves(X), base_margin)
        if binner is not None and binner is not self._bound_binner:
            self.bind_binner(binner)
        X = np.asarray(X)
        codes = (
            self._binned_codes(X) if X.dtype == np.uint8 else self.threshold_codes(X)
        )
        return self.predict_margin_codes(codes, base_margin)

    def _sum_leaves(self, leaves: np.ndarray, base_margin: float) -> np.ndarray:
        """``base_margin`` plus each row's leaf values, in ensemble order."""
        margin = np.full(leaves.shape[0], float(base_margin))
        for t in range(self.n_trees):
            margin += self.values[leaves[:, t]]
        return margin

    def feature_gains(self, n_features: int) -> np.ndarray:
        """Total split gain per feature across all trees (negatives clipped)."""
        internal = self.children_left >= 0
        if not internal.any():
            return np.zeros(n_features)
        return np.bincount(
            self.feature[internal],
            weights=np.maximum(self.gain[internal], 0.0),
            minlength=n_features,
        )

    def expected_values(self) -> np.ndarray:
        """Cover-weighted mean leaf value of each tree.

        One reverse scan over the concatenated arrays: nodes are stored in
        preorder, so every child index exceeds its parent's and a single
        backwards pass folds leaf values up to the roots.
        """
        E = self.values.astype(np.float64).copy()
        left, right, cover = self.children_left, self.children_right, self.cover
        for i in range(self.n_nodes - 1, -1, -1):
            l = left[i]
            if l >= 0:
                r = right[i]
                c = cover[i]
                if c <= 0:
                    E[i] = 0.5 * (E[l] + E[r])
                else:
                    E[i] = (cover[l] * E[l] + cover[r] * E[r]) / c
        return E[self.roots]


class _SplitTable:
    """An ensemble compiled into its own split space.

    ``features`` holds the ids of the features some node splits on
    (ascending) and ``thresholds[j]`` the sorted distinct thresholds of
    ``features[j]``; a node splitting feature ``features[j]`` at
    ``thresholds[j][k]`` sends ``x`` left exactly when its threshold code
    (:meth:`FlatEnsemble.threshold_codes`) is at most ``k``.  Each node
    compiles into one packed int64 *route word*:

    ==========  ===========================================================
    Bits        Field
    ==========  ===========================================================
    0..8        strict comparison bound ``k + 1 + default_left``
                (``go left ⇔ code' < bound``)
    9..25       column in the doubled code matrix — ``j`` for
                missing-goes-right nodes, ``j + n_used`` (the
                pre-incremented copy, uint8 wraparound sending
                :data:`MISSING_BIN` to 0) for missing-goes-left nodes
    26..62      offset from the node to its right child
    ==========  ===========================================================

    Leaves are the all-zero word: their comparison ``code' < 0`` is
    always false and their right-child offset is 0, so finished
    (row, tree) pairs self-loop with no masking.  (The zero word is
    unambiguous — an internal node's right child is at least two nodes
    away, so its route word is nonzero.)  ``max_depth`` is the deepest
    root-to-leaf path, which bounds the walk.
    """

    __slots__ = ("features", "thresholds", "route", "max_depth")

    def __init__(self, ens: "FlatEnsemble"):
        nodes = np.flatnonzero(ens.children_left >= 0)
        node_thresholds = ens.threshold[nodes]
        if np.isnan(node_thresholds).any():
            raise ValueError("malformed ensemble: an internal node has a NaN threshold")
        self.features, slot = np.unique(ens.feature[nodes], return_inverse=True)
        slot = slot.reshape(-1).astype(np.int64)
        n_used = self.features.size
        if n_used > (1 << 16):
            raise ValueError(
                f"threshold routing supports at most 65536 split features, got {n_used}"
            )
        self.thresholds = []
        index = np.empty(nodes.size, dtype=np.int64)
        for j in range(n_used):
            sel = slot == j
            thresholds = np.unique(node_thresholds[sel])
            if thresholds.size > MISSING_BIN - 1:
                raise ValueError(
                    f"feature {int(self.features[j])} has {thresholds.size} "
                    f"distinct split thresholds; at most {MISSING_BIN - 1} "
                    "fit a uint8 threshold code"
                )
            index[sel] = np.searchsorted(thresholds, node_thresholds[sel])
            self.thresholds.append(thresholds)
        default_left = ens.default_left[nodes].astype(np.int64)
        bound = index + 1 + default_left
        column = slot + default_left * n_used
        rdelta = ens.children_right[nodes] - nodes
        self.route = np.zeros(ens.n_nodes, dtype=np.int64)
        self.route[nodes] = bound | (column << 9) | (rdelta << 26)

        depth = 0
        left, right = ens.children_left, ens.children_right
        frontier = ens.roots[left[ens.roots] >= 0]
        while frontier.size:
            depth += 1
            children = np.concatenate([left[frontier], right[frontier]])
            frontier = children[left[children] >= 0]
        self.max_depth = depth


def _leaf_weight(g: float, h: float, params: TreeGrowthParams) -> float:
    """Optimal leaf weight with L1 soft-thresholding and L2 shrinkage."""
    if params.reg_alpha > 0:
        if g > params.reg_alpha:
            g = g - params.reg_alpha
        elif g < -params.reg_alpha:
            g = g + params.reg_alpha
        else:
            g = 0.0
    return -g / (h + params.reg_lambda)


def _score(g: np.ndarray, h: np.ndarray, params: TreeGrowthParams) -> np.ndarray:
    """Structure-score term G^2 / (H + lambda), vectorized, alpha-aware."""
    g = np.asarray(g, dtype=np.float64)
    if params.reg_alpha > 0:
        g = np.sign(g) * np.maximum(0.0, np.abs(g) - params.reg_alpha)
    return g * g / (h + params.reg_lambda)


def _subtract_hists(
    parent: tuple[np.ndarray, np.ndarray, np.ndarray],
    child: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sibling histogram as parent minus child, with empty bins made exact.

    Counts subtract exactly; gradient/hessian bins can retain float
    residues from earlier derivations.  A derived count of zero means the
    true mass is exactly zero, so those bins are cleared — this keeps the
    seed's tie-breaking (empty value bins, features with no missing rows)
    bit-stable under repeated subtraction.
    """
    g = parent[0] - child[0]
    h = parent[1] - child[1]
    n = parent[2] - child[2]
    empty = n == 0
    if empty.any():
        g[empty] = 0.0
        h[empty] = 0.0
    return g, h, n


class _WidthGroup:
    """Active feature slots whose split candidates share one padded block.

    ``bins[i, b]`` is the position of value bin ``b`` of slot
    ``slots[i]`` in the compact histogram, or the layout's always-empty
    pad position for ``b >= n_bins``; ``missing[i]`` is the slot's
    missing bin.  ``split_valid[i, b]`` marks real candidates
    (``b <= n_bins - 2``).
    """

    __slots__ = ("slots", "bins", "missing", "split_valid")

    def __init__(self, slots, nbins, offset, pad):
        width = int(nbins[slots].max())
        b = np.arange(width)
        real = b[None, :] < nbins[slots][:, None]
        self.slots = slots
        self.bins = np.where(real, offset[slots][:, None] + b[None, :], pad)
        self.missing = offset[slots] + nbins[slots]
        self.split_valid = real[:, 1:]


class _HistLayout:
    """Compact fused-histogram layout of one active feature set.

    Slot ``s`` owns ``nbins[s] + 1`` consecutive positions from
    ``offset[s]``: its value bins, then its missing bin.  One trailing
    position (``size - 1``) never receives a row; width groups pad with
    it, so padded bins read exact zeros and a slot's cumulative sums
    stay at its total past its last bin.  Splittable slots (two or more
    bins) are partitioned into width groups by :func:`_width_runs`.
    """

    __slots__ = ("nbins", "offset", "size", "groups")

    def __init__(self, nbins: np.ndarray):
        nbins = np.asarray(nbins, dtype=np.int64)
        self.nbins = nbins
        ends = np.cumsum(nbins + 1)
        self.offset = ends - (nbins + 1)
        pad = int(ends[-1]) if ends.size else 0
        self.size = pad + 1
        splittable = np.flatnonzero(nbins >= 2)
        self.groups = [
            _WidthGroup(
                splittable[(nbins[splittable] >= lo) & (nbins[splittable] <= hi)],
                nbins,
                self.offset,
                pad,
            )
            for lo, hi in _width_runs(nbins[splittable])
        ]

    def offset_codes(self, codes: np.ndarray) -> np.ndarray:
        """Histogram positions of a ``(rows, F)`` uint8 code block.

        Value codes are below ``nbins`` (``HistogramBinner`` guarantees
        it; pre-binned input is checked at fit time), so clamping at
        ``nbins`` moves exactly :data:`MISSING_BIN` onto each slot's
        missing position.
        """
        out = codes.astype(np.int64)
        np.minimum(out, self.nbins, out=out)
        out += self.offset
        return out


#: Split-search cost of one extra width group, in (slot, candidate bin)
#: cells: a group's fixed NumPy call overhead costs about as much as
#: evaluating this many padded cells.  Only speed depends on it.
_GROUP_OVERHEAD_CELLS = 1024


def _width_runs(widths: np.ndarray) -> list[tuple[int, int]]:
    """Partition bin widths into ``(lo, hi)`` runs that pad cheaply.

    Every slot of a run is padded to the run's widest ``hi``, so a run
    costs ``_GROUP_OVERHEAD_CELLS + n_slots * (hi - 1)``; a dynamic
    program over the sorted distinct widths picks the cheapest cover.
    On the Table-4 matrix that separates the one-hot/binary columns
    from the few wide continuous ones.
    """
    distinct, counts = np.unique(widths, return_counts=True)
    k = distinct.size
    below = np.concatenate([[0], np.cumsum(counts)])  # slots narrower than distinct[i]
    cost = np.zeros(k + 1)
    start = np.zeros(k + 1, dtype=np.int64)
    for j in range(1, k + 1):
        # cost[j]: cheapest cover of distinct[:j], whose last run is
        # distinct[i:j] for the best start i.
        cells = (below[j] - below[:j]) * (distinct[j - 1] - 1)
        c = cost[:j] + _GROUP_OVERHEAD_CELLS + cells
        start[j] = int(np.argmin(c))
        cost[j] = c[start[j]]
    runs = []
    j = k
    while j > 0:
        i = int(start[j])
        runs.append((int(distinct[i]), int(distinct[j - 1])))
        j = i
    return runs[::-1]


class _TreeBuilder:
    """Grows one tree depth-first on binned data with g/h targets.

    Each node's split search uses the compact fused histogram and
    per-width-group selection described in the module docstring; child
    histograms reuse the parent's via sibling subtraction unless
    ``sibling_subtraction=False`` (the bitwise-exact mode the equivalence
    tests exercise).
    """

    def __init__(
        self,
        Xb: np.ndarray,
        binner: HistogramBinner,
        grad: np.ndarray,
        hess: np.ndarray,
        params: TreeGrowthParams,
        feature_indices: np.ndarray,
        sibling_subtraction: bool = True,
        train_pred_out: np.ndarray | None = None,
        fit_cache: dict | None = None,
    ):
        self.Xb = Xb
        self.binner = binner
        self.grad = grad
        self.hess = hess
        self.params = params
        self.sibling_subtraction = sibling_subtraction
        self.train_pred = train_pred_out
        self.fit_cache = fit_cache
        self.nodes: list[dict] = []

        active = np.asarray(feature_indices, dtype=np.int64)
        self.active = active
        self.n_active = int(active.size)
        self.full_cols = self.n_active == Xb.shape[1] and np.array_equal(
            active, np.arange(Xb.shape[1])
        )
        cache = {} if fit_cache is None else fit_cache
        if "nbins" not in cache:
            cache["nbins"] = np.array(
                [binner.n_bins(f) for f in range(Xb.shape[1])], dtype=np.int64
            )
        if self.full_cols:
            if "layout" not in cache:
                cache["layout"] = _HistLayout(cache["nbins"])
            self.layout = cache["layout"]
        else:
            self.layout = _HistLayout(cache["nbins"][active])

    def build(self, row_indices: np.ndarray) -> RegressionTree:
        # Work in positional row space over a compact (rows, active-cols)
        # gather: subsampled rows and inactive columns are copied exactly
        # once (never, when training uses every row and column), and all
        # per-node gathers hit the small contiguous submatrix.
        rows = np.asarray(row_indices)
        Xb = self.Xb
        full_rows = rows.size == Xb.shape[0] and np.array_equal(
            rows, np.arange(Xb.shape[0])
        )
        if full_rows and self.full_cols:
            self.rows = None
            self.Xs = Xb
            self.g = self.grad
            self.h = self.hess
        elif full_rows:
            self.rows = None
            self.Xs = np.ascontiguousarray(Xb[:, self.active])
            self.g = self.grad
            self.h = self.hess
        else:
            self.rows = rows
            self.Xs = Xb[np.ix_(rows, self.active)]
            self.g = self.grad[rows]
            self.h = self.hess[rows]
        # Offset-code matrix: every code already at its histogram
        # position, so node histograms skip the per-node remap.  Bounded
        # by _OFFSET_CODES_MAX_ELEMENTS; reused across trees (via
        # fit_cache) when every tree sees the full matrix.
        self.Xcodes: np.ndarray | None = None
        if self.Xs.size <= _OFFSET_CODES_MAX_ELEMENTS and self.n_active:
            cacheable = full_rows and self.full_cols and self.fit_cache is not None
            if cacheable and "codes" in self.fit_cache:
                self.Xcodes = self.fit_cache["codes"]
            else:
                self.Xcodes = self.layout.offset_codes(self.Xs)
                if cacheable:
                    self.fit_cache["codes"] = self.Xcodes
        self._grow(np.arange(rows.size), depth=0, hists=None)
        return self._to_arrays()

    def _new_node(self) -> int:
        self.nodes.append(
            {
                "feature": -1,
                "threshold": np.nan,
                "threshold_bin": -1,
                "left": -1,
                "right": -1,
                "default_left": True,
                "value": 0.0,
                "cover": 0.0,
                "gain": 0.0,
            }
        )
        return len(self.nodes) - 1

    # -- histograms --------------------------------------------------------

    def _node_hists(
        self, idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fused (g, h, count) histograms for all active features at once.

        Codes sit at their compact-layout positions; the ``(rows, F)``
        code matrix is C-contiguous so its row-major ravel is a free
        view, and per-row weights are repeated across the feature axis.
        For any (feature, bin) pair the weights still accumulate in
        ascending row order, so each per-feature histogram is bitwise
        identical to a per-feature ``bincount`` loop.

        In production mode, nodes above ~4M (row, feature) pairs are
        processed in row blocks to bound the materialized code/weight
        arrays; block accumulation can regroup float additions by ulps.
        Exact mode (``sibling_subtraction=False``) never blocks — its
        unconditional bitwise contract with the seed kernels outranks the
        memory cap — so it materializes the full node at any size.
        """
        F = self.n_active
        size = self.layout.size
        m = idx.size

        def _flat_codes(part: np.ndarray) -> np.ndarray:
            if self.Xcodes is not None:
                if part.size == self.Xcodes.shape[0]:
                    return self.Xcodes.reshape(-1)  # root: free view, no gather
                return self.Xcodes[part].reshape(-1)
            return self.layout.offset_codes(self.Xs[part]).ravel()

        step = max(1, _BLOCK_ELEMENTS // max(F, 1))
        if m <= step or not self.sibling_subtraction:
            flat = _flat_codes(idx)
            g_hist = np.bincount(flat, weights=np.repeat(self.g[idx], F), minlength=size)
            h_hist = np.bincount(flat, weights=np.repeat(self.h[idx], F), minlength=size)
            n_hist = np.bincount(flat, minlength=size)
        else:
            g_hist = np.zeros(size)
            h_hist = np.zeros(size)
            n_hist = np.zeros(size, dtype=np.int64)
            for start in range(0, m, step):
                part = idx[start : start + step]
                flat = _flat_codes(part)
                g_hist += np.bincount(
                    flat, weights=np.repeat(self.g[part], F), minlength=size
                )
                h_hist += np.bincount(
                    flat, weights=np.repeat(self.h[part], F), minlength=size
                )
                n_hist += np.bincount(flat, minlength=size)
        return g_hist, h_hist, n_hist

    # -- growth ------------------------------------------------------------

    def _leafify(self, record: dict, idx: np.ndarray, g_sum: float, h_sum: float) -> None:
        record["value"] = _leaf_weight(g_sum, h_sum, self.params)
        if self.train_pred is not None:
            out_rows = idx if self.rows is None else self.rows[idx]
            self.train_pred[out_rows] = record["value"]

    def _grow(
        self,
        idx: np.ndarray,
        depth: int,
        hists: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
    ) -> int:
        node = self._new_node()
        g_sum = float(self.g[idx].sum())
        h_sum = float(self.h[idx].sum())
        record = self.nodes[node]
        record["cover"] = h_sum
        params = self.params
        if (
            depth >= params.max_depth
            or idx.size < 2 * params.min_samples_leaf
            or h_sum < 2 * params.min_child_weight
        ):
            self._leafify(record, idx, g_sum, h_sum)
            return node
        if hists is None:
            hists = self._node_hists(idx)
        best = self._best_split(idx, g_sum, h_sum, hists)
        if best is None:
            self._leafify(record, idx, g_sum, h_sum)
            return node
        f_slot, bin_idx, default_left, gain = best
        feat = int(self.active[f_slot])
        col = self.Xs[idx, f_slot]
        missing = col == MISSING_BIN
        go_left = (col <= bin_idx) & ~missing
        if default_left:
            go_left |= missing
        left_idx, right_idx = idx[go_left], idx[~go_left]
        record["feature"] = feat
        record["threshold"] = self.binner.threshold_value(feat, bin_idx)
        record["threshold_bin"] = int(bin_idx)
        record["default_left"] = bool(default_left)
        record["gain"] = float(gain)

        left_hists = right_hists = None
        if self.sibling_subtraction:
            # Histogram only the smaller child; the sibling's histogram is
            # the parent's minus it.  Skip both when neither child can
            # split again (depth or min-leaf-size limits).
            splittable = depth + 1 < params.max_depth
            need_left = splittable and left_idx.size >= 2 * params.min_samples_leaf
            need_right = splittable and right_idx.size >= 2 * params.min_samples_leaf
            if need_left or need_right:
                if left_idx.size <= right_idx.size:
                    small = self._node_hists(left_idx)
                    left_hists = small
                    right_hists = _subtract_hists(hists, small)
                else:
                    small = self._node_hists(right_idx)
                    right_hists = small
                    left_hists = _subtract_hists(hists, small)
        del hists
        record["left"] = self._grow(left_idx, depth + 1, left_hists)
        record["right"] = self._grow(right_idx, depth + 1, right_hists)
        return node

    # -- split search ------------------------------------------------------

    def _best_split(
        self,
        idx: np.ndarray,
        g_sum: float,
        h_sum: float,
        hists: tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> tuple[int, int, bool, float] | None:
        params = self.params
        g_hist, h_hist, n_hist = hists
        parent_score = float(_score(np.array([g_sum]), np.array([h_sum]), params)[0])
        best = None
        for grp in self.layout.groups:
            # Left-accumulated stats for every candidate bin of the group.
            cg = np.cumsum(g_hist[grp.bins], axis=1)[:, :-1]
            ch = np.cumsum(h_hist[grp.bins], axis=1)[:, :-1]
            cn = np.cumsum(n_hist[grp.bins], axis=1)[:, :-1]
            g_miss = g_hist[grp.missing]
            h_miss = h_hist[grp.missing]
            n_miss = n_hist[grp.missing]
            # Axis 1 is the missing-value direction: 0 = missing right
            # (the seed's first pass), 1 = missing left.  When every
            # missing bin of the group is exactly empty, direction 1
            # equals direction 0 element for element and the first-maximum
            # argmax never picks it, so only direction 0 is searched.  A
            # derived histogram can hold n == 0 beside a g/h residue, so
            # all three are tested.
            has_missing = n_miss.any() or g_miss.any() or h_miss.any()
            shape = (cg.shape[0], 2 if has_missing else 1, cg.shape[1])
            gl = np.empty(shape)
            hl = np.empty(shape)
            nl = np.empty(shape, dtype=np.int64)
            gl[:, 0, :] = cg + 0.0
            hl[:, 0, :] = ch + 0.0
            nl[:, 0, :] = cn
            if has_missing:
                gl[:, 1, :] = cg + g_miss[:, None]
                hl[:, 1, :] = ch + h_miss[:, None]
                nl[:, 1, :] = cn + n_miss[:, None]
            gr = g_sum - gl
            hr = h_sum - hl
            nr = idx.size - nl
            valid = (
                (hl >= params.min_child_weight)
                & (hr >= params.min_child_weight)
                & (nl >= params.min_samples_leaf)
                & (nr >= params.min_samples_leaf)
                & grp.split_valid[:, None, :]
            )
            gains = (
                0.5 * (_score(gl, hl, params) + _score(gr, hr, params) - parent_score)
                - params.gamma
            )
            gains = np.where(valid, gains, -np.inf)
            flat = gains.reshape(-1)
            b = int(np.argmax(flat))
            gain = float(flat[b])
            if gain != gain:
                # argmax lands on a NaN gain (possible only with
                # reg_lambda == 0 and zero hessian mass) whenever there is
                # one.  A NaN poisons its whole (feature, direction) pass
                # in the seed's sequential argmax; replicate by
                # invalidating those passes.
                gains[np.isnan(gains).any(axis=2)] = -np.inf
                b = int(np.argmax(flat))
                gain = float(flat[b])
            f_local, rem = divmod(b, shape[1] * shape[2])
            slot = int(grp.slots[f_local])
            # The seed scans slots in order and keeps the first maximum:
            # across groups, a tie goes to the lower slot.
            if best is None or gain > best[3] or (gain == best[3] and slot < best[0]):
                direction, bin_idx = divmod(rem, shape[2])
                best = (slot, int(bin_idx), bool(direction), gain)
        if best is None or not best[3] > 0.0:
            return None
        return best

    def _to_arrays(self) -> RegressionTree:
        n = len(self.nodes)
        tree = RegressionTree(
            feature=np.array([r["feature"] for r in self.nodes], dtype=np.int32),
            threshold=np.array([r["threshold"] for r in self.nodes]),
            threshold_bin=np.array(
                [r["threshold_bin"] for r in self.nodes], dtype=np.int32
            ),
            children_left=np.array([r["left"] for r in self.nodes], dtype=np.int32),
            children_right=np.array([r["right"] for r in self.nodes], dtype=np.int32),
            default_left=np.array([r["default_left"] for r in self.nodes], dtype=bool),
            values=np.array([r["value"] for r in self.nodes]),
            cover=np.array([r["cover"] for r in self.nodes]),
            gain=np.array([r["gain"] for r in self.nodes]),
        )
        assert tree.n_nodes == n
        return tree


def grow_tree(
    Xb: np.ndarray,
    binner: HistogramBinner,
    grad: np.ndarray,
    hess: np.ndarray,
    row_indices: np.ndarray,
    feature_indices: np.ndarray,
    params: TreeGrowthParams,
    sibling_subtraction: bool = True,
    train_pred_out: np.ndarray | None = None,
    fit_cache: dict | None = None,
) -> RegressionTree:
    """Grow a single regression tree on binned data (see module docstring).

    ``train_pred_out``, when given an ``(n,)`` float array, is filled with
    the (unshrunk) leaf value reached by every row of ``row_indices`` —
    the boosting loop reuses it to update training margins without a
    second traversal.  ``fit_cache``, when given a dict, lets repeated
    calls with the same ``Xb`` and ``binner`` share the per-feature bin
    counts, the full-column histogram layout and, over the full matrix,
    the precomputed offset-code matrix (the boosting loop passes one
    dict for the whole fit).  ``sibling_subtraction=False`` forces every
    node histogram to be computed directly from rows in a single unblocked
    pass, making the grown tree bitwise identical to the seed kernel in
    :mod:`repro.ml._reference` at any input size (at the cost of
    materializing the full node's code matrix; the default production
    mode instead blocks very large nodes, which can shift gains — and,
    at exact gain ties, split choices — by float ulps).
    """
    builder = _TreeBuilder(
        Xb,
        binner,
        grad,
        hess,
        params,
        feature_indices,
        sibling_subtraction=sibling_subtraction,
        train_pred_out=train_pred_out,
        fit_cache=fit_cache,
    )
    return builder.build(row_indices)
