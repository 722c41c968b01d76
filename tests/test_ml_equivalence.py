"""Equivalence of the vectorized GBDT kernels with the seed implementation.

The fused-histogram trainer, flat-ensemble inference, and vectorized
binner must reproduce the seed kernels (preserved in
:mod:`repro.ml._reference`) exactly:

* with sibling subtraction disabled, grown trees are **bitwise identical**
  to the seed builder's (all node arrays including gains);
* with sibling subtraction enabled, the tree structure, thresholds and
  leaf values stay identical except at *exact gain ties* — two candidate
  splits whose real-valued gains coincide — where the derived histogram's
  last-ulp rounding may legitimately select the other equally-optimal
  candidate (recorded gains may always differ in the last ulp);
* batched flat-ensemble margins equal the seed's per-tree prediction loop
  bitwise, and full training runs produce identical models;
* on mixed-cardinality matrices (binary, constant, all-missing,
  few-valued and continuous columns, the shape of the Table-4 matrix)
  the compact histogram layout grows the seed's trees whatever the
  width grouping, and an exact gain tie between width groups goes to the
  lower feature slot, as in the seed's sequential scan.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import tree as tree_mod
from repro.ml._reference import (
    grow_tree_reference,
    reference_binner_transform,
    reference_fit,
    reference_predict_margin,
)
from repro.ml.gbdt import GBDTParams, GradientBoostedClassifier
from repro.ml.tree import (
    FlatEnsemble,
    HistogramBinner,
    TreeGrowthParams,
    _TreeBuilder,
    grow_tree,
)

_STRUCTURE_FIELDS = (
    "feature",
    "threshold_bin",
    "children_left",
    "children_right",
    "default_left",
    "threshold",
    "values",
    "cover",
)


def _random_problem(seed, n=400, d=10, nan_rate=0.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if nan_rate:
        X[rng.random((n, d)) < nan_rate] = np.nan
    logit = np.nan_to_num(X[:, 0]) - 0.5 * np.nan_to_num(X[:, 1])
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
    return X, y


def _random_grad_hess(seed, n):
    rng = np.random.default_rng(seed + 1)
    p = rng.uniform(0.02, 0.98, size=n)
    y = (rng.random(n) < p).astype(float)
    return p - y, np.maximum(p * (1.0 - p), 1e-16)


def _assert_same_tree(ref, new, bitwise_gain: bool):
    for name in _STRUCTURE_FIELDS:
        a, b = getattr(ref, name), getattr(new, name)
        np.testing.assert_array_equal(a, b, err_msg=f"tree field {name!r}")
    if bitwise_gain:
        np.testing.assert_array_equal(ref.gain, new.gain, err_msg="tree gains")
    else:
        np.testing.assert_allclose(ref.gain, new.gain, rtol=1e-9, atol=1e-12)


def _assert_same_tree_or_tied(ref, new, ref_node=0, new_node=0):
    """Structural identity, except where an exact gain tie explains a fork.

    Sibling subtraction perturbs gains by ulps, so when two candidate
    splits have *exactly* equal real gains the perturbed argmax may pick
    the other equally-optimal one.  Any structural divergence must
    therefore coincide with (numerically) tied gains; matching subtrees
    must agree bitwise on everything but the gain's last ulp.
    """
    ref_leaf = ref.children_left[ref_node] < 0
    new_leaf = new.children_left[new_node] < 0
    diverged = ref_leaf != new_leaf or (
        not ref_leaf
        and (
            ref.feature[ref_node] != new.feature[new_node]
            or ref.threshold_bin[ref_node] != new.threshold_bin[new_node]
            or ref.default_left[ref_node] != new.default_left[new_node]
        )
    )
    if diverged:
        assert np.isclose(
            ref.gain[ref_node], new.gain[new_node], rtol=1e-9, atol=1e-12
        ), (
            f"structural divergence without a gain tie: ref node {ref_node} "
            f"gain {ref.gain[ref_node]!r} vs new node {new_node} gain "
            f"{new.gain[new_node]!r}"
        )
        return  # equally-optimal fork: subtrees legitimately differ
    np.testing.assert_array_equal(ref.cover[ref_node], new.cover[new_node])
    if ref_leaf:
        np.testing.assert_array_equal(ref.values[ref_node], new.values[new_node])
        return
    np.testing.assert_array_equal(ref.threshold[ref_node], new.threshold[new_node])
    _assert_same_tree_or_tied(
        ref, new, int(ref.children_left[ref_node]), int(new.children_left[new_node])
    )
    _assert_same_tree_or_tied(
        ref, new, int(ref.children_right[ref_node]), int(new.children_right[new_node])
    )


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    nan_heavy=st.booleans(),
    subset_features=st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_exact_mode_trees_bitwise_identical(seed, nan_heavy, subset_features):
    """Fused histograms + flat argmax == seed per-feature scan, bit for bit.

    Also grows the production configuration (sibling subtraction ON) on
    every example: it must match the seed node for node except where an
    exact gain tie lets it pick an equally-optimal split (hypothesis
    found such a tie at seed 186 with 50% NaN).
    """
    X, y = _random_problem(seed, n=300, d=8, nan_rate=0.5 if nan_heavy else 0.0)
    grad, hess = _random_grad_hess(seed, X.shape[0])
    binner = HistogramBinner(max_bins=16)
    Xb = binner.fit_transform(X)
    rows = np.arange(X.shape[0])
    if subset_features:
        rng = np.random.default_rng(seed + 2)
        cols = np.sort(rng.choice(X.shape[1], size=5, replace=False))
    else:
        cols = np.arange(X.shape[1])
    params = TreeGrowthParams(max_depth=5, min_samples_leaf=2)
    ref = grow_tree_reference(Xb, binner, grad, hess, rows, cols, params)
    new = grow_tree(
        Xb, binner, grad, hess, rows, cols, params, sibling_subtraction=False
    )
    _assert_same_tree(ref, new, bitwise_gain=True)
    production = grow_tree(Xb, binner, grad, hess, rows, cols, params)
    _assert_same_tree_or_tied(ref, production)


_COLUMN_KINDS = ("binary", "constant", "missing", "few", "continuous")


def _mixed_column(rng, kind, n, nan_rate):
    if kind == "binary":
        col = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(float)
    elif kind == "constant":
        col = np.full(n, float(rng.integers(-3, 4)))
    elif kind == "missing":
        return np.full(n, np.nan)
    elif kind == "few":
        col = rng.integers(0, int(rng.integers(3, 12)), n).astype(float)
    else:
        col = rng.normal(size=n)
    col[rng.random(n) < nan_rate] = np.nan
    return col


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    kinds=st.lists(st.sampled_from(_COLUMN_KINDS), min_size=2, max_size=10),
    nan_rate=st.sampled_from([0.0, 0.1, 0.5]),
    max_bins=st.sampled_from([8, 64]),
    group_overhead=st.sampled_from([0, tree_mod._GROUP_OVERHEAD_CELLS, 10**9]),
    subset=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_mixed_width_trees_bitwise_identical(
    seed, kinds, nan_rate, max_bins, group_overhead, subset
):
    """Compact per-width histograms == the seed scan on mixed columns.

    The width grouping is a speed choice only: one group per distinct
    width, the default cost model, and everything padded into one group
    must all grow the seed's tree bit for bit in exact mode (and up to
    exact gain ties with sibling subtraction).
    """
    rng = np.random.default_rng(seed)
    n = 240
    X = np.column_stack([_mixed_column(rng, k, n, nan_rate) for k in kinds])
    grad, hess = _random_grad_hess(seed, n)
    binner = HistogramBinner(max_bins=max_bins)
    Xb = binner.fit_transform(X)
    d = X.shape[1]
    rows = np.arange(n)
    cols = np.arange(d)
    if subset:
        rows = np.sort(rng.choice(n, size=170, replace=False))
        cols = np.sort(rng.choice(d, size=max(1, d - 1), replace=False))
    params = TreeGrowthParams(max_depth=4, min_samples_leaf=2)
    ref = grow_tree_reference(Xb, binner, grad, hess, rows, cols, params)
    with mock.patch.object(tree_mod, "_GROUP_OVERHEAD_CELLS", group_overhead):
        new = grow_tree(
            Xb, binner, grad, hess, rows, cols, params, sibling_subtraction=False
        )
        production = grow_tree(Xb, binner, grad, hess, rows, cols, params)
    _assert_same_tree(ref, new, bitwise_gain=True)
    _assert_same_tree_or_tied(ref, production)


def _tied_problem(binary_first: bool):
    """A binary and a 6-bin column whose best splits tie exactly.

    Both columns split the rows into the same two sets; dyadic gradients
    and hessians make every histogram sum exact, so the two gains are
    equal bit for bit and only the tie-break decides.
    """
    n = 96
    side = np.arange(n) % 2
    binary = side.astype(float)
    wide = side + np.array([0.1, 0.2, 0.3])[np.arange(n) // 2 % 3]
    X = np.column_stack([binary, wide] if binary_first else [wide, binary])
    grad = np.where(side == 1, 0.5, -0.5) + np.array([-1, 0, 1])[np.arange(n) % 3] / 16
    hess = np.full(n, 0.25)
    return X, grad, hess


@pytest.mark.parametrize("binary_first", [True, False])
@pytest.mark.parametrize("sibling_subtraction", [False, True])
def test_cross_group_gain_tie_goes_to_lower_slot(binary_first, sibling_subtraction):
    X, grad, hess = _tied_problem(binary_first)
    binner = HistogramBinner(max_bins=16)
    Xb = binner.fit_transform(X)
    assert sorted(binner.n_bins(f) for f in range(2)) == [2, 6]
    rows, cols = np.arange(X.shape[0]), np.arange(2)
    params = TreeGrowthParams(max_depth=1)
    with mock.patch.object(tree_mod, "_GROUP_OVERHEAD_CELLS", 0):
        builder = _TreeBuilder(Xb, binner, grad, hess, params, cols)
        # The binary column's group is scanned first; the tie must still
        # go to slot 0 when that is the wide column.
        assert [g.slots.tolist() for g in builder.layout.groups] == (
            [[0], [1]] if binary_first else [[1], [0]]
        )
        tree = grow_tree(
            Xb, binner, grad, hess, rows, cols, params,
            sibling_subtraction=sibling_subtraction,
        )
    ref = grow_tree_reference(Xb, binner, grad, hess, rows, cols, params)
    alone = grow_tree_reference(Xb, binner, grad, hess, rows, cols[1:], params)
    assert ref.feature[0] == 0
    assert alone.gain[0] == ref.gain[0]  # slot 1's best split ties exactly
    _assert_same_tree(ref, tree, bitwise_gain=True)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nan_gain_pass_is_skipped_like_the_seed(seed):
    """With reg_lambda = 0, rows of zero gradient and hessian make 0/0 gains.

    The seed's per-pass argmax lands on the NaN and keeps nothing from
    that (feature, direction) pass; the grouped search must do the same.
    """
    rng = np.random.default_rng(seed)
    n = 120
    X = np.column_stack(
        [
            rng.integers(0, 4, n).astype(float),
            (rng.random(n) < 0.5).astype(float),
            rng.normal(size=n),
        ]
    )
    X[rng.random(n) < 0.2, 2] = np.nan
    grad, hess = _random_grad_hess(seed, n)
    dead = X[:, 0] == 0
    grad[dead] = 0.0
    hess[dead] = 0.0
    binner = HistogramBinner(max_bins=16)
    Xb = binner.fit_transform(X)
    rows, cols = np.arange(n), np.arange(X.shape[1])
    params = TreeGrowthParams(max_depth=3, reg_lambda=0.0, min_child_weight=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = grow_tree_reference(Xb, binner, grad, hess, rows, cols, params)
        new = grow_tree(
            Xb, binner, grad, hess, rows, cols, params, sibling_subtraction=False
        )
    _assert_same_tree(ref, new, bitwise_gain=True)


@pytest.mark.parametrize(
    "seed,nan_rate", [(0, 0.0), (1, 0.5), (2, 0.15), (3, 0.0)]
)
def test_sibling_subtraction_trees_structurally_identical(seed, nan_rate):
    """The subtraction trick changes gains by ulps at most, never the tree."""
    X, y = _random_problem(seed, n=500, d=12, nan_rate=nan_rate)
    grad, hess = _random_grad_hess(seed, X.shape[0])
    binner = HistogramBinner(max_bins=32)
    Xb = binner.fit_transform(X)
    rows = np.arange(X.shape[0])
    cols = np.arange(X.shape[1])
    params = TreeGrowthParams(max_depth=6)
    ref = grow_tree_reference(Xb, binner, grad, hess, rows, cols, params)
    new = grow_tree(Xb, binner, grad, hess, rows, cols, params)
    _assert_same_tree(ref, new, bitwise_gain=False)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_binner_transform_bitwise_identical(seed):
    """Broadcast cut-counting == the seed per-feature searchsorted loop."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(200, 6))
    # Exercise duplicates, NaN, +-inf, and exact cut-boundary values.
    X[:, 1] = np.round(X[:, 1])
    X[rng.random(X.shape) < 0.2] = np.nan
    X[rng.random(X.shape) < 0.02] = np.inf
    X[rng.random(X.shape) < 0.02] = -np.inf
    binner = HistogramBinner(max_bins=12).fit(X)
    if binner.split_values_[0].size:
        X[0, 0] = binner.split_values_[0][0]  # exact boundary hit
    np.testing.assert_array_equal(
        binner.transform(X), reference_binner_transform(binner, X)
    )


@pytest.mark.parametrize(
    "params",
    [
        GBDTParams(n_estimators=12, max_depth=4, learning_rate=0.3, random_state=5),
        GBDTParams(
            n_estimators=10,
            max_depth=5,
            subsample=0.7,
            colsample_bytree=0.5,
            random_state=11,
        ),
        GBDTParams(
            n_estimators=8,
            max_depth=4,
            reg_alpha=0.5,
            gamma=0.1,
            min_child_weight=3.0,
            random_state=2,
        ),
    ],
)
def test_full_fit_margins_bitwise_identical(params):
    """End-to-end: new fit + flat inference == seed fit + per-tree loop."""
    X, y = _random_problem(params.random_state, n=600, d=9, nan_rate=0.2)
    ref = reference_fit(params, X, y)
    model = GradientBoostedClassifier(params).fit(X, y)
    assert len(ref.trees) == len(model.trees)
    for t_ref, t_new in zip(ref.trees, model.trees):
        _assert_same_tree(t_ref, t_new, bitwise_gain=False)
    assert ref.train_loss == model.train_loss_curve
    X_fresh, _ = _random_problem(params.random_state + 77, n=150, d=9, nan_rate=0.3)
    for data in (X, X_fresh):
        np.testing.assert_array_equal(
            reference_predict_margin(ref.base_margin, ref.trees, data),
            model.predict_margin(data),
        )


def test_flat_ensemble_matches_per_tree_predictions():
    X, y = _random_problem(21, n=500, d=8, nan_rate=0.1)
    model = GradientBoostedClassifier(n_estimators=20, max_depth=4).fit(X, y)
    flat = model.flat_ensemble
    assert flat.n_trees == len(model.trees)
    assert flat.n_nodes == sum(t.n_nodes for t in model.trees)
    np.testing.assert_array_equal(
        flat.predict_margin(X, base_margin=model.base_margin),
        reference_predict_margin(model.base_margin, model.trees, X),
    )
    # Leaf ids must land inside each tree's node range.
    leaves = flat.predict_leaves(X[:50])
    for t in range(flat.n_trees):
        assert (leaves[:, t] >= flat.offsets[t]).all()
        assert (leaves[:, t] < flat.offsets[t + 1]).all()


def test_flat_ensemble_feature_gains_match_per_tree_sum():
    X, y = _random_problem(33, n=600, d=7)
    model = GradientBoostedClassifier(n_estimators=15, max_depth=4).fit(X, y)
    per_tree = np.zeros(X.shape[1])
    for tree in model.trees:
        per_tree += tree.feature_gains(X.shape[1])
    np.testing.assert_allclose(
        model.flat_ensemble.feature_gains(X.shape[1]), per_tree, rtol=1e-12
    )


def test_flat_ensemble_empty_is_base_margin_only():
    flat = FlatEnsemble.from_trees([])
    margins = flat.predict_margin(np.zeros((4, 3)), base_margin=-1.5)
    np.testing.assert_array_equal(margins, np.full(4, -1.5))
    assert flat.expected_values().size == 0


def test_train_pred_out_matches_tree_predictions():
    """The builder's free training predictions equal a real traversal."""
    X, y = _random_problem(8, n=400, d=6, nan_rate=0.25)
    grad, hess = _random_grad_hess(8, X.shape[0])
    binner = HistogramBinner(max_bins=32)
    Xb = binner.fit_transform(X)
    pred = np.empty(X.shape[0])
    tree = grow_tree(
        Xb,
        binner,
        grad,
        hess,
        np.arange(X.shape[0]),
        np.arange(X.shape[1]),
        TreeGrowthParams(max_depth=5),
        train_pred_out=pred,
    )
    np.testing.assert_array_equal(pred, tree.predict_binned(Xb))
