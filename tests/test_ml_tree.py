"""Tests for histogram binning and single-tree growth."""

import numpy as np
import pytest

from repro.ml.tree import (
    MISSING_BIN,
    HistogramBinner,
    TreeGrowthParams,
    grow_tree,
)


def _fit_one_tree(X, g, h, **kwargs):
    binner = HistogramBinner(max_bins=32)
    Xb = binner.fit_transform(X)
    params = TreeGrowthParams(**kwargs)
    rows = np.arange(X.shape[0])
    cols = np.arange(X.shape[1])
    return grow_tree(Xb, binner, g, h, rows, cols, params), binner


def test_binner_roundtrip_ordering():
    X = np.array([[1.0], [5.0], [2.0], [9.0], [3.0]])
    binner = HistogramBinner(max_bins=16)
    Xb = binner.fit_transform(X)
    order = np.argsort(X[:, 0])
    assert (np.diff(Xb[order, 0].astype(int)) >= 0).all()


def test_binner_missing_code():
    X = np.array([[1.0], [np.nan], [2.0]])
    Xb = HistogramBinner(max_bins=8).fit_transform(X)
    assert Xb[1, 0] == MISSING_BIN
    assert Xb[0, 0] != MISSING_BIN


def test_binner_constant_feature_has_single_bin():
    X = np.full((10, 1), 3.0)
    binner = HistogramBinner(max_bins=8).fit(X)
    assert binner.n_bins(0) == 1


def test_binner_all_missing_feature():
    X = np.full((5, 1), np.nan)
    binner = HistogramBinner(max_bins=8)
    Xb = binner.fit_transform(X)
    assert (Xb[:, 0] == MISSING_BIN).all()
    assert binner.n_bins(0) == 1


def test_binner_validates_max_bins():
    with pytest.raises(ValueError):
        HistogramBinner(max_bins=1)
    with pytest.raises(ValueError):
        HistogramBinner(max_bins=255)


def test_binner_requires_fit_before_transform():
    with pytest.raises(RuntimeError):
        HistogramBinner().transform(np.zeros((2, 2)))


def test_tree_splits_obvious_step_function():
    # Squared loss on targets: g = pred - y with pred=0 -> g = -y, h = 1.
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, size=(500, 1))
    y = (X[:, 0] > 0.5).astype(float)
    g, h = -y, np.ones_like(y)
    tree, _ = _fit_one_tree(X, g, h, max_depth=2)
    preds = tree.predict(X)
    # Prediction should separate the two plateaus cleanly.
    assert preds[X[:, 0] < 0.45].mean() < 0.2
    assert preds[X[:, 0] > 0.55].mean() > 0.8


def test_tree_respects_max_depth_one():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(300, 3))
    y = (X[:, 0] + X[:, 1] > 0).astype(float)
    g, h = -y, np.ones_like(y)
    tree, _ = _fit_one_tree(X, g, h, max_depth=1)
    # Depth-1 tree: at most 3 nodes (root + 2 leaves).
    assert tree.n_nodes <= 3


def test_tree_pure_node_becomes_leaf():
    X = np.linspace(0, 1, 50).reshape(-1, 1)
    g = np.zeros(50)  # no gradient anywhere -> no useful split
    h = np.ones(50)
    tree, _ = _fit_one_tree(X, g, h, max_depth=5)
    assert tree.n_nodes == 1
    assert tree.predict(X)[0] == pytest.approx(0.0)


def test_gamma_prunes_weak_splits():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(400, 1))
    y = (rng.random(400) < 0.5).astype(float)  # pure noise
    g, h = -(y - 0.5), np.ones(400)
    tree_big_gamma, _ = _fit_one_tree(X, g, h, max_depth=4, gamma=50.0)
    assert tree_big_gamma.n_nodes == 1


def test_min_child_weight_blocks_tiny_leaves():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    g = np.array([-1.0, -1.0, 1.0, 1.0])
    h = np.ones(4)
    tree, _ = _fit_one_tree(X, g, h, max_depth=3, min_child_weight=10.0)
    assert tree.n_nodes == 1


def test_missing_values_routed_to_learned_direction():
    rng = np.random.default_rng(3)
    n = 1000
    X = rng.uniform(0, 1, size=(n, 1))
    y = (X[:, 0] > 0.5).astype(float)
    # Make missing behave like the high branch.
    miss = rng.random(n) < 0.3
    X[miss, 0] = np.nan
    y[miss] = 1.0
    g, h = -y, np.ones(n)
    tree, _ = _fit_one_tree(X, g, h, max_depth=2)
    pred_missing = tree.predict(np.array([[np.nan]]))[0]
    pred_high = tree.predict(np.array([[0.9]]))[0]
    pred_low = tree.predict(np.array([[0.1]]))[0]
    assert abs(pred_missing - pred_high) < abs(pred_missing - pred_low)


def test_predict_binned_matches_predict_raw():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(300, 4))
    X[rng.random((300, 4)) < 0.1] = np.nan
    y = (np.nan_to_num(X[:, 0]) > 0).astype(float)
    g, h = -(y - 0.5), np.ones(300)
    tree, binner = _fit_one_tree(X, g, h, max_depth=4)
    Xb = binner.transform(X)
    np.testing.assert_allclose(tree.predict(X), tree.predict_binned(Xb))


def test_feature_gains_only_on_used_features():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(500, 3))
    y = (X[:, 1] > 0).astype(float)
    g, h = -y, np.ones(500)
    tree, _ = _fit_one_tree(X, g, h, max_depth=2)
    gains = tree.feature_gains(3)
    assert gains[1] > gains[0]
    assert gains[1] > gains[2]


def test_cover_decreases_down_the_tree():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(400, 2))
    y = (X[:, 0] > 0).astype(float)
    g, h = -y, np.ones(400)
    tree, _ = _fit_one_tree(X, g, h, max_depth=3)
    for node in range(tree.n_nodes):
        if not tree.is_leaf(node):
            left, right = tree.children_left[node], tree.children_right[node]
            assert tree.cover[left] <= tree.cover[node]
            assert tree.cover[right] <= tree.cover[node]
            assert tree.cover[left] + tree.cover[right] == pytest.approx(
                tree.cover[node]
            )


def _split_search(g_hist, h_hist, n_hist, g_sum, h_sum, n_rows):
    """``_best_split`` of a one-feature, three-bin node over given hists."""
    from repro.ml.tree import _TreeBuilder

    X = np.array([[0.0], [1.0], [2.0]])
    binner = HistogramBinner(max_bins=8).fit(X)
    assert binner.n_bins(0) == 3  # positions: 3 value bins, missing, pad
    params = TreeGrowthParams(min_child_weight=0.0, min_samples_leaf=1)
    builder = _TreeBuilder(
        binner.transform(X), binner, np.zeros(3), np.ones(3), params,
        feature_indices=np.array([0]),
    )
    hists = (np.asarray(g_hist, float), np.asarray(h_hist, float), np.asarray(n_hist))
    return builder._best_split(np.arange(n_rows), g_sum, h_sum, hists)


def _seed_order_split(g_hist, h_hist, n_hist, g_sum, h_sum, n_rows):
    """The seed's sequential scan: missing right, then left; lowest bin first."""
    best = None
    for default_left in (False, True):
        for b in range(2):
            gl = sum(g_hist[: b + 1]) + (g_hist[3] if default_left else 0.0)
            hl = sum(h_hist[: b + 1]) + (h_hist[3] if default_left else 0.0)
            nl = sum(n_hist[: b + 1]) + (n_hist[3] if default_left else 0)
            if nl < 1 or n_rows - nl < 1:
                continue
            gain = 0.5 * (
                gl * gl / (hl + 1.0)
                + (g_sum - gl) ** 2 / (h_sum - hl + 1.0)
                - g_sum * g_sum / (h_sum + 1.0)
            )
            if best is None or gain > best[3]:
                best = (0, b, default_left, gain)
    return best


def test_split_search_keeps_missing_left_pass_for_residue_missing_bin():
    """A derived histogram can hold an empty missing bin (n == 0) with a
    nonzero gradient residue; both directions are then still searched,
    and here the missing-goes-left pass wins."""
    hists = ([1.0, 2.0, -4.0, 3.0, 0.0], [2.0, 2.0, 2.0, 0.0, 0.0], [5, 5, 5, 0, 0])
    best = _split_search(*hists, g_sum=-1.0, h_sum=6.0, n_rows=15)
    expected = _seed_order_split(*hists, g_sum=-1.0, h_sum=6.0, n_rows=15)
    assert best[:3] == expected[:3] == (0, 1, True)
    assert best[3] == pytest.approx(expected[3])


@pytest.mark.parametrize(
    "g_miss, h_miss, n_miss, direction",
    [(0.0, 0.0, 0, False), (-0.0, 0.0, 0, False), (0.0, 0.5, 0, True),
     (6.0, 3.0, 4, True), (-6.0, 3.0, 4, False)],
)
def test_split_search_matches_seed_order(g_miss, h_miss, n_miss, direction):
    """Exactly empty missing bins search one direction; any mass or
    residue in them searches both, and the chosen split is the seed's."""
    n_rows = 15 + n_miss
    hists = (
        [1.0, 2.0, -4.0, g_miss, 0.0],
        [2.0, 2.0, 2.0, h_miss, 0.0],
        [5, 5, 5, n_miss, 0],
    )
    g_sum, h_sum = -1.0 + g_miss, 6.0 + h_miss
    best = _split_search(*hists, g_sum=g_sum, h_sum=h_sum, n_rows=n_rows)
    expected = _seed_order_split(*hists, g_sum=g_sum, h_sum=h_sum, n_rows=n_rows)
    assert best[:3] == expected[:3]
    assert best[2] is direction
    assert best[3] == pytest.approx(expected[3])
