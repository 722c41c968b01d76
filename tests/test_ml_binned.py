"""Binned batch inference and shared-binner training equivalence.

The binned path — rows coded against the ensemble's own split
thresholds, or pre-binned codes mapped onto them — must be *bitwise*
identical to the float path (the quantized comparison is exact, not
approximate), and training from a shared pre-fitted binner / pre-binned
codes must reproduce the unshared fit exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import tree as tree_mod
from repro.ml.gbdt import GBDTParams, GradientBoostedClassifier
from repro.ml.tree import MISSING_BIN, FlatEnsemble, HistogramBinner, RegressionTree
from repro.serve.store import _unique_rows, score_claim_blocks


def _problem(n=400, d=12, seed=0, nan_frac=0.15):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[rng.random((n, d)) < nan_frac] = np.nan
    logit = np.nan_to_num(X[:, 0]) - 0.5 * np.nan_to_num(X[:, 1])
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
    return X, y


@pytest.fixture(scope="module")
def fitted():
    X, y = _problem()
    model = GradientBoostedClassifier(
        GBDTParams(n_estimators=12, max_depth=4, learning_rate=0.3, max_bins=16)
    ).fit(X, y)
    return model, X, y


# -- binned inference ----------------------------------------------------------


def test_binned_margin_bitwise_equals_float(fitted):
    model, X, _ = fitted
    np.testing.assert_array_equal(
        model.predict_margin(X), model.predict_margin(X, binned=True)
    )


def test_binned_margin_accepts_prebinned_codes(fitted):
    model, X, _ = fitted
    codes = model._state.binner.transform(X)
    np.testing.assert_array_equal(
        model.predict_margin(X), model.predict_margin(codes, binned=True)
    )
    np.testing.assert_array_equal(
        model.predict_proba(X), model.predict_proba(codes, binned=True)
    )


def test_binned_margin_on_unseen_rows(fitted):
    """Rows outside the training value range still route identically."""
    model, X, _ = fitted
    rng = np.random.default_rng(7)
    X2 = rng.normal(scale=10.0, size=(257, X.shape[1]))
    X2[rng.random(X2.shape) < 0.3] = np.nan
    X2[0, :] = np.inf
    X2[1, :] = -np.inf
    np.testing.assert_array_equal(
        model.predict_margin(X2), model.predict_margin(X2, binned=True)
    )


def test_binned_leaves_equal_float_leaves(fitted):
    model, X, _ = fitted
    flat = model.flat_ensemble
    flat.bind_binner(model._state.binner)
    codes = model._state.binner.transform(X)
    np.testing.assert_array_equal(
        flat.predict_leaves(X), flat.predict_leaves_binned(codes)
    )


def test_binned_compaction_path_bitwise(fitted):
    """Heavily pruned trees finish early, exercising frontier compaction."""
    X, y = _problem(n=1500, d=8, seed=3)
    model = GradientBoostedClassifier(
        GBDTParams(
            n_estimators=10, max_depth=8, min_samples_leaf=200, learning_rate=0.3
        )
    ).fit(X, y)
    np.testing.assert_array_equal(
        model.predict_margin(X), model.predict_margin(X, binned=True)
    )


def test_predict_leaves_binned_requires_binding(fitted):
    model, X, _ = fitted
    fresh = GradientBoostedClassifier(
        GBDTParams(n_estimators=2, max_depth=2)
    ).fit(*_problem(n=80, d=4, seed=1))
    with pytest.raises(RuntimeError):
        fresh.flat_ensemble.predict_leaves_binned(
            np.zeros((3, 4), dtype=np.uint8)
        )


def test_predict_leaves_binned_validates_codes(fitted):
    model, X, _ = fitted
    flat = model.flat_ensemble
    flat.bind_binner(model._state.binner)
    with pytest.raises(ValueError):
        flat.predict_leaves_binned(np.zeros((3, X.shape[1])))  # float, not codes
    with pytest.raises(ValueError):
        flat.predict_leaves_binned(np.zeros((3, X.shape[1] + 1), dtype=np.uint8))


def test_bind_binner_rejects_mismatched_binner(fitted):
    model, X, _ = fitted
    other = HistogramBinner(max_bins=16).fit(np.arange(40.0).reshape(10, 4).repeat(3, axis=1))
    with pytest.raises((ValueError, IndexError)):
        model.flat_ensemble.bind_binner(other)


# -- threshold-space properties -----------------------------------------------


def _wide_problem(n=800, seed=21):
    """Two strong continuous features (many thresholds each), binary and
    few-valued features (few thresholds), NaN holes, and two constant
    columns no tree can split."""
    X, y = _problem(n=n, d=2, seed=seed, nan_frac=0.1)
    rng = np.random.default_rng(seed + 1)
    binary = (rng.random(n) < 0.4).astype(float)
    binary[rng.random(n) < 0.1] = np.nan
    few = rng.integers(0, 4, n).astype(float)
    informative = (rng.random(n) < 0.5).astype(float)
    y = np.where(rng.random(n) < 0.3, informative, y)
    X = np.column_stack([X, binary, np.ones(n), few, informative, np.full(n, 2.5)])
    return X, y


@pytest.fixture(scope="module")
def wide():
    X, y = _wide_problem()
    model = GradientBoostedClassifier(
        GBDTParams(n_estimators=40, max_depth=5, learning_rate=0.3, max_bins=64)
    ).fit(X, y)
    flat = model.flat_ensemble
    table = flat._split_table()
    sizes = [t.size for t in table.thresholds]
    # Features split at one threshold and at many.
    assert min(sizes) == 1 and max(sizes) >= 16
    unused = sorted(set(range(X.shape[1])) - set(table.features.tolist()))
    assert {3, X.shape[1] - 1} <= set(unused)
    # Per feature: every split threshold, one ulp either side, the
    # non-finite values, and a few ordinary draws.
    pools = []
    for f in range(X.shape[1]):
        pool = [np.nan, np.inf, -np.inf, 0.0, -3.0, 3.0, X[0, f]]
        if f in table.features:
            t = table.thresholds[int(np.searchsorted(table.features, f))]
            pool += [*t, *np.nextafter(t, -np.inf), *np.nextafter(t, np.inf)]
        pools.append(pool)
    return model, X, pools


def _assert_three_paths_equal(model, X):
    """Float margins == threshold-coded float rows == pre-binned codes."""
    expected = model.predict_margin(X)
    np.testing.assert_array_equal(expected, model.predict_margin(X, binned=True))
    codes = model._state.binner.transform(X)
    np.testing.assert_array_equal(expected, model.predict_margin(codes, binned=True))
    flat = model.flat_ensemble
    np.testing.assert_array_equal(
        expected,
        flat.predict_margin_codes(
            flat.threshold_codes(X), base_margin=model.base_margin
        ),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_threshold_codes_bitwise_at_every_boundary(wide, data):
    """Rows drawn from thresholds, their ulp neighbours, NaN and ±inf
    (duplicates and the empty table included) route identically."""
    model, X, pools = wide
    rows = data.draw(
        st.lists(st.tuples(*[st.sampled_from(p) for p in pools]), max_size=40)
    )
    Xd = np.array(rows, dtype=np.float64).reshape(len(rows), X.shape[1])
    _assert_three_paths_equal(model, Xd)


def test_threshold_codes_every_threshold_and_neighbour(wide):
    """Each used feature at each threshold and one ulp either side."""
    model, X, _ = wide
    flat = model.flat_ensemble
    table = flat._split_table()
    base = X[1]
    rows = []
    for f, t in zip(table.features, table.thresholds):
        for v in (*t, *np.nextafter(t, -np.inf), *np.nextafter(t, np.inf)):
            row = base.copy()
            row[f] = v
            rows.append(row)
    _assert_three_paths_equal(model, np.array(rows))


def test_threshold_codes_non_finite_are_missing(wide):
    model, X, _ = wide
    flat = model.flat_ensemble
    for v in (np.nan, np.inf, -np.inf):
        Xv = np.full((3, X.shape[1]), v)
        assert (flat.threshold_codes(Xv) == MISSING_BIN).all()
        _assert_three_paths_equal(model, Xv)


def test_threshold_codes_identical_and_empty_rows(wide):
    model, X, _ = wide
    same = np.repeat(X[2:3], 50, axis=0)
    _assert_three_paths_equal(model, same)
    assert np.unique(model.predict_margin(same, binned=True)).size == 1
    _assert_three_paths_equal(model, X[:0])
    _assert_three_paths_equal(model, X)


def test_unused_features_are_never_read(wide):
    """Columns no node splits on can hold anything."""
    model, X, _ = wide
    flat = model.flat_ensemble
    unused = np.setdiff1d(np.arange(X.shape[1]), flat.split_features)
    scrambled = X.copy()
    scrambled[:, unused] = np.random.default_rng(0).normal(size=(X.shape[0], unused.size))
    np.testing.assert_array_equal(
        model.predict_margin(X, binned=True),
        model.predict_margin(scrambled, binned=True),
    )
    np.testing.assert_array_equal(
        model.predict_margin(X), model.predict_margin(scrambled)
    )


def test_small_row_blocks_change_nothing(wide, monkeypatch):
    """Cut counting and the traversal give the same codes, leaves and
    margins in blocks of a few rows as in one block."""
    model, X, _ = wide
    flat = model.flat_ensemble
    binner = model._state.binner
    flat.bind_binner(binner)
    before = (
        binner.transform(X),
        flat.threshold_codes(X),
        flat.predict_leaves_binned(binner.transform(X)),
        model.predict_margin(X, binned=True),
    )
    monkeypatch.setattr(tree_mod, "_BINNING_BLOCK_ROWS", 7)
    monkeypatch.setattr(tree_mod, "_TRAVERSAL_BLOCK_ELEMENTS", 3 * flat.n_trees)
    after = (
        binner.transform(X),
        flat.threshold_codes(X),
        flat.predict_leaves_binned(binner.transform(X)),
        model.predict_margin(X, binned=True),
    )
    for b, a in zip(before, after):
        np.testing.assert_array_equal(b, a)
    np.testing.assert_array_equal(flat.predict_leaves(X), after[2])
    np.testing.assert_array_equal(model.predict_margin(X), after[3])


def test_cut_counting_at_the_widest_cut_list():
    """253 cuts, the most a uint8 code holds beside MISSING_BIN, code
    exactly as a per-feature ``searchsorted`` left."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(3000, 3))
    X[rng.random(X.shape) < 0.05] = np.nan
    X[rng.random(X.shape) < 0.01] = np.inf
    X[rng.random(X.shape) < 0.01] = -np.inf
    binner = HistogramBinner(max_bins=254).fit(X)
    assert max(c.size for c in binner.split_values_) == 253
    X[:253, 0] = binner.split_values_[0][:253]
    expected = np.stack(
        [np.searchsorted(c, X[:, f], side="left") for f, c in enumerate(binner.split_values_)],
        axis=1,
    ).astype(np.uint8)
    expected[~np.isfinite(X)] = MISSING_BIN
    np.testing.assert_array_equal(binner.transform(X), expected)


def test_score_claim_blocks_with_small_traversal_steps(
    tiny_model, tiny_builder, tiny_score_store, monkeypatch
):
    """Scoring a few rows per traversal step leaves every margin as built."""
    model, _ = tiny_model
    picks = np.arange(0, len(tiny_builder.claims), 11)
    monkeypatch.setattr(
        tree_mod, "_TRAVERSAL_BLOCK_ELEMENTS", 5 * model.classifier.flat_ensemble.n_trees
    )
    margin = score_claim_blocks(
        model.classifier, tiny_builder, tiny_builder.claims.take(picks), block_rows=500
    )
    np.testing.assert_array_equal(margin, tiny_score_store.margin[picks])


def _leaf(value):
    return RegressionTree(
        feature=np.array([-1], np.int32),
        threshold=np.array([np.nan]),
        threshold_bin=np.array([-1], np.int32),
        children_left=np.array([-1], np.int32),
        children_right=np.array([-1], np.int32),
        default_left=np.array([True]),
        values=np.array([value]),
        cover=np.array([1.0]),
        gain=np.array([0.0]),
    )


def _stump(feature, threshold, default_left, lo, hi):
    return RegressionTree(
        feature=np.array([feature, -1, -1], np.int32),
        threshold=np.array([threshold, np.nan, np.nan]),
        threshold_bin=np.array([0, -1, -1], np.int32),
        children_left=np.array([1, -1, -1], np.int32),
        children_right=np.array([2, -1, -1], np.int32),
        default_left=np.array([default_left, True, True]),
        values=np.array([0.0, lo, hi]),
        cover=np.array([2.0, 1.0, 1.0]),
        gain=np.array([1.0, 0.0, 0.0]),
    )


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from([np.nan, np.inf, -np.inf, 0.5, np.nextafter(0.5, 1.0), -1.0]),
            st.sampled_from([np.nan, -np.inf, 2.0, np.nextafter(2.0, 0.0), 7.0]),
        ),
        max_size=20,
    )
)
def test_single_leaf_trees_and_stumps(rows):
    """Single-leaf trees add their value to every row; an all-leaf
    ensemble splits on nothing and codes rows into zero columns."""
    X = np.array(rows, dtype=np.float64).reshape(len(rows), 2)
    leaves_only = FlatEnsemble.from_trees([_leaf(0.25), _leaf(-1.5)])
    assert leaves_only.split_features.size == 0
    assert leaves_only.threshold_codes(X).shape == (len(rows), 0)
    np.testing.assert_array_equal(
        leaves_only.predict_margin(X, 0.1), leaves_only.predict_margin(X, 0.1, binned=True)
    )
    mixed = FlatEnsemble.from_trees(
        [_leaf(0.25), _stump(0, 0.5, True, -1.0, 1.0), _leaf(-1.5),
         _stump(1, 2.0, False, 0.3, -0.7), _stump(0, 0.5, False, 2.0, 4.0)]
    )
    np.testing.assert_array_equal(
        mixed.predict_margin(X, 0.1), mixed.predict_margin(X, 0.1, binned=True)
    )
    binner = HistogramBinner(max_bins=8)
    binner.split_values_ = [np.array([-2.0, 0.5, 1.0]), np.array([2.0, 3.0])]
    mixed.bind_binner(binner)
    np.testing.assert_array_equal(
        mixed.predict_margin(X, 0.1),
        mixed.predict_margin(binner.transform(X), 0.1, binned=True),
    )


def test_threshold_table_rejects_too_many_thresholds():
    """A threshold code must fit a uint8 beside MISSING_BIN."""
    trees = [_stump(0, float(v), False, 0.0, 1.0) for v in range(MISSING_BIN)]
    with pytest.raises(ValueError, match="distinct split thresholds"):
        FlatEnsemble.from_trees(trees).threshold_codes(np.zeros((1, 1)))
    ok = FlatEnsemble.from_trees(trees[: MISSING_BIN - 1])
    X = np.array([[v] for v in (-1.0, 0.0, 100.5, 253.0, 254.0, np.inf, np.nan)])
    np.testing.assert_array_equal(ok.predict_margin(X), ok.predict_margin(X, binned=True))


@settings(max_examples=30, deadline=None)
@given(
    codes=st.lists(
        st.lists(st.sampled_from([0, 1, 2, MISSING_BIN]), min_size=3, max_size=3),
        max_size=30,
    )
)
def test_unique_rows_inverse_rebuilds_the_table(codes):
    table = np.array(codes, dtype=np.uint8).reshape(len(codes), 3)
    distinct, inverse = _unique_rows(table)
    np.testing.assert_array_equal(distinct[inverse], table)
    assert len({r.tobytes() for r in distinct}) == len(distinct)


@settings(max_examples=12, deadline=None)
@given(
    pattern=st.lists(st.integers(0, 2), min_size=1, max_size=300),
    block_rows=st.integers(1, 400),
)
def test_score_claim_blocks_on_duplicate_tables(
    tiny_model, tiny_builder, tiny_score_store, pattern, block_rows
):
    """Tables of one to three distinct claims, repeated in any order,
    score the same in any block size and equal the float traversal."""
    model, _ = tiny_model
    picks = np.array([0, 17, 4242])[np.array(pattern)]
    claims = tiny_builder.claims.take(picks)
    margin = score_claim_blocks(
        model.classifier, tiny_builder, claims, block_rows=block_rows
    )
    np.testing.assert_array_equal(margin, tiny_score_store.margin[picks])
    np.testing.assert_array_equal(
        margin,
        score_claim_blocks(model.classifier, tiny_builder, claims, binned=False),
    )


def test_score_claim_blocks_all_duplicates_any_block_size(
    tiny_model, tiny_builder, tiny_score_store
):
    model, _ = tiny_model
    claims = tiny_builder.claims.take(np.full(257, 99))
    for block_rows in (1, 2, 64, 256, 257, 10_000):
        margin = score_claim_blocks(
            model.classifier, tiny_builder, claims, block_rows=block_rows
        )
        assert (margin == tiny_score_store.margin[99]).all()


# -- shared binner training ----------------------------------------------------


def test_fit_with_shared_binner_bitwise_equal(fitted):
    model, X, y = fitted
    params = GBDTParams(
        n_estimators=12, max_depth=4, learning_rate=0.3, max_bins=16
    )
    binner = HistogramBinner(max_bins=16).fit(X)
    from_float = GradientBoostedClassifier(params).fit(X, y, binner=binner)
    from_codes = GradientBoostedClassifier(params).fit(
        binner.transform(X), y, binner=binner
    )
    np.testing.assert_array_equal(
        model.predict_margin(X), from_float.predict_margin(X)
    )
    np.testing.assert_array_equal(
        model.predict_margin(X), from_codes.predict_margin(X)
    )


def test_fit_with_shared_binner_subsampled_bitwise_equal():
    X, y = _problem(n=600, d=10, seed=5)
    params = GBDTParams(
        n_estimators=8, max_depth=3, subsample=0.7, colsample_bytree=0.6,
        learning_rate=0.2, max_bins=32, random_state=11,
    )
    plain = GradientBoostedClassifier(params).fit(X, y)
    binner = HistogramBinner(max_bins=32).fit(X)
    shared = GradientBoostedClassifier(params).fit(
        binner.transform(X), y, binner=binner
    )
    np.testing.assert_array_equal(plain.predict_margin(X), shared.predict_margin(X))


def test_fit_with_shared_binner_eval_set_bitwise_equal():
    X, y = _problem(n=500, d=8, seed=9)
    Xe, ye = _problem(n=200, d=8, seed=10)
    params = GBDTParams(n_estimators=20, max_depth=3, learning_rate=0.3, max_bins=16)
    plain = GradientBoostedClassifier(params).fit(
        X, y, eval_set=(Xe, ye), early_stopping_rounds=4
    )
    binner = HistogramBinner(max_bins=16).fit(X)
    shared = GradientBoostedClassifier(params).fit(
        binner.transform(X),
        y,
        eval_set=(binner.transform(Xe), ye),
        early_stopping_rounds=4,
        binner=binner,
    )
    assert len(plain.trees) == len(shared.trees)
    assert plain.eval_loss_curve == shared.eval_loss_curve
    np.testing.assert_array_equal(plain.predict_margin(X), shared.predict_margin(X))


def test_fit_rejects_unfitted_or_mismatched_binner():
    X, y = _problem(n=100, d=4, seed=2)
    with pytest.raises(RuntimeError):
        GradientBoostedClassifier(GBDTParams(n_estimators=2)).fit(
            X, y, binner=HistogramBinner(max_bins=64)
        )
    binner = HistogramBinner(max_bins=32).fit(X)
    with pytest.raises(ValueError):
        GradientBoostedClassifier(GBDTParams(n_estimators=2, max_bins=64)).fit(
            X, y, binner=binner
        )
    with pytest.raises(ValueError):
        GradientBoostedClassifier(GBDTParams(n_estimators=2, max_bins=32)).fit(
            binner.transform(X)[:, :3], y, binner=binner
        )
    with pytest.raises(ValueError):
        GradientBoostedClassifier(GBDTParams(n_estimators=2, max_bins=32)).fit(
            binner.transform(X),
            y,
            eval_set=(binner.transform(X)[:, :3], y),
            binner=binner,
        )


def test_fit_refuses_prebinned_codes_out_of_range():
    """A code the binner cannot produce is refused, not silently split on."""
    X, y = _problem(n=200, d=5, seed=4)
    X[:, 2] = np.round(np.nan_to_num(X[:, 2])) > 0  # binary column
    binner = HistogramBinner(max_bins=16).fit(X)
    assert binner.n_bins(2) == 2
    params = GBDTParams(n_estimators=2, max_depth=3, max_bins=16)
    codes = binner.transform(X)
    codes[:, 2][::7] = 255  # MISSING_BIN stays legal
    GradientBoostedClassifier(params).fit(codes, y, binner=binner)
    for bad in (2, 16, 254):
        broken = codes.copy()
        broken[5, 2] = bad
        with pytest.raises(ValueError, match=r"bin code \d+ at row 5, column 2"):
            GradientBoostedClassifier(params).fit(broken, y, binner=binner)
        with pytest.raises(ValueError, match="pre-binned eval X"):
            GradientBoostedClassifier(params).fit(
                codes, y, eval_set=(broken, y), binner=binner
            )
