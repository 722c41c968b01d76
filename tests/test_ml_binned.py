"""Binned batch inference and shared-binner training equivalence.

The binned path must be *bitwise* identical to the float path (the
quantized comparison is exact, not approximate), and training from a
shared pre-fitted binner / pre-binned codes must reproduce the unshared
fit exactly.
"""

import numpy as np
import pytest

from repro.ml.gbdt import GBDTParams, GradientBoostedClassifier
from repro.ml.tree import HistogramBinner


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
