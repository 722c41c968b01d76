"""Artifact-bundle round-trips: saved+reloaded models are bitwise exact."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NBMIntegrityModel
from repro.ml.gbdt import GBDTParams, GradientBoostedClassifier
from repro.ml.shap import shap_values
from repro.ml.tree import FlatEnsemble, HistogramBinner
from repro.serve.artifacts import load_model_artifacts, save_model_artifacts
from repro.utils import persist


def _problem(n, d, seed=0, missing=0.1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if missing:
        X[rng.random((n, d)) < missing] = np.nan
    y = (np.nan_to_num(X[:, 0]) + rng.normal(scale=0.5, size=n) > 0).astype(float)
    return X, y


# -- component round-trips ---------------------------------------------------


def test_binner_state_roundtrip_bitwise():
    X, _ = _problem(500, 7, seed=3)
    binner = HistogramBinner(max_bins=32).fit(X)
    clone = HistogramBinner.from_state(binner.export_state())
    assert clone.max_bins == binner.max_bins
    assert len(clone.split_values_) == len(binner.split_values_)
    for a, b in zip(clone.split_values_, binner.split_values_):
        assert np.array_equal(a, b)
    assert np.array_equal(clone.transform(X), binner.transform(X))


def test_binner_from_state_rejects_inconsistent_offsets():
    X, _ = _problem(100, 3)
    state = HistogramBinner(max_bins=8).fit(X).export_state()
    bad = dict(state)
    bad["cut_offsets"] = state["cut_offsets"][:-1]
    with pytest.raises(ValueError):
        HistogramBinner.from_state(bad)


def test_flat_ensemble_array_roundtrip_and_tree_split():
    X, y = _problem(600, 6, seed=1)
    clf = GradientBoostedClassifier(GBDTParams(n_estimators=8, max_depth=4)).fit(X, y)
    ens = clf.flat_ensemble
    clone = FlatEnsemble.from_arrays(ens.export_arrays())
    assert np.array_equal(clone.predict_margin(X), ens.predict_margin(X))
    # to_trees() -> from_trees() reproduces the concatenated arrays exactly
    # (leaf thresholds are NaN, hence equal_nan on the float fields).
    rebuilt = FlatEnsemble.from_trees(ens.to_trees())
    for name, _ in FlatEnsemble.EXPORT_FIELDS:
        a, b = getattr(rebuilt, name), getattr(ens, name)
        if a.dtype.kind == "f":
            assert np.array_equal(a, b, equal_nan=True), name
        else:
            assert np.array_equal(a, b), name


def test_flat_ensemble_from_arrays_rejects_malformed():
    X, y = _problem(300, 4)
    ens = (
        GradientBoostedClassifier(GBDTParams(n_estimators=3, max_depth=3))
        .fit(X, y)
        .flat_ensemble
    )
    arrays = ens.export_arrays()
    truncated = dict(arrays)
    truncated["values"] = arrays["values"][:-1]
    with pytest.raises(ValueError):
        FlatEnsemble.from_arrays(truncated)
    wild = {k: v.copy() for k, v in arrays.items()}
    wild["children_left"][0] = 10**9
    with pytest.raises(ValueError):
        FlatEnsemble.from_arrays(wild)


# -- bundle round-trips (property) -------------------------------------------


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_estimators=st.integers(2, 12),
    max_depth=st.integers(2, 5),
    max_bins=st.sampled_from([8, 32, 64]),
)
def test_bundle_roundtrip_margins_bitwise(tmp_path_factory, seed, n_estimators, max_depth, max_bins):
    X, y = _problem(400, 5, seed=seed)
    params = GBDTParams(
        n_estimators=n_estimators,
        max_depth=max_depth,
        max_bins=max_bins,
        learning_rate=0.3,
        random_state=seed,
    )
    clf = GradientBoostedClassifier(params).fit(X, y)
    path = str(tmp_path_factory.mktemp("bundle"))
    save_model_artifacts(path, clf)
    loaded = load_model_artifacts(path).classifier

    assert loaded.params == clf.params
    assert loaded.base_margin == clf.base_margin
    # Float path, binned path, and the orderings they induce.
    m = clf.predict_margin(X)
    assert np.array_equal(loaded.predict_margin(X), m)
    codes = clf.binner.transform(X)
    assert np.array_equal(
        loaded.predict_margin(codes, binned=True),
        clf.predict_margin(codes, binned=True),
    )
    assert np.array_equal(
        np.argsort(-loaded.predict_margin(X), kind="stable"),
        np.argsort(-m, kind="stable"),
    )


def test_bundle_roundtrip_shap_bitwise(tmp_path):
    X, y = _problem(250, 5, seed=11)
    clf = GradientBoostedClassifier(GBDTParams(n_estimators=6, max_depth=3)).fit(X, y)
    save_model_artifacts(str(tmp_path), clf)
    loaded = load_model_artifacts(str(tmp_path)).classifier
    live = shap_values(clf, X[:40])
    again = shap_values(loaded, X[:40])
    assert np.array_equal(live.values, again.values)
    assert live.expected_value == again.expected_value
    assert np.array_equal(
        clf.feature_importances_, loaded.feature_importances_
    )


def test_bundle_contains_no_pickle(tmp_path):
    X, y = _problem(200, 4)
    clf = GradientBoostedClassifier(GBDTParams(n_estimators=3)).fit(X, y)
    save_model_artifacts(str(tmp_path), clf)
    # allow_pickle=False is the loader's contract; loading must not need it.
    manifest = persist.read_manifest(str(tmp_path))
    for meta in manifest["files"].values():
        arr = np.load(os.path.join(str(tmp_path), meta["path"]), allow_pickle=False)
        assert arr.dtype != object
    assert manifest["kind"] == "nbm-integrity-model"
    assert manifest["n_trees"] == 3


def test_save_unfitted_raises(tmp_path):
    with pytest.raises(RuntimeError):
        save_model_artifacts(str(tmp_path), GradientBoostedClassifier())


# -- NBMIntegrityModel wrappers + encoder state ------------------------------


def test_model_save_load_bitwise_on_world(tmp_path, tiny_model, tiny_builder, tiny_dataset):
    model, split = tiny_model
    path = str(tmp_path / "bundle")
    model.save(path)

    obs = split.test(tiny_dataset)[:300]
    X = tiny_builder.vectorize(obs)
    loaded = NBMIntegrityModel.load(path)
    assert loaded.is_fitted
    assert loaded.params == model.params
    assert np.array_equal(
        loaded.classifier.predict_margin(X), model.classifier.predict_margin(X)
    )
    assert np.array_equal(
        loaded.classifier.predict_margin(X, binned=True),
        model.classifier.predict_margin(X, binned=True),
    )
    assert loaded.feature_names == model.feature_names
    # Builder-less models refuse observation-level entry points loudly.
    with pytest.raises(RuntimeError, match="FeatureBuilder"):
        loaded.predict_proba(obs)

    # With a live builder attached, observation scoring matches bitwise.
    with_builder = NBMIntegrityModel.load(path, builder=tiny_builder)
    assert np.array_equal(
        with_builder.predict_proba(obs), model.predict_proba(obs)
    )


def test_builderless_resave_keeps_feature_names(tmp_path, tiny_model):
    model, _ = tiny_model
    first = str(tmp_path / "first")
    second = str(tmp_path / "second")
    model.save(first)
    reloaded = NBMIntegrityModel.load(first)  # no builder attached
    reloaded.save(second)
    again = NBMIntegrityModel.load(second)
    assert again.feature_names == model.feature_names


def test_model_save_unfitted_raises(tmp_path, tiny_builder):
    model = NBMIntegrityModel(tiny_builder)
    with pytest.raises(RuntimeError, match="unfitted"):
        model.save(str(tmp_path))


def test_encoder_state_restore_rejects_mismatch(tmp_path, tiny_model, tiny_world):
    from repro.features.vectorize import FeatureBuilder

    model, _ = tiny_model
    path = str(tmp_path / "bundle")
    model.save(path)
    other_dim = FeatureBuilder(
        fabric=tiny_world.fabric,
        universe=tiny_world.universe,
        table=tiny_world.table,
        coverage_scores=tiny_world.coverage_scores,
        localization=tiny_world.localization,
        embedding_dim=tiny_world.config.embedding_dim + 1,
    )
    with pytest.raises(ValueError, match="embedder spec"):
        load_model_artifacts(path, builder=other_dim)


def test_encoder_state_warms_fresh_builder(tmp_path, tiny_model, tiny_world, tiny_dataset):
    from repro.features.vectorize import FeatureBuilder

    model, split = tiny_model
    path = str(tmp_path / "bundle")
    model.save(path)
    fresh = FeatureBuilder(
        fabric=tiny_world.fabric,
        universe=tiny_world.universe,
        table=tiny_world.table,
        coverage_scores=tiny_world.coverage_scores,
        localization=tiny_world.localization,
        embedding_dim=tiny_world.config.embedding_dim,
    )
    assert not fresh._embeddings
    load_model_artifacts(path, builder=fresh)
    # Caches restored: every provider the trained builder embedded is warm,
    # and vectorization agrees bitwise with the original builder.
    assert fresh._embeddings.keys() == model.builder._embeddings.keys()
    obs = split.test(tiny_dataset)[:100]
    assert np.array_equal(
        fresh.vectorize(obs), model.builder.vectorize(obs)
    )
