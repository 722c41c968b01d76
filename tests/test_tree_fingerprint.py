"""Tree fingerprint: GBDT fits hash to committed digests.

``tests/test_ml_equivalence.py`` compares the tree builder against the
seed kernels in :mod:`repro.ml._reference`, but only in exact mode does
that comparison hold bit for bit; the production path (sibling
subtraction, row-blocked accumulation, the gather-then-offset fallback)
is checked only up to exact gain ties.  This test pins what each of
those paths grows today:

* ``tiny`` — the tiny(7) Table-4 fit (the session ``tiny_model``);
* ``mixed`` — a synthetic mixed-width matrix (binary, constant, all-NaN,
  few-valued and NaN-holed continuous columns, interleaved) fitted with
  row and column subsampling;
* ``mixed_blocked`` — the same fit with ``_BLOCK_ELEMENTS`` shrunk so
  large nodes accumulate their histograms in row blocks;
* ``mixed_gather`` — the same fit with ``_OFFSET_CODES_MAX_ELEMENTS = 0``
  so every node gathers raw codes and adds the feature offsets itself
  (the same arithmetic, so its digest equals ``mixed``);
* ``exact`` — trees grown with ``sibling_subtraction=False`` on the
  mixed matrix over full, row-subset and column-subset problems.

Every ``RegressionTree`` array is hashed with its dtype and shape.  The
digests were recorded before the histogram layout was made compact; a
change that claims to keep the trees bitwise identical must keep them.
A change that moves the trees on purpose updates the digests and says
why.
"""

import hashlib

import numpy as np

from repro.ml import tree as tree_mod
from repro.ml.gbdt import GBDTParams, GradientBoostedClassifier
from repro.ml.tree import HistogramBinner, TreeGrowthParams, grow_tree

EXPECTED_DIGESTS = {
    "tiny": "67afd8070d14107683a65874c009a6184f1c1a02248eb8ee7e50489eee51c520",
    "mixed": "077459fd4e942a969b81c205a99e1677bed0c1e2baeb0a595ccdfd8d261a4081",
    "mixed_blocked": "47069bee887da1942bf4f3b218af07dc46f9741c06ebc2b0b8c50f533165f027",
    "mixed_gather": "077459fd4e942a969b81c205a99e1677bed0c1e2baeb0a595ccdfd8d261a4081",
    "exact": "6222c3b3ff88a144e80e6be7ac3d9c1cb6a13768dc4dd439e535e42af6186d52",
}

_TREE_FIELDS = (
    "feature",
    "threshold",
    "threshold_bin",
    "children_left",
    "children_right",
    "default_left",
    "values",
    "cover",
    "gain",
)


def tree_fingerprint(trees) -> str:
    """SHA-256 over every node array of every tree, in ensemble order."""
    h = hashlib.sha256()
    h.update(len(trees).to_bytes(8, "little"))
    for tree in trees:
        for name in _TREE_FIELDS:
            a = np.ascontiguousarray(getattr(tree, name))
            h.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def mixed_width_problem(seed: int = 5, n: int = 900):
    """Columns of every bin width the Table-4 matrix has, interleaved."""
    rng = np.random.default_rng(seed)
    cols = []
    for p in (0.5, 0.1, 0.3, 0.02, 0.7, 0.45, 0.2, 0.9):
        cols.append((rng.random(n) < p).astype(float))  # binary
    holed = (rng.random(n) < 0.4).astype(float)
    holed[rng.random(n) < 0.2] = np.nan
    cols.append(holed)  # binary with missing values
    cols.append(np.ones(n))  # constant
    cols.append(np.full(n, 3.5))  # constant
    cols.append(np.full(n, np.nan))  # all missing
    for k in (3, 5, 9):
        cols.append(rng.integers(0, k, n).astype(float))  # few-valued
    for rate in (0.0, 0.1, 0.35, 0.6):
        c = rng.normal(size=n)
        c[rng.random(n) < rate] = np.nan
        cols.append(c)  # continuous, NaN-holed
    X = np.column_stack(cols)
    X = X[:, rng.permutation(X.shape[1])]
    logit = (
        1.5 * np.nan_to_num(X[:, 0])
        - np.nan_to_num(X[:, 3])
        + 0.8 * np.nan_to_num(X[:, 7])
        + 0.5 * np.nan_to_num(X[:, 11])
        - 0.3 * np.nan_to_num(X[:, 16])
    )
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(logit - logit.mean())))).astype(float)
    return X, y


_MIXED_PARAMS = GBDTParams(
    n_estimators=14,
    max_depth=5,
    learning_rate=0.3,
    subsample=0.7,
    colsample_bytree=0.5,
    random_state=3,
)


def _mixed_fit():
    X, y = mixed_width_problem()
    return GradientBoostedClassifier(_MIXED_PARAMS).fit(X, y).trees


def test_tiny_fit_matches_committed_fingerprint(tiny_model):
    model, _ = tiny_model
    assert tree_fingerprint(model.classifier.trees) == EXPECTED_DIGESTS["tiny"]


def test_mixed_width_fit_matches_committed_fingerprint():
    assert tree_fingerprint(_mixed_fit()) == EXPECTED_DIGESTS["mixed"]


def test_blocked_accumulation_matches_committed_fingerprint(monkeypatch):
    # 1024 elements: nodes above ~85 rows of the 12 sampled columns are
    # accumulated in row blocks.
    monkeypatch.setattr(tree_mod, "_BLOCK_ELEMENTS", 1 << 10)
    assert tree_fingerprint(_mixed_fit()) == EXPECTED_DIGESTS["mixed_blocked"]


def test_gather_then_offset_matches_committed_fingerprint(monkeypatch):
    monkeypatch.setattr(tree_mod, "_OFFSET_CODES_MAX_ELEMENTS", 0)
    assert tree_fingerprint(_mixed_fit()) == EXPECTED_DIGESTS["mixed_gather"]


def test_exact_mode_matches_committed_fingerprint():
    X, _ = mixed_width_problem()
    n, d = X.shape
    binner = HistogramBinner(max_bins=64)
    Xb = binner.fit_transform(X)
    rng = np.random.default_rng(9)
    p = rng.uniform(0.05, 0.95, size=n)
    y = (rng.random(n) < p).astype(float)
    grad, hess = p - y, p * (1.0 - p)
    params = TreeGrowthParams(max_depth=6, min_samples_leaf=2)
    problems = [
        (np.arange(n), np.arange(d)),
        (np.sort(rng.choice(n, size=600, replace=False)), np.arange(d)),
        (np.arange(n), np.sort(rng.choice(d, size=9, replace=False))),
    ]
    trees = [
        grow_tree(Xb, binner, grad, hess, rows, cols, params, sibling_subtraction=False)
        for rows, cols in problems
    ]
    assert tree_fingerprint(trees) == EXPECTED_DIGESTS["exact"]


def test_mixed_problem_has_every_width():
    """The synthetic matrix keeps the bin widths the digests are meant to cover."""
    X, _ = mixed_width_problem()
    binner = HistogramBinner(max_bins=64).fit(X)
    widths = {binner.n_bins(f) for f in range(X.shape[1])}
    assert {1, 2, 3, 64} <= widths
