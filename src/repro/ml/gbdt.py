"""Gradient-boosted decision trees for binary classification.

A from-scratch implementation of the XGBoost training algorithm the paper
uses (logistic loss, second-order boosting, shrinkage, row/column
subsampling, histogram split finding, sparsity-aware missing handling).
Hyper-parameters carry their XGBoost names and meanings so the Bayesian
optimization loop from the paper translates directly.

Hot paths are vectorized end to end: trees are grown with the fused
multi-feature histogram kernel (see :mod:`repro.ml.tree`), training
margins reuse the builder's per-row leaf values when every row trains the
tree, and fitted models evaluate through a :class:`~repro.ml.tree.FlatEnsemble`
— all trees' node arrays concatenated and traversed in one batched pass
per prediction call.  The seed per-feature/per-tree loop kernels live on
in :mod:`repro.ml._reference` as the equivalence oracle.

Batch-scoring and tuning surfaces
---------------------------------

=============================================  ================================
Call                                           Effect
=============================================  ================================
``fit(X, y)``                                  fits a fresh
                                               :class:`~repro.ml.tree.HistogramBinner`
                                               and bins ``X`` (seed behaviour)
``fit(X, y, binner=fitted)``                   reuses a shared fitted binner —
                                               Bayesian-optimization trials bin
                                               the training matrix **once**
``fit(Xb_codes, y, binner=fitted)``            ``Xb`` already uint8 bin codes:
                                               skips the transform entirely
``predict_margin(X)``                          float frontier traversal
                                               (bitwise = seed)
``predict_margin(X, binned=True)``             uint8 traversal of the
                                               ensemble's own split table with
                                               per-depth active-set
                                               compaction; accepts float rows
                                               (coded against the node
                                               thresholds) or pre-binned codes
                                               (mapped through the fit
                                               binner); bitwise = the float
                                               path
=============================================  ================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.tree import (
    MISSING_BIN,
    FlatEnsemble,
    HistogramBinner,
    RegressionTree,
    TreeGrowthParams,
    grow_tree,
)

__all__ = ["GBDTParams", "GradientBoostedClassifier"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logloss(y: np.ndarray, p: np.ndarray) -> float:
    eps = 1e-12
    p = np.clip(p, eps, 1.0 - eps)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())


def _check_codes(binner: HistogramBinner, codes: np.ndarray, what: str) -> None:
    """Refuse pre-binned codes that ``binner.transform`` cannot produce.

    A code at or above its feature's bin count (other than
    :data:`MISSING_BIN`) would silently shift split thresholds, and in the
    compact histogram layout it would land in the next feature's bins.
    """
    nbins = np.array(
        [binner.n_bins(f) for f in range(codes.shape[1])], dtype=np.uint8
    )
    bad = (codes >= nbins) & (codes != MISSING_BIN)
    if bad.any():
        row, col = (int(i) for i in np.argwhere(bad)[0])
        raise ValueError(
            f"{what} has bin code {int(codes[row, col])} at row {row}, "
            f"column {col}, but the binner has {int(nbins[col])} bin(s) "
            f"there; codes must be below the bin count or {MISSING_BIN} "
            "(missing)"
        )


@dataclass(frozen=True)
class GBDTParams:
    """Hyper-parameters (XGBoost naming)."""

    n_estimators: int = 200
    learning_rate: float = 0.1
    max_depth: int = 6
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0
    reg_alpha: float = 0.0
    gamma: float = 0.0
    subsample: float = 1.0
    colsample_bytree: float = 1.0
    max_bins: int = 64
    min_samples_leaf: int = 1
    random_state: int = 0

    def validate(self) -> "GBDTParams":
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if not 0.0 < self.colsample_bytree <= 1.0:
            raise ValueError("colsample_bytree must be in (0, 1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 2 <= self.max_bins <= 254:
            raise ValueError("max_bins must be in [2, 254]")
        return self


@dataclass
class _FitState:
    """Artifacts produced by :meth:`GradientBoostedClassifier.fit`."""

    binner: HistogramBinner
    trees: list[RegressionTree]
    base_margin: float
    n_features: int
    train_loss: list[float] = field(default_factory=list)
    eval_loss: list[float] = field(default_factory=list)
    best_iteration: int | None = None
    #: Lazily-built concatenated node arrays for batched inference.
    flat: FlatEnsemble | None = None


class GradientBoostedClassifier:
    """Binary classifier trained with second-order gradient boosting.

    Predicted probability is ``sigmoid(base_margin + sum_t tree_t(x))``
    where each tree's leaf values already include the learning-rate
    shrinkage (which keeps margins exactly additive — the property TreeSHAP
    relies on).

    Parameters mirror XGBoost.  ``early_stopping_rounds`` (with an
    ``eval_set`` passed to :meth:`fit`) stops when validation log-loss has
    not improved for that many rounds and truncates to the best iteration.
    """

    def __init__(self, params: GBDTParams | None = None, **overrides):
        base = params or GBDTParams()
        if overrides:
            base = GBDTParams(**{**base.__dict__, **overrides})
        self.params = base.validate()
        self._state: _FitState | None = None

    # -- training ---------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        eval_set: tuple[np.ndarray, np.ndarray] | None = None,
        early_stopping_rounds: int | None = None,
        *,
        binner: HistogramBinner | None = None,
    ) -> "GradientBoostedClassifier":
        """Fit the ensemble on float features (NaN = missing) and 0/1 labels.

        ``binner``, when given a *fitted* :class:`HistogramBinner`, is
        reused instead of fitting a fresh one — the shared-binning hook
        Bayesian-optimization tuning uses to bin the training matrix once
        across all trials.  In that case ``X`` (and the eval-set features)
        may also be passed as pre-binned uint8 codes from
        ``binner.transform``, skipping the transform too (a code that
        transform cannot produce raises ``ValueError``).  Either way the
        grown trees are identical to the unshared path, because every
        trial's fresh binner would be fitted on the same matrix.
        """
        y = np.asarray(y, dtype=np.float64)
        if binner is not None:
            if binner.split_values_ is None:
                raise RuntimeError("shared binner is not fitted")
            if binner.max_bins != self.params.max_bins:
                raise ValueError(
                    f"shared binner has max_bins={binner.max_bins}, "
                    f"params require {self.params.max_bins}"
                )
        X = np.asarray(X)
        shared = binner is not None
        pre_binned = shared and X.dtype == np.uint8
        if not pre_binned:
            X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) and y must be (n,) with matching n")
        if not np.isin(y, (0.0, 1.0)).all():
            raise ValueError("y must be binary (0/1)")
        if early_stopping_rounds is not None and eval_set is None:
            raise ValueError("early_stopping_rounds requires an eval_set")
        p = self.params
        rng = np.random.default_rng(p.random_state)
        n, d = X.shape

        if binner is None:
            binner = HistogramBinner(max_bins=p.max_bins)
            Xb = binner.fit_transform(X)
        elif pre_binned:
            if d != len(binner.split_values_):
                raise ValueError(
                    f"pre-binned X has {d} columns, binner expects "
                    f"{len(binner.split_values_)}"
                )
            _check_codes(binner, X, "pre-binned X")
            Xb = X
        else:
            Xb = binner.transform(X)
        pos_rate = float(np.clip(y.mean(), 1e-6, 1.0 - 1e-6))
        base_margin = float(np.log(pos_rate / (1.0 - pos_rate)))
        margin = np.full(n, base_margin)

        eval_binned = None
        eval_margin = None
        y_eval = None
        if eval_set is not None:
            X_eval = np.asarray(eval_set[0])
            y_eval = np.asarray(eval_set[1], dtype=np.float64)
            if X_eval.dtype == np.uint8 and shared:
                if X_eval.ndim != 2 or X_eval.shape[1] != len(binner.split_values_):
                    raise ValueError(
                        f"pre-binned eval X has shape {X_eval.shape}, binner "
                        f"expects (n, {len(binner.split_values_)})"
                    )
                _check_codes(binner, X_eval, "pre-binned eval X")
                eval_binned = X_eval
            else:
                eval_binned = binner.transform(
                    np.asarray(X_eval, dtype=np.float64)
                )
            eval_margin = np.full(X_eval.shape[0], base_margin)

        growth = TreeGrowthParams(
            max_depth=p.max_depth,
            min_child_weight=p.min_child_weight,
            reg_lambda=p.reg_lambda,
            reg_alpha=p.reg_alpha,
            gamma=p.gamma,
            min_samples_leaf=p.min_samples_leaf,
        )
        state = _FitState(
            binner=binner, trees=[], base_margin=base_margin, n_features=d
        )
        best_eval = np.inf
        rounds_since_best = 0
        fit_cache: dict = {}

        for _ in range(p.n_estimators):
            prob = _sigmoid(margin)
            grad = prob - y
            hess = np.maximum(prob * (1.0 - prob), 1e-16)
            if p.subsample < 1.0:
                take = max(2, int(round(p.subsample * n)))
                rows = rng.choice(n, size=take, replace=False)
            else:
                rows = np.arange(n)
            if p.colsample_bytree < 1.0:
                take = max(1, int(round(p.colsample_bytree * d)))
                cols = np.sort(rng.choice(d, size=take, replace=False))
            else:
                cols = np.arange(d)
            # The builder hands back each trained row's leaf value for
            # free, so refreshing the training margin only ever traverses
            # the rows the tree did NOT train on (none, without
            # subsampling).
            pred = np.empty(n)
            tree = grow_tree(
                Xb,
                binner,
                grad,
                hess,
                rows,
                cols,
                growth,
                train_pred_out=pred,
                fit_cache=fit_cache,
            )
            tree.values *= p.learning_rate
            state.trees.append(tree)
            if rows.size == n:
                margin += pred * p.learning_rate
            else:
                held_out = np.ones(n, dtype=bool)
                held_out[rows] = False
                margin[rows] += pred[rows] * p.learning_rate
                margin[held_out] += tree.predict_binned(Xb[held_out])
            state.train_loss.append(_logloss(y, _sigmoid(margin)))
            if eval_binned is not None:
                eval_margin += tree.predict_binned(eval_binned)
                loss = _logloss(y_eval, _sigmoid(eval_margin))
                state.eval_loss.append(loss)
                if loss < best_eval - 1e-9:
                    best_eval = loss
                    state.best_iteration = len(state.trees)
                    rounds_since_best = 0
                else:
                    rounds_since_best += 1
                    if (
                        early_stopping_rounds is not None
                        and rounds_since_best >= early_stopping_rounds
                    ):
                        break
        if early_stopping_rounds is not None and state.best_iteration is not None:
            state.trees = state.trees[: state.best_iteration]
        self._state = state
        return self

    # -- reconstruction ---------------------------------------------------

    @classmethod
    def from_components(
        cls,
        params: GBDTParams,
        binner: HistogramBinner,
        trees: list[RegressionTree],
        base_margin: float,
        n_features: int,
        flat: FlatEnsemble | None = None,
    ) -> "GradientBoostedClassifier":
        """Assemble a fitted classifier from its persisted components.

        The artifact loader (:mod:`repro.serve.artifacts`) uses this to
        rebuild a classifier without pickling: ``binner`` must be fitted,
        ``trees`` carry shrunk leaf values, and ``flat``, when given,
        seeds the cached flat ensemble directly (it must describe the
        same trees).  Loss curves and early-stopping state are training
        history and are not restored.
        """
        if binner.split_values_ is None:
            raise RuntimeError("binner is not fitted")
        clf = cls(params)
        clf._state = _FitState(
            binner=binner,
            trees=list(trees),
            base_margin=float(base_margin),
            n_features=int(n_features),
            flat=flat,
        )
        return clf

    # -- inference --------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return self._state is not None

    @property
    def binner(self) -> HistogramBinner:
        """The fitted histogram binner (quantizer for the binned path)."""
        return self._require_fitted().binner

    def _require_fitted(self) -> _FitState:
        if self._state is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return self._state

    @property
    def trees(self) -> list[RegressionTree]:
        """The fitted trees (leaf values include shrinkage)."""
        return self._require_fitted().trees

    @property
    def flat_ensemble(self) -> FlatEnsemble:
        """All trees as one set of concatenated node arrays (cached).

        Inference and TreeSHAP run off these parallel arrays instead of
        looping over :class:`RegressionTree` objects per prediction.
        """
        state = self._require_fitted()
        if state.flat is None:
            state.flat = FlatEnsemble.from_trees(state.trees)
        return state.flat

    @property
    def base_margin(self) -> float:
        """Additive bias (log-odds of the training base rate)."""
        return self._require_fitted().base_margin

    @property
    def n_features(self) -> int:
        return self._require_fitted().n_features

    @property
    def train_loss_curve(self) -> list[float]:
        return list(self._require_fitted().train_loss)

    @property
    def eval_loss_curve(self) -> list[float]:
        return list(self._require_fitted().eval_loss)

    def predict_margin(self, X: np.ndarray, *, binned: bool = False) -> np.ndarray:
        """Raw additive score (log-odds) per row.

        Evaluated through the flat ensemble: one batched (rows x trees)
        frontier traversal instead of a Python loop over trees, with
        bitwise-identical output.  ``binned=True`` routes through the
        uint8 threshold-code path instead (see :mod:`repro.ml.tree`):
        ``X`` may be float rows (coded against the ensemble's split
        thresholds, no binning) or pre-binned uint8 codes from the
        training binner's ``transform`` — the margins are bitwise
        identical to the float path either way.
        """
        state = self._require_fitted()
        X = np.asarray(X) if binned else np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != state.n_features:
            raise ValueError(
                f"X must be (n, {state.n_features}), got {np.shape(X)}"
            )
        if binned:
            return self.flat_ensemble.predict_margin(
                X,
                base_margin=state.base_margin,
                binned=True,
                binner=state.binner if X.dtype == np.uint8 else None,
            )
        return self.flat_ensemble.predict_margin(X, base_margin=state.base_margin)

    def predict_proba(self, X: np.ndarray, *, binned: bool = False) -> np.ndarray:
        """Probability of the positive class per row."""
        return _sigmoid(self.predict_margin(X, binned=binned))

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions at a probability threshold."""
        return (self.predict_proba(X) >= threshold).astype(np.int64)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Gain-based importances, normalized to sum to one.

        Negative per-node gains are clipped before accumulation, matching
        :meth:`RegressionTree.feature_gains`; the sum runs over the flat
        ensemble's concatenated node arrays in one ``bincount``.
        """
        state = self._require_fitted()
        gains = self.flat_ensemble.feature_gains(state.n_features)
        total = gains.sum()
        return gains / total if total > 0 else gains
