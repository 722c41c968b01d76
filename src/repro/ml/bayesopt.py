"""Gaussian-process Bayesian optimization for hyper-parameter search.

The paper optimizes XGBoost hyper-parameters with Bayesian optimization;
this module provides an equivalent optimizer on numpy/scipy: a Gaussian
process surrogate (RBF kernel, log-marginal-likelihood lengthscale
selection over a small grid) with the expected-improvement acquisition,
maximized over random candidates.

Scipy is imported inside the functions that use it, not at module load:
``repro.ml`` re-exports this module, and the serving stack imports
``repro.ml`` but never tunes, so a server or worker process would
otherwise pay scipy's import (about 0.6 s) on every start.  Only tuning
may import scipy; a test pins that the serving imports do not.

Parameters are described by :class:`ParamSpec`; log-scaled and integer
parameters are handled transparently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ParamSpec", "SearchSpace", "BayesianOptimizer", "maximize"]


@dataclass(frozen=True)
class ParamSpec:
    """One hyper-parameter's range and scaling."""

    low: float
    high: float
    log: bool = False
    integer: bool = False

    def __post_init__(self):
        if not self.low < self.high:
            raise ValueError(f"low must be < high, got [{self.low}, {self.high}]")
        if self.log and self.low <= 0:
            raise ValueError("log-scaled parameters require low > 0")

    def to_unit(self, value: float) -> float:
        """Map a parameter value to [0, 1]."""
        if self.log:
            return (math.log(value) - math.log(self.low)) / (
                math.log(self.high) - math.log(self.low)
            )
        return (value - self.low) / (self.high - self.low)

    def from_unit(self, u: float) -> float:
        """Map a [0, 1] coordinate back to the parameter's native scale."""
        u = min(1.0, max(0.0, u))
        if self.log:
            value = math.exp(
                math.log(self.low) + u * (math.log(self.high) - math.log(self.low))
            )
        else:
            value = self.low + u * (self.high - self.low)
        if self.integer:
            value = int(round(value))
            value = int(min(self.high, max(self.low, value)))
        return value


class SearchSpace:
    """An ordered collection of named :class:`ParamSpec`."""

    def __init__(self, specs: dict[str, ParamSpec]):
        if not specs:
            raise ValueError("search space must not be empty")
        self.names = tuple(specs.keys())
        self.specs = tuple(specs.values())

    @property
    def dim(self) -> int:
        return len(self.specs)

    def to_unit(self, params: dict[str, float]) -> np.ndarray:
        return np.array(
            [spec.to_unit(params[name]) for name, spec in zip(self.names, self.specs)]
        )

    def from_unit(self, u: np.ndarray) -> dict[str, float]:
        return {
            name: spec.from_unit(float(ui))
            for name, spec, ui in zip(self.names, self.specs, u)
        }

    def sample(self, rng: np.random.Generator) -> dict[str, float]:
        return self.from_unit(rng.random(self.dim))


class _GaussianProcess:
    """Minimal GP regression with an RBF kernel on the unit cube."""

    def __init__(self, lengthscale: float, noise: float = 1e-6):
        self.lengthscale = lengthscale
        self.noise = noise
        self._X: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._chol = None
        self._y_mean = 0.0
        self._y_std = 1.0

    def _kernel(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        sq = (
            np.sum(A * A, axis=1)[:, None]
            + np.sum(B * B, axis=1)[None, :]
            - 2.0 * A @ B.T
        )
        return np.exp(-0.5 * np.maximum(sq, 0.0) / self.lengthscale**2)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_GaussianProcess":
        from scipy.linalg import cho_factor, cho_solve

        self._X = X
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        yn = (y - self._y_mean) / self._y_std
        K = self._kernel(X, X) + self.noise * np.eye(X.shape[0])
        self._chol = cho_factor(K, lower=True)
        self._alpha = cho_solve(self._chol, yn)
        return self

    def log_marginal_likelihood(self, y: np.ndarray) -> float:
        yn = (y - self._y_mean) / self._y_std
        half_logdet = float(np.log(np.diag(self._chol[0])).sum())
        return float(-0.5 * yn @ self._alpha - half_logdet)

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        from scipy.linalg import cho_solve

        Ks = self._kernel(X, self._X)
        mean = Ks @ self._alpha
        v = cho_solve(self._chol, Ks.T)
        var = np.maximum(1.0 - np.sum(Ks * v.T, axis=1), 1e-12)
        return (
            mean * self._y_std + self._y_mean,
            np.sqrt(var) * self._y_std,
        )


class BayesianOptimizer:
    """Ask/tell Bayesian optimizer maximizing a black-box objective.

    >>> space = SearchSpace({"x": ParamSpec(0.0, 1.0)})
    >>> opt = BayesianOptimizer(space, seed=0)
    >>> for _ in range(8):
    ...     params = opt.ask()
    ...     opt.tell(params, -(params["x"] - 0.3) ** 2)
    >>> abs(opt.best_params["x"] - 0.3) < 0.35
    True
    """

    _LENGTHSCALE_GRID = (0.1, 0.2, 0.4, 0.8, 1.6)

    def __init__(
        self, space: SearchSpace, seed: int = 0, n_initial: int = 5, candidates: int = 1024
    ):
        self.space = space
        self.rng = np.random.default_rng(seed)
        self.n_initial = max(2, n_initial)
        self.candidates = candidates
        self._X: list[np.ndarray] = []
        self._y: list[float] = []

    @property
    def n_observed(self) -> int:
        return len(self._y)

    @property
    def best_params(self) -> dict[str, float]:
        if not self._y:
            raise RuntimeError("no observations yet")
        return self.space.from_unit(self._X[int(np.argmax(self._y))])

    @property
    def best_value(self) -> float:
        if not self._y:
            raise RuntimeError("no observations yet")
        return float(max(self._y))

    def ask(self) -> dict[str, float]:
        """Propose the next parameter set to evaluate."""
        if self.n_observed < self.n_initial:
            return self.space.sample(self.rng)
        from scipy.stats import norm

        X = np.vstack(self._X)
        y = np.asarray(self._y)
        gp = self._fit_gp(X, y)
        cand = self.rng.random((self.candidates, self.space.dim))
        mean, std = gp.predict(cand)
        best = float(y.max())
        improve = mean - best
        z = improve / std
        ei = improve * norm.cdf(z) + std * norm.pdf(z)
        return self.space.from_unit(cand[int(np.argmax(ei))])

    def tell(self, params: dict[str, float], value: float) -> None:
        """Record an observed objective value for a parameter set."""
        if not math.isfinite(value):
            raise ValueError(f"objective value must be finite, got {value!r}")
        self._X.append(self.space.to_unit(params))
        self._y.append(float(value))

    def _fit_gp(self, X: np.ndarray, y: np.ndarray) -> _GaussianProcess:
        best_gp, best_lml = None, -np.inf
        for ls in self._LENGTHSCALE_GRID:
            gp = _GaussianProcess(lengthscale=ls, noise=1e-4).fit(X, y)
            lml = gp.log_marginal_likelihood(y)
            if lml > best_lml:
                best_gp, best_lml = gp, lml
        return best_gp


def maximize(
    func,
    space: SearchSpace,
    n_iter: int = 25,
    seed: int = 0,
    resources=None,
) -> tuple[dict[str, float], float, BayesianOptimizer]:
    """Maximize ``func(params_dict)`` over a search space.

    ``resources``, when not ``None``, is handed to every trial as a
    second argument — ``func(params, resources)`` — so expensive
    trial-invariant artifacts are built once for the whole optimization
    instead of once per trial.  The GBDT tuning loop uses this to share
    one fitted :class:`repro.ml.tree.HistogramBinner` (and the matrices
    it has already binned) across all trials; see
    :meth:`repro.core.model.NBMIntegrityModel.tune`.

    Returns ``(best_params, best_value, optimizer)``.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    opt = BayesianOptimizer(space, seed=seed)
    for _ in range(n_iter):
        params = opt.ask()
        value = func(params) if resources is None else func(params, resources)
        opt.tell(params, float(value))
    return opt.best_params, opt.best_value, opt
