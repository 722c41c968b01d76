"""GBDT hot-path benchmark: fused/vectorized kernels vs. the seed loops.

Times ``GradientBoostedClassifier`` fit and predict against the seed
implementation preserved in :mod:`repro.ml._reference` on synthetic
NBM-shaped problems, verifies the margins agree bitwise, and records the
speedups in ``BENCH_perf.json``.  Three sizes are dense float features
with NaN holes; ``mixed`` mirrors the column mix of the Table-4 matrix
(about two thirds one-hot/binary columns, a few constant ones, the rest
few-valued or continuous with NaN holes), where most features have two
bins and the compact histogram layout matters most.

Each size also times the binned inference path
(``predict_margin(codes, binned=True)`` on pre-binned uint8 codes, mapped
onto the ensemble's own threshold codes — the steady state for tuning
loops) against the float path, asserts its margins and those of float
rows coded straight against the split thresholds are bitwise identical,
and reports the one-time ``HistogramBinner.transform`` cost separately
(only training and tuning still bin).

Run standalone::

    python benchmarks/bench_perf_gbdt.py           # all four sizes
    python benchmarks/bench_perf_gbdt.py --quick   # smallest size only
"""

from __future__ import annotations

import argparse

import _perfutil

_perfutil.ensure_src_on_path()

import numpy as np  # noqa: E402

from repro.ml._reference import (  # noqa: E402
    reference_fit,
    reference_predict_margin,
)
from repro.ml.gbdt import GBDTParams, GradientBoostedClassifier  # noqa: E402

#: (name, rows, features, trees) — feature counts bracket the Table-4
#: matrix (~90 columns at tiny scale, wider with S-BERT embeddings).
#: ``mixed`` has the Table-4 column mix (see ``_make_problem``).
#: rows * features stays below the fused-histogram block threshold
#: (repro.ml.tree._BLOCK_ELEMENTS, ~4.2M pairs): above it, production
#: training blocks root-node histograms and margins can drift from the
#: seed by ulps, which would trip this bench's exact-equality assertion.
SIZES = [
    ("small", 2_000, 48, 30),
    ("mixed", 3_000, 93, 30),
    ("medium", 6_000, 96, 40),
    ("large", 16_000, 128, 50),
]


def _make_problem(n: int, d: int, seed: int = 0, mixed: bool = False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[rng.random((n, d)) < 0.1] = np.nan
    if mixed:
        # Table-4 shape: ~2/3 binary (one-hot and flag) columns, a few
        # constant ones, a few small-integer ones; the rest stay
        # continuous.  Columns 0 and 1 keep driving the label.
        n_binary = 2 * d // 3
        binary = 2 + np.arange(n_binary)
        X[:, binary] = rng.random((n, n_binary)) < rng.uniform(0.02, 0.6, n_binary)
        X[:, 1] = X[:, 1] > 0
        X[:, 2 + n_binary : 5 + n_binary] = 1.0
        X[:, 5 + n_binary : 9 + n_binary] = rng.integers(0, 12, (n, 4))
    logit = np.nan_to_num(X[:, 0]) - 0.5 * np.nan_to_num(X[:, 1])
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
    return X, y


def run(quick: bool = False) -> list[dict]:
    results = []
    sizes = SIZES[:1] if quick else SIZES
    for name, n, d, trees in sizes:
        X, y = _make_problem(n, d, mixed=name == "mixed")
        params = GBDTParams(
            n_estimators=trees, max_depth=6, learning_rate=0.2, max_bins=64
        )
        # Best-of-2 on the small size keeps the CI smoke (which compares
        # quick-run ratios against the committed baseline) noise-tolerant.
        repeats = 2 if name == "small" else 1
        fit_ref, ref = _perfutil.timed(
            lambda: reference_fit(params, X, y), repeats=repeats
        )
        model = GradientBoostedClassifier(params)
        fit_new, _ = _perfutil.timed(lambda: model.fit(X, y), repeats=repeats)
        pred_ref, m_ref = _perfutil.timed(
            lambda: reference_predict_margin(ref.base_margin, ref.trees, X),
            repeats=repeats,
        )
        pred_new, m_new = _perfutil.timed(
            lambda: model.predict_margin(X), repeats=repeats
        )
        if not np.array_equal(m_ref, m_new):
            raise AssertionError(f"{name}: margins diverged from the seed kernels")
        binner = model._state.binner
        transform_s, codes = _perfutil.timed(
            lambda: binner.transform(X), repeats=repeats
        )
        pred_binned, m_binned = _perfutil.timed(
            lambda: model.predict_margin(codes, binned=True), repeats=max(repeats, 2)
        )
        if not np.array_equal(m_new, m_binned):
            raise AssertionError(f"{name}: binned margins diverged from float path")
        if not np.array_equal(m_new, model.predict_margin(X, binned=True)):
            raise AssertionError(
                f"{name}: threshold-coded float rows diverged from float path"
            )
        row = {
            "size": name,
            "n_rows": n,
            "n_features": d,
            "n_trees": trees,
            "fit_seconds_ref": fit_ref,
            "fit_seconds_new": fit_new,
            "fit_speedup": fit_ref / fit_new,
            "predict_seconds_ref": pred_ref,
            "predict_seconds_new": pred_new,
            "predict_speedup": pred_ref / pred_new,
            "fit_predict_speedup": (fit_ref + pred_ref) / (fit_new + pred_new),
            "predict_binned_seconds": pred_binned,
            "predict_binned_speedup": pred_new / pred_binned,
            "transform_seconds": transform_s,
        }
        results.append(row)
        print(
            f"{name:7s} n={n:6d} d={d:4d} trees={trees:3d}  "
            f"fit {fit_ref:7.3f}s -> {fit_new:7.3f}s ({row['fit_speedup']:.1f}x)  "
            f"predict {pred_ref:6.3f}s -> {pred_new:6.3f}s "
            f"({row['predict_speedup']:.1f}x)  "
            f"fit+predict {row['fit_predict_speedup']:.1f}x  "
            f"binned {pred_binned:6.3f}s ({row['predict_binned_speedup']:.1f}x "
            f"vs float; bin once {transform_s:.3f}s)"
        )
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="run only the smallest size"
    )
    parser.add_argument(
        "--no-write", action="store_true", help="skip updating BENCH_perf.json"
    )
    args = parser.parse_args()
    results = run(quick=args.quick)
    if not args.no_write:
        _perfutil.merge_section(
            "gbdt", _perfutil.round_floats({"results": results})
        )
        print(f"wrote gbdt section to {_perfutil.BENCH_JSON}")


if __name__ == "__main__":
    main()
