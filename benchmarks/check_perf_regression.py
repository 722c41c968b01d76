"""CI perf smoke: fail if the hot paths regress >2x vs. the baseline.

Replays the quick variants of ``bench_perf_gbdt.py``,
``bench_perf_vectorize.py``, ``bench_perf_bayesopt.py``,
``bench_perf_serve.py``, ``bench_perf_latency.py``,
``bench_perf_shard.py``, ``bench_perf_obs.py``, and
``bench_perf_enrich.py`` on the current
machine and compares the
*speedup ratios* (vectorized kernel vs. seed reference, shared-binning
tuning vs. per-trial binning, micro-batched vs. single-claim serving
lookups, HTTP batch scoring vs. the same keys in process, shed
vs. unbounded p99 under 2x overload, and bare vs. instrumented batch
scoring, both sides measured fresh) against the committed
``BENCH_perf.json``.  The ``shard`` replay has no gated ratio: it only
re-asserts its ingest round trip.  Comparing
ratios instead of wall times keeps the check meaningful across
heterogeneous CI hardware: a genuine hot-path regression halves the
measured speedup no matter how fast the runner is.  The quick GBDT
replay also re-asserts the bitwise contracts (vectorized vs. seed
margins, binned vs. float margins) on every run.

Every section runs even when an earlier replay misses one of its
absolute bars: the script prints the whole table, then every failed bar,
and exits non-zero when any fresh speedup falls below half its committed
baseline or any bar failed.

Run::

    python benchmarks/check_perf_regression.py
"""

from __future__ import annotations

import argparse
import json
import sys

import _perfutil
import bench_perf_bayesopt
import bench_perf_enrich
import bench_perf_gbdt
import bench_perf_latency
import bench_perf_obs
import bench_perf_serve
import bench_perf_shard
import bench_perf_vectorize

#: Fresh speedup must stay above baseline / REGRESSION_FACTOR.
REGRESSION_FACTOR = 2.0

#: Every section this check replays, with its speedup key (``None``:
#: the replay only checks its own assertions) and the command that
#: regenerates it.  A baseline missing one of these fails with a clear
#: message instead of silently skipping the section.
REQUIRED_SECTIONS = {
    "gbdt": ("fit_predict_speedup", "python benchmarks/bench_perf_gbdt.py"),
    "vectorize": ("vectorize_speedup", "python benchmarks/bench_perf_vectorize.py"),
    "bayesopt": ("tuning_speedup", "python benchmarks/bench_perf_bayesopt.py"),
    "serve": ("lookup_speedup", "python benchmarks/bench_perf_serve.py"),
    "serve_http": ("http_vs_store", "python benchmarks/bench_perf_serve.py"),
    "serve_latency": ("shed_containment", "python benchmarks/bench_perf_latency.py"),
    "shard": (None, "python benchmarks/bench_perf_shard.py"),
    "obs": ("bare_vs_instrumented", "python benchmarks/bench_perf_obs.py"),
    "enrich": ("base_vs_enriched", "python benchmarks/bench_perf_enrich.py"),
}


def _baseline_speedups(
    doc: dict, section: str, key: str | None
) -> dict[str, float]:
    if key is None:
        return {}
    rows = doc[section].get("results", [])
    out: dict[str, float] = {}
    for row in rows:
        if "size" not in row or key not in row:
            raise SystemExit(
                f"error: malformed row in baseline section {section!r}: "
                f"expected 'size' and {key!r} fields, got {sorted(row)}"
            )
        out[row["size"]] = float(row[key])
    return out


def _validate_baseline(baseline: dict, path: str) -> None:
    """Fail loudly (not via KeyError or silent skip) on missing sections."""
    missing = [s for s in REQUIRED_SECTIONS if s not in baseline]
    if not missing:
        return
    lines = [
        f"error: baseline {path} is missing required bench section(s): "
        + ", ".join(missing),
        "regenerate the missing section(s) with:",
    ]
    lines.extend(f"    {REQUIRED_SECTIONS[s][1]}" for s in missing)
    raise SystemExit("\n".join(lines))


def _replay(section: str, run, base: dict, checks: list, failures: list):
    """Run one section's quick replay and collect its ratio checks.

    A replay that misses one of its absolute bars raises
    ``AssertionError``; the miss is recorded in ``failures`` and the
    remaining sections still run, so one red bar never hides the rest.
    A section without a speedup key records each row as passed.
    """
    key = REQUIRED_SECTIONS[section][0]
    try:
        rows = list(run())
    except AssertionError as exc:
        failures.append(f"{section}: {exc}")
        return
    for row in rows:
        if key is None:
            checks.append((section, row["size"], None, None))
            continue
        expected = base.get(row["size"])
        if expected is not None:
            checks.append((section, row["size"], expected, row[key]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        default=_perfutil.BENCH_JSON,
        help="path to the committed BENCH_perf.json",
    )
    args = parser.parse_args()
    try:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    except FileNotFoundError:
        raise SystemExit(
            f"error: no committed baseline at {args.baseline}; run the "
            "bench_perf_*.py benchmarks to create it"
        ) from None
    _validate_baseline(baseline, args.baseline)
    bases = {
        section: _baseline_speedups(baseline, section, key)
        for section, (key, _) in REQUIRED_SECTIONS.items()
    }

    checks: list[tuple[str, str, float, float]] = []
    failures: list[str] = []
    # The gbdt replay re-asserts the bitwise margin contracts; the enrich
    # replay re-asserts the absolute bar (enriched vectorize overhead
    # <= 15% vs. the base builder) inside bench_perf_enrich.run().
    for section, run in (
        ("gbdt", lambda: bench_perf_gbdt.run(quick=True)),
        ("vectorize", lambda: bench_perf_vectorize.run(quick=True)),
        ("bayesopt", lambda: bench_perf_bayesopt.run(quick=True)),
        ("enrich", lambda: bench_perf_enrich.run(quick=True)),
    ):
        _replay(section, run, bases[section], checks, failures)
    service, build_s = bench_perf_serve._build_service()
    try:
        # Absolute bars asserted inside the replays themselves: the
        # latency replay's admitted p99 under 2x overload <= 5x unloaded
        # p99, the shard replay's lossless ingest round trip, the obs
        # replay's instrumentation overhead <= 10% on the quick batch.
        for section, run in (
            (
                "serve",
                lambda: bench_perf_serve.run(
                    quick=True, service=service, build_s=build_s
                ),
            ),
            (
                "serve_http",
                lambda: bench_perf_serve.run_http(quick=True, service=service),
            ),
            (
                "serve_latency",
                lambda: bench_perf_latency.run(quick=True, service=service),
            ),
            ("shard", lambda: bench_perf_shard.run(quick=True, service=service)),
            ("obs", lambda: bench_perf_obs.run(quick=True, service=service)),
        ):
            _replay(section, run, bases[section], checks, failures)
    finally:
        service.close()

    if not checks and not failures:
        print("no comparable baseline entries found in", args.baseline)
        return 1
    failed = bool(failures)
    for section, size, expected, fresh in checks:
        if expected is None:
            print(f"{section}/{size}: assertions passed (no gated ratio) -> ok")
            continue
        floor = expected / REGRESSION_FACTOR
        status = "ok" if fresh >= floor else "REGRESSED"
        failed |= fresh < floor
        print(
            f"{section}/{size}: baseline {expected:.2f}x, fresh {fresh:.2f}x "
            f"(floor {floor:.2f}x) -> {status}"
        )
    for failure in failures:
        print(f"FAILED BAR {failure}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
