"""End-to-end benchmark: a BDC release through to a served, re-scored map.

Usage (from the repository root)::

    python3 perfbench/run.py --workload release_tiny --seed 7 --seconds 40 --trace 0

Each run builds its world from ``--seed`` and runs the release path
(config -> world -> attribution + truth map -> labels -> features -> GBDT
-> score store -> bundle save -> mmap load -> holdout AUC) at least
twice.  After the first release it forks a server over the released store
and drives four traffic phases against it; further releases and serving
rounds alternate, so both sample the whole run.  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` adds one traced
release and prints the per-layer metrics instead.  The last line of
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")


#: Workload -> world scale (``release.world_config``).
WORKLOADS = {"release_tiny": "dense", "release_small_sparse": "sparse"}

#: Share of ``--seconds`` given to releases; the rest serves.
RELEASE_SHARE = 0.6

#: Releases per run, whatever the time budget: the etag must repeat.
MIN_RELEASES = 2
MAX_RELEASES = 20

#: Releases and serving alternate over this many rounds.  Each serving
#: round gives every phase these shares of its time and runs one step of
#: the lookup ladder's binary search (four settle a 13-rate ladder).
ROUNDS = 4
SERVE_SHARES = {"batch": 0.3, "cold": 0.2, "lookup": 0.2, "ladder": 0.15, "walk": 0.15}

#: Times the server is started and warmed per run; ``setup_s`` takes the
#: median, since one start swings with the host.
SERVER_STARTS = 3


def host_calib() -> float:
    """Seconds for a fixed pure-Python loop: how fast this host is now."""
    start = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x += i * i % 7
    return time.perf_counter() - start


class _Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, attempted: int, failed: int, reason: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and reason:
            self.reasons.append(reason)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, shrink: float = 1.0
) -> dict:
    """Run one workload; returns the tally plus every metric measured.

    ``shrink`` scales the world's BSL density down (tests only).
    """
    calib_start = host_calib()

    setup_start = time.perf_counter()
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import release as rel
    import traffic as tr
    from hostref import REFERENCE_S, HostReference
    from spans import Tracer

    import_s = time.perf_counter() - setup_start
    reference = HostReference()

    tally = _Tally()
    e2e: dict[str, float] = {}
    layers: dict[str, float] = {}
    scratch = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(scratch, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    cfg = rel.world_config(WORKLOADS[name], seed, shrink)
    walls: list[float] = []
    ok_walls: list[float] = []
    ok_claims = 0
    etags: list[str] = []
    server = rounds = None

    def release(tracer=None):
        gc.collect()
        bundle = os.path.join(workdir, f"bundle-{len(etags)}")
        out = rel.run_release(cfg, bundle, tracer=tracer)
        etags.append(out.store.etag)
        failures = rel.release_checks(out)
        if out.store.etag != etags[0]:
            failures.append(f"etag {out.store.etag} != first release's {etags[0]}")
        tally.add(1, bool(failures), "; ".join(failures))
        return out, not failures

    try:
        budget = seconds * RELEASE_SHARE
        serve_slice = seconds * (1.0 - RELEASE_SHARE) / ROUNDS
        for index in range(ROUNDS):
            target = budget * (index + 1) / ROUNDS
            last_round = index == ROUNDS - 1
            while (
                not walls
                or (sum(walls) < target and len(walls) < MAX_RELEASES)
                or (last_round and len(walls) < MIN_RELEASES)
            ):
                out, ok = release()
                walls.append(out.wall_s)
                if ok:
                    ok_walls.append(out.wall_s)
                    ok_claims += len(out.store)
                e2e["holdout_auc"] = out.auc
                if server is None:
                    # The first release is the one served.  One
                    # connection: with the server's handler thread that is
                    # one busy thread per core of a 2-vCPU host.
                    traffic = tr.Traffic(out.store, seed, 1)
                    starts = []
                    for _ in range(SERVER_STARTS):
                        if server is not None:
                            server.close()
                        start = time.perf_counter()
                        server = tr.ServerProcess(
                            out.store, out.model, out.enrichment, time_positions=trace
                        )
                        traffic.port = server.port
                        for warm in (
                            traffic.batch(0.0),
                            traffic.cold(0.0),
                            traffic.lookup(tr.LOOKUP_RATE, 0.05),
                            traffic.walk(),
                        ):
                            tally.add(
                                warm.attempted, warm.failed, "warm-up request failed"
                            )
                        server.access_log()
                        starts.append(time.perf_counter() - start)
                    setup_s = import_s + statistics.median(starts)
                    rounds = tr.Rounds(traffic, server, SERVE_SHARES, reference)
                del out
            rounds.run(serve_slice)

        if trace:
            tracer = Tracer()
            rel.install_layer_spans(tracer)
            try:
                out, _ok = release(tracer)
            finally:
                tracer.restore()
            layers.update(rel.layer_metrics(tracer, out))
            layers["obs.trace_overhead_frac"] = (
                out.wall_s / statistics.median(walls) - 1.0
            )
            del out
            trace_path = os.path.join(scratch, f"trace-{name}-{seed}.json")
            tracer.write(trace_path)
            print(f"trace: {len(tracer.spans)} spans written to {trace_path}")

        # Releases and set-up last seconds, over which the host's
        # second-to-second swings average out; what is left is its drift
        # over minutes, so they are scaled by the run's median probe (the
        # probes between serving slices, spread over the whole run).
        factor = reference.median_s() / REFERENCE_S
        e2e["setup_s"] = setup_s / factor
        # Claims per second normalizes the seed-to-seed spread of world
        # size (about 10%); every passing release counts, weighted by its
        # time.  The raw seconds are kept per layer.
        unscaled_cps = ok_claims / sum(ok_walls) if ok_walls else 0.0
        e2e["release_claims_per_s"] = unscaled_cps * factor
        layers["release_s"] = statistics.median(ok_walls) if ok_walls else float("nan")
        for phase, attempted, failed in rounds.attempted_failed():
            tally.add(attempted, failed, f"{phase} response check failed")
        serve_e2e, serve_layers = rounds.metrics()
        raw = {
            "setup_s": setup_s,
            "release_claims_per_s": unscaled_cps,
            **{f"{n}_per_s": p.rate for n, p in rounds.phases.items() if n != "lookup"},
            "lookup_p50_ms": tr.percentile(rounds.phases["lookup"].latencies_ms, 50),
            "host_ref_s": reference.median_s(),
        }
        e2e.update(serve_e2e)
        layers.update(serve_layers)
    finally:
        if server is not None:
            server.close()
        shutil.rmtree(workdir, ignore_errors=True)

    e2e["peak_rss_mb"] = (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            server.final.get("maxrss_kb", 0),
        )
        / 1024.0
    )
    layers["store.positions_s"] = server.final.get("positions_s", float("nan"))
    calib_end = host_calib()
    layers["host.calib_s"] = (calib_start + calib_end) / 2
    layers["host.ref_s"] = reference.median_s()
    import numpy

    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "end_to_end": e2e,
        "per_layer": layers,
        "host": {
            "calib_start_s": calib_start,
            "calib_end_s": calib_end,
            "nproc": tr.nproc(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "etag": etags[0],
        "raw": raw,
    }


def select_metrics(spec: dict, result: dict, trace: bool) -> dict:
    """The metrics ``BENCHMARK.json`` names for this mode, with units."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result["per_layer"] if trace else result["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = select_metrics(spec, result, bool(args.trace))

    host = result["host"]
    print(
        f"host: calib_s={host['calib_start_s']:.4f}/{host['calib_end_s']:.4f} "
        f"nproc={host['nproc']} python={host['python']} numpy={host['numpy']}"
    )
    print(f"workload={args.workload} seed={args.seed} etag={result['etag']}")
    print("unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in result["raw"].items()))
    for reason in result["reasons"]:
        print(f"FAILED: {reason}")
    for key, entry in metrics.items():
        print(f"{key} = {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
