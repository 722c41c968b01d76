"""Tests for the benchmark itself, on shrunken worlds through the same code.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import hostref  # noqa: E402
import release as rel  # noqa: E402
import run  # noqa: E402
import traffic as tr  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

#: BSL density multiplier for the test worlds (seconds-long releases).
SHRINK = 0.25

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


# -- the span recorder ---------------------------------------------------------


class _Toy:
    @classmethod
    def make(cls, n):
        return [n] * n

    def work(self, n):
        return toy_module.inner(n) + toy_module.inner(n)


toy_module = types.SimpleNamespace(inner=lambda n: sum(range(n)))


def test_tracer_self_times_sum_to_root_and_restore_undoes_wraps():
    original_make = _Toy.__dict__["make"]
    original_inner = toy_module.inner
    tracer = Tracer()
    tracer.wrap(toy_module, "inner", "inner", count=lambda a, k, r: a[0])
    tracer.wrap(_Toy, "work", "work")
    tracer.wrap(_Toy, "make", "make", count=lambda a, k, r: len(r))
    try:
        with tracer.span("root"):
            assert _Toy().work(1000) == 2 * sum(range(1000))
            assert _Toy.make(3) == [3, 3, 3]
    finally:
        tracer.restore()
    assert _Toy.__dict__["make"] is original_make
    assert toy_module.inner is original_inner

    names = [s.name for s in tracer.spans]
    assert names == ["root", "work", "inner", "inner", "make"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 1, 0]
    assert [s.work for s in tracer.spans] == [0.0, 0.0, 1000.0, 1000.0, 3.0]
    selfs = self_times(tracer.spans)
    assert all(v >= 0 for v in selfs)
    assert sum(selfs) == pytest.approx(tracer.spans[0].duration, rel=1e-9)


# -- every workload, end to end ---------------------------------------------------


@pytest.fixture(scope="module")
def results():
    return {
        name: run.run_workload(name, seed=3, seconds=2.0, trace=True, shrink=SHRINK)
        for name in run.WORKLOADS
    }


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit_and_all_checks_pass(results, name):
    result = results[name]
    assert result["failed"] == 0, result["reasons"]
    assert result["attempted"] > 0
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        metrics = run.select_metrics(SPEC, result, trace)
        assert [m["name"] for m in SPEC[section]] == list(metrics)
        for entry, spec in zip(metrics.values(), SPEC[section]):
            assert entry["unit"] == spec["unit"]
            assert isinstance(entry["value"], float)
    for entry in SPEC["end_to_end"]:
        assert result["end_to_end"][entry["name"]] > 0, entry["name"]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_span_tree_reconciles_with_the_traced_wall_time(results, name):
    layers = results[name]["per_layer"]
    wall = layers["release.traced_s"]
    self_sum = sum(layers[m] for m in rel._SELF_TIME_METRICS)
    unaccounted = layers["release.unaccounted_frac"] * wall
    assert self_sum + unaccounted == pytest.approx(wall, rel=1e-9)
    assert 0 <= layers["release.unaccounted_frac"] <= 0.05
    assert 0 < layers["enrich.attribution_share"] < 1


def test_attribution_share_is_larger_on_the_dense_world(results):
    dense = results["release_tiny"]["per_layer"]
    sparse = results["release_small_sparse"]["per_layer"]
    assert dense["enrich.attribution_share"] > 2 * sparse["enrich.attribution_share"]
    assert dense["speedtests.mlab_tests"] > 10 * sparse["speedtests.mlab_tests"]


def test_release_etag_repeats_across_processes(tmp_path):
    script = (
        "import sys; sys.path[:0] = [{src!r}, {bench!r}]\n"
        "import release\n"
        "cfg = release.world_config('sparse', 5, {shrink})\n"
        "print(release.run_release(cfg, {path!r}).store.etag)\n"
    )
    etags = []
    for hash_seed in ("1", "2"):
        path = str(tmp_path / f"bundle-{hash_seed}")
        code = script.format(
            src=os.path.join(ROOT, "src"), bench=BENCH, shrink=SHRINK, path=path
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            check=True,
        )
        etags.append(out.stdout.strip())
    assert etags[0] == etags[1] and len(etags[0]) == 16


# -- response checks count failures -----------------------------------------------


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cfg = rel.world_config("sparse", 4, SHRINK)
    out = rel.run_release(cfg, str(tmp_path_factory.mktemp("perfbench") / "bundle"))
    assert rel.release_checks(out) == []
    server = tr.ServerProcess(out.store, out.model, out.enrichment)
    server.store = out.store
    try:
        yield server
    finally:
        server.close()


@pytest.fixture(scope="module")
def served(server):
    return tr.Traffic(server.store, seed=4, n_threads=2, port=server.port)


def _corrupt_first(monkeypatch, mutate):
    """Make the first response the client reads pass through ``mutate``."""
    original = tr._read_body
    state = {"done": False}

    def read(response):
        data = original(response)
        if not state["done"]:
            state["done"] = True
            return mutate(data)
        return data

    monkeypatch.setattr(tr, "_read_body", read)


def _flip_first_digit(data: bytes) -> bytes:
    doc = json.loads(data)
    record = doc["results"][0]
    record["score"] = 1.0 - record["score"] if record["score"] != 0.5 else 0.25
    return json.dumps(doc).encode()


def test_clean_phases_have_no_failures(served):
    for phase in (served.batch(0.2), served.cold(0.2), served.walk()):
        assert phase.failed == 0 and phase.units > 0
    lookup = served.lookup(200.0, 0.2)
    assert lookup.failed == 0 and len(lookup.latencies_ms) == lookup.attempted


class _FixedReference:
    """A host probe that always reads the same factor."""

    def __init__(self, factor: float):
        self.factor = factor

    def probe(self) -> float:
        return self.factor


def test_serving_slices_are_scaled_by_the_host_probe(served, server):
    rounds = tr.Rounds(served, server, run.SERVE_SHARES, _FixedReference(2.0))
    rounds._cycle(0.5)
    for name in tr.Rounds.SCALED:
        (scaled,) = rounds.scaled[name]
        assert scaled == pytest.approx(2.0 * rounds.phases[name].rate)
        assert scaled > 0
    e2e, _layers = rounds.metrics()
    assert e2e["cold_keys_per_s"] == rounds.scaled["cold"][0]
    assert e2e["lookup_p50_ms"] == tr.percentile(
        rounds.phases["lookup"].latencies_ms, 50
    )


def test_cold_slice_served_from_the_cache_counts_as_failed(served, server, monkeypatch):
    # A pool far smaller than the batcher's LRU: keys come round while cached.
    pid, cell, tech, state = served._cold_pool
    small = (pid[:200], cell[:200], tech[:200], state[:200])
    monkeypatch.setattr(served, "_cold_pool", small)
    rounds = tr.Rounds(served, server, run.SERVE_SHARES, _FixedReference(1.0))
    result = rounds._slice("cold", 0.3)
    assert result.attempted > 2 and result.failed == result.attempted
    assert result.units == 0


def test_host_probe_factor_is_its_time_over_the_reference():
    reference = hostref.HostReference()
    factors = [reference.probe(), reference.probe()]
    assert factors == reference.factors and all(f > 0 for f in factors)
    assert reference.median_s() == pytest.approx(
        sum(factors) / 2 * hostref.REFERENCE_S
    )


def test_corrupted_batch_response_counts_as_failed(served, monkeypatch):
    # Fresh batch bodies so the first response is verified field by field.
    served_batches = served.batches
    monkeypatch.setattr(served, "batches", served_batches[:1])
    _corrupt_first(monkeypatch, _flip_first_digit)
    phase = served.batch(0.3)
    assert phase.failed >= 1
    assert phase.units == (phase.attempted - phase.failed) * len(served_batches[0][0])


def test_degraded_cold_response_counts_as_failed(served, monkeypatch):
    def degrade(data: bytes) -> bytes:
        doc = json.loads(data)
        doc["degraded"] = True
        return json.dumps(doc).encode()

    _corrupt_first(monkeypatch, degrade)
    phase = served.cold(0.2)
    assert phase.failed == 1
    assert phase.units == (phase.attempted - 1) * tr.COLD_KEYS


def test_walk_with_a_missing_rank_fails(served, monkeypatch):
    def drop_row(data: bytes) -> bytes:
        doc = json.loads(data)
        doc["items"] = doc["items"][1:]
        return json.dumps(doc).encode()

    _corrupt_first(monkeypatch, drop_row)
    phase = served.walk()
    assert phase.failed == phase.attempted and phase.units == 0


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "release_tiny",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
