"""The perf-regression script reports every section, then fails.

``benchmarks/check_perf_regression.py`` replays each bench's quick
variant.  Some replays assert an absolute bar inside ``run()``; a miss
there must be recorded while every later section still runs and prints,
and the script must still exit non-zero.  The replays are replaced by
fakes here, so the test times nothing.
"""

import json
import os
import sys
from types import SimpleNamespace

import pytest

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import check_perf_regression as cpr  # noqa: E402

#: section -> (module attribute, replay function) the script calls.
REPLAYS = {
    "gbdt": ("bench_perf_gbdt", "run"),
    "vectorize": ("bench_perf_vectorize", "run"),
    "bayesopt": ("bench_perf_bayesopt", "run"),
    "enrich": ("bench_perf_enrich", "run"),
    "serve": ("bench_perf_serve", "run"),
    "serve_http": ("bench_perf_serve", "run_http"),
    "serve_latency": ("bench_perf_latency", "run"),
    "shard": ("bench_perf_shard", "run"),
    "obs": ("bench_perf_obs", "run"),
}

def _row(section, ratio):
    """A replay row; a section without a ratio key gets none."""
    key = cpr.REQUIRED_SECTIONS[section][0]
    return {"size": "quick", **({} if key is None else {key: ratio})}


def _reported(section):
    """The line a passing replay of ``section`` at 2.0x prints (its start)."""
    if cpr.REQUIRED_SECTIONS[section][0] is None:
        return f"{section}/quick: assertions passed (no gated ratio) -> ok"
    return f"{section}/quick: baseline 2.00x, fresh 2.00x"


@pytest.fixture
def fake_benches(tmp_path, monkeypatch):
    """A baseline of 2.0x per section and fake replays reading 2.0x.

    Add a section to ``state.failing`` to make its replay miss its bar,
    or set ``state.fresh[section]`` to change the ratio it reads."""
    assert REPLAYS.keys() == cpr.REQUIRED_SECTIONS.keys()
    baseline = {
        section: {"results": [_row(section, 2.0)]}
        for section in cpr.REQUIRED_SECTIONS
    }
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps(baseline))
    monkeypatch.setattr(
        sys, "argv", ["check_perf_regression.py", "--baseline", str(path)]
    )
    state = SimpleNamespace(failing=set(), closed=False, fresh={})

    def replay(section):
        def run(**_kwargs):
            if section in state.failing:
                raise AssertionError(f"{section} missed its bar")
            return [_row(section, state.fresh.get(section, 2.0))]

        return run

    for section, (module, attr) in REPLAYS.items():
        monkeypatch.setattr(getattr(cpr, module), attr, replay(section))

    def close():
        state.closed = True

    monkeypatch.setattr(
        cpr.bench_perf_serve,
        "_build_service",
        lambda: (SimpleNamespace(close=close), 0.0),
    )
    return state


def test_all_pass_exits_zero(fake_benches, capsys):
    assert cpr.main() == 0
    out = capsys.readouterr().out
    for section in REPLAYS:
        assert _reported(section) in out, section
    assert "FAILED BAR" not in out
    assert fake_benches.closed


@pytest.mark.parametrize("failing", ["gbdt", "serve_latency"])
def test_failed_bar_still_prints_every_later_section(fake_benches, capsys, failing):
    fake_benches.failing.add(failing)
    assert cpr.main() == 1
    out = capsys.readouterr().out
    for section in REPLAYS:
        if section != failing:
            assert _reported(section) in out, section
    assert f"FAILED BAR {failing}: {failing} missed its bar" in out
    assert fake_benches.closed


def test_every_failed_bar_is_listed_and_ratio_regressions_still_count(
    fake_benches, capsys
):
    fake_benches.failing.update({"gbdt", "shard"})
    fake_benches.fresh["obs"] = 0.5
    assert cpr.main() == 1
    out = capsys.readouterr().out
    assert "FAILED BAR gbdt" in out and "FAILED BAR shard" in out
    regressed = "obs/quick: baseline 2.00x, fresh 0.50x (floor 1.00x) -> REGRESSED"
    assert regressed in out
    fake_benches.failing.clear()
    assert cpr.main() == 1  # the ratio regression alone still fails
