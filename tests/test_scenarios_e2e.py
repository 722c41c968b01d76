"""End-to-end scenario suite: world → model → store → service per scenario.

Every registered scenario runs through the full production path and is
checked against (a) its metamorphic invariants and (b) the committed
golden metrics.  A two-scenario smoke subset runs in tier-1; the full
sweep and the intensity-monotonicity checks carry the ``slow`` marker
(CI runs them as a separate non-blocking job — see ``docs/TESTING.md``).
"""

import os

import numpy as np
import pytest

from repro import scenarios
from repro.scenarios.goldens import (
    compare_metrics,
    default_golden_path,
    load_goldens,
    to_golden,
)

#: The tier-1 smoke subset: one filing-side injection, one label-side
#: suppression — the two mutator families.
SMOKE_SCENARIOS = ("phantom_provider", "challenge_suppressed_state")

GOLDEN_PATH = default_golden_path(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _check(scenario_suite, name):
    run = scenario_suite.run(name)
    failures = scenarios.check_invariants(run, scenario_suite.baseline)
    assert not failures, f"{name}: " + "; ".join(failures)
    goldens = load_goldens(GOLDEN_PATH)
    assert name in goldens, f"{name} missing from goldens; run tools/refresh_goldens.py"
    drift = compare_metrics(to_golden(run.metrics), goldens[name])
    assert not drift, f"{name} drifted from goldens: " + "; ".join(drift)


@pytest.mark.parametrize("name", SMOKE_SCENARIOS)
def test_scenario_smoke(scenario_suite, name):
    _check(scenario_suite, name)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(set(scenarios.names()) - set(SMOKE_SCENARIOS)))
def test_scenario_full_sweep(scenario_suite, name):
    _check(scenario_suite, name)


def test_all_registered_scenarios_are_goldened():
    goldens = load_goldens(GOLDEN_PATH)
    assert sorted(goldens) == scenarios.names(), (
        "golden file out of sync with the registry; run tools/refresh_goldens.py"
    )


def test_smoke_scenario_service_answers_summaries(scenario_suite):
    run = scenario_suite.run("phantom_provider")
    (pid,) = run.scenario.target_provider_ids
    summary = run.service.provider_summary(pid)
    assert summary["n_claims"] == run.metrics.n_injected
    assert summary["mean_score"] > 0.0
    assert summary["top_claims"], "injected provider has no top claims"
    (stats,) = run.service.registry.describe()["versions"]
    assert stats["n_claims"] == run.metrics.n_claims


@pytest.mark.slow
@pytest.mark.parametrize("name", ("blanket_dsl_overclaim", "overclaim_surge"))
def test_intensity_monotonicity(scenario_suite, name):
    """Injecting more overclaims must not lower the targeted providers'
    mean suspicion percentile under the fixed reference classifier."""
    baseline = scenario_suite.baseline
    low = scenarios.run_scenario(name, baseline, intensity=0.5).metrics
    high = scenario_suite.run(name).metrics  # intensity 1.0, cached
    assert low.n_injected < high.n_injected
    assert high.ref_target_mean_percentile >= (
        low.ref_target_mean_percentile - scenarios.harness.MONOTONICITY_TOL
    ), (
        f"{name}: percentile fell from {low.ref_target_mean_percentile:.1f} "
        f"(intensity 0.5) to {high.ref_target_mean_percentile:.1f} (1.0)"
    )
    # And both dominate the unmutated world (intensity -> 0).
    if high.baseline_target_mean_percentile is not None:
        assert low.ref_target_mean_percentile >= (
            low.baseline_target_mean_percentile - scenarios.harness.MONOTONICITY_TOL
        )


@pytest.mark.slow
def test_scenario_run_is_deterministic(scenario_suite):
    """Two consecutive runs of one scenario produce identical worlds,
    bitwise-identical margins, and identical golden metrics."""
    first = scenario_suite.run("phantom_provider")
    again = scenarios.run_scenario("phantom_provider", scenario_suite.baseline)
    assert again.scenario.injected_keys == first.scenario.injected_keys
    assert np.array_equal(again.store.margin, first.store.margin)
    assert np.array_equal(again.ref_store.margin, first.ref_store.margin)
    assert to_golden(again.metrics) == to_golden(first.metrics)
