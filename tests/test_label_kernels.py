"""Property tests: the columnar label kernels vs. their scalar oracle.

``likely_served_claims``, the challenge simulator's claim truth, the
labeller's claim states, the scenario mutators' claim truth and the
release timeline all read ``AvailabilityTable.columnar()`` and its cached
first filing rows.  Each must agree *bitwise* with the per-claim loops it
replaced (``tests/labels_oracle.py``): same keys, same order, same score
bits, same dtypes.  Cases: the tiny world, randomized tables with tied
coverage scores, cells with no score under thresholds at or below 0, an
empty coverage map, an empty table, and a localization rebuilt from
persisted counts (no attribution triples, as ``repro.store.bundle``
loads it).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import labels_oracle as oracle
from repro.dataset.labeling import _claim_states
from repro.dataset.likely_served import MLabLocalization, likely_served_claims
from repro.fcc.bdc import AvailabilityTable
from repro.fcc.challenges import (
    ChallengeOutcome,
    ChallengeReason,
    ChallengeRecord,
    _claim_truth_by_key,
)
from repro.fcc.releases import build_release_timeline
from repro.scenarios.mutators import _claim_truth

#: Few distinct values, so equal scores (and scores equal to the
#: threshold) are common.
_SCORES = (0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.5)
_THRESHOLDS = (-1.0, 0.0, 0.5, 1.0, 2.0)
_CELLS = np.uint64(2**63) + np.arange(10, dtype=np.uint64)


def _bits(pairs):
    """(key, score bits) pairs, with the key components' Python types."""
    return [
        (tuple((type(v).__name__, v) for v in key), float(score).hex())
        for key, score in pairs
    ]


def _persisted_localization(test_counts) -> MLabLocalization:
    """A localization as ``store.bundle`` rebuilds it: counts, no triples."""
    cells_by_provider = {}
    for pid, cell in test_counts:
        cells_by_provider.setdefault(pid, set()).add(cell)
    return MLabLocalization(
        cells_by_provider=cells_by_provider,
        test_counts=dict(test_counts),
        n_dropped_radius=0,
        n_dropped_unattributed=0,
    )


class _Universe:
    """The one provider attribute the timeline reads, per provider id."""

    class _Provider:
        def __init__(self, rate):
            self.self_correction_rate = rate

    def provider(self, provider_id):
        return self._Provider(0.15 * (provider_id % 7))


def _table(rng, n) -> AvailabilityTable:
    return AvailabilityTable(
        provider_id=rng.integers(1, 6, size=n).astype(np.int64),
        bsl_id=np.arange(n, dtype=np.int64),
        technology=rng.choice([10, 40, 50], size=n).astype(np.int16),
        cell=rng.choice(_CELLS[:8], size=n),
        state_idx=rng.integers(0, 56, size=n).astype(np.int16),
        max_download_mbps=rng.choice([0.0, 5.0, 25.0, 940.0], size=n),
        max_upload_mbps=rng.choice([0.0, 0.5, 3.0, 35.0], size=n),
        low_latency=rng.random(n) < 0.5,
        truly_served=rng.random(n) < 0.5,
    )


def _challenges(rng, table, n):
    """Challenge records against the table's claims (and one stray key)."""
    keys = oracle.unique_claims(table) + [(9, int(_CELLS[9]), 10)]
    outcomes = list(ChallengeOutcome)
    records = []
    for i in range(n):
        pid, cell, tech = keys[int(rng.integers(len(keys)))]
        records.append(ChallengeRecord(
            challenge_id=i, provider_id=pid, cell=cell, technology=tech,
            state="CA", n_bsls=1, reason=ChallengeReason.NO_SIGNAL,
            outcome=outcomes[int(rng.integers(len(outcomes)))],
            fcc_adjudicated=False, resolved_release=int(rng.integers(1, 7)),
            major_release=int(rng.random() < 0.2),
        ))
    return records


def assert_kernels_match_oracle(table, coverage_scores, localization, thresholds):
    for threshold in thresholds:
        got = likely_served_claims(table, coverage_scores, localization, threshold)
        want = oracle.likely_served_claims(table, coverage_scores, localization, threshold)
        assert _bits(got) == _bits(want), threshold

    assert np.array_equal(table.claim_first_rows(), oracle.claim_first_rows(table))
    assert list(_claim_states(table).items()) == list(oracle.claim_states(table).items())

    claims, truth, state_idx, n_bsls = _claim_truth_by_key(table)
    want_claims, want_truth, want_state, want_bsls = oracle.claim_truth_by_key(table)
    assert claims == want_claims
    for got, want in ((truth, want_truth), (state_idx, want_state), (n_bsls, want_bsls)):
        assert got.dtype == want.dtype and np.array_equal(got, want)

    claims, overclaimed, state_idx = _claim_truth(table)
    assert claims == want_claims
    assert np.array_equal(overclaimed, ~want_truth)
    assert np.array_equal(state_idx, table.state_idx[oracle.claim_first_rows(table)])


def test_tiny_world_matches_oracle(tiny_world):
    world = tiny_world
    # The configured threshold, and 0 (every unscored cell qualifies).
    threshold = world.config.coverage_threshold
    assert_kernels_match_oracle(
        world.table, world.coverage_scores, world.localization, (threshold, 0.0)
    )
    persisted = _persisted_localization(world.localization.test_counts)
    assert _bits(likely_served_claims(
        world.table, world.coverage_scores, persisted, threshold
    )) == _bits(oracle.likely_served_claims(
        world.table, world.coverage_scores, persisted, threshold
    ))


def test_tiny_world_timeline_matches_oracle(tiny_world):
    world = tiny_world
    args = (world.table, world.universe, world.challenges)
    kwargs = dict(
        n_minor_releases=world.config.challenges.n_minor_releases,
        seed=world.config.seed,
    )
    timeline = build_release_timeline(*args, **kwargs)
    expected = oracle.release_timeline(*args, **kwargs)
    assert timeline.initial_claims == expected.initial_claims
    assert timeline.removals == expected.removals
    assert timeline.removals == world.timeline.removals


def test_bundle_localization_matches_oracle(tiny_world, tiny_builder, tmp_path):
    from repro.store.bundle import load_feature_tables, save_feature_tables

    path = save_feature_tables(str(tmp_path / "tables"), tiny_builder)
    loaded = load_feature_tables(path, tiny_world.table.columnar())
    assert loaded.localization.triples is None
    threshold = tiny_world.config.coverage_threshold
    got = likely_served_claims(
        tiny_world.table, loaded.coverage_scores, loaded.localization, threshold
    )
    assert _bits(got) == _bits(oracle.likely_served_claims(
        tiny_world.table, loaded.coverage_scores, loaded.localization, threshold
    ))
    assert _bits(got) == _bits(likely_served_claims(
        tiny_world.table, tiny_world.coverage_scores, tiny_world.localization, threshold
    ))


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_random_tables_match_oracle(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    table = _table(rng, data.draw(st.integers(1, 80)))
    # Scores for a random subset of cells, some of them never filed.
    scored = _CELLS[rng.random(_CELLS.size) < data.draw(st.sampled_from((0.0, 0.5, 1.0)))]
    coverage = {int(c): float(rng.choice(_SCORES)) for c in scored}
    test_counts = {
        (int(pid), int(cell)): int(rng.integers(1, 4))
        for pid in range(1, 7)
        for cell in _CELLS
        if rng.random() < 0.4
    }
    assert_kernels_match_oracle(
        table, coverage, _persisted_localization(test_counts), _THRESHOLDS
    )

    universe = _Universe()
    challenges = _challenges(rng, table, int(rng.integers(0, 12)))
    seed = data.draw(st.integers(0, 1000))
    timeline = build_release_timeline(table, universe, challenges, 6, seed=seed)
    expected = oracle.release_timeline(table, universe, challenges, 6, seed=seed)
    assert timeline.initial_claims == expected.initial_claims
    assert timeline.removals == expected.removals


def test_tied_scores_keep_claim_key_order():
    rng = np.random.default_rng(3)
    table = _table(rng, 200)
    coverage = {int(c): 1.0 for c in _CELLS}
    localization = _persisted_localization(
        {(pid, int(c)): 1 for pid in range(1, 6) for c in _CELLS}
    )
    got = likely_served_claims(table, coverage, localization, threshold=1.0)
    assert len(got) == len(table.columnar())
    assert [key for key, _ in got] == oracle.unique_claims(table)


@pytest.mark.parametrize("threshold", [-1.0, 0.0, 1e-9])
def test_unscored_cells_score_zero(threshold):
    rng = np.random.default_rng(5)
    table = _table(rng, 60)
    localization = _persisted_localization(
        {(pid, int(c)): 1 for pid in range(1, 6) for c in _CELLS}
    )
    for coverage in ({}, {int(_CELLS[0]): 2.0}):
        got = likely_served_claims(table, coverage, localization, threshold)
        assert _bits(got) == _bits(
            oracle.likely_served_claims(table, coverage, localization, threshold)
        )
        unscored = [(key, s) for key, s in got if key[1] not in coverage]
        assert all(s == 0.0 for _, s in unscored)
        assert bool(unscored) == (threshold <= 0.0)


def test_empty_table():
    empty = _table(np.random.default_rng(0), 0)
    localization = _persisted_localization({(1, int(_CELLS[0])): 1})
    assert len(empty.columnar()) == 0
    assert empty.claim_first_rows().size == 0
    assert likely_served_claims(empty, {}, localization, threshold=0.0) == []
    assert _claim_states(empty) == {}
    claims, truth, state_idx, n_bsls = _claim_truth_by_key(empty)
    assert claims == [] and truth.size == state_idx.size == n_bsls.size == 0
    timeline = build_release_timeline(empty, _Universe(), [], 6)
    assert timeline.initial_claims == frozenset() and timeline.removals == []
