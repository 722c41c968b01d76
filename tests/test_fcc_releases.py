"""Tests for NBM release timelines and map diffs."""

import pytest

from labels_oracle import unique_claims
from repro.fcc import (
    RemovalCause,
    build_release_timeline,
    diff_releases,
    infer_unarchived_changes,
)


def test_initial_release_has_all_claims(small_timeline, small_filings):
    assert small_timeline.claims_at(0) == frozenset(unique_claims(small_filings))


def test_claims_monotonically_shrink(small_timeline):
    previous = small_timeline.claims_at(0)
    for t in range(1, small_timeline.n_minor_releases + 1):
        current = small_timeline.claims_at(t)
        assert current <= previous
        previous = current


def test_successful_challenges_removed(small_timeline, small_challenges):
    final = small_timeline.final_claims
    for record in small_challenges:
        if record.major_release == 0 and record.succeeded:
            assert record.claim_key not in final


def test_failed_challenges_not_removed_by_challenge(small_timeline, small_challenges):
    # A failed challenge must never be the cause of a removal (the claim may
    # still disappear via a self-correction).
    for record in small_challenges[:300]:
        if record.major_release == 0 and not record.succeeded:
            cause = small_timeline.removal_cause(record.claim_key)
            assert cause is not RemovalCause.PUBLIC_CHALLENGE


def test_diff_releases_matches_removals(small_timeline):
    diff = diff_releases(small_timeline, 0, small_timeline.n_minor_releases)
    assert diff.removed == small_timeline.claims_at(0) - small_timeline.final_claims
    assert diff.added == frozenset()


def test_diff_rejects_reversed_range(small_timeline):
    with pytest.raises(ValueError):
        diff_releases(small_timeline, 5, 2)


def test_claims_at_bounds(small_timeline):
    with pytest.raises(ValueError):
        small_timeline.claims_at(-1)
    with pytest.raises(ValueError):
        small_timeline.claims_at(small_timeline.n_minor_releases + 1)


def test_inferred_changes_disjoint_from_public_challenges(
    small_timeline, small_challenges
):
    inferred = infer_unarchived_changes(small_timeline, small_challenges)
    publicly_removed = {
        c.claim_key for c in small_challenges if c.major_release == 0 and c.succeeded
    }
    assert not (inferred & publicly_removed)


def test_inferred_changes_exist(small_timeline, small_challenges):
    # Self-corrections should produce a meaningful pool of quiet removals
    # (paper: 185k extra observations, ~22% of the labelled data).
    inferred = infer_unarchived_changes(small_timeline, small_challenges)
    assert len(inferred) > 10


def test_censoring_of_early_removals(small_timeline, small_challenges):
    # Removals that happen before the first archived snapshot are invisible.
    all_window = infer_unarchived_changes(
        small_timeline, small_challenges, first_observed_release=0
    )
    censored = infer_unarchived_changes(
        small_timeline, small_challenges, first_observed_release=4
    )
    assert censored <= all_window


def test_determinism(small_filings, small_universe, small_challenges):
    a = build_release_timeline(small_filings, small_universe, small_challenges, seed=2)
    b = build_release_timeline(small_filings, small_universe, small_challenges, seed=2)
    assert {(e.claim, e.release_index) for e in a.removals} == {
        (e.claim, e.release_index) for e in b.removals
    }
