"""Tests for the challenge-process simulator (Tables 2-3, Fig. 1-2)."""

from collections import Counter

import numpy as np
import pytest

from repro.fcc import (
    ChallengeConfig,
    ChallengeOutcome,
    ChallengeReason,
    outcome_distribution,
    reason_distribution,
    simulate_challenges,
)


def test_challenges_generated(small_challenges):
    assert len(small_challenges) > 100


def test_outcome_succeeded_semantics():
    assert ChallengeOutcome.PROVIDER_CONCEDED.succeeded
    assert ChallengeOutcome.SERVICE_CHANGED.succeeded
    assert ChallengeOutcome.FCC_UPHELD.succeeded
    assert not ChallengeOutcome.CHALLENGE_WITHDRAWN.succeeded
    assert not ChallengeOutcome.FCC_OVERTURNED.succeeded


def test_success_share_near_paper(small_challenges):
    # Paper Table 2: 69% of challenges succeed.
    dist = outcome_distribution(small_challenges)
    assert 55.0 <= dist["Successful"][1] <= 80.0


def test_outcome_distribution_sums(small_challenges):
    dist = outcome_distribution(small_challenges)
    assert dist["Successful"][1] + dist["Failed"][1] == pytest.approx(100.0)
    sub = sum(
        dist[o.value][1]
        for o in (
            ChallengeOutcome.PROVIDER_CONCEDED,
            ChallengeOutcome.SERVICE_CHANGED,
            ChallengeOutcome.FCC_UPHELD,
        )
    )
    assert sub == pytest.approx(dist["Successful"][1], abs=1e-9)


def test_reason_distribution_shape(small_challenges):
    # Paper Table 3: Technology Unavailable ~55%, Speeds Unavailable ~43%.
    dist = reason_distribution(small_challenges)
    top = list(dist.items())
    assert top[0][0] == ChallengeReason.TECHNOLOGY_UNAVAILABLE.value
    assert 45.0 <= top[0][1][1] <= 65.0
    assert top[1][0] == ChallengeReason.SPEEDS_UNAVAILABLE.value
    assert 33.0 <= top[1][1][1] <= 53.0


def test_state_concentration(small_challenges):
    # Paper Fig. 2: ten states carry ~90% of challenges.
    counts = Counter(c.state for c in small_challenges if c.major_release == 0)
    total = sum(counts.values())
    top10 = sum(v for _, v in counts.most_common(10))
    assert top10 / total > 0.75


def test_second_major_release_tiny(small_challenges):
    # Paper Fig. 1: the next release saw ~two orders of magnitude fewer.
    first = sum(1 for c in small_challenges if c.major_release == 0)
    second = sum(1 for c in small_challenges if c.major_release == 1)
    assert second < 0.05 * first


def test_fcc_adjudicated_flag_consistent(small_challenges):
    for record in small_challenges:
        if record.outcome in (ChallengeOutcome.FCC_UPHELD, ChallengeOutcome.FCC_OVERTURNED):
            assert record.fcc_adjudicated
        if record.outcome is ChallengeOutcome.PROVIDER_CONCEDED:
            assert not record.fcc_adjudicated


def test_fcc_adjudication_takes_longer(small_challenges):
    adjudicated = [c.resolved_release for c in small_challenges if c.fcc_adjudicated]
    conceded = [
        c.resolved_release
        for c in small_challenges
        if c.outcome is ChallengeOutcome.PROVIDER_CONCEDED
    ]
    assert np.mean(adjudicated) > np.mean(conceded)


def test_challenges_reference_real_claims(small_challenges, small_filings):
    claim_set = set(small_filings.columnar().keys())
    for record in small_challenges[:200]:
        assert record.claim_key in claim_set


def test_challenge_ids_unique(small_challenges):
    ids = [c.challenge_id for c in small_challenges]
    assert len(set(ids)) == len(ids)


def test_determinism(small_filings, small_universe):
    a = simulate_challenges(small_filings, small_universe, seed=11)
    b = simulate_challenges(small_filings, small_universe, seed=11)
    assert [(c.claim_key, c.outcome) for c in a] == [(c.claim_key, c.outcome) for c in b]


def test_config_validation():
    with pytest.raises(ValueError):
        ChallengeConfig(challenge_rate=1.5).validate()
    with pytest.raises(ValueError):
        ChallengeConfig(n_minor_releases=1).validate()


def test_wireless_draws_no_signal_reason(small_challenges):
    wireless = [c for c in small_challenges if c.technology in (70, 71)]
    wired = [c for c in small_challenges if c.technology in (10, 40, 50)]
    if wireless and wired:
        w_rate = np.mean([c.reason is ChallengeReason.NO_SIGNAL for c in wireless])
        d_rate = np.mean([c.reason is ChallengeReason.NO_SIGNAL for c in wired])
        assert w_rate >= d_rate
