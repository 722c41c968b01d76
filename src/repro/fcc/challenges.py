"""The BDC challenge process (paper §3 "Correcting the NBM", Tables 2-3).

Individuals and organizations dispute providers' availability claims; the
provider concedes or contests; unresolved disputes go to FCC adjudication.
This module simulates that lifecycle over the hex-level claims of an
initial filing round, calibrated to the paper's documented marginals:

* state participation is wildly skewed (Fig. 2): challenge volume follows
  the per-state campaign weights, with ~10 states carrying ~90 %;
* challengers have local knowledge, so challenged claims skew toward
  genuinely-overclaimed ones — the targeting bias is solved per state so
  that ~69 % of challenges succeed (Table 2);
* outcome mix matches Table 2 (conceded 39 %, service changed 22 %, FCC
  upheld 8 %, withdrawn 15 %, FCC overturned 16 %) with a small FCC error
  rate that later shows up as label noise in the FCC-adjudicated holdout
  (paper Fig. 5b);
* challenge reasons follow Table 3, modulated by technology (wireless
  claims draw "No Signal", wireline draws installation failures).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.fcc.bdc import AvailabilityTable, ClaimKey
from repro.fcc.providers import ProviderUniverse
from repro.fcc.states import STATES, challenge_weights
from repro.utils.rng import stream_rng

__all__ = [
    "ChallengeOutcome",
    "ChallengeReason",
    "ChallengeRecord",
    "ChallengeConfig",
    "simulate_challenges",
    "outcome_distribution",
    "reason_distribution",
]


class ChallengeOutcome(enum.Enum):
    """Primary challenge outcomes (paper Table 2)."""

    PROVIDER_CONCEDED = "Provider Conceded"
    SERVICE_CHANGED = "Service Changed"
    FCC_UPHELD = "FCC Upheld"
    CHALLENGE_WITHDRAWN = "Challenge Withdrawn"
    FCC_OVERTURNED = "FCC Overturned"

    @property
    def succeeded(self) -> bool:
        """Whether the challenge removed/modified the provider's claim."""
        return self in (
            ChallengeOutcome.PROVIDER_CONCEDED,
            ChallengeOutcome.SERVICE_CHANGED,
            ChallengeOutcome.FCC_UPHELD,
        )


class ChallengeReason(enum.Enum):
    """Stated reasons for challenges (paper Table 3)."""

    TECHNOLOGY_UNAVAILABLE = "Technology Unavailable"
    SPEEDS_UNAVAILABLE = "Speed(s) Unavailable"
    SERVICE_REQUEST_DENIED = "Service Request Denied"
    NO_SIGNAL = "No Signal"
    HIGHER_FEE = "Asked Higher than Standard Connection Fee"
    NOT_WITHIN_10_DAYS = "Failed to Provide Service within 10 Biz-days"
    PROVIDER_NOT_READY = "Provider not Ready (dependency on new equipment)"
    INSTALL_TIMELINE = "Failed to Install Service within Timeline"


#: Baseline reason mix (Table 3 percentages).
_REASON_BASE = {
    ChallengeReason.TECHNOLOGY_UNAVAILABLE: 0.55,
    ChallengeReason.SPEEDS_UNAVAILABLE: 0.43,
    ChallengeReason.SERVICE_REQUEST_DENIED: 0.010,
    ChallengeReason.NO_SIGNAL: 0.008,
    ChallengeReason.HIGHER_FEE: 0.0008,
    ChallengeReason.NOT_WITHIN_10_DAYS: 0.0006,
    ChallengeReason.PROVIDER_NOT_READY: 0.0003,
    ChallengeReason.INSTALL_TIMELINE: 0.0003,
}


@dataclass(frozen=True)
class ChallengeRecord:
    """One resolved challenge against one hex-level claim."""

    challenge_id: int
    provider_id: int
    cell: int
    technology: int
    state: str
    n_bsls: int
    reason: ChallengeReason
    outcome: ChallengeOutcome
    #: True when the FCC (not the parties) decided the challenge.
    fcc_adjudicated: bool
    #: Minor-release index at which the resolution appears on the map.
    resolved_release: int
    #: Major NBM release the challenge targets (0 = initial, paper's focus).
    major_release: int

    @property
    def succeeded(self) -> bool:
        return self.outcome.succeeded

    @property
    def claim_key(self) -> ClaimKey:
        return (self.provider_id, self.cell, self.technology)


@dataclass(frozen=True)
class ChallengeConfig:
    """Calibration knobs for the challenge simulator."""

    #: Fraction of all hex-level claims that get challenged (initial NBM).
    #: Acts as a cap: state campaigns are additionally sized by how many
    #: suspicious claims their field data actually surfaces.
    challenge_rate: float = 0.12
    #: Target share of challenges that hit genuinely-overclaimed cells.
    target_success_share: float = 0.69
    #: P(service changed | disputed valid-seeming but false claim).
    service_changed_given_negotiated: float = 0.62
    #: P(FCC correctly upholds a challenge to a false claim).
    fcc_accuracy_on_false: float = 0.93
    #: P(FCC correctly overturns a challenge to a valid claim).
    fcc_accuracy_on_true: float = 0.93
    #: P(withdrawn | challenged claim is valid).
    withdrawn_given_true: float = 0.48
    #: In bulk campaign states, P(provider concedes or revises a challenged
    #: claim that is actually valid) — contesting thousands of challenges
    #: costs more than conceding marginal locations.  These concessions are
    #: the main source of label noise in challenge-derived datasets.
    bulk_concession_rate: float = 0.25
    #: Of bulk concessions, the share recorded as "Provider Conceded"
    #: (the rest appear as "Service Changed" filing revisions).
    bulk_conceded_share: float = 0.60
    #: Normalized state weight above which a state is a "campaign" state.
    campaign_weight_threshold: float = 0.03
    #: Campaign budgets are capped so genuinely-false claims make up at
    #: least this share of a campaign state's challenges.
    campaign_false_share: float = 0.60
    #: Number of bi-weekly minor releases in the simulated year.
    n_minor_releases: int = 24
    #: Relative challenge volume of the second major release (Fig. 1 shows
    #: ~two orders of magnitude fewer challenges than the initial release).
    second_release_volume_ratio: float = 0.013

    def validate(self) -> "ChallengeConfig":
        for name in (
            "challenge_rate",
            "target_success_share",
            "service_changed_given_negotiated",
            "fcc_accuracy_on_false",
            "fcc_accuracy_on_true",
            "withdrawn_given_true",
            "second_release_volume_ratio",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.n_minor_releases < 2:
            raise ValueError("n_minor_releases must be >= 2")
        return self


def _claim_truth_by_key(
    table: AvailabilityTable,
) -> tuple[list[ClaimKey], np.ndarray, np.ndarray, np.ndarray]:
    """Hex-level claims with truth flag, state index, and BSL count."""
    claims = table.columnar()
    truth = table.truly_served[table.claim_first_rows()]
    return claims.keys(), truth, claims.state_idx, claims.claimed_count


def _stratified_targets(
    rng: np.random.Generator,
    rows: np.ndarray,
    truth: np.ndarray,
    budget: int,
    target_success_share: float,
) -> np.ndarray:
    """Pick ``budget`` claims so ~``target_success_share`` are overclaimed.

    Challengers have local knowledge (field surveys, resident reports), so
    they overwhelmingly target claims that will fail; we sample the false
    and valid strata separately to hit the documented share.  When a
    state's false-claim pool runs dry (small states with aggressive
    campaigns), the remainder comes from valid claims — success rates
    degrade there exactly as they would in practice.
    """
    false_pool = rows[~truth[rows]]
    true_pool = rows[truth[rows]]
    n_false = min(int(round(target_success_share * budget)), false_pool.size)
    n_true = min(budget - n_false, true_pool.size)
    chosen = []
    if n_false:
        chosen.append(rng.choice(false_pool, size=n_false, replace=False))
    if n_true:
        chosen.append(rng.choice(true_pool, size=n_true, replace=False))
    if not chosen:
        return np.empty(0, dtype=rows.dtype)
    return np.concatenate(chosen)


def _draw_reason(rng: np.random.Generator, technology: int) -> ChallengeReason:
    reasons = list(_REASON_BASE.keys())
    probs = np.array([_REASON_BASE[r] for r in reasons])
    if technology in (70, 71):
        # Wireless: "No Signal" displaces some "Technology Unavailable".
        probs[reasons.index(ChallengeReason.NO_SIGNAL)] += 0.05
        probs[reasons.index(ChallengeReason.TECHNOLOGY_UNAVAILABLE)] -= 0.05
    probs = probs / probs.sum()
    return reasons[int(rng.choice(len(reasons), p=probs))]


def _resolve(
    rng: np.random.Generator,
    is_false_claim: bool,
    concede_propensity: float,
    config: ChallengeConfig,
    bulk_campaign: bool = False,
) -> tuple[ChallengeOutcome, bool, int]:
    """Resolve one challenge: (outcome, fcc_adjudicated, resolution delay).

    Delay is in minor releases: concessions land quickly, FCC adjudication
    takes up to seven months (paper §3).  In bulk campaign states a
    provider may concede even a *valid* claim rather than contest
    thousands of filings individually.
    """
    if is_false_claim:
        if rng.random() < concede_propensity:
            return ChallengeOutcome.PROVIDER_CONCEDED, False, int(rng.integers(1, 5))
        if rng.random() < config.service_changed_given_negotiated:
            return ChallengeOutcome.SERVICE_CHANGED, False, int(rng.integers(3, 9))
        if rng.random() < config.fcc_accuracy_on_false:
            return ChallengeOutcome.FCC_UPHELD, True, int(rng.integers(8, 15))
        return ChallengeOutcome.FCC_OVERTURNED, True, int(rng.integers(8, 15))
    if bulk_campaign and rng.random() < config.bulk_concession_rate:
        if rng.random() < config.bulk_conceded_share:
            return ChallengeOutcome.PROVIDER_CONCEDED, False, int(rng.integers(1, 5))
        return ChallengeOutcome.SERVICE_CHANGED, False, int(rng.integers(3, 9))
    if rng.random() < config.withdrawn_given_true:
        return ChallengeOutcome.CHALLENGE_WITHDRAWN, False, int(rng.integers(2, 7))
    if rng.random() < config.fcc_accuracy_on_true:
        return ChallengeOutcome.FCC_OVERTURNED, True, int(rng.integers(8, 15))
    return ChallengeOutcome.FCC_UPHELD, True, int(rng.integers(8, 15))


def simulate_challenges(
    table: AvailabilityTable,
    universe: ProviderUniverse,
    config: ChallengeConfig | None = None,
    seed: int = 0,
) -> list[ChallengeRecord]:
    """Run the challenge process over an initial filing round."""
    config = (config or ChallengeConfig()).validate()
    claims, truth, state_idx, n_bsls = _claim_truth_by_key(table)
    weights_by_state = challenge_weights()
    total_budget = int(round(config.challenge_rate * len(claims)))
    records: list[ChallengeRecord] = []
    challenge_id = 0

    state_rows: dict[int, np.ndarray] = {}
    for i, s in enumerate(STATES):
        rows = np.where(state_idx == i)[0]
        if rows.size:
            state_rows[i] = rows

    for i, rows in state_rows.items():
        state = STATES[i]
        rng = stream_rng(seed, "challenges", state.abbr)
        weight = weights_by_state[state.abbr]
        bulk_campaign = weight >= config.campaign_weight_threshold
        budget = int(round(total_budget * weight))
        # Outside campaign states, challengers only file what their field
        # evidence supports, so the budget is capped by the pool of
        # genuinely-suspicious claims.  Campaign states challenge at scale
        # regardless (and providers bulk-concede).
        false_pool = int((~truth[rows]).sum())
        floor_share = (
            config.campaign_false_share if bulk_campaign else config.target_success_share
        )
        cap = min(rows.size, int(round(false_pool / max(floor_share, 1e-9))))
        budget = min(budget, cap)
        if budget == 0:
            continue
        chosen = _stratified_targets(
            rng, rows, truth, budget, config.target_success_share
        )
        for row in chosen:
            pid, cell, tech = claims[row]
            provider = universe.provider(pid)
            outcome, adjudicated, delay = _resolve(
                rng, not truth[row], provider.concede_propensity, config,
                bulk_campaign=bulk_campaign,
            )
            records.append(
                ChallengeRecord(
                    challenge_id=challenge_id,
                    provider_id=pid,
                    cell=cell,
                    technology=tech,
                    state=state.abbr,
                    n_bsls=int(n_bsls[row]),
                    reason=_draw_reason(rng, tech),
                    outcome=outcome,
                    fcc_adjudicated=adjudicated,
                    resolved_release=min(delay, config.n_minor_releases),
                    major_release=0,
                )
            )
            challenge_id += 1

    # A thin second wave against the next major release (paper Fig. 1).
    rng = stream_rng(seed, "challenges", "second-release")
    n_second = int(round(len(records) * config.second_release_volume_ratio))
    if n_second and claims:
        idx = rng.choice(len(claims), size=min(n_second, len(claims)), replace=False)
        for row in idx:
            pid, cell, tech = claims[row]
            provider = universe.provider(pid)
            outcome, adjudicated, delay = _resolve(
                rng, not truth[row], provider.concede_propensity, config
            )
            records.append(
                ChallengeRecord(
                    challenge_id=challenge_id,
                    provider_id=pid,
                    cell=cell,
                    technology=tech,
                    state=STATES[int(state_idx[row])].abbr,
                    n_bsls=int(n_bsls[row]),
                    reason=_draw_reason(rng, tech),
                    outcome=outcome,
                    fcc_adjudicated=adjudicated,
                    resolved_release=min(delay, config.n_minor_releases),
                    major_release=1,
                )
            )
            challenge_id += 1
    return records


def outcome_distribution(records: list[ChallengeRecord]) -> dict[str, tuple[int, float]]:
    """BSL-weighted outcome counts and shares (paper Table 2 layout)."""
    totals: dict[ChallengeOutcome, int] = {o: 0 for o in ChallengeOutcome}
    for record in records:
        totals[record.outcome] += record.n_bsls
    grand = sum(totals.values()) or 1
    out = {}
    successful = sum(v for o, v in totals.items() if o.succeeded)
    failed = grand - successful
    out["Successful"] = (successful, 100.0 * successful / grand)
    for o in (
        ChallengeOutcome.PROVIDER_CONCEDED,
        ChallengeOutcome.SERVICE_CHANGED,
        ChallengeOutcome.FCC_UPHELD,
    ):
        out[o.value] = (totals[o], 100.0 * totals[o] / grand)
    out["Failed"] = (failed, 100.0 * failed / grand)
    for o in (ChallengeOutcome.CHALLENGE_WITHDRAWN, ChallengeOutcome.FCC_OVERTURNED):
        out[o.value] = (totals[o], 100.0 * totals[o] / grand)
    return out


def reason_distribution(records: list[ChallengeRecord]) -> dict[str, tuple[int, float]]:
    """Reason counts and shares (paper Table 3 layout)."""
    totals: dict[ChallengeReason, int] = {r: 0 for r in ChallengeReason}
    for record in records:
        totals[record.reason] += record.n_bsls
    grand = sum(totals.values()) or 1
    return {
        r.value: (totals[r], 100.0 * totals[r] / grand)
        for r in sorted(totals, key=lambda r: -totals[r])
    }
