"""Label assembly: challenges -> changes -> synthetic (paper §4.3).

Label precedence follows the paper: successfully-challenged claims are
unserved and failed challenges served; quietly-removed claims (map diffs
not explained by a public challenge) are unserved; crowdsource-inferred
likely-served claims are served.  The per-provider/per-state balancing
lives in :mod:`repro.dataset.balance`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataset.likely_served import likely_served_claims
from repro.dataset.observations import LabelledDataset, LabelSource, Observation
from repro.fcc.bdc import AvailabilityTable, ClaimKey
from repro.fcc.challenges import ChallengeRecord
from repro.fcc.states import STATES

__all__ = ["LabelingInputs", "label_from_challenges", "label_from_changes", "build_labelled_dataset"]


def _claim_states(table: AvailabilityTable) -> dict[ClaimKey, str]:
    """State of each hex-level claim: a view of ``table.columnar()``."""
    claims = table.columnar()
    abbrs = [state.abbr for state in STATES]
    return {
        key: abbrs[state]
        for key, state in zip(claims.keys(), claims.state_idx.tolist())
    }


def label_from_challenges(
    challenges: list[ChallengeRecord],
    include_second_release: bool = False,
) -> list[Observation]:
    """Observations labelled by challenge outcomes.

    Successful challenge -> unserved; failed challenge -> served.  The
    paper restricts to the initial NBM release's challenge wave.
    """
    out = []
    for record in challenges:
        if record.major_release != 0 and not include_second_release:
            continue
        out.append(
            Observation(
                provider_id=record.provider_id,
                cell=record.cell,
                technology=record.technology,
                state=record.state,
                unserved=1 if record.succeeded else 0,
                source=LabelSource.CHALLENGE,
                fcc_adjudicated=record.fcc_adjudicated,
            )
        )
    return out


def label_from_changes(
    changes: frozenset[ClaimKey] | set[ClaimKey],
    claim_states: dict[ClaimKey, str],
) -> list[Observation]:
    """Observations from non-archived removals: all labelled unserved."""
    out = []
    for key in sorted(changes):
        state = claim_states.get(key)
        if state is None:
            continue
        out.append(
            Observation(
                provider_id=key[0],
                cell=key[1],
                technology=key[2],
                state=state,
                unserved=1,
                source=LabelSource.CHANGE,
            )
        )
    return out


@dataclass
class LabelingInputs:
    """Everything the labeller consumes (produced by the pipeline)."""

    table: AvailabilityTable
    challenges: list[ChallengeRecord]
    changes: frozenset[ClaimKey]
    coverage_scores: dict[int, float]
    localization: object  # MLabLocalization (duck-typed to avoid import cycle)


def build_labelled_dataset(
    inputs: LabelingInputs,
    use_challenges: bool = True,
    use_changes: bool = True,
    use_synthetic: bool = True,
    coverage_threshold: float = 1.0,
) -> LabelledDataset:
    """Assemble the labelled dataset from the selected sources.

    The source toggles drive the paper's Figure-7 ablation (challenges
    only; + changes; + synthetic; all).  Synthetic candidates are added by
    :mod:`repro.dataset.balance`; here they are appended unbalanced when
    requested without balancing — callers wanting the paper's balanced
    dataset should use :func:`repro.dataset.balance.balance_dataset`.
    """
    observations: list[Observation] = []
    claim_states = _claim_states(inputs.table)
    if use_challenges:
        observations.extend(label_from_challenges(inputs.challenges))
    if use_changes:
        observations.extend(label_from_changes(inputs.changes, claim_states))
    if use_synthetic:
        for key, _score in likely_served_claims(
            inputs.table,
            inputs.coverage_scores,
            inputs.localization,
            threshold=coverage_threshold,
        ):
            state = claim_states.get(key)
            if state is None:
                continue
            observations.append(
                Observation(
                    provider_id=key[0],
                    cell=key[1],
                    technology=key[2],
                    state=state,
                    unserved=0,
                    source=LabelSource.SYNTHETIC,
                )
            )
    return LabelledDataset(observations)
