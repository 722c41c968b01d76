"""Scalar reference for the label layer's claim reductions.

These are the per-claim loops the label consumers replaced with gathers
over ``AvailabilityTable.columnar()``: a structured-array ``np.unique``
(or ``argsort``) over the filing rows, then one ``int(k["..."])`` tuple
per claim.  The likely-served filter probes a coverage dict and the
localization's per-provider cell sets one claim at a time and sorts the
survivors by ``(-score, key)``.  They are kept only as the oracle
``tests/test_label_kernels.py`` compares the columnar path against.
"""

from __future__ import annotations

import numpy as np

from repro.fcc.releases import RemovalCause, RemovalEvent, ReleaseTimeline
from repro.fcc.states import STATES
from repro.utils.rng import stream_rng


def _key(k) -> tuple[int, int, int]:
    return (int(k["provider_id"]), int(k["cell"]), int(k["technology"]))


def unique_claims(table) -> list[tuple[int, int, int]]:
    """Distinct hex-level claims (provider, cell, technology), sorted."""
    return [_key(k) for k in np.unique(table.claim_keys())]


def claim_first_rows(table) -> np.ndarray:
    """Each distinct claim's first filing row, in claim-key order."""
    return np.unique(table.claim_keys(), return_index=True)[1]


def claim_states(table) -> dict[tuple[int, int, int], str]:
    """State of each hex-level claim, from its first filing row."""
    out = {}
    uniq, first = np.unique(table.claim_keys(), return_index=True)
    for k, row in zip(uniq, first):
        out[_key(k)] = STATES[int(table.state_idx[row])].abbr
    return out


def claim_truth_by_key(table):
    """(claims, truth flag, state index, BSL count), one stable argsort."""
    keys = table.claim_keys()
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundaries = np.r_[
        0, np.where(sorted_keys[1:] != sorted_keys[:-1])[0] + 1, keys.size
    ]
    claims = []
    truth = np.empty(boundaries.size - 1, dtype=bool)
    state_idx = np.empty(boundaries.size - 1, dtype=np.int16)
    n_bsls = np.empty(boundaries.size - 1, dtype=np.int64)
    for i in range(boundaries.size - 1):
        row = order[boundaries[i]]
        claims.append(_key(keys[row]))
        truth[i] = table.truly_served[row]
        state_idx[i] = table.state_idx[row]
        n_bsls[i] = boundaries[i + 1] - boundaries[i]
    return claims, truth, state_idx, n_bsls


def likely_served_claims(table, coverage_scores, localization, threshold=1.0):
    """Claims whose cell scores >= threshold and saw a localized test."""
    out = []
    for key in unique_claims(table):
        pid, cell, _tech = key
        score = coverage_scores.get(cell, 0.0)
        if score < threshold:
            continue
        provider_cells = localization.cells_by_provider.get(pid)
        if not provider_cells or cell not in provider_cells:
            continue
        out.append((key, score))
    out.sort(key=lambda pair: (-pair[1], pair[0]))
    return out


def release_timeline(table, universe, challenges, n_minor_releases=24, seed=0):
    """The release history: challenge removals, then quiet removals in
    claim-key order, each overclaimed claim drawing from its own stream."""
    initial = frozenset(unique_claims(table))
    removals = []
    challenged_removed = set()
    for record in challenges:
        if record.major_release != 0 or not record.succeeded:
            continue
        key = record.claim_key
        if key in initial and key not in challenged_removed:
            challenged_removed.add(key)
            removals.append(
                RemovalEvent(key, record.resolved_release, RemovalCause.PUBLIC_CHALLENGE)
            )
    uniq, first_rows = np.unique(table.claim_keys(), return_index=True)
    for k, row in zip(uniq, first_rows):
        if table.truly_served[row]:
            continue
        key = _key(k)
        if key in challenged_removed:
            continue
        provider = universe.provider(key[0])
        rng = stream_rng(seed, "releases", key[0], key[1], key[2])
        if rng.random() < provider.self_correction_rate:
            release = int(rng.integers(2, n_minor_releases + 1))
            cause = (
                RemovalCause.FCC_QUALITY_CHECK
                if rng.random() < 0.5
                else RemovalCause.PROVIDER_SELF_CORRECTION
            )
            removals.append(RemovalEvent(key, release, cause))
    return ReleaseTimeline(
        initial_claims=initial, removals=removals, n_minor_releases=n_minor_releases
    )
