"""Label fingerprint: the tiny(7) labels hash to one committed digest.

``tests/test_world_fingerprint.py`` pins the simulated world up to the
coverage scores.  This test pins what the label layer derives from it:
the challenge records, the release timeline's initial claim set and
removal events, the quiet-removal change set, the likely-served
candidates (with their scores, in rank order) and the ordered
observation sequence of ``build_dataset``.  A reordered sort, a flipped
threshold comparison or a different first-row convention changes the
digest even when every label count stays the same.

The digest was recorded before the label consumers were rewritten to
read the filing table's cached claim columns; a refactor that claims to
keep the labels bitwise identical must keep it.  A change that moves the
labels on purpose updates the digest and says why.
"""

import hashlib

from repro.dataset import likely_served_claims

EXPECTED_DIGEST = "184f34319873bb04b82ae4cab7b81219f689f3fff1ad49042059c4ea403636b4"


def _lines(rows) -> bytes:
    return "\n".join(",".join(str(v) for v in row) for row in rows).encode()


def label_fingerprint(world, dataset) -> str:
    """SHA-256 over the label layer's artifacts, in their own order."""
    h = hashlib.sha256()

    def _update(tag: str, payload: bytes) -> None:
        h.update(tag.encode())
        h.update(len(payload).to_bytes(8, "little"))
        h.update(payload)

    _update("challenges", _lines(
        (r.challenge_id, r.provider_id, r.cell, r.technology, r.state, r.n_bsls,
         r.reason.value, r.outcome.value, r.fcc_adjudicated, r.resolved_release,
         r.major_release)
        for r in world.challenges
    ))
    timeline = world.timeline
    _update("timeline.initial", _lines(sorted(timeline.initial_claims)))
    _update("timeline.removals", _lines(
        (*e.claim, e.release_index, e.cause.value) for e in timeline.removals
    ))
    _update("changes", _lines(sorted(world.changes)))
    candidates = likely_served_claims(
        world.table,
        world.coverage_scores,
        world.localization,
        threshold=world.config.coverage_threshold,
    )
    _update("likely_served", _lines((*key, score.hex()) for key, score in candidates))
    _update("observations", _lines(
        (o.provider_id, o.cell, o.technology, o.state, o.unserved, o.source.value)
        for o in dataset
    ))
    return h.hexdigest()


def test_tiny_labels_match_committed_fingerprint(tiny_world, tiny_dataset):
    assert label_fingerprint(tiny_world, tiny_dataset) == EXPECTED_DIGEST
