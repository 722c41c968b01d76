"""World fingerprint: the tiny(7) world hashes to one committed digest.

``test_scenarios_seed_stability.py`` checks that two builds of a world
agree with each other; it cannot see a change that moves both builds the
same way.  A drift in a simulator's RNG stream (a reordered draw, a
skipped ``rng.choice``, a different sort) would change every downstream
artifact silently, so this test pins the simulated world itself: the
filing columns, every footprint (sorted), the Ookla tiles, their hex
re-projection and the coverage scores hash to ``EXPECTED_DIGEST``.

The digest was recorded before the simulator's hot loops were rewritten
as array kernels; a refactor that claims to keep the world bitwise
identical must keep it.  A change that moves the world on purpose
updates the digest and says why.
"""

import hashlib

import numpy as np

EXPECTED_DIGEST = "52a5e6db21df2fdc4c287718ac28f2856a3a4b06ffc5eb2253373d409892d1cb"

_TABLE_ARRAYS = (
    "provider_id",
    "bsl_id",
    "technology",
    "cell",
    "state_idx",
    "max_download_mbps",
    "max_upload_mbps",
    "low_latency",
    "truly_served",
)


def _floats(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def world_fingerprint(world) -> str:
    """SHA-256 over the simulator's artifacts, in a canonical order."""
    h = hashlib.sha256()

    def _update(tag: str, payload: bytes) -> None:
        h.update(tag.encode())
        h.update(len(payload).to_bytes(8, "little"))
        h.update(payload)

    for name in _TABLE_ARRAYS:
        array = getattr(world.table, name)
        _update(f"table.{name}:{array.dtype.str}", array.tobytes())

    for key in sorted(world.universe.footprints):
        fp = world.universe.footprints[key]
        _update(f"footprint{key!r}.true", np.array(sorted(fp.true_cells), dtype=np.uint64).tobytes())
        _update(f"footprint{key!r}.claimed", np.array(sorted(fp.claimed_cells), dtype=np.uint64).tobytes())

    tiles = world.ookla_tiles
    _update("ookla.quadkey", "\n".join(t.quadkey for t in tiles).encode())
    _update("ookla.tests", np.array([t.tests for t in tiles], dtype=np.int64).tobytes())
    _update("ookla.devices", np.array([t.devices for t in tiles], dtype=np.int64).tobytes())
    _update("ookla.down", _floats([t.avg_download_kbps for t in tiles]))
    _update("ookla.up", _floats([t.avg_upload_kbps for t in tiles]))
    _update("ookla.latency", _floats([t.avg_latency_ms for t in tiles]))

    aggs = [world.hex_aggregates[c] for c in sorted(world.hex_aggregates)]
    _update("hex.cell", np.array([a.cell for a in aggs], dtype=np.uint64).tobytes())
    _update("hex.tests", np.array([a.tests for a in aggs], dtype=np.int64).tobytes())
    _update("hex.devices", np.array([a.devices for a in aggs], dtype=np.int64).tobytes())
    _update("hex.down", _floats([a.max_avg_download_kbps for a in aggs]))
    _update("hex.up", _floats([a.max_avg_upload_kbps for a in aggs]))
    _update("hex.latency", _floats([a.min_avg_latency_ms for a in aggs]))
    _update("hex.sources", "\n".join(",".join(a.source_tiles) for a in aggs).encode())

    cells = sorted(world.coverage_scores)
    _update("coverage.cell", np.array(cells, dtype=np.uint64).tobytes())
    _update("coverage.score", _floats([world.coverage_scores[c] for c in cells]))
    return h.hexdigest()


def test_tiny_world_matches_committed_fingerprint(tiny_world):
    assert world_fingerprint(tiny_world) == EXPECTED_DIGEST
