"""The sharded-equivalence property layer: sharded == monolithic, bitwise.

Two tiers:

* **Synthetic property tests** (hypothesis) over random-but-valid
  ``ClaimColumns`` tables: save/load round-trips are bitwise across
  every shard layout (per-state, ``k`` round-robin shards including
  ``k=1`` and ``k > n_states`` with empty shards, explicit maps), and
  the sharded composite-key lookup agrees with the monolithic index on
  hits and misses.  The bundle's crash-safety and corruption checks are
  shared by every persisted kind and live in ``tests/test_persist.py``.

* **Tiny-world equivalence** over the session model: scoring is
  invariant to the block size and to the per-state partition (each
  shard scored on its own reproduces the monolithic margin array
  bitwise), and a sharded store bundle serves the exact monolithic
  pagination walk.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_claims, mmap_backed
from repro.fcc.bdc import ClaimColumns
from repro.fcc.states import STATES
from repro.serve.store import ClaimScoreStore, score_claim_blocks
from repro.store import ShardedClaimColumns
from repro.utils import persist
from repro.utils.indexing import MultiColumnIndex

N_STATES = len(STATES)


def assert_claims_bitwise(a: ClaimColumns, b: ClaimColumns):
    for name, _ in ClaimColumns.EXPORT_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


# One strategy for "any supported shard layout".
shard_layouts = st.one_of(
    st.none(),
    st.integers(min_value=1, max_value=N_STATES + 8),
    st.just({s.abbr: ("west" if i % 2 else "east") for i, s in enumerate(STATES)}),
)


# -- synthetic property tests -------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), layout=shard_layouts, mmap=st.booleans())
def test_save_load_round_trip_bitwise(tmp_path_factory, seed, layout, mmap):
    """Splitting, saving, and loading reassembles the table bitwise."""
    claims = make_random_claims(seed, n=600)
    root = str(tmp_path_factory.mktemp("bundle"))
    sharded = ShardedClaimColumns.from_claims(claims, shards=layout)
    assert len(sharded) == len(claims)
    sharded.save(root)
    back = ShardedClaimColumns.load(root, mmap=mmap)
    assert back.shard_names == sharded.shard_names
    assert back.state_to_shard == sharded.state_to_shard
    for name in sharded.shard_names:
        assert_claims_bitwise(back.shard(name), sharded.shard(name))
        assert np.array_equal(back.global_rows(name), sharded.global_rows(name))
    assert_claims_bitwise(back.to_claims(), claims)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), layout=shard_layouts)
def test_positions_equivalence_hits_and_misses(seed, layout):
    """Sharded key lookup == monolithic index, for present and absent keys."""
    claims = make_random_claims(seed, n=500)
    sharded = ShardedClaimColumns.from_claims(claims, shards=layout)
    rng = np.random.default_rng(seed)
    hit_rows = rng.integers(0, len(claims), 40)
    pid = np.r_[claims.provider_id[hit_rows], [-1, 10**6]]
    cell = np.r_[claims.cell[hit_rows], [np.uint64(3), np.uint64(2**60)]]
    tech = np.r_[claims.technology[hit_rows], [50, 71]].astype(np.int16)
    expected = claims.positions(pid, cell, tech)
    assert np.array_equal(sharded.positions(pid, cell, tech), expected)
    # The first 40 probes were drawn from the table: all must be hits.
    assert (expected[:40] >= 0).all()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_persisted_index_survives_round_trip(tmp_path_factory, seed):
    """A loaded bundle answers lookups from the *persisted* index state."""
    claims = make_random_claims(seed, n=400)
    root = str(tmp_path_factory.mktemp("bundle"))
    sharded = ShardedClaimColumns.from_claims(claims, shards=3)
    sharded.save(root)
    back = ShardedClaimColumns.load(root)
    # from_state() populated the lazy slot at load time.
    assert object.__getattribute__(back.to_claims(), "_index") is not None
    for name in back.shard_names:
        live = sharded.shard(name)
        pos = back.positions(
            live.provider_id[:10], live.cell[:10], live.technology[:10]
        )
        assert np.array_equal(pos, sharded.global_rows(name)[:10])


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_keys=st.integers(0, 200),
)
def test_multi_column_index_state_round_trip(seed, n_keys):
    """export_state()/from_state() preserve lookup behaviour exactly."""
    rng = np.random.default_rng(seed)
    pid = np.sort(rng.integers(0, 50, n_keys)).astype(np.int64)
    cell = rng.integers(0, 2**52, n_keys).astype(np.uint64)
    tech = rng.integers(0, 80, n_keys).astype(np.int64)
    order = np.lexsort((tech, cell, pid))
    keys = np.stack(
        [pid[order].astype(np.uint64), cell[order], tech[order].astype(np.uint64)],
        axis=1,
    )
    keep = (
        np.r_[True, np.any(keys[1:] != keys[:-1], axis=1)]
        if n_keys
        else np.zeros(0, dtype=bool)
    )
    rows = order[keep]
    idx = MultiColumnIndex(pid[rows], cell[rows], tech[rows])
    back = MultiColumnIndex.from_state(idx.export_state())
    assert back.n_keys == idx.n_keys
    probe_pid = np.r_[pid[rows][:20], [-7]]
    probe_cell = np.r_[cell[rows][:20], [np.uint64(9)]]
    probe_tech = np.r_[tech[rows][:20], [50]]
    assert np.array_equal(
        back.positions(probe_pid, probe_cell, probe_tech),
        idx.positions(probe_pid, probe_cell, probe_tech),
    )


def test_from_state_rejects_malformed():
    idx = MultiColumnIndex(
        np.array([1, 2], dtype=np.int64),
        np.array([3, 4], dtype=np.uint64),
        np.array([5, 6], dtype=np.int64),
    )
    state = idx.export_state()
    with pytest.raises(ValueError):
        MultiColumnIndex.from_state(
            {k: v for k, v in state.items() if k != "pos_by_code"}
        )
    with pytest.raises(ValueError):
        MultiColumnIndex.from_state(
            {k: v for k, v in state.items() if k != "stage_0"}
        )


def test_generations_are_garbage_collected(tmp_path):
    claims = make_random_claims(14, n=150)
    root = str(tmp_path / "bundle")
    sharded = ShardedClaimColumns.from_claims(claims, shards=2)
    sharded.save(root)
    first_gen = persist.read_manifest(root)["generation"]
    sharded.save(root)
    second = persist.read_manifest(root)
    assert second["generation"] != first_gen
    gens = [d for d in os.listdir(root) if d.startswith("data-")]
    assert gens == [second["generation"]]
    # And the survivor still loads + verifies.
    persist.verify(root)
    assert_claims_bitwise(ShardedClaimColumns.load(root).to_claims(), claims)


def test_empty_table_round_trips(tmp_path):
    claims = make_random_claims(0, n=0)
    root = str(tmp_path / "bundle")
    ShardedClaimColumns.from_claims(claims, shards=4).save(root)
    back = ShardedClaimColumns.load(root)
    assert len(back) == 0
    assert all(len(back.shard(n)) == 0 for n in back.shard_names)
    assert back.positions(
        np.array([1], dtype=np.int64),
        np.array([2], dtype=np.uint64),
        np.array([50], dtype=np.int16),
    ).tolist() == [-1]


def test_inconsistent_partition_is_refused(tmp_path):
    """Offsets that do not delimit the shards over the table's rows are
    refused at load, not served as a wrong partition."""
    claims = make_random_claims(17, n=200)
    root = str(tmp_path / "bundle")
    ShardedClaimColumns.from_claims(claims, shards=3).save(root)
    path = os.path.join(
        root, persist.read_manifest(root)["files"]["shard_offsets"]["path"]
    )
    offsets = np.load(path)
    offsets[-1] -= 1  # same dtype and shape, so only the partition is off
    np.save(path, offsets)
    with pytest.raises(ValueError, match="do not delimit"):
        ShardedClaimColumns.load(root)


def test_partial_state_map_is_rejected():
    claims = make_random_claims(15, n=50)
    with pytest.raises(ValueError, match="every state"):
        ShardedClaimColumns.from_claims(claims, shards={"CA": "west"})
    with pytest.raises(ValueError, match=">= 1"):
        ShardedClaimColumns.from_claims(claims, shards=0)


def test_extra_arrays_round_trip_and_cannot_shadow(tmp_path):
    claims = make_random_claims(16, n=300)
    sharded = ShardedClaimColumns.from_claims(claims, shards=2)
    extras = {"margin": np.arange(len(claims), dtype=np.float64)}
    root = str(tmp_path / "bundle")
    sharded.save(root, extra_arrays=extras, extra_manifest={"store": {"k": 1}})
    manifest = persist.read_manifest(root)
    assert manifest["store"] == {"k": 1}
    back = ShardedClaimColumns.load(root)
    assert back.extra_arrays.keys() == {"margin"}
    assert np.array_equal(back.extra_arrays["margin"], extras["margin"])
    for key in ("cell", "shard_rows", "index/pos_by_code"):
        with pytest.raises(ValueError, match="shadows"):
            sharded.save(root, extra_arrays={key: np.zeros(len(claims))})
    with pytest.raises(ValueError, match="one entry per row"):
        sharded.save(root, extra_arrays={"margin": np.zeros(len(claims) - 1)})


# -- tiny-world equivalence ----------------------------------------------------


@pytest.fixture(scope="module")
def tiny_claims(tiny_builder):
    return tiny_builder.claims


def test_score_claim_blocks_is_block_size_invariant(
    tiny_model, tiny_builder, tiny_claims, tiny_score_store
):
    """The scoring kernel's margins do not depend on batch composition —
    the property that makes any row partition (blocks or per-state
    shards) bitwise-equivalent."""
    model, _ = tiny_model
    sub = tiny_claims.take(np.arange(0, len(tiny_claims.provider_id), 37))
    a = score_claim_blocks(model.classifier, tiny_builder, sub, block_rows=64)
    b = score_claim_blocks(model.classifier, tiny_builder, sub, block_rows=10_000)
    assert np.array_equal(a, b)
    rows = np.arange(0, len(tiny_claims.provider_id), 37)
    assert np.array_equal(a, tiny_score_store.margin[rows])
    # Each state's shard scored on its own and scattered back through
    # its global rows reproduces the whole-table margins.
    sharded = ShardedClaimColumns.from_claims(tiny_claims)
    stitched = np.full(len(tiny_claims), np.nan)
    for name in sharded.shard_names:
        stitched[sharded.global_rows(name)] = score_claim_blocks(
            model.classifier, tiny_builder, sharded.shard(name)
        )
    assert np.array_equal(stitched, tiny_score_store.margin)


def test_store_sharded_save_load_and_pagination(tmp_path, tiny_score_store):
    """A sharded store bundle serves the exact monolithic suspicion walk."""
    store = tiny_score_store
    root = str(tmp_path / "store")
    store.save_sharded(root, shards=6)
    back = ClaimScoreStore.load_sharded(root)
    assert np.array_equal(back.margin, store.margin)
    assert np.array_equal(back.sus_order, store.sus_order)
    assert back.etag == store.etag
    # Unfiltered pagination walk == sus_order, element for element.
    seen, rank = [], 0
    while rank is not None:
        rows, rank, total = back.page_suspicious(after_rank=rank, limit=997)
        seen.append(rows)
        assert total == len(store)
    assert np.array_equal(np.concatenate(seen), store.sus_order)
    # Filtered walk too.
    pid = int(store.claims.provider_id[int(store.sus_order[0])])
    expected = store.sus_order[
        (store.claims.provider_id == pid)[store.sus_order]
    ]
    seen, rank = [], 0
    while rank is not None:
        rows, rank, total = back.page_suspicious(
            after_rank=rank, limit=7, provider_id=pid
        )
        seen.append(rows)
        assert total == expected.size
    assert np.array_equal(np.concatenate(seen), expected)


def test_single_shard_store_serves_mmap_backed(tmp_path, tiny_score_store):
    """Every bundle loads zero-copy, whatever its shard layout: claims,
    margin and the derived arrays stay views over the mapped files,
    nothing is materialized, and the loaded store serves the built one's
    etag and records byte for byte."""
    built = tiny_score_store
    for layout in (1, None, 6):
        root = str(tmp_path / f"store-{layout}")
        built.save_sharded(root, shards=layout)
        back = ClaimScoreStore.load_sharded(root, mmap=True)
        for name, _ in ClaimColumns.EXPORT_FIELDS:
            assert mmap_backed(getattr(back.claims, name)), (layout, name)
        assert mmap_backed(back.margin), layout
        for arr in (back.score, back.sus_order, back.sus_rank,
                    back.percentile, back._sorted_margin):
            assert mmap_backed(arr), layout
        assert np.array_equal(back.margin, built.margin)
        assert back.etag == built.etag
        # Encode the built side uncached: the session store stays as is.
        assert [back.record_json(r) for r in range(len(back))] == [
            json.dumps(built.record(r)).encode("utf-8")
            for r in range(len(built))
        ], layout
    # mmap=False materializes plain arrays instead.
    eager = ClaimScoreStore.load_sharded(root, mmap=False)
    assert not mmap_backed(eager.claims.provider_id)
    assert np.array_equal(eager.margin, built.margin)


def test_bundle_file_count_is_independent_of_layout(tmp_path):
    """The state partition is metadata, not a copy of the table split
    into files: a score-store bundle holds the same files whatever
    ``shards`` says, empty shards included."""
    claims = make_random_claims(21, n=600)
    store = ClaimScoreStore(
        claims, np.random.default_rng(21).normal(size=len(claims))
    )
    layouts = {
        "per-state": None,
        "one": 1,
        "six": 6,
        "map": {s.abbr: ("west" if i % 2 else "east") for i, s in enumerate(STATES)},
        "more-than-states": N_STATES + 8,
    }
    counts = {}
    for label, layout in layouts.items():
        root = str(tmp_path / label)
        store.save_sharded(root, shards=layout)
        n_on_disk = sum(len(files) for _, _, files in os.walk(root))
        manifest = persist.read_manifest(root)
        assert n_on_disk == len(manifest["files"]) + 1, label  # + manifest
        counts[label] = n_on_disk
    assert len(set(counts.values())) == 1, counts
    assert counts["one"] <= 24, counts


def test_single_shard_bundle_persists_derived_arrays(tmp_path, tiny_score_store):
    """One-shard bundles carry the derived serving arrays (score, ranks,
    percentiles) so a forked worker pool shares the mapped pages instead
    of each process recomputing a private heap copy — and the persisted
    arrays are bitwise what the constructor would have derived."""
    root = str(tmp_path / "store")
    tiny_score_store.save_sharded(root, shards=1)
    back = ClaimScoreStore.load_sharded(root, mmap=True)
    # All five derived arrays came off the map, not a recompute.
    assert mmap_backed(back.score)
    assert mmap_backed(back.sus_order)
    assert mmap_backed(back.sus_rank)
    assert mmap_backed(back.percentile)
    assert mmap_backed(back._sorted_margin)
    for name in ClaimScoreStore._DERIVED_SPECS:
        a = getattr(back, "_sorted_margin" if name == "sorted_margin" else name)
        b = getattr(
            tiny_score_store,
            "_sorted_margin" if name == "sorted_margin" else name,
        )
        assert np.array_equal(a, b), name
        assert a.dtype == b.dtype, name
    # The loaded store serves identically (etag included).
    assert back.etag == tiny_score_store.etag
    # include_derived=False keeps the lean layout: load still works, via
    # the recompute path.
    lean_root = str(tmp_path / "lean")
    tiny_score_store.save_sharded(lean_root, shards=1, include_derived=False)
    lean = ClaimScoreStore.load_sharded(lean_root, mmap=True)
    assert not mmap_backed(lean.score)
    assert np.array_equal(lean.score, tiny_score_store.score)


def test_load_sharded_rejects_claims_only_bundle(tmp_path, tiny_claims):
    root = str(tmp_path / "bundle")
    ShardedClaimColumns.from_claims(tiny_claims, shards=2).save(root)
    with pytest.raises(ValueError, match="margin"):
        ClaimScoreStore.load_sharded(root)
