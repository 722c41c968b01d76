"""Shard-parallel store building across ``multiprocessing`` workers.

The monolithic :meth:`ClaimScoreStore.build` scores ~10^5 claims in one
process; at national-shard scale the scoring loop is embarrassingly
parallel across shards.  This module runs it that way:

1. the parent saves three pickle-free bundles into a work directory —
   the frozen feature tables (:mod:`repro.store.bundle`; first, so a
   builder it refuses leaves the work directory untouched), the model
   artifacts (:mod:`repro.serve.artifacts`), and the sharded claim
   columns (:mod:`repro.store.sharded`);
2. each worker process receives only *paths* (safe under both ``fork``
   and ``spawn``), loads its shard read-only via mmap, rebuilds a frozen
   builder + classifier from the bundles, scores the shard with the
   shared :func:`repro.serve.store.score_claim_blocks` kernel, and
   writes a ``margin`` partial (atomic ``os.replace``);
3. the parent scatters the partials through each shard's
   ``global_rows`` into the monolithic margin array.

Because per-row scoring is independent of batch composition, the
stitched margins are bitwise-identical to a monolithic build — the
property the sharded equivalence suite pins.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile

import numpy as np

__all__ = ["build_sharded_margins", "score_shard_to_file"]

_MODEL_DIR = "model"
_FEATURES_DIR = "features"
_CLAIMS_DIR = "claims"
_MARGINS_DIR = "margins"


def score_shard_to_file(job: tuple) -> tuple[str, int]:
    """Worker entry point: score one shard from on-disk bundles.

    ``job`` is ``(workdir, shard_name, block_rows, binned)``.  Loads the
    sharded claims (mmap), the frozen feature tables, and the model
    artifacts from ``workdir``, scores the named shard, and writes
    ``margins/<shard>.npy`` atomically.  Returns the shard name and its
    row count.  Module-level and argument-picklable, so it runs under
    any ``multiprocessing`` start method.
    """
    from repro.serve.artifacts import load_model_artifacts
    from repro.serve.store import score_claim_blocks
    from repro.store.bundle import load_feature_tables
    from repro.store.sharded import ShardedClaimColumns

    workdir, shard_name, block_rows, binned = job
    sharded = ShardedClaimColumns.load(
        os.path.join(workdir, _CLAIMS_DIR), mmap=True
    )
    shard = sharded.shard(shard_name)
    builder = load_feature_tables(
        os.path.join(workdir, _FEATURES_DIR), claims=shard
    )
    artifacts = load_model_artifacts(os.path.join(workdir, _MODEL_DIR))
    margin = score_claim_blocks(
        artifacts.classifier,
        builder,
        shard,
        block_rows=block_rows,
        binned=binned,
    )
    out_dir = os.path.join(workdir, _MARGINS_DIR)
    os.makedirs(out_dir, exist_ok=True)
    final = os.path.join(out_dir, f"{shard_name}.npy")
    tmp = final + ".tmp.npy"
    np.save(tmp, margin)
    os.replace(tmp, final)
    return shard_name, int(len(shard))


def _default_start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def build_sharded_margins(
    classifier,
    builder,
    sharded,
    n_workers: int = 2,
    workdir: str | None = None,
    block_rows: int = 32_768,
    binned: bool = True,
    start_method: str | None = None,
) -> np.ndarray:
    """Monolithic-order margin array, scored shard-parallel.

    ``sharded`` is a :class:`~repro.store.sharded.ShardedClaimColumns`.
    ``n_workers <= 1`` runs the same per-shard pipeline in-process
    (still through the on-disk bundles, so worker loading stays covered
    by single-process tests).  ``workdir`` keeps the intermediate
    bundles when given; otherwise a temporary directory is used and
    removed.
    """
    from repro.serve.artifacts import save_model_artifacts
    from repro.store.bundle import save_feature_tables

    owns_workdir = workdir is None
    if owns_workdir:
        tmp = tempfile.TemporaryDirectory(prefix="shard-build-")
        workdir = tmp.name
    try:
        save_feature_tables(os.path.join(workdir, _FEATURES_DIR), builder)
        save_model_artifacts(os.path.join(workdir, _MODEL_DIR), classifier)
        sharded.save(os.path.join(workdir, _CLAIMS_DIR))
        jobs = [
            (workdir, name, int(block_rows), bool(binned))
            for name in sharded.shard_names
            if len(sharded.shard(name))
        ]
        if n_workers <= 1 or len(jobs) <= 1:
            for job in jobs:
                score_shard_to_file(job)
        else:
            ctx = multiprocessing.get_context(
                start_method or _default_start_method()
            )
            with ctx.Pool(processes=min(int(n_workers), len(jobs))) as pool:
                pool.map(score_shard_to_file, jobs)
        margin = np.empty(len(sharded))
        for _, name, _, _ in jobs:
            partial = np.load(
                os.path.join(workdir, _MARGINS_DIR, f"{name}.npy"),
                allow_pickle=False,
            )
            margin[sharded.global_rows(name)] = partial
        return margin
    finally:
        if owns_workdir:
            tmp.cleanup()
