"""Sharded-store benchmark: ingest throughput and mmap reads.

Builds the ``tiny`` world + model once (shared with the serve bench via
``service=``), then measures the :mod:`repro.store` subsystem
(section ``shard``):

* **ingest** — :func:`repro.store.ingest_csv` rows/sec: the claims are
  exported as a BDC-shaped CSV and streamed back through the chunked
  parse/validate/dedup/commit pipeline (the deploy-time cost of
  standing up a shard bundle from a raw BDC release); a round trip that
  loses or rejects a row fails the run;
* **mmap lookups** — random-row record gathers against the *same*
  bundle opened ``mmap=True`` vs. ``mmap=False``
  (``mmap_lookup_ratio``, informational: it quantifies the cost of
  serving straight off mapped shard files instead of materialized
  arrays).

Run standalone::

    python benchmarks/bench_perf_shard.py           # all sizes
    python benchmarks/bench_perf_shard.py --quick   # smallest only
"""

from __future__ import annotations

import argparse
import os
import tempfile

import _perfutil

_perfutil.ensure_src_on_path()

import numpy as np  # noqa: E402

#: (name, claim-row stride, shard count).  The stride subsamples the
#: tiny world's ~130k claims so the quick variant stays CI-replayable.
SIZES = [("quick", 5, 2), ("default", 1, 4)]

_LOOKUP_ROWS = 20_000


def _lookup_pass(store, rows) -> float:
    claims = store.claims
    pid = claims.provider_id[rows]
    cell = claims.cell[rows]
    tech = claims.technology[rows]

    def _gather():
        pos = store.positions(pid, cell, tech)
        # Touch the score columns the way record serving does.
        return float(store.score[pos].sum() + store.margin[pos].sum())

    seconds, _ = _perfutil.timed(_gather, repeats=3)
    return seconds


def run(quick: bool = False, service=None) -> list[dict]:
    """The ``shard`` section rows.  ``service`` shares an already-built
    world (see ``bench_perf_serve._build_service``); when omitted one is
    built and closed locally."""
    import bench_perf_serve

    from repro.serve import ClaimScoreStore
    from repro.store import ingest_csv, write_bdc_csv

    own_service = service is None
    if own_service:
        service, _build_s = bench_perf_serve._build_service()
    cpu_count = os.cpu_count() or 1
    try:
        store = service.store
        results = []
        for name, stride, n_shards in SIZES[:1] if quick else SIZES:
            rows = np.arange(0, len(store), stride)
            claims = store.claims.take(rows)
            n = len(claims)
            with tempfile.TemporaryDirectory(prefix="bench-shard-") as td:
                csv_path = os.path.join(td, "claims.csv")
                write_bdc_csv(claims, csv_path)
                ingest_s, result = _perfutil.timed(
                    lambda: ingest_csv(
                        [csv_path], os.path.join(td, "ingested"), shards=n_shards
                    )
                )
                if result.n_ingested != n or result.n_rejected:
                    raise AssertionError(
                        f"{name}: ingest round-trip lost rows "
                        f"({result.n_ingested}/{n}, {result.n_rejected} rejected)"
                    )

                bundle = os.path.join(td, "bundle")
                ClaimScoreStore(claims, store.margin[rows]).save_sharded(
                    bundle, shards=1
                )
                mapped = ClaimScoreStore.load_sharded(bundle, mmap=True)
                eager = ClaimScoreStore.load_sharded(bundle, mmap=False)
                rng = np.random.default_rng(0)
                lookup_rows = rng.integers(0, n, size=_LOOKUP_ROWS)
                mmap_s = _lookup_pass(mapped, lookup_rows)
                eager_s = _lookup_pass(eager, lookup_rows)

            row = {
                "size": name,
                "n_claims": n,
                "n_shards": n_shards,
                "cpu_count": cpu_count,
                "ingest_seconds": ingest_s,
                "ingest_rows_per_s": n / ingest_s,
                "mmap_lookup_seconds": mmap_s,
                "eager_lookup_seconds": eager_s,
                "mmap_lookups_per_s": _LOOKUP_ROWS / mmap_s,
                "eager_lookups_per_s": _LOOKUP_ROWS / eager_s,
                "mmap_lookup_ratio": eager_s / mmap_s,
            }
            results.append(row)
            print(
                f"{name:8s} claims={n:7d} shards={n_shards}  "
                f"ingest {row['ingest_rows_per_s']:9,.0f} rows/s  "
                f"mmap {row['mmap_lookups_per_s']:9,.0f}/s "
                f"({row['mmap_lookup_ratio']:.2f}x eager)"
            )
        return results
    finally:
        if own_service:
            service.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smallest size only")
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="run the measurements and assertions without touching "
        "BENCH_perf.json",
    )
    args = parser.parse_args()
    results = run(quick=args.quick)
    if args.no_write:
        print(f"--no-write: skipped updating {_perfutil.BENCH_JSON}")
        return 0
    _perfutil.merge_section(
        "shard",
        _perfutil.round_floats({"results": results}),
    )
    print(f"wrote section 'shard' ({len(results)} rows) to {_perfutil.BENCH_JSON}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
