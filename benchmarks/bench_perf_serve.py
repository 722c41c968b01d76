"""Serving benchmark: lookup throughput, in-process and over the wire.

Builds the ``tiny`` world, trains the integrity model, precomputes the
:class:`~repro.serve.store.ClaimScoreStore` (timed — the deploy-time
cost), then measures two layers:

**In-process** (section ``serve``): sustained scored-lookups/sec through
the :class:`~repro.serve.service.AuditService` two ways over the same
key set:

* **single** — one ``score_claim`` call per key, the naive
  request-per-claim serving pattern (each call pays a queue round-trip,
  a 1-row composite-index probe, and a 1-row record build);
* **batched** — ``score_claims`` on the whole key array, the
  micro-batched pattern the HTTP layer reaches under concurrency (one
  vectorized index probe for every key).

Both paths are verified to return identical records; the acceptance bar
is batched throughput >= 5x single.

The same rows carry three ungated cold-start timings: ``import_seconds``
(the serving stack imported in a fresh subprocess), ``cold_walk_seconds``
(every record encoded by ``records_json`` in 1000-row pages on a freshly
loaded store, as a new server's first full walk does) and
``warm_walk_seconds`` (the same pass once the fragment cache is full).

**Over the wire** (section ``serve_http``): a live
:class:`~repro.serve.http.AuditHTTPServer` driven through one
keep-alive connection:

* **store** — the same key chunks through in-process
  ``ModelVersion.score_keys`` (what the batch route calls), no wire;
* **v2 batch** — ``POST /v2/claims:batchScore`` over the same chunks,
  verified to return the in-process results; ``http_vs_store`` is HTTP
  keys/s over in-process keys/s, so it exposes what the wire path
  (JSON decode/encode, framing, dispatch) costs on top of the store;
* **v2 list** — a cursor-paginated ``GET /v2/claims`` walk, recorded as
  rows/sec.

Results merge into ``BENCH_perf.json`` (sections ``serve`` and
``serve_http``), which ``check_perf_regression.py`` replays in CI.

Run standalone::

    python benchmarks/bench_perf_serve.py           # all sizes
    python benchmarks/bench_perf_serve.py --quick   # smallest only
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

import _perfutil

_perfutil.ensure_src_on_path()

import numpy as np  # noqa: E402

from repro.core import (  # noqa: E402
    NBMIntegrityModel,
    build_dataset,
    build_world,
    make_feature_builder,
    tiny,
)
from repro.dataset import random_observation_split  # noqa: E402
from repro.serve import AuditService, ClaimScoreStore  # noqa: E402

#: (name, number of scored lookups per timed pass).
SIZES = [("quick", 2_000), ("default", 20_000)]

#: Rows per ``records_json`` call in the cold/warm walk timings.
WALK_PAGE = 1_000

#: Times the import probe runs; the median is kept.
IMPORT_RUNS = 3

_IMPORT_PROBE = (
    "import time; start = time.perf_counter(); "
    "import repro.serve, repro.serve.http; "
    "print(time.perf_counter() - start)"
)

#: (name, lookups per timed HTTP pass, claims per POST chunk, page limit).
HTTP_SIZES = [("quick", 4_000, 1_000, 500), ("default", 20_000, 1_000, 1_000)]


def _build_service():
    world = build_world(tiny(seed=7))
    dataset = build_dataset(world)
    builder = make_feature_builder(world)
    split = random_observation_split(dataset, seed=1)
    model = NBMIntegrityModel(builder, params=world.config.model).fit(
        dataset, split.train_idx
    )
    build_s, store = _perfutil.timed(
        lambda: ClaimScoreStore.build(model.classifier, builder)
    )
    # Cache off so both paths score every lookup (pure throughput, no
    # LRU hits); timer off so single calls flush deterministically.
    service = AuditService.from_model(
        model, store=store, cache_size=0, max_delay_s=0.0
    )
    return service, build_s


def _import_seconds() -> float:
    """Median seconds to import the serving stack in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=_perfutil._SRC)
    times = sorted(
        float(
            subprocess.run(
                [sys.executable, "-c", _IMPORT_PROBE],
                capture_output=True, text=True, check=True, env=env,
            ).stdout
        )
        for _ in range(IMPORT_RUNS)
    )
    return times[len(times) // 2]


def _walk_seconds(store: ClaimScoreStore) -> tuple[float, float]:
    """A full ``records_json`` pass on a freshly loaded copy of ``store``
    (every fragment encoded), then the same pass from the full cache."""
    with tempfile.TemporaryDirectory() as root:
        store.save_sharded(root)
        fresh = ClaimScoreStore.load_sharded(root)
        pages = [
            fresh.sus_order[start : start + WALK_PAGE]
            for start in range(0, len(fresh), WALK_PAGE)
        ]

        def _walk():
            for rows in pages:
                fresh.records_json(rows)

        cold_s, _ = _perfutil.timed(_walk)
        warm_s, _ = _perfutil.timed(_walk, repeats=3)
    return cold_s, warm_s


def run(quick: bool = False, service=None, build_s: float | None = None) -> list[dict]:
    """In-process lookups.  ``service`` lets a caller (``main``,
    ``check_perf_regression``) share one built world across ``run`` and
    ``run_http`` instead of paying the build twice; when given, the
    caller owns its lifecycle."""
    own_service = service is None
    if own_service:
        service, build_s = _build_service()
    store = service.store
    claims = store.claims
    n_claims = len(store)
    print(
        f"store: {n_claims:,} claims precomputed in {build_s:.2f}s "
        f"({n_claims / build_s:,.0f} claims/s)"
    )
    import_s = _import_seconds()
    cold_walk_s, warm_walk_s = _walk_seconds(store)
    print(
        f"cold start: import {import_s:.3f}s  records_json walk "
        f"cold {cold_walk_s:.3f}s / warm {warm_walk_s:.4f}s"
    )
    rng = np.random.default_rng(0)
    results = []
    for name, n_lookups in SIZES[:1] if quick else SIZES:
        rows = rng.integers(0, n_claims, size=n_lookups)
        pid = claims.provider_id[rows]
        cell = claims.cell[rows]
        tech = claims.technology[rows]

        def _single():
            return [
                service.score_claim(int(p), int(c), int(t))
                for p, c, t in zip(pid, cell, tech)
            ]

        single_s, single_records = _perfutil.timed(_single)
        batched_s, batched_records = _perfutil.timed(
            lambda: service.score_claims(pid, cell, tech), repeats=3
        )
        if single_records != batched_records:
            raise AssertionError(f"{name}: single and batched records diverged")
        row = {
            "size": name,
            "n_claims": n_claims,
            "n_lookups": n_lookups,
            "store_build_seconds": build_s,
            "single_seconds": single_s,
            "batched_seconds": batched_s,
            "single_lookups_per_s": n_lookups / single_s,
            "batched_lookups_per_s": n_lookups / batched_s,
            "lookup_speedup": single_s / batched_s,
            "import_seconds": import_s,
            "cold_walk_seconds": cold_walk_s,
            "warm_walk_seconds": warm_walk_s,
        }
        results.append(row)
        print(
            f"{name:8s} lookups={n_lookups:6d}  "
            f"single {row['single_lookups_per_s']:10,.0f}/s  "
            f"batched {row['batched_lookups_per_s']:10,.0f}/s  "
            f"({row['lookup_speedup']:.1f}x)"
        )
        if row["lookup_speedup"] < 5.0:
            raise AssertionError(
                f"{name}: micro-batched lookups only "
                f"{row['lookup_speedup']:.1f}x the single-claim path "
                "(acceptance bar is 5x)"
            )
    if own_service:
        service.close()
    return results


def _post_chunks(conn, path: str, chunks: list[bytes]) -> list[bytes]:
    """POST every chunk over one keep-alive connection; sanity-check 200s."""
    payloads = []
    for body in chunks:
        conn.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        payload = response.read()
        if response.status != 200:
            raise AssertionError(
                f"{path} returned {response.status}: {payload[:200]!r}"
            )
        payloads.append(payload)
    return payloads


def run_http(quick: bool = False, service=None) -> list[dict]:
    """The over-the-wire section: in-process ``score_keys`` vs the v2
    batch route on the same chunks, plus the paginated list walk,
    through a live server on one keep-alive connection.

    ``service`` shares an already-built world (see :func:`run`)."""
    import http.client
    import json
    import time

    from repro.serve import make_server
    from repro.serve.schemas import ClaimKey

    own_service = service is None
    if own_service:
        service, _build_s = _build_service()
    store = service.store
    claims = store.claims
    n_claims = len(store)
    server = make_server(service, port=0)
    import threading

    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    rng = np.random.default_rng(1)
    results = []
    try:
        conn = http.client.HTTPConnection(host, port, timeout=60)
        for name, n_lookups, chunk_rows, page_limit in (
            HTTP_SIZES[:1] if quick else HTTP_SIZES
        ):
            rows = rng.integers(0, n_claims, size=n_lookups)
            keys = [
                {
                    "provider_id": int(claims.provider_id[r]),
                    "cell": int(claims.cell[r]),
                    "technology": int(claims.technology[r]),
                }
                for r in rows
            ]
            starts = range(0, n_lookups, chunk_rows)
            chunks = [
                json.dumps({"claims": keys[start : start + chunk_rows]}).encode()
                for start in starts
            ]
            key_chunks = [
                [ClaimKey(**k) for k in keys[start : start + chunk_rows]]
                for start in starts
            ]
            version = service.registry.default
            # Warm both paths once, then best-of-3 timed passes.
            version.score_keys(key_chunks[0])
            _post_chunks(conn, "/v2/claims:batchScore", chunks[:1])
            store_s, in_process = _perfutil.timed(
                lambda: [version.score_keys(c)[0] for c in key_chunks], repeats=3
            )
            v2_s, payloads = _perfutil.timed(
                lambda: _post_chunks(conn, "/v2/claims:batchScore", chunks),
                repeats=3,
            )
            if [json.loads(p)["results"] for p in payloads] != in_process:
                raise AssertionError(
                    f"{name}: batchScore results differ from score_keys"
                )

            # Cursor-paginated walk: follow next_cursor to the end (but cap
            # the walked rows at n_lookups to keep the pass bounded).
            def _walk_pages() -> int:
                walked = 0
                path = f"/v2/claims?limit={page_limit}"
                while walked < n_lookups:
                    conn.request("GET", path)
                    response = conn.getresponse()
                    doc = json.loads(response.read())
                    if response.status != 200:
                        raise AssertionError(f"list walk failed: {doc}")
                    walked += len(doc["items"])
                    cursor = doc["next_cursor"]
                    if cursor is None:
                        break
                    path = f"/v2/claims?limit={page_limit}&cursor={cursor}"
                return walked

            start = time.perf_counter()
            paged_rows = _walk_pages()
            list_s = time.perf_counter() - start

            row = {
                "size": name,
                "n_claims": n_claims,
                "n_lookups": n_lookups,
                "batch_rows": chunk_rows,
                "store_seconds": store_s,
                "v2_batch_seconds": v2_s,
                "store_claims_per_s": n_lookups / store_s,
                "v2_batch_claims_per_s": n_lookups / v2_s,
                "http_vs_store": store_s / v2_s,
                "page_limit": page_limit,
                "paged_rows": paged_rows,
                "list_rows_per_s": paged_rows / list_s,
            }
            results.append(row)
            print(
                f"{name:8s} http lookups={n_lookups:6d}  "
                f"store {row['store_claims_per_s']:10,.0f}/s  "
                f"v2 {row['v2_batch_claims_per_s']:10,.0f}/s  "
                f"(http_vs_store {row['http_vs_store']:.2f})  "
                f"list {row['list_rows_per_s']:10,.0f} rows/s"
            )
        conn.close()
    finally:
        server.shutdown()
        server.server_close()
        if own_service:
            service.close()
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="run only the smallest size"
    )
    parser.add_argument(
        "--no-write", action="store_true", help="skip updating BENCH_perf.json"
    )
    args = parser.parse_args()
    service, build_s = _build_service()
    try:
        results = run(quick=args.quick, service=service, build_s=build_s)
        http_results = run_http(quick=args.quick, service=service)
    finally:
        service.close()
    if not args.no_write:
        _perfutil.merge_section(
            "serve", _perfutil.round_floats({"results": results})
        )
        _perfutil.merge_section(
            "serve_http", _perfutil.round_floats({"results": http_results})
        )
        print(f"wrote serve + serve_http sections to {_perfutil.BENCH_JSON}")


if __name__ == "__main__":
    main()
