"""The authoritative catalog of metric and span names.

Every metric a :class:`~repro.obs.metrics.MetricsRegistry` will accept
must be declared here, and every span name a
:class:`~repro.obs.trace.Trace` will open must be declared in
``SPAN_CATALOG``.  ``tools/check_docs.py`` parses this module textually
(no imports) and fails CI when a catalog entry is missing from
``docs/OBSERVABILITY.md`` or when a registration call site in ``src/``
uses a name that is not in the catalog — so the catalog, the code, and
the docs cannot drift apart.

Keep the literals below plain (no computed keys): the docs checker
reads them with ``ast.literal_eval``.
"""

from __future__ import annotations

#: name -> (type, one-line description).  Types: counter | gauge | histogram.
METRIC_CATALOG: dict[str, tuple[str, str]] = {
    # -- serve/http.py --------------------------------------------------
    "http_requests_total": (
        "counter",
        "HTTP requests by route pattern, method, and status code.",
    ),
    "http_request_seconds": (
        "histogram",
        "End-to-end request latency per route pattern.",
    ),
    "http_deadline_expired_total": (
        "counter",
        "Requests rejected because their deadline expired in flight.",
    ),
    # -- serve/resilience.py --------------------------------------------
    "admission_admitted_total": (
        "counter",
        "Requests admitted through the per-version admission gate.",
    ),
    "admission_shed_total": (
        "counter",
        "Requests shed by the admission gate, by reason "
        "(queue_full | deadline).",
    ),
    "admission_peak_running": (
        "gauge",
        "High-water mark of concurrently running requests per gate.",
    ),
    "admission_peak_queued": (
        "gauge",
        "High-water mark of queued requests per gate.",
    ),
    "breaker_transitions_total": (
        "counter",
        "Circuit-breaker state transitions, by destination state.",
    ),
    # -- serve/registry.py ----------------------------------------------
    "model_requests_total": (
        "counter",
        "Requests resolved against a model version.",
    ),
    "model_scores_total": (
        "counter",
        "Claims scored per model version, by path "
        "(precomputed | cold).",
    ),
    # -- serve/batcher.py -----------------------------------------------
    "batcher_requests_total": (
        "counter",
        "Score requests submitted to the micro-batcher.",
    ),
    "batcher_cache_hits_total": (
        "counter",
        "Micro-batcher requests served from the LRU result cache.",
    ),
    "batcher_coalesced_total": (
        "counter",
        "Requests coalesced onto an already-pending identical payload.",
    ),
    "batcher_batches_total": (
        "counter",
        "Batches flushed by the micro-batcher.",
    ),
    "batcher_scored_total": (
        "counter",
        "Distinct payloads scored across all flushed batches.",
    ),
    "batcher_deadline_drops_total": (
        "counter",
        "Queued payloads dropped because their deadline expired.",
    ),
    "batcher_max_batch": (
        "gauge",
        "Largest batch flushed so far (high-water mark).",
    ),
    "batcher_batch_size": (
        "histogram",
        "Batch occupancy: payloads per flushed batch.",
    ),
    "batcher_flush_seconds": (
        "histogram",
        "Latency of a micro-batcher flush (scoring included).",
    ),
    # -- serve/store.py + store/sharded.py (process-wide) ---------------
    "store_lookups_total": (
        "counter",
        "Claim keys probed against a ClaimScoreStore.",
    ),
    "store_lookup_hits_total": (
        "counter",
        "Probed keys found in the precomputed score store.",
    ),
    "store_build_seconds": (
        "histogram",
        "Wall time to build a ClaimScoreStore from a fitted model.",
    ),
    "store_load_seconds": (
        "histogram",
        "Wall time to load a persisted store, by mode (mmap | eager).",
    ),
    "shard_build_seconds": (
        "histogram",
        "Sharded-store stage timings, by stage: split (per partition), "
        "write and load (per bundle).",
    ),
    # -- serve/workers.py (parent process of the pre-fork pool) ----------
    "pool_workers": (
        "gauge",
        "Live worker processes in the pre-fork serving pool.",
    ),
    "pool_worker_restarts_total": (
        "counter",
        "Worker processes respawned by the pool monitor after a death.",
    ),
    "pool_swaps_total": (
        "counter",
        "Fleet-wide two-phase model swaps, by outcome "
        "(committed | aborted).",
    ),
    # -- store/ingest.py (process-wide) ----------------------------------
    "ingest_rows_total": (
        "counter",
        "BDC ingestion rows, by outcome (read | ingested | rejected).",
    ),
    "ingest_rejected_total": (
        "counter",
        "Rows rejected during ingestion, by reason family.",
    ),
    "ingest_seconds": (
        "histogram",
        "Wall time of a full ingest_csv run (rows/s = rows_read / this).",
    ),
    # -- core/pipeline.py + core/model.py (process-wide) -----------------
    "pipeline_stage_seconds": (
        "histogram",
        "Wall time per build_world pipeline stage.",
    ),
    # -- enrich/truthmap.py + enrich/priority.py (process-wide) ----------
    "enrich_build_seconds": (
        "histogram",
        "Wall time per enrichment build stage (truthmap | priority).",
    ),
    "model_fit_seconds": (
        "histogram",
        "Wall time per NBMIntegrityModel.fit stage "
        "(vectorize | labels | fit).",
    ),
}

#: span name -> one-line description of what the span covers.
SPAN_CATALOG: dict[str, str] = {
    "request": "Root span: one HTTP request, route and method attached.",
    "admission": "Waiting on the per-version admission gate.",
    "parse_body": "Reading and JSON-decoding the request body.",
    "handler": "Route handler execution (everything below admission).",
    "store_lookup": "Vectorized probe of the precomputed score store.",
    "batcher_flush": "Micro-batcher flush, including batch scoring.",
    "cold_score": "Cold-path feature build + GBDT inference for misses.",
}
