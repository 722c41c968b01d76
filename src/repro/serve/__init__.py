"""Online claim-audit serving: artifacts, score store, registry, API.

The training side of the reproduction ends with a fitted
:class:`~repro.core.model.NBMIntegrityModel` bound to a live simulated
world.  This package turns that into a *serving* system — the consumption
pattern of the Texas Broadband Truth Map and BQT-style policymaker query
tools, and the ROADMAP's heavy-traffic north star:

=======================  ====================================================
Module                   Role
=======================  ====================================================
:mod:`~repro.serve.artifacts`  versioned on-disk model bundle (npz arrays +
                               JSON manifest, no pickle) with bitwise-exact
                               round-trips
:mod:`~repro.serve.store`      :class:`ClaimScoreStore` — every distinct
                               claim scored once through the binned path;
                               frozen score/percentile/top-k arrays plus
                               cursor pagination over the suspicion order
:mod:`~repro.serve.batcher`    :class:`MicroBatcher` — coalesces concurrent
                               single-claim requests into one vectorized
                               batch per flush, with an LRU result cache
:mod:`~repro.serve.schemas`    typed request/response dataclasses
                               (:class:`ClaimKey`, :class:`ScoreRecord`,
                               :class:`Page`, batch request/response) with
                               canonical JSON encode/decode + cursor codec
:mod:`~repro.serve.registry`   :class:`ModelRegistry` — named (model, store)
                               versions with atomic hot-swap of the default
                               and per-version stats
:mod:`~repro.serve.service`    :class:`AuditService` — the query facade
                               (claim lookups, filtered top-k, pagination,
                               summaries), bound through the registry
:mod:`~repro.serve.router`     declarative route table (method, pattern,
                               typed query spec, handler)
:mod:`~repro.serve.resilience` overload safety: admission control (bounded
                               queues, 429 + Retry-After), per-request
                               deadlines, a cold-path circuit breaker, and
                               deterministic fault injection for chaos tests
:mod:`~repro.serve.http`       stdlib JSON HTTP API: versioned ``/v2``
                               resource routes behind the admission gate
:mod:`~repro.serve.workers`    :class:`WorkerPool` — pre-fork multi-process
                               serving over shared mmap'd stores
                               (``SO_REUSEPORT`` accept balancing, two-phase
                               fleet hot-swap, respawn supervision, merged
                               fleet ``/metrics``)
=======================  ====================================================

The matching client SDK lives in :mod:`repro.client`.
"""

from repro.serve.artifacts import (
    ModelArtifacts,
    load_model_artifacts,
    save_model_artifacts,
)
from repro.serve.batcher import BatcherStats, MicroBatcher
from repro.serve.http import (
    DEFAULT_PAGE_LIMIT,
    MAX_BODY_BYTES,
    MAX_RESULT_ROWS,
    AuditHTTPServer,
    build_router,
    make_server,
)
from repro.serve.registry import ModelRegistry, ModelVersion
from repro.serve.resilience import (
    AdmissionController,
    CircuitBreaker,
    ColdPathDegraded,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ResilienceConfig,
    ServiceOverloaded,
    ServiceUnavailable,
    chaos_plan,
    chaos_plan_names,
)
from repro.serve.router import (
    ApiError,
    BadRequest,
    NotFound,
    PayloadTooLarge,
    QueryParam,
    RequestTimeout,
    Route,
    Router,
)
from repro.serve.schemas import (
    BatchScoreRequest,
    BatchScoreResponse,
    ClaimKey,
    ErrorBody,
    Page,
    SchemaError,
    ScoreRecord,
    decode_cursor,
    encode_cursor,
)
from repro.serve.service import AuditService
from repro.serve.store import ClaimScoreStore
from repro.serve.workers import WorkerPool, WorkerVersionSpec, reuse_port_available

__all__ = [
    "ModelArtifacts",
    "load_model_artifacts",
    "save_model_artifacts",
    "BatcherStats",
    "MicroBatcher",
    "AuditHTTPServer",
    "build_router",
    "make_server",
    "DEFAULT_PAGE_LIMIT",
    "MAX_BODY_BYTES",
    "MAX_RESULT_ROWS",
    "ModelRegistry",
    "ModelVersion",
    "AdmissionController",
    "CircuitBreaker",
    "ColdPathDegraded",
    "Deadline",
    "DeadlineExceeded",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "ResilienceConfig",
    "ServiceOverloaded",
    "ServiceUnavailable",
    "chaos_plan",
    "chaos_plan_names",
    "ApiError",
    "BadRequest",
    "NotFound",
    "PayloadTooLarge",
    "QueryParam",
    "RequestTimeout",
    "Route",
    "Router",
    "BatchScoreRequest",
    "BatchScoreResponse",
    "ClaimKey",
    "ErrorBody",
    "Page",
    "SchemaError",
    "ScoreRecord",
    "decode_cursor",
    "encode_cursor",
    "AuditService",
    "ClaimScoreStore",
    "WorkerPool",
    "WorkerVersionSpec",
    "reuse_port_available",
]
