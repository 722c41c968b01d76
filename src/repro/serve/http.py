"""Dependency-free JSON HTTP API over :class:`~repro.serve.service.AuditService`.

Built on :class:`http.server.ThreadingHTTPServer` — one thread per
connection, which is exactly the shape the micro-batcher exploits:
concurrent single-claim handlers block on Futures while their requests
coalesce into one vectorized batch per flush.

Dispatch is a declarative route table (:mod:`repro.serve.router`): each
route declares its method, path pattern with ``{param}`` captures, and a
typed query-param spec.  Request/response payloads follow the typed
schemas of :mod:`repro.serve.schemas`, and every data route serves from
one atomic :class:`~repro.serve.registry.ModelVersion` snapshot, so
responses stay internally consistent across hot-swaps.

v2 routes (resource-oriented, the current surface)
--------------------------------------------------

====================================================  =======================
Route                                                 Response
====================================================  =======================
``GET /v2/claims/{provider_id}/{cell}/{technology}``  one claim's record
``[?state=XX]``                                       (``state`` enables the
                                                      cold path); 404 unknown
``GET /v2/claims?[filters]&limit=&cursor=``           cursor-paginated walk
                                                      of the suspicion order
                                                      (filters: provider_id,
                                                      state, technology,
                                                      cell)
``POST /v2/claims:batchScore``                        bulk scoring; body
                                                      ``{"claims": [...]}``
``GET /v2/analytics/priority?[state=XX]&limit=``      cursor-paginated audit-
``&cursor=``                                          priority walk (composite
                                                      suspicion/overstatement/
                                                      challenge ranking per
                                                      state × provider)
``GET /v2/providers/{provider_id}``                   provider score profile
``GET /v2/states/{abbr}``                             state score profile
``GET /v2/models``                                    registry versions +
                                                      per-version stats
``POST /v2/models/{name}:activate``                   atomic default swap
``GET /healthz``                                      liveness + limits +
                                                      admission/queue depths
``GET /readyz``                                       readiness; 503 +
                                                      ``Retry-After`` while a
                                                      hot-swap or store load
                                                      is in flight
``GET /metrics``                                      metric registries as
                                                      JSON, or Prometheus
                                                      text with
                                                      ``?format=prometheus``
====================================================  =======================

Observability (:mod:`repro.obs`)
--------------------------------

Every request gets a generated ``request_id``, echoed in the
``X-Request-Id`` response header, in every error body, and in the
structured access log (``verbose=True`` or the ``access_log`` sink).
Per-route request counters and latency histograms land in the service's
metric registry (``GET /metrics``).  Passing ``trace=1`` on any route
returns the request's span tree (admission -> parse_body -> handler ->
batcher/store spans) under a ``"trace"`` key.

Overload safety (:mod:`repro.serve.resilience`)
-----------------------------------------------

Data routes pass an **admission gate** before their body is read:
bounded per-version queues shed excess load as 429 + ``Retry-After``
instead of queueing unboundedly.  Every request carries a **deadline**
(``X-Request-Deadline-Ms`` header, else the server default); a budget
blown while queued or batched is dropped, not scored (503).  Cold-path
scoring sits behind a **circuit breaker** — when it trips, batch
responses degrade (``"degraded": true`` with ``None`` cold slots) rather
than fail.  Slow clients hit the socket read timeout and get a 408.
Meta routes (``/healthz``, ``/readyz``, ``/metrics``, ``/v2/models``,
activation) bypass admission: an operator must be able to observe and
fix an overloaded server *through* the overload.

Every failure is a JSON body ``{"error": "...", "request_id": "..."}``
— 400 for malformed parameters, bodies, or unknown states; 404 for
unknown routes and claims; 411 for ``Transfer-Encoding`` framing (bodies
need a ``Content-Length``); 413 for oversized bodies.  A traceback never
reaches the wire.

Example session (see ``examples/audit_service.py`` for a scripted one)::

    server = make_server(service, port=8350)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    # curl 'http://127.0.0.1:8350/v2/claims?state=TX&limit=10'
"""

from __future__ import annotations

import json
import math
import socket
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, unquote, urlsplit

from repro.obs.metrics import MetricsRegistry, get_metrics, render_prometheus
from repro.obs.trace import activate as activate_trace, new_request_id
from repro.obs.trace import span as obs_span
from repro.serve.registry import ModelVersion, state_index
from repro.serve.resilience import (
    AdmissionController,
    ColdPathDegraded,
    Deadline,
    DeadlineExceeded,
    InjectedFault,
    ResilienceConfig,
    ServiceOverloaded,
    ServiceUnavailable,
)
from repro.serve.router import (
    ApiError,
    BadRequest,
    LengthRequired,
    NotFound,
    PayloadTooLarge,
    QueryParam,
    Router,
    parse_query,
)
from repro.serve.schemas import (
    BatchScoreRequest,
    SchemaError,
    decode_cursor,
    encode_cursor,
    filter_fingerprint,
)
from repro.serve.service import AuditService

__all__ = [
    "AuditHTTPServer",
    "PlainTextResult",
    "RawJsonResult",
    "make_server",
    "build_router",
]

#: Cap on page limits and bulk-scoring request size.
MAX_RESULT_ROWS = 10_000

#: Cap on POST body size (a full 10k-claim bulk request fits comfortably).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Largest unread body an error response will drain to keep the
#: keep-alive connection usable (larger bodies just close instead).
MAX_DRAIN_BODY_BYTES = 1024 * 1024

#: Page size of ``GET /v2/claims`` when the client does not pass one.
DEFAULT_PAGE_LIMIT = 100

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class PlainTextResult:
    """Marker return type for handlers that serve text, not JSON
    (``GET /metrics?format=prometheus``)."""

    __slots__ = ("text", "content_type")

    def __init__(self, text: str, content_type: str = "text/plain; charset=utf-8"):
        self.text = text
        self.content_type = content_type


class RawJsonResult:
    """Marker return type for handlers that already hold the response as
    encoded JSON bytes (the paginated-walk fast path, which splices
    cached per-record fragments instead of re-encoding every page)."""

    __slots__ = ("body",)

    def __init__(self, body: bytes):
        self.body = body


def page_envelope_json(
    item_fragments: list[bytes],
    next_cursor: str | None,
    total: int,
    model_version: str,
) -> bytes:
    """Splice pre-encoded item fragments into the canonical v2 page
    envelope, byte-identical to ``json.dumps`` of the equivalent dict
    (``{"items": [...], "next_cursor": ..., "total": ...,
    "model_version": ...}`` with default separators)."""
    return (
        b'{"items": ['
        + b", ".join(item_fragments)
        + b"], "
        + (
            f'"next_cursor": {json.dumps(next_cursor)}, '
            f'"total": {int(total)}, '
            f'"model_version": {json.dumps(model_version)}}}'
        ).encode("utf-8")
    )


@dataclass
class RequestContext:
    """Everything one matched request needs, version-snapshotted."""

    service: AuditService
    path: dict[str, str]
    query: dict
    body: object | None = None
    #: This request's time budget (header-supplied or the server default).
    deadline: Deadline | None = None
    #: The server's admission controller (None when admission is off);
    #: here only so /healthz can report queue depths and shed counts.
    admission: AdmissionController | None = None
    #: Fleet metrics hook (pre-fork pool): a zero-arg callable returning
    #: merged ``MetricsRegistry.export_state`` dumps for every worker, or
    #: ``None`` when aggregation is unavailable (fall back to local).
    metrics_view: Callable[[], dict | None] | None = None
    #: True when ``?trace=1`` activated request tracing: handlers with a
    #: pre-encoded fast path must return a plain dict instead so the span
    #: tree can be attached to the response.
    tracing: bool = False
    _version: ModelVersion | None = field(default=None, repr=False)

    @property
    def version(self) -> ModelVersion:
        """The model version serving this request — resolved once, so the
        whole response is consistent with exactly one registry entry."""
        if self._version is None:
            self._version = self.service.registry.default
            self._version.count_request()
        return self._version

    def int_path(self, name: str) -> int:
        try:
            return int(self.path[name])
        except ValueError:
            raise BadRequest(f"path parameter {name!r} must be an integer") from None


# -- shared pieces ------------------------------------------------------------


def _require_cold_path(ctx: RequestContext, state) -> None:
    if state is not None and not ctx.version.cold_path_available:
        raise BadRequest(
            "cold-path scoring (state given) is unavailable: "
            "service has no live feature builder"
        )


# -- meta endpoints -----------------------------------------------------------


def _healthz(ctx: RequestContext):
    registry = ctx.service.registry
    version = registry.default
    doc = {
        "status": "ok",
        "n_claims": len(version.store),
        "limits": {
            "max_result_rows": MAX_RESULT_ROWS,
            "max_body_bytes": MAX_BODY_BYTES,
            "default_page_limit": DEFAULT_PAGE_LIMIT,
        },
        "ready": registry.ready,
        "batcher": version.batcher.stats.as_dict(),
    }
    if ctx.admission is not None:
        doc["admission"] = ctx.admission.describe()
    if version.breaker is not None:
        doc["breaker"] = version.breaker.describe()
    metrics = registry.metrics
    doc["metrics"] = {
        "http_requests_total": int(metrics.total("http_requests_total")),
        "model_requests_total": int(metrics.total("model_requests_total")),
        "admission_shed_total": int(metrics.total("admission_shed_total")),
        "batcher_batches_total": int(metrics.total("batcher_batches_total")),
    }
    return doc


def _metrics_endpoint(ctx: RequestContext):
    """``GET /metrics`` — the service registry (per-version serving
    series) merged with the process-wide registry (store/pipeline/ingest
    series), as JSON by default or Prometheus text with
    ``?format=prometheus``.

    Under a pre-fork pool, ``ctx.metrics_view`` supplies the *fleet*
    aggregate (counters summed, histograms merged bucket-wise, gauges
    per-worker-labelled); when the view is unset or momentarily fails,
    the response degrades to this worker's local registries."""
    fmt = ctx.query["format"] or "json"
    if fmt not in ("json", "prometheus"):
        raise BadRequest("format must be 'json' or 'prometheus'")
    extra: dict = {}
    view = ctx.metrics_view() if ctx.metrics_view is not None else None
    if view is not None:
        service_metrics = MetricsRegistry.from_state(view["service"])
        process_metrics = MetricsRegistry.from_state(view["process"])
        extra = {
            k: v for k, v in view.items() if k not in ("service", "process")
        }
    else:
        service_metrics = ctx.service.registry.metrics
        process_metrics = get_metrics()
    if fmt == "prometheus":
        return PlainTextResult(
            render_prometheus(service_metrics, process_metrics),
            content_type=PROMETHEUS_CONTENT_TYPE,
        )
    doc = {
        "service": service_metrics.snapshot(),
        "process": process_metrics.snapshot(),
    }
    doc.update(extra)
    return doc


def _readyz(ctx: RequestContext):
    """Readiness: 200 while serving normally, 503 + ``Retry-After``
    while a hot-swap or a store load is in flight (or no default model
    version exists yet)."""
    readiness = ctx.service.registry.readiness()
    if not readiness["ready"]:
        raise ServiceUnavailable(f"not ready: {readiness['reason']}")
    return readiness


# -- v2 resource routes -------------------------------------------------------


def _v2_claim(ctx: RequestContext):
    state = ctx.query["state"]
    _require_cold_path(ctx, state)
    record = ctx.version.score_claim(
        ctx.int_path("provider_id"),
        ctx.int_path("cell"),
        ctx.int_path("technology"),
        state,
        deadline=ctx.deadline,
    )
    if record is None:
        raise NotFound(
            "claim not in the score store (pass state=XX to score it "
            "as a hypothetical filing)"
        )
    return {"record": record, "model_version": ctx.version.name}


def _resume_rank(ctx: RequestContext, fingerprint: str) -> int:
    """Where a paginated walk resumes: rank 0 without a cursor, else the
    cursor's rank once it is proven to belong to this model version,
    this store build (etag), and this filter set."""
    token = ctx.query["cursor"]
    if token is None:
        return 0
    version = ctx.version
    cursor = decode_cursor(token)
    if cursor.version != version.name:
        raise BadRequest(
            f"cursor was issued for model version {cursor.version!r} "
            f"but the current default is {version.name!r}; restart "
            "the walk"
        )
    if cursor.etag != version.store.etag:
        raise BadRequest(
            f"cursor was issued for a different build of model "
            f"version {version.name!r}; restart the walk"
        )
    if cursor.fingerprint != fingerprint:
        raise BadRequest("cursor does not match the request filters")
    return cursor.rank


def _v2_claims_list(ctx: RequestContext):
    limit = ctx.query["limit"]
    if not 1 <= limit <= MAX_RESULT_ROWS:
        raise BadRequest(f"limit must be in [1, {MAX_RESULT_ROWS}]")
    state = ctx.query["state"]
    state_idx = state_index(state) if state is not None else None
    version = ctx.version
    fingerprint = filter_fingerprint(
        provider_id=ctx.query["provider_id"],
        state_idx=state_idx,
        technology=ctx.query["technology"],
        cell=ctx.query["cell"],
    )
    store = version.store
    rows, next_rank, total = store.page_suspicious(
        after_rank=_resume_rank(ctx, fingerprint),
        limit=limit,
        provider_id=ctx.query["provider_id"],
        state_idx=state_idx,
        technology=ctx.query["technology"],
        cell=ctx.query["cell"],
    )
    next_cursor = (
        None
        if next_rank is None
        else encode_cursor(version.name, next_rank, fingerprint, store.etag)
    )
    if not ctx.tracing:
        # Hot path at full-walk scale: record fragments are invariant for
        # a given store build, so each is JSON-encoded once (store-level
        # cache) and pages splice bytes instead of re-encoding rows.
        return RawJsonResult(
            page_envelope_json(
                store.records_json(rows), next_cursor, total, version.name
            )
        )
    # The canonical Page shape (schemas.Page.to_dict), assembled from the
    # store's record dicts directly — this is a hot path at full-walk
    # scale, so no dataclass round-trip per row.
    return {
        "items": store.records(rows),
        "next_cursor": next_cursor,
        "total": total,
        "model_version": version.name,
    }


def _v2_batch_score(ctx: RequestContext):
    request = BatchScoreRequest.from_dict(ctx.body, max_claims=MAX_RESULT_ROWS)
    _require_cold_path(
        ctx, next((k.state for k in request.claims if k.state is not None), None)
    )
    results, degraded = ctx.version.score_keys(
        list(request.claims), deadline=ctx.deadline
    )
    return {
        "results": results,
        "model_version": ctx.version.name,
        "degraded": degraded,
    }


def _v2_priority(ctx: RequestContext):
    """``GET /v2/analytics/priority`` — the audit-priority walk.

    Pages the composite (suspicion + overstatement + challenge-density)
    ranking of (state, provider) groups in descending priority, with the
    same cursor contract as the claims walk: cursors bind to the model
    version, the store build (etag), and the filter fingerprint.
    """
    limit = ctx.query["limit"]
    if not 1 <= limit <= MAX_RESULT_ROWS:
        raise BadRequest(f"limit must be in [1, {MAX_RESULT_ROWS}]")
    state = ctx.query["state"]
    state_idx = state_index(state) if state is not None else None
    version = ctx.version
    store = version.store
    # "resource" keys the fingerprint so a claims-walk cursor carrying
    # only a state filter can never validate against this route.
    fingerprint = filter_fingerprint(resource="priority", state_idx=state_idx)
    records, next_rank, total = ctx.service.priority_page(
        after_rank=_resume_rank(ctx, fingerprint),
        limit=limit,
        state=state,
        version=version.name,
    )
    next_cursor = (
        None
        if next_rank is None
        else encode_cursor(version.name, next_rank, fingerprint, store.etag)
    )
    return {
        "items": records,
        "next_cursor": next_cursor,
        "total": total,
        "model_version": version.name,
    }


def _v2_provider(ctx: RequestContext):
    pid = ctx.int_path("provider_id")
    summary = ctx.service.provider_summary(pid, version=ctx.version.name)
    return {**summary, "model_version": ctx.version.name}


def _v2_state(ctx: RequestContext):
    summary = ctx.service.state_summary(ctx.path["abbr"], version=ctx.version.name)
    return {**summary, "model_version": ctx.version.name}


def _v2_models(ctx: RequestContext):
    return ctx.service.registry.describe()


def _v2_activate(ctx: RequestContext):
    registry = ctx.service.registry
    previous = registry.default_name
    try:
        version = registry.activate(ctx.path["name"])
    except KeyError as exc:
        raise NotFound(str(exc.args[0])) from None
    return {"default": version.name, "previous": previous}


def build_router() -> Router:
    """The full route table: meta routes plus the v2 resources."""
    router = Router()
    router.add("GET", "/healthz", _healthz, admit=False)
    router.add("GET", "/readyz", _readyz, admit=False)
    router.add(
        "GET",
        "/metrics",
        _metrics_endpoint,
        admit=False,
        query=(QueryParam("format"),),
    )
    # v2 — resource-oriented, versioned, paginated.
    router.add(
        "GET",
        "/v2/claims/{provider_id}/{cell}/{technology}",
        _v2_claim,
        query=(QueryParam("state"),),
    )
    router.add(
        "GET",
        "/v2/claims",
        _v2_claims_list,
        query=(
            QueryParam("provider_id", "int"),
            QueryParam("state"),
            QueryParam("technology", "int"),
            QueryParam("cell", "int"),
            QueryParam("limit", "int", default=DEFAULT_PAGE_LIMIT),
            QueryParam("cursor"),
        ),
    )
    router.add("POST", "/v2/claims:batchScore", _v2_batch_score)
    router.add(
        "GET",
        "/v2/analytics/priority",
        _v2_priority,
        query=(
            QueryParam("state"),
            QueryParam("limit", "int", default=DEFAULT_PAGE_LIMIT),
            QueryParam("cursor"),
        ),
    )
    router.add("GET", "/v2/providers/{provider_id}", _v2_provider)
    router.add("GET", "/v2/states/{abbr}", _v2_state)
    router.add("GET", "/v2/models", _v2_models, admit=False)
    router.add("POST", "/v2/models/{name}:activate", _v2_activate, admit=False)
    return router


class AuditHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`AuditService`."""

    daemon_threads = True
    # The stdlib default listen backlog is 5: under an overload's
    # reconnect bursts, the SYN queue overflows and clients stall a full
    # retransmit timeout (~1s) — exactly when fast 429s matter most.
    request_queue_size = 128

    def __init__(
        self,
        address,
        service: AuditService,
        verbose: bool = False,
        resilience: ResilienceConfig | None = None,
        access_log: Callable[[dict], None] | None = None,
        reuse_port: bool = False,
        bind_and_activate: bool = True,
        metrics_view: Callable[[], dict | None] | None = None,
    ):
        self.service = service
        self.router = build_router()
        self.verbose = verbose
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        #: The service's metric registry — admission, per-route request
        #: counters, and latency histograms all land here so ``/metrics``
        #: serves one consistent view per service.
        self.metrics = service.registry.metrics
        self.admission = self.resilience.build_admission(metrics=self.metrics)
        #: Optional structured access-log sink: called with one dict per
        #: completed request (also logged as a JSON line when verbose).
        self.access_log = access_log
        #: Pre-fork pool hooks: ``reuse_port`` lets N workers each bind a
        #: listening socket on one shared port; ``metrics_view`` (a
        #: zero-arg callable returning merged ``export_state`` dumps, or
        #: None on failure) makes ``GET /metrics`` answer for the whole
        #: fleet instead of just this process.
        self.reuse_port = reuse_port
        self.metrics_view = metrics_view
        super().__init__(
            address, _AuditRequestHandler, bind_and_activate=bind_and_activate
        )

    def server_bind(self) -> None:
        if self.reuse_port:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()

    def adopt_socket(self, sock: socket.socket) -> None:
        """Serve on an inherited, already-listening socket.

        The pre-fork fallback when ``SO_REUSEPORT`` is unavailable: the
        parent binds + listens once and every forked worker adopts the
        same socket.  Construct with ``bind_and_activate=False``; the
        adopted socket replaces the unbound placeholder."""
        self.socket.close()
        self.socket = sock
        self.server_address = sock.getsockname()
        host, port = self.server_address[:2]
        self.server_name = host
        self.server_port = port


class _AuditRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve/2"
    protocol_version = "HTTP/1.1"
    # Responses go out as two small writes (headers, then body).  With
    # Nagle on, the body write sits behind the peer's delayed ACK —
    # a flat ~40ms tax on every sequential keep-alive request.
    disable_nagle_algorithm = True

    #: Per-request observability state (set at the top of ``_dispatch``;
    #: class-level defaults keep early failure paths safe).
    _request_id: str | None = None
    _obs_status: int = 500

    # -- plumbing -----------------------------------------------------------

    def setup(self) -> None:
        # StreamRequestHandler applies self.timeout to the connection in
        # super().setup(): a client that stalls mid-request then raises
        # TimeoutError from the read instead of pinning this thread.
        cfg = getattr(self.server, "resilience", None)
        if cfg is not None and cfg.socket_timeout_s is not None:
            self.timeout = cfg.socket_timeout_s
        super().setup()

    def log_message(self, fmt, *args):  # quiet by default
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    def _send_json(self, status: int, payload, headers: dict | None = None) -> None:
        self._send_bytes(
            status, json.dumps(payload).encode("utf-8"), "application/json", headers
        )

    def _send_text(self, status: int, result: PlainTextResult) -> None:
        self._send_bytes(
            status, result.text.encode("utf-8"), result.content_type, None
        )

    def _send_bytes(
        self, status: int, body: bytes, content_type: str, headers: dict | None
    ) -> None:
        self._obs_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._request_id is not None:
            self.send_header("X-Request-Id", self._request_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            # An error path left the request body unread: tell the client
            # this keep-alive socket is done rather than desyncing it.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str, headers: dict | None = None) -> None:
        # The request id makes a shed/timeout correlatable with the log.
        self._send_json(
            status, {"error": message, "request_id": self._request_id}, headers
        )

    def _retry_after(self, exc: Exception | None = None) -> dict:
        """``Retry-After`` header for shed/unavailable responses.

        RFC 9110 §10.2.3 only allows integer delta-seconds, so the
        configured float is *ceiled*: rounding 2.5s down to 2 (banker's
        rounding) would invite clients back before the window the server
        asked for has passed.
        """
        seconds = getattr(exc, "retry_after_s", None)
        if seconds is None:
            cfg = getattr(self.server, "resilience", None)
            seconds = cfg.retry_after_s if cfg is not None else 1.0
        return {"Retry-After": str(max(1, math.ceil(seconds)))}

    def _request_deadline(self) -> Deadline | None:
        """This request's budget: the ``X-Request-Deadline-Ms`` header
        when the client sent one, else the server default."""
        raw = self.headers.get("X-Request-Deadline-Ms")
        if raw is not None:
            try:
                ms = int(raw)
            except ValueError:
                raise BadRequest(
                    "X-Request-Deadline-Ms must be an integer number of "
                    "milliseconds"
                ) from None
            if ms <= 0:
                raise BadRequest("X-Request-Deadline-Ms must be positive")
            return Deadline.after(ms / 1000.0)
        cfg = getattr(self.server, "resilience", None)
        if cfg is not None and cfg.default_deadline_s is not None:
            return Deadline.after(cfg.default_deadline_s)
        return None

    def _discard_body(self) -> None:
        """Consume an unread request body so the keep-alive socket stays
        usable after an error response; close instead when the body is
        large (not worth reading to save a reconnect) or unreadable.

        This is what keeps shedding cheap under overload: a 429 that
        closed the connection would force every retry through a fresh
        TCP handshake against an already-saturated accept queue.
        """
        raw = self.headers.get("Content-Length")
        try:
            length = int(raw) if raw is not None else 0
        except ValueError:
            self.close_connection = True
            return
        if not 0 <= length <= MAX_DRAIN_BODY_BYTES:
            self.close_connection = True
            return
        try:
            drained = self.rfile.read(length)
        except (TimeoutError, OSError):
            self.close_connection = True
            return
        if len(drained) != length:  # truncated: the socket is poisoned
            self.close_connection = True

    def _body_length(self) -> int:
        """Validated Content-Length (400 on garbage, 413 on oversize).

        Every error path here leaves the request body unread, so the
        connection must not be reused: stale body bytes would be parsed
        as the next request line on this keep-alive socket.
        """
        raw = self.headers.get("Content-Length")
        if raw is None:
            return 0
        try:
            length = int(raw)
        except ValueError:
            self.close_connection = True
            raise BadRequest("Content-Length must be an integer") from None
        if length < 0:
            self.close_connection = True
            raise BadRequest("Content-Length must be >= 0")
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise PayloadTooLarge(f"request body exceeds {MAX_BODY_BYTES} bytes")
        return length

    # -- dispatch -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler name)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        url = urlsplit(self.path)
        self._request_id = new_request_id()
        self._obs_status = 500
        # The matched route's name; "unmatched" keeps 404 noise from
        # exploding the per-route label cardinality.
        route_label = "unmatched"
        start = time.perf_counter()
        # Until the request body has been drained, an error response must
        # close the connection: leftover body bytes on a keep-alive
        # socket would be parsed as the next request line.
        body_pending = method == "POST"
        ticket = None
        try:
            try:
                if self.headers.get("Transfer-Encoding") is not None:
                    # No chunked decoding here: the unread chunks would be
                    # parsed as the next request line, so refuse and close.
                    self.close_connection = True
                    body_pending = False
                    raise LengthRequired(
                        "Transfer-Encoding is not supported; send the body "
                        "with a Content-Length"
                    )
                matched = self.server.router.match(method, url.path)
                if matched is None:
                    raise NotFound(f"no route for {url.path}")
                route, path_params = matched
                route_label = route.name
                # Captured segments arrive percent-encoded (the SDK quotes
                # them); decode like parse_qs does for query values.
                path_params = {k: unquote(v) for k, v in path_params.items()}
                raw_query = parse_qs(url.query)
                query = parse_query(raw_query, route.query)
                # ``?trace=1`` opts any route into request tracing: the
                # span tree rides back on the response body.
                want_trace = raw_query.get("trace", ["0"])[-1] in ("1", "true")
                tracing = activate_trace(self._request_id) if want_trace else None
                tracer = tracing.__enter__() if tracing is not None else None
                try:
                    with obs_span("request", route=route.name, method=method):
                        deadline = self._request_deadline()
                        admission = getattr(self.server, "admission", None)
                        if route.admit and admission is not None:
                            # Admission happens BEFORE the body is read: a
                            # shed request costs a route match and a queue
                            # probe, not a 16 MiB body parse.  The unread
                            # body forces a connection close on the 429
                            # path (handled below via body_pending).
                            try:
                                key = self.server.service.registry.default_name
                            except RuntimeError:
                                raise ServiceUnavailable(
                                    "no default model version registered"
                                ) from None
                            with obs_span("admission"):
                                ticket = admission.admit(key, deadline)
                        body = None
                        if method == "POST":
                            length = self._body_length()
                            with obs_span("parse_body", bytes=length):
                                try:
                                    body = json.loads(
                                        self.rfile.read(length) or b"{}"
                                    )
                                except json.JSONDecodeError as exc:
                                    body_pending = False
                                    raise BadRequest(
                                        f"invalid JSON body: {exc}"
                                    ) from None
                            body_pending = False
                        ctx = RequestContext(
                            service=self.server.service,
                            path=path_params,
                            query=query,
                            body=body,
                            deadline=deadline,
                            admission=getattr(self.server, "admission", None),
                            metrics_view=getattr(self.server, "metrics_view", None),
                            tracing=tracer is not None,
                        )
                        with obs_span("handler", route=route.name):
                            result = route.handler(ctx)
                    if tracer is not None and isinstance(result, dict):
                        if "model_version" in result:
                            tracer.annotate(model_version=result["model_version"])
                        if "degraded" in result:
                            tracer.annotate(degraded=result["degraded"])
                        result = {**result, "trace": tracer.to_dict()}
                finally:
                    if tracing is not None:
                        tracing.__exit__(None, None, None)
                if isinstance(result, PlainTextResult):
                    self._send_text(200, result)
                elif isinstance(result, RawJsonResult):
                    self._send_bytes(200, result.body, "application/json", None)
                else:
                    self._send_json(200, result)
            finally:
                if ticket is not None:
                    ticket.release()
        except TimeoutError:
            # The client stalled sending its body (socket read timeout):
            # answer 408 and drop the connection — the body is truncated,
            # so the socket cannot be reused.
            self.close_connection = True
            self._error(
                408, "timed out reading the request body", self._retry_after()
            )
        except (ServiceOverloaded, ServiceUnavailable) as exc:
            if body_pending:
                self._discard_body()
            self._error(exc.status, str(exc), self._retry_after(exc))
        except ApiError as exc:
            if body_pending:
                self._discard_body()
            self._error(exc.status, str(exc))
        except DeadlineExceeded as exc:
            # The budget died after admission (queued batch, slow flush):
            # transient server-side congestion, so 503 + Retry-After —
            # never a 500, and never a half-scored body.
            self._count_deadline_expired(route_label)
            if body_pending:
                self._discard_body()
            self._error(503, str(exc), self._retry_after(exc))
        except (ColdPathDegraded, InjectedFault) as exc:
            # Infrastructure faults on paths with no precomputed result
            # to degrade to (e.g. a single cold claim): transient, 503.
            if body_pending:
                self._discard_body()
            self._error(503, f"transient serving failure: {exc}", self._retry_after(exc))
        except (SchemaError, ValueError, OverflowError) as exc:
            # OverflowError backstops integer inputs that pass the
            # "is an integer" checks but overflow a numpy cast further
            # down (e.g. a 20-digit provider id in a summary filter) —
            # malformed input is a 400, never a 500.
            if body_pending:
                self._discard_body()
            self._error(400, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            if body_pending:
                self._discard_body()
            self._error(500, f"{type(exc).__name__}: {exc}")
        finally:
            self._record_request(
                method, url.path, route_label, time.perf_counter() - start
            )

    # -- per-request telemetry ----------------------------------------------

    def _count_deadline_expired(self, route_label: str) -> None:
        metrics = getattr(self.server, "metrics", None)
        if metrics is not None:
            metrics.counter("http_deadline_expired_total", route=route_label).inc()

    def _record_request(
        self, method: str, path: str, route_label: str, elapsed: float
    ) -> None:
        """Per-route request metrics plus one structured access-log entry."""
        status = self._obs_status
        metrics = getattr(self.server, "metrics", None)
        if metrics is not None:
            metrics.counter(
                "http_requests_total",
                route=route_label,
                method=method,
                status=str(status),
            ).inc()
            metrics.histogram("http_request_seconds", route=route_label).observe(
                elapsed
            )
        sink = getattr(self.server, "access_log", None)
        if sink is None and not getattr(self.server, "verbose", False):
            return
        entry = {
            "request_id": self._request_id,
            "method": method,
            "path": path,
            "route": route_label,
            "status": status,
            "duration_ms": round(elapsed * 1e3, 3),
            "client": self.client_address[0],
        }
        if callable(sink):
            sink(entry)
        if getattr(self.server, "verbose", False):
            self.log_message("%s", json.dumps(entry))


def make_server(
    service: AuditService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    resilience: ResilienceConfig | None = None,
    access_log: Callable[[dict], None] | None = None,
) -> AuditHTTPServer:
    """Bind an :class:`AuditHTTPServer` (``port=0`` picks a free port).

    ``resilience`` tunes the overload-safety knobs (admission bounds,
    default deadline, socket timeout); the default config keeps existing
    behavior with a bounded worst case.

    ``access_log``, when given, receives one structured dict per
    completed request (request_id, route, status, duration_ms, ...);
    with ``verbose`` the same entries are logged as JSON lines.

    The caller drives the loop: ``server.serve_forever()`` (typically on
    a daemon thread) and ``server.shutdown()`` + ``server.server_close()``
    to stop.
    """
    return AuditHTTPServer(
        (host, port),
        service,
        verbose=verbose,
        resilience=resilience,
        access_log=access_log,
    )
