"""Observability over the wire: ``/metrics``, ``trace=1``, request ids.

Drives a live server end to end: the metrics endpoint serves both JSON
and Prometheus text (every exposed family declared in the catalog), a
traced ``POST /v2/claims:batchScore`` returns a span tree covering
admission -> body parse -> handler -> store lookup -> batcher flush ->
cold score, the generated request id is echoed in the ``X-Request-Id``
header / every error body / the structured access log, ``/healthz``
keeps its pre-observability keys while gaining metric snapshots, and
concurrent scoring loses no counter increments.
"""

import http.client
import json
import re
import threading
import time

import numpy as np
import pytest

from repro.obs.catalog import METRIC_CATALOG
from repro.serve import AuditService


@pytest.fixture()
def served(tiny_model, tiny_score_store, ephemeral_server):
    model, _split = tiny_model
    service = AuditService.from_model(model, store=tiny_score_store)
    entries = []
    with ephemeral_server(service, access_log=entries.append) as server:
        yield server, service, entries
    service.close()


def _raw(server, method, path, body=None):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def _json(server, method, path, body=None):
    status, headers, raw = _raw(server, method, path, body=body)
    return status, headers, json.loads(raw)


def _known_key(store, nth=0):
    return store.claims.key_at(int(store.sus_order[nth]))


def _cold_technology(store, pid, cell):
    return next(
        t
        for t in (10, 40, 50, 70, 71)
        if store.positions(
            np.array([pid]), np.array([cell], dtype=np.uint64), np.array([t])
        )[0]
        < 0
    )


# -- GET /metrics -------------------------------------------------------------


def test_metrics_json(served, tiny_score_store):
    server, service, _entries = served
    pid, cell, tech = _known_key(tiny_score_store)
    _json(server, "GET", f"/v2/claims/{pid}/{cell}/{tech}")
    _wait_recorded(service, 1)
    status, _headers, doc = _json(server, "GET", "/metrics")
    assert status == 200
    assert set(doc) == {"service", "process"}
    # Every exposed family is declared in the catalog (what lets
    # check_docs guarantee the docs cover everything that can exist).
    for scope in ("service", "process"):
        assert set(doc[scope]) <= set(METRIC_CATALOG)
    service_metrics = doc["service"]
    assert "http_requests_total" in service_metrics
    rows = service_metrics["http_requests_total"]["series"]
    claim_rows = [
        r
        for r in rows
        if r["labels"]["route"] == "/v2/claims/{provider_id}/{cell}/{technology}"
    ]
    assert claim_rows and claim_rows[0]["value"] >= 1
    hist = service_metrics["http_request_seconds"]["series"][0]
    assert hist["count"] >= 1 and hist["sum"] > 0


def _wait_recorded(service, floor, timeout_s=5.0):
    """Wait until at least ``floor`` requests are recorded — the metric
    bump lands just after the response bytes flush."""
    metrics = service.registry.metrics
    deadline = time.monotonic() + timeout_s
    while (
        metrics.total("http_requests_total") < floor
        and time.monotonic() < deadline
    ):
        time.sleep(0.005)


def test_metrics_prometheus(served):
    server, service, _entries = served
    _json(server, "GET", "/healthz")
    _wait_recorded(service, 1)
    status, headers, raw = _raw(server, "GET", "/metrics?format=prometheus")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    text = raw.decode()
    assert "# TYPE http_requests_total counter" in text
    assert "# HELP http_requests_total" in text
    buckets = [
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("http_request_seconds_bucket")
        and 'route="/healthz"' in line
    ]
    assert buckets == sorted(buckets) and buckets[-1] >= 1


def test_metrics_bad_format(served):
    server, _service, _entries = served
    status, _headers, doc = _json(server, "GET", "/metrics?format=xml")
    assert status == 400 and "format" in doc["error"]


# -- trace=1 ------------------------------------------------------------------


def test_traced_batch_score_returns_the_span_tree(served, tiny_score_store):
    server, _service, _entries = served
    pid, cell, tech = _known_key(tiny_score_store)
    cold_tech = _cold_technology(tiny_score_store, pid, cell)
    body = json.dumps(
        {
            "claims": [
                {"provider_id": int(pid), "cell": int(cell), "technology": int(tech)},
                {
                    "provider_id": int(pid),
                    "cell": int(cell),
                    "technology": int(cold_tech),
                    "state": "TX",
                },
            ]
        }
    )
    status, headers, doc = _json(
        server, "POST", "/v2/claims:batchScore?trace=1", body=body
    )
    assert status == 200 and doc["degraded"] is False
    trace = doc["trace"]
    assert trace["request_id"] == headers["X-Request-Id"]
    assert trace["model_version"] == "default"
    assert trace["degraded"] is False

    def names(node, acc):
        acc.append(node["name"])
        for child in node.get("children", ()):
            names(child, acc)
        return acc

    seen = names(trace["spans"], [])
    # The tree covers admission through the cold path, in order.
    assert seen[0] == "request"
    for required in ("admission", "parse_body", "handler", "store_lookup",
                     "batcher_flush", "cold_score"):
        assert required in seen, f"missing span {required!r}: {seen}"
    assert seen.index("admission") < seen.index("parse_body") < seen.index(
        "handler"
    ) < seen.index("cold_score")
    # Span timings are relative to the trace start and nested within it.
    root = trace["spans"]
    assert all(
        child["start_ms"] >= root["start_ms"] for child in root["children"]
    )


def test_untraced_requests_carry_no_trace(served, tiny_score_store):
    server, _service, _entries = served
    pid, cell, tech = _known_key(tiny_score_store)
    status, _headers, doc = _json(server, "GET", f"/v2/claims/{pid}/{cell}/{tech}")
    assert status == 200 and "trace" not in doc


def test_trace_applies_to_every_route(served, tiny_score_store):
    """``?trace=1`` is one rule: any route that answers a JSON object
    returns its span tree, meta routes included."""
    server, _service, _entries = served
    pid, cell, tech = _known_key(tiny_score_store)
    for path in (
        f"/v2/claims/{pid}/{cell}/{tech}?trace=1",
        f"/v2/providers/{pid}?trace=1",
        "/healthz?trace=1",
        "/v2/models?trace=1",
    ):
        status, headers, doc = _json(server, "GET", path)
        assert status == 200, path
        assert doc["trace"]["request_id"] == headers["X-Request-Id"], path


# -- request id echo ----------------------------------------------------------


def test_request_id_header_and_v2_error_body(served):
    server, _service, _entries = served
    status, headers, doc = _json(server, "GET", "/v2/claims/abc/2/3")
    assert status == 400
    assert doc["request_id"] == headers["X-Request-Id"]
    # Distinct requests get distinct ids.
    _status, headers2, doc2 = _json(server, "GET", "/v2/claims/abc/2/3")
    assert doc2["request_id"] != doc["request_id"]


def test_v1_paths_are_json_404s(served):
    """The retired v1 surface answers like any unknown route."""
    server, _service, _entries = served
    status, headers, doc = _json(server, "GET", "/v1/claim")
    assert status == 404 and "no route" in doc["error"]
    assert doc["request_id"] == headers["X-Request-Id"]


def _error_requests():
    """One failing request per route of the table, plus the failures
    that happen before or without a route match."""
    from repro.serve.http import build_router

    sample = {"provider_id": "1", "cell": "2", "technology": "3",
              "abbr": "TX", "name": "default"}
    # An unparseable deadline header fails every matched route with a
    # 400 before its handler runs.
    bad_deadline = {"X-Request-Deadline-Ms": "soon"}
    for route in build_router().routes:
        path = re.sub(r"\{(\w+)\}", lambda m: sample[m.group(1)], route.pattern)
        yield route.method, path, None, bad_deadline
    yield "GET", "/v2/claims/abc/2/3", None, {}
    yield "GET", "/v2/claims/1/2/3", None, {}  # unknown claim: 404
    yield "GET", "/v2/states/NOWHERE", None, {}
    yield "GET", "/nope", None, {}
    yield "POST", "/v2/claims:batchScore", b"{not json", {}
    yield "POST", "/v2/claims:batchScore", b"{}", {"Content-Length": "-5"}
    yield "POST", "/v2/models/missing:activate", None, {}
    yield "POST", "/v2/claims:batchScore", b"{}", {"Transfer-Encoding": "chunked"}
    yield "POST", "/v2/claims:batchScore", b"", {"Content-Length": str(2**30)}


def test_every_error_body_is_error_and_request_id(served):
    """The one error shape: exactly ``{"error", "request_id"}``, with the
    id echoed in ``X-Request-Id`` — on every route and every error status."""
    server, _service, _entries = served
    statuses = set()
    host, port = server.server_address[:2]
    for method, path, body, headers in _error_requests():
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            doc = json.loads(response.read())
        finally:
            conn.close()
        where = f"{method} {path}"
        assert response.status >= 400, where
        assert set(doc) == {"error", "request_id"}, where
        assert doc["request_id"] == response.getheader("X-Request-Id"), where
        statuses.add(response.status)
    assert statuses == {400, 404, 411, 413}


def _logged(entries, request_id, timeout_s=5.0):
    """The entry for ``request_id`` — the sink fires just *after* the
    response bytes flush, so the client may observe the response first."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        found = next(
            (e for e in entries if e["request_id"] == request_id), None
        )
        if found is not None:
            return found
        time.sleep(0.005)
    raise AssertionError(f"no access-log entry for {request_id!r}")


def test_access_log_entries(served, tiny_score_store):
    server, _service, entries = served
    pid, cell, tech = _known_key(tiny_score_store)
    status, headers, _doc = _json(server, "GET", f"/v2/claims/{pid}/{cell}/{tech}")
    assert status == 200
    entry = _logged(entries, headers["X-Request-Id"])
    assert entry["method"] == "GET"
    assert entry["route"] == "/v2/claims/{provider_id}/{cell}/{technology}"
    assert entry["status"] == 200
    assert entry["duration_ms"] > 0
    # 404s log too, under the bounded "unmatched" route label.
    _status, headers, _doc = _json(server, "GET", "/nope")
    entry = _logged(entries, headers["X-Request-Id"])
    assert entry["route"] == "unmatched" and entry["status"] == 404


# -- /healthz enrichment ------------------------------------------------------


def test_healthz_keeps_old_keys_and_gains_metrics(served):
    server, service, _entries = served
    _json(server, "GET", "/readyz")
    _wait_recorded(service, 1)
    status, _headers, doc = _json(server, "GET", "/healthz")
    assert status == 200
    # The pre-observability surface is intact...
    assert doc["status"] == "ok"
    assert doc["n_claims"] == len(service.store)
    assert set(doc["batcher"]) == {
        "requests",
        "cache_hits",
        "coalesced",
        "batches",
        "scored",
        "max_batch",
        "deadline_drops",
    }
    # ...and the metric snapshot rides alongside.
    snap = doc["metrics"]
    assert snap["http_requests_total"] >= 1
    assert set(snap) == {
        "http_requests_total",
        "model_requests_total",
        "admission_shed_total",
        "batcher_batches_total",
    }


# -- no lost increments under concurrent scoring ------------------------------


def test_concurrent_scoring_loses_no_http_counts(served, tiny_score_store):
    server, service, _entries = served
    pid, cell, tech = _known_key(tiny_score_store)
    path = f"/v2/claims/{pid}/{cell}/{tech}"
    n_threads, n_requests = 8, 6
    statuses = []
    lock = threading.Lock()

    def client():
        for _ in range(n_requests):
            status, _headers, _doc = _json(server, "GET", path)
            with lock:
                statuses.append(status)

    before = service.registry.metrics.counter(
        "http_requests_total",
        route="/v2/claims/{provider_id}/{cell}/{technology}",
        method="GET",
        status="200",
    ).value
    threads = [threading.Thread(target=client) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert statuses == [200] * (n_threads * n_requests)
    counter = service.registry.metrics.counter(
        "http_requests_total",
        route="/v2/claims/{provider_id}/{cell}/{technology}",
        method="GET",
        status="200",
    )
    # The counter bumps just after the response flushes; give the last
    # handler threads a moment, then require exact conservation.
    deadline = time.monotonic() + 5.0
    while (
        counter.value - before < n_threads * n_requests
        and time.monotonic() < deadline
    ):
        time.sleep(0.005)
    assert counter.value - before == n_threads * n_requests
