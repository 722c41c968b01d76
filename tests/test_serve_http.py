"""HTTP API tests: every endpoint's success path and failure modes.

The contract under test: failures are always JSON ``{"error": ...}``
bodies with the right status (400 malformed, 404 unknown, 411 chunked,
413 oversize) — malformed input must never surface as a 500 or a
traceback.
"""

import json

import http.client

import pytest

from repro.serve import AuditService


@pytest.fixture(scope="module")
def served(tiny_model, tiny_builder, tiny_score_store, ephemeral_server):
    """A live server over the tiny world's score store (cold path on)."""
    model, _split = tiny_model
    service = AuditService.from_model(model, store=tiny_score_store)
    with ephemeral_server(service) as server:
        yield server, service
    service.close()


@pytest.fixture(scope="module")
def store_only_served(tiny_score_store, ephemeral_server):
    """A live server with no live classifier/builder (no cold path)."""
    service = AuditService(tiny_score_store)
    with ephemeral_server(service) as server:
        yield server, service
    service.close()


def _request(server, method, path, body=None, headers=None):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        payload = response.read()
        return response.status, response.getheader("Content-Type"), payload
    finally:
        conn.close()


def _json(server, method, path, body=None, headers=None):
    status, ctype, payload = _request(server, method, path, body, headers)
    assert ctype == "application/json", f"{method} {path} returned {ctype}"
    return status, json.loads(payload)


def _known_key(store):
    row = int(store.sus_order[0])
    return store.claims.key_at(row)


# -- success paths -----------------------------------------------------------


def test_healthz_and_stats(served):
    from repro.serve.http import MAX_BODY_BYTES, MAX_RESULT_ROWS

    server, service = served
    status, doc = _json(server, "GET", "/healthz")
    assert status == 200
    assert doc["status"] == "ok" and doc["n_claims"] == len(service.store)
    # The request caps are surfaced so clients can size their batches.
    assert doc["limits"]["max_result_rows"] == MAX_RESULT_ROWS
    assert doc["limits"]["max_body_bytes"] == MAX_BODY_BYTES
    # Per-version stats live on the model listing.
    status, doc = _json(server, "GET", "/v2/models")
    (version,) = doc["versions"]
    assert status == 200 and version["n_claims"] == len(service.store)
    assert version["cold_path_available"] is True


def test_claim_lookup_roundtrip(served, tiny_score_store):
    server, _service = served
    pid, cell, tech = _known_key(tiny_score_store)
    status, doc = _json(server, "GET", f"/v2/claims/{pid}/{cell}/{tech}")
    assert status == 200
    record = doc["record"]
    assert record["provider_id"] == pid and record["precomputed"] is True
    assert record["rank"] == 0


def test_claim_cold_path_for_unknown_claim(served, tiny_score_store):
    import numpy as np

    server, _service = served
    pid, cell, _tech = _known_key(tiny_score_store)
    missing = next(
        t
        for t in (10, 40, 50, 70, 71)
        if tiny_score_store.positions(
            np.array([pid]), np.array([cell], dtype=np.uint64), np.array([t])
        )[0]
        < 0
    )
    status, doc = _json(server, "GET", f"/v2/claims/{pid}/{cell}/{missing}?state=TX")
    assert status == 200 and doc["record"]["precomputed"] is False
    assert 0.0 <= doc["record"]["percentile"] <= 100.0


def test_top_and_summaries(served, tiny_score_store):
    server, _service = served
    status, doc = _json(server, "GET", "/v2/claims?limit=3")
    assert status == 200 and len(doc["items"]) == 3
    scores = [r["score"] for r in doc["items"]]
    assert scores == sorted(scores, reverse=True)

    pid, _cell, _tech = _known_key(tiny_score_store)
    status, doc = _json(server, "GET", f"/v2/providers/{pid}")
    assert status == 200 and doc["provider_id"] == pid and doc["n_claims"] > 0
    state = doc["top_claims"][0]["state"]
    status, doc = _json(server, "GET", f"/v2/states/{state}")
    assert status == 200 and doc["state"] == state


def test_bulk_score_mixes_hits_and_misses(served, tiny_score_store):
    server, _service = served
    pid, cell, tech = _known_key(tiny_score_store)
    body = json.dumps(
        {
            "claims": [
                {"provider_id": pid, "cell": cell, "technology": tech},
                {"provider_id": 1, "cell": 2, "technology": 3},
            ]
        }
    )
    status, doc = _json(server, "POST", "/v2/claims:batchScore", body=body)
    assert status == 200
    hit, miss = doc["results"]
    assert hit["provider_id"] == pid and miss is None


# -- failure modes, GET ------------------------------------------------------


@pytest.mark.parametrize(
    "path",
    [
        "/v2/claims/abc/2/3",  # non-integer path ints
        "/v2/claims/1/abc/3",
        "/v2/claims/1/2/abc",
        "/v2/claims/1/2/3?state=NOWHERE",  # unknown state
        "/v2/claims?provider_id=abc",
        "/v2/claims?limit=-1",
        "/v2/claims?limit=999999",
        "/v2/providers/abc",
        "/v2/states/NOWHERE",
    ],
)
def test_get_failure_modes_return_400_json(served, path):
    server, _service = served
    status, doc = _json(server, "GET", path)
    assert status == 400 and "error" in doc


def test_unknown_routes_return_404_json(served):
    server, _service = served
    for method, path in (
        ("GET", "/nope"),
        ("GET", "/v2/claims:batchScore"),
        ("POST", "/v2/claims"),
        ("POST", "/nope"),
        # A capture never matches an empty segment or spans a slash.
        ("GET", "/v2/providers/"),
        ("GET", "/v2/claims/1//3"),
        ("GET", "/v2/claims/1/2/3/4"),
    ):
        status, doc = _json(server, method, path)
        assert status == 404 and "error" in doc, f"{method} {path}"


def test_unknown_claim_without_state_returns_404(served):
    server, _service = served
    status, doc = _json(server, "GET", "/v2/claims/1/2/3")
    assert status == 404 and "state=XX" in doc["error"]


# -- failure modes, POST /v2/claims:batchScore --------------------------------


@pytest.mark.parametrize(
    "body",
    [
        "{not json",  # malformed JSON
        "[1, 2, 3]",  # valid JSON, not an object (used to 500)
        '"claims"',  # JSON scalar
        '{"claims": "nope"}',  # claims not a list
        '{"claims": [42]}',  # entry not an object
        '{"claims": [{"cell": 2, "technology": 3}]}',  # missing field
        '{"claims": [{"provider_id": "abc", "cell": 2, "technology": 3}]}',
        '{"claims": [{"provider_id": 1, "cell": 2, "technology": 3, "state": 7}]}',
        '{"claims": [{"provider_id": 1, "cell": 2, "technology": 3, "state": "ZZ"}]}',
    ],
)
def test_post_failure_modes_return_400_json(served, body):
    server, _service = served
    status, doc = _json(server, "POST", "/v2/claims:batchScore", body=body)
    assert status == 400 and "error" in doc


def test_post_too_many_claims_rejected(served):
    server, _service = served
    claims = [{"provider_id": 1, "cell": 2, "technology": 3}] * 10_001
    status, doc = _json(
        server, "POST", "/v2/claims:batchScore", body=json.dumps({"claims": claims})
    )
    assert status == 400 and "at most" in doc["error"]


def test_post_bad_content_length_rejected(served):
    server, _service = served
    for bad in ("abc", "-5"):
        status, doc = _json(
            server,
            "POST",
            "/v2/claims:batchScore",
            body="{}",
            headers={"Content-Length": bad},
        )
        assert status == 400 and "Content-Length" in doc["error"]


def test_post_oversized_body_rejected_without_reading_it(served):
    server, _service = served
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(
            "POST",
            "/v2/claims:batchScore",
            body="",
            headers={"Content-Length": str(64 * 1024 * 1024)},
        )
        response = conn.getresponse()
        doc = json.loads(response.read())
        assert response.status == 413 and "exceeds" in doc["error"]
        # The body was never read, so the server must refuse to reuse
        # this keep-alive socket (stale bytes would desync the next
        # request on it).
        assert response.getheader("Connection") == "close"
    finally:
        conn.close()


def test_empty_post_body_is_a_clean_400(served):
    server, _service = served
    status, doc = _json(server, "POST", "/v2/claims:batchScore", body="")
    assert status == 400 and "error" in doc


def _read_until_closed(sock) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def test_chunked_post_is_refused_and_closes_the_socket(served, tiny_score_store):
    """A chunked body is never parsed as empty: the server answers a
    JSON 411 and closes, so the unread chunk bytes cannot be parsed as
    a pipelined request (which used to come back as an HTML 400)."""
    import socket

    server, _service = served
    pid, cell, tech = _known_key(tiny_score_store)
    body = json.dumps(
        {"claims": [{"provider_id": pid, "cell": cell, "technology": tech}]}
    ).encode()
    request = (
        b"POST /v2/claims:batchScore HTTP/1.1\r\nHost: test\r\n"
        b"Content-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n"
        + f"{len(body):x}\r\n".encode()
        + body
        + b"\r\n0\r\n\r\n"
        + b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
    )
    with socket.create_connection(server.server_address[:2], timeout=10) as sock:
        sock.sendall(request)
        raw = _read_until_closed(sock)
    head, _, rest = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0].split()[1] == "411", raw
    headers = dict(line.split(": ", 1) for line in lines[1:])
    assert headers["Connection"] == "close"
    assert headers["Content-Type"] == "application/json"
    length = int(headers["Content-Length"])
    doc = json.loads(rest[:length])
    assert set(doc) == {"error", "request_id"}
    assert "Content-Length" in doc["error"]
    # Nothing follows: the pipelined GET was dropped with the socket,
    # never answered from the leftover chunk bytes.
    assert rest[length:] == b""
    # A fresh connection is served normally.
    status, doc = _json(server, "GET", "/healthz")
    assert status == 200 and doc["status"] == "ok"


# -- cold path unavailable ---------------------------------------------------


def test_cold_path_unavailable_is_400_not_500(store_only_served, tiny_score_store):
    server, service = store_only_served
    assert service.registry.default.cold_path_available is False
    status, doc = _json(server, "GET", "/v2/claims/1/2/3?state=TX")
    assert status == 400 and "cold-path" in doc["error"]
    body = json.dumps(
        {"claims": [{"provider_id": 1, "cell": 2, "technology": 3, "state": "TX"}]}
    )
    status, doc = _json(server, "POST", "/v2/claims:batchScore", body=body)
    assert status == 400 and "cold-path" in doc["error"]
    # Precomputed lookups still work without a live model.
    pid, cell, tech = _known_key(tiny_score_store)
    status, doc = _json(server, "GET", f"/v2/claims/{pid}/{cell}/{tech}")
    assert status == 200 and doc["record"]["precomputed"] is True
