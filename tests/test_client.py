"""AuditClient round-trips against a live server, plus hot-swap atomicity.

The concurrency test is the acceptance check for the registry redesign:
while a writer thread hot-swaps the default version back and forth,
every reader response — pages and batches — must be internally
consistent with exactly one registry version (the one named in its
envelope), never a mix.
"""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from repro.client import AuditAPIError, AuditClient
from repro.serve import AuditService, ClaimScoreStore
from repro.serve.schemas import ClaimKey


@pytest.fixture(scope="module", params=["monolithic", "sharded"])
def swap_service(request, tiny_model, tiny_score_store, tmp_path_factory):
    """Two versions over the same claims with sign-flipped margins.

    The ``sharded`` variant serves the default version from a store
    round-tripped through a shard bundle (mmap-backed), so the whole
    client suite — including the hot-swap consistency check — also runs
    against the sharded substrate.
    """
    model, _split = tiny_model
    store = tiny_score_store
    if request.param == "sharded":
        root = str(tmp_path_factory.mktemp("sharded-store"))
        store.save_sharded(root, shards=3)
        store = ClaimScoreStore.load_sharded(root)
    service = AuditService.from_model(model, store=store)
    flipped = ClaimScoreStore(store.claims, -store.margin)
    service.add_version("flipped", flipped)
    yield service
    service.activate("default")
    service.close()


@pytest.fixture(scope="module")
def served(swap_service, ephemeral_server):
    with ephemeral_server(swap_service) as server:
        yield server, swap_service


@pytest.fixture()
def client(served):
    server, _service = served
    c = AuditClient(f"http://127.0.0.1:{server.server_address[1]}")
    yield c
    c.close()


def _known_key(store, nth=0):
    return store.claims.key_at(int(store.sus_order[nth]))


# -- basic round-trips --------------------------------------------------------


def test_health_stats_models(client, tiny_score_store):
    health = client.health()
    assert health["status"] == "ok" and health["n_claims"] == len(tiny_score_store)
    assert "max_result_rows" in health["limits"]
    assert "batcher" in health
    models = client.models()
    assert {v["name"] for v in models["versions"]} == {"default", "flipped"}


def test_get_claim_typed_roundtrip(client, tiny_score_store):
    store = tiny_score_store
    row = int(store.sus_order[0])
    record = client.get_claim(*store.claims.key_at(row))
    assert record is not None
    assert record.to_dict() == store.record(row)
    assert record.rank == 0 and record.precomputed is True
    # Unknown claim: None, not an exception.
    assert client.get_claim(-1, 2, 3) is None


def test_get_claim_cold_path(client, tiny_score_store):
    store = tiny_score_store
    pid, cell, _tech = _known_key(store)
    missing = next(
        t
        for t in (10, 40, 50, 70, 71)
        if store.positions(
            np.array([pid]), np.array([cell], dtype=np.uint64), np.array([t])
        )[0]
        < 0
    )
    record = client.get_claim(pid, cell, missing, state="TX")
    assert record is not None and record.precomputed is False
    assert record.rank is None and record.claimed_count is None


def test_api_errors_carry_status_and_message(client):
    with pytest.raises(AuditAPIError) as err:
        client.page_claims(limit=0)
    assert err.value.status == 400 and "limit" in str(err.value)
    with pytest.raises(AuditAPIError) as err:
        client.state_summary("NOWHERE")
    assert err.value.status == 400 and "unknown state" in str(err.value)


def test_summaries(client, tiny_score_store):
    pid, _cell, _tech = _known_key(tiny_score_store)
    summary = client.provider_summary(pid)
    assert summary["provider_id"] == pid and summary["n_claims"] > 0
    state = summary["top_claims"][0]["state"]
    assert client.state_summary(state)["state"] == state


# -- pagination ---------------------------------------------------------------


def test_full_pagination_walk_equals_suspicion_order(client, tiny_score_store):
    """The satellite acceptance: a full cursor walk IS the store order."""
    store = tiny_score_store
    ranks = [rec.rank for rec in client.iter_claims(page_size=1009)]
    assert ranks == list(range(len(store)))
    margins = [
        rec.margin for rec in client.iter_claims(page_size=997, max_items=50)
    ]
    assert margins == [float(store.margin[r]) for r in store.sus_order[:50]]


def test_filtered_pagination_walk(client, tiny_score_store):
    store = tiny_score_store
    pid = int(store.claims.provider_id[int(store.sus_order[0])])
    expected_rows = store.sus_order[
        (store.claims.provider_id == pid)[store.sus_order]
    ]
    # A page size forcing a multi-page walk without thousands of requests.
    page_size = max(1, len(expected_rows) // 5 + 1)
    records = list(client.iter_claims(provider_id=pid, page_size=page_size))
    assert [r.rank for r in records] == [
        int(store.sus_rank[row]) for row in expected_rows
    ]
    assert all(r.provider_id == pid for r in records)


def test_iter_pages_exposes_envelopes(client, tiny_score_store):
    pages = list(client.iter_pages(page_size=2000))
    assert all(p.model_version == "default" for p in pages)
    assert sum(len(p.items) for p in pages) == len(tiny_score_store)
    assert pages[-1].next_cursor is None
    assert all(p.total == len(tiny_score_store) for p in pages)


# -- batch scoring ------------------------------------------------------------


def test_batch_score_matches_score_claims(client, served, tiny_score_store):
    """The satellite acceptance: SDK batch == service.score_claims."""
    _server, service = served
    store = tiny_score_store
    rows = np.linspace(0, len(store) - 1, 64).astype(int)
    claims = store.claims
    keys = [claims.key_at(int(r)) for r in rows]
    response = client.batch_score(keys + [(-1, 2, 3)])
    assert response.model_version == "default"
    expected = service.score_claims(
        claims.provider_id[rows], claims.cell[rows], claims.technology[rows]
    )
    assert [None if r is None else r.to_dict() for r in response.results] == (
        expected + [None]
    )


def test_batch_score_accepts_mixed_key_shapes(client, tiny_score_store):
    key = _known_key(tiny_score_store)
    response = client.batch_score(
        [key, ClaimKey(*key), {"provider_id": key[0], "cell": key[1], "technology": key[2]}]
    )
    first, second, third = response.results
    assert first == second == third and first is not None


# -- retries ------------------------------------------------------------------


class _FlakyHandler(BaseHTTPRequestHandler):
    """503s the first N requests, then delegates a trivial health body."""

    failures_left = 2

    def do_GET(self):  # noqa: N802
        cls = type(self)
        if cls.failures_left > 0:
            cls.failures_left -= 1
            body = json.dumps({"error": "warming up"}).encode()
            self.send_response(503)
        else:
            body = json.dumps({"status": "ok"}).encode()
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):
        pass


def test_client_retries_transient_failures():
    server = HTTPServer(("127.0.0.1", 0), _FlakyHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        _FlakyHandler.failures_left = 2
        client = AuditClient(
            f"http://127.0.0.1:{server.server_address[1]}",
            retries=2,
            retry_backoff_s=0.0,
        )
        assert client.health() == {"status": "ok"}
        # Retries exhausted: the last 503 surfaces as an AuditAPIError.
        _FlakyHandler.failures_left = 99
        impatient = AuditClient(
            f"http://127.0.0.1:{server.server_address[1]}",
            retries=1,
            retry_backoff_s=0.0,
        )
        with pytest.raises(AuditAPIError) as err:
            impatient.health()
        assert err.value.status == 503 and "warming up" in str(err.value)
    finally:
        server.shutdown()
        server.server_close()


def test_client_surfaces_connection_failure():
    # Bind-then-close guarantees a dead port.
    probe = HTTPServer(("127.0.0.1", 0), _FlakyHandler)
    port = probe.server_address[1]
    probe.server_close()
    client = AuditClient(f"http://127.0.0.1:{port}", retries=1, retry_backoff_s=0.0)
    with pytest.raises(AuditAPIError) as err:
        client.health()
    assert err.value.status is None


def test_client_rejects_bad_base_url():
    with pytest.raises(ValueError, match="base_url"):
        AuditClient("ftp://example.com")


# -- resilience: Retry-After, backoff caps, call deadlines --------------------


class _SheddingHandler(BaseHTTPRequestHandler):
    """429s the first N requests (with a configurable Retry-After), then
    serves a trivial health body; records every deadline header seen."""

    sheds_left = 0
    retry_after: str | None = "0"
    seen_deadline_headers: list = []

    def do_GET(self):  # noqa: N802
        cls = type(self)
        cls.seen_deadline_headers.append(self.headers.get("X-Request-Deadline-Ms"))
        if cls.sheds_left > 0:
            cls.sheds_left -= 1
            body = json.dumps({"error": "overloaded"}).encode()
            self.send_response(429)
            if cls.retry_after is not None:
                self.send_header("Retry-After", cls.retry_after)
        else:
            body = json.dumps({"status": "ok"}).encode()
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):
        pass


@pytest.fixture()
def shed_url():
    server = HTTPServer(("127.0.0.1", 0), _SheddingHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    _SheddingHandler.sheds_left = 0
    _SheddingHandler.retry_after = "0"
    _SheddingHandler.seen_deadline_headers = []
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def test_client_honors_retry_after(shed_url):
    """A server-sent Retry-After: 0 overrides the computed backoff: with
    a 30s base the retry would otherwise sleep ~15s minimum."""
    _SheddingHandler.sheds_left = 1
    client = AuditClient(shed_url, retries=2, retry_backoff_s=30.0)
    start = time.monotonic()
    assert client.health() == {"status": "ok"}
    assert time.monotonic() - start < 5.0
    client.close()


def test_client_caps_server_retry_after(shed_url):
    """An absurd Retry-After (1h) is clamped to retry_backoff_cap_s —
    the server advises the delay, the client bounds it."""
    _SheddingHandler.sheds_left = 1
    _SheddingHandler.retry_after = "3600"
    client = AuditClient(
        shed_url, retries=2, retry_backoff_s=0.0, retry_backoff_cap_s=0.05
    )
    start = time.monotonic()
    assert client.health() == {"status": "ok"}
    assert time.monotonic() - start < 5.0
    client.close()


def test_client_deadline_bounds_retry_sleeps(shed_url):
    """With endless 429s (no Retry-After) and a huge backoff, a 0.3s call
    deadline surfaces the last failure instead of sleeping out retries."""
    _SheddingHandler.sheds_left = 99
    _SheddingHandler.retry_after = None
    client = AuditClient(shed_url, retries=5, retry_backoff_s=30.0)
    start = time.monotonic()
    with pytest.raises(AuditAPIError) as err:
        client.health(deadline=0.3)
    assert time.monotonic() - start < 2.0
    assert err.value.status == 429
    client.close()


def test_client_sends_remaining_deadline_header(shed_url):
    client = AuditClient(shed_url, retries=0)
    assert client.health(deadline=2.0) == {"status": "ok"}
    assert client.health() == {"status": "ok"}
    with_deadline, without = _SheddingHandler.seen_deadline_headers
    assert with_deadline is not None and 0 < int(with_deadline) <= 2000
    assert without is None
    client.close()


def test_client_deadline_round_trips_to_server(client):
    """Against the real server, a generous per-call deadline changes
    nothing about the result."""
    health = client.health(deadline=10.0)
    assert health["status"] == "ok"
    assert client.ready(deadline=10.0)["ready"] is True


def test_client_base_url_path_prefix_is_honored(served):
    """http://host/prefix base URLs prepend the prefix to every request."""
    server, _service = served
    prefixed = AuditClient(
        f"http://127.0.0.1:{server.server_address[1]}/audit", retries=0
    )
    with pytest.raises(AuditAPIError) as err:
        prefixed.health()
    # Our test server mounts no /audit prefix, so the 404 proves the
    # prefix actually went out on the wire instead of being dropped.
    assert err.value.status == 404 and "/audit/healthz" in str(err.value)
    prefixed.close()


# -- hot-swap atomicity under concurrent load --------------------------------


def test_concurrent_hot_swap_never_mixes_versions(served, tiny_score_store):
    """No response may mix versions while activate() flips under load."""
    server, service = served
    store_by_version = {
        "default": tiny_score_store,
        "flipped": service.registry.get("flipped").store,
    }
    base = f"http://127.0.0.1:{server.server_address[1]}"
    store = tiny_score_store
    rows = np.linspace(0, len(store) - 1, 16).astype(int)
    keys = [store.claims.key_at(int(r)) for r in rows]

    stop = threading.Event()
    violations: list[str] = []

    def reader():
        client = AuditClient(base, retries=0)
        try:
            while not stop.is_set():
                page = client.page_claims(limit=5)
                expected = store_by_version[page.model_version]
                if [r.margin for r in page.items] != [
                    float(expected.margin[row])
                    for row in expected.sus_order[:5]
                ]:
                    violations.append(f"mixed page under {page.model_version}")
                response = client.batch_score(keys)
                expected = store_by_version[response.model_version]
                got = [r.margin for r in response.results]
                want = [float(expected.margin[int(r)]) for r in rows]
                if got != want:
                    violations.append(
                        f"mixed batch under {response.model_version}"
                    )
        finally:
            client.close()

    readers = [threading.Thread(target=reader) for _ in range(3)]
    for t in readers:
        t.start()
    swapper = AuditClient(base)
    try:
        for i in range(40):
            swapper.activate_model("flipped" if i % 2 == 0 else "default")
    finally:
        stop.set()
        for t in readers:
            t.join()
        swapper.activate_model("default")
        swapper.close()
    assert not violations, violations[:5]
