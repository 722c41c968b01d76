"""Pre-fork worker pool: shared-store serving, fleet swap, supervision.

These tests start real forked worker fleets on ephemeral ports, so each
one bounds its own pool lifetime with a context manager.  The store is
the session ``tiny_score_store``, saved once per module as single-shard
bundles (the zero-copy layout the pool is designed around).
"""

import http.client
import json
import os
import signal
import time

import numpy as np
import pytest

from repro.serve import ClaimScoreStore, WorkerPool, WorkerVersionSpec
from repro.serve.service import AuditService
from repro.serve.workers import reuse_port_available


@pytest.fixture(scope="module")
def pool_bundles(tmp_path_factory, tiny_score_store):
    """Saved single-shard bundles: the store and a sign-flipped shadow."""
    root = tmp_path_factory.mktemp("pool-bundles")
    default_dir = str(root / "default")
    flipped_dir = str(root / "flipped")
    tiny_score_store.save_sharded(default_dir, shards=1)
    flipped = ClaimScoreStore(tiny_score_store.claims, -tiny_score_store.margin)
    flipped.save_sharded(flipped_dir, shards=1)
    return {
        "specs": [
            WorkerVersionSpec(name="default", path=default_dir),
            WorkerVersionSpec(name="flipped", path=flipped_dir),
        ],
        "store": tiny_score_store,
        "flipped": flipped,
    }


def _request(port, method, path, body=None, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _batch_body(store, rows):
    return json.dumps(
        {
            "claims": [
                {
                    "provider_id": int(p),
                    "cell": int(c),
                    "technology": int(t),
                }
                for p, c, t in (store.claims.key_at(int(r)) for r in rows)
            ]
        }
    ).encode()


def test_pool_batchscore_bitwise_identical_to_single_process(pool_bundles):
    """Every worker's batchScore body is byte-for-byte what one
    in-process server would have sent — shared mmap pages change the
    process model, never the wire."""
    store = pool_bundles["store"]
    rows = np.linspace(0, len(store) - 1, 16).astype(int)
    body = _batch_body(store, rows)

    service = AuditService(store, version_name="default")
    import threading

    from repro.serve import make_server

    reference = make_server(service)
    threading.Thread(target=reference.serve_forever, daemon=True).start()
    try:
        status, expected = _request(
            reference.server_address[1], "POST", "/v2/claims:batchScore", body
        )
        assert status == 200
    finally:
        reference.shutdown()
        reference.server_close()
        service.close()

    with WorkerPool(pool_bundles["specs"], n_workers=2) as pool:
        # Fresh connections spread across workers; every one must agree.
        for _ in range(6):
            status, got = _request(
                pool.port, "POST", "/v2/claims:batchScore", body
            )
            assert status == 200
            assert got == expected


def test_pool_metrics_aggregate_across_workers(pool_bundles):
    """``GET /metrics`` answers for the fleet: counters summed across
    workers, the parent's supervision gauges labelled in."""
    store = pool_bundles["store"]
    body = _batch_body(store, np.arange(min(8, len(store))))
    with WorkerPool(pool_bundles["specs"], n_workers=2) as pool:
        n_requests = 5
        for _ in range(n_requests):
            status, _ = _request(pool.port, "POST", "/v2/claims:batchScore", body)
            assert status == 200
        # A handler records its request *after* the response bytes hit
        # the wire, so poll briefly for the last increment to land.
        deadline = time.monotonic() + 5.0
        while True:
            view = pool.fleet_metrics()
            assert view is not None
            # Counters merged by summing: the fleet served what we sent.
            http_total = sum(
                row["value"]
                for row in view["service"]["http_requests_total"]["series"]
            )
            if http_total >= n_requests or time.monotonic() > deadline:
                break
            time.sleep(0.02)
        assert view["workers"] == 2
        assert http_total == n_requests
        # The parent's registry rides along, gauge-labelled per source.
        pool_rows = view["service"]["pool_workers"]["series"]
        assert [row["labels"] for row in pool_rows] == [{"worker": "parent"}]
        assert pool_rows[0]["value"] == 2
        # And the same view over the wire, through any worker.
        status, raw = _request(pool.port, "GET", "/metrics")
        assert status == 200
        doc = json.loads(raw)
        assert doc["workers"] == 2
        assert "pool_workers" in doc["service"]
        assert "http_requests_total" in doc["service"]
        # Prometheus rendering of the merged registries also works.
        status, raw = _request(pool.port, "GET", "/metrics?format=prometheus")
        assert status == 200
        assert b"# TYPE http_requests_total counter" in raw


def test_pool_two_phase_swap_is_fleet_consistent(pool_bundles):
    """activate() flips every worker or none: responses match the old
    default before, the new default after, and an unknown version aborts
    with the fleet untouched."""
    store = pool_bundles["store"]
    flipped = pool_bundles["flipped"]
    row = int(len(store) // 2)
    p, c, t = store.claims.key_at(row)
    path = f"/v2/claims/{int(p)}/{int(c)}/{int(t)}"

    def read_all(pool, n=6):
        out = []
        for _ in range(n):
            status, raw = _request(pool.port, "GET", path)
            assert status == 200
            doc = json.loads(raw)
            out.append((doc["model_version"], doc["record"]["margin"]))
        return out

    with WorkerPool(pool_bundles["specs"], n_workers=2) as pool:
        for version, margin in read_all(pool):
            assert version == "default"
            assert margin == float(store.margin[row])
        desc = pool.activate("flipped")
        assert desc["name"] == "flipped"
        assert desc["etag"] == flipped.etag
        assert pool.default_name == "flipped"
        for version, margin in read_all(pool):
            assert version == "flipped"
            assert margin == float(flipped.margin[row])
        # Unknown version: abort, nothing changes anywhere.
        with pytest.raises(RuntimeError, match="failed to stage"):
            pool.activate("nope")
        assert pool.default_name == "flipped"
        for version, _ in read_all(pool, n=3):
            assert version == "flipped"
        aborted = pool.metrics.counter("pool_swaps_total", outcome="aborted")
        committed = pool.metrics.counter("pool_swaps_total", outcome="committed")
        assert aborted.value == 1
        assert committed.value == 1


def test_pool_respawns_killed_worker_on_current_default(pool_bundles):
    """SIGKILL one worker: the monitor respawns it, the restart counter
    moves, and the replacement comes up serving the *current* default
    (i.e. a post-swap kill heals into the post-swap world)."""
    with WorkerPool(pool_bundles["specs"], n_workers=2) as pool:
        pool.activate("flipped")
        victim = pool.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            pids = pool.ping()
            if len(pids) == 2 and victim not in pids:
                break
            time.sleep(0.05)
        else:
            pytest.fail("killed worker was not respawned in time")
        assert pool.metrics.counter("pool_worker_restarts_total").value >= 1
        described = pool.describe()
        assert len(described) == 2
        assert all(d["default"] == "flipped" for d in described)
        # The respawned fleet still serves coherent responses.
        store = pool_bundles["flipped"]
        row = 0
        p, c, t = store.claims.key_at(row)
        status, raw = _request(
            pool.port, "GET", f"/v2/claims/{int(p)}/{int(c)}/{int(t)}"
        )
        assert status == 200
        doc = json.loads(raw)
        assert doc["model_version"] == "flipped"
        assert doc["record"]["margin"] == float(store.margin[row])


def test_pool_respawns_worker_killed_while_starting(pool_bundles):
    """A respawn SIGKILLed before its ready handshake is respawned again:
    the monitor must neither sit out the ready timeout on a dead process
    nor lose the slot because its sentinel already fired."""
    with WorkerPool(pool_bundles["specs"], n_workers=2) as pool:
        first = pool.worker_pids()
        os.kill(first[0], signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            fresh = [pid for pid in pool.worker_pids() if pid not in first]
            if fresh:
                break
            time.sleep(0.001)
        else:
            pytest.fail("killed worker was not respawned in time")
        os.kill(fresh[0], signal.SIGKILL)
        restarts = pool.metrics.counter("pool_worker_restarts_total")
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            pids = pool.ping()
            if restarts.value >= 2 and len(pids) == 2 and fresh[0] not in pids:
                break
            time.sleep(0.05)
        else:
            pytest.fail("a worker killed while starting was not respawned")


def test_pool_inherited_socket_fallback(pool_bundles):
    """reuse_port=False exercises the parent-bound inherited-socket
    accept model end to end."""
    store = pool_bundles["store"]
    with WorkerPool(
        pool_bundles["specs"], n_workers=2, reuse_port=False
    ) as pool:
        assert not pool.reuse_port
        assert len(pool.describe()) == 2
        body = _batch_body(store, np.arange(min(4, len(store))))
        for _ in range(4):
            status, raw = _request(
                pool.port, "POST", "/v2/claims:batchScore", body
            )
            assert status == 200
            doc = json.loads(raw)
            assert doc["model_version"] == "default"
            assert all(r is not None for r in doc["results"])


def test_reuse_port_detection_matches_platform():
    import socket as _socket

    assert reuse_port_available() == hasattr(_socket, "SO_REUSEPORT")
