"""AuditService facade + stdlib HTTP API."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.reports import SliceReport
from repro.dataset.observations import LabelSource, Observation
from repro.fcc.providers import TECHNOLOGY_CODES
from repro.fcc.states import STATES
from repro.serve import AuditService, make_server


@pytest.fixture()
def service(tiny_model, tiny_score_store):
    model, _ = tiny_model
    svc = AuditService.from_model(
        model, store=tiny_score_store, max_delay_s=0.0
    )
    yield svc
    svc.close()


def _known_key(store, row=0):
    claims = store.claims
    return (
        int(claims.provider_id[row]),
        int(claims.cell[row]),
        int(claims.technology[row]),
    )


def _missing_key(store):
    """An existing provider+cell with a technology it never filed there."""
    claims = store.claims
    pid, cell, tech = _known_key(store)
    for other in TECHNOLOGY_CODES:
        if other == tech:
            continue
        pos = store.positions(
            np.array([pid]), np.array([cell], dtype=np.uint64), np.array([other])
        )
        if pos[0] < 0:
            return pid, cell, other
    raise AssertionError("no missing technology found")


# -- query facade ------------------------------------------------------------


def test_score_claim_hit(service):
    pid, cell, tech = _known_key(service.store)
    record = service.score_claim(pid, cell, tech)
    assert record["precomputed"] is True
    assert record == service.store.record(0)


def test_score_claim_miss_without_state_is_none(service):
    pid, cell, tech = _missing_key(service.store)
    assert service.score_claim(pid, cell, tech) is None


def test_cold_path_matches_live_model(service, tiny_model):
    model, _ = tiny_model
    pid, cell, tech = _missing_key(service.store)
    state = service.store.record(0)["state"]
    record = service.score_claim(pid, cell, tech, state=state)
    assert record["precomputed"] is False
    assert record["rank"] is None
    obs = Observation(
        provider_id=pid, cell=cell, technology=tech, state=state,
        unserved=0, source=LabelSource.SYNTHETIC,
    )
    assert record["score"] == float(model.predict_proba([obs])[0])
    assert 0.0 <= record["percentile"] <= 100.0


def test_cold_path_requires_builder(tiny_score_store):
    svc = AuditService(tiny_score_store, max_delay_s=0.0)
    pid, cell, tech = _missing_key(tiny_score_store)
    with pytest.raises(RuntimeError, match="cold-path"):
        svc.score_claim(pid, cell, tech, state="TX")
    # Precomputed lookups still work without a classifier.
    known = _known_key(tiny_score_store)
    assert svc.score_claim(*known)["precomputed"] is True
    svc.close()


def test_bad_cold_payload_does_not_poison_the_batch(service):
    """A malformed hypothetical fails its own request; batchmates survive."""
    good_key = _known_key(service.store)
    missing = _missing_key(service.store)
    state = service.store.record(0)["state"]
    futs = [
        service.score_claim_async(*good_key),
        # Unknown provider: vectorization of this payload raises.
        service.score_claim_async(-12345, missing[1], missing[2], state=state),
        service.score_claim_async(*missing, state=state),
    ]
    service.batcher.flush()
    assert futs[0].result(timeout=5) == service.store.record(0)
    with pytest.raises(Exception, match="cold scoring failed"):
        futs[1].result(timeout=5)
    assert futs[2].result(timeout=5)["precomputed"] is False


def test_score_claim_rejects_unknown_state(service):
    pid, cell, tech = _known_key(service.store)
    with pytest.raises(ValueError, match="unknown state"):
        service.score_claim(pid, cell, tech, state="ZZ")


def test_score_claims_bulk_matches_store(service):
    store = service.store
    claims = store.claims
    n = min(2000, len(store))
    rows = np.arange(n)
    results = service.score_claims(
        claims.provider_id[rows], claims.cell[rows], claims.technology[rows]
    )
    assert len(results) == n
    assert all(r is not None for r in results)
    assert [r["rank"] for r in results] == [int(store.sus_rank[r]) for r in rows]
    # Misses come back as None in position.
    mixed = service.score_claims(
        np.array([claims.provider_id[0], -1]),
        np.array([claims.cell[0], claims.cell[0]], dtype=np.uint64),
        np.array([claims.technology[0], claims.technology[0]]),
    )
    assert mixed[0] is not None and mixed[1] is None


def test_single_and_bulk_paths_agree(service):
    store = service.store
    rows = [0, len(store) // 3, len(store) - 1]
    singles = [service.score_claim(*_known_key(store, r)) for r in rows]
    claims = store.claims
    idx = np.array(rows)
    bulk = service.score_claims(
        claims.provider_id[idx], claims.cell[idx], claims.technology[idx]
    )
    assert singles == bulk


def test_top_suspicious_with_state_filter(service):
    store = service.store
    top = service.top_suspicious(k=5)
    assert [r["rank"] for r in top] == list(range(5))
    state = top[0]["state"]
    filtered = service.top_suspicious(k=5, state=state)
    assert all(r["state"] == state for r in filtered)
    assert filtered[0] == top[0]
    with pytest.raises(ValueError):
        service.top_suspicious(k=5, state="not-a-state")


def test_summaries(service):
    store = service.store
    top = store.record(int(store.sus_order[0]))
    psum = service.provider_summary(top["provider_id"])
    assert psum["n_claims"] == int(
        (store.claims.provider_id == top["provider_id"]).sum()
    )
    assert 0.0 <= psum["suspicious_share"] <= 1.0
    assert psum["top_claims"][0] == top
    ssum = service.state_summary(top["state"].lower())  # case-insensitive
    assert ssum["state"] == top["state"]
    assert ssum["n_claims"] > 0
    empty = service.provider_summary(-1)
    assert empty == {"provider_id": -1, "n_claims": 0}


def test_slice_report_reuses_core_reports(service, tiny_model, tiny_dataset):
    _, split = tiny_model
    observations = split.test(tiny_dataset)[:120]
    report = service.slice_report(observations, "held-out sample")
    assert isinstance(report, SliceReport)
    assert report.n == len(observations)
    svc_no_model = AuditService(service.store, max_delay_s=0.0)
    with pytest.raises(RuntimeError, match="from_model"):
        svc_no_model.slice_report(observations, "x")


def test_stats_and_cache(service):
    pid, cell, tech = _known_key(service.store)
    service.score_claim(pid, cell, tech)
    service.score_claim(pid, cell, tech)
    (stats,) = service.registry.describe()["versions"]
    assert stats["n_claims"] == len(service.store)
    assert stats["cold_path_available"] is True
    assert stats["batcher"]["cache_hits"] >= 1


def test_from_artifacts_roundtrip(tmp_path, service):
    path = str(tmp_path / "bundle")
    service.save(path)
    standalone = AuditService.from_artifacts(path)
    assert np.array_equal(standalone.store.margin, service.store.margin)
    assert standalone.top_suspicious(k=10) == service.top_suspicious(k=10)
    # Loaded without a live builder: precomputed lookups work, cold is off.
    assert standalone.registry.default.cold_path_available is False
    standalone.close()


# -- HTTP API ----------------------------------------------------------------


@pytest.fixture()
def http_server(service):
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as resp:
        return resp.status, json.load(resp)


def _post(base, path, doc):
    req = urllib.request.Request(
        base + path,
        data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.load(resp)


def test_http_healthz_and_stats(http_server, service):
    status, doc = _get(http_server, "/healthz")
    assert status == 200 and doc["n_claims"] == len(service.store)
    assert "batcher" in doc
    status, doc = _get(http_server, "/v2/models")
    assert status == 200 and "batcher" in doc["versions"][0]


def _claim_path(pid, cell, tech):
    return f"/v2/claims/{pid}/{cell}/{tech}"


def test_http_claim_endpoint(http_server, service):
    status, doc = _get(http_server, _claim_path(*_known_key(service.store)))
    assert status == 200
    assert doc["record"] == service.store.record(0)


def test_http_claim_404_and_400(http_server, service):
    for path, code in (
        (_claim_path(*_missing_key(service.store)), 404),
        ("/v2/claims/abc/1/1", 400),
        ("/v2/claims/1/1/1?state=NOWHERE", 400),
        ("/v2/nowhere", 404),
    ):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(http_server, path)
        assert err.value.code == code, path


def test_http_cold_claim(http_server, service):
    path = _claim_path(*_missing_key(service.store)) + "?state=TX"
    status, doc = _get(http_server, path)
    assert status == 200
    assert doc["record"]["precomputed"] is False


def test_http_top(http_server, service):
    status, doc = _get(http_server, "/v2/claims?limit=7")
    assert status == 200
    assert [r["rank"] for r in doc["items"]] == list(range(7))
    state = doc["items"][0]["state"]
    status, filtered = _get(http_server, f"/v2/claims?limit=3&state={state}")
    assert all(r["state"] == state for r in filtered["items"])
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(http_server, "/v2/claims?limit=-1")
    assert err.value.code == 400


def test_http_summaries(http_server, service):
    top = service.top_suspicious(k=1)[0]
    status, doc = _get(http_server, f"/v2/providers/{top['provider_id']}")
    assert status == 200 and doc["n_claims"] > 0
    status, doc = _get(http_server, f"/v2/states/{top['state']}")
    assert status == 200 and doc["state"] == top["state"]
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(http_server, "/v2/providers/abc")
    assert err.value.code == 400


def test_http_bulk_score(http_server, service):
    pid, cell, tech = _known_key(service.store)
    miss = _missing_key(service.store)
    status, doc = _post(
        http_server,
        "/v2/claims:batchScore",
        {
            "claims": [
                {"provider_id": pid, "cell": cell, "technology": tech},
                {
                    "provider_id": miss[0],
                    "cell": miss[1],
                    "technology": miss[2],
                    "state": "CA",
                },
                {"provider_id": -1, "cell": 0, "technology": 10},
            ]
        },
    )
    assert status == 200
    first, cold, unknown = doc["results"]
    assert first["precomputed"] is True
    assert cold["precomputed"] is False
    assert unknown is None
    for bad in ({"claims": "nope"}, {"claims": [{"provider_id": 1}]}):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(http_server, "/v2/claims:batchScore", bad)
        assert err.value.code == 400


def test_http_concurrent_claims_coalesce(http_server, service):
    """Concurrent GETs share vectorized batches through the micro-batcher."""
    claims = service.store.claims
    rows = np.linspace(0, len(claims) - 1, 16).astype(int)
    before = service.batcher.stats.batches
    results = {}
    errors = []

    def fetch(row):
        pid = int(claims.provider_id[row])
        cell = int(claims.cell[row])
        tech = int(claims.technology[row])
        try:
            results[row] = _get(http_server, _claim_path(pid, cell, tech))[1][
                "record"
            ]
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=fetch, args=(int(r),)) for r in rows]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(results) == len(rows)
    for row, doc in results.items():
        assert doc == service.store.record(int(row))
    assert service.batcher.stats.batches > before
