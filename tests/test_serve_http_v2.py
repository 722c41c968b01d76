"""v2 HTTP API: resource routes, cursor pagination, limits, models."""

import json

import http.client

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fcc.bdc import ClaimColumns
from repro.fcc.states import STATES
from repro.serve import AuditService, ClaimScoreStore
from repro.serve.http import DEFAULT_PAGE_LIMIT, MAX_RESULT_ROWS
from repro.serve.schemas import decode_cursor, encode_cursor


@pytest.fixture(scope="module", params=["monolithic", "sharded"])
def served(request, tiny_model, tiny_score_store, ephemeral_server, tmp_path_factory):
    """A live server with two registered versions (cold path on default).

    Parametrized over the store substrate: the ``sharded`` variant
    serves a store round-tripped through a per-state shard bundle
    (``save_sharded``/``load_sharded``, mmap-backed), so every v2 route
    assertion doubles as a sharded-equivalence check — the bundle must
    reproduce records, ranks, cursors, and etags bitwise.
    """
    model, _split = tiny_model
    store = tiny_score_store
    if request.param == "sharded":
        root = str(tmp_path_factory.mktemp("sharded-store"))
        store.save_sharded(root, shards=4)
        store = ClaimScoreStore.load_sharded(root)
    service = AuditService.from_model(model, store=store)
    flipped = ClaimScoreStore(store.claims, -store.margin)
    service.add_version("flipped", flipped)
    with ephemeral_server(service) as server:
        yield server, service
    service.close()


def _json(server, method, path, body=None):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _known_key(store, nth=0):
    return store.claims.key_at(int(store.sus_order[nth]))


# -- GET /v2/claims/{...} -----------------------------------------------------


def test_v2_claim_lookup(served, tiny_score_store):
    server, _service = served
    pid, cell, tech = _known_key(tiny_score_store)
    status, doc = _json(server, "GET", f"/v2/claims/{pid}/{cell}/{tech}")
    assert status == 200
    assert doc["model_version"] == "default"
    assert doc["record"] == tiny_score_store.record(int(tiny_score_store.sus_order[0]))


def test_v2_claim_404_and_bad_path(served):
    server, _service = served
    status, doc = _json(server, "GET", "/v2/claims/-1/2/3")
    assert status == 404 and "state=XX" in doc["error"]
    status, doc = _json(server, "GET", "/v2/claims/abc/2/3")
    assert status == 400 and "provider_id" in doc["error"]


def test_v2_claim_cold_path(served, tiny_score_store):
    server, service = served
    pid, cell, _tech = _known_key(tiny_score_store)
    missing = next(
        t
        for t in (10, 40, 50, 70, 71)
        if tiny_score_store.positions(
            np.array([pid]), np.array([cell], dtype=np.uint64), np.array([t])
        )[0]
        < 0
    )
    status, doc = _json(
        server, "GET", f"/v2/claims/{pid}/{cell}/{missing}?state=TX"
    )
    assert status == 200
    assert doc["record"]["precomputed"] is False
    assert doc["record"]["rank"] is None
    # A cold record carries no claim aggregates: precomputed follows rank.
    assert list(doc["record"]) == [
        "provider_id", "cell", "technology", "state", "score", "margin",
        "percentile", "rank", "precomputed",
    ]
    assert doc["record"] == service.score_claim(pid, cell, missing, "TX")


# -- GET /v2/claims (pagination) ---------------------------------------------


def test_v2_list_first_page_defaults(served, tiny_score_store):
    server, _service = served
    status, doc = _json(server, "GET", "/v2/claims")
    assert status == 200
    assert doc["model_version"] == "default"
    assert doc["total"] == len(tiny_score_store)
    assert len(doc["items"]) == min(DEFAULT_PAGE_LIMIT, len(tiny_score_store))
    ranks = [item["rank"] for item in doc["items"]]
    assert ranks == list(range(len(ranks)))
    cursor = decode_cursor(doc["next_cursor"])
    assert cursor.version == "default" and cursor.rank == len(ranks)


def test_v2_full_walk_equals_suspicion_order(served, tiny_score_store):
    """Concatenated pages reproduce sus_order exactly, no gaps or repeats."""
    server, _service = served
    seen = []
    path = "/v2/claims?limit=997"
    while True:
        status, doc = _json(server, "GET", path)
        assert status == 200
        seen.extend(item["rank"] for item in doc["items"])
        if doc["next_cursor"] is None:
            break
        path = f"/v2/claims?limit=997&cursor={doc['next_cursor']}"
    assert seen == list(range(len(tiny_score_store)))


def test_v2_filtered_walk_matches_store(served, tiny_score_store):
    server, service = served
    store = tiny_score_store
    pid = int(store.claims.provider_id[int(store.sus_order[0])])
    rows_expected = [
        int(r)
        for r in store.sus_order[
            (store.claims.provider_id == pid)[store.sus_order]
        ]
    ]
    got = []
    path = f"/v2/claims?provider_id={pid}&limit=7"
    while True:
        status, doc = _json(server, "GET", path)
        assert status == 200
        assert doc["total"] == len(rows_expected)
        got.extend(item["rank"] for item in doc["items"])
        if doc["next_cursor"] is None:
            break
        path = f"/v2/claims?provider_id={pid}&limit=7&cursor={doc['next_cursor']}"
    assert got == [int(store.sus_rank[r]) for r in rows_expected]


def test_v2_walk_records_match_monolithic_store(served, tiny_score_store):
    """Element-for-element: every record served down the cursor walk —
    on both store substrates — equals the monolithic store's record for
    the same suspicion rank.  This is the serving-layer face of the
    sharded == monolithic equivalence contract."""
    server, _service = served
    items = []
    path = "/v2/claims?limit=1009"
    while True:
        status, doc = _json(server, "GET", path)
        assert status == 200
        items.extend(doc["items"])
        if doc["next_cursor"] is None:
            break
        path = f"/v2/claims?limit=1009&cursor={doc['next_cursor']}"
    store = tiny_score_store
    assert len(items) == len(store)
    expected = store.records(store.sus_order)
    assert items == expected


@pytest.mark.parametrize(
    "path,fragment",
    [
        ("/v2/claims?limit=0", "limit must be in"),
        (f"/v2/claims?limit={MAX_RESULT_ROWS + 1}", "limit must be in"),
        ("/v2/claims?limit=abc", "must be an integer"),
        ("/v2/claims?cursor=!!!", "page token"),
        ("/v2/claims?state=NOWHERE", "unknown state"),
        ("/v2/claims?state=TX&state=CA", "given 2 times"),
        ("/v2/claims/1/2/3?state=TX&state=CA", "given 2 times"),
    ],
)
def test_v2_list_failure_modes(served, path, fragment):
    server, _service = served
    status, doc = _json(server, "GET", path)
    assert status == 400 and fragment in doc["error"]


def test_v2_cursor_version_and_filter_pinning(served, tiny_score_store):
    server, _service = served
    _status, doc = _json(server, "GET", "/v2/claims?limit=2")
    cursor = doc["next_cursor"]
    # Same cursor, different filters: refused.
    status, doc = _json(server, "GET", f"/v2/claims?limit=2&technology=50&cursor={cursor}")
    assert status == 400 and "does not match the request filters" in doc["error"]
    # A cursor minted for another model version: refused with the names.
    c = decode_cursor(cursor)
    assert c.etag == tiny_score_store.etag
    foreign = encode_cursor("flipped", c.rank, c.fingerprint, c.etag)
    status, doc = _json(server, "GET", f"/v2/claims?limit=2&cursor={foreign}")
    assert status == 400 and "'flipped'" in doc["error"]
    # Same version name but a different store build (etag): refused.
    stale = encode_cursor(c.version, c.rank, c.fingerprint, "deadbeef")
    status, doc = _json(server, "GET", f"/v2/claims?limit=2&cursor={stale}")
    assert status == 400 and "different build" in doc["error"]


# -- POST /v2/claims:batchScore ----------------------------------------------


def test_v2_batch_matches_bulk_path(served, tiny_score_store):
    server, service = served
    store = tiny_score_store
    rows = np.linspace(0, len(store) - 1, 32).astype(int)
    claims = store.claims
    body = json.dumps(
        {
            "claims": [
                {
                    "provider_id": int(claims.provider_id[r]),
                    "cell": int(claims.cell[r]),
                    "technology": int(claims.technology[r]),
                }
                for r in rows
            ]
            + [{"provider_id": -1, "cell": 2, "technology": 3}]
        }
    )
    status, doc = _json(server, "POST", "/v2/claims:batchScore", body=body)
    assert status == 200
    assert doc["model_version"] == "default"
    expected = service.score_claims(
        claims.provider_id[rows], claims.cell[rows], claims.technology[rows]
    ) + [None]
    assert doc["results"] == expected


def test_v2_batch_failure_modes(served):
    server, _service = served
    cases = [
        ("[1]", 'body must be {"claims"'),
        ('{"claims": [42]}', "claims[0] must be a JSON object"),
        (
            '{"claims": [{"provider_id": "x", "cell": 2, "technology": 3}]}',
            "claims[0].provider_id must be an integer",
        ),
        (
            '{"claims": [{"provider_id": 1, "cell": 2, "technology": 3, "state": 9}]}',
            "claims[0].state",
        ),
    ]
    for body, fragment in cases:
        status, doc = _json(server, "POST", "/v2/claims:batchScore", body=body)
        assert status == 400 and fragment in doc["error"], body


def test_out_of_range_keys_are_400_never_500(served):
    """Keys overflowing the columnar dtypes must fail as 400s on every
    scoring endpoint — not as OverflowError 500s in the batch scorer."""
    server, _service = served
    huge = 10**20
    for method, path, body in (
        ("GET", "/v2/claims/1/-5/50", None),
        ("GET", f"/v2/claims/{huge}/2/50", None),
        ("GET", f"/v2/claims/1/{2**64}/50", None),
        ("GET", f"/v2/providers/{huge}", None),
        ("GET", f"/v2/claims?provider_id={huge}", None),
        ("GET", "/v2/claims?cell=-5", None),
        (
            "POST",
            "/v2/claims:batchScore",
            json.dumps(
                {"claims": [{"provider_id": 1, "cell": -5, "technology": 50}]}
            ),
        ),
        (
            "POST",
            "/v2/claims:batchScore",
            json.dumps(
                {"claims": [{"provider_id": huge, "cell": 2, "technology": 50}]}
            ),
        ),
    ):
        status, doc = _json(server, method, path, body=body)
        assert status == 400 and "error" in doc, (method, path, status, doc)


def test_v2_batch_enforces_row_cap(served):
    server, _service = served
    claims = [{"provider_id": 1, "cell": 2, "technology": 3}] * (
        MAX_RESULT_ROWS + 1
    )
    status, doc = _json(
        server,
        "POST",
        "/v2/claims:batchScore",
        body=json.dumps({"claims": claims}),
    )
    assert status == 400 and f"at most {MAX_RESULT_ROWS}" in doc["error"]


# -- summaries, models, healthz ----------------------------------------------


def test_v2_provider_and_state(served, tiny_score_store):
    server, service = served
    pid, _cell, _tech = _known_key(tiny_score_store)
    status, doc = _json(server, "GET", f"/v2/providers/{pid}")
    assert status == 200
    assert doc == {**service.provider_summary(pid), "model_version": "default"}
    state = doc["top_claims"][0]["state"]
    status, doc = _json(server, "GET", f"/v2/states/{state}")
    assert status == 200
    assert doc == {**service.state_summary(state), "model_version": "default"}
    # An empty provider keeps its short shape.
    status, doc = _json(server, "GET", "/v2/providers/-1")
    assert doc == {"provider_id": -1, "n_claims": 0, "model_version": "default"}
    status, doc = _json(server, "GET", "/v2/providers/abc")
    assert status == 400
    status, doc = _json(server, "GET", "/v2/states/NOWHERE")
    assert status == 400 and "unknown state" in doc["error"]


def test_v2_models_and_activate(served):
    server, _service = served
    status, doc = _json(server, "GET", "/v2/models")
    assert status == 200
    names = {v["name"] for v in doc["versions"]}
    assert names == {"default", "flipped"}
    assert doc["default"] == "default"
    try:
        status, doc = _json(server, "POST", "/v2/models/flipped:activate")
        assert status == 200
        assert doc == {"default": "flipped", "previous": "default"}
        status, doc = _json(server, "GET", "/v2/models")
        assert doc["default"] == "flipped"
        status, doc = _json(server, "POST", "/v2/models/missing:activate")
        assert status == 404 and "missing" in doc["error"]
    finally:
        _json(server, "POST", "/v2/models/default:activate")


# -- pre-encoded JSON fast path ----------------------------------------------


def test_record_json_matches_json_dumps(served, tiny_score_store):
    """Cached fragments are byte-identical to json.dumps of the record."""
    store = tiny_score_store
    rows = [0, 1, len(store) - 1]
    for row in rows:
        assert store.record_json(row) == json.dumps(store.record(row)).encode(
            "utf-8"
        )
        # Second call returns the cached object, not a re-encode.
        assert store.record_json(row) is store.record_json(row)
    assert store.records_json(np.array(rows)) == [
        store.record_json(r) for r in rows
    ]


#: Floats where JSON spelling is easy to get wrong: non-finite values,
#: signed zero, subnormals, and either side of ``repr``'s switch to
#: exponent notation (at 1e16 and below 1e-4).
_EDGE_FLOATS = (
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
    2.225073858507201e-308, 1e16, 9999999999999998.0, 1e15, 1e-4,
    9.999999999999999e-05, 1e-5, 0.1, 100.0, -1.5,
)
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
_INT64 = st.integers(-(2**63), 2**63 - 1)


def _synthetic_store(table: list[dict]) -> ClaimScoreStore:
    """A store whose every record field is given per row (no model)."""
    n = len(table)

    def arr(name, dtype):
        return np.array([row[name] for row in table], dtype=dtype)

    claims = ClaimColumns(
        provider_id=arr("provider_id", np.int64),
        cell=arr("cell", np.uint64),
        technology=arr("technology", np.int16),
        claimed_count=arr("claimed_count", np.int64),
        max_download_mbps=arr("max_download_mbps", np.float64),
        max_upload_mbps=arr("max_upload_mbps", np.float64),
        low_latency=arr("low_latency", bool),
        state_idx=arr("state_idx", np.int16),
    )
    return ClaimScoreStore._from_saved_arrays(
        claims,
        arr("margin", np.float64),
        {
            "score": arr("score", np.float64),
            "sus_order": np.arange(n, dtype=np.int64),
            "sus_rank": arr("rank", np.int64),
            "sorted_margin": np.sort(arr("margin", np.float64)),
            "percentile": arr("percentile", np.float64),
        },
    )


_RECORD_ROW = st.fixed_dictionaries(
    {
        "provider_id": _INT64,
        "cell": st.one_of(
            st.sampled_from([0, 2**63 - 1, 2**63, 2**64 - 1]),
            st.integers(0, 2**64 - 1),
        ),
        "technology": st.integers(-(2**15), 2**15 - 1),
        "state_idx": st.integers(0, len(STATES) - 1),
        "score": _FLOATS,
        "margin": _FLOATS,
        "percentile": _FLOATS,
        "rank": _INT64,
        "claimed_count": _INT64,
        "max_download_mbps": _FLOATS,
        "max_upload_mbps": _FLOATS,
        "low_latency": st.booleans(),
    }
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), table=st.lists(_RECORD_ROW, min_size=1, max_size=12))
def test_records_json_matches_json_dumps_property(data, table):
    """The column-wise encoder is byte-identical to its oracle,
    ``json.dumps(record(row))``, on drawn records: every edge float, cells
    past 2**63, both latency flags, duplicate rows, an empty request and
    a request whose rows are partly cached already."""
    store = _synthetic_store(table)
    index = st.integers(0, len(table) - 1)
    cached_first = data.draw(st.lists(index, max_size=len(table)))
    rows = np.array(data.draw(st.lists(index, max_size=24)), dtype=np.int64)

    def oracle(picked):
        return [json.dumps(store.record(int(r))).encode("utf-8") for r in picked]

    assert store.records_json(np.array(cached_first, dtype=np.int64)) == oracle(
        cached_first
    )
    assert store.records_json(rows) == oracle(rows)
    assert store.records_json(np.empty(0, dtype=np.int64)) == []
    for row in rows.tolist():
        assert store.record_json(row) is store.record_json(row)


def test_records_json_spells_every_state():
    """One record per state index: each state encodes as its abbreviation."""
    base = {
        "provider_id": 1, "cell": 2**63 + 5, "technology": 50, "score": 0.5,
        "margin": 0.0, "percentile": 50.0, "rank": 0, "claimed_count": 3,
        "max_download_mbps": 100.0, "max_upload_mbps": 20.0,
    }
    table = [
        {**base, "state_idx": i, "low_latency": bool(i % 2)}
        for i in range(len(STATES))
    ]
    store = _synthetic_store(table)
    rows = np.arange(len(STATES))
    assert store.records_json(rows) == [
        json.dumps(store.record(r)).encode("utf-8") for r in range(len(STATES))
    ]
    assert [json.loads(f)["state"] for f in store.records_json(rows)] == [
        s.abbr for s in STATES
    ]


def test_page_envelope_json_matches_json_dumps(served, tiny_score_store):
    """The spliced envelope parses and re-encodes to the same bytes as
    building the dict and json.dumps-ing it — the v2 wire contract the
    fast path must never drift from."""
    from repro.serve.http import page_envelope_json

    store = tiny_score_store
    rows = store.sus_order[:5]
    for next_cursor in ("abc123", None):
        body = page_envelope_json(
            store.records_json(rows), next_cursor, len(store), "default"
        )
        expected = json.dumps(
            {
                "items": store.records(rows),
                "next_cursor": next_cursor,
                "total": len(store),
                "model_version": "default",
            }
        ).encode("utf-8")
        assert body == expected


def test_v2_list_page_bytes_equal_dict_encoding(served, tiny_score_store):
    """The served page body (spliced fragments) is exactly what encoding
    the equivalent response dict would produce."""
    server, _service = served
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", "/v2/claims?limit=4")
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    assert raw == json.dumps(json.loads(raw)).encode("utf-8")
    doc = json.loads(raw)
    assert doc["items"] == tiny_score_store.records(
        tiny_score_store.sus_order[:4]
    )


def test_v2_request_counters_attributed_to_version(served):
    server, service = served
    before = service.registry.get("default").requests
    _json(server, "GET", "/v2/claims?limit=1")
    _json(server, "GET", "/v2/claims?limit=1")
    assert service.registry.get("default").requests == before + 2
