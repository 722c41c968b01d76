"""Typed wire schemas: validation, canonical encoding, cursor codec."""

import json

import pytest

from repro.serve.schemas import (
    BatchScoreRequest,
    BatchScoreResponse,
    ClaimKey,
    Cursor,
    ErrorBody,
    Page,
    SchemaError,
    ScoreRecord,
    decode_cursor,
    encode_cursor,
    filter_fingerprint,
)


def _precomputed_record(**overrides):
    doc = {
        "provider_id": 100043,
        "cell": 12345,
        "technology": 50,
        "state": "TX",
        "score": 0.93,
        "margin": 2.5,
        "percentile": 99.5,
        "rank": 0,
        "claimed_count": 7,
        "max_download_mbps": 100.0,
        "max_upload_mbps": 20.0,
        "low_latency": True,
        "precomputed": True,
    }
    doc.update(overrides)
    return doc


# -- ClaimKey -----------------------------------------------------------------


def test_claim_key_roundtrip():
    key = ClaimKey.from_dict({"provider_id": 1, "cell": 2, "technology": 3})
    assert key == ClaimKey(1, 2, 3)
    assert key.to_dict() == {"provider_id": 1, "cell": 2, "technology": 3}
    assert key.payload == (1, 2, 3, None)
    cold = ClaimKey.from_dict(
        {"provider_id": 1, "cell": 2, "technology": 3, "state": "TX"}
    )
    assert cold.state == "TX" and cold.to_dict()["state"] == "TX"


@pytest.mark.parametrize(
    "doc",
    [
        "not an object",
        {"cell": 2, "technology": 3},  # provider_id missing
        {"provider_id": "abc", "cell": 2, "technology": 3},
        {"provider_id": 1.5, "cell": 2, "technology": 3},  # float is not int
        {"provider_id": True, "cell": 2, "technology": 3},  # bool is not int
        {"provider_id": 1, "cell": 2, "technology": 3, "state": 7},
    ],
)
def test_claim_key_rejects_malformed(doc):
    with pytest.raises(SchemaError):
        ClaimKey.from_dict(doc)


def test_claim_key_error_names_the_field():
    with pytest.raises(SchemaError, match=r"claims\[3\]\.cell"):
        ClaimKey.from_dict({"provider_id": 1, "technology": 3}, "claims[3]")


# -- ScoreRecord --------------------------------------------------------------


def test_score_record_roundtrip_precomputed():
    doc = _precomputed_record()
    record = ScoreRecord.from_dict(doc)
    assert record.rank == 0 and record.precomputed is True
    assert record.to_dict() == doc
    # The canonical key order round-trips exactly.
    assert list(record.to_dict()) == list(doc)


def test_score_record_roundtrip_cold():
    doc = {
        "provider_id": 1,
        "cell": 2,
        "technology": 3,
        "state": "TX",
        "score": 0.5,
        "margin": 0.0,
        "percentile": 50.0,
        "rank": None,
        "precomputed": False,
    }
    record = ScoreRecord.from_dict(doc)
    assert record.rank is None and record.claimed_count is None
    assert record.to_dict() == doc
    assert list(record.to_dict()) == list(doc)


def test_score_record_rejects_malformed():
    with pytest.raises(SchemaError, match="precomputed"):
        ScoreRecord.from_dict(_precomputed_record(precomputed="yes"))
    with pytest.raises(SchemaError, match="score"):
        ScoreRecord.from_dict(_precomputed_record(score="high"))


# -- Page / ErrorBody / batch ------------------------------------------------


def test_page_roundtrip():
    record = ScoreRecord.from_dict(_precomputed_record())
    page = Page(
        items=(record,), next_cursor="abc", total=12, model_version="default"
    )
    doc = json.loads(json.dumps(page.to_dict()))
    assert Page.from_dict(doc) == page
    with pytest.raises(SchemaError, match="items"):
        Page.from_dict({"items": "nope", "total": 0, "model_version": "x"})


def test_error_body_roundtrip():
    body = ErrorBody("boom")
    assert ErrorBody.from_dict(body.to_dict()) == body
    with pytest.raises(SchemaError):
        ErrorBody.from_dict({"error": 5})


def test_batch_request_roundtrip_and_caps():
    request = BatchScoreRequest.from_dict(
        {"claims": [{"provider_id": 1, "cell": 2, "technology": 3}]}
    )
    assert request.claims == (ClaimKey(1, 2, 3),)
    assert BatchScoreRequest.from_dict(request.to_dict()) == request
    with pytest.raises(SchemaError, match="at most 1 claims"):
        BatchScoreRequest.from_dict(
            {"claims": [{}, {}]},
            max_claims=1,
        )
    with pytest.raises(SchemaError, match="claims"):
        BatchScoreRequest.from_dict({"claims": "nope"})


def test_batch_response_roundtrip():
    record = ScoreRecord.from_dict(_precomputed_record())
    response = BatchScoreResponse(results=(record, None), model_version="v1")
    doc = json.loads(json.dumps(response.to_dict()))
    assert BatchScoreResponse.from_dict(doc) == response


# -- cursors ------------------------------------------------------------------


def test_cursor_roundtrip():
    fp = filter_fingerprint(provider_id=7, state_idx=None, technology=50)
    token = encode_cursor("default", 1234, fp, "abc123")
    assert decode_cursor(token) == Cursor("default", 1234, fp, "abc123")
    # The etag defaults empty for callers without a store fingerprint.
    assert decode_cursor(encode_cursor("v", 0, fp)).etag == ""
    # URL-safe, no padding.
    assert "=" not in token and "+" not in token and "/" not in token


def test_filter_fingerprint_drops_absent_filters():
    assert filter_fingerprint(a=None, b=2) == filter_fingerprint(b=2)
    assert filter_fingerprint(b=2) != filter_fingerprint(b=3)


@pytest.mark.parametrize(
    "token",
    ["", "!!!!", "bm90IGpzb24", encode_cursor("v", 0, "f")[:-4] + "AAAA", None, 7],
)
def test_cursor_rejects_garbage(token):
    with pytest.raises(SchemaError):
        decode_cursor(token)


def test_cursor_rejects_negative_rank_and_wrong_schema():
    import base64

    for payload in (
        {"s": 1, "v": "x", "r": -1, "f": ""},
        {"s": 99, "v": "x", "r": 0, "f": ""},
        {"s": 1, "v": 5, "r": 0, "f": ""},
        {"s": 1, "v": "x", "r": True, "f": ""},
        [1, 2, 3],
    ):
        token = (
            base64.urlsafe_b64encode(json.dumps(payload).encode())
            .rstrip(b"=")
            .decode()
        )
        with pytest.raises(SchemaError):
            decode_cursor(token)
