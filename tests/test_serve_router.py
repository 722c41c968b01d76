"""Declarative router: pattern matching and typed query-param parsing."""

import pytest

from repro.serve.router import (
    BadRequest,
    NotFound,
    PayloadTooLarge,
    QueryParam,
    Router,
    parse_query,
)


def _handler(ctx):  # pragma: no cover - never invoked
    return ctx


@pytest.fixture()
def router():
    r = Router()
    r.add("GET", "/healthz", _handler, name="health")
    r.add("GET", "/v2/claims/{provider_id}/{cell}/{technology}", _handler)
    r.add("GET", "/v2/claims", _handler)
    r.add("POST", "/v2/claims:batchScore", _handler)
    r.add("POST", "/v2/models/{name}:activate", _handler)
    r.add("GET", "/providers/{provider_id}/summary", _handler)
    return r


# -- matching -----------------------------------------------------------------


def test_literal_and_captures(router):
    route, params = router.match("GET", "/healthz")
    assert route.name == "health" and params == {}
    route, params = router.match("GET", "/v2/claims/17/123456/50")
    assert params == {"provider_id": "17", "cell": "123456", "technology": "50"}
    assert router.match("GET", "/v2/claims") is not None


def test_custom_method_suffix_matches_literally(router):
    route, params = router.match("POST", "/v2/claims:batchScore")
    assert params == {} and route.pattern.endswith(":batchScore")
    # The capture stops at the literal ":activate" suffix.
    route, params = router.match("POST", "/v2/models/2024-06:activate")
    assert params == {"name": "2024-06"}


def test_method_mismatch_and_unknown_paths(router):
    assert router.match("POST", "/healthz") is None
    assert router.match("GET", "/v2/claims:batchScore") is None
    assert router.match("GET", "/nope") is None
    # Captures never span a slash.
    assert router.match("GET", "/v2/claims/1/2/3/4") is None
    assert router.match("GET", "/providers//summary") is None


def test_trailing_suffix_capture(router):
    route, params = router.match("GET", "/providers/abc/summary")
    assert params == {"provider_id": "abc"}  # typing happens in the handler


def test_captures_never_match_empty_or_span_slashes(router):
    """A capture is exactly one non-empty path segment."""
    assert router.match("GET", "/providers//summary") is None
    assert router.match("GET", "/providers/1/2/summary") is None
    assert router.match("GET", "/v2/claims/1//3") is None
    assert router.match("GET", "/v2/claims//2/3") is None
    assert router.match("POST", "/v2/models/:activate") is None
    assert router.match("POST", "/v2/models/a/b:activate") is None
    assert router.match("GET", "/providers/7/summary")[1] == {"provider_id": "7"}
    assert router.match("GET", "/providers/7") is None


def test_first_match_wins():
    r = Router()
    r.add("GET", "/a/{x}", _handler, name="first")
    r.add("GET", "/a/literal", _handler, name="second")
    route, _ = r.match("GET", "/a/literal")
    assert route.name == "first"


# -- query parsing ------------------------------------------------------------

_SPEC = (
    QueryParam("k", "int", default=10),
    QueryParam("state"),
    QueryParam("provider_id", "int", required=True),
)


def test_parse_query_types_defaults_required():
    out = parse_query({"provider_id": ["7"], "state": ["TX"]}, _SPEC)
    assert out == {"k": 10, "state": "TX", "provider_id": 7}
    with pytest.raises(BadRequest, match="missing required parameter 'provider_id'"):
        parse_query({}, _SPEC)
    with pytest.raises(BadRequest, match="parameter 'k' must be an integer"):
        parse_query({"k": ["abc"], "provider_id": ["1"]}, _SPEC)


def test_parse_query_rejects_repeated_parameters():
    """?state=TX&state=CA used to silently resolve to TX — now a 400."""
    with pytest.raises(BadRequest, match="'state' was given 2 times"):
        parse_query({"state": ["TX", "CA"], "provider_id": ["1"]}, _SPEC)
    with pytest.raises(BadRequest, match="'provider_id' was given 3 times"):
        parse_query({"provider_id": ["1", "2", "3"]}, _SPEC)


def test_parse_query_ignores_undeclared_parameters():
    out = parse_query({"provider_id": ["1"], "trace": ["a", "b"]}, _SPEC)
    assert "trace" not in out


def test_error_statuses():
    assert BadRequest.status == 400
    assert NotFound.status == 404
    assert PayloadTooLarge.status == 413
