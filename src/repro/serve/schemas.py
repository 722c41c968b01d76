"""Typed request/response schemas for the audit API (v2 wire contract).

Every payload that crosses the HTTP boundary has a frozen dataclass here
with explicit validation and a canonical JSON encoding, shared by the
server (:mod:`repro.serve.http`), the service facade, and the Python SDK
(:mod:`repro.client`).  Validation failures raise :class:`SchemaError` (a ``ValueError``
subclass), which the HTTP layer maps to a 400 with the message as the
error body.

==========================  ==================================================
Type                        Wire shape
==========================  ==================================================
:class:`ClaimKey`           ``{"provider_id", "cell", "technology"[, "state"]}``
:class:`ScoreRecord`        one claim's score record (precomputed records
                            carry the claim aggregates; cold records do not)
:class:`Page`               ``{"items", "next_cursor", "total",
                            "model_version"}``
:class:`BatchScoreRequest`  ``{"claims": [ClaimKey, ...]}``
:class:`BatchScoreResponse` ``{"results": [ScoreRecord|null, ...],
                            "model_version", "degraded"}``
:class:`ErrorBody`          ``{"error": "...", "request_id": "..."}``
==========================  ==================================================

Cursors (:func:`encode_cursor` / :func:`decode_cursor`) are opaque
url-safe base64 tokens pinning four things: the **rank** in the
suspicion order where the next page starts, the **model version** the
walk started on (a hot-swap mid-walk is detected, never silently mixed),
the version's **store etag** (a restart that reloads a retrained store
under the same version name is detected too), and a **fingerprint** of
the filter set (a cursor cannot be replayed against different filters).
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass, field

__all__ = [
    "SchemaError",
    "ClaimKey",
    "ScoreRecord",
    "Page",
    "ErrorBody",
    "BatchScoreRequest",
    "BatchScoreResponse",
    "Cursor",
    "encode_cursor",
    "decode_cursor",
    "filter_fingerprint",
]

#: Bump when the cursor payload changes incompatibly.
CURSOR_SCHEMA = 1


class SchemaError(ValueError):
    """A request or response payload failed schema validation."""


def _require_int(value, where: str) -> int:
    """Coerce a JSON value to int; bools and floats are *not* integers."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"{where} must be an integer")
    try:
        return int(value)
    except ValueError:
        raise SchemaError(f"{where} must be an integer") from None


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where} must be a number")
    return float(value)


def _require_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{where} must be a JSON object")
    return value


# -- claim keys ---------------------------------------------------------------


@dataclass(frozen=True)
class ClaimKey:
    """One (provider, hex cell, technology) claim key.

    ``state`` marks the key *cold-capable*: a key absent from the score
    store is then scored live as a hypothetical filing in that state.
    """

    provider_id: int
    cell: int
    technology: int
    state: str | None = None

    @classmethod
    def from_dict(cls, doc, where: str = "claim") -> "ClaimKey":
        doc = _require_object(doc, where)
        state = doc.get("state")
        if state is not None and not isinstance(state, str):
            raise SchemaError(
                f"{where}.state must be a string state abbreviation"
            )
        return cls(
            provider_id=_require_int(
                doc.get("provider_id"), f"{where}.provider_id"
            ),
            cell=_require_int(doc.get("cell"), f"{where}.cell"),
            technology=_require_int(doc.get("technology"), f"{where}.technology"),
            state=state,
        )

    def to_dict(self) -> dict:
        doc = {
            "provider_id": self.provider_id,
            "cell": self.cell,
            "technology": self.technology,
        }
        if self.state is not None:
            doc["state"] = self.state
        return doc

    @property
    def payload(self) -> tuple:
        """The batcher payload tuple (also the LRU cache key)."""
        return (self.provider_id, self.cell, self.technology, self.state)


# -- score records ------------------------------------------------------------

#: Claim-aggregate fields present on precomputed records only.
_DETAIL_FIELDS = (
    "claimed_count",
    "max_download_mbps",
    "max_upload_mbps",
    "low_latency",
)


@dataclass(frozen=True)
class ScoreRecord:
    """One claim's score record.

    Precomputed records (``precomputed=True``) carry the claim's filing
    aggregates; *cold* records — hypothetical filings scored live — carry
    ``None`` for those fields and have no rank in the suspicion order.
    """

    provider_id: int
    cell: int
    technology: int
    state: str | None
    score: float
    margin: float
    percentile: float
    rank: int | None
    precomputed: bool
    claimed_count: int | None = None
    max_download_mbps: float | None = None
    max_upload_mbps: float | None = None
    low_latency: bool | None = None

    def to_dict(self) -> dict:
        """Canonical JSON object (bitwise-stable key order).

        Claim aggregates (when present) sit between ``rank`` and
        ``precomputed``; the store's cached JSON fragments and every
        route share this one key order.
        """
        doc = {
            "provider_id": self.provider_id,
            "cell": self.cell,
            "technology": self.technology,
            "state": self.state,
            "score": self.score,
            "margin": self.margin,
            "percentile": self.percentile,
            "rank": self.rank,
        }
        if self.claimed_count is not None:
            doc["claimed_count"] = self.claimed_count
            doc["max_download_mbps"] = self.max_download_mbps
            doc["max_upload_mbps"] = self.max_upload_mbps
            doc["low_latency"] = self.low_latency
        doc["precomputed"] = self.precomputed
        return doc

    @classmethod
    def from_dict(cls, doc, where: str = "record") -> "ScoreRecord":
        doc = _require_object(doc, where)
        state = doc.get("state")
        if state is not None and not isinstance(state, str):
            raise SchemaError(f"{where}.state must be a string or null")
        rank = doc.get("rank")
        precomputed = doc.get("precomputed")
        if not isinstance(precomputed, bool):
            raise SchemaError(f"{where}.precomputed must be a boolean")
        details: dict = {}
        if doc.get("claimed_count") is not None:
            details = {
                "claimed_count": _require_int(
                    doc["claimed_count"], f"{where}.claimed_count"
                ),
                "max_download_mbps": _require_number(
                    doc.get("max_download_mbps"), f"{where}.max_download_mbps"
                ),
                "max_upload_mbps": _require_number(
                    doc.get("max_upload_mbps"), f"{where}.max_upload_mbps"
                ),
                "low_latency": bool(doc.get("low_latency")),
            }
        return cls(
            provider_id=_require_int(doc.get("provider_id"), f"{where}.provider_id"),
            cell=_require_int(doc.get("cell"), f"{where}.cell"),
            technology=_require_int(doc.get("technology"), f"{where}.technology"),
            state=state,
            score=_require_number(doc.get("score"), f"{where}.score"),
            margin=_require_number(doc.get("margin"), f"{where}.margin"),
            percentile=_require_number(doc.get("percentile"), f"{where}.percentile"),
            rank=None if rank is None else _require_int(rank, f"{where}.rank"),
            precomputed=precomputed,
            **details,
        )

    @property
    def key(self) -> ClaimKey:
        return ClaimKey(self.provider_id, self.cell, self.technology)


# -- pagination ---------------------------------------------------------------


@dataclass(frozen=True)
class Page:
    """One page of the claim list walk (descending suspicion order)."""

    items: tuple[ScoreRecord, ...]
    #: Opaque cursor for the next page; ``None`` on the final page.
    next_cursor: str | None
    #: Total rows matching the filters under this model version.
    total: int
    #: Registry version every item of this page was served from.
    model_version: str

    def to_dict(self) -> dict:
        return {
            "items": [record.to_dict() for record in self.items],
            "next_cursor": self.next_cursor,
            "total": self.total,
            "model_version": self.model_version,
        }

    @classmethod
    def from_dict(cls, doc, where: str = "page") -> "Page":
        doc = _require_object(doc, where)
        items = doc.get("items")
        if not isinstance(items, list):
            raise SchemaError(f"{where}.items must be a list")
        next_cursor = doc.get("next_cursor")
        if next_cursor is not None and not isinstance(next_cursor, str):
            raise SchemaError(f"{where}.next_cursor must be a string or null")
        version = doc.get("model_version")
        if not isinstance(version, str):
            raise SchemaError(f"{where}.model_version must be a string")
        return cls(
            items=tuple(
                ScoreRecord.from_dict(item, f"{where}.items[{i}]")
                for i, item in enumerate(items)
            ),
            next_cursor=next_cursor,
            total=_require_int(doc.get("total"), f"{where}.total"),
            model_version=version,
        )


# -- errors -------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorBody:
    """The uniform failure payload: ``{"error": "...", "request_id": "..."}``.

    The server-generated ``request_id`` (also echoed in the
    ``X-Request-Id`` header and the access log) lets a failure be
    correlated end to end.  It is optional here only so a body from a
    proxy in front of the server still parses.
    """

    error: str
    request_id: str | None = None

    def to_dict(self) -> dict:
        if self.request_id is None:
            return {"error": self.error}
        return {"error": self.error, "request_id": self.request_id}

    @classmethod
    def from_dict(cls, doc, where: str = "error body") -> "ErrorBody":
        doc = _require_object(doc, where)
        message = doc.get("error")
        if not isinstance(message, str):
            raise SchemaError(f"{where}.error must be a string")
        request_id = doc.get("request_id")
        if request_id is not None and not isinstance(request_id, str):
            raise SchemaError(f"{where}.request_id must be a string")
        return cls(error=message, request_id=request_id)


# -- batch scoring ------------------------------------------------------------


@dataclass(frozen=True)
class BatchScoreRequest:
    """``POST /v2/claims:batchScore`` body: a list of claim keys."""

    claims: tuple[ClaimKey, ...] = field(default_factory=tuple)

    @classmethod
    def from_dict(cls, doc, max_claims: int | None = None) -> "BatchScoreRequest":
        if not isinstance(doc, dict) or not isinstance(doc.get("claims"), list):
            raise SchemaError('body must be {"claims": [...]}')
        claims = doc["claims"]
        if max_claims is not None and len(claims) > max_claims:
            raise SchemaError(f"at most {max_claims} claims per request")
        return cls(
            claims=tuple(
                ClaimKey.from_dict(entry, f"claims[{i}]")
                for i, entry in enumerate(claims)
            )
        )

    def to_dict(self) -> dict:
        return {"claims": [key.to_dict() for key in self.claims]}


@dataclass(frozen=True)
class BatchScoreResponse:
    """Batch results, positionally aligned with the request keys.

    ``None`` marks a key absent from the store that carried no ``state``
    (so the cold path never ran for it) — **unless** ``degraded`` is
    true, in which case ``None`` may also mark a cold-capable key the
    server could not score right now (circuit breaker open, deadline
    blown, scoring fault): the precomputed results around it are still
    exact, and the caller should retry only the gaps.
    """

    results: tuple[ScoreRecord | None, ...]
    model_version: str
    degraded: bool = False

    def to_dict(self) -> dict:
        return {
            "results": [
                None if record is None else record.to_dict()
                for record in self.results
            ],
            "model_version": self.model_version,
            "degraded": self.degraded,
        }

    @classmethod
    def from_dict(cls, doc, where: str = "response") -> "BatchScoreResponse":
        doc = _require_object(doc, where)
        results = doc.get("results")
        if not isinstance(results, list):
            raise SchemaError(f"{where}.results must be a list")
        version = doc.get("model_version")
        if not isinstance(version, str):
            raise SchemaError(f"{where}.model_version must be a string")
        degraded = doc.get("degraded", False)
        if not isinstance(degraded, bool):
            raise SchemaError(f"{where}.degraded must be a boolean")
        return cls(
            results=tuple(
                None
                if item is None
                else ScoreRecord.from_dict(item, f"{where}.results[{i}]")
                for i, item in enumerate(results)
            ),
            model_version=version,
            degraded=degraded,
        )


# -- cursors ------------------------------------------------------------------


@dataclass(frozen=True)
class Cursor:
    """Decoded pagination cursor: where the next page starts, and on what."""

    version: str
    rank: int
    fingerprint: str
    #: Content fingerprint of the version's score store at mint time.
    etag: str = ""


def filter_fingerprint(**filters) -> str:
    """Stable fingerprint of a filter set, embedded in cursors.

    ``None`` values (absent filters) are dropped, so the fingerprint is
    insensitive to how the absence was spelled.
    """
    canonical = {k: v for k, v in sorted(filters.items()) if v is not None}
    return json.dumps(canonical, separators=(",", ":"), sort_keys=True)


def encode_cursor(version: str, rank: int, fingerprint: str, etag: str = "") -> str:
    payload = json.dumps(
        {
            "s": CURSOR_SCHEMA,
            "v": version,
            "r": int(rank),
            "f": fingerprint,
            "e": etag,
        },
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    return base64.urlsafe_b64encode(payload).rstrip(b"=").decode("ascii")


def decode_cursor(token: str) -> Cursor:
    """Decode an opaque cursor; any malformation is a :class:`SchemaError`."""
    if not isinstance(token, str) or not token:
        raise SchemaError("cursor must be a non-empty string")
    padded = token + "=" * (-len(token) % 4)
    try:
        doc = json.loads(base64.urlsafe_b64decode(padded.encode("ascii")))
    except (binascii.Error, UnicodeDecodeError, json.JSONDecodeError, ValueError):
        raise SchemaError("cursor is not a valid page token") from None
    if not isinstance(doc, dict) or doc.get("s") != CURSOR_SCHEMA:
        raise SchemaError("cursor is not a valid page token")
    version = doc.get("v")
    fingerprint = doc.get("f")
    rank = doc.get("r")
    etag = doc.get("e", "")
    if (
        not isinstance(version, str)
        or not isinstance(fingerprint, str)
        or not isinstance(etag, str)
        or isinstance(rank, bool)
        or not isinstance(rank, int)
        or rank < 0
    ):
        raise SchemaError("cursor is not a valid page token")
    return Cursor(version=version, rank=rank, fingerprint=fingerprint, etag=etag)
