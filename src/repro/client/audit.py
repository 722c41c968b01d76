"""`AuditClient` — a typed, stdlib-only SDK for the audit HTTP API.

The client speaks the v2 wire contract defined by
:mod:`repro.serve.schemas` and returns the same typed objects the server
encodes (:class:`ScoreRecord`, :class:`Page`,
:class:`BatchScoreResponse`), so a scripted consumer never touches raw
JSON dicts:

    client = AuditClient("http://127.0.0.1:8350")
    record = client.get_claim(100043, 0x8a44e1, 50)
    for rec in client.iter_claims(state="TX"):      # full cursor walk
        ...
    response = client.batch_score([(100043, 0x8a44e1, 50), ...])

Transport
---------

One persistent ``http.client.HTTPConnection`` **per thread**
(keep-alive; the server is HTTP/1.1), transparently reopened after
drops.  Requests are retried on transport failures and 429/502/503/504
responses with exponential backoff — every API call here is a pure read
or an idempotent swap, so retries are always safe.  The backoff is
**jittered** (uniformly 0.5–1.5x, so synchronized clients do not
stampede a recovering server) and **capped**
(``retry_backoff_cap_s``), and a ``Retry-After`` header on a 429/503
overrides the computed backoff — the server knows its queue better than
the client's exponent does.

Read-style calls accept ``deadline=`` (seconds): the whole call —
attempts, backoffs, socket waits — must finish inside that budget.  The
remaining budget is sent as ``X-Request-Deadline-Ms`` so the server can
drop the work when the client has already given up, and it bounds each
attempt's socket timeout; no retry sleep is allowed to outlive it.

API failures raise :class:`AuditAPIError` carrying the HTTP status and
the server's ``{"error": ...}`` message; a 404 on a single-claim lookup
is returned as ``None`` instead (an unknown claim is an answer, not a
failure).
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from urllib.parse import quote, urlencode, urlsplit

from repro.serve.schemas import (
    BatchScoreResponse,
    ClaimKey,
    ErrorBody,
    Page,
    SchemaError,
    ScoreRecord,
)

__all__ = ["AuditAPIError", "AuditClient"]

#: Response statuses worth retrying (shed or transient server/gateway
#: states; 429 means the admission gate asked us to come back later).
_RETRY_STATUSES = frozenset({429, 502, 503, 504})


class AuditAPIError(Exception):
    """An audit API call failed.

    ``status`` is the HTTP status of the failure, or ``None`` when the
    request never completed (transport failure after all retries).
    """

    def __init__(self, message: str, status: int | None = None, path: str = ""):
        super().__init__(message)
        self.status = status
        self.path = path


def _as_claim_key(entry, where: str) -> ClaimKey:
    if isinstance(entry, ClaimKey):
        return entry
    if isinstance(entry, dict):
        return ClaimKey.from_dict(entry, where)
    if isinstance(entry, (tuple, list)) and len(entry) in (3, 4):
        return ClaimKey(*entry)
    raise SchemaError(
        f"{where} must be a ClaimKey, a mapping, or a "
        "(provider_id, cell, technology[, state]) tuple"
    )


class AuditClient:
    """Typed client for one audit-service base URL.

    Thread-safe: connections are per-thread, so one client instance can
    be shared across concurrent readers (the shape the micro-batched
    server is built for).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        retries: int = 2,
        retry_backoff_s: float = 0.05,
        retry_backoff_cap_s: float = 2.0,
    ):
        parts = urlsplit(base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(
                f"base_url must look like http://host:port, got {base_url!r}"
            )
        self._host = parts.hostname
        self._port = parts.port or 80
        #: Path prefix for proxied deployments (http://gw/audit -> /audit).
        self._prefix = parts.path.rstrip("/")
        self._timeout = float(timeout)
        self._retries = int(retries)
        self._backoff_s = float(retry_backoff_s)
        #: No retry sleep — computed or server-suggested — exceeds this.
        self._backoff_cap_s = float(retry_backoff_cap_s)
        self._local = threading.local()

    # -- transport ----------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
            self._local.conn = conn
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def _retry_delay(self, attempt: int, retry_after: float | None) -> float:
        """Sleep before retry ``attempt``: the server's ``Retry-After``
        when it sent one, else jittered exponential backoff; both capped
        at ``retry_backoff_cap_s`` so no retry loop sleeps unboundedly."""
        if retry_after is not None:
            return min(retry_after, self._backoff_cap_s)
        delay = self._backoff_s * (2 ** (attempt - 1))
        if delay > 0:
            # Uniform 0.5-1.5x: synchronized clients retrying a shed
            # response must not stampede the server in lockstep.  A zero
            # base backoff stays zero (tests rely on instant retries).
            delay *= 0.5 + random.random()
        return min(delay, self._backoff_cap_s)

    @staticmethod
    def _retry_after_header(response) -> float | None:
        raw = response.getheader("Retry-After")
        if raw is None:
            return None
        try:
            return max(0.0, float(raw))
        except ValueError:
            return None  # HTTP-date form: fall back to computed backoff

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        deadline_s: float | None = None,
    ):
        """One API call with retries; returns (status, decoded JSON).

        ``deadline_s`` bounds the whole call — every attempt, backoff
        sleep, and socket wait must fit inside it.  The remaining budget
        rides each attempt as ``X-Request-Deadline-Ms`` so the server
        stops working for a caller that has already given up.
        """
        path = self._prefix + path
        payload = None if body is None else json.dumps(body).encode("utf-8")
        base_headers = (
            {} if payload is None else {"Content-Type": "application/json"}
        )
        deadline_at = (
            None if deadline_s is None else time.monotonic() + float(deadline_s)
        )
        last_error: Exception | None = None
        retry_after: float | None = None
        for attempt in range(self._retries + 1):
            if attempt:
                delay = self._retry_delay(attempt, retry_after)
                if (
                    deadline_at is not None
                    and time.monotonic() + delay >= deadline_at
                ):
                    break  # no budget left for another attempt
                if delay > 0:
                    time.sleep(delay)
            retry_after = None
            headers = dict(base_headers)
            if deadline_at is not None:
                remaining = deadline_at - time.monotonic()
                if remaining <= 0:
                    break
                headers["X-Request-Deadline-Ms"] = str(
                    max(1, int(remaining * 1000))
                )
            try:
                conn = self._connection()
                if deadline_at is not None:
                    # This attempt's socket waits must fit the budget.
                    attempt_timeout = max(
                        0.001,
                        min(self._timeout, deadline_at - time.monotonic()),
                    )
                    conn.timeout = attempt_timeout
                    if conn.sock is not None:
                        conn.sock.settimeout(attempt_timeout)
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                if response.will_close:
                    self._drop_connection()
            except (http.client.HTTPException, OSError) as exc:
                self._drop_connection()
                last_error = exc
                continue
            if response.status in _RETRY_STATUSES:
                retry_after = self._retry_after_header(response)
                last_error = AuditAPIError(
                    self._error_message(raw, response.status),
                    status=response.status,
                    path=path,
                )
                continue
            try:
                doc = json.loads(raw) if raw else None
            except json.JSONDecodeError as exc:
                raise AuditAPIError(
                    f"invalid JSON in response: {exc}",
                    status=response.status,
                    path=path,
                ) from None
            if response.status >= 400:
                raise AuditAPIError(
                    self._error_message(raw, response.status),
                    status=response.status,
                    path=path,
                )
            return response.status, doc
        if isinstance(last_error, AuditAPIError):
            raise last_error
        if last_error is not None:
            raise AuditAPIError(
                f"request failed after {self._retries + 1} attempt(s): "
                f"{last_error}",
                status=None,
                path=path,
            ) from last_error
        raise AuditAPIError(
            f"call deadline of {deadline_s}s expired before the request "
            "could complete",
            status=None,
            path=path,
        )

    @staticmethod
    def _error_message(raw: bytes, status: int) -> str:
        try:
            return ErrorBody.from_dict(json.loads(raw)).error
        except (ValueError, SchemaError):
            return f"HTTP {status}"

    def _get(
        self,
        path: str,
        params: dict | None = None,
        deadline_s: float | None = None,
    ):
        if params:
            query = urlencode(
                {k: v for k, v in params.items() if v is not None}
            )
            if query:
                path = f"{path}?{query}"
        return self._request("GET", path, deadline_s=deadline_s)[1]

    def close(self) -> None:
        """Close this thread's connection (others close on GC/exit)."""
        self._drop_connection()

    # -- meta ---------------------------------------------------------------

    def health(self, deadline: float | None = None) -> dict:
        return self._get("/healthz", deadline_s=deadline)

    def ready(self, deadline: float | None = None) -> dict:
        """Readiness probe; raises :class:`AuditAPIError` (503) while a
        hot-swap or store load is in flight."""
        return self._get("/readyz", deadline_s=deadline)

    def models(self) -> dict:
        """Registry versions + per-version stats (``GET /v2/models``)."""
        return self._get("/v2/models")

    def activate_model(self, name: str) -> dict:
        """Atomically make ``name`` the default serving version."""
        return self._request(
            "POST", f"/v2/models/{quote(name, safe='')}:activate"
        )[1]

    # -- claims -------------------------------------------------------------

    def get_claim(
        self,
        provider_id: int,
        cell: int,
        technology: int,
        state: str | None = None,
        deadline: float | None = None,
    ) -> ScoreRecord | None:
        """One claim's score record; ``None`` for a claim the store does
        not know (pass ``state`` to score it as a hypothetical filing)."""
        path = f"/v2/claims/{int(provider_id)}/{int(cell)}/{int(technology)}"
        try:
            doc = self._get(path, {"state": state}, deadline_s=deadline)
        except AuditAPIError as exc:
            if exc.status == 404:
                return None
            raise
        return ScoreRecord.from_dict(doc.get("record"), "record")

    def page_claims(
        self,
        provider_id: int | None = None,
        state: str | None = None,
        technology: int | None = None,
        cell: int | None = None,
        limit: int | None = None,
        cursor: str | None = None,
        deadline: float | None = None,
    ) -> Page:
        """One page of the descending-suspicion walk (``GET /v2/claims``)."""
        doc = self._get(
            "/v2/claims",
            {
                "provider_id": provider_id,
                "state": state,
                "technology": technology,
                "cell": cell,
                "limit": limit,
                "cursor": cursor,
            },
            deadline_s=deadline,
        )
        return Page.from_dict(doc)

    def iter_pages(
        self,
        provider_id: int | None = None,
        state: str | None = None,
        technology: int | None = None,
        cell: int | None = None,
        page_size: int | None = None,
    ):
        """Generator over pages, following cursors until the walk ends."""
        cursor = None
        while True:
            page = self.page_claims(
                provider_id=provider_id,
                state=state,
                technology=technology,
                cell=cell,
                limit=page_size,
                cursor=cursor,
            )
            yield page
            cursor = page.next_cursor
            if cursor is None:
                return

    def iter_claims(
        self,
        provider_id: int | None = None,
        state: str | None = None,
        technology: int | None = None,
        cell: int | None = None,
        page_size: int | None = None,
        max_items: int | None = None,
    ):
        """Generator over :class:`ScoreRecord` in descending suspicion,
        transparently following pagination cursors."""
        emitted = 0
        for page in self.iter_pages(
            provider_id=provider_id,
            state=state,
            technology=technology,
            cell=cell,
            page_size=page_size,
        ):
            for record in page.items:
                yield record
                emitted += 1
                if max_items is not None and emitted >= max_items:
                    return

    def batch_score(self, claims, deadline: float | None = None) -> BatchScoreResponse:
        """Score many claim keys in one request
        (``POST /v2/claims:batchScore``).

        ``claims`` entries may be :class:`ClaimKey`, mappings, or
        ``(provider_id, cell, technology[, state])`` tuples.  Check
        ``response.degraded``: when true, ``None`` results may be cold
        keys the server shed rather than unknown claims.
        """
        keys = [
            _as_claim_key(entry, f"claims[{i}]") for i, entry in enumerate(claims)
        ]
        _, doc = self._request(
            "POST",
            "/v2/claims:batchScore",
            body={"claims": [key.to_dict() for key in keys]},
            deadline_s=deadline,
        )
        return BatchScoreResponse.from_dict(doc)

    # -- summaries ----------------------------------------------------------

    def provider_summary(self, provider_id: int) -> dict:
        return self._get(f"/v2/providers/{int(provider_id)}")

    def state_summary(self, abbr: str) -> dict:
        return self._get(f"/v2/states/{quote(abbr, safe='')}")
