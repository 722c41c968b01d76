"""Declarative HTTP routing for the audit API.

A declarative route table: each :class:`Route` is a (method, path
pattern, typed query-param spec, handler) row, and :class:`Router`
matches an incoming request to exactly one row plus its extracted path
parameters.

Path patterns use ``{param}`` captures (``/v2/claims/{provider_id}/{cell}
/{technology}``); literal text — including Google-style custom-method
suffixes like ``/v2/claims:batchScore`` — matches verbatim.  A capture
matches one non-empty path segment: it never spans a ``/``.

Query parameters are *specified*, not fished out of the dict ad hoc:
each :class:`QueryParam` declares a name, a type (``int`` or ``str``),
and required/default semantics.  :func:`parse_query` enforces the spec —
including rejecting **repeated** parameters (``?state=TX&state=CA``),
which would otherwise be ambiguous.

Failures are typed: :class:`BadRequest` (400), :class:`NotFound` (404),
:class:`RequestTimeout` (408), :class:`LengthRequired` (411), and
:class:`PayloadTooLarge` (413) all derive from :class:`ApiError`, which
carries the HTTP status the server maps the message to.  The overload
statuses (429/503) live in :mod:`repro.serve.resilience`, next to the
machinery that raises them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "ApiError",
    "BadRequest",
    "LengthRequired",
    "NotFound",
    "PayloadTooLarge",
    "QueryParam",
    "RequestTimeout",
    "Route",
    "Router",
    "parse_query",
]


class ApiError(Exception):
    """An HTTP-mappable failure: ``status`` + the error-body message."""

    status = 500


class BadRequest(ApiError):
    """Malformed parameters or body -> 400."""

    status = 400


class NotFound(ApiError):
    """Unknown route or resource -> 404."""

    status = 404


class RequestTimeout(ApiError):
    """The client stalled sending its request body -> 408."""

    status = 408


class LengthRequired(ApiError):
    """A body framed without ``Content-Length`` (chunked) -> 411."""

    status = 411


class PayloadTooLarge(ApiError):
    """Request body over the size cap -> 413."""

    status = 413


@dataclass(frozen=True)
class QueryParam:
    """One declared query parameter: name, type, and presence semantics."""

    name: str
    #: ``"int"`` or ``"str"``.
    kind: str = "str"
    required: bool = False
    default: object = None

    def parse(self, raw: str):
        if self.kind == "int":
            try:
                return int(raw)
            except ValueError:
                raise BadRequest(
                    f"parameter {self.name!r} must be an integer"
                ) from None
        return raw


def parse_query(params: dict[str, list[str]], spec: tuple[QueryParam, ...]) -> dict:
    """Resolve a ``parse_qs`` dict against a route's query spec.

    Undeclared parameters are ignored (clients may send tracing extras);
    declared parameters must appear at most once — a repeated parameter
    is ambiguous and fails loudly rather than silently taking the first
    value.
    """
    out: dict = {}
    for param in spec:
        values = params.get(param.name)
        if not values:
            if param.required:
                raise BadRequest(f"missing required parameter {param.name!r}")
            out[param.name] = param.default
            continue
        if len(values) > 1:
            raise BadRequest(
                f"parameter {param.name!r} was given {len(values)} times; "
                "pass it at most once"
            )
        out[param.name] = param.parse(values[0])
    return out


#: ``{param}`` captures inside a path pattern.
_CAPTURE_RE = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}")


def _compile_pattern(pattern: str) -> re.Pattern:
    """Compile ``/v2/claims/{provider_id}/...`` into an anchored regex.

    Captures are non-greedy and stop at ``/``, so a literal suffix after
    a capture (``/{name}:activate``) stays out of the captured value.
    """
    parts: list[str] = []
    pos = 0
    for match in _CAPTURE_RE.finditer(pattern):
        parts.append(re.escape(pattern[pos : match.start()]))
        parts.append(f"(?P<{match.group(1)}>[^/]+?)")
        pos = match.end()
    parts.append(re.escape(pattern[pos:]))
    return re.compile("^" + "".join(parts) + "$")


@dataclass(frozen=True)
class Route:
    """One row of the route table."""

    method: str
    pattern: str
    handler: Callable
    query: tuple[QueryParam, ...] = ()
    name: str = ""
    #: Subject to admission control.  Meta routes (health, readiness,
    #: model listing/activation) opt out: an operator must be able to
    #: observe and fix an overloaded server *through* the overload.
    admit: bool = True
    regex: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "regex", _compile_pattern(self.pattern))


class Router:
    """An ordered route table; first matching row wins."""

    def __init__(self, routes: list[Route] | None = None):
        self._routes: list[Route] = list(routes or ())

    def add(
        self,
        method: str,
        pattern: str,
        handler: Callable,
        query: tuple[QueryParam, ...] = (),
        name: str = "",
        admit: bool = True,
    ) -> Route:
        route = Route(
            method=method.upper(),
            pattern=pattern,
            handler=handler,
            query=tuple(query),
            name=name or pattern,
            admit=admit,
        )
        self._routes.append(route)
        return route

    @property
    def routes(self) -> tuple[Route, ...]:
        return tuple(self._routes)

    def match(self, method: str, path: str) -> tuple[Route, dict[str, str]] | None:
        """The first route matching (method, path), plus raw path params."""
        method = method.upper()
        for route in self._routes:
            if route.method != method:
                continue
            found = route.regex.match(path)
            if found is not None:
                return route, found.groupdict()
        return None
