"""Serve a released store over HTTP and drive the four traffic phases.

The server runs in its own process, forked from the benchmark after the
release so it holds the live model and feature builder (the cold path
needs them) without re-building the world.  It logs every request through
``make_server(access_log=...)``; the benchmark fetches that log after each
phase for the server-side time per route.

The generator is this process, with at most ``nproc`` threads, each
holding one keep-alive connection:

* ``batch``  closed loop of 1000-key ``POST /v2/claims:batchScore`` with
  stored keys (the vectorized gather);
* ``cold``   closed loop of 100-key batches of distinct hypothetical keys
  carrying ``state`` (micro-batcher, live features, GBDT);
* ``lookup`` open loop of single ``GET /v2/claims/{p}/{c}/{t}`` at fixed
  rates, each request timed from its scheduled send;
* ``walk``   full ``GET /v2/claims?limit=1000`` cursor walks after a warm
  walk (page encoding).

Every response is checked; a request that fails its check counts as
failed and adds nothing to a throughput.
"""

from __future__ import annotations

import gc
import http.client
import json
import multiprocessing
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from hostref import HostReference

from repro.fcc.states import STATES
from repro.serve.http import make_server
from repro.serve.service import AuditService
from repro.serve.store import ClaimScoreStore

__all__ = [
    "LADDER",
    "LOOKUP_P99_LIMIT_MS",
    "PhaseResult",
    "ServerProcess",
    "Traffic",
]

BATCH_KEYS = 1000
COLD_KEYS = 100
#: Candidate hypothetical keys drawn per run; the distinct misses among
#: them (18k or more on the benchmark's worlds) are the cold phase's pool.
COLD_POOL = 200_000
WALK_PAGE = 1000
#: The fixed rate at which lookup latency is reported (requests/s).
LOOKUP_RATE = 500.0
#: Open-loop rates for ``lookup_max_rps``, each 1.25x the one below.
LADDER = tuple(round(200 * 1.25**k) for k in range(13))
#: p99 limit for a ladder step: far above scheduler jitter (~1 ms here),
#: far below the backlog an overloaded step builds (hundreds of ms).
LOOKUP_P99_LIMIT_MS = 25.0
#: A step "keeps up" when the median lateness of its last third exceeds
#: that of its first third by less than this.
LATENESS_GROWTH_MS = 5.0

_STATE_ABBRS = [state.abbr for state in STATES]

ROUTE_BATCH = "/v2/claims:batchScore"
ROUTE_LOOKUP = "/v2/claims/{provider_id}/{cell}/{technology}"
ROUTE_WALK = "/v2/claims"
_ROUTES = {
    "batch": ROUTE_BATCH,
    "cold": ROUTE_BATCH,
    "lookup": ROUTE_LOOKUP,
    "walk": ROUTE_WALK,
}


def _read_body(response: http.client.HTTPResponse) -> bytes:
    """Response body; the one place every phase reads the wire."""
    return response.read()


# -- the server process --------------------------------------------------------


def _server_main(conn, store, model, enrichment, time_positions):
    # The heap inherited from the benchmark (the world it released) is not
    # the server's own; keep the collector from re-scanning it.
    gc.freeze()
    log: list[tuple[str, int, float]] = []
    positions_s = [0.0]
    if time_positions:
        original = ClaimScoreStore.positions
        lock = threading.Lock()

        def timed_positions(self, *args, **kwargs):
            start = time.perf_counter()
            try:
                return original(self, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with lock:
                    positions_s[0] += elapsed

        ClaimScoreStore.positions = timed_positions
    service = AuditService(
        store,
        classifier=model.classifier,
        builder=model.builder,
        model=model,
        enrichment=enrichment,
    )
    server = make_server(
        service,
        access_log=lambda e: log.append((e["route"], e["status"], e["duration_ms"])),
    )
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    conn.send(server.server_address[1])
    try:
        while True:
            command = conn.recv()
            if command == "log":
                entries = log[:]
                del log[: len(entries)]
                conn.send(entries)
            elif command == "stop":
                break
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        conn.send(
            {
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "positions_s": positions_s[0],
            }
        )
        conn.close()


class ServerProcess:
    """An ``AuditHTTPServer`` over one store, in a forked process."""

    def __init__(self, store, model, enrichment, time_positions: bool = False):
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_server_main,
            args=(child, store, model, enrichment, time_positions),
            daemon=True,
        )
        self._proc.start()
        child.close()
        if not self._conn.poll(60):
            self.close()
            raise RuntimeError("server process did not start")
        self.port = self._conn.recv()
        self.final: dict = {}

    def access_log(self) -> list[tuple[str, int, float]]:
        self._conn.send("log")
        return self._conn.recv()

    def close(self) -> None:
        if self._proc.is_alive():
            try:
                self._conn.send("stop")
                if self._conn.poll(30):
                    self.final = self._conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
        self._proc.join(timeout=30)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=10)
        self._conn.close()


# -- the generator ---------------------------------------------------------------


@dataclass
class PhaseResult:
    """One phase's client-side outcome."""

    attempted: int = 0
    failed: int = 0
    #: Keys (batch, cold) or rows (walk) in responses that passed checks.
    units: int = 0
    seconds: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    lateness_ms: list[float] = field(default_factory=list)

    @property
    def rate(self) -> float:
        return self.units / self.seconds if self.seconds > 0 else 0.0

    @property
    def achieved_rate(self) -> float:
        """Requests answered per second (open loop: up to the last reply)."""
        return self.attempted / self.seconds if self.seconds > 0 else 0.0

    def absorb(self, other: "PhaseResult") -> None:
        """Fold another slice of the same phase into this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.units += other.units
        self.seconds += other.seconds
        self.latencies_ms.extend(other.latencies_ms)
        self.lateness_ms.extend(other.lateness_ms)


class _Client:
    """One keep-alive connection."""

    def __init__(self, port: int):
        self._port = port
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method: str, path: str, body: bytes | None = None):
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = _read_body(response)
        except (OSError, http.client.HTTPException):
            self._conn.close()
            self._conn = http.client.HTTPConnection("127.0.0.1", self._port, timeout=60)
            return 0, b""
        return response.status, data

    def close(self) -> None:
        self._conn.close()


def _key_json(claims, row: int) -> dict:
    return {
        "provider_id": int(claims.provider_id[row]),
        "cell": int(claims.cell[row]),
        "technology": int(claims.technology[row]),
    }


class Traffic:
    """The four phases against one server, checked against one store."""

    def __init__(self, store, seed: int, n_threads: int, port: int = 0):
        self.port = port
        self.store = store
        self.n_threads = max(1, n_threads)
        self.rng = np.random.default_rng([seed, 0xB47C])
        claims = store.claims
        n = len(store)
        # Stored keys: a fixed set of 1000-key batches, cycled.
        self.batches = []
        for _ in range(8):
            rows = self.rng.choice(n, size=min(BATCH_KEYS, n), replace=False)
            body = json.dumps(
                {"claims": [_key_json(claims, int(r)) for r in rows]}
            ).encode()
            self.batches.append((rows, body))
        self.lookup_rows = self.rng.integers(0, n, size=4096)
        self.lookup_paths = [
            f"/v2/claims/{int(claims.provider_id[r])}/{int(claims.cell[r])}/"
            f"{int(claims.technology[r])}"
            for r in self.lookup_rows
        ]
        self._cold_pool = self._hypothetical_keys()
        self._cold_next = 0
        self._cold_lock = threading.Lock()
        #: The pages of the last walk that passed its checks, in order.
        self._verified_walk: list[tuple[bytes, str | None]] | None = None

    # -- inputs --------------------------------------------------------------

    def _hypothetical_keys(self):
        """Distinct keys absent from the store, each with its cell's state.

        A stored claim's provider and technology paired with another
        stored claim's cell (and that cell's state): realistic filings the
        store has never scored, so every one takes the cold path.  Returns
        parallel (provider, cell, technology, state index) arrays.
        """
        claims = self.store.claims
        n = len(self.store)
        a = self.rng.integers(0, n, size=COLD_POOL)
        b = self.rng.integers(0, n, size=COLD_POOL)
        pid = np.asarray(claims.provider_id)[a].astype(np.int64)
        tech = np.asarray(claims.technology)[a].astype(np.int64)
        cell = np.asarray(claims.cell)[b].astype(np.uint64)
        state = np.asarray(claims.state_idx)[b]
        absent = claims.positions(pid, cell, tech) < 0
        pid, tech, cell, state = pid[absent], tech[absent], cell[absent], state[absent]
        triples = np.stack([pid.astype(np.uint64), cell, tech.astype(np.uint64)], axis=1)
        _, first = np.unique(triples, axis=0, return_index=True)
        first.sort()
        return pid[first], cell[first], tech[first], state[first]

    def _take_cold(self, k: int) -> list[dict]:
        """The next ``k`` hypothetical keys, cycling through the pool.

        The pool holds several times the batcher's LRU capacity (4096), so
        a key comes round again only long after it was evicted and still
        takes the cold path; the cold phase checks the cache-hit counter.
        """
        pid, cell, tech, state = self._cold_pool
        with self._cold_lock:
            start = self._cold_next
            self._cold_next = start + k
        return [
            {
                "provider_id": int(pid[i]),
                "cell": int(cell[i]),
                "technology": int(tech[i]),
                "state": _STATE_ABBRS[int(state[i])],
            }
            for i in (j % pid.size for j in range(start, start + k))
        ]

    # -- loops ---------------------------------------------------------------

    def _closed_loop(self, seconds: float, one_request) -> PhaseResult:
        """``n_threads`` clients, each sending as soon as its last reply came."""
        result = PhaseResult()
        lock = threading.Lock()
        deadline = time.perf_counter() + seconds

        def worker(index: int):
            client = _Client(self.port)
            i = index
            try:
                # At least one request per client, so a zero-length loop
                # is a warm-up.
                while i == index or time.perf_counter() < deadline:
                    ok, units = one_request(client, i)
                    i += self.n_threads
                    with lock:
                        result.attempted += 1
                        if ok:
                            result.units += units
                        else:
                            result.failed += 1
            finally:
                client.close()

        start = time.perf_counter()
        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(self.n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        result.seconds = time.perf_counter() - start
        return result

    def batch(self, seconds: float) -> PhaseResult:
        """Stored-key batches; every record must equal ``store.record``.

        The first response to each distinct batch is parsed and compared
        field by field; later responses to it must match those bytes.
        """
        verified: dict[int, bytes] = {}
        vlock = threading.Lock()

        def check(index: int, data: bytes) -> bool:
            with vlock:
                known = verified.get(index)
            if known is not None:
                return data == known
            rows, _ = self.batches[index]
            ok = self._batch_matches(rows, data)
            if ok:
                with vlock:
                    verified[index] = data
            return ok

        def one(client: _Client, i: int):
            index = i % len(self.batches)
            rows, body = self.batches[index]
            status, data = client.request("POST", ROUTE_BATCH, body)
            return status == 200 and check(index, data), len(rows)

        return self._closed_loop(seconds, one)

    def _batch_matches(self, rows, data: bytes) -> bool:
        try:
            doc = json.loads(data)
        except ValueError:
            return False
        results = doc.get("results")
        if doc.get("degraded") or not isinstance(results, list):
            return False
        if len(results) != len(rows):
            return False
        return all(got == self.store.record(int(r)) for got, r in zip(results, rows))

    def cold(self, seconds: float) -> PhaseResult:
        """Distinct hypothetical keys; every result non-null, never degraded."""

        def one(client: _Client, _i: int):
            keys = self._take_cold(COLD_KEYS)
            body = json.dumps({"claims": keys}).encode()
            status, data = client.request("POST", ROUTE_BATCH, body)
            return status == 200 and _cold_ok(data, len(keys)), len(keys)

        return self._closed_loop(seconds, one)

    def lookup(self, rate: float, seconds: float) -> PhaseResult:
        """Open loop at ``rate``: request ``i`` is due at ``start + i/rate``.

        Latency runs from the due time, so a stall that delays later
        sends counts against them; lateness is send time minus due time.
        """
        n = max(1, int(rate * seconds))
        result = PhaseResult()
        latencies = [0.0] * n
        lateness = [0.0] * n
        ok_flags = [False] * n
        counter = iter(range(n))
        lock = threading.Lock()
        rows = self.lookup_rows
        paths = self.lookup_paths
        bodies: dict[int, bytes] = {}
        start = time.perf_counter() + 0.01

        def worker():
            client = _Client(self.port)
            try:
                while True:
                    with lock:
                        i = next(counter, None)
                    if i is None:
                        return
                    due = start + i / rate
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    sent = time.perf_counter()
                    k = i % len(paths)
                    status, data = client.request("GET", paths[k])
                    done = time.perf_counter()
                    latencies[i] = (done - due) * 1e3
                    lateness[i] = (sent - due) * 1e3
                    if status == 200:
                        ok_flags[i] = True
                        bodies[i] = data
            finally:
                client.close()

        threads = [threading.Thread(target=worker) for _ in range(self.n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        result.seconds = time.perf_counter() - start
        # Check every body against the store, off the clock.
        for i, data in bodies.items():
            if not self._lookup_matches(int(rows[i % len(rows)]), data):
                ok_flags[i] = False
        result.attempted = n
        result.failed = n - sum(ok_flags)
        result.units = n - result.failed
        result.latencies_ms = latencies
        result.lateness_ms = lateness
        return result

    def _lookup_matches(self, row: int, data: bytes) -> bool:
        try:
            doc = json.loads(data)
        except ValueError:
            return False
        return doc.get("record") == self.store.record(row)

    def walk(self) -> PhaseResult:
        """One full cursor walk; every rank must appear exactly once.

        Only the fetching is timed: each page's cursor is read from the
        envelope's tail, and the pages are parsed and checked after the
        walk, so the client's JSON decoding does not count as serving.  A
        walk whose pages equal a verified walk's byte for byte passes.
        """
        result = PhaseResult()
        client = _Client(self.port)
        pages: list[tuple[bytes, str | None]] = []
        cursor = None
        start = time.perf_counter()
        try:
            while True:
                path = f"{ROUTE_WALK}?limit={WALK_PAGE}"
                if cursor is not None:
                    path += f"&cursor={cursor}"
                status, data = client.request("GET", path)
                result.attempted += 1
                if status != 200:
                    result.failed += 1
                    break
                cursor = _next_cursor(data)
                pages.append((data, cursor))
                if cursor is None:
                    break
        finally:
            client.close()
        result.seconds = time.perf_counter() - start
        if result.failed or pages != self._verified_walk:
            ranks: list[int] = []
            for data, cursor in pages:
                try:
                    doc = json.loads(data)
                    ranks.extend(item["rank"] for item in doc["items"])
                except (ValueError, KeyError, TypeError):
                    result.failed += 1
                    continue
                if doc.get("next_cursor") != cursor:
                    result.failed += 1
            if result.failed or sorted(ranks) != list(range(len(self.store))):
                result.failed = result.attempted
                return result
            self._verified_walk = pages
        result.units = len(self.store)
        return result


class Rounds:
    """The four phases, run in slices over interleaved serving rounds.

    Host speed swings by tens of percent from one second to the next,
    alike for every phase, so each round cycles through the phases
    :attr:`CYCLES` times in short slices instead of giving each phase one
    contiguous window.  The host is probed (``hostref``) between slices,
    and each throughput slice is scaled by the mean of the probes on
    either side of it; each throughput metric is the median over the
    run's slices.  Each round also takes one step of a binary search over
    :data:`LADDER` for the highest rate that meets the lookup limit.
    """

    PHASES = ("batch", "cold", "lookup", "walk")
    #: The phases whose throughput is scaled by the host probe.
    SCALED = ("batch", "cold", "walk")
    CYCLES = 4

    def __init__(
        self,
        traffic: Traffic,
        server: ServerProcess,
        shares: dict,
        reference: HostReference,
    ):
        self.traffic = traffic
        self.server = server
        self.shares = shares
        self.reference = reference
        self.phases = {name: PhaseResult() for name in self.PHASES}
        #: Per slice: the phase's throughput at the host's usual speed.
        self.scaled: dict[str, list[float]] = {name: [] for name in self.SCALED}
        self.server_ms: dict[str, list[float]] = {name: [] for name in self.PHASES}
        self.ladder = PhaseResult()
        self.batcher_batches = 0.0
        self.batcher_scored = 0.0
        self._lo, self._hi = -1, len(LADDER)
        self._top_step: PhaseResult | None = None

    def _log_into(self, name: str, route: str) -> None:
        self.server_ms[name].extend(
            ms
            for r, status, ms in self.server.access_log()
            if r == route and status == 200
        )

    def run(self, seconds: float) -> None:
        """One serving round of ``seconds``.

        The generator's own collector is off for the round: responses
        parse into acyclic objects that reference counting frees, and a
        collection pass would time the benchmark's heap, not the server.
        """
        gc.collect()
        gc.disable()
        try:
            for _ in range(self.CYCLES):
                self._cycle(seconds / self.CYCLES)
            if self._hi - self._lo > 1:
                mid = (self._lo + self._hi) // 2
                step = self.traffic.lookup(LADDER[mid], seconds * self.shares["ladder"])
                self.ladder.absorb(step)
                if ladder_step_passes(step):
                    self._lo, self._top_step = mid, step
                else:
                    self._hi = mid
                self.server.access_log()
        finally:
            gc.enable()

    def _cycle(self, seconds: float) -> None:
        """One slice of each phase; ``seconds`` is split by the shares."""
        factor = self.reference.probe()
        for name in self.PHASES:
            result = self._slice(name, seconds * self.shares[name])
            self._log_into(name, _ROUTES[name])
            next_factor = self.reference.probe()
            self.phases[name].absorb(result)
            if name in self.scaled:
                self.scaled[name].append(result.rate * (factor + next_factor) / 2.0)
            factor = next_factor

    def _slice(self, name: str, seconds: float) -> PhaseResult:
        traffic = self.traffic
        if name == "batch":
            return traffic.batch(seconds)
        if name == "lookup":
            return traffic.lookup(LOOKUP_RATE, seconds)
        if name == "cold":
            before = metrics_doc(self.server.port)
            result = traffic.cold(seconds)
            after = metrics_doc(self.server.port)

            def delta(counter: str) -> float:
                return counter_total(after, counter) - counter_total(before, counter)

            self.batcher_batches += delta("batcher_batches_total")
            self.batcher_scored += delta("batcher_scored_total")
            if delta("batcher_cache_hits_total"):
                # A cached key skipped the cold path: the slice measured
                # something else, so none of it counts.
                result.failed, result.units = result.attempted, 0
            return result
        result = PhaseResult()
        walk_until = time.perf_counter() + seconds
        while True:
            walk = traffic.walk()
            result.absorb(walk)
            if walk.failed or time.perf_counter() >= walk_until:
                return result

    def attempted_failed(self) -> list[tuple[str, int, int]]:
        """(phase, attempted, failed); ladder failures count too."""
        out = [(n, p.attempted, p.failed) for n, p in self.phases.items()]
        out.append(("ladder", self.ladder.attempted, self.ladder.failed))
        return out

    def metrics(self) -> tuple[dict[str, float], dict[str, float]]:
        """(end-to-end, per-layer) serving metrics over every round."""
        lookup = self.phases["lookup"]
        p50 = percentile(lookup.latencies_ms, 50)
        scaled = {name: statistics.median(v) for name, v in self.scaled.items()}
        # Lookup latency is left unscaled: at 500/s it is mostly wake-ups
        # and the loopback stack, which the probe does not track (scaling
        # it tripled its run-to-run spread).
        e2e = {
            "batch_keys_per_s": scaled["batch"],
            "cold_keys_per_s": scaled["cold"],
            "lookup_p50_ms": p50,
            "walk_rows_per_s": scaled["walk"],
        }
        layers = {
            f"serve.{name}_server_ms": (
                statistics.median(values) if values else float("nan")
            )
            for name, values in self.server_ms.items()
        }
        batches = self.batcher_batches
        top = self._top_step
        layers.update(
            {
                "lookup_p99_ms": percentile(lookup.latencies_ms, 99),
                # Achieved request rate of the highest step that met the
                # limit; 0 when even the lowest missed it.
                "lookup_max_rps": top.achieved_rate if top is not None else 0.0,
                "serve.lookup_wire_ms": p50 - layers["serve.lookup_server_ms"],
                "serve.batcher_batches": batches,
                "serve.batcher_mean_batch": (
                    self.batcher_scored / batches if batches else 0.0
                ),
                "gen.max_late_ms": max(lookup.lateness_ms),
            }
        )
        return e2e, layers


def _next_cursor(page: bytes) -> str | None:
    """A page's ``next_cursor``.

    ``page_envelope_json`` writes it after the items, so only the tail is
    decoded; any other layout falls back to decoding the whole page.
    """
    at = page.rfind(b'"next_cursor": ')
    if at >= 0:
        try:
            return json.loads(b"{" + page[at:])["next_cursor"]
        except (ValueError, KeyError):
            pass
    try:
        return json.loads(page).get("next_cursor")
    except (ValueError, AttributeError):
        return None


def _cold_ok(data: bytes, n: int) -> bool:
    try:
        doc = json.loads(data)
    except ValueError:
        return False
    results = doc.get("results")
    return (
        doc.get("degraded") is False
        and isinstance(results, list)
        and len(results) == n
        and all(r is not None and 0.0 <= r.get("score", -1.0) <= 1.0 for r in results)
    )


def ladder_step_passes(step: PhaseResult) -> bool:
    """A rate is met when nothing failed, p99 is under the limit, and the
    generator's lateness did not grow from the first to the last third."""
    if step.failed or len(step.latencies_ms) < 3:
        return False
    if percentile(step.latencies_ms, 99) > LOOKUP_P99_LIMIT_MS:
        return False
    third = len(step.lateness_ms) // 3
    first = statistics.median(step.lateness_ms[:third])
    last = statistics.median(step.lateness_ms[-third:])
    return last - first < LATENESS_GROWTH_MS


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def metrics_doc(port: int) -> dict:
    client = _Client(port)
    try:
        status, data = client.request("GET", "/metrics")
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    return json.loads(data)


def counter_total(doc: dict, name: str) -> float:
    family = doc["service"].get(name) or doc["process"].get(name) or {"series": []}
    return float(sum(row.get("value", 0.0) for row in family["series"]))


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
