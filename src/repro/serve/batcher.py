"""Micro-batching request queue for the audit service.

Serving traffic arrives one claim at a time, but every layer underneath
— vectorization, the composite-key index, the binned ensemble traversal
— is batch-oriented: the marginal cost of the 1000th row in a batch is
orders of magnitude below the cost of a 1-row call.  The
:class:`MicroBatcher` closes that gap:

* **Coalescing** — concurrent ``submit`` calls accumulate in a pending
  queue; the whole queue is scored in *one* vectorized call when it
  reaches ``max_batch`` or when ``max_delay_s`` elapses (a daemon timer
  armed by the first request of a batch), whichever comes first.
* **Deduplication** — requests for a key already pending in the current
  batch attach to the in-flight slot instead of adding a row.
* **LRU cache** — completed results are cached by key (default 4096
  entries), so hot claims skip scoring entirely.

The batcher is scorer-agnostic: it queues opaque payloads and delivers
``concurrent.futures.Future`` results, with the service supplying the
``score_batch(payloads) -> results`` callable.  ``flush()`` may be called
directly for deterministic draining (the batch endpoint's cold tail and
the tests do).

Requests may carry a :class:`~repro.serve.resilience.Deadline`: a slot
whose every waiter has blown its budget by flush time is *dropped* —
its waiters get :class:`~repro.serve.resilience.DeadlineExceeded` and
the scorer never sees the payload.  Scoring work is the scarce resource
under overload; spending it on answers nobody is still waiting for is
how queues melt down.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future

from repro.obs import trace as obs_trace
from repro.obs.metrics import SIZE_BOUNDS, MetricsRegistry
from repro.serve.resilience import (
    SEAM_BATCH_FLUSH,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    merge_deadlines,
)

__all__ = ["BatcherStats", "MicroBatcher"]


class BatcherStats:
    """Batcher counters, backed by a :class:`MetricsRegistry`.

    The registry instruments (``batcher_*`` families) are the single
    source of truth; this class is the stable monitoring view the HTTP
    API exposes (the ``batcher`` block of ``/healthz`` and
    ``/v2/models``), with the same attribute names and ``as_dict()``
    keys as the pre-obs dataclass.  A batcher created without an
    explicit registry gets a private one, so standalone batchers never
    share series.
    """

    def __init__(
        self, metrics: MetricsRegistry | None = None, version: str = ""
    ) -> None:
        m = metrics if metrics is not None else MetricsRegistry()
        self.metrics = m
        self._requests = m.counter("batcher_requests_total", version=version)
        self._cache_hits = m.counter("batcher_cache_hits_total", version=version)
        self._coalesced = m.counter("batcher_coalesced_total", version=version)
        self._batches = m.counter("batcher_batches_total", version=version)
        self._scored = m.counter("batcher_scored_total", version=version)
        self._deadline_drops = m.counter(
            "batcher_deadline_drops_total", version=version
        )
        self._max_batch = m.gauge("batcher_max_batch", version=version)
        self._batch_size = m.histogram(
            "batcher_batch_size", bounds=SIZE_BOUNDS, version=version
        )
        self._flush_seconds = m.histogram("batcher_flush_seconds", version=version)

    # -- updates (batcher-internal) ------------------------------------

    def inc(self, field: str, n: int = 1) -> None:
        getattr(self, "_" + field).inc(n)

    def record_batch(self, size: int) -> None:
        self._batches.inc()
        self._scored.inc(size)
        self._max_batch.set_max(size)
        self._batch_size.observe(size)

    def flush_timer(self):
        return self._flush_seconds.time()

    # -- stable read view ----------------------------------------------

    @property
    def requests(self) -> int:
        return self._requests.value

    @property
    def cache_hits(self) -> int:
        return self._cache_hits.value

    @property
    def coalesced(self) -> int:
        return self._coalesced.value

    @property
    def batches(self) -> int:
        return self._batches.value

    @property
    def scored(self) -> int:
        return self._scored.value

    @property
    def max_batch(self) -> int:
        return int(self._max_batch.value)

    @property
    def deadline_drops(self) -> int:
        return self._deadline_drops.value

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "batches": self.batches,
            "scored": self.scored,
            "max_batch": self.max_batch,
            "deadline_drops": self.deadline_drops,
        }


class MicroBatcher:
    """Coalesce single-item scoring requests into vectorized batches."""

    def __init__(
        self,
        score_batch,
        max_batch: int = 1024,
        max_delay_s: float = 0.002,
        cache_size: int = 4096,
        fault_plan: FaultPlan | None = None,
        metrics: MetricsRegistry | None = None,
        version: str = "",
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_delay_s < 0:
            raise ValueError("max_delay_s must be >= 0")
        self._score_batch = score_batch
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_s)
        self.cache_size = int(cache_size)
        self.fault_plan = fault_plan
        self.stats = BatcherStats(metrics, version=version)
        self._lock = threading.Lock()
        #: Pending batch: parallel payloads / cache keys / future lists /
        #: per-slot deadlines (the laxest across coalesced waiters).
        self._payloads: list = []
        self._keys: list = []
        self._futures: list[list[Future]] = []
        self._deadlines: list[Deadline | None] = []
        #: cache key -> pending-slot index (dedup within one batch).
        self._slot_by_key: dict = {}
        self._cache: OrderedDict = OrderedDict()
        self._timer: threading.Timer | None = None
        self._closed = False

    # -- submission ---------------------------------------------------------

    def submit(self, payload, cache_key=None, deadline: Deadline | None = None) -> Future:
        """Enqueue one request; the Future resolves at the next flush.

        ``cache_key``, when hashable and not ``None``, enables the LRU
        cache and within-batch deduplication for this request.
        ``deadline`` bounds how stale this request may be when the flush
        reaches it: a slot none of whose waiters still has budget is
        dropped unscored, failing its futures with
        :class:`DeadlineExceeded`.
        """
        fut: Future = Future()
        flush_now = False
        with self._lock:
            if self._closed:
                raise RuntimeError("batcher is closed")
            self.stats.inc("requests")
            if cache_key is not None:
                cached = self._cache.get(cache_key, _MISS)
                if cached is not _MISS:
                    self._cache.move_to_end(cache_key)
                    self.stats.inc("cache_hits")
                    fut.set_result(cached)
                    return fut
                slot = self._slot_by_key.get(cache_key)
                if slot is not None:
                    self._futures[slot].append(fut)
                    # The slot survives while *any* waiter has budget.
                    self._deadlines[slot] = merge_deadlines(
                        self._deadlines[slot], deadline
                    )
                    self.stats.inc("coalesced")
                    return fut
                self._slot_by_key[cache_key] = len(self._payloads)
            self._payloads.append(payload)
            self._keys.append(cache_key)
            self._futures.append([fut])
            self._deadlines.append(deadline)
            if len(self._payloads) >= self.max_batch:
                flush_now = True
            elif self._timer is None and self.max_delay_s > 0:
                self._timer = threading.Timer(self.max_delay_s, self.flush)
                self._timer.daemon = True
                self._timer.start()
        if flush_now:
            self.flush()
        return fut

    # -- flushing -----------------------------------------------------------

    def flush(self) -> int:
        """Score everything pending now; returns the number of rows scored."""
        with self._lock:
            if not self._payloads:
                return 0
            payloads = self._payloads
            keys = self._keys
            futures = self._futures
            deadlines = self._deadlines
            self._payloads, self._keys, self._futures = [], [], []
            self._deadlines = []
            self._slot_by_key = {}
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
        # Shed expired slots before scoring: their waiters have already
        # given up, so the scorer's time belongs to the live ones.
        # ``expired`` is sampled exactly once per slot: a deadline that
        # expires between an expiry scan and the score call must be
        # classified the same way everywhere, or a slot could both get
        # ``set_exception`` here and stay in the live batch (whose later
        # ``set_result`` would raise InvalidStateError) while the drop
        # counter misses it.
        expired = [d is not None and d.expired for d in deadlines]
        if any(expired):
            live = [i for i, e in enumerate(expired) if not e]
            dropped = len(payloads) - len(live)
            exc = DeadlineExceeded("request deadline expired before scoring")
            for i, e in enumerate(expired):
                if e:
                    for fut in futures[i]:
                        fut.set_exception(exc)
            payloads = [payloads[i] for i in live]
            keys = [keys[i] for i in live]
            futures = [futures[i] for i in live]
            self.stats.inc("deadline_drops", dropped)
            if not payloads:
                return 0
        try:
            with obs_trace.span("batcher_flush", batch=len(payloads)):
                with self.stats.flush_timer():
                    if self.fault_plan is not None:
                        self.fault_plan.fire(SEAM_BATCH_FLUSH)
                    results = self._score_batch(payloads)
            if len(results) != len(payloads):
                raise RuntimeError(
                    f"scorer returned {len(results)} results for "
                    f"{len(payloads)} payloads"
                )
        except BaseException as exc:  # deliver failures to every waiter
            for waiters in futures:
                for fut in waiters:
                    fut.set_exception(exc)
            return 0
        self.stats.record_batch(len(payloads))
        with self._lock:
            if self.cache_size > 0:
                for key, result in zip(keys, results):
                    if key is not None and not isinstance(result, BaseException):
                        self._cache[key] = result
                        self._cache.move_to_end(key)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
        # A scorer may return an exception *instance* in a result slot:
        # it fails just that payload's waiters (and is never cached),
        # leaving the rest of the batch intact.
        for waiters, result in zip(futures, results):
            for fut in waiters:
                if isinstance(result, BaseException):
                    fut.set_exception(result)
                else:
                    fut.set_result(result)
        return len(payloads)

    # -- lifecycle ----------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every cached result (e.g. after swapping the score store)."""
        with self._lock:
            self._cache.clear()

    def close(self) -> None:
        """Refuse further submissions, then flush everything pending.

        Ordering matters: the closed flag is set *before* the final
        drain, so a ``submit`` racing ``close`` either lands in the final
        batch (accepted strictly before the flag flipped) or raises —
        flushing first would leave a payload accepted in that window
        queued forever, its Future never resolving.
        """
        with self._lock:
            self._closed = True
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
        self.flush()


#: Cache-miss sentinel (``None`` is a legitimate cached result).
_MISS = object()
