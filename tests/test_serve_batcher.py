"""MicroBatcher: coalescing, dedup, LRU caching, failure delivery."""

import threading

import pytest

from repro.serve.batcher import MicroBatcher


class CountingScorer:
    def __init__(self, fn=None):
        self.calls = 0
        self.batch_sizes = []
        self.fn = fn or (lambda p: p * 10)

    def __call__(self, payloads):
        self.calls += 1
        self.batch_sizes.append(len(payloads))
        return [self.fn(p) for p in payloads]


def make(scorer, **kw):
    kw.setdefault("max_delay_s", 0.0)  # manual flushing in tests
    return MicroBatcher(scorer, **kw)


def score_many(batcher, payloads, cache_keys=None):
    """Submit a burst and drain it in one flush; results in order."""
    keys = cache_keys if cache_keys is not None else [None] * len(payloads)
    futures = [batcher.submit(p, cache_key=k) for p, k in zip(payloads, keys)]
    batcher.flush()
    return [fut.result() for fut in futures]


def test_score_many_is_one_batch():
    scorer = CountingScorer()
    batcher = make(scorer)
    results = score_many(batcher, list(range(50)))
    assert results == [p * 10 for p in range(50)]
    assert scorer.calls == 1
    assert batcher.stats.scored == 50
    assert batcher.stats.max_batch == 50


def test_max_batch_triggers_auto_flush():
    scorer = CountingScorer()
    batcher = make(scorer, max_batch=4)
    futures = [batcher.submit(i) for i in range(4)]
    # Hitting max_batch flushed without an explicit flush() call.
    assert all(f.done() for f in futures)
    assert scorer.calls == 1
    assert scorer.batch_sizes == [4]


def test_cache_hits_skip_scoring():
    scorer = CountingScorer()
    batcher = make(scorer)
    first = score_many(batcher, [7], cache_keys=["seven"])
    assert scorer.calls == 1
    again = batcher.submit(7, cache_key="seven")
    assert again.done() and again.result() == first[0]
    assert scorer.calls == 1  # no second scorer call
    assert batcher.stats.cache_hits == 1


def test_cache_eviction_is_lru():
    scorer = CountingScorer()
    batcher = make(scorer, cache_size=2)
    score_many(batcher, [1, 2], cache_keys=["a", "b"])
    batcher.submit(1, cache_key="a")  # refresh "a"
    score_many(batcher, [3], cache_keys=["c"])  # evicts "b" (least recent)
    calls = scorer.calls
    hit = batcher.submit(1, cache_key="a")
    assert hit.done()  # "a" survived its refresh
    assert scorer.calls == calls
    batcher.submit(2, cache_key="b")
    batcher.flush()
    assert scorer.calls == calls + 1  # "b" was evicted and re-scored


def test_duplicate_keys_coalesce_within_batch():
    scorer = CountingScorer()
    batcher = make(scorer)
    futs = [batcher.submit(5, cache_key="k") for _ in range(6)]
    batcher.flush()
    assert scorer.batch_sizes == [1]  # one payload row for six waiters
    assert [f.result() for f in futs] == [50] * 6
    assert batcher.stats.coalesced == 5


def test_uncached_payloads_are_not_deduplicated():
    scorer = CountingScorer()
    batcher = make(scorer)
    results = score_many(batcher, [5, 5, 5])  # no cache keys
    assert results == [50, 50, 50]
    assert scorer.batch_sizes == [3]


def test_scorer_failure_reaches_every_waiter():
    def boom(payloads):
        raise RuntimeError("scorer exploded")

    batcher = make(boom)
    futs = [batcher.submit(i, cache_key=i) for i in range(3)]
    batcher.flush()
    for fut in futs:
        with pytest.raises(RuntimeError, match="exploded"):
            fut.result(timeout=1)
    # The batch is consumed; the batcher keeps working afterwards.
    ok = MicroBatcher(CountingScorer(), max_delay_s=0.0)
    assert score_many(ok, [1]) == [10]


def test_per_payload_exception_fails_only_its_waiters():
    def scorer(payloads):
        return [
            ValueError(f"bad payload {p}") if p < 0 else p * 10 for p in payloads
        ]

    batcher = make(scorer)
    good = batcher.submit(1, cache_key=1)
    bad = batcher.submit(-1, cache_key=-1)
    also_good = batcher.submit(2, cache_key=2)
    batcher.flush()
    assert good.result(timeout=1) == 10
    assert also_good.result(timeout=1) == 20
    with pytest.raises(ValueError, match="bad payload"):
        bad.result(timeout=1)
    # Exceptions are never cached: the retry scores again.
    retry = batcher.submit(-1, cache_key=-1)
    assert not retry.done()
    batcher.flush()
    with pytest.raises(ValueError):
        retry.result(timeout=1)


def test_result_count_mismatch_is_an_error():
    batcher = make(lambda payloads: payloads[:-1])
    fut = batcher.submit(1)
    batcher.flush()
    with pytest.raises(RuntimeError, match="results"):
        fut.result(timeout=1)


def test_concurrent_submitters_coalesce():
    scorer = CountingScorer()
    batcher = MicroBatcher(scorer, max_batch=64, max_delay_s=0.02)
    barrier = threading.Barrier(8)
    results = {}

    def worker(i):
        barrier.wait()
        results[i] = batcher.submit(i, cache_key=i).result(timeout=5)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == {i: i * 10 for i in range(8)}
    # All eight requests landed in strictly fewer scorer calls than a
    # request-per-call path would need.
    assert scorer.calls < 8
    assert sum(scorer.batch_sizes) == 8


def test_timer_flushes_without_explicit_flush():
    scorer = CountingScorer()
    batcher = MicroBatcher(scorer, max_delay_s=0.005)
    fut = batcher.submit(3, cache_key=3)
    assert fut.result(timeout=2) == 30
    assert scorer.calls == 1


def test_invalidate_clears_cache():
    scorer = CountingScorer()
    batcher = make(scorer)
    score_many(batcher, [1], cache_keys=["k"])
    batcher.invalidate()
    batcher.submit(1, cache_key="k")
    batcher.flush()
    assert scorer.calls == 2


def test_close_rejects_new_work():
    batcher = make(CountingScorer())
    batcher.close()
    with pytest.raises(RuntimeError, match="closed"):
        batcher.submit(1)


def test_validation():
    with pytest.raises(ValueError):
        MicroBatcher(lambda p: p, max_batch=0)
    with pytest.raises(ValueError):
        MicroBatcher(lambda p: p, max_delay_s=-1)
