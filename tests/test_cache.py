"""Cache-layer tests: the in-process LRU (bounded size, recency
eviction, counters, thread safety, single-flight ``get_or_compute``)."""

from __future__ import annotations

import threading

import pytest

from repro.core.cache import LRUCache


class TestLRUCache:
    def test_get_and_set(self):
        cache = LRUCache(4)
        cache["a"] = 1
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", 7) == 7
        assert "a" in cache and len(cache) == 1

    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache["a"] = 1
        cache["b"] = 2
        cache.get("a")  # refresh a; b becomes the LRU entry
        cache["c"] = 3
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert len(cache) == 2

    def test_overwrite_refreshes_recency(self):
        cache = LRUCache(2)
        cache["a"] = 1
        cache["b"] = 2
        cache["a"] = 10  # refresh a
        cache["c"] = 3
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_never_exceeds_maxsize(self):
        cache = LRUCache(8)
        for i in range(100):
            cache[i] = i
        assert len(cache) == 8
        assert all(i in cache for i in range(92, 100))

    def test_hit_miss_counters(self):
        cache = LRUCache(2)
        cache["a"] = 1
        cache.get("a")
        cache.get("a")
        cache.get("nope")
        assert cache.hits == 2
        assert cache.misses == 1

    def test_clear(self):
        cache = LRUCache(2)
        cache["a"] = 1
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_getitem_raises_on_miss(self):
        cache = LRUCache(2)
        with pytest.raises(KeyError):
            cache["nope"]

    def test_concurrent_access(self):
        """Regression test for sharing one cache across server threads:
        unsynchronised OrderedDict mutation raises (``move_to_end`` on a
        concurrently evicted key) or corrupts sizing — hammer get/put/clear
        from many threads and require clean, bounded behaviour."""
        cache = LRUCache(16)
        errors: list[Exception] = []
        barrier = threading.Barrier(9)

        def worker(worker_id: int) -> None:
            barrier.wait()
            try:
                for i in range(3000):
                    key = (worker_id * 7 + i) % 64
                    cache[key] = key * 2
                    got = cache.get(key)
                    assert got is None or got == key * 2
                    if i % 500 == 499 and worker_id == 0:
                        cache.clear()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        barrier.wait()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 16
        for key in list(cache._data):
            assert cache[key] == key * 2


class TestGetOrCompute:
    def test_cached_value_skips_fn(self):
        cache = LRUCache(4)
        cache["k"] = 41
        assert cache.get_or_compute("k", lambda: 1 / 0) == 41
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_computes_and_stores(self):
        cache = LRUCache(4)
        assert cache.get_or_compute("k", lambda: 42) == 42
        assert cache["k"] == 42
        assert cache.hits == 0 and cache.misses == 1

    def test_peek_does_not_touch_counters_or_recency(self):
        cache = LRUCache(2)
        cache["a"] = 1
        cache["b"] = 2
        assert cache.peek("a") == 1
        assert cache.peek("nope") is None
        assert cache.peek("nope", 7) == 7
        assert cache.hits == 0 and cache.misses == 0
        cache["c"] = 3  # "a" was NOT refreshed by peek -> it is the LRU
        assert "a" not in cache and "b" in cache

    def test_concurrent_misses_compute_once(self):
        """Single-flight: N threads racing on one cold key must run the
        compute function exactly once; the others block and reuse it."""
        cache = LRUCache(4)
        calls = []
        barrier = threading.Barrier(8)
        results = []
        lock = threading.Lock()

        def compute():
            calls.append(1)
            return 42

        def worker():
            barrier.wait()
            value = cache.get_or_compute("k", compute)
            with lock:
                results.append(value)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert results == [42] * 8
        assert cache.misses == 1 and cache.hits == 7

    def test_exception_releases_key_for_retry(self):
        cache = LRUCache(4)
        with pytest.raises(RuntimeError):
            cache.get_or_compute("k", self._boom)
        # The failed flight must not wedge the key: a retry recomputes.
        assert cache.get_or_compute("k", lambda: 5) == 5

    @staticmethod
    def _boom():
        raise RuntimeError("compute failed")
