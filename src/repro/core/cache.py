"""The bounded LRU cache behind the online estimation path.

The optimizer's DP asks SafeBound for every connected subquery, and the
same (table, predicate) conditioning work and the same query *shapes*
recur across subqueries and across workload queries.  SafeBound keeps
one :class:`LRUCache` for each: conditioned relations and compiled
skeletons.  Both live in the serving process, shared by its threads.
They must be bounded for a long-running service; a plain dict with an
insert cap stops adapting once full, so eviction is least-recently-used.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

__all__ = ["LRUCache"]


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Only the operations the estimation path needs: ``get`` (refreshes
    recency), item assignment (inserts or refreshes, evicting the oldest
    entry past ``maxsize``), ``get_or_compute`` (stampede-free fill),
    ``clear``, and hit/miss counters for observability.

    Thread-safe: the estimation server shares one ``SafeBound`` (and hence
    its conditioning and skeleton caches) across threads, and the
    ingest path clears the conditioning cache concurrently with lookups.
    ``move_to_end`` on a key evicted by a concurrent ``__setitem__`` would
    raise ``KeyError``, so every recency-mutating operation takes the lock.
    """

    __slots__ = ("maxsize", "hits", "misses", "_data", "_lock", "_inflight")

    def __init__(self, maxsize: int) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._inflight: dict[Hashable, threading.Event] = {}

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """``get`` without touching recency or the hit/miss counters (for
        batch prefetch passes that will re-read the key for real)."""
        with self._lock:
            return self._data.get(key, default)

    def get_or_compute(self, key: Hashable, fn: Callable[[], Any]) -> Any:
        """Return the cached value, computing and storing it on a miss.

        Per-key in-flight locking: when several threads miss the same key
        at once, exactly one runs ``fn`` while the rest wait for its
        result — without serialising computes of *different* keys and
        without holding the cache lock during ``fn``.  If the owner's
        ``fn`` raises, the exception propagates to the owner and waiting
        threads retry (one of them becomes the next owner).
        """
        while True:
            with self._lock:
                try:
                    value = self._data[key]
                except KeyError:
                    pass
                else:
                    self._data.move_to_end(key)
                    self.hits += 1
                    return value
                event = self._inflight.get(key)
                if event is None:
                    self.misses += 1
                    event = self._inflight[key] = threading.Event()
                    owner = True
                else:
                    owner = False
            if not owner:
                event.wait()
                continue  # re-check: value stored, evicted, or fn failed
            try:
                value = fn()
            except BaseException:
                with self._lock:
                    self._inflight.pop(key, None)
                event.set()  # waiters retry; one becomes the next owner
                raise
            self[key] = value  # store before waking waiters
            with self._lock:
                self._inflight.pop(key, None)
            event.set()
            return value

    def __getitem__(self, key: Hashable) -> Any:
        with self._lock:
            value = self._data[key]
            self._data.move_to_end(key)
            return value

    def __setitem__(self, key: Hashable, value: Any) -> None:
        with self._lock:
            data = self._data
            if key in data:
                data.move_to_end(key)
            data[key] = value
            if len(data) > self.maxsize:
                data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __repr__(self) -> str:
        return (
            f"LRUCache(maxsize={self.maxsize}, size={len(self._data)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
