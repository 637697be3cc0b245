"""Micro-batching estimation server.

``SafeBound.estimate_batch`` groups queries by skeleton so one compiled
skeleton and one warm conditioning cache serve a whole batch.  This
server turns that library-level batching into a serving-side win:
concurrent clients submit queries onto a bounded queue, and one
batching thread serves them in micro-batches through ``estimate_batch``
in this process — so requests that share a query shape share all
compilation and conditioning work.

Batches form by arrival, not by timer.  The batching thread sleeps
until work is queued, then takes whatever is queued (up to
``max_batch`` queries) and serves it at once; requests that arrive
while a batch runs form the next batch.  A lone request therefore pays
no batching delay, and under load batches grow by themselves.  A
multi-query frame submitted with :meth:`EstimationServer.submit_many`
is one queue entry, so it is served whole by a single
``estimate_batch`` call whenever it fits in ``max_batch``.

Admission control is the bounded queue: when ``max_queue`` queries are
waiting, ``submit`` raises :class:`ServerOverloadedError` instead of
growing an unbounded backlog.  While serving and while idle the thread
polls its estimator for a newer catalog version (``refresh``) every
``refresh_seconds``, giving hot statistics swaps without ever
rejecting or failing a request.  Because every batch is evaluated on
the one estimator object, padding applied by live ingest
(``apply_insert``) is visible to the very next batch — no statistics
need to cross a process boundary.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import Future
from dataclasses import dataclass, field

from ..db.query import Query
from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.tracing import span as _span
from . import faults

__all__ = ["ServerOverloadedError", "EstimationServer", "generate_load"]


class ServerOverloadedError(RuntimeError):
    """Admission control: the request queue is full.

    ``queue_depth``/``max_queue`` carry the live backlog and capacity at
    rejection time — the network tier forwards them in its typed
    overload response.
    """

    queue_depth: int | None = None
    max_queue: int | None = None
    # The server's backoff hint, set by the network tier's client from
    # the overload response (milliseconds; None in-process).
    retry_after_ms: float | None = None


@dataclass
class _Request:
    query: Query
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.perf_counter)


class _ServerRegistry(MetricsRegistry):
    """An :class:`EstimationServer`'s own registry, always on.

    Counters: ``server.accepted`` / ``rejected`` / ``completed`` /
    ``failed`` / ``swaps``, present (at 0) from the start.  Histograms:
    ``server.queue_seconds`` (admission -> batch start) and
    ``server.request_seconds`` (admission -> result) per request;
    ``server.batch_seconds`` and ``server.batch_size`` per batch.
    """

    def __init__(self) -> None:
        super().__init__()
        for name in ("accepted", "rejected", "completed", "failed", "swaps"):
            self.inc(f"server.{name}", 0)

    @property
    def rejected(self) -> int:
        """Requests refused by admission control (``server.rejected``)."""
        return self.value("server.rejected")


# The shortest idle wait between refresh polls / metrics dumps, so a
# ``refresh_seconds`` of 0 ("poll before every batch") cannot spin an
# idle server.
_MIN_IDLE_WAIT = 0.01


class EstimationServer:
    """An in-process, thread-based bound-serving front end.

    ``estimator`` is anything with ``estimate_batch`` (a ``SafeBound``, a
    ``CatalogBackedSafeBound``, or any harness estimator).  When it also
    exposes ``refresh()``, the batching thread calls it every
    ``refresh_seconds``, between batches and while idle — the catalog
    hot-swap hook.
    """

    def __init__(
        self,
        estimator,
        *,
        max_queue: int = 1024,
        max_batch: int = 64,
        refresh_seconds: float = 0.05,
        refresh_db=None,
        metrics_json_path: str | None = None,
        metrics_json_interval: float = 5.0,
        json_log=None,
        degraded_after_failures: int = 3,
    ) -> None:
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        # A non-positive capacity would reject every request.
        if max_queue <= 0:
            raise ValueError("max_queue must be positive")
        self.estimator = estimator
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.refresh_seconds = refresh_seconds
        self.refresh_db = refresh_db
        self.metrics = _ServerRegistry()
        # Periodic metrics dump: the batching loop rewrites this JSON file
        # every ``metrics_json_interval`` seconds while running.
        self.metrics_json_path = metrics_json_path
        self.metrics_json_interval = metrics_json_interval
        self._last_metrics_dump = 0.0
        # Structured event log: a file-like object that gets one JSON line
        # per rejected request / failed batch (the ``--log-json`` flag).
        self.json_log = json_log
        self._json_log_lock = threading.Lock()
        # The queue: entries are lists of requests (one per ``submit``,
        # up to ``max_batch`` per ``submit_many`` frame), ``_depth`` counts
        # the queued queries.  One condition on a reentrant lock guards
        # all of it, so ``submit_many`` can hold it across its ``submit``
        # calls.
        self._cond = threading.Condition(threading.RLock())
        self._queue: deque[list[_Request]] = deque()
        self._depth = 0
        # The frame a ``submit_many`` call is collecting, else None.
        self._frame: list[_Request] | None = None
        self._thread: threading.Thread | None = None
        self._accepting = False
        self._stopping = False
        self._last_refresh = time.monotonic()
        # The estimator's ``swaps`` already in ``server.swaps``.
        self._swaps_counted = getattr(estimator, "swaps", 0)
        self.last_refresh_error: Exception | None = None
        # Degraded-mode threshold: this many *consecutive* refresh
        # failures flips health to "degraded" (serving continues on the
        # pinned generation); one success resets it — auto-recovery.
        self.degraded_after_failures = degraded_after_failures
        self._consecutive_refresh_failures = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "EstimationServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._consecutive_refresh_failures = 0
        self._accepting = True
        self._stopping = False
        self._thread = threading.Thread(
            target=self._run, name="estimation-server", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float | None = 30.0) -> bool:
        """Stop accepting, serve everything already queued, and join.

        Returns whether the batching thread exited.  When the join times
        out (a batch outlives ``timeout``) the server keeps its thread:
        it still reports itself live (not ready) until the backlog is
        served, and a later ``stop()`` finishes the join.
        """
        thread = self._thread
        if thread is None:
            return True
        with self._cond:
            self._accepting = False
            self._stopping = True
            self._cond.notify()
        thread.join(timeout)
        if thread.is_alive():
            return False
        self._thread = None
        return True

    def __enter__(self) -> "EstimationServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(self, query: Query) -> Future:
        """Enqueue one query; resolves to its bound.  Raises
        :class:`ServerOverloadedError` when ``max_queue`` queries are
        already waiting."""
        request = _Request(query)
        with self._cond:
            if not self._accepting:
                raise RuntimeError("server is not accepting requests")
            depth = self._depth
            if depth < self.max_queue:
                self._depth += 1
                if self._frame is not None:
                    self._frame.append(request)  # submit_many enqueues it
                else:
                    self._queue.append([request])
                    self._cond.notify()
        if depth >= self.max_queue:
            self.metrics.inc("server.rejected")
            self._log_json("rejected", queue_depth=depth, max_queue=self.max_queue)
            exc = ServerOverloadedError(
                f"request queue full ({depth}/{self.max_queue} pending)"
            )
            exc.queue_depth = depth
            exc.max_queue = self.max_queue
            raise exc
        self.metrics.inc("server.accepted")
        return request.future

    def submit_many(self, queries: list[Query]) -> list[Future | Exception]:
        """Enqueue a frame of queries so they reach the batcher together.

        Each query still goes through :meth:`submit`, under the queue
        lock, and the admitted ones are enqueued as one entry (split
        every ``max_batch`` queries): a frame that fits in ``max_batch``
        is served by a single ``estimate_batch`` call.  Returns one slot
        per query, index-aligned: its future, or the
        :class:`ServerOverloadedError` / ``RuntimeError`` its admission
        raised.
        """
        slots: list[Future | Exception] = []
        with self._cond:
            self._frame = frame = []
            try:
                for query in queries:
                    try:
                        slots.append(self.submit(query))
                    except RuntimeError as exc:
                        slots.append(exc)
            finally:
                self._frame = None
                for start in range(0, len(frame), self.max_batch):
                    self._queue.append(frame[start : start + self.max_batch])
                if frame:
                    self._cond.notify()
        return slots

    def bound(self, query: Query, timeout: float | None = 30.0) -> float:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(query).result(timeout)

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopping:
                    if not self._cond.wait(self._idle_timeout()):
                        break  # a refresh poll or metrics dump is due
                batch = self._take_batch()
                done = not batch and self._stopping
            if done:
                break
            if batch:
                self._serve_batch(batch)
            self._maybe_refresh()
            self._maybe_dump_metrics()
        self._count_swaps()
        self._maybe_dump_metrics(force=True)

    def _idle_timeout(self) -> float | None:
        """Seconds until the next refresh poll or metrics dump is due;
        None (sleep until work arrives) when neither is configured."""
        due = []
        if getattr(self.estimator, "refresh", None) is not None:
            due.append(self._last_refresh + self.refresh_seconds)
        if self.metrics_json_path is not None:
            due.append(self._last_metrics_dump + self.metrics_json_interval)
        if not due:
            return None
        return max(min(due) - time.monotonic(), _MIN_IDLE_WAIT)

    def _take_batch(self) -> list[_Request]:
        """Pop whole queue entries, oldest first, up to ``max_batch``
        queries (the caller holds the lock)."""
        batch: list[_Request] = []
        while self._queue and len(batch) + len(self._queue[0]) <= self.max_batch:
            batch.extend(self._queue.popleft())
        self._depth -= len(batch)
        return batch

    def _serve_batch(self, batch: list[_Request]) -> None:
        # Transition every future to RUNNING; a client that cancelled while
        # queued is dropped here — and can no longer cancel, so the
        # set_result/set_exception calls below cannot raise
        # InvalidStateError and kill the worker thread.
        batch = [r for r in batch if r.future.set_running_or_notify_cancel()]
        if not batch:
            return
        started = time.perf_counter()
        for request in batch:
            self.metrics.observe("server.queue_seconds", started - request.enqueued_at)
        self.metrics.observe("server.batch_size", len(batch))
        queries = [r.query for r in batch]
        try:
            with _span("server.batch", size=len(batch)):
                faults.fire("server.batch.slow")
                estimates = self.estimator.estimate_batch(queries)
        except Exception as exc:  # propagate to every waiting client
            self._fail_batch(batch, exc)
            return
        self.metrics.observe("server.batch_seconds", time.perf_counter() - started)
        self._finish_batch(batch, estimates)

    def _finish_batch(self, batch: list[_Request], estimates) -> None:
        # A mismatched estimate count must fail loudly: zip() would
        # silently truncate, leaving the extra futures unresolved (clients
        # hang until timeout) and over-counting ``server.completed``.
        estimates = list(estimates) if estimates is not None else []
        if len(estimates) != len(batch):
            self._fail_batch(
                batch,
                RuntimeError(
                    f"estimator returned {len(estimates)} estimates for a "
                    f"batch of {len(batch)} queries — refusing to resolve a "
                    f"truncated batch"
                ),
            )
            return
        finished = time.perf_counter()
        for request, estimate in zip(batch, estimates):
            self.metrics.observe("server.request_seconds", finished - request.enqueued_at)
            request.future.set_result(estimate)
        self.metrics.inc("server.completed", len(batch))

    def _fail_batch(self, batch: list[_Request], exc: Exception) -> None:
        for request in batch:
            request.future.set_exception(exc)
        self.metrics.inc("server.failed", len(batch))
        self._log_json(
            "batch_failed",
            size=len(batch),
            error_type=type(exc).__name__,
            error=str(exc),
        )

    def _log_json(self, event: str, **fields) -> None:
        """One structured JSON line per serving anomaly (``--log-json``)."""
        stream = self.json_log
        if stream is None:
            return
        record = {"ts": time.time(), "event": event, **fields}
        line = json.dumps(record, default=repr)
        try:
            with self._json_log_lock:
                stream.write(line + "\n")
                stream.flush()
        except Exception:
            pass  # a broken log sink must never break serving

    def _maybe_dump_metrics(self, force: bool = False) -> None:
        """Rewrite the ``--metrics-json`` snapshot file when it is due."""
        path = self.metrics_json_path
        if path is None:
            return
        now = time.monotonic()
        if not force and now - self._last_metrics_dump < self.metrics_json_interval:
            return
        self._last_metrics_dump = now
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w") as fh:
                json.dump(self.metrics_snapshot(), fh, indent=2, default=repr)
            os.replace(tmp, path)
        except Exception:
            # Snapshot dumping is best-effort; never kill the worker loop.
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def _maybe_refresh(self) -> None:
        refresh = getattr(self.estimator, "refresh", None)
        if refresh is None:
            return
        now = time.monotonic()
        if now - self._last_refresh < self.refresh_seconds:
            return
        self._last_refresh = now
        # A refresh failure (e.g. transient IO against the catalog) must
        # never kill the worker thread — keep serving the current version
        # and retry on the next poll.
        try:
            swapped = (
                refresh(self.refresh_db) if self.refresh_db is not None else refresh()
            )
        except Exception as exc:
            self.last_refresh_error = exc
            self._consecutive_refresh_failures += 1
            swapped = False
        else:
            # One success heals degraded mode: clear the error and the streak.
            self.last_refresh_error = None
            self._consecutive_refresh_failures = 0
        self._count_swaps(swapped)

    def _count_swaps(self, swapped: bool = False) -> None:
        """Bring ``server.swaps`` up to date with the served estimator.

        An estimator that counts its own swaps (``swaps``, e.g. a
        ``CatalogBackedSafeBound``) may also be swapped by a caller other
        than this poll — ``UpdateIngest.republish`` refreshes it directly
        — so its count is the truth; otherwise ``swapped`` (what this
        poll's ``refresh`` returned) is.
        """
        total = getattr(self.estimator, "swaps", None)
        if total is None:
            total = self._swaps_counted + bool(swapped)
        if total != self._swaps_counted:
            self.metrics.inc("server.swaps", total - self._swaps_counted)
            self._swaps_counted = total

    # ------------------------------------------------------------------
    # Metrics and health
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """Every metric of this server as one flat dict.

        The installed ``repro.obs`` registry's metrics (when one is
        installed: kernel, conditioning and optimizer counters), this
        server's own ``server.*`` metrics, the ``health`` verdict, and the
        estimator's ``conditioning_cache`` counters when it exposes them.
        """
        installed = get_metrics()
        snapshot = installed.snapshot() if installed is not None else {}
        snapshot.update(self.metrics.snapshot())
        snapshot["health"] = self.health_status()
        stats_fn = getattr(self.estimator, "conditioning_cache_stats", None)
        if callable(stats_fn):
            try:
                snapshot["conditioning_cache"] = stats_fn()
            except Exception:  # estimator mid-refresh / not built yet
                pass
        return snapshot

    def health_status(self) -> dict:
        """The server's health verdict, with a liveness/readiness split.

        ``live`` is "the serving loop is running"; ``ready`` adds "and
        accepting requests" (False during drain-and-stop).  ``status`` is
        ``"ok"``, ``"degraded"`` — still serving, but with
        ``degraded_after_failures`` consecutive refresh failures (the
        pinned generation keeps being served, so bounds stay sound while
        freshness suffers) — or ``"stopped"``.  Degraded mode recovers
        automatically on the next successful refresh.
        """
        live = self.running
        status = "ok" if live else "stopped"
        reason = None
        if live and self._consecutive_refresh_failures >= self.degraded_after_failures:
            status = "degraded"
            reason = (
                f"catalog refresh failing "
                f"({self._consecutive_refresh_failures} consecutive): "
                f"{self.last_refresh_error!r}"
            )
        return {
            "status": status,
            "reason": reason,
            "live": live,
            "ready": live and self._accepting,
            "consecutive_refresh_failures": self._consecutive_refresh_failures,
            "last_refresh_error": (
                repr(self.last_refresh_error) if self.last_refresh_error else None
            ),
        }


def generate_load(
    bounds: Sequence[Callable[[Query], float]],
    queries: Sequence[Query],
    num_requests: int,
) -> dict:
    """Drive a bound service with ``num_requests`` single-query requests
    (round-robin over ``queries``) from one client thread per callable in
    ``bounds``.

    Thread ``t`` sends requests ``t``, ``t + n``, ``t + 2n``, ... through
    ``bounds[t]``: ``server.bound`` drives an :class:`EstimationServer`
    in process, and one :class:`~repro.service.net.NetClient` per thread
    (:func:`~repro.service.net.connect_clients`) drives it over a socket.
    An overloaded request is counted in ``rejections`` and resent after
    the server's ``retry_after_ms`` hint (0.5 ms when it gives none).

    Returns wall-clock throughput, the rejection count, the per-request
    results (index-aligned with the request order; ``None`` for a
    request that failed) and the per-request errors.  A failed request
    never kills its client thread — the remaining requests still run.
    """
    concurrency = len(bounds)
    results: list[float | None] = [None] * num_requests
    errors: list[str | None] = [None] * num_requests
    rejections = [0] * concurrency
    barrier = threading.Barrier(concurrency + 1)

    def client(worker: int) -> None:
        bound = bounds[worker]
        barrier.wait()
        for i in range(worker, num_requests, concurrency):
            query = queries[i % len(queries)]
            while True:
                try:
                    results[i] = bound(query)
                except ServerOverloadedError as exc:
                    rejections[worker] += 1
                    time.sleep((exc.retry_after_ms or 0.5) / 1000.0)
                    continue
                except Exception as exc:
                    errors[i] = repr(exc)
                break

    threads = [
        threading.Thread(target=client, args=(w,), daemon=True)
        for w in range(concurrency)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    started = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    completed = sum(r is not None for r in results)
    return {
        "requests": num_requests,
        "completed": completed,
        "concurrency": concurrency,
        "seconds": elapsed,
        "qps": completed / elapsed if elapsed > 0 else float("inf"),
        "rejections": sum(rejections),
        "errors": {i: e for i, e in enumerate(errors) if e is not None},
        "results": results,
    }
