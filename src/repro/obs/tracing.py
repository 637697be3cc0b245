"""Nested-span tracing with a module-level no-op fast path.

The estimation pipeline calls :func:`span` at every stage boundary
(skeleton compile, conditioning, kernel execution, optimizer DP levels,
server batches).  With no tracer installed — the default — ``span``
reads one module global, sees ``None`` and returns a shared no-op
context manager: the disabled cost per instrumentation point is a few
hundred nanoseconds, benchmarked by ``benchmarks/bench_obs_overhead.py``
against a < 2% end-to-end floor.

With a tracer installed (:func:`install_tracer` or the
:func:`tracing_installed` context manager), each ``with span(name):``
block records one :class:`SpanRecord` — start, duration, thread, parent
span — onto the tracer.  Nesting is tracked per thread through a
``threading.local`` stack, so concurrent server threads trace
independently.  Finished spans support two consumers:

* :meth:`Tracer.stage_totals` — per-stage inclusive/exclusive wall time
  (exclusive = the span minus its children, so the exclusive times of a
  trace sum to its root spans' durations — the property ``explain``
  relies on to reconcile a stage breakdown against end-to-end latency);
* :meth:`Tracer.chrome_trace` — the Chrome trace-event JSON format,
  loadable in ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import threading
import time

__all__ = [
    "SpanRecord",
    "Tracer",
    "span",
    "get_tracer",
    "install_tracer",
    "uninstall_tracer",
    "tracing_installed",
]


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()

# The installed tracer.  Process-global; read on every span() call, so
# the disabled fast path is one global load plus an identity check.
_tracer: "Tracer | None" = None


def span(name: str, **attrs):
    """A context manager recording one span under the installed tracer,
    or a shared no-op when tracing is disabled."""
    tracer = _tracer
    if tracer is None:
        return _NOOP
    return tracer.span(name, **attrs)


def get_tracer() -> "Tracer | None":
    return _tracer


def install_tracer(tracer: "Tracer") -> "Tracer":
    """Install ``tracer`` as the process-global trace sink."""
    global _tracer
    _tracer = tracer
    return tracer


def uninstall_tracer() -> None:
    global _tracer
    _tracer = None


@contextlib.contextmanager
def tracing_installed(tracer: "Tracer | None" = None):
    """Install ``tracer`` (a fresh one by default) for the duration of the
    block, restoring whatever was installed before."""
    global _tracer
    previous = _tracer
    tracer = tracer or Tracer()
    _tracer = tracer
    try:
        yield tracer
    finally:
        _tracer = previous


class SpanRecord:
    """One finished span: timing, thread, tree position, attributes."""

    __slots__ = ("span_id", "parent_id", "name", "start", "duration", "thread_id", "attrs")

    def __init__(self, span_id, parent_id, name, start, duration, thread_id, attrs):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.duration = duration
        self.thread_id = thread_id
        self.attrs = attrs

    def __repr__(self) -> str:
        return (
            f"SpanRecord({self.name!r}, {self.duration * 1e3:.3f}ms, "
            f"parent={self.parent_id})"
        )


class _ActiveSpan:
    """A span in flight; created by :meth:`Tracer.span`, finished on exit."""

    __slots__ = ("_tracer", "name", "attrs", "_start", "_span_id", "_parent_id")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> "_ActiveSpan":
        """Attach attributes computed inside the block."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        stack = tracer._stack()
        self._parent_id = stack[-1] if stack else None
        self._span_id = next(tracer._ids)
        stack.append(self._span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        duration = time.perf_counter() - self._start
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] == self._span_id:
            stack.pop()
        record = SpanRecord(
            self._span_id,
            self._parent_id,
            self.name,
            self._start,
            duration,
            threading.get_ident(),
            self.attrs,
        )
        with tracer._lock:
            tracer.spans.append(record)
        return False


class Tracer:
    """Collects nested spans from any number of threads.

    Spans nest through a per-thread stack, so a span opened on the server
    worker thread never becomes the parent of one opened on a client
    thread.  Finished spans accumulate in :attr:`spans` (appended under a
    lock) until :meth:`clear`.
    """

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs) -> _ActiveSpan:
        return _ActiveSpan(self, name, attrs)

    def clear(self) -> None:
        with self._lock:
            self.spans = []

    # ------------------------------------------------------------------
    # Consumers
    # ------------------------------------------------------------------
    def stage_totals(self) -> dict[str, dict]:
        """Per-stage aggregate: count, inclusive and exclusive seconds.

        Exclusive ("self") time is the span's duration minus its direct
        children's durations, so summing ``self_seconds`` over every stage
        reproduces the total span-covered wall time (the root spans'
        durations) with no double counting.
        """
        with self._lock:
            spans = list(self.spans)
        child_time: dict[int, float] = {}
        for record in spans:
            if record.parent_id is not None:
                child_time[record.parent_id] = (
                    child_time.get(record.parent_id, 0.0) + record.duration
                )
        out: dict[str, dict] = {}
        for record in spans:
            stage = out.setdefault(
                record.name,
                {"count": 0, "total_seconds": 0.0, "self_seconds": 0.0},
            )
            stage["count"] += 1
            stage["total_seconds"] += record.duration
            stage["self_seconds"] += max(
                record.duration - child_time.get(record.span_id, 0.0), 0.0
            )
        return out

    def root_seconds(self) -> float:
        """Total duration of root (parentless) spans — the span-covered
        end-to-end wall time the exclusive stage times sum to."""
        with self._lock:
            return sum(r.duration for r in self.spans if r.parent_id is None)

    def chrome_trace(self) -> dict:
        """The trace in Chrome trace-event format (``chrome://tracing`` /
        Perfetto): one complete ("ph": "X") event per span, microsecond
        timestamps, thread ids preserved."""
        pid = os.getpid()
        with self._lock:
            spans = list(self.spans)
        events = [
            {
                "name": record.name,
                "ph": "X",
                "ts": record.start * 1e6,
                "dur": record.duration * 1e6,
                "pid": pid,
                "tid": record.thread_id % (1 << 31),
                "args": {k: _jsonable(v) for k, v in record.attrs.items()},
            }
            for record in spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)

    def __repr__(self) -> str:
        return f"Tracer(spans={len(self.spans)})"


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
