"""Counters, gauges and histograms in one process-local registry.

A :class:`MetricsRegistry` holds named metrics of three kinds:

* **counter** — monotonically increasing number (``inc``);
* **gauge** — last-write-wins float (``set_gauge``);
* **histogram** — count/sum/max plus log-spaced bucket counts
  (``observe``), rendered as p50/p95/p99 at snapshot time.  Buckets are
  :data:`HISTOGRAM_RATIO` (2**(1/8), eight per octave) wide, so a
  reported quantile is never below the exact (inverted-CDF) quantile
  and at most ~9.1% above it — capped by the observed max, which is
  exact, like the count and sum.  Histograms cover the registry's whole
  lifetime.

Every update takes the registry's lock, so threads may share one.

A process has two kinds of registry.  The module-global one
(:func:`install_metrics`) feeds the instrumentation helpers :func:`inc`
/ :func:`observe` / :func:`set_gauge` that the engine calls; with none
installed they are a global load and a ``None`` check, so it is off by
default.  Each ``EstimationServer`` also owns a registry of its own,
always on, for its request counters and latency histograms;
``EstimationServer.metrics_snapshot()`` merges the two.
"""

from __future__ import annotations

import contextlib
import threading
from bisect import bisect_left
from itertools import accumulate

__all__ = [
    "HISTOGRAM_RATIO",
    "MetricsRegistry",
    "get_metrics",
    "install_metrics",
    "uninstall_metrics",
    "metrics_installed",
    "inc",
    "observe",
    "set_gauge",
]

_registry: "MetricsRegistry | None" = None


def get_metrics() -> "MetricsRegistry | None":
    return _registry


def install_metrics(registry: "MetricsRegistry") -> "MetricsRegistry":
    """Install ``registry`` as the process-global instrumentation sink."""
    global _registry
    _registry = registry
    return registry


def uninstall_metrics() -> None:
    global _registry
    _registry = None


@contextlib.contextmanager
def metrics_installed(registry: "MetricsRegistry | None" = None):
    """Install ``registry`` (a fresh local one by default) for the block,
    restoring whatever was installed before."""
    global _registry
    previous = _registry
    registry = registry or MetricsRegistry()
    _registry = registry
    try:
        yield registry
    finally:
        _registry = previous


def inc(name: str, n: float = 1) -> None:
    """Add ``n`` to counter ``name`` on the installed registry (no-op
    with none installed)."""
    registry = _registry
    if registry is not None:
        registry.inc(name, n)


def observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name`` on the installed registry."""
    registry = _registry
    if registry is not None:
        registry.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` on the installed registry."""
    registry = _registry
    if registry is not None:
        registry.set_gauge(name, value)


# ----------------------------------------------------------------------
# Histogram layout: a list [count, sum, max, bucket_0, ..., bucket_N].
# Bucket i counts values in (_HIST_BOUNDS[i-1], _HIST_BOUNDS[i]]; the
# last one counts values above the top bound.  The bounds run from 1 µs
# to ~1,070 in steps of HISTOGRAM_RATIO: every latency in seconds, from
# one kernel call to a full workload batch, and every batch size.
# ----------------------------------------------------------------------
_BUCKETS_PER_OCTAVE = 8
HISTOGRAM_RATIO = 2.0 ** (1.0 / _BUCKETS_PER_OCTAVE)
_HIST_BOUNDS = [
    1e-6 * 2.0 ** (k / _BUCKETS_PER_OCTAVE) for k in range(30 * _BUCKETS_PER_OCTAVE + 1)
]
_QUANTILES = ((0.50, "p50"), (0.95, "p95"), (0.99, "p99"))


class MetricsRegistry:
    """A thread-safe store of named counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, list] = {}
        # Total update calls (inc/observe/set) — consumed by the overhead
        # benchmark to price the per-call instrumentation cost.
        self.update_ops = 0

    # ------------------------------------------------------------------
    # Updates (thread-safe)
    # ------------------------------------------------------------------
    def inc(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.update_ops += 1
            self._counters[name] = self._counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.update_ops += 1
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        bucket = 3 + bisect_left(_HIST_BOUNDS, value)
        with self._lock:
            self.update_ops += 1
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = [0, 0.0, value] + [0] * (
                    len(_HIST_BOUNDS) + 1
                )
            hist[0] += 1
            hist[1] += value
            if value > hist[2]:
                hist[2] = value
            hist[bucket] += 1

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def value(self, name: str) -> float:
        """The current value of counter or gauge ``name`` (0 if it was
        never updated)."""
        with self._lock:
            return self._counters.get(name, self._gauges.get(name, 0))

    def snapshot(self) -> dict:
        """A JSON-friendly view of every metric, sorted by name."""
        with self._lock:
            flat = {name: float(v) for name, v in self._gauges.items()}
            flat.update(
                (name, int(v) if float(v).is_integer() else float(v))
                for name, v in self._counters.items()
            )
            histograms = [(name, list(h)) for name, h in self._histograms.items()]
        flat.update((name, _render_histogram(h)) for name, h in histograms)
        return dict(sorted(flat.items()))

    def __repr__(self) -> str:
        metrics = len(self._counters) + len(self._gauges) + len(self._histograms)
        return f"MetricsRegistry(metrics={metrics}, update_ops={self.update_ops})"


def _render_histogram(hist: list) -> dict:
    count, total, peak = hist[0], float(hist[1]), float(hist[2])
    summary = {"count": count, "sum": total, "mean": total / count, "max": peak}
    cumulative = list(accumulate(hist[3:]))
    for q, key in _QUANTILES:
        bucket = bisect_left(cumulative, q * count)
        # The quantile lies in this bucket; its upper bound over-estimates
        # it by at most HISTOGRAM_RATIO, and the observed max caps it.
        upper = _HIST_BOUNDS[bucket] if bucket < len(_HIST_BOUNDS) else peak
        summary[key] = min(upper, peak)
    return summary
