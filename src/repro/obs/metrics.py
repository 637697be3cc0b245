"""Counters, gauges and histograms in one process-local registry.

A :class:`MetricsRegistry` holds named metrics of three kinds:

* **counter** — monotonically increasing float (``inc``);
* **gauge** — last-write-wins float (``set_gauge``);
* **histogram** — log-spaced bucket counts plus count/sum/max
  (``observe``), rendered as approximate p50/p95/p99 at snapshot time.

Each metric is a small numpy vector mutated under a thread lock — cheap
enough for per-batch instrumentation.

Like the tracer, a module-global registry (:func:`install_metrics`)
feeds the instrumentation helpers :func:`inc` / :func:`observe` /
:func:`set_gauge`; with none installed they are a global load and a
``None`` check.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

__all__ = [
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
# Metric value-vector layout: a fixed float64 vector per metric, indexed
# by kind.
# ----------------------------------------------------------------------
_KIND_COUNTER, _KIND_GAUGE, _KIND_HISTOGRAM = 1, 2, 3
# Histogram layout: [0]=count, [1]=sum, [2]=max, [3:3+len(bounds)+1]=buckets.
# Log-spaced bounds covering 1µs .. ~134s — the latency range of every
# stage from one kernel call to a full workload batch.
_HIST_BOUNDS = np.array([1e-6 * 2.0 ** k for k in range(27)])
_VALUES = 3 + len(_HIST_BOUNDS) + 1  # 31 float64 per metric


class MetricsRegistry:
    """A thread-safe store of named counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, tuple[int, np.ndarray]] = {}
        # Total update calls (inc/observe/set) — consumed by the overhead
        # benchmark to price the per-call instrumentation cost.
        self.update_ops = 0

    # ------------------------------------------------------------------
    # Updates (thread-safe)
    # ------------------------------------------------------------------
    def _values(self, name: str, kind: int) -> np.ndarray:
        entry = self._metrics.get(name)
        if entry is None:
            entry = self._metrics[name] = (kind, np.zeros(_VALUES))
        return entry[1]

    def inc(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.update_ops += 1
            self._values(name, _KIND_COUNTER)[0] += n

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.update_ops += 1
            self._values(name, _KIND_GAUGE)[0] = value

    def observe(self, name: str, value: float) -> None:
        bucket = int(np.searchsorted(_HIST_BOUNDS, value, side="right"))
        with self._lock:
            self.update_ops += 1
            values = self._values(name, _KIND_HISTOGRAM)
            values[0] += 1
            values[1] += value
            values[2] = max(values[2], value)
            values[3 + bucket] += 1

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-friendly view of every metric."""
        with self._lock:
            return {
                name: _render(kind, values)
                for name, (kind, values) in sorted(self._metrics.items())
            }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(metrics={len(self._metrics)}, "
            f"update_ops={self.update_ops})"
        )


def _render(kind: int, values: np.ndarray):
    if kind == _KIND_HISTOGRAM:
        count = float(values[0])
        summary = {
            "count": int(count),
            "sum": float(values[1]),
            "mean": float(values[1] / count) if count else 0.0,
            "max": float(values[2]),
        }
        buckets = values[3:]
        cumulative = np.cumsum(buckets)
        for q in (0.50, 0.95, 0.99):
            if count:
                bucket = int(np.searchsorted(cumulative, q * count))
                upper = (
                    _HIST_BOUNDS[bucket]
                    if bucket < len(_HIST_BOUNDS)
                    else float(values[2])
                )
                # The quantile lies in this bucket; its upper bound is the
                # conservative (over-)estimate, capped by the observed max.
                summary[f"p{int(q * 100)}"] = float(min(upper, values[2]))
            else:
                summary[f"p{int(q * 100)}"] = 0.0
        return summary
    value = float(values[0])
    return int(value) if kind == _KIND_COUNTER and value.is_integer() else value
