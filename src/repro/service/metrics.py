"""Serving-side observability: latency recording and server counters.

The paper reports planning-time medians; a serving deployment needs tail
latency too, so the recorder keeps a bounded reservoir of recent samples
and summarises p50/p95/p99.  All mutators take a lock — they are called
from client threads (admission), the batching thread, and the
ingest thread concurrently.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

__all__ = ["LatencyRecorder", "ServerMetrics"]


class LatencyRecorder:
    """A bounded reservoir of latency samples with percentile summaries."""

    def __init__(self, capacity: int = 8192) -> None:
        self._lock = threading.Lock()
        self._samples: deque[float] = deque(maxlen=capacity)
        self.count = 0

    def record(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(float(seconds))
            self.count += 1

    def summary(self) -> dict[str, float]:
        """Lifetime sample count plus mean/p50/p95/p99/max over the
        retained reservoir.

        ``count`` is the number of samples *ever* recorded; ``window`` is
        the number retained in the bounded reservoir, which is what the
        mean and percentiles are computed over.  Keeping the two apart
        stops a long-lived server's summary from implying its percentiles
        cover millions of samples when the reservoir holds the last 8192.
        """
        with self._lock:
            samples = np.array(self._samples, dtype=float)
            count = self.count
        if not len(samples):
            nan = float("nan")
            return {
                "count": count,
                "window": 0,
                "mean": nan,
                "p50": nan,
                "p95": nan,
                "p99": nan,
                "max": nan,
            }
        return {
            "count": count,
            "window": int(len(samples)),
            "mean": float(samples.mean()),
            "p50": float(np.quantile(samples, 0.50)),
            "p95": float(np.quantile(samples, 0.95)),
            "p99": float(np.quantile(samples, 0.99)),
            "max": float(samples.max()),
        }


class ServerMetrics:
    """Counters and latency recorders of one estimation server."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.accepted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.batches = 0
        self.batched_requests = 0
        self.max_batch = 0
        self.swaps = 0
        # Queue wait (admission -> batch start) and total request latency
        # (admission -> result), in seconds.
        self.queue_latency = LatencyRecorder()
        self.request_latency = LatencyRecorder()
        # Optional callable returning the estimator's conditioning-cache
        # counters (SafeBound.conditioning_cache_stats); set by the server
        # when the estimator exposes one, sampled at snapshot time.
        self.conditioning_source = None
        # Optional callable returning the installed observability
        # registry's snapshot (repro.obs MetricsRegistry) — the
        # kernel/cache/latency counters of the serving process.
        self.obs_source = None
        # Optional callable returning the server's health verdict
        # (EstimationServer.health_status): ok/degraded/stopped plus the
        # readiness/liveness split, sampled at snapshot time.
        self.health_source = None

    # ------------------------------------------------------------------
    def record_accepted(self) -> None:
        with self._lock:
            self.accepted += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_requests += size
            self.max_batch = max(self.max_batch, size)

    def record_completed(self, count: int = 1) -> None:
        with self._lock:
            self.completed += count

    def record_failed(self, count: int = 1) -> None:
        with self._lock:
            self.failed += count

    def record_swap(self) -> None:
        with self._lock:
            self.swaps += 1

    # ------------------------------------------------------------------
    @property
    def mean_batch_size(self) -> float:
        with self._lock:
            return self.batched_requests / self.batches if self.batches else 0.0

    def snapshot(self) -> dict:
        """A JSON-friendly view of every counter and latency summary."""
        with self._lock:
            counters = {
                "accepted": self.accepted,
                "rejected": self.rejected,
                "completed": self.completed,
                "failed": self.failed,
                "batches": self.batches,
                "batched_requests": self.batched_requests,
                "max_batch": self.max_batch,
                "swaps": self.swaps,
            }
        counters["mean_batch_size"] = (
            counters["batched_requests"] / counters["batches"]
            if counters["batches"]
            else 0.0
        )
        counters["queue_latency"] = self.queue_latency.summary()
        counters["request_latency"] = self.request_latency.summary()
        for key, source in (
            ("conditioning_cache", self.conditioning_source),
            ("observability", self.obs_source),
            ("health", self.health_source),
        ):
            if source is not None:
                try:
                    counters[key] = source()
                except Exception:  # estimator mid-refresh / not built yet
                    pass
        return counters
