"""Tests for the micro-batching estimation server."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.predicates import Eq, Range
from repro.core.safebound import SafeBound
from repro.db.query import Query
from repro.service.metrics import LatencyRecorder, ServerMetrics
from repro.service.server import EstimationServer, ServerOverloadedError, generate_load


@pytest.fixture(scope="module")
def built(tiny_db):
    sb = SafeBound()
    sb.build(tiny_db)
    return sb


def _queries():
    out = []
    for year in range(1950, 2010, 10):
        out.append(
            Query()
            .add_relation("f", "fact")
            .add_relation("d", "dim")
            .add_join("f", "dim_id", "d", "id")
            .add_predicate("d", Range("year", low=year, high=year + 9))
        )
    for score in range(5):
        out.append(
            Query()
            .add_relation("f", "fact")
            .add_relation("d", "dim")
            .add_relation("g", "fact2")
            .add_join("f", "dim_id", "d", "id")
            .add_join("g", "dim_id", "d", "id")
            .add_predicate("f", Eq("score", score))
        )
    return out


class _SlowEstimator:
    """Wraps an estimator with a per-batch delay (forces queue buildup)."""

    def __init__(self, inner, delay: float) -> None:
        self.inner = inner
        self.delay = delay

    def estimate_batch(self, queries):
        time.sleep(self.delay)
        return self.inner.estimate_batch(queries)


class _FailingEstimator:
    def estimate_batch(self, queries):
        raise ValueError("boom")


class _SwappableEstimator:
    def __init__(self, inner) -> None:
        self.inner = inner
        self.refreshes = 0
        self.swap_next = False

    def refresh(self):
        self.refreshes += 1
        if self.swap_next:
            self.swap_next = False
            return True
        return False

    def estimate_batch(self, queries):
        return self.inner.estimate_batch(queries)


class TestMicroBatching:
    def test_concurrent_requests_bit_identical_to_direct_bound(self, built):
        queries = _queries()
        direct = [built.bound(q) for q in queries]
        with EstimationServer(built, max_batch=32, max_wait_ms=5.0) as server:
            report = generate_load(server, queries, num_requests=130, concurrency=10)
        assert report["rejections"] == 0
        for i, result in enumerate(report["results"]):
            assert result == direct[i % len(queries)]

    def test_requests_actually_coalesce(self, built):
        queries = _queries()
        slow = _SlowEstimator(built, delay=0.01)
        with EstimationServer(slow, max_batch=64, max_wait_ms=20.0) as server:
            report = generate_load(server, queries, num_requests=96, concurrency=12)
        metrics = report["metrics"]
        assert metrics["batches"] < metrics["accepted"]
        assert metrics["mean_batch_size"] > 1.5
        assert metrics["max_batch"] > 1

    def test_single_request_sync_api(self, built):
        query = _queries()[0]
        with EstimationServer(built) as server:
            assert server.bound(query) == built.bound(query)

    def test_stop_serves_backlog(self, built):
        queries = _queries()
        slow = _SlowEstimator(built, delay=0.02)
        server = EstimationServer(slow, max_batch=4, max_wait_ms=0.1)
        server.start()
        futures = [server.submit(q) for q in queries]
        server.stop()
        for q, future in zip(queries, futures):
            assert future.result(timeout=1.0) == built.bound(q)

    def test_submit_after_stop_raises(self, built):
        server = EstimationServer(built)
        server.start()
        server.stop()
        with pytest.raises(RuntimeError):
            server.submit(_queries()[0])

    def test_cancelled_future_does_not_kill_worker(self, built):
        """Regression: set_result on a client-cancelled future used to
        raise InvalidStateError and terminate the serving thread."""
        slow = _SlowEstimator(built, delay=0.02)
        query = _queries()[0]
        with EstimationServer(slow, max_batch=8, max_wait_ms=0.1) as server:
            first = server.submit(query)   # occupies the worker
            victim = server.submit(query)  # still queued
            survivor = server.submit(query)
            assert victim.cancel()
            assert first.result(timeout=5.0) == built.bound(query)
            assert survivor.result(timeout=5.0) == built.bound(query)
            # The worker is still alive and serving.
            assert server.bound(query, timeout=5.0) == built.bound(query)


class TestAdmissionControl:
    def test_overload_rejects_instead_of_queueing(self, built):
        slow = _SlowEstimator(built, delay=0.05)
        query = _queries()[0]
        with EstimationServer(slow, max_queue=2, max_batch=1, max_wait_ms=0.0) as server:
            rejected = 0
            futures = []
            for _ in range(50):
                try:
                    futures.append(server.submit(query))
                except ServerOverloadedError:
                    rejected += 1
            assert rejected > 0
            assert server.metrics.rejected == rejected
            for future in futures:
                assert future.result(timeout=10.0) == built.bound(query)

    def test_rejection_carries_live_depth_not_capacity(self, built):
        """Regression: the rejection log (and error) used to report
        ``queue_depth=maxsize`` — the constant capacity — instead of the
        live backlog at rejection time."""
        slow = _SlowEstimator(built, delay=0.05)
        query = _queries()[0]
        with EstimationServer(slow, max_queue=2, max_batch=1, max_wait_ms=0.0) as server:
            caught = None
            futures = []
            for _ in range(50):
                try:
                    futures.append(server.submit(query))
                except ServerOverloadedError as exc:
                    caught = exc
            assert caught is not None
            assert caught.max_queue == 2
            assert isinstance(caught.queue_depth, int)
            assert 0 <= caught.queue_depth <= 2
            assert f"({caught.queue_depth}/2 pending)" in str(caught)
            for future in futures:
                future.result(timeout=10.0)

    @pytest.mark.parametrize("max_queue", [0, -1])
    def test_non_positive_queue_is_rejected(self, built, max_queue):
        """Regression: ``queue.Queue(maxsize=0)`` is unbounded, so
        ``max_queue=0`` used to accept every request instead of bounding
        the backlog."""
        with pytest.raises(ValueError, match="max_queue"):
            EstimationServer(built, max_queue=max_queue)

    @pytest.mark.parametrize("argv", [["--queue", "0"], ["serve", "--queue", "0"]])
    def test_cli_rejects_non_positive_queue(self, argv):
        """``--queue 0`` fails at argument parsing, before any build."""
        from repro.service.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_failed_batch_propagates_to_clients(self):
        with EstimationServer(_FailingEstimator()) as server:
            future = server.submit(_queries()[0])
            with pytest.raises(ValueError, match="boom"):
                future.result(timeout=5.0)
            deadline = time.monotonic() + 2.0
            while server.metrics.failed < 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert server.metrics.failed == 1

    def test_mismatched_estimate_count_fails_batch_loudly(self, built):
        """The count guard: an estimator returning one estimate too few
        must fail every future of the batch with a typed RuntimeError —
        zip() would silently truncate, leaving the unpaired future hung
        until client timeout and ``completed`` over-counted — and the
        server must keep serving the next batch."""

        class _TruncatingEstimator:
            def __init__(self, inner) -> None:
                self.inner = inner
                self.short = True

            def estimate_batch(self, queries):
                estimates = self.inner.estimate_batch(queries)
                return estimates[:-1] if self.short else estimates

        stub = _TruncatingEstimator(built)
        queries = _queries()
        with EstimationServer(stub, max_batch=len(queries), max_wait_ms=50.0) as server:
            futures = [server.submit(q) for q in queries]
            for future in futures:
                with pytest.raises(RuntimeError, match="truncated batch"):
                    future.result(timeout=5.0)
            # _fail_batch resolves the futures before it counts them.
            deadline = time.monotonic() + 2.0
            while server.metrics.failed < len(queries) and time.monotonic() < deadline:
                time.sleep(0.001)
            assert server.metrics.failed == len(queries)
            assert server.metrics.completed == 0
            stub.short = False
            assert server.bound(queries[0], timeout=5.0) == built.bound(queries[0])
        assert server.metrics.completed == 1

    def test_generate_load_survives_failing_requests(self):
        """Regression: a failed future used to kill its client thread,
        silently dropping that worker's remaining requests."""
        with EstimationServer(_FailingEstimator()) as server:
            report = generate_load(
                server, _queries(), num_requests=24, concurrency=4, timeout=10.0
            )
        assert report["completed"] == 0
        assert len(report["errors"]) == 24  # every request reported, none dropped
        assert all(r is None for r in report["results"])


class TestHotSwap:
    def test_refresh_polled_and_swap_counted(self, built):
        swappable = _SwappableEstimator(built)
        query = _queries()[0]
        with EstimationServer(swappable, refresh_seconds=0.0) as server:
            server.bound(query)
            swappable.swap_next = True
            server.bound(query)
            server.bound(query)
        assert swappable.refreshes >= 2
        assert server.metrics.swaps == 1

    def test_refresh_failure_does_not_kill_worker(self, built):
        """Regression: an exception out of refresh() used to terminate the
        serving thread, leaving all future requests hanging."""

        class _BrokenRefresh(_SwappableEstimator):
            def refresh(self):
                super().refresh()
                raise OSError("catalog unreachable")

        broken = _BrokenRefresh(built)
        query = _queries()[0]
        with EstimationServer(broken, refresh_seconds=0.0) as server:
            assert server.bound(query) == built.bound(query)
            # The poll after the first batch raised; serving must continue.
            assert server.bound(query, timeout=5.0) == built.bound(query)
            assert isinstance(server.last_refresh_error, OSError)
        assert server.metrics.failed == 0


class TestMetrics:
    def test_latency_recorder_percentiles_ordered(self):
        recorder = LatencyRecorder()
        for ms in range(1, 101):
            recorder.record(ms / 1000.0)
        summary = recorder.summary()
        assert summary["count"] == 100
        assert summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["max"]
        assert summary["p50"] == pytest.approx(0.0505, rel=0.05)

    def test_empty_recorder_summary(self):
        summary = LatencyRecorder().summary()
        assert summary["count"] == 0
        assert summary["p99"] != summary["p99"]  # NaN

    def test_snapshot_is_json_friendly(self, built):
        import json

        with EstimationServer(built) as server:
            server.bound(_queries()[0])
        snapshot = server.metrics.snapshot()
        json.dumps(snapshot)
        assert snapshot["accepted"] == 1
        assert snapshot["completed"] == 1
        assert snapshot["request_latency"]["count"] == 1

    def test_concurrent_counter_updates(self):
        metrics = ServerMetrics()

        def bump():
            for _ in range(1000):
                metrics.record_accepted()
                metrics.record_batch(2)

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.accepted == 8000
        assert metrics.batches == 8000
        assert metrics.batched_requests == 16000
