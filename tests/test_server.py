"""Tests for the micro-batching estimation server."""

from __future__ import annotations

import contextlib
import functools
import threading
import time

import pytest

from repro.core.predicates import Eq, Range
from repro.core.safebound import SafeBound
from repro.db.query import Query
from repro.obs.metrics import MetricsRegistry
from repro.service.net import NetServer, connect_clients
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


class _GatedEstimator:
    """Holds every batch until ``release`` is set; ``entered`` fires when
    the first batch is running (a deterministic busy worker)."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()

    def estimate_batch(self, queries):
        self.entered.set()
        self.release.wait(10.0)
        return self.inner.estimate_batch(queries)


class _RecordingEstimator:
    """Instant stub that records each ``estimate_batch`` call."""

    def __init__(self) -> None:
        self.batches: list[list[Query]] = []

    def estimate_batch(self, queries):
        self.batches.append(list(queries))
        return [1.0] * len(queries)


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
        with EstimationServer(built, max_batch=32) as server:
            report = generate_load([server.bound] * 10, queries, num_requests=130)
        assert report["rejections"] == 0
        for i, result in enumerate(report["results"]):
            assert result == direct[i % len(queries)]

    def test_requests_actually_coalesce(self, built):
        queries = _queries()
        slow = _SlowEstimator(built, delay=0.01)
        with EstimationServer(slow, max_batch=64) as server:
            generate_load([server.bound] * 12, queries, num_requests=96)
        metrics = server.metrics_snapshot()
        batch_size = metrics["server.batch_size"]
        assert batch_size["count"] < metrics["server.accepted"]
        assert batch_size["sum"] == metrics["server.accepted"]
        assert batch_size["mean"] > 1.5
        assert batch_size["max"] > 1

    def test_single_request_sync_api(self, built):
        query = _queries()[0]
        with EstimationServer(built) as server:
            assert server.bound(query) == built.bound(query)

    def test_stop_serves_backlog(self, built):
        queries = _queries()
        slow = _SlowEstimator(built, delay=0.02)
        server = EstimationServer(slow, max_batch=4)
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
        gated = _GatedEstimator(built)
        query = _queries()[0]
        with EstimationServer(gated, max_batch=8) as server:
            first = server.submit(query)   # occupies the worker
            assert gated.entered.wait(5.0)
            victim = server.submit(query)  # still queued
            survivor = server.submit(query)
            assert victim.cancel()
            gated.release.set()
            assert first.result(timeout=5.0) == built.bound(query)
            assert survivor.result(timeout=5.0) == built.bound(query)
            # The worker is still alive and serving.
            assert server.bound(query, timeout=5.0) == built.bound(query)


class TestBatchByArrival:
    def test_submit_many_frame_is_one_estimate_batch_call(self):
        """A frame of N <= max_batch queries is one queue entry, so it is
        never split across batches — even while other clients keep
        submitting single queries ahead of and behind it."""
        stub = _RecordingEstimator()
        singles = _queries()
        frames = [_queries() for _ in range(20)]
        stop = threading.Event()
        with EstimationServer(stub, max_batch=len(frames[0])) as server:

            def hammer() -> None:
                while not stop.is_set():
                    server.bound(singles[0], timeout=5.0)

            threads = [threading.Thread(target=hammer, daemon=True) for _ in range(2)]
            for t in threads:
                t.start()
            try:
                for frame in frames:
                    slots = server.submit_many(frame)
                    assert [f.result(timeout=5.0) for f in slots] == [1.0] * len(frame)
            finally:
                stop.set()
                for t in threads:
                    t.join(10.0)
        assert any(q is singles[0] for batch in stub.batches for q in batch)
        for frame in frames:
            members = {id(q) for q in frame}
            hits = [b for b in stub.batches if members & {id(q) for q in b}]
            assert len(hits) == 1
            assert members <= {id(q) for q in hits[0]}

    def test_submit_many_splits_a_frame_at_max_batch(self):
        stub = _RecordingEstimator()
        queries = _queries()
        with EstimationServer(stub, max_batch=4) as server:
            slots = server.submit_many(queries)
            assert [f.result(timeout=5.0) for f in slots] == [1.0] * len(queries)
        assert [len(b) for b in stub.batches] == [4, 4, 3]

    def test_submit_many_returns_admission_errors_in_their_slots(self, built):
        gated = _GatedEstimator(built)
        queries = _queries()
        with EstimationServer(gated, max_queue=3, max_batch=8) as server:
            first = server.submit(queries[0])
            assert gated.entered.wait(5.0)
            slots = server.submit_many(queries[:5])
            assert [isinstance(s, ServerOverloadedError) for s in slots] == [
                False, False, False, True, True,
            ]
            assert slots[3].queue_depth == 3 and slots[3].max_queue == 3
            gated.release.set()
            assert first.result(timeout=5.0) == built.bound(queries[0])
            for q, slot in zip(queries, slots[:3]):
                assert slot.result(timeout=5.0) == built.bound(q)
        assert server.metrics.rejected == 2
        slots = server.submit_many(queries[:2])
        assert all(type(s) is RuntimeError for s in slots)

    def test_lone_requests_pay_no_batching_delay(self):
        """Sequential requests dispatch on arrival: the deleted batching
        timer held each one for at least 2 ms."""
        query = _queries()[0]
        with EstimationServer(_RecordingEstimator()) as server:
            for _ in range(50):
                assert server.bound(query, timeout=5.0) == 1.0
        assert server.metrics.snapshot()["server.queue_seconds"]["p50"] < 1e-3

    @pytest.mark.parametrize("refreshing", [False, True])
    def test_idle_stop_returns_promptly(self, built, refreshing):
        estimator = _SwappableEstimator(built) if refreshing else built
        server = EstimationServer(estimator).start()
        time.sleep(0.05)  # let the batching thread go idle
        started = time.monotonic()
        assert server.stop() is True
        assert time.monotonic() - started < 1.0
        assert not server.running

    def test_stop_during_batch_serves_whole_backlog(self, built):
        gated = _GatedEstimator(built)
        queries = _queries()
        server = EstimationServer(gated, max_batch=4).start()
        first = server.submit(queries[0])
        assert gated.entered.wait(5.0)
        backlog = [server.submit(q) for q in queries]
        stopped: list[bool] = []
        stopper = threading.Thread(target=lambda: stopped.append(server.stop(10.0)))
        stopper.start()
        deadline = time.monotonic() + 5.0
        while server.health_status()["ready"] and time.monotonic() < deadline:
            time.sleep(0.001)
        with pytest.raises(RuntimeError, match="not accepting"):
            server.submit(queries[0])
        gated.release.set()
        stopper.join(10.0)
        assert stopped == [True]
        assert first.result(timeout=1.0) == built.bound(queries[0])
        for q, future in zip(queries, backlog):
            assert future.result(timeout=1.0) == built.bound(q)
        assert server.metrics.value("server.completed") == len(queries) + 1

    def test_stop_timeout_keeps_reporting_live(self, built):
        """A join that times out must not report the server stopped while
        its batching thread still runs."""
        gated = _GatedEstimator(built)
        query = _queries()[0]
        server = EstimationServer(gated).start()
        future = server.submit(query)
        assert gated.entered.wait(5.0)
        assert server.stop(timeout=0.05) is False
        assert server.running
        health = server.health_status()
        assert health["live"] and not health["ready"]
        assert health["status"] == "ok"
        with pytest.raises(RuntimeError, match="already started"):
            server.start()
        gated.release.set()
        assert future.result(timeout=5.0) == built.bound(query)
        assert server.stop(timeout=5.0) is True
        assert not server.running
        assert server.health_status()["status"] == "stopped"


class TestAdmissionControl:
    def test_overload_rejects_instead_of_queueing(self, built):
        slow = _SlowEstimator(built, delay=0.05)
        query = _queries()[0]
        with EstimationServer(slow, max_queue=2, max_batch=1) as server:
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
        with EstimationServer(slow, max_queue=2, max_batch=1) as server:
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
            while server.metrics.value("server.failed") < 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert server.metrics.value("server.failed") == 1

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
        with EstimationServer(stub, max_batch=len(queries)) as server:
            futures = server.submit_many(queries)
            for future in futures:
                with pytest.raises(RuntimeError, match="truncated batch"):
                    future.result(timeout=5.0)
            # _fail_batch resolves the futures before it counts them.
            deadline = time.monotonic() + 2.0
            while server.metrics.value("server.failed") < len(queries) and time.monotonic() < deadline:
                time.sleep(0.001)
            assert server.metrics.value("server.failed") == len(queries)
            assert server.metrics.value("server.completed") == 0
            stub.short = False
            assert server.bound(queries[0], timeout=5.0) == built.bound(queries[0])
        assert server.metrics.value("server.completed") == 1

    @pytest.mark.parametrize("driver", ["in_process", "net"])
    def test_generate_load_survives_failing_requests(self, driver):
        """Regression: a failed future used to kill its client thread,
        silently dropping that worker's remaining requests.  Over a
        socket each failure is a typed error response, so the same load
        loop reports it the same way; no client thread may hang."""
        report: dict = {}
        with EstimationServer(_FailingEstimator()) as server:
            with contextlib.ExitStack() as stack:
                if driver == "in_process":
                    bounds = [functools.partial(server.bound, timeout=10.0)] * 4
                else:
                    net = stack.enter_context(NetServer(server))
                    clients = stack.enter_context(
                        connect_clients(*net.address, 4, timeout=10.0)
                    )
                    bounds = [c.bound for c in clients]
                loader = threading.Thread(
                    target=lambda: report.update(
                        generate_load(bounds, _queries(), num_requests=24)
                    ),
                    daemon=True,
                )
                loader.start()
                loader.join(60.0)
                assert not loader.is_alive(), "a client thread hung"
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
        assert server.metrics.value("server.swaps") == 1

    def test_refresh_polled_while_idle(self, built):
        """The batching thread wakes for refresh polls with no traffic, so
        a publish is picked up before the next request arrives."""
        swappable = _SwappableEstimator(built)
        swappable.swap_next = True
        with EstimationServer(swappable, refresh_seconds=0.01) as server:
            deadline = time.monotonic() + 5.0
            while swappable.refreshes < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert swappable.refreshes >= 3
            assert server.metrics.value("server.swaps") == 1
        assert server.metrics.value("server.accepted") == 0

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
        assert server.metrics.value("server.failed") == 0


class TestMetrics:
    def test_latency_percentiles_ordered(self, built):
        queries = _queries()
        with EstimationServer(built) as server:
            generate_load([server.bound] * 4, queries, num_requests=100)
        metrics = server.metrics_snapshot()
        for name in ("server.queue_seconds", "server.request_seconds"):
            summary = metrics[name]
            assert summary["count"] == 100
            assert 0 < summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["max"]
        assert metrics["server.batch_seconds"]["count"] == metrics["server.batch_size"]["count"]
        assert metrics["server.request_seconds"]["max"] >= metrics["server.queue_seconds"]["max"]

    def test_idle_server_counters_are_zero(self, built):
        server = EstimationServer(built)
        snapshot = server.metrics_snapshot()
        for name in ("accepted", "rejected", "completed", "failed", "swaps"):
            assert snapshot[f"server.{name}"] == 0
        assert server.metrics.rejected == 0
        assert snapshot["health"]["status"] == "stopped"

    def test_empty_recorder_summary(self, built):
        """A histogram is rendered only once something was observed: an
        idle server reports no latency summary rather than a made-up one."""
        server = EstimationServer(built)
        server.start()
        server.stop()
        snapshot = server.metrics_snapshot()
        for name in ("queue_seconds", "request_seconds", "batch_seconds", "batch_size"):
            assert f"server.{name}" not in snapshot
        assert MetricsRegistry().snapshot() == {}

    def test_concurrent_counter_updates(self):
        """8 client threads x 1000 requests: the server's accounting loses
        no update."""
        with EstimationServer(_RecordingEstimator(), max_queue=8000) as server:
            report = generate_load([server.bound] * 8, _queries(), num_requests=8000)
        assert report["completed"] == 8000
        metrics = server.metrics_snapshot()
        assert metrics["server.accepted"] == metrics["server.completed"] == 8000
        assert metrics["server.request_seconds"]["count"] == 8000
        assert metrics["server.queue_seconds"]["count"] == 8000
        assert metrics["server.batch_size"]["sum"] == 8000

    def test_snapshot_is_json_friendly(self, built):
        import json

        with EstimationServer(built) as server:
            server.bound(_queries()[0])
        snapshot = server.metrics_snapshot()
        json.dumps(snapshot)
        assert snapshot["server.accepted"] == 1
        assert snapshot["server.completed"] == 1
        assert snapshot["server.request_seconds"]["count"] == 1
        assert snapshot["server.batch_size"] == {
            "count": 1, "sum": 1.0, "mean": 1.0, "max": 1.0,
            "p50": 1.0, "p95": 1.0, "p99": 1.0,
        }
        assert "conditioning_cache" in snapshot and "health" in snapshot
