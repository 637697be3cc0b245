"""Tests for the observability layer (src/repro/obs/).

Covers the tracer (nesting, thread isolation, exclusive-time identity,
Chrome export), the metrics registry, the explain/trace APIs, the
harness profile hook, and the server integration — snapshot sources,
the structured JSON event log, the periodic metrics dump, and snapshot
stability across a catalog hot swap.
"""

from __future__ import annotations

import io
import json
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from kernel_oracle import array_side

from repro.core.safebound import SafeBound
from repro.db.query import Query
from repro.core.predicates import Eq, Range
from repro.obs import (
    MetricsRegistry,
    Tracer,
    get_metrics,
    get_tracer,
    inc,
    install_metrics,
    install_tracer,
    metrics_installed,
    observe,
    set_gauge,
    span,
    tracing_installed,
    uninstall_metrics,
    uninstall_tracer,
)
from repro.obs.explain import explain_bound, format_explain
from repro.obs.metrics import HISTOGRAM_RATIO
from repro.obs.profile import maybe_profile
from repro.service.server import EstimationServer


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
    for score in range(4):
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


@pytest.fixture(scope="module")
def built(tiny_db):
    sb = SafeBound()
    sb.build(tiny_db)
    return sb


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_span_is_shared_noop(self):
        assert get_tracer() is None
        first = span("anything", attr=1)
        second = span("else")
        assert first is second  # the shared no-op singleton
        with first as s:
            assert s.set(x=1) is s

    def test_install_uninstall(self):
        tracer = Tracer()
        install_tracer(tracer)
        try:
            assert get_tracer() is tracer
            with span("stage"):
                pass
            assert len(tracer.spans) == 1
        finally:
            uninstall_tracer()
        assert get_tracer() is None

    def test_nesting_and_parents(self):
        with tracing_installed() as tracer:
            with span("outer"):
                with span("inner"):
                    pass
                with span("inner"):
                    pass
        by_name = {}
        for record in tracer.spans:
            by_name.setdefault(record.name, []).append(record)
        outer = by_name["outer"][0]
        assert outer.parent_id is None
        assert all(r.parent_id == outer.span_id for r in by_name["inner"])

    def test_exclusive_times_sum_to_root_duration(self):
        with tracing_installed() as tracer:
            with span("root"):
                with span("a"):
                    time.sleep(0.002)
                with span("b"):
                    with span("c"):
                        time.sleep(0.002)
        totals = tracer.stage_totals()
        self_sum = sum(s["self_seconds"] for s in totals.values())
        assert self_sum == pytest.approx(tracer.root_seconds(), rel=1e-6)
        assert totals["root"]["total_seconds"] >= totals["a"]["total_seconds"]

    def test_threads_trace_independently(self):
        with tracing_installed() as tracer:
            def worker():
                with span("thread-root"):
                    with span("thread-child"):
                        pass

            with span("main-root"):
                t = threading.Thread(target=worker)
                t.start()
                t.join()
        roots = [r for r in tracer.spans if r.parent_id is None]
        # The thread's root must not have been parented under main-root.
        assert sorted(r.name for r in roots) == ["main-root", "thread-root"]

    def test_attrs_set_inside_block(self):
        with tracing_installed() as tracer:
            with span("stage", static=1) as s:
                s.set(computed=42)
        assert tracer.spans[0].attrs == {"static": 1, "computed": 42}

    def test_chrome_trace_format(self, tmp_path):
        with tracing_installed() as tracer:
            with span("outer", items=3):
                with span("inner"):
                    pass
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert event["pid"] == os.getpid()
        outer = next(e for e in events if e["name"] == "outer")
        assert outer["args"] == {"items": 3}

    def test_tracing_installed_restores_previous(self):
        outer_tracer = Tracer()
        install_tracer(outer_tracer)
        try:
            with tracing_installed() as inner:
                assert get_tracer() is inner
            assert get_tracer() is outer_tracer
        finally:
            uninstall_tracer()

    def test_clear(self):
        with tracing_installed() as tracer:
            with span("x"):
                pass
            tracer.clear()
            assert tracer.spans == []


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_module_helpers_noop_when_uninstalled(self):
        assert get_metrics() is None
        inc("a")
        observe("b", 0.5)
        set_gauge("c", 1.0)  # must not raise

    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("requests")
        registry.inc("requests", 4)
        registry.set_gauge("depth", 7.0)
        registry.set_gauge("depth", 3.0)
        for value in (0.001, 0.002, 0.004, 0.008):
            registry.observe("latency", value)
        snap = registry.snapshot()
        assert snap["requests"] == 5
        assert snap["depth"] == 3.0
        hist = snap["latency"]
        assert hist["count"] == 4
        assert hist["sum"] == pytest.approx(0.015)
        assert hist["max"] == pytest.approx(0.008)
        assert 0.001 <= hist["p50"] <= 0.008
        assert hist["p99"] <= hist["max"]

    def test_installed_helpers_feed_registry(self):
        with metrics_installed() as registry:
            inc("hits", 2)
            observe("seconds", 0.5)
            set_gauge("fill", 0.25)
        snap = registry.snapshot()
        assert snap["hits"] == 2 and snap["fill"] == 0.25
        assert snap["seconds"]["count"] == 1
        assert registry.update_ops == 3

    def test_metrics_installed_restores_previous(self):
        outer = MetricsRegistry()
        install_metrics(outer)
        try:
            with metrics_installed() as innermost:
                assert get_metrics() is innermost
            assert get_metrics() is outer
        finally:
            uninstall_metrics()

    def test_concurrent_updates_from_threads(self):
        """8 threads x 1000 inc/observe pairs lose no update."""
        registry = MetricsRegistry()
        barrier = threading.Barrier(8)

        def hammer(worker):
            barrier.wait()
            for _ in range(1000):
                registry.inc("n")
                registry.observe("lat", (worker + 1) * 1e-3)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-update as often as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        snap = registry.snapshot()
        assert snap["n"] == registry.value("n") == 8000
        assert snap["lat"]["count"] == 8000
        assert snap["lat"]["sum"] == pytest.approx(1000 * sum(range(1, 9)) * 1e-3)
        assert snap["lat"]["max"] == 8e-3
        assert registry.update_ops == 16000

    @given(st.lists(st.floats(min_value=-6.0, max_value=2.0), min_size=1, max_size=400))
    def test_histogram_quantiles_within_bucket_ratio(self, exponents):
        """For samples log-uniform in [1 us, 100 s], each reported
        quantile lies between the exact inverted-CDF quantile and that
        quantile times HISTOGRAM_RATIO; count, sum and max are exact."""
        samples = [10.0 ** e for e in exponents]
        registry = MetricsRegistry()
        total = 0.0
        for value in samples:
            registry.observe("lat", value)
            total += value
        hist = registry.snapshot()["lat"]
        assert hist["count"] == len(samples)
        assert hist["sum"] == total
        assert hist["max"] == max(samples)
        assert HISTOGRAM_RATIO <= 1.1
        for q in (0.50, 0.95, 0.99):
            exact = float(np.quantile(samples, q, method="inverted_cdf"))
            reported = hist[f"p{int(q * 100)}"]
            # The slack covers the rounding of the bucket bounds only.
            assert exact <= reported <= exact * HISTOGRAM_RATIO * (1 + 1e-12)

    def test_histogram_outside_bucket_range(self):
        registry = MetricsRegistry()
        registry.observe("tiny", 1e-9)
        registry.observe("huge", 5e4)
        snap = registry.snapshot()
        assert snap["tiny"]["p50"] == 1e-9  # capped by the exact max
        assert snap["huge"]["p99"] == 5e4   # above the top bound: the max


# ----------------------------------------------------------------------
# Instrumented pipeline + explain
# ----------------------------------------------------------------------
class TestInstrumentedPipeline:
    def test_bound_batch_emits_spans_and_counters(self, built):
        queries = _queries()
        with tracing_installed() as tracer, metrics_installed() as registry:
            bounds = built.bound_batch(queries)
        assert all(np.isfinite(b) or b == float("inf") for b in bounds)
        names = {r.name for r in tracer.spans}
        assert "bound.batch" in names
        assert "conditioning.prepare" in names
        snap = registry.snapshot()
        assert snap["bound.queries"] == len(queries)
        assert snap.get("conditioning.lookups", 0) > 0

    def test_instrumentation_does_not_change_bounds(self, built):
        queries = _queries()
        baseline = built.bound_batch(queries)
        with tracing_installed(), metrics_installed():
            traced = built.bound_batch(queries)
        assert traced == baseline

    def test_array_path_kernel_counters(self, tiny_db):
        sb = array_side(SafeBound())  # the array path for any batch size
        sb.build(tiny_db)
        with metrics_installed() as registry:
            sb.bound_batch(_queries())
        snap = registry.snapshot()
        kernel_ops = {k: v for k, v in snap.items() if k.startswith("kernel.ops.")}
        assert kernel_ops and sum(kernel_ops.values()) > 0
        assert snap["bound.array_queries"] > 0

    def test_explain_stage_sum_close_to_elapsed(self, built):
        query = _queries()[0]
        report = explain_bound(built, query, runs=2)
        assert report["bound"] == pytest.approx(built.bound(query))
        # The acceptance criterion: the breakdown's stage-time sum must be
        # within 10% of the measured end-to-end bound latency.
        assert report["stage_seconds"] == pytest.approx(
            report["elapsed_seconds"], rel=0.10
        )
        assert report["stages"]  # nonempty breakdown
        cache = report["cache_path"]
        assert cache["lookups"] >= cache["computed"]

    def test_explain_reports_plan_bounds(self, built):
        query = _queries()[-1]
        report = explain_bound(built, query)
        plans = report["plan_bounds"]
        assert plans, "expected at least one spanning-tree plan"
        best = min(p["bound"] for p in plans)
        assert best == pytest.approx(report["bound"])
        assert any(p["is_min"] for p in plans)

    def test_format_explain_renders(self, built):
        report = explain_bound(built, _queries()[0])
        text = format_explain(report)
        assert "bound:" in text and "stage" in text
        assert "conditioning cache path" in text

    def test_maybe_profile_writes_artifacts(self, built, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        with maybe_profile("unit test/tag"):
            built.bound(_queries()[0])
        trace = tmp_path / "unit-test-tag.trace.json"
        metrics = tmp_path / "unit-test-tag.metrics.json"
        assert trace.exists() and metrics.exists()
        doc = json.loads(metrics.read_text())
        assert doc["root_seconds"] > 0
        assert doc["stage_totals"]

    def test_maybe_profile_noop_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_DIR", raising=False)
        with maybe_profile("tag") as tracer:
            assert tracer is None
        assert get_tracer() is None


# ----------------------------------------------------------------------
# Server integration
# ----------------------------------------------------------------------
class TestServerObservability:
    def test_single_process_snapshot_sources(self, built):
        with metrics_installed() as registry:
            with EstimationServer(built, max_batch=8) as server:
                for q in _queries()[:4]:
                    server.bound(q)
            snap = server.metrics_snapshot()
        # One flat dict: the server's own metrics beside the installed
        # registry's engine counters, which carry no server.* writes.
        assert snap["server.completed"] == 4
        assert snap["server.request_seconds"]["count"] == 4
        assert snap["conditioning.lookups"] > 0
        assert "conditioning_cache" in snap and "health" in snap
        assert "observability" not in snap
        assert not any(name.startswith("server.") for name in registry.snapshot())

    def test_json_log_records_failures(self, tiny_db):
        class Failing:
            def estimate_batch(self, queries):
                raise RuntimeError("boom")

        log = io.StringIO()
        with EstimationServer(Failing(), json_log=log) as server:
            future = server.submit(_queries()[0])
            with pytest.raises(RuntimeError):
                future.result(10.0)
        lines = [json.loads(l) for l in log.getvalue().splitlines()]
        events = [l["event"] for l in lines]
        assert "batch_failed" in events
        failed = next(l for l in lines if l["event"] == "batch_failed")
        assert failed["error_type"] == "RuntimeError"
        assert failed["size"] == 1
        assert failed["ts"] > 0

    def test_json_log_records_rejections(self, built):
        log = io.StringIO()
        server = EstimationServer(built, max_queue=1, json_log=log)
        server._accepting = True  # admission without a running worker
        try:
            server.submit(_queries()[0])
            with pytest.raises(Exception):
                server.submit(_queries()[1])
        finally:
            server._accepting = False
            server._queue.clear()  # drain so nothing lingers
        lines = [json.loads(l) for l in log.getvalue().splitlines()]
        assert any(l["event"] == "rejected" for l in lines)

    def test_metrics_json_dump(self, built, tmp_path):
        path = tmp_path / "metrics.json"
        server = EstimationServer(
            built, metrics_json_path=str(path), metrics_json_interval=0.05
        )
        with server:
            for q in _queries()[:3]:
                server.bound(q)
            deadline = time.monotonic() + 5.0
            while not path.exists() and time.monotonic() < deadline:
                time.sleep(0.02)
        assert path.exists()
        doc = json.loads(path.read_text())
        assert doc["server.completed"] >= 0 and "health" in doc

    def test_snapshot_stable_across_hot_swap(self, built):
        """A hot statistics swap mid-run must not corrupt snapshots: the
        conditioning source keeps working against the swapped estimator
        and every snapshot stays JSON-serialisable."""

        class Swappable:
            def __init__(self, inner):
                self.inner = inner
                self.swap_next = False
                self.swaps = 0

            def refresh(self):
                if self.swap_next:
                    self.swap_next = False
                    self.swaps += 1
                    # Simulate a catalog swap: bump the epoch + clear caches
                    # exactly like CatalogBackedSafeBound.refresh does.
                    self.inner._invalidate_conditioning()
                    return True
                return False

            def estimate_batch(self, queries):
                return self.inner.estimate_batch(queries)

            def conditioning_cache_stats(self):
                return self.inner.conditioning_cache_stats()

        swappable = Swappable(built)
        queries = _queries()
        with EstimationServer(swappable, refresh_seconds=0.0) as server:
            before = server.metrics_snapshot()
            server.bound(queries[0])
            swappable.swap_next = True
            server.bound(queries[1])
            server.bound(queries[2])
            after = server.metrics_snapshot()
        assert swappable.swaps == 1
        assert server.metrics.value("server.swaps") == 1
        for snap in (before, after):
            json.dumps(snap)  # fully serialisable
            assert "conditioning_cache" in snap
        assert after["server.completed"] == 3
        # Counters are monotone across the swap.
        assert after["server.accepted"] >= before["server.accepted"]
