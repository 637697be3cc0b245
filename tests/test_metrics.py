"""Tests for serving-side metrics (an ``EstimationServer``'s own
``MetricsRegistry``) and the ``python -m repro.service`` CLI entry point —
argument handling, exit codes, and the shape of the JSON report."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.metrics import metrics_installed
from repro.service.__main__ import build_demo_database, demo_queries, main
from repro.service.server import EstimationServer


class _ScriptedEstimator:
    """Instant stub: 1.0 per query, or raises while ``fail`` is set."""

    def __init__(self) -> None:
        self.fail = False

    def estimate_batch(self, queries):
        if self.fail:
            raise ValueError("boom")
        return [1.0] * len(queries)


class TestLatencyRecorder:
    """The server's latency histograms (``server.*_seconds``)."""

    def test_concurrent_recording(self):
        server = EstimationServer(_ScriptedEstimator())

        def hammer():
            for _ in range(500):
                server.metrics.observe("server.request_seconds", 0.002)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not any(t.is_alive() for t in threads)
        summary = server.metrics_snapshot()["server.request_seconds"]
        assert summary["count"] == 2000
        assert summary["sum"] == pytest.approx(4.0)
        assert summary["max"] == summary["p50"] == summary["p99"] == 0.002


class TestServerMetrics:
    """The server's counters and its ``server.batch_size`` histogram."""

    def test_counters_accumulate(self):
        stub = _ScriptedEstimator()
        queries = demo_queries()
        with EstimationServer(stub, max_batch=5) as server:
            # Each frame of <= max_batch queries is served as one batch.
            for frame in (queries[:3], queries[:5]):
                for future in server.submit_many(frame):
                    assert future.result(timeout=5.0) == 1.0
            stub.fail = True
            with pytest.raises(ValueError, match="boom"):
                server.bound(queries[0], timeout=5.0)
        # Stopped: the worker has finished every counter update.
        snap = server.metrics_snapshot()
        assert snap["server.accepted"] == 9
        assert snap["server.completed"] == 8
        assert snap["server.failed"] == 1
        assert snap["server.rejected"] == server.metrics.rejected == 0
        assert snap["server.swaps"] == 0
        batch_size = snap["server.batch_size"]
        assert batch_size["count"] == 3
        assert batch_size["sum"] == 9
        assert batch_size["max"] == 5
        assert batch_size["mean"] == pytest.approx(3.0)
        assert snap["server.batch_seconds"]["count"] == 2  # the failed batch is not timed
        assert snap["server.queue_seconds"]["count"] == 9
        assert snap["server.request_seconds"]["count"] == 8

    def test_mean_batch_size_with_no_batches(self):
        """No batch served: no batch-size histogram (and so no mean), in
        the registry's snapshot and the server's merged one alike."""
        server = EstimationServer(_ScriptedEstimator())
        server.start()
        server.stop()
        for snap in (server.metrics.snapshot(), server.metrics_snapshot()):
            assert "server.batch_size" not in snap
            assert "server.batch_seconds" not in snap
            assert snap["server.completed"] == 0

    def test_snapshot_is_json_serialisable(self):
        """The merged snapshot (installed registry + server registry +
        health) round-trips through strict JSON unchanged."""
        with metrics_installed() as installed:
            installed.inc("kernel.calls", 3)
            installed.observe("kernel.seconds", 0.25)
            with EstimationServer(_ScriptedEstimator()) as server:
                server.bound(demo_queries()[0], timeout=5.0)
            snapshot = server.metrics_snapshot()
        decoded = json.loads(json.dumps(snapshot, allow_nan=False))
        assert decoded == snapshot
        assert decoded["kernel.calls"] == 3
        assert decoded["kernel.seconds"]["count"] == 1
        assert decoded["server.request_seconds"]["count"] == 1
        assert decoded["server.batch_size"]["sum"] == 1
        assert "health" in decoded


class TestServiceCli:
    def test_demo_database_shape(self):
        db = build_demo_database(n_movies=50, n_ratings=400, seed=1)
        assert db.table("movies").num_rows == 50
        assert db.table("ratings").num_rows == 400
        assert db.schema.foreign_keys[0].ref_table == "movies"
        assert all(q.relations for q in demo_queries())

    def test_bad_argument_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--requests", "not-a-number"])
        assert excinfo.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_unknown_flag_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--frobnicate"])
        assert excinfo.value.code == 2

    def test_smoke_run_emits_json_report(self, capsys, tmp_path):
        code = main(
            [
                "--requests", "40",
                "--concurrency", "4",
                "--batch", "8",
                "--updates", "1",
                "--catalog", str(tmp_path / "catalog"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["completed"] == 40
        assert report["served_version"] >= 1
        assert report["catalog_versions"][0] == "v000001"
        assert report["ingest"]["inserted_rows"] == 2000
        assert report["ingest"]["deleted_rows"] == 500
        assert "p99" in report["metrics"]["server.request_seconds"]
        # The catalog directory was really populated on disk.
        assert (tmp_path / "catalog" / "demo" / "MANIFEST.json").exists()
