"""Service throughput: queries/sec and tail latency vs micro-batch size.

Runs the estimation server over the STATS-CEB workload at several
``max_batch`` settings with a fixed concurrent load, recording throughput
and p50/p99 request latency.  Latencies are the server's
``server.request_seconds`` histogram, whose quantiles read at most
``HISTOGRAM_RATIO`` (~9%) above the exact ones.  Batch size 1 degenerates to one-query-at-a-
time serving — the headroom above it is what skeleton-grouped
``estimate_batch`` buys at the serving layer.

The committed snapshot ``BENCH_service.json`` tracks the trajectory
across PRs; like the planning snapshot it is only refreshed at the
default configuration.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.core.safebound import SafeBound
from repro.service.server import EstimationServer, generate_load
from repro.workloads import make_stats_ceb

SERVICE_SNAPSHOT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_service.json"

BATCH_SIZES = (1, 4, 16, 64)
NUM_REQUESTS = int(os.environ.get("REPRO_BENCH_SERVICE_REQUESTS", "600"))
CONCURRENCY = int(os.environ.get("REPRO_BENCH_SERVICE_CONCURRENCY", "16"))


@pytest.fixture(scope="module")
def served_workload():
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.2"))
    workload = make_stats_ceb(scale=scale, num_queries=30, seed=5)
    estimator = SafeBound()
    estimator.build(workload.db)
    return workload, estimator


def test_service_throughput_vs_batch_size(served_workload, show):
    workload, estimator = served_workload
    queries = workload.queries
    direct = [estimator.bound(q) for q in queries]

    rows = []
    for max_batch in BATCH_SIZES:
        with EstimationServer(estimator, max_batch=max_batch, max_queue=4096) as server:
            report = generate_load(
                [server.bound] * CONCURRENCY, queries, num_requests=NUM_REQUESTS
            )
        for i, result in enumerate(report["results"]):
            assert result == direct[i % len(queries)]
        metrics = server.metrics_snapshot()
        latency = metrics["server.request_seconds"]
        rows.append({
            "max_batch": max_batch,
            "nproc": os.cpu_count(),
            "qps": round(report["qps"], 1),
            "batch_size_mean": round(metrics["server.batch_size"]["mean"], 2),
            "p50_ms": round(latency["p50"] * 1000.0, 3),
            "p99_ms": round(latency["p99"] * 1000.0, 3),
        })

    lines = [f"{'batch':>6} {'q/s':>9} {'mean batch':>11} {'p50 ms':>8} {'p99 ms':>8}"]
    for row in rows:
        lines.append(
            f"{row['max_batch']:>6} {row['qps']:>9.1f} "
            f"{row['batch_size_mean']:>11.2f} "
            f"{row['p50_ms']:>8.3f} {row['p99_ms']:>8.3f}"
        )
    show("Service throughput vs batch size\n" + "\n".join(lines))

    # Micro-batching must beat one-at-a-time serving under concurrency.
    unbatched = next(r for r in rows if r["max_batch"] == 1)
    batched = max(rows, key=lambda r: r["qps"])
    assert batched["qps"] >= unbatched["qps"]

    config = {
        "scale": float(os.environ.get("REPRO_BENCH_SCALE", "0.2")),
        "requests": NUM_REQUESTS,
        "concurrency": CONCURRENCY,
    }
    if config == {"scale": 0.2, "requests": 600, "concurrency": 16}:
        payload = {
            "bench": "service_throughput",
            "unit": "qps / ms",
            "config": config,
            "rows": rows,
        }
        SERVICE_SNAPSHOT_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    else:
        print(
            f"\n[service_snapshot] non-default config {config}; "
            f"not refreshing {SERVICE_SNAPSHOT_PATH.name}"
        )
