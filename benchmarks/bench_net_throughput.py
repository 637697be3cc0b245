"""Network serving throughput: queries/sec over the socket tier from
separate client processes.

``bench_service_throughput.py`` measures the micro-batching engine from
in-process threads; this benchmark puts the full serving stack on the
clock — client processes, the JSON wire codec, TCP, the thread-per-
connection front end and admission control.  The gap between the two
benchmarks is the cost of the wire.

The committed snapshot ``BENCH_net.json`` tracks the trajectory across
PRs; like the other snapshots it is only refreshed at the default
configuration.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.core.safebound import SafeBound
from repro.service.net import NetServer, generate_load_net
from repro.service.server import EstimationServer
from repro.workloads import make_stats_ceb

NET_SNAPSHOT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_net.json"

NUM_REQUESTS = int(os.environ.get("REPRO_BENCH_NET_REQUESTS", "600"))
PROCESSES = int(os.environ.get("REPRO_BENCH_NET_PROCESSES", "2"))
CONCURRENCY = int(os.environ.get("REPRO_BENCH_NET_CONCURRENCY", "4"))


@pytest.fixture(scope="module")
def served_workload():
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.2"))
    workload = make_stats_ceb(scale=scale, num_queries=30, seed=5)
    estimator = SafeBound()
    estimator.build(workload.db)
    return workload, estimator


def test_net_throughput(served_workload, show):
    workload, estimator = served_workload
    queries = workload.queries
    direct = [estimator.bound(q) for q in queries]

    with EstimationServer(estimator, max_batch=16, max_queue=4096) as server:
        with NetServer(server) as net:
            report = generate_load_net(
                *net.address,
                queries,
                NUM_REQUESTS,
                processes=PROCESSES,
                concurrency=CONCURRENCY,
            )
    assert report["errors"] == {}
    for i, result in enumerate(report["results"]):
        assert result == direct[i % len(queries)]
    rows = [{
        "nproc": os.cpu_count(),
        "processes": PROCESSES,
        "concurrency": CONCURRENCY,
        "qps": round(report["qps"], 1),
        "rejections": report["rejections"],
    }]

    show(
        f"Network serving throughput: {rows[0]['qps']:.1f} q/s from "
        f"{PROCESSES} client processes x {CONCURRENCY} connections"
    )
    assert rows[0]["qps"] > 0

    config = {
        "scale": float(os.environ.get("REPRO_BENCH_SCALE", "0.2")),
        "requests": NUM_REQUESTS,
        "processes": PROCESSES,
        "concurrency": CONCURRENCY,
    }
    if config == {"scale": 0.2, "requests": 600, "processes": 2, "concurrency": 4}:
        payload = {
            "bench": "net_throughput",
            "unit": "qps",
            "config": config,
            "rows": rows,
        }
        NET_SNAPSHOT_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    else:
        print(
            f"\n[net_snapshot] non-default config {config}; "
            f"not refreshing {NET_SNAPSHOT_PATH.name}"
        )

