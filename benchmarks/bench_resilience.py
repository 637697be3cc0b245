"""Resilience benchmark: what the self-healing stack costs and delivers.

Two numbers, each with a floor asserted on every run:

* **disabled fault sites** — per-call cost of :func:`faults.fire` /
  :func:`faults.corrupt` with no plan installed.  The serving hot paths
  keep their sites compiled in, so this must stay at the one-global-load
  + ``None``-check price (same budget as the obs layer).
* **retry-under-overload goodput** — a two-slot admission queue hammered
  by eight client threads; every request must complete inside its retry
  budget (overload surfaces as retries and latency, never as lost
  requests).

``BENCH_resilience.json`` tracks the trajectory across PRs; the snapshot
is only refreshed at the default configuration.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time

import numpy as np

from repro.core.predicates import Eq, Range
from repro.core.safebound import SafeBoundConfig
from repro.db.database import Database
from repro.db.query import Query
from repro.db.schema import Schema
from repro.db.table import Table
from repro.service import faults
from repro.service.catalog import CatalogBackedSafeBound, StatsCatalog
from repro.service.net import NetClient, NetServer, RetryPolicy
from repro.service.server import EstimationServer

RESILIENCE_SNAPSHOT_PATH = (
    pathlib.Path(__file__).resolve().parent / "BENCH_resilience.json"
)

NUM_REQUESTS = int(os.environ.get("REPRO_BENCH_RES_REQUESTS", "300"))
DEFAULT_CONFIG = NUM_REQUESTS == 300
MICRO_CALLS = 200_000
REPETITIONS = 5

# Floor: generous enough for a loaded CI box, tight enough to catch a
# fault-site regression (e.g. someone adding work to the disabled path).
DISABLED_SITE_NS_FLOOR = 2_000.0  # per call


def _median_seconds(fn) -> float:
    fn()  # warm-up
    times = []
    for _ in range(REPETITIONS):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return float(np.median(times))


def _make_db(seed: int = 11, n_dim: int = 120, n_fact: int = 1500) -> Database:
    rng = np.random.default_rng(seed)
    schema = Schema()
    schema.add_table("dim", primary_key="id", filter_columns=["year"])
    schema.add_table("fact", join_columns=["dim_id"], filter_columns=["score"])
    schema.add_foreign_key("fact", "dim_id", "dim", "id")
    db = Database(schema)
    db.add_table(Table("dim", {
        "id": np.arange(n_dim),
        "year": rng.integers(1950, 2020, n_dim),
    }))
    db.add_table(Table("fact", {
        "id": np.arange(n_fact),
        "dim_id": (rng.zipf(1.5, n_fact) - 1) % n_dim,
        "score": rng.integers(0, 30, n_fact),
    }))
    return db


def _queries() -> list[Query]:
    def star() -> Query:
        return (
            Query()
            .add_relation("f", "fact")
            .add_relation("d", "dim")
            .add_join("f", "dim_id", "d", "id")
        )

    return [
        star(),
        star().add_predicate("d", Range("year", low=1980, high=1999)),
        star().add_predicate("f", Eq("score", 3)),
    ]


def _disabled_site_ns() -> tuple[float, float]:
    assert faults.get_faults() is None

    def run_fire():
        for _ in range(MICRO_CALLS):
            faults.fire("bench.site")

    identity = lambda v: v  # noqa: E731

    def run_corrupt():
        for _ in range(MICRO_CALLS):
            faults.corrupt("bench.site", 1.0, identity)

    fire_ns = _median_seconds(run_fire) / MICRO_CALLS * 1e9
    corrupt_ns = _median_seconds(run_corrupt) / MICRO_CALLS * 1e9
    return fire_ns, corrupt_ns


def test_resilience(tmp_path_factory, show):
    root = tmp_path_factory.mktemp("bench-resilience")
    db = _make_db()
    catalog = StatsCatalog(root)
    estimator = CatalogBackedSafeBound(
        catalog, "live", SafeBoundConfig(track_updates=True)
    )
    estimator.build(db)
    queries = _queries()

    # ------------------------------------------------------------------
    # Disabled fault sites: the zero-overhead claim, priced.
    # ------------------------------------------------------------------
    fire_ns, corrupt_ns = _disabled_site_ns()
    assert fire_ns < DISABLED_SITE_NS_FLOOR, (
        f"disabled faults.fire costs {fire_ns:.0f} ns/call"
    )
    assert corrupt_ns < DISABLED_SITE_NS_FLOOR, (
        f"disabled faults.corrupt costs {corrupt_ns:.0f} ns/call"
    )

    # ------------------------------------------------------------------
    # Retry under overload: queue of 2, eight threads, zero lost requests.
    # ------------------------------------------------------------------
    overload = EstimationServer(estimator, max_queue=2, max_batch=2)
    n_threads, per_thread = 8, max(10, NUM_REQUESTS // 10)
    completed = [0] * n_threads
    retries = [0] * n_threads
    errors: list[Exception] = []
    with overload, NetServer(overload) as net:
        def run_client(tid: int) -> None:
            policy = RetryPolicy(deadline_seconds=60.0, max_attempts=50, seed=tid)
            try:
                with NetClient(*net.address, timeout=10.0, retry=policy) as client:
                    for i in range(per_thread):
                        client.bound(queries[(tid + i) % len(queries)])
                        completed[tid] += 1
                    retries[tid] = client.retries
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=run_client, args=(t,))
            for t in range(n_threads)
        ]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
        overload_elapsed = time.perf_counter() - started
    assert not errors, errors[:3]
    total = n_threads * per_thread
    assert sum(completed) == total, (completed, total)
    goodput_qps = total / overload_elapsed

    lines = [
        f"resilience, {NUM_REQUESTS} requests ({os.cpu_count()} cpu)",
        f"  disabled fault site: fire {fire_ns:.0f} ns, "
        f"corrupt {corrupt_ns:.0f} ns "
        f"(floor {DISABLED_SITE_NS_FLOOR:.0f} ns)",
        f"  overload goodput: {goodput_qps:.0f} q/s, "
        f"{total}/{total} completed, {sum(retries)} retries",
    ]
    show("\n".join(lines))

    if DEFAULT_CONFIG:
        payload = {
            "bench": "resilience",
            "num_requests": NUM_REQUESTS,
            "cpus": os.cpu_count(),
            "disabled_fire_ns": round(fire_ns, 1),
            "disabled_corrupt_ns": round(corrupt_ns, 1),
            "overload_goodput_qps": round(goodput_qps, 1),
            "overload_retries": sum(retries),
            "floors": {"disabled_site_ns": DISABLED_SITE_NS_FLOOR},
        }
        RESILIENCE_SNAPSHOT_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    else:
        print(
            f"\n[resilience_snapshot] non-default config "
            f"requests={NUM_REQUESTS}; not refreshing "
            f"{RESILIENCE_SNAPSHOT_PATH.name}"
        )
