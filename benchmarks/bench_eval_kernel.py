"""Online bound-evaluation benchmark: object kernel vs the vectorized
array-program kernel on stats-CEB batch estimation.

``FdsbEngine`` picks a kernel by batch size; each side is pinned here
through the engine's thresholds (0 for the array kernels, ``math.inf`` —
a size no batch reaches — for the object path).

Two things are measured and snapshotted into ``BENCH_eval.json``:

* **bit-identity** — the array kernel's bounds must equal the object
  kernel's exactly (the tentpole guarantee, asserted unconditionally and
  locked down further by tests/test_array_kernel.py), and the object side
  must run no batched kernel;
* **batch-estimation speedup** — at the default configuration the array
  kernel's median warm ``estimate_batch`` wall-clock must be at least 3x
  faster.  The speedup comes from lowering the per-object piecewise
  recursion into segmented numpy kernels shared across every query and
  spanning-tree plan of the batch (plus cross-plan common-subexpression
  elimination, which the object path cannot express).

``REPRO_BENCH_EVAL_SCALE`` scales the dataset (default 0.2) and
``REPRO_BENCH_EVAL_QUERIES`` the batch size (default 120); the committed
snapshot is only refreshed at the default configuration.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import time

import numpy as np
import pytest

from repro.core.safebound import SafeBound
from repro.obs.metrics import metrics_installed
from repro.workloads import make_stats_ceb

EVAL_SNAPSHOT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_eval.json"

SCALE = float(os.environ.get("REPRO_BENCH_EVAL_SCALE", "0.2"))
NUM_QUERIES = int(os.environ.get("REPRO_BENCH_EVAL_QUERIES", "120"))
DEFAULT_CONFIG = SCALE == 0.2 and NUM_QUERIES == 120
SPEEDUP_FLOOR = 3.0
REPETITIONS = 7


@pytest.fixture(scope="module")
def eval_setup():
    workload = make_stats_ceb(scale=SCALE, num_queries=NUM_QUERIES, seed=5)
    array_sb = SafeBound()
    array_sb.build(workload.db)
    object_sb = SafeBound()
    object_sb.stats = array_sb.stats  # shared statistics, different kernel
    for sb, threshold in ((array_sb, 0), (object_sb, math.inf)):
        sb._engine.array_min_work = threshold
        sb._engine.array_min_condition = threshold
    return workload, array_sb, object_sb


def _median_batch_seconds(sb, queries) -> tuple[float, list[float]]:
    bounds = sb.estimate_batch(queries)  # warm caches / compile programs
    times = []
    for _ in range(REPETITIONS):
        started = time.perf_counter()
        bounds = sb.estimate_batch(queries)
        times.append(time.perf_counter() - started)
    return float(np.median(times)), bounds


def test_eval_kernel_speedup_and_identity(eval_setup, show):
    workload, array_sb, object_sb = eval_setup
    queries = workload.queries

    with metrics_installed() as registry:
        object_seconds, object_bounds = _median_batch_seconds(object_sb, queries)
    snap = registry.snapshot()
    for counter in ("bound.array_queries", "conditioning.batched_pairs", "conditioning.truncations"):
        assert snap.get(counter, 0) == 0, f"object side ran a batched kernel: {counter}"
    array_seconds, array_bounds = _median_batch_seconds(array_sb, queries)

    assert array_bounds == object_bounds, "array kernel diverged from object kernel"
    speedup = object_seconds / array_seconds

    per_q_obj = object_seconds / len(queries) * 1e3
    per_q_arr = array_seconds / len(queries) * 1e3
    show(
        f"stats-CEB batch estimation, scale={SCALE}, {len(queries)} queries "
        f"(nproc {len(os.sched_getaffinity(0))})\n"
        f"{'kernel':>8} {'batch_ms':>10} {'ms/query':>10} {'speedup':>8}\n"
        f"{'object':>8} {object_seconds * 1e3:>10.1f} {per_q_obj:>10.3f} {'1.00x':>8}\n"
        f"{'array':>8} {array_seconds * 1e3:>10.1f} {per_q_arr:>10.3f} "
        f"{speedup:>7.2f}x"
    )

    if DEFAULT_CONFIG:
        assert speedup >= SPEEDUP_FLOOR, (
            f"array-kernel speedup {speedup:.2f}x under the {SPEEDUP_FLOOR}x "
            f"floor (object {object_seconds * 1e3:.1f}ms, "
            f"array {array_seconds * 1e3:.1f}ms)"
        )
        payload = {
            "bench": "eval_kernel",
            "workload": f"stats-ceb(scale={SCALE})",
            "num_queries": len(queries),
            "nproc": len(os.sched_getaffinity(0)),
            "repetitions": REPETITIONS,
            "identical": True,
            "object_batch_seconds": round(object_seconds, 4),
            "array_batch_seconds": round(array_seconds, 4),
            "speedup": round(speedup, 3),
        }
        EVAL_SNAPSHOT_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    else:
        print(
            f"\n[eval_snapshot] non-default config scale={SCALE}, "
            f"queries={NUM_QUERIES}; not refreshing {EVAL_SNAPSHOT_PATH.name}"
        )
