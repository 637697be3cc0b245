"""Online bound-evaluation benchmark: object kernel vs the vectorized
array-program kernel on stats-CEB batch estimation, and the planner's
lattice batches as the service sees them.

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

* **lattice batches** — the subquery lattice each stats-CEB plan sends
  as one ``estimate_batch``, replayed with the engine's default dispatch
  on warm skeletons and fresh conditioning caches: the median time over
  the repeats, and how many ops the rows' own programs hold
  (``kernel.row_ops``) against the distinct ops the kernels ran once
  value-numbered across the batch (``kernel.ops.*``).

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
from repro.estimators.base import CardinalityEstimator
from repro.obs.metrics import metrics_installed
from repro.optimizer.join_order import Planner
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


def _update_snapshot(fields: dict) -> None:
    """Merge ``fields`` into ``BENCH_eval.json``: each test owns its keys,
    whatever order the tests run in."""
    payload = json.loads(EVAL_SNAPSHOT_PATH.read_text()) if EVAL_SNAPSHOT_PATH.exists() else {}
    payload.update(fields)
    EVAL_SNAPSHOT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _median_batch_seconds(sb, queries) -> tuple[float, list[float]]:
    bounds = sb.estimate_batch(queries)  # warm caches / compile programs
    times = []
    for _ in range(REPETITIONS):
        started = time.perf_counter()
        bounds = sb.estimate_batch(queries)
        times.append(time.perf_counter() - started)
    return float(np.median(times)), bounds


class _LatticeRecorder(CardinalityEstimator):
    """Forwards to ``inner``, keeping every batch the planner sends."""

    def __init__(self, inner) -> None:
        super().__init__()
        self.inner = inner
        self.batches: list[list] = []

    def estimate_batch(self, queries):
        self.batches.append(list(queries))
        return self.inner.estimate_batch(queries)


def _lattice_pass(warm: SafeBound, lattices) -> tuple[float, list]:
    """One replay of every lattice on a fresh estimator (cold conditioning)
    that shares ``warm``'s compiled skeletons."""
    sb = warm.fresh()
    sb.adopt_engine(warm)
    started = time.perf_counter()
    bounds = [sb.estimate_batch(batch) for batch in lattices]
    return time.perf_counter() - started, bounds


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
        _update_snapshot(payload)
    else:
        print(
            f"\n[eval_snapshot] non-default config scale={SCALE}, "
            f"queries={NUM_QUERIES}; not refreshing {EVAL_SNAPSHOT_PATH.name}"
        )


def test_lattice_batches(eval_setup, show):
    workload, array_sb, object_sb = eval_setup
    warm = array_sb.fresh()  # the engine's default dispatch
    recorder = _LatticeRecorder(warm)
    planner = Planner(workload.db, recorder)
    for query in workload.queries:
        planner.plan(query)
    lattices = recorder.batches
    times = [_lattice_pass(warm, lattices)[0] for _ in range(REPETITIONS)]
    with metrics_installed() as registry:
        _, bounds = _lattice_pass(warm, lattices)
    snap = registry.snapshot()
    assert bounds == [object_sb.estimate_batch(batch) for batch in lattices]

    seconds = float(np.median(times))
    subqueries = sum(map(len, lattices))
    row_ops = snap["kernel.row_ops"]
    distinct_ops = sum(v for k, v in snap.items() if k.startswith("kernel.ops."))
    array_frac = snap.get("bound.array_queries", 0) / subqueries
    assert distinct_ops < row_ops
    show(
        f"stats-CEB plan lattices, scale={SCALE}: {len(lattices)} batches, "
        f"{subqueries} subqueries (nproc {len(os.sched_getaffinity(0))})\n"
        f"median {seconds * 1e3:.1f} ms over {REPETITIONS} repeats "
        f"({seconds / len(lattices) * 1e3:.2f} ms/plan); array share {array_frac:.2f}; "
        f"ops {row_ops} per row -> {distinct_ops} distinct "
        f"({row_ops / max(distinct_ops, 1):.2f}x)"
    )
    if DEFAULT_CONFIG:
        lattice = {
            "plans": len(lattices),
            "subqueries": subqueries,
            "repetitions": REPETITIONS,
            "median_seconds": round(seconds, 4),
            "ms_per_plan": round(seconds / len(lattices) * 1e3, 3),
            "array_frac": round(array_frac, 3),
            "row_ops": row_ops,
            "distinct_ops": distinct_ops,
            "nproc": len(os.sched_getaffinity(0)),
        }
        _update_snapshot({"lattice": lattice})
