"""Parallel statistics-build benchmark on the scalability dataset (Fig 10's
TPC-H generator): serial reference build vs the sharded thread-pool
pipeline at several worker counts.

Two things are measured and snapshotted into ``BENCH_build.json``:

* **bit-identity** — every parallel configuration must produce statistics
  whose serialized digest equals the serial build's (the tentpole
  guarantee, asserted unconditionally);
* **build-time speedup** — at the default configuration every row must
  reach a floor that grows with the cores its pool can use,
  ``min(nproc, workers)``: each usable core beyond the first must add at
  least ``PER_CORE_GAIN`` of a serial build's throughput.  The committed
  rows at sf 0.2 on 2 CPUs gave 0.62 (2 threads, 1.62x) and 0.39
  (4 threads, 1.39x) per extra core; 0.25 leaves room for timing noise
  on a shared machine.  A pool that serialises its tasks (speedup <= 1.0)
  misses the floor wherever two cores are usable; with one usable core
  there is no parallel gain to ask for, so no floor is asserted.  The
  serial build shares per-filter-column work across join columns and
  extracts 3-grams per *distinct* string, as the parallel pipeline does,
  so the speedup is what multi-core parallelism across shard-extraction
  and per-join-column finalize tasks adds.  The snapshot records
  ``nproc`` and is written before the floor is asserted, so a run under
  the floor still records what it measured.

``REPRO_BENCH_BUILD_SF`` scales the dataset (default 0.2); the committed
snapshot is only refreshed, and the floor only asserted, at the default
configuration.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.core.serialization import stats_digest
from repro.core.stats_builder import build_statistics
from repro.workloads import make_tpch_db

BUILD_SNAPSHOT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_build.json"

SCALE_FACTOR = float(os.environ.get("REPRO_BENCH_BUILD_SF", "0.2"))
DEFAULT_CONFIG = SCALE_FACTOR == 0.2
WORKER_COUNTS = [2, 4]
PER_CORE_GAIN = 0.25
# The CPUs this process may run on (what ``nproc`` prints), which can be
# fewer than os.cpu_count() under an affinity mask.
NPROC = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
)


def speedup_floor(workers: int) -> float:
    return 1.0 + PER_CORE_GAIN * (min(NPROC, workers) - 1)


@pytest.fixture(scope="module")
def scalability_db():
    return make_tpch_db(scale_factor=SCALE_FACTOR)


def _timed_build(db, **kwargs):
    started = time.perf_counter()
    stats = build_statistics(db, **kwargs)
    return stats, time.perf_counter() - started


def test_parallel_build_speedup_and_identity(scalability_db, show):
    db = scalability_db
    serial, serial_seconds = _timed_build(db)
    serial_digest = stats_digest(serial)

    rows = []
    for workers in WORKER_COUNTS:
        parallel, seconds = _timed_build(db, num_workers=workers)
        identical = stats_digest(parallel) == serial_digest
        assert identical, f"parallel build ({workers} workers) diverged"
        floor = speedup_floor(workers)
        # Timing noise guard: re-measure once under the floor and keep the
        # better run.
        if DEFAULT_CONFIG and serial_seconds / seconds < floor:
            _, retry = _timed_build(db, num_workers=workers)
            seconds = min(seconds, retry)
        rows.append(
            {
                "workers": workers,
                "seconds": round(seconds, 3),
                "speedup": round(serial_seconds / seconds, 3),
                "speedup_floor": floor,
                "identical": identical,
            }
        )

    lines = [f"{'workers':>8} {'seconds':>9} {'speedup':>8} {'floor':>7}"]
    lines.append(f"{'serial':>8} {serial_seconds:>9.2f} {'1.00x':>8} {'-':>7}")
    for row in rows:
        lines.append(
            f"{row['workers']:>8} {row['seconds']:>9.2f} "
            f"{row['speedup']:>7.2f}x {row['speedup_floor']:>6.2f}x"
        )
    show(
        f"Parallel statistics build, TPC-H sf={SCALE_FACTOR} "
        f"({db.total_rows()} rows, nproc {NPROC})\n" + "\n".join(lines)
    )

    if DEFAULT_CONFIG:
        payload = {
            "bench": "build_parallel",
            "dataset": f"tpch(sf={SCALE_FACTOR})",
            "total_rows": db.total_rows(),
            "cpus": os.cpu_count(),
            "nproc": NPROC,
            "per_core_gain": PER_CORE_GAIN,
            "serial_seconds": round(serial_seconds, 3),
            "stats_digest": serial_digest,
            "rows": rows,
        }
        BUILD_SNAPSHOT_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        for row in rows:
            if min(NPROC, row["workers"]) < 2:
                continue
            assert row["speedup"] >= row["speedup_floor"], (
                f"{row['workers']}-worker build speedup {row['speedup']}x under "
                f"the {row['speedup_floor']}x floor (serial {serial_seconds:.2f}s, "
                f"nproc {NPROC})"
            )
    else:
        print(
            f"\n[build_snapshot] non-default scale {SCALE_FACTOR}; "
            f"not refreshing {BUILD_SNAPSHOT_PATH.name}"
        )
