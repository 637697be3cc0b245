"""Stats load latency and loaded footprint: v1 vs arena.

* **load latency** — ``load_stats`` of the same statistics store saved as
  a v1 ``.npz`` archive (decompress + rebuild the object graph) and as a
  zero-copy arena (mmap + manifest parse, relations materialise lazily).
  Target >= 10x at the default configuration; a 3x floor is asserted at
  every scale (CI smoke included) so a load-path regression cannot slip
  through a scaled-down run.
* **loaded footprint** — the private-heap growth of loading the v1
  store in a fresh process (recorded, no floor).

The committed snapshot ``BENCH_load.json`` tracks both across PRs; it is
only refreshed at the default configuration.  Scaled-down runs (CI smoke)
still assert bit-identity of bounds across formats.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import time

import numpy as np
import pytest

from repro.core.safebound import SafeBound
from repro.core.serialization import load_stats, save_stats
from repro.workloads import make_stats_ceb, make_tpch

LOAD_SNAPSHOT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_load.json"

SCALE = float(os.environ.get("REPRO_BENCH_LOAD_SCALE", "0.2"))
REPEATS = int(os.environ.get("REPRO_BENCH_LOAD_REPEATS", "7"))
AT_DEFAULTS = SCALE == 0.2
# The load-speedup floor is a ratio, robust to machine speed, so it is
# asserted at EVERY scale — including the scaled-down CI smoke (measured
# >100x even at scale 0.02; 3x leaves generous headroom).
MIN_SPEEDUP = 3.0


def _workloads():
    return {
        "tpch": make_tpch(scale_factor=SCALE, num_queries=15, seed=9),
        "stats_ceb": make_stats_ceb(scale=SCALE, num_queries=30, seed=5),
    }


@pytest.fixture(scope="module")
def saved_stores(tmp_path_factory):
    """name -> (workload, built SafeBound, v1 path, arena path)."""
    root = tmp_path_factory.mktemp("stores")
    out = {}
    for name, workload in _workloads().items():
        sb = SafeBound()
        sb.build(workload.db)
        v1 = str(root / f"{name}.npz")
        arena = str(root / f"{name}.sba")
        save_stats(sb.stats, v1)
        save_stats(sb.stats, arena, stats_format="arena")
        out[name] = (workload, sb, v1, arena)
    return out


def _median_load_ms(path: str) -> float:
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        load_stats(path)
        samples.append((time.perf_counter() - started) * 1000.0)
    return float(np.median(samples))


def _private_kb(pid: int) -> int | None:
    """USS (Private_Clean + Private_Dirty) of a process, in KiB."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            text = fh.read()
    except OSError:
        return None
    kb = 0
    for line in text.splitlines():
        if line.startswith(("Private_Clean:", "Private_Dirty:")):
            kb += int(line.split()[1])
    return kb


def _measure_loaded_footprint(path: str, conn) -> None:
    before = _private_kb(os.getpid())
    stats = load_stats(path)
    stats.memory_bytes()  # force full materialization (no-op for v1)
    after = _private_kb(os.getpid())
    conn.send(None if before is None else after - before)


def loaded_footprint_kb(path: str) -> int | None:
    """Private-heap growth of loading ``path`` in a fresh forked child —
    the store's loaded footprint without parent-heap noise."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(target=_measure_loaded_footprint, args=(path, child_conn))
    proc.start()
    result = parent_conn.recv()
    proc.join()
    return result


def test_stats_load(saved_stores, show):
    rows = []
    for name, (workload, built, v1_path, arena_path) in saved_stores.items():
        # Bit-identity across formats comes first: same bounds, always.
        direct = built.estimate_batch(workload.queries)
        for path in (v1_path, arena_path):
            served = SafeBound.load(path)
            assert served.estimate_batch(workload.queries) == direct

        v1_ms = _median_load_ms(v1_path)
        arena_ms = _median_load_ms(arena_path)
        speedup = v1_ms / arena_ms if arena_ms > 0 else float("inf")
        row = {
            "workload": name,
            "scale": SCALE,
            "v1_bytes": os.path.getsize(v1_path),
            "arena_bytes": os.path.getsize(arena_path),
            "v1_load_ms": round(v1_ms, 3),
            "arena_load_ms": round(arena_ms, 3),
            "load_speedup": round(speedup, 2),
        }
        footprint = loaded_footprint_kb(v1_path)
        if footprint is not None:
            row["v1_loaded_footprint_kb"] = int(footprint)
        rows.append(row)

    lines = [f"{'workload':>10} {'v1 ms':>9} {'arena ms':>9} {'speedup':>8}"]
    for row in rows:
        lines.append(
            f"{row['workload']:>10} {row['v1_load_ms']:>9.2f} "
            f"{row['arena_load_ms']:>9.2f} {row['load_speedup']:>7.1f}x"
        )
    show("Stats load latency (v1 vs arena)\n" + "\n".join(lines))

    for row in rows:
        assert row["load_speedup"] >= MIN_SPEEDUP, (
            f"{row['workload']}: arena load only {row['load_speedup']}x "
            f"faster than v1 (floor {MIN_SPEEDUP}x)"
        )
    if AT_DEFAULTS:
        payload = {
            "bench": "stats_load",
            "unit": "ms / KiB",
            "config": {"scale": SCALE, "repeats": REPEATS},
            "rows": rows,
        }
        LOAD_SNAPSHOT_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    else:
        print(
            f"\n[load_snapshot] non-default scale {SCALE}; "
            f"not refreshing {LOAD_SNAPSHOT_PATH.name}"
        )
