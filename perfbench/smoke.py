"""Smoke test of the benchmark itself: tiny scale, seconds-long runs.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced at a small data scale
(``--scale``, which also makes a run set up once), and asserts that each
run passes its correctness checks, prints every metric the workload
defines with its expected unit, and ends
with a result line holding exactly the metrics ``BENCHMARK.json`` names
for that mode.  Finally it runs the benchmark in a directory holding
only ``BENCHMARK.json`` and ``perfbench/`` and asserts that it fails
without printing a result.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SCALES = {"point": 0.05, "plan": 0.05, "ingest": 0.02}
SECONDS = {"point": 2, "plan": 2, "ingest": 3}
# The end-to-end metrics each workload reports by its own names, with units.
COMMON = {"setup_s": "s", "error_rate": "ratio", "rss_mb": "MB"}
WORKLOAD_METRICS = {
    "point": {**COMMON, "bound_p50_ms": "ms", "bound_p99_ms": "ms", "bound_qps": "1/s",
              "bound_ratio_p50": "ratio", "stats_mb": "MB"},
    "plan": {**COMMON, "plan_p50_ms": "ms", "plan_p90_ms": "ms", "bound_ratio_p50": "ratio",
             "plan_cost": "cost", "stats_mb": "MB"},
    "ingest": {**COMMON, "plan_p50_ms": "ms", "plan_p90_ms": "ms", "insert_p50_ms": "ms",
               "insert_p90_ms": "ms", "republish_s": "s"},
}
LINE = re.compile(r"^  (\S+)\s+(\S+) (\S+)")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", str(SECONDS[workload]), "--trace", str(trace),
        "--scale", str(SCALES[workload]),
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def check(workload: str, trace: int, spec: dict) -> None:
    proc = run(workload, trace)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, sorted(result["metrics"])
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)
    printed = {}
    for line in lines:
        match = LINE.match(line)
        if match:
            printed[match.group(1)] = match.group(3)
    units = dict(WORKLOAD_METRICS[workload])
    if trace:
        units.update((m["name"], m["unit"]) for m in wanted)
    wrong = {n: (printed.get(n), u) for n, u in units.items() if printed.get(n) != u}
    assert not wrong, f"{workload} trace={trace}: (printed, expected) units: {wrong}"
    assert not any(line.startswith("  FAILED") for line in lines), proc.stdout
    print(f"ok  {workload:<7} trace={trace}  attempted={result['attempted']}")


def check_bare_directory() -> None:
    """Without the repository's sources the benchmark must fail fast."""
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=tmp_root))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("plan", 0, cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory fails without a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in ("point", "plan", "ingest"):
        for trace in (0, 1):
            check(workload, trace, spec)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
