"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload {point,plan,ingest} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The benchmark measures the code under
``src/`` of that checkout; without it the command exits with status 2.

Output: a human-readable report — provenance, then every metric of the
workload with its unit and sample count — and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` ``metrics`` holds the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics.  The run
exits 1 when any correctness check fails.

``--scale`` shrinks a run for the smoke test (``perfbench/smoke.py``).
An untraced run at the default scale sets up ``SETUP_REPS`` times and
reports the median as ``setup_s``; a traced or ``--scale`` run sets up
once.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

# The end-to-end metrics of every workload, as BENCHMARK.json names them.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
    "stats_mb": "MB",
    "rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("point", "plan", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="data scale override (smoke test only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    common.use_repo_sources()
    import layers
    import workloads

    opts = workloads.Options(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scale=args.scale,
        # A traced run reports no setup_s, and a smoke run gates nothing.
        setup_reps=1 if args.trace or args.scale is not None else workloads.SETUP_REPS,
        start=START,
    )
    result = workloads.WORKLOADS[args.workload](opts)
    metrics = result["metrics"]
    attempted = max(1, result["attempted"])
    error_rate = result["failed"] / attempted
    metrics["error_rate"] = (error_rate, "ratio", attempted)
    for generic, name in result["generic"].items():
        metrics[generic] = metrics[name]

    info = common.provenance(args.workload, args.seed, result["sizes"])
    info.update(seconds=args.seconds, trace=args.trace, checks=result["checks"])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(info, sort_keys=True))
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit:<6} n={samples}")
    if "layers" in result:
        for name, unit in layers.PER_LAYER.items():
            print(f"  {name:<28} {result['layers'][name]:>14.6g} {unit}")
    for failure in result["check_failures"]:
        print(f"  FAILED {failure}")

    correct = result["failed"] == 0
    if args.trace:
        chosen = {name: (result["layers"][name], unit) for name, unit in layers.PER_LAYER.items()}
    else:
        chosen = {name: (metrics[name][0], unit) for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
