"""Shared fixtures for the figure-reproduction benchmarks.

The end-to-end suite (build + plan + execute for every estimator on all
four workloads) is computed once per pytest session and shared by the
Fig 5-8 benchmarks.  ``REPRO_BENCH_SCALE`` scales the datasets (default
0.2; the paper's IMDB is several orders of magnitude larger — see
EXPERIMENTS.md for the mapping).
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np
import pytest

from repro.harness import SuiteConfig, run_end_to_end
from repro.harness.runner import BATCH_REPEATS
from repro.workloads import make_imdb

# Planning-latency snapshot written by the Fig 5b benchmark so successive
# PRs can track the trajectory (committed alongside the code).
PLANNING_SNAPSHOT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_planning.json"


def bench_config() -> SuiteConfig:
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.2"))
    return SuiteConfig(
        imdb_scale=scale,
        stats_scale=scale,
        num_job_light=int(os.environ.get("REPRO_BENCH_JOB_LIGHT", "30")),
        num_job_light_ranges=int(os.environ.get("REPRO_BENCH_RANGES", "40")),
        num_job_m=int(os.environ.get("REPRO_BENCH_JOB_M", "20")),
        num_stats=int(os.environ.get("REPRO_BENCH_STATS", "30")),
    )


@pytest.fixture(scope="session")
def suite():
    return run_end_to_end(bench_config())


@pytest.fixture(scope="session")
def bench_imdb():
    return make_imdb(scale=0.2, seed=1)


@pytest.fixture(scope="session")
def planning_snapshot():
    """Persist the Fig 5b rows as ``benchmarks/BENCH_planning.json``.

    The file is the cross-PR guard for planning latency: a future PR that
    regresses the SafeBound online path shows up as a diff against the
    committed snapshot.  Medians are wall-clock and machine-dependent, so
    the snapshot is only refreshed when the bench runs at the default
    configuration — a quick scaled-down run must not silently overwrite
    the committed numbers with incomparable ones.
    """
    config = {
        "scale": float(os.environ.get("REPRO_BENCH_SCALE", "0.2")),
        "num_stats": int(os.environ.get("REPRO_BENCH_STATS", "30")),
    }
    at_defaults = config == {"scale": 0.2, "num_stats": 30}

    def _write(rows: list[list], suite=None) -> None:
        if not at_defaults:
            print(
                f"\n[planning_snapshot] non-default config {config}; "
                f"not refreshing {PLANNING_SNAPSHOT_PATH.name}"
            )
            return
        out_rows = []
        for workload, method, median_ms in rows:
            row = {
                "workload": workload,
                "method": method,
                # NaN (method with no supported queries) -> JSON null.
                "median_ms": round(median_ms, 3) if median_ms == median_ms else None,
            }
            if suite is not None:
                # The runner's standalone estimates happen in one untimed
                # batch call, so per-query planning medians alone would hide
                # a regression in the estimators' (cacheable) conditioning
                # work.  Track it here so the guard covers the full online
                # path: batch estimation + planning.  Medians over the
                # runner's repeats on fresh estimators: the cold first call
                # and the warm second one.
                result = suite[workload][method]
                n = max(len(result.records), 1)
                for key, samples in (
                    ("batch_estimate_ms_per_query", result.batch_estimate_cold),
                    ("batch_estimate_warm_ms_per_query", result.batch_estimate_warm),
                ):
                    row[key] = round(float(np.median(samples)) / n * 1000.0, 3)
            out_rows.append(row)
        payload = {
            "bench": "fig5b_planning_time",
            "unit": "ms",
            "config": config,
            "nproc": len(os.sched_getaffinity(0)),
            "batch_estimate_repeats": BATCH_REPEATS,
            "rows": out_rows,
        }
        PLANNING_SNAPSHOT_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )

    return _write


@pytest.fixture(scope="session")
def show(pytestconfig):
    """Print a figure table so it survives pytest's output capture."""
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    def _show(text: str) -> None:
        import sys

        if capman is not None:
            with capman.global_and_fixture_disabled():
                print("\n" + text, file=sys.stderr, flush=True)
        else:
            print("\n" + text, file=sys.stderr, flush=True)

    return _show
