"""Observability overhead benchmark: the disabled fast path must be free.

The online path is instrumented at every stage boundary (``span``) and
kernel group (``inc``/``observe``).  With no tracer or registry
installed, each call is one module-global load plus a ``None`` check —
this bench proves that budget holds end to end:

* **disabled** — stats-CEB batch estimation with nothing installed (the
  production default).  The per-call disabled cost is micro-benchmarked
  and multiplied by the number of instrumentation calls one batch
  actually executes (counted from an enabled run), and that total must
  stay under ``OVERHEAD_FLOOR`` (2%) of the batch time — asserted at
  every configuration.
* **enabled** — the same batch under a live tracer + registry, reporting
  the full tracing cost (span records, metric vectors) as a ratio.

Bounds are asserted identical between the two runs — instrumentation
must never change a result.

``REPRO_BENCH_OBS_SCALE`` scales the dataset (default 0.2) and
``REPRO_BENCH_OBS_QUERIES`` the batch size (default 80); the committed
``BENCH_obs.json`` snapshot is only refreshed at the default
configuration.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np

from repro.core.safebound import SafeBound
from repro.obs.metrics import MetricsRegistry, inc, metrics_installed
from repro.obs.tracing import Tracer, span, tracing_installed
from repro.service import faults
from repro.workloads import make_stats_ceb

OBS_SNAPSHOT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_obs.json"

SCALE = float(os.environ.get("REPRO_BENCH_OBS_SCALE", "0.2"))
NUM_QUERIES = int(os.environ.get("REPRO_BENCH_OBS_QUERIES", "80"))
DEFAULT_CONFIG = SCALE == 0.2 and NUM_QUERIES == 80
OVERHEAD_FLOOR = 0.02  # disabled instrumentation cost vs batch time
REPETITIONS = 7
MICRO_CALLS = 200_000


def _median_seconds(fn) -> tuple[float, object]:
    result = fn()  # warm-up (allocator, code paths, caches)
    times = []
    for _ in range(REPETITIONS):
        started = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - started)
    return float(np.median(times)), result


def _disabled_call_seconds() -> tuple[float, float]:
    """Median per-call cost of ``span()`` and ``inc()`` with nothing
    installed (the production fast path)."""
    def run_spans():
        for _ in range(MICRO_CALLS):
            with span("bench"):
                pass
    def run_incs():
        for _ in range(MICRO_CALLS):
            inc("bench")
    span_total, _ = _median_seconds(run_spans)
    inc_total, _ = _median_seconds(run_incs)
    return span_total / MICRO_CALLS, inc_total / MICRO_CALLS


def _disabled_fault_site_seconds() -> float:
    """Median per-call cost of a :func:`faults.fire` site with no plan
    installed — the serving paths keep their sites compiled in, so this
    must hold the same one-load + ``None``-check budget as ``inc()``."""
    assert faults.get_faults() is None

    def run_fires():
        for _ in range(MICRO_CALLS):
            faults.fire("bench.site")

    fire_total, _ = _median_seconds(run_fires)
    return fire_total / MICRO_CALLS


def test_disabled_overhead_under_floor(show):
    wl = make_stats_ceb(scale=SCALE, num_queries=NUM_QUERIES, seed=5)
    sb = SafeBound()
    sb.build(wl.db)
    queries = wl.queries

    disabled_seconds, disabled_bounds = _median_seconds(
        lambda: sb.estimate_batch(queries)
    )

    # Enabled run: full tracing + metrics.  A fresh tracer per repetition
    # keeps the span list from growing across reps.
    def run_enabled():
        tracer = Tracer()
        registry = MetricsRegistry()
        with tracing_installed(tracer), metrics_installed(registry):
            bounds = sb.estimate_batch(queries)
        return bounds, tracer, registry

    enabled_seconds, (enabled_bounds, tracer, registry) = _median_seconds(run_enabled)
    assert disabled_bounds == enabled_bounds, (
        "instrumentation changed a bound"
    )
    assert len(tracer.spans) > 0 and registry.update_ops > 0

    # Price the disabled path: per-call cost x the instrumentation calls
    # one batch executes (span sites + metric updates, counted live).
    span_cost, inc_cost = _disabled_call_seconds()
    fault_cost = _disabled_fault_site_seconds()
    # A fault site is the same shape as a disabled metric update; hold it
    # to the same order of magnitude (loaded-CI slack included).
    assert fault_cost < max(20 * inc_cost, 2e-6), (
        f"disabled fault site costs {fault_cost * 1e9:.0f} ns/call vs "
        f"inc {inc_cost * 1e9:.0f} ns"
    )
    calls = len(tracer.spans) * span_cost + registry.update_ops * inc_cost
    disabled_fraction = calls / disabled_seconds
    enabled_ratio = enabled_seconds / disabled_seconds - 1.0

    lines = [
        f"obs overhead, stats-CEB scale={SCALE}, {NUM_QUERIES} queries "
        f"({os.cpu_count()} cpu)",
        f"  batch estimation: disabled {disabled_seconds * 1e3:.2f} ms, "
        f"enabled {enabled_seconds * 1e3:.2f} ms "
        f"({enabled_ratio * 100:+.1f}%)",
        f"  instrumentation per batch: {len(tracer.spans)} spans, "
        f"{registry.update_ops} metric updates",
        f"  disabled per-call: span {span_cost * 1e9:.0f} ns, "
        f"inc {inc_cost * 1e9:.0f} ns, "
        f"fault site {fault_cost * 1e9:.0f} ns "
        f"-> {disabled_fraction * 100:.3f}% of batch time "
        f"(floor {OVERHEAD_FLOOR * 100:.0f}%)",
    ]
    show("\n".join(lines))

    assert disabled_fraction < OVERHEAD_FLOOR, (
        f"disabled instrumentation costs {disabled_fraction * 100:.2f}% of "
        f"batch estimation time, over the {OVERHEAD_FLOOR * 100:.0f}% floor"
    )

    if DEFAULT_CONFIG:
        payload = {
            "bench": "obs_overhead",
            "scale": SCALE,
            "num_queries": NUM_QUERIES,
            "cpus": os.cpu_count(),
            "repetitions": REPETITIONS,
            "overhead_floor": OVERHEAD_FLOOR,
            "disabled_seconds": round(disabled_seconds, 5),
            "enabled_seconds": round(enabled_seconds, 5),
            "enabled_ratio": round(enabled_ratio, 4),
            "spans_per_batch": len(tracer.spans),
            "metric_updates_per_batch": registry.update_ops,
            "disabled_span_ns": round(span_cost * 1e9, 1),
            "disabled_inc_ns": round(inc_cost * 1e9, 1),
            "disabled_fault_site_ns": round(fault_cost * 1e9, 1),
            "disabled_fraction": round(disabled_fraction, 6),
        }
        OBS_SNAPSHOT_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    else:
        print(
            f"\n[obs_snapshot] non-default config scale={SCALE}, "
            f"queries={NUM_QUERIES}; not refreshing {OBS_SNAPSHOT_PATH.name}"
        )
