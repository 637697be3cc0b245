"""``explain_bound``: a per-query breakdown of one bound computation.

Runs one ``SafeBound.bound`` call under a fresh tracer and metrics
registry and reports

* the **stage breakdown** — per-stage exclusive ("self") wall time from
  the span tree, whose sum reproduces the traced end-to-end latency by
  construction (exclusive times partition the root spans);
* the **cache hit path** — how the (table, predicate) conditioning work
  was served: conditioning-LRU hit or computed from scratch;
* the **array-program op counts** — piecewise kernel invocations by op
  kind, for both conditioning and the bound recursion;
* the **per-plan bound contributions** — the bound of every spanning-tree
  plan of the query's skeleton, of which the reported bound is the min.

This module imports the core engine, so it is deliberately *not*
re-exported from ``repro.obs`` (which core modules import) — import it
directly: ``from repro.obs.explain import explain_bound``.
"""

from __future__ import annotations

import time

from .metrics import MetricsRegistry, metrics_installed
from .tracing import Tracer, tracing_installed

__all__ = ["explain_bound", "format_explain"]


def explain_bound(estimator, query, *, runs: int = 1) -> dict:
    """Explain one bound computation on ``estimator`` (a ``SafeBound`` or
    anything exposing its online API).

    ``runs > 1`` re-runs the same query and keeps the last run's trace —
    useful to separate cold (compile + conditioning) from warm (cache-hit)
    behaviour; the report notes which run it describes.
    """
    report: dict = {}
    for run in range(max(runs, 1)):
        tracer = Tracer()
        registry = MetricsRegistry()
        with tracing_installed(tracer), metrics_installed(registry):
            started = time.perf_counter()
            bound = estimator.bound(query)
            elapsed = time.perf_counter() - started
        report = _build_report(estimator, query, bound, elapsed, tracer, registry)
        report["run"] = run + 1
        report["runs"] = max(runs, 1)
    return report


def _build_report(estimator, query, bound, elapsed, tracer, registry) -> dict:
    stages = tracer.stage_totals()
    stage_seconds = sum(s["self_seconds"] for s in stages.values())
    snapshot = registry.snapshot()

    lookups = int(snapshot.get("conditioning.lookups", 0))
    lru_misses = int(snapshot.get("conditioning.lru_miss", 0))
    computed = int(snapshot.get("conditioning.computed", 0))
    cache_path = {
        "lookups": lookups,
        "lru_hits": max(lookups - lru_misses, 0),
        "computed": computed,
    }

    op_counts = {
        name: value
        for name, value in snapshot.items()
        if name.startswith(("kernel.ops.", "conditioning.ops."))
    }

    report = {
        "bound": bound,
        "elapsed_seconds": elapsed,
        "stage_seconds": stage_seconds,
        # Fraction of the measured end-to-end latency the span tree covers
        # (the remainder is untraced dispatch glue around bound_batch).
        "coverage": stage_seconds / elapsed if elapsed > 0 else 0.0,
        "stages": {
            name: stages[name]
            for name in sorted(stages, key=lambda n: -stages[n]["self_seconds"])
        },
        "cache_path": cache_path,
        "op_counts": op_counts,
        "dispatch": {
            "array_queries": int(snapshot.get("bound.array_queries", 0)),
            "object_queries": int(snapshot.get("bound.object_queries", 0)),
        },
    }
    report["plan_bounds"] = _plan_bounds(estimator, query)
    return report


def _plan_bounds(estimator, query) -> list[dict] | None:
    """Per-spanning-tree-plan bounds (the reported bound is their min).

    Uses SafeBound internals; returns None for estimators that do not
    expose them.
    """
    engine = getattr(estimator, "_engine", None)
    if engine is None or not hasattr(engine, "plan_bounds"):
        return None
    try:
        skeleton = engine.compile(query)
        effective = estimator._effective_predicates(query)
        column_cds, alias_cardinality = estimator._query_inputs(query, effective)
        bounds = engine.plan_bounds(skeleton, column_cds, alias_cardinality)
    except Exception:
        return None
    best = min(bounds) if bounds else float("inf")
    return [
        {
            "plan": i,
            "roots": [skeleton.aliases[r] for r in plan.roots],
            "bound": b,
            "is_min": b == best,
        }
        for i, (plan, b) in enumerate(zip(skeleton.plans, bounds))
    ]


def format_explain(report: dict) -> str:
    """Human-readable rendering of an :func:`explain_bound` report."""
    lines = [
        f"bound: {report['bound']:.6g}",
        f"elapsed: {report['elapsed_seconds'] * 1e3:.3f} ms "
        f"(stages cover {report['coverage'] * 100:.1f}%)",
        "",
        f"{'stage':<28}{'count':>7}{'self ms':>10}{'total ms':>10}",
    ]
    for name, stage in report["stages"].items():
        lines.append(
            f"{name:<28}{stage['count']:>7}"
            f"{stage['self_seconds'] * 1e3:>10.3f}"
            f"{stage['total_seconds'] * 1e3:>10.3f}"
        )
    cache = report["cache_path"]
    lines += [
        "",
        "conditioning cache path: "
        f"{cache['lru_hits']} LRU hit(s), "
        f"{cache['computed']} computed of {cache['lookups']} lookup(s)",
    ]
    dispatch = report["dispatch"]
    lines.append(
        f"dispatch: {dispatch['array_queries']} array / "
        f"{dispatch['object_queries']} object"
    )
    if report.get("op_counts"):
        ops = ", ".join(
            f"{name.split('.')[-1]}={int(count)}"
            for name, count in sorted(report["op_counts"].items())
        )
        lines.append(f"kernel ops: {ops}")
    plans = report.get("plan_bounds")
    if plans:
        lines.append("")
        lines.append(f"{'plan':<6}{'roots':<24}{'bound':>16}")
        for entry in plans:
            marker = " *" if entry["is_min"] else ""
            lines.append(
                f"{entry['plan']:<6}{','.join(entry['roots']):<24}"
                f"{entry['bound']:>16.6g}{marker}"
            )
    return "\n".join(lines)
