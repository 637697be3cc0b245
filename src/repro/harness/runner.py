"""End-to-end experiment runner.

Reproduces the paper's measurement pipeline (Sec 5): for every estimator
and every workload query, (1) plan the query with the estimator's
cardinalities injected into the optimizer, (2) execute the chosen plan
against the real data in the cost simulator, and record estimate, planning
time, runtime, plus per-estimator build time and memory footprint.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..db.database import Database
from ..db.query import Query
from ..estimators.base import CardinalityEstimator, UnsupportedQueryError
from ..estimators.truth import TrueCardinalityEstimator
from ..obs.profile import maybe_profile
from ..optimizer.join_order import Planner
from ..optimizer.simulator import PlanSimulator
from ..workloads.generator import Workload

__all__ = ["QueryRecord", "MethodResult", "run_workload", "run_suite"]

BATCH_REPEATS = 5


@dataclass
class QueryRecord:
    """One (query, estimator) measurement."""

    query_name: str
    true_cardinality: float
    estimate: float | None = None
    planning_seconds: float = 0.0
    runtime: float | None = None
    supported: bool = True

    @property
    def relative_error(self) -> float | None:
        if self.estimate is None:
            return None
        return self.estimate / max(self.true_cardinality, 1.0)


@dataclass
class MethodResult:
    """All measurements of one estimator on one workload."""

    workload: str
    method: str
    records: list[QueryRecord] = field(default_factory=list)
    build_seconds: float = 0.0
    memory_bytes: int = 0
    # Wall-clock of the single estimate_batch call producing the standalone
    # full-query estimates.  Charged here, not to per-query planning time:
    # it warms the estimator's caches (and, for the truth oracle, executes
    # the queries), so folding it into the planning timer would misstate
    # both numbers.
    batch_estimate_seconds: float = 0.0
    # The same batch timed BATCH_REPEATS times after planning, each on a
    # ``fresh()`` estimator: its first (cold) call and a second (warm) one.
    batch_estimate_cold: list[float] = field(default_factory=list)
    batch_estimate_warm: list[float] = field(default_factory=list)

    def total_runtime(self) -> float:
        return sum(r.runtime for r in self.records if r.runtime is not None)

    def supported_records(self) -> list[QueryRecord]:
        return [r for r in self.records if r.supported]

    def median_planning_seconds(self) -> float:
        times = [r.planning_seconds for r in self.supported_records()]
        return float(np.median(times)) if times else float("nan")


def _true_cards(truth: TrueCardinalityEstimator, queries: list[Query]) -> dict[str, float]:
    cards = {}
    for q in queries:
        cards[q.name] = truth.estimate(q)
    return cards


def run_workload(
    workload: Workload,
    estimators: dict[str, CardinalityEstimator],
    truth: TrueCardinalityEstimator | None = None,
    indexes_enabled: bool = True,
    build: bool = True,
) -> dict[str, MethodResult]:
    """Run every estimator over one workload.

    ``estimators`` maps display name to an already-constructed estimator;
    pass ``build=False`` when they were built on this database previously
    (e.g. the three JOB workloads share the IMDB instance).
    """
    db = workload.db
    if truth is None:
        truth = TrueCardinalityEstimator()
        truth.build(db)
    simulator = PlanSimulator(db, truth)
    cards = _true_cards(truth, workload.queries)
    # Queries whose exact cardinality is unobtainable (materialisation cap)
    # are dropped for every method, as the paper drops timeouts.
    queries = [q for q in workload.queries if cards[q.name] != float("inf")]

    results: dict[str, MethodResult] = {}
    for name, estimator in estimators.items():
        if build:
            estimator.build(db)
        # With REPRO_OBS_DIR set, each (workload, method) measurement runs
        # traced and dumps a Chrome trace + metrics snapshot there.
        with maybe_profile(f"{workload.name}.{name}"):
            planner = Planner(db, estimator, indexes_enabled=indexes_enabled)
            result = MethodResult(
                workload.name,
                name,
                build_seconds=estimator.build_seconds,
                memory_bytes=estimator.memory_bytes(),
            )
            # Standalone estimates of the full queries come from one batch
            # call, outside the planning timer: the timer should capture
            # the planner's own work, not a duplicate top-level lookup
            # (which, for the truth oracle, would charge a full query
            # execution to planning time).  The batch cost is recorded on
            # the result so it stays visible.
            started = time.perf_counter()
            estimates = estimator.estimate_batch(queries)
            result.batch_estimate_seconds = time.perf_counter() - started
            for query, estimate in zip(queries, estimates):
                record = QueryRecord(query.name, cards[query.name])
                if estimate is None:
                    record.supported = False
                else:
                    record.estimate = float(estimate)
                    try:
                        started = time.perf_counter()
                        planned = planner.plan(query)
                        record.planning_seconds = time.perf_counter() - started
                        record.runtime = simulator.execute(query, planned.plan)
                    except UnsupportedQueryError:
                        record.supported = False
                result.records.append(record)
            # After planning, so the repeats cannot change what the planner
            # sees (NeuroCard draws from a shared RNG as it estimates).
            for _ in range(BATCH_REPEATS):
                other = estimator.fresh()
                for samples in (result.batch_estimate_cold, result.batch_estimate_warm):
                    started = time.perf_counter()
                    other.estimate_batch(queries)
                    samples.append(time.perf_counter() - started)
            results[name] = result
    return results


def run_suite(
    workloads: list[Workload],
    estimator_factories: dict[str, "type | callable"],
    indexes_enabled: bool = True,
) -> dict[str, dict[str, MethodResult]]:
    """Run a factory-built estimator set over several workloads.

    Estimators (and the truth oracle) are built once per distinct database
    and reused across workloads sharing it, mirroring how the paper builds
    statistics once per dataset.
    """
    built: dict[int, dict[str, CardinalityEstimator]] = {}
    truths: dict[int, TrueCardinalityEstimator] = {}
    out: dict[str, dict[str, MethodResult]] = {}
    for workload in workloads:
        key = id(workload.db)
        if key not in built:
            estimators = {name: factory() for name, factory in estimator_factories.items()}
            for est in estimators.values():
                est.build(workload.db)
            built[key] = estimators
            truth = TrueCardinalityEstimator()
            truth.build(workload.db)
            truths[key] = truth
        out[workload.name] = run_workload(
            workload,
            built[key],
            truth=truths[key],
            indexes_enabled=indexes_enabled,
            build=False,
        )
    return out
