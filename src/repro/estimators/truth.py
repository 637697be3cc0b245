"""The true-cardinality oracle.

Injecting exact cardinalities is the paper's baseline for "optimal" plans
(Fig 5a normalises workload runtimes against it).  Estimates are memoised,
since the optimizer's dynamic program asks for the same subqueries many
times.
"""

from __future__ import annotations

import time

from ..db.database import Database
from ..db.executor import CardinalityOverflow, Executor
from ..db.query import Query
from .base import CardinalityEstimator

__all__ = ["TrueCardinalityEstimator"]


class TrueCardinalityEstimator(CardinalityEstimator):
    """Executes every (sub)query exactly; the gold standard."""

    name = "TrueCardinality"

    def __init__(self) -> None:
        super().__init__()
        self._executor: Executor | None = None
        self._cache: dict = {}

    def build(self, db: Database) -> None:
        started = time.perf_counter()
        self._executor = Executor(db)
        self._cache = {}
        self.build_seconds = time.perf_counter() - started

    def fresh(self) -> "TrueCardinalityEstimator":
        other = TrueCardinalityEstimator()
        other._executor = self._executor
        return other

    def estimate(self, query: Query) -> float:
        if self._executor is None:
            raise RuntimeError("build(db) must run before estimate()")
        key = query.cache_key()
        if key not in self._cache:
            try:
                self._cache[key] = float(self._executor.cardinality(query))
            except CardinalityOverflow:
                self._cache[key] = float("inf")
        return self._cache[key]
