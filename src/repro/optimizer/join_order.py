"""Cost-based join ordering with injected cardinality estimates.

Mirrors the paper's experimental setup (Sec 5, "Experimental Setup"):
Postgres' optimizer is given estimates for *every* subquery through
``pg_hint_plan``; here the DP asks the injected estimator for every
connected subset it considers.  Queries with many relations fall back to a
greedy (GOO-style) heuristic, as real systems do beyond their DP budget.

Estimates flow through the estimator's **batch** entry point, one
``estimate_batch`` call per plan.  The set of subqueries the DP needs is
a function of the query's join graph alone, so the planner gathers the
whole lattice before the first estimate: the scans, every connected
subset at every size, and every index-nested-loop prefilter.  A
prefilter ``(mask - v, v)`` is requested when ``mask - v`` is a single
relation or connected (so it has a plan to probe from) and the join
column of ``v`` is indexed.  A prefilter whose inner alias has no
predicate is the induced subquery of ``mask`` itself and is requested
once.  Batch-aware estimators such as SafeBound share compiled skeletons
and conditioning work across the whole plan, and over the wire the plan
is one ``bound_batch`` round trip.  The greedy fallback makes one call
per round.

The planner also decides physical operators — hash join, index
nested-loop (when the inner is a base table with an index on the join
column), or plain nested loop — which is where underestimates become
expensive plans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..db.database import Database
from ..db.query import Query
from ..estimators.base import CardinalityEstimator, UnsupportedQueryError
from ..obs.metrics import inc as _metric_inc
from ..obs.tracing import span as _span
from .cost import CostModel
from .plans import JoinNode, PlanNode, ScanNode

__all__ = ["Planner", "PlannedQuery"]


@dataclass
class PlannedQuery:
    """The planner's output: a physical plan plus bookkeeping."""

    query: Query
    plan: PlanNode
    planning_seconds: float
    estimate_calls: int


class Planner:
    """Dynamic-programming join-order optimizer over injected estimates."""

    def __init__(
        self,
        db: Database,
        estimator: CardinalityEstimator,
        cost_model: CostModel | None = None,
        indexes_enabled: bool = True,
        dp_max_relations: int = 10,
    ) -> None:
        self.db = db
        self.estimator = estimator
        self.cost = cost_model or CostModel()
        self.indexes_enabled = indexes_enabled
        self.dp_max_relations = dp_max_relations
        self._estimate_calls = 0

    # ------------------------------------------------------------------
    def plan(self, query: Query) -> PlannedQuery:
        started = time.perf_counter()
        self._estimate_calls = 0
        aliases = sorted(query.relations)
        with _span("optimizer.plan", relations=len(aliases)) as sp:
            _metric_inc("optimizer.plans")
            if len(aliases) <= self.dp_max_relations:
                plan, _ = self._plan_dp(query, aliases)
            else:
                plan, _ = self._plan_greedy(query, aliases)
            sp.set(estimate_calls=self._estimate_calls)
        return PlannedQuery(
            query, plan, time.perf_counter() - started, self._estimate_calls
        )

    # ------------------------------------------------------------------
    def _estimate_subqueries(self, subqueries: list[Query]) -> list[float]:
        """One batched estimator round trip; unsupported queries abort the
        whole plan, matching the scalar path's exception behavior."""
        if not subqueries:
            return []
        self._estimate_calls += len(subqueries)
        _metric_inc("optimizer.estimates", len(subqueries))
        with _span("optimizer.estimate", subqueries=len(subqueries)):
            estimates = self.estimator.estimate_batch(subqueries)
        out = []
        for est in estimates:
            if est is None:
                raise UnsupportedQueryError(
                    f"{type(self.estimator).__name__} cannot estimate a subquery"
                )
            out.append(max(float(est), 1.0))
        return out

    def _estimate_requests(self, query: Query, requests: list) -> dict:
        """Estimate every request in one round trip.

        A request is an alias set (its induced subquery) or an
        ``(outer set, inner alias)`` index-probe prefilter.  A prefilter
        whose inner alias has no predicate is the induced subquery of
        ``outer | {inner}``, so it shares that subquery's estimate.  Each
        distinct subquery is sent once, in first-request order; the result
        maps every request to its rows.
        """
        canonical = {}
        subqueries: dict[object, Query] = {}
        for key in requests:
            if isinstance(key, frozenset):
                canon = key
            else:
                outer_set, inner_alias = key
                canon = key if inner_alias in query.predicates else outer_set | {inner_alias}
            canonical[key] = canon
            if canon not in subqueries:
                subqueries[canon] = (
                    query.induced_subquery(canon)
                    if isinstance(canon, frozenset)
                    else self._prefilter_subquery(query, *canon)
                )
        rows = dict(zip(subqueries, self._estimate_subqueries(list(subqueries.values()))))
        return {key: rows[canon] for key, canon in canonical.items()}

    def _prefilter_subquery(
        self, query: Query, outer: frozenset[str], inner_alias: str
    ) -> Query:
        """The subquery whose cardinality an index probe on the inner
        produces *before* the inner predicate applies (index probes return
        all key matches)."""
        sub = query.induced_subquery(outer | {inner_alias})
        sub.predicates.pop(inner_alias, None)
        return sub

    def _has_index(self, query: Query, alias: str, column: str) -> bool:
        if not self.indexes_enabled:
            return False
        return self.db.schema.is_join_column(query.relations[alias], column)

    def _inner_join_column(self, query: Query, outer: frozenset[str], inner: str) -> str | None:
        for j in query.joins:
            if j.left.alias == inner and j.right.alias in outer:
                return j.left.column
            if j.right.alias == inner and j.left.alias in outer:
                return j.right.column
        return None

    def _index_probes(
        self, query: Query, pairs: list[tuple[frozenset[str], str]]
    ) -> list[tuple[frozenset[str], str]]:
        """The (outer set, inner alias) pairs an index nested-loop join can
        probe: the inner's join column toward the outer is indexed."""
        probes = []
        for outer_set, inner_alias in pairs:
            column = self._inner_join_column(query, outer_set, inner_alias)
            if column is not None and self._has_index(query, inner_alias, column):
                probes.append((outer_set, inner_alias))
        return probes

    # ------------------------------------------------------------------
    def _scan(self, query: Query, alias: str, est_rows: float) -> tuple[ScanNode, float]:
        table = query.relations[alias]
        node = ScanNode(est_rows=est_rows, alias=alias, table=table)
        return node, self.cost.scan(self.db.table(table).num_rows)

    def _join_candidates(
        self,
        query: Query,
        left: tuple[PlanNode, float],
        right: tuple[PlanNode, float],
        left_set: frozenset[str],
        right_set: frozenset[str],
        out_rows: float,
        prefilter_rows: dict[tuple[frozenset[str], str], float],
    ):
        """All physical joins of two subplans, with estimated total cost.

        ``prefilter_rows`` holds the plan's estimates; index-probe rows are
        keyed by ``(outer_set, inner_alias)``.
        """
        left_node, left_cost = left
        right_node, right_cost = right
        # Hash join: build on the smaller estimated side.
        build, probe = (
            (left_node, right_node)
            if left_node.est_rows <= right_node.est_rows
            else (right_node, left_node)
        )
        yield (
            JoinNode(out_rows, build, probe, "hash"),
            left_cost
            + right_cost
            + self.cost.hash_join(build.est_rows, probe.est_rows, out_rows),
        )
        # Nested loop (no index): smaller estimated side as outer.
        outer, inner = (
            (left_node, right_node)
            if left_node.est_rows <= right_node.est_rows
            else (right_node, left_node)
        )
        yield (
            JoinNode(out_rows, outer, inner, "nlj"),
            left_cost
            + right_cost
            + self.cost.nested_loop(outer.est_rows, inner.est_rows, out_rows),
        )
        # Index nested loop: inner must be a single indexed base relation.
        for outer_set, outer_pair, inner_set, inner_pair in (
            (left_set, left, right_set, right),
            (right_set, right, left_set, left),
        ):
            if len(inner_set) != 1:
                continue
            inner_alias = next(iter(inner_set))
            matched = prefilter_rows.get((outer_set, inner_alias))
            if matched is None:
                continue
            inner_rows = self.db.table(query.relations[inner_alias]).num_rows
            outer_node, outer_cost = outer_pair
            yield (
                JoinNode(out_rows, outer_node, inner_pair[0], "inlj"),
                outer_cost
                + self.cost.index_nested_loop(
                    outer_node.est_rows, inner_rows, matched, out_rows
                ),
            )

    # ------------------------------------------------------------------
    # Dynamic programming over connected subsets
    # ------------------------------------------------------------------
    def _plan_dp(self, query: Query, aliases: list[str]) -> tuple[PlanNode, float]:
        index = {a: i for i, a in enumerate(aliases)}
        n = len(aliases)
        adjacency = [0] * n
        for j in query.joins:
            a, b = index[j.left.alias], index[j.right.alias]
            if a != b:
                adjacency[a] |= 1 << b
                adjacency[b] |= 1 << a

        def connected(mask: int) -> bool:
            start = mask & -mask
            seen = start
            frontier = start
            while frontier:
                reach = 0
                m = frontier
                while m:
                    bit = m & -m
                    reach |= adjacency[bit.bit_length() - 1]
                    m ^= bit
                new = reach & mask & ~seen
                if not new:
                    break
                seen |= new
                frontier = new
            return seen == mask

        def to_set(mask: int) -> frozenset[str]:
            return frozenset(aliases[i] for i in range(n) if mask >> i & 1)

        full = (1 << n) - 1
        if not connected(full):
            # Disconnected query: greedily cross-join the components.
            return self._plan_greedy(query, aliases)

        masks_by_size: list[list[int]] = [[] for _ in range(n + 1)]
        for mask in range(1, 1 << n):
            size = mask.bit_count()
            if size >= 2 and connected(mask):
                masks_by_size[size].append(mask)

        # The whole lattice in one request, in DP order: the scans, then per
        # size its connected subsets and the INLJ prefilters they unlock.
        # (mask - v, v) qualifies when mask - v has a plan, i.e. is a single
        # relation or a smaller connected subset: every connected subset has
        # a relation whose removal keeps it connected, so each gets one.
        subsets = {1 << i: frozenset([alias]) for i, alias in enumerate(aliases)}
        requests: list = list(subsets.values())
        for level in masks_by_size:
            pairs = []
            for mask in level:
                subsets[mask] = to_set(mask)
                m = mask
                while m:
                    bit = m & -m
                    m ^= bit
                    if (mask ^ bit) in subsets:
                        inner_alias = aliases[bit.bit_length() - 1]
                        pairs.append((subsets[mask] - {inner_alias}, inner_alias))
            requests += [subsets[mask] for mask in level]
            requests += self._index_probes(query, pairs)
        rows = self._estimate_requests(query, requests)

        best: dict[int, tuple[PlanNode, float]] = {
            1 << i: self._scan(query, alias, rows[subsets[1 << i]])
            for i, alias in enumerate(aliases)
        }
        for size in range(2, n + 1):
            level = masks_by_size[size]
            if not level:
                continue
            with _span("optimizer.dp_level", size=size, subsets=len(level)):
                for mask in level:
                    champion: tuple[PlanNode, float] | None = None
                    # Enumerate proper sub-masks; each (sub, mask^sub) split
                    # is considered once per orientation, which the
                    # candidates need.
                    sub = (mask - 1) & mask
                    while sub:
                        other = mask ^ sub
                        if sub < other:  # each unordered split once
                            sub = (sub - 1) & mask
                            continue
                        if sub in best and other in best:
                            left_set, right_set = subsets[sub], subsets[other]
                            if self._sets_joined(query, left_set, right_set):
                                for node, cost in self._join_candidates(
                                    query,
                                    best[sub],
                                    best[other],
                                    left_set,
                                    right_set,
                                    rows[subsets[mask]],
                                    rows,
                                ):
                                    if champion is None or cost < champion[1]:
                                        champion = (node, cost)
                        sub = (sub - 1) & mask
                    if champion is not None:
                        best[mask] = champion
        return best[full]

    @staticmethod
    def _sets_joined(query: Query, left: frozenset[str], right: frozenset[str]) -> bool:
        for j in query.joins:
            if (j.left.alias in left and j.right.alias in right) or (
                j.left.alias in right and j.right.alias in left
            ):
                return True
        return False

    # ------------------------------------------------------------------
    # Greedy fallback for many-relation queries
    # ------------------------------------------------------------------
    def _plan_greedy(self, query: Query, aliases: list[str]) -> tuple[PlanNode, float]:
        # ``None`` marks a relation not yet scanned: the first round's
        # request also carries the scans.
        remaining: dict[frozenset[str], tuple[PlanNode, float] | None] = {
            frozenset([alias]): None for alias in aliases
        }
        while True:
            keys = sorted(remaining, key=sorted)
            pairs = [
                (left_set, right_set)
                for i, left_set in enumerate(keys)
                for right_set in keys[i + 1 :]
                if self._sets_joined(query, left_set, right_set)
            ]
            # One round trip per round: its union estimates and INLJ
            # prefilters.
            scans = [key for key in keys if remaining[key] is None]
            unions = sorted({l | r for l, r in pairs}, key=sorted)
            probes = self._index_probes(
                query,
                [
                    (outer_set, next(iter(inner_set)))
                    for left_set, right_set in pairs
                    for outer_set, inner_set in ((left_set, right_set), (right_set, left_set))
                    if len(inner_set) == 1
                ],
            )
            rows = self._estimate_requests(query, scans + unions + probes)
            for key in scans:
                remaining[key] = self._scan(query, next(iter(key)), rows[key])
            if len(remaining) == 1:
                return next(iter(remaining.values()))

            champion = None
            champion_key = None
            for left_set, right_set in pairs:
                for node, cost in self._join_candidates(
                    query,
                    remaining[left_set],
                    remaining[right_set],
                    left_set,
                    right_set,
                    rows[left_set | right_set],
                    rows,
                ):
                    if champion is None or cost < champion[1]:
                        champion = (node, cost)
                        champion_key = (left_set, right_set)
            if champion is None:
                # Only cross products remain: merge the two smallest.
                keys = sorted(remaining, key=lambda k: remaining[k][0].est_rows)
                left_set, right_set = keys[0], keys[1]
                left, right = remaining[left_set], remaining[right_set]
                out_rows = left[0].est_rows * right[0].est_rows
                champion = (
                    JoinNode(out_rows, left[0], right[0], "nlj"),
                    left[1]
                    + right[1]
                    + self.cost.nested_loop(left[0].est_rows, right[0].est_rows, out_rows),
                )
                champion_key = (left_set, right_set)
            left_set, right_set = champion_key
            del remaining[left_set]
            del remaining[right_set]
            remaining[left_set | right_set] = champion
