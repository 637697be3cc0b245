"""Reference planner the one-call lattice planner is checked against.

``OraclePlanner`` is the dynamic program as it was before the planner
requested a plan's whole subquery lattice up front: one
``estimate_batch`` call for the scans, then per DP level one call for
the level's connected subsets and one for the index-nested-loop
prefilters that level unlocks (a prefilter ``(mask - v, v)`` is asked
for when ``mask - v`` already has a plan).  The greedy fallback likewise
makes one call for the scans and two per round.  Nothing is folded: a
prefilter whose inner alias has no predicate is requested again next to
the identical induced subquery.

It reuses :class:`Planner`'s join candidates, cost model and estimator
round trip, so a differential test compares only the request schedule
and the DP built on it.  ``prefilter_keys`` records every prefilter key
the reference estimated.
"""

from __future__ import annotations

from repro.db.query import Query
from repro.optimizer.join_order import Planner
from repro.optimizer.plans import JoinNode, PlanNode, ScanNode


class OraclePlanner(Planner):
    """Per-level DP and two-call greedy rounds (the reference schedule)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.prefilter_keys: set[tuple[frozenset[str], str]] = set()

    def _scan_nodes(self, query: Query, aliases: list[str]) -> list[tuple[ScanNode, float]]:
        estimates = self._estimate_subqueries(
            [query.induced_subquery({alias}) for alias in aliases]
        )
        out = []
        for alias, est in zip(aliases, estimates):
            table = query.relations[alias]
            node = ScanNode(est_rows=est, alias=alias, table=table)
            out.append((node, self.cost.scan(self.db.table(table).num_rows)))
        return out

    def _batch_prefilters(
        self, query: Query, pairs: list[tuple[frozenset[str], str]]
    ) -> dict[tuple[frozenset[str], str], float]:
        keys = []
        subqueries = []
        for outer_set, inner_alias in pairs:
            column = self._inner_join_column(query, outer_set, inner_alias)
            if column is None or not self._has_index(query, inner_alias, column):
                continue
            keys.append((outer_set, inner_alias))
            subqueries.append(self._prefilter_subquery(query, outer_set, inner_alias))
        self.prefilter_keys.update(keys)
        return dict(zip(keys, self._estimate_subqueries(subqueries)))

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

        best: dict[int, tuple[PlanNode, float]] = {}
        for i, scan in enumerate(self._scan_nodes(query, aliases)):
            best[1 << i] = scan

        masks_by_size: list[list[int]] = [[] for _ in range(n + 1)]
        for mask in range(1, 1 << n):
            size = mask.bit_count()
            if size >= 2 and connected(mask):
                masks_by_size[size].append(mask)

        full = (1 << n) - 1
        for size in range(2, n + 1):
            level = masks_by_size[size]
            if not level:
                continue
            subsets = {mask: to_set(mask) for mask in level}
            out_rows = dict(
                zip(
                    level,
                    self._estimate_subqueries(
                        [query.induced_subquery(subsets[mask]) for mask in level]
                    ),
                )
            )
            prefilter_pairs = []
            for mask in level:
                m = mask
                while m:
                    bit = m & -m
                    m ^= bit
                    if (mask ^ bit) in best:
                        inner_alias = aliases[bit.bit_length() - 1]
                        prefilter_pairs.append((subsets[mask] - {inner_alias}, inner_alias))
            prefilter_rows = self._batch_prefilters(query, prefilter_pairs)

            for mask in level:
                champion: tuple[PlanNode, float] | None = None
                sub = (mask - 1) & mask
                while sub:
                    other = mask ^ sub
                    if sub < other:
                        sub = (sub - 1) & mask
                        continue
                    if sub in best and other in best:
                        left_set, right_set = to_set(sub), to_set(other)
                        if self._sets_joined(query, left_set, right_set):
                            for node, cost in self._join_candidates(
                                query,
                                best[sub],
                                best[other],
                                left_set,
                                right_set,
                                out_rows[mask],
                                prefilter_rows,
                            ):
                                if champion is None or cost < champion[1]:
                                    champion = (node, cost)
                    sub = (sub - 1) & mask
                if champion is not None:
                    best[mask] = champion
        if full not in best:
            return self._plan_greedy(query, aliases)
        return best[full]

    def _plan_greedy(self, query: Query, aliases: list[str]) -> tuple[PlanNode, float]:
        remaining: dict[frozenset[str], tuple[PlanNode, float]] = {}
        for alias, scan in zip(aliases, self._scan_nodes(query, aliases)):
            remaining[frozenset([alias])] = scan
        while len(remaining) > 1:
            keys = sorted(remaining, key=sorted)
            pairs = [
                (left_set, right_set)
                for i, left_set in enumerate(keys)
                for right_set in keys[i + 1 :]
                if self._sets_joined(query, left_set, right_set)
            ]
            unions = sorted({l | r for l, r in pairs}, key=sorted)
            union_rows = dict(
                zip(
                    unions,
                    self._estimate_subqueries([query.induced_subquery(u) for u in unions]),
                )
            )
            prefilter_pairs = [
                (outer_set, next(iter(inner_set)))
                for left_set, right_set in pairs
                for outer_set, inner_set in ((left_set, right_set), (right_set, left_set))
                if len(inner_set) == 1
            ]
            prefilter_rows = self._batch_prefilters(query, prefilter_pairs)

            champion = None
            champion_key = None
            for left_set, right_set in pairs:
                for node, cost in self._join_candidates(
                    query,
                    remaining[left_set],
                    remaining[right_set],
                    left_set,
                    right_set,
                    union_rows[left_set | right_set],
                    prefilter_rows,
                ):
                    if champion is None or cost < champion[1]:
                        champion = (node, cost)
                        champion_key = (left_set, right_set)
            if champion is None:
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
        return next(iter(remaining.values()))
