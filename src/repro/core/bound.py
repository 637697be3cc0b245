"""The Functional Degree Sequence Bound (Algorithm 2 of the paper).

Given one (compressed, possibly predicate-conditioned) CDS per join column
per relation, computes a guaranteed upper bound on the query's output
cardinality without materialising the worst-case instance.

The query plan alternates two steps over the relation/variable incidence
tree (Sec 3.5):

* **alpha**: intersect unary relations — multiply their step functions;
* **beta**: star-join a relation with unary relations on its non-parent
  variables and project onto the parent variable —
  ``f_B(i) = f_R.X0(i) * prod_l f_Al( F_l^{-1}( F_0(i) ) )``.

Cyclic queries take the minimum bound over spanning trees of the incidence
graph (Sec 3.6); dropping an incidence edge simply means the relation stops
participating in that join variable, which only weakens the query, so the
result is still an upper bound.

The incidence structure, forest decomposition and spanning-tree set depend
only on the query *shape* (relations + join columns), not on predicates.
They are compiled once per shape into a plain-array :class:`CompiledSkeleton`
and cached, so the optimizer's DP — which bounds every connected subquery,
and re-encounters the same shapes across predicate instantiations — pays
only for the piecewise arithmetic on the hot path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import networkx as nx
import numpy as np

from ..db.query import Query
from ..obs.metrics import inc as _metric_inc
from ..obs.tracing import span as _span
from .arraykernel import evaluate_bounds
from .cache import LRUCache
from .piecewise import PiecewiseConstant, PiecewiseLinear

__all__ = [
    "CompiledSkeleton",
    "FdsbEngine",
    "compile_skeleton",
    "worst_case_instance_column",
]


def worst_case_instance_column(frequencies: np.ndarray) -> np.ndarray:
    """Materialise one column of the worst-case instance W(s) (Fig 2).

    ``frequencies`` is the degree sequence (descending); the returned array
    assigns the value ``r`` (1-based rank) to ``frequencies[r-1]``
    consecutive tuple positions.  Used by tests to validate the FDSB against
    a direct execution on W(s).
    """
    frequencies = np.asarray(frequencies, dtype=np.int64)
    return np.repeat(np.arange(1, len(frequencies) + 1, dtype=np.int64), frequencies)


@dataclass(frozen=True)
class _SkeletonEdge:
    """One collapsed relation/variable incidence.

    ``columns`` holds every join column through which the relation touches
    the variable; which one wins (the smaller conditioned total, Sec 3.6,
    multi-column joins, method 2) depends on predicates, so the choice is
    deferred to bound time.
    """

    rel: int
    var: int
    alias: str
    columns: tuple[str, ...]


@dataclass(frozen=True)
class _TreePlan:
    """A rooted evaluation schedule for one spanning tree / forest.

    ``children[node]`` lists ``(child_node, edge_index)`` pairs in the
    deterministic (sorted-node) order the message recursion consumes;
    ``roots`` holds the root relation of every connected component.
    """

    children: tuple[tuple[tuple[int, int], ...], ...]
    roots: tuple[int, ...]


@dataclass(frozen=True)
class CompiledSkeleton:
    """Predicate-independent structure of one query shape.

    Relation nodes are ``0 .. len(aliases)-1`` (sorted alias order);
    variable nodes follow.  ``plans`` has a single entry for Berge-acyclic
    shapes and one entry per enumerated spanning tree otherwise.
    """

    aliases: tuple[str, ...]
    num_vars: int
    edges: tuple[_SkeletonEdge, ...]
    plans: tuple[_TreePlan, ...]
    is_forest: bool


def _build_plan(
    num_nodes: int, edges: tuple[_SkeletonEdge, ...], edge_subset: list[int]
) -> _TreePlan:
    """Root every component of the edge-induced forest at its least relation
    node and record the child order the recursion will follow."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
    for ei in edge_subset:
        edge = edges[ei]
        adjacency[edge.rel].append((edge.var, ei))
        adjacency[edge.var].append((edge.rel, ei))
    for neighbors in adjacency:
        neighbors.sort()
    children: list[tuple[tuple[int, int], ...]] = [()] * num_nodes
    roots: list[int] = []
    seen = [False] * num_nodes
    # Relation ids precede variable ids, so the first unseen node of every
    # component is its least relation node — the root the recursion expects.
    for start in range(num_nodes):
        if seen[start]:
            continue
        roots.append(start)
        seen[start] = True
        stack = [start]
        while stack:
            node = stack.pop()
            kids = []
            for nbr, ei in adjacency[node]:
                if not seen[nbr]:
                    seen[nbr] = True
                    kids.append((nbr, ei))
                    stack.append(nbr)
            children[node] = tuple(kids)
    return _TreePlan(tuple(children), tuple(roots))


def compile_skeleton(query: Query, max_spanning_trees: int = 64) -> CompiledSkeleton:
    """Compile the query's incidence structure into plain arrays.

    Parallel incidences (one relation touching a variable through several
    columns) collapse to a single edge carrying all candidate columns, in
    the multigraph's insertion order so bound-time selection matches the
    uncompiled engine's first-smaller-total rule.
    """
    aliases = tuple(sorted(query.relations))
    rel_id = {alias: i for i, alias in enumerate(aliases)}
    num_rels = len(aliases)
    variables = query.variables()
    num_nodes = num_rels + len(variables)

    edge_columns: dict[tuple[int, int], list[str]] = {}
    for var_index, variable in enumerate(variables):
        var_node = num_rels + var_index
        for ref in sorted(variable):
            columns = edge_columns.setdefault((rel_id[ref.alias], var_node), [])
            if ref.column not in columns:
                columns.append(ref.column)
    edges = tuple(
        _SkeletonEdge(rel, var, aliases[rel], tuple(columns))
        for (rel, var), columns in edge_columns.items()
    )

    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    for i, edge in enumerate(edges):
        graph.add_edge(edge.rel, edge.var, index=i)
    is_forest = (
        len(edges) == num_nodes - nx.number_connected_components(graph)
    )
    if is_forest:
        plans = (_build_plan(num_nodes, edges, list(range(len(edges)))),)
    else:
        plans = tuple(
            _build_plan(
                num_nodes,
                edges,
                [graph.edges[u, v]["index"] for u, v in tree.edges()],
            )
            for tree in itertools.islice(
                nx.SpanningTreeIterator(graph), max_spanning_trees
            )
        )
    return CompiledSkeleton(
        aliases=aliases,
        num_vars=len(variables),
        edges=edges,
        plans=plans,
        is_forest=is_forest,
    )


class FdsbEngine:
    """Evaluates the FDSB for a query given per-join-column CDSs.

    Parameters
    ----------
    max_spanning_trees:
        Upper limit on the number of spanning trees enumerated for cyclic
        queries; the bound is the minimum over the trees seen.
    skeleton_cache_size:
        Capacity of the LRU cache of compiled query skeletons.

    Batches are evaluated by one of two bit-identical kernels, picked by
    batch size: the vectorized array-program engine
    (``core.arraykernel``) for large batches, the per-object piecewise
    recursion for small ones.  The object recursion is also the
    differential oracle (tests/test_array_kernel.py): thresholds no batch
    can reach (``math.inf``) pin an engine to it, thresholds of 0 pin it
    to the array engine.
    """

    # Minimum batch "work" (sum over items of plans x edges) for the array
    # kernel to pay off: below it, the batch-wide program's fixed costs
    # (value numbering, packing each distinct CDS, one kernel call per
    # stage) outweigh the vectorization win — a one- or two-query batch,
    # such as a JOB-Light point request, is the common case.  A planner's
    # lattice batch is mostly far above it.  Measured on JOB-Light planner
    # lattices: the object kernel wins below work 16 and the array kernel
    # from 16 up; a warm one-query JOB-Light bound takes about 0.4 ms on
    # the object kernel against 0.9 ms on the array kernel.  A JOB-Light
    # query's work is 2-5.  Both kernels are bit-identical, so dispatch
    # only affects latency, never the bounds.
    ARRAY_MIN_WORK = 64
    # Same idea for the conditioning stage upstream of the recursion:
    # minimum number of cache-missing (table, effective predicate) pairs in
    # a batch for SafeBound._prepare_conditioning to run the CSE'd batched
    # conditioning kernels; below it, the per-object path (which fills the
    # same caches with the same values) has lower fixed cost.  The same
    # floor gates the batched truncation of conditioned join columns.
    ARRAY_MIN_CONDITION = 2

    def __init__(
        self,
        max_spanning_trees: int = 64,
        skeleton_cache_size: int = 4096,
    ) -> None:
        self.max_spanning_trees = max_spanning_trees
        self.array_min_work = self.ARRAY_MIN_WORK
        self.array_min_condition = self.ARRAY_MIN_CONDITION
        self._skeletons = LRUCache(skeleton_cache_size)

    # ------------------------------------------------------------------
    def compile(self, query: Query) -> CompiledSkeleton:
        """The compiled skeleton of ``query``'s shape, cached across calls
        (and across the optimizer DP's repeated subquery shapes)."""
        key = query.skeleton_key()
        skeleton = self._skeletons.get(key)
        if skeleton is None:
            with _span("bound.compile") as sp:
                skeleton = compile_skeleton(query, self.max_spanning_trees)
                sp.set(relations=len(skeleton.aliases), plans=len(skeleton.plans))
            _metric_inc("skeleton.compiles")
            self._skeletons[key] = skeleton
        else:
            _metric_inc("skeleton.cache_hits")
        return skeleton

    def bound(
        self,
        query: Query,
        column_cds: dict[tuple[str, str], PiecewiseLinear],
        alias_cardinality: dict[str, float],
    ) -> float:
        """Upper bound for ``query``.

        ``column_cds`` maps ``(alias, column)`` to the conditioned CDS of
        that join column; ``alias_cardinality`` gives the single-table
        cardinality bound of every alias (used for join-less relations and
        for truncating inconsistent totals).
        """
        return self.bound_compiled(self.compile(query), column_cds, alias_cardinality)

    # ------------------------------------------------------------------
    def bound_compiled(
        self,
        skeleton: CompiledSkeleton,
        column_cds: dict[tuple[str, str], PiecewiseLinear],
        alias_cardinality: dict[str, float],
    ) -> float:
        """Upper bound for a query of ``skeleton``'s shape with the given
        predicate instantiation."""
        return float(min(self.plan_bounds(skeleton, column_cds, alias_cardinality)))

    def plan_bounds(
        self,
        skeleton: CompiledSkeleton,
        column_cds: dict[tuple[str, str], PiecewiseLinear],
        alias_cardinality: dict[str, float],
    ) -> list[float]:
        """The per-spanning-tree-plan bounds whose minimum is the query
        bound — one entry per ``skeleton.plans`` element.  For acyclic
        shapes the list has one entry; for cyclic shapes it is the
        observability twin of the paper's spanning-tree analysis, showing
        which tree drives (and which trees slacken) the reported bound."""
        edge_cds = self._select_edge_cds(skeleton, column_cds)
        cards = [
            float(alias_cardinality.get(alias, np.inf)) for alias in skeleton.aliases
        ]
        bounds: list[float] = []
        for plan in skeleton.plans:
            total = 1.0
            for root in plan.roots:
                total *= self._count_at_root(plan.children, root, edge_cds, cards)
                if total == 0.0:
                    break
            bounds.append(float(total))
        return bounds

    # ------------------------------------------------------------------
    @staticmethod
    def _select_edge_cds(
        skeleton: CompiledSkeleton,
        column_cds: dict[tuple[str, str], PiecewiseLinear],
    ) -> list[PiecewiseLinear]:
        """Pick the CDS per skeleton edge: for multi-column incidences, the
        candidate with the smaller conditioned total (Sec 3.6, method 2)."""
        edge_cds: list[PiecewiseLinear] = []
        for edge in skeleton.edges:
            best = column_cds[(edge.alias, edge.columns[0])]
            for column in edge.columns[1:]:
                candidate = column_cds[(edge.alias, column)]
                if candidate.total < best.total:
                    best = candidate
            edge_cds.append(best)
        return edge_cds

    def bound_batch_compiled(
        self,
        items: list[
            tuple[
                CompiledSkeleton,
                dict[tuple[str, str], PiecewiseLinear],
                dict[str, float],
            ]
        ],
    ) -> list[float]:
        """Upper bounds for a heterogeneous batch of compiled queries.

        Each item is ``(skeleton, column_cds, alias_cardinality)`` as for
        :meth:`bound_compiled`.  Both kernels return bit-identical bounds,
        so dispatch is by cost alone.  A batch whose work (sum of plans x
        edges) reaches ``array_min_work`` is lowered — every query,
        spanning-tree plan and skeleton — into one value-numbered array
        program, so a message shared by several queries or plans is
        computed once, and each stage runs as one segmented kernel call;
        identical query instantiations (same conditioned CDSs and
        cardinalities, the common case for a serving micro-batch) share a
        row.  Smaller batches (a query or two) run the per-object
        recursion, whose per-call overhead is lower.
        """
        if (
            sum(
                len(skeleton.plans) * max(len(skeleton.edges), 1)
                for skeleton, _, _ in items
            )
            >= self.array_min_work
        ):
            _metric_inc("bound.array_queries", len(items))
            with _span("bound.array_eval", items=len(items)):
                prepared = [
                    (
                        skeleton,
                        self._select_edge_cds(skeleton, column_cds),
                        [float(cards.get(a, np.inf)) for a in skeleton.aliases],
                    )
                    for skeleton, column_cds, cards in items
                ]
                return [float(b) for b in evaluate_bounds(prepared)]
        _metric_inc("bound.object_queries", len(items))
        with _span("bound.object_eval", items=len(items)):
            return [
                self.bound_compiled(skeleton, column_cds, cards)
                for skeleton, column_cds, cards in items
            ]

    # ------------------------------------------------------------------
    def _count_at_root(
        self,
        children: tuple[tuple[tuple[int, int], ...], ...],
        root: int,
        edge_cds: list[PiecewiseLinear],
        cards: list[float],
    ) -> float:
        """Integrate the product of child messages over tuple positions.

        For the root relation R with unary children ``A_l`` on variables
        ``X_l``: ``bound = integral over p in (0, |R|] of
        prod_l f_Al(F_l^{-1}(p))`` — the position-based form of the final
        beta step, which avoids designating a root column.
        """
        kids = children[root]
        if not kids:
            return cards[root]
        cardinality = min(cards[root], min(edge_cds[ei].total for _, ei in kids))
        weight = PiecewiseConstant.constant(1.0, cardinality)
        for var_node, ei in kids:
            message = self._var_message(children, var_node, edge_cds)
            if message is None:
                continue
            composed = message.compose_with(edge_cds[ei].inverse())
            weight = weight.multiply(composed)
        return weight.integral()

    def _var_message(
        self,
        children: tuple[tuple[tuple[int, int], ...], ...],
        var_node: int,
        edge_cds: list[PiecewiseLinear],
    ) -> PiecewiseConstant | None:
        """Alpha step: multiply the messages of all child relations."""
        combined: PiecewiseConstant | None = None
        for rel_node, ei in children[var_node]:
            msg = self._rel_message(children, rel_node, ei, edge_cds)
            combined = msg if combined is None else combined.multiply(msg)
        return combined

    def _rel_message(
        self,
        children: tuple[tuple[tuple[int, int], ...], ...],
        rel_node: int,
        parent_edge: int,
        edge_cds: list[PiecewiseLinear],
    ) -> PiecewiseConstant:
        """Beta step: star-join ``rel_node`` with its child messages and
        project onto the parent variable (Algorithm 2, line 9)."""
        parent_cds = edge_cds[parent_edge]
        result = parent_cds.delta()
        for var_node, ei in children[rel_node]:
            message = self._var_message(children, var_node, edge_cds)
            if message is None:
                continue
            # i -> F_l^{-1}( F_0(i) ): rank in the child column of the
            # worst-case tuple holding parent rank i.
            inner = edge_cds[ei].inverse().compose(parent_cds)
            result = result.multiply(message.compose_with(inner))
        return result
