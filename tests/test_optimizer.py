"""Optimizer tests: plan well-formedness, cost monotonicity, and the
estimate -> plan -> true-cost causal chain the evaluation relies on."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from planner_oracle import OraclePlanner

from repro.core.predicates import Eq, Range
from repro.core.safebound import SafeBound
from repro.db.database import Database
from repro.db.query import Query
from repro.db.schema import Schema
from repro.db.table import Table
from repro.estimators.base import CardinalityEstimator
from repro.estimators.truth import TrueCardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.join_order import Planner
from repro.optimizer.plans import JoinNode, ScanNode, plan_aliases, plan_depth
from repro.optimizer.simulator import PlanSimulator
from repro.service.wire import query_to_wire
from repro.workloads import make_job_light, make_stats_ceb


class _ConstantEstimator(CardinalityEstimator):
    """Returns a fixed value for every subquery (for plan-shape tests)."""

    name = "Constant"

    def __init__(self, value: float) -> None:
        super().__init__()
        self.value = value

    def build(self, db):
        pass

    def estimate(self, query):
        return self.value


def _query(tiny_db, facts=("fact", "fact2"), dim_pred=None):
    q = Query()
    q.add_relation("d", "dim")
    if "fact" in facts:
        q.add_relation("f", "fact")
        q.add_join("f", "dim_id", "d", "id")
    if "fact2" in facts:
        q.add_relation("g", "fact2")
        q.add_join("g", "dim_id", "d", "id")
    if dim_pred is not None:
        q.add_predicate("d", dim_pred)
    return q


@pytest.fixture(scope="module")
def truth(tiny_db):
    t = TrueCardinalityEstimator()
    t.build(tiny_db)
    return t


class TestCostModel:
    def test_hash_join_scales_with_inputs(self):
        cm = CostModel()
        assert cm.hash_join(100, 100, 10) < cm.hash_join(1000, 1000, 10)

    def test_nested_loop_quadratic(self):
        cm = CostModel()
        assert cm.nested_loop(1000, 1000, 0) == pytest.approx(10 * cm.nested_loop(100, 1000, 0))
        assert cm.nested_loop(1000, 1000, 0) == pytest.approx(100 * cm.nested_loop(100, 100, 0))

    def test_inlj_cheap_for_small_outer(self):
        cm = CostModel()
        inlj = cm.index_nested_loop(10, 100_000, 20, 20)
        hash_cost = cm.hash_join(10, 100_000, 20)
        assert inlj < hash_cost

    def test_inlj_expensive_for_huge_outer(self):
        cm = CostModel()
        inlj = cm.index_nested_loop(1_000_000, 100_000, 1_000_000, 1_000_000)
        hash_cost = cm.hash_join(100_000, 1_000_000, 1_000_000)
        assert inlj > hash_cost


class TestPlanner:
    def test_plan_covers_all_relations(self, tiny_db, truth):
        planner = Planner(tiny_db, truth)
        q = _query(tiny_db)
        planned = planner.plan(q)
        assert plan_aliases(planned.plan) == frozenset(q.relations)
        assert planned.planning_seconds > 0
        assert planned.estimate_calls > 0

    def test_single_relation_plan_is_scan(self, tiny_db, truth):
        q = Query()
        q.add_relation("d", "dim")
        planned = Planner(tiny_db, truth).plan(q)
        assert isinstance(planned.plan, ScanNode)

    def test_underestimates_produce_optimistic_plans(self, tiny_db):
        """The mechanism behind the paper's Fig 6: a tiny estimate makes the
        planner pick nested-loop style plans."""
        q = _query(tiny_db)
        tiny = Planner(tiny_db, _ConstantEstimator(1.0)).plan(q)
        huge = Planner(tiny_db, _ConstantEstimator(1e9)).plan(q)

        def methods(node):
            if isinstance(node, ScanNode):
                return []
            return [node.method] + methods(node.left) + methods(node.right)

        assert any(m in ("nlj", "inlj") for m in methods(tiny.plan))
        assert all(m == "hash" for m in methods(huge.plan))

    def test_indexes_disabled_removes_inlj(self, tiny_db):
        q = _query(tiny_db)
        planned = Planner(tiny_db, _ConstantEstimator(1.0), indexes_enabled=False).plan(q)

        def methods(node):
            if isinstance(node, ScanNode):
                return []
            return [node.method] + methods(node.left) + methods(node.right)

        assert "inlj" not in methods(planned.plan)

    def test_greedy_matches_dp_coverage(self, tiny_db, truth):
        q = _query(tiny_db)
        planner = Planner(tiny_db, truth, dp_max_relations=1)  # force greedy
        planned = planner.plan(q)
        assert plan_aliases(planned.plan) == frozenset(q.relations)

    def test_plan_depth(self, tiny_db, truth):
        q = _query(tiny_db)
        planned = Planner(tiny_db, truth).plan(q)
        assert 2 <= plan_depth(planned.plan) <= 3


def _wire_key(query: Query) -> str:
    return json.dumps(query_to_wire(query), sort_keys=True)


class _BatchRecordingEstimator(_ConstantEstimator):
    """Counts batch vs scalar estimator traffic from the planner."""

    def __init__(self, value: float) -> None:
        super().__init__(value)
        self.batch_calls = 0
        self.batches: list[list[Query]] = []
        self.scalar_calls = 0

    def estimate(self, query):
        self.scalar_calls += 1
        return self.value

    def estimate_batch(self, queries):
        self.batch_calls += 1
        self.batches.append(list(queries))
        return [self.value] * len(queries)


class TestBatchEstimation:
    def test_dp_estimates_through_batches_only(self, tiny_db):
        """A DP plan sends its whole subquery lattice (scans, every
        connected subset, every INLJ prefilter) in one ``estimate_batch``
        call, with no subquery twice: a prefilter on an inner alias
        without a predicate is the induced subquery itself."""
        q = _query(tiny_db, dim_pred=Range("year", low=1960, high=1990))
        est = _BatchRecordingEstimator(10.0)
        planned = Planner(tiny_db, est).plan(q)
        assert est.scalar_calls == 0
        assert est.batch_calls == 1
        keys = [_wire_key(sub) for sub in est.batches[0]]
        assert len(set(keys)) == len(keys)
        assert planned.estimate_calls == len(keys)
        # f and g carry no predicate, so their prefilters were folded.
        reference = OraclePlanner(tiny_db, _BatchRecordingEstimator(10.0)).plan(q)
        assert reference.estimate_calls > len(keys)
        assert reference.plan == planned.plan

    def test_disconnected_query_plans_as_reference(self, tiny_db):
        q = Query().add_relation("f", "fact").add_relation("g", "fact2")
        q.add_predicate("g", Eq("tag", 3))
        est = _WireHashEstimator()
        assert Planner(tiny_db, est).plan(q).plan == OraclePlanner(tiny_db, est).plan(q).plan

    def test_greedy_estimates_through_batches_only(self, tiny_db):
        est = _BatchRecordingEstimator(10.0)
        planner = Planner(tiny_db, est, dp_max_relations=1)  # force greedy
        planner.plan(_query(tiny_db))
        assert est.scalar_calls == 0
        # Three relations merge in two rounds; the first carries the scans.
        assert est.batch_calls == 2

    def test_batch_plans_match_scalar_estimator_plans(self, tiny_db, truth):
        """A batch-aware estimator and the scalar default must produce the
        same plan for the same estimates."""
        from repro.optimizer.plans import plan_aliases

        q = _query(tiny_db)
        scalar_plan = Planner(tiny_db, _ConstantEstimator(25.0)).plan(q)
        batch_plan = Planner(tiny_db, _BatchRecordingEstimator(25.0)).plan(q)

        def shape(node):
            if isinstance(node, ScanNode):
                return ("scan", node.alias)
            return (node.method, shape(node.left), shape(node.right))

        assert shape(scalar_plan.plan) == shape(batch_plan.plan)
        assert plan_aliases(batch_plan.plan) == frozenset(q.relations)


class _WireHashEstimator(CardinalityEstimator):
    """Deterministic estimates keyed on a subquery's wire form, spread
    over six orders of magnitude so hash, nested-loop and index joins all
    win somewhere; records every subquery it is asked for."""

    name = "WireHash"

    def __init__(self) -> None:
        super().__init__()
        self.batches: list[list[str]] = []

    def build(self, db):
        pass

    def estimate(self, query):
        digest = hashlib.sha256(_wire_key(query).encode()).digest()
        return 10.0 ** (int.from_bytes(digest[:4], "big") / 2**32 * 6.0)

    def estimate_batch(self, queries):
        self.batches.append([_wire_key(q) for q in queries])
        return [self.estimate(q) for q in queries]


class _ProbeRecordingPlanner(Planner):
    """Records the INLJ prefilter keys the planner requests."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.prefilter_keys: set[tuple[frozenset[str], str]] = set()

    def _estimate_requests(self, query, requests):
        self.prefilter_keys.update(key for key in requests if isinstance(key, tuple))
        return super()._estimate_requests(query, requests)


def _graph_db() -> Database:
    """Four tables of different sizes; ``k0``/``k1`` are indexed join
    columns, ``v`` is a filter column with no index."""
    schema = Schema()
    db = Database(schema)
    for t, rows in enumerate((10, 400, 3000, 60)):
        schema.add_table(f"t{t}", join_columns=["k0", "k1"], filter_columns=["v"])
        col = np.arange(rows)
        db.add_table(Table(f"t{t}", {"k0": col, "k1": col % 7, "v": col % 5}))
    return db


@st.composite
def _join_graphs(draw):
    """A connected join graph of 1-6 aliases: a random spanning tree plus
    up to two extra edges, join columns drawn from indexed and unindexed
    ones, and a predicate on a random subset of aliases."""
    n = draw(st.integers(1, 6))
    q = Query()
    for i in range(n):
        q.add_relation(f"a{i}", f"t{draw(st.integers(0, 3))}")
    columns = st.sampled_from(["k0", "k1", "v"])
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    if n >= 3:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges += [e for e in draw(st.lists(pairs, max_size=2)) if e[0] != e[1]]
    for a, b in edges:
        q.add_join(f"a{a}", draw(columns), f"a{b}", draw(columns))
    for i in range(n):
        if draw(st.booleans()):
            q.add_predicate(f"a{i}", Eq("v", draw(st.integers(0, 4))))
    return q


def _assert_plans_match_reference(db, query, estimator, **kwargs):
    planner = _ProbeRecordingPlanner(db, estimator, **kwargs)
    reference = OraclePlanner(db, estimator, **kwargs)
    planned = planner.plan(query)
    sent = {key for batch in estimator.batches for key in batch}
    estimator.batches.clear()
    expected = reference.plan(query)
    assert planned.plan == expected.plan
    assert planner.prefilter_keys == reference.prefilter_keys
    assert sent == {key for batch in estimator.batches for key in batch}
    estimator.batches.clear()
    return planned


class TestPlannerDifferential:
    """The one-call lattice planner against the per-level reference
    (``tests/planner_oracle.py``): identical plan trees, methods, aliases
    and ``est_rows`` included."""

    @settings(max_examples=150, deadline=None)
    @given(query=_join_graphs())
    def test_random_join_graphs_match_reference(self, query):
        db = _graph_db()
        est = _WireHashEstimator()
        planned = _assert_plans_match_reference(db, query, est)
        Planner(db, est).plan(query)
        assert len(est.batches) == 1
        assert len(set(est.batches[0])) == len(est.batches[0]) == planned.estimate_calls
        est.batches.clear()
        _assert_plans_match_reference(db, query, est, indexes_enabled=False)
        _assert_plans_match_reference(db, query, est, dp_max_relations=1)

    @pytest.fixture(scope="class")
    def workloads(self, small_imdb, small_stats):
        return {
            "JOB-Light": make_job_light(db=small_imdb, num_queries=20, seed=3),
            "STATS-CEB": make_stats_ceb(db=small_stats, num_queries=30, seed=7),
        }

    @pytest.mark.parametrize("workload", ["JOB-Light", "STATS-CEB"])
    @pytest.mark.parametrize("estimator", [SafeBound, TrueCardinalityEstimator])
    def test_workload_plans_match_reference(self, workloads, workload, estimator):
        wl = workloads[workload]
        est = estimator()
        est.build(wl.db)
        for query in wl.queries:
            planned = Planner(wl.db, est).plan(query)
            assert planned.plan == OraclePlanner(wl.db, est).plan(query).plan, query


class TestSimulator:
    def test_runtime_positive_and_deterministic(self, tiny_db, truth):
        q = _query(tiny_db, dim_pred=Range("year", low=1960, high=1990))
        planned = Planner(tiny_db, truth).plan(q)
        sim = PlanSimulator(tiny_db, truth)
        r1 = sim.execute(q, planned.plan)
        r2 = sim.execute(q, planned.plan)
        assert r1 == r2 > 0

    def test_truth_plans_never_lose_badly(self, tiny_db, truth):
        """Plans from exact cardinalities should be at least as good as
        plans from a pathological estimator, across several queries."""
        sim = PlanSimulator(tiny_db, truth)
        rng = np.random.default_rng(3)
        worse = 0
        for i in range(10):
            lo = int(rng.integers(1950, 2000))
            q = _query(tiny_db, dim_pred=Range("year", low=lo, high=lo + 15))
            good = Planner(tiny_db, truth).plan(q)
            bad = Planner(tiny_db, _ConstantEstimator(1.0)).plan(q)
            if sim.execute(q, good.plan) > sim.execute(q, bad.plan) * 1.01:
                worse += 1
        assert worse <= 2  # truth plans win (almost) always

    def test_nlj_charged_true_quadratic_cost(self, tiny_db, truth):
        q = _query(tiny_db, facts=("fact",))
        scan_f = ScanNode(est_rows=1.0, alias="f", table="fact")
        scan_d = ScanNode(est_rows=1.0, alias="d", table="dim")
        nlj = JoinNode(1.0, scan_f, scan_d, "nlj")
        hash_join = JoinNode(1.0, scan_f, scan_d, "hash")
        sim = PlanSimulator(tiny_db, truth)
        assert sim.execute(q, nlj) > sim.execute(q, hash_join) * 10
