"""Differential suite: the array kernel must be bit-identical to the
object kernel.

The vectorized array-program engine (core/arraykernel.py) re-implements
the whole online bound path; its contract is *exact* float equality with
the per-object piecewise recursion — not approximate agreement — so any
reordering of floating-point operations is a bug this suite must catch.

Three layers of coverage:

* workload differential: ``estimate_batch`` pinned to each side of the
  engine's size-based dispatch (``kernel_oracle``) on stats-CEB,
  JOB-light, JOB-light-ranges and TPC-H sample workloads (shared
  statistics, exact equality per query; the object side must never run
  a batched kernel);
* the server path: an ``EstimationServer`` micro-batching an array-kernel
  estimator returns exactly the object kernel's bounds;
* op-level hypothesis differential: every batched kernel against its
  object twin on generated piecewise inputs (breakpoint arrays compared
  elementwise with ``==``);
* primitive-level hypothesis differential: the sorted-key segmented
  search and merge against the bisection references in ``kernel_oracle``
  and per-segment ``np.searchsorted``, on ragged inputs with ties, empty
  and single-point segments, signed zeros and infinities.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_oracle import (
    array_side,
    bisect_merge_unique,
    bisect_searchsorted,
    object_path_only,
    object_side,
)

from repro.core import arraykernel as ak
from repro.core import piecewise as pw
from repro.core.bound import FdsbEngine
from repro.core.predicates import Eq
from repro.core.safebound import SafeBound
from repro.db.query import Query
from repro.obs.metrics import metrics_installed
from repro.service.server import EstimationServer
from repro.workloads import (
    make_job_light,
    make_job_light_ranges,
    make_stats_ceb,
    make_tpch,
)


def exact_equal(obj_func, ragged: ak.Ragged, i: int) -> None:
    """Assert segment ``i`` equals the object result, element for element."""
    xs, ys = ragged.segment_arrays(i)
    assert len(obj_func.xs) == len(xs)
    assert np.array_equal(obj_func.xs, xs)
    assert np.array_equal(obj_func.ys, ys)


# ----------------------------------------------------------------------
# Workload differential through estimate_batch and the server
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def workload_pairs(small_imdb, small_stats):
    """(workload, array-side SafeBound, object-side SafeBound) per
    bundled workload generator; statistics built once and shared, so the
    two estimators differ *only* in their dispatch thresholds."""
    from repro.workloads import make_tpch_db

    stats_wl = make_stats_ceb(db=small_stats, num_queries=30, seed=7)
    jl = make_job_light(db=small_imdb, num_queries=20, seed=3)
    jlr = make_job_light_ranges(db=small_imdb, num_queries=20, seed=3)
    tpch = make_tpch(scale_factor=0.02, num_queries=15, seed=9)

    pairs = {}
    built: dict[int, SafeBound] = {}
    for key, wl in (
        ("STATS-CEB", stats_wl),
        ("JOB-Light", jl),
        ("JOB-LightRanges", jlr),
        ("TPC-H", tpch),
    ):
        arr = built.get(id(wl.db))
        if arr is None:
            # Every test below exercises the array engine, batch size
            # notwithstanding.
            arr = array_side(SafeBound())
            arr.build(wl.db)
            built[id(wl.db)] = arr
        obj = object_side(SafeBound())
        obj.stats = arr.stats  # the load()-style attach: same statistics
        pairs[key] = (wl, arr, obj)
    return pairs


@pytest.mark.parametrize(
    "name", ["STATS-CEB", "JOB-Light", "JOB-LightRanges", "TPC-H"]
)
class TestWorkloadDifferential:
    def test_estimate_batch_bit_identical(self, workload_pairs, name):
        wl, arr, obj = workload_pairs[name]
        a = arr.estimate_batch(wl.queries)
        with object_path_only():
            o = obj.estimate_batch(wl.queries)
        assert len(a) == len(wl.queries)
        for qi, (ab, ob) in enumerate(zip(a, o)):
            assert ab == ob, f"{name} query {wl.queries[qi].name}: {ab!r} != {ob!r}"

    def test_single_bound_matches_batch(self, workload_pairs, name):
        wl, arr, obj = workload_pairs[name]
        batch = arr.estimate_batch(wl.queries[:5])
        with object_path_only():
            singles = [obj.bound(q) for q in wl.queries[:5]]
        for q, b, o in zip(wl.queries[:5], batch, singles):
            assert arr.bound(q) == b == o

    def test_server_path_bit_identical(self, workload_pairs, name):
        wl, arr, obj = workload_pairs[name]
        with object_path_only():
            expected = obj.estimate_batch(wl.queries)
        with EstimationServer(arr, max_batch=8) as server:
            futures = [server.submit(q) for q in wl.queries]
            served = [f.result(30.0) for f in futures]
        assert served == expected


def test_shuffled_batch_order_invariant(workload_pairs):
    """Batch composition must not leak between queries: a query's bound is
    the same alone, in order, and in a shuffled mixed batch."""
    wl, arr, obj = workload_pairs["STATS-CEB"]
    base = arr.estimate_batch(wl.queries)
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(wl.queries))
    shuffled = arr.estimate_batch([wl.queries[i] for i in perm])
    for pos, qi in enumerate(perm):
        assert shuffled[pos] == base[qi]


def test_duplicate_queries_dedupe_to_same_bounds(workload_pairs):
    wl, arr, obj = workload_pairs["JOB-Light"]
    tripled = [q for q in wl.queries for _ in range(3)]
    bounds = arr.estimate_batch(tripled)
    with object_path_only():
        expected = obj.estimate_batch(wl.queries)
    for i, q in enumerate(wl.queries):
        assert bounds[3 * i] == bounds[3 * i + 1] == bounds[3 * i + 2] == expected[i]


@pytest.mark.parametrize(
    "name", ["STATS-CEB", "JOB-Light", "JOB-LightRanges", "TPC-H"]
)
def test_conditioning_cache_cold_and_warm_bit_identical(workload_pairs, name):
    """The conditioning LRU must not change a single bit: bounds are
    equal cold (every pair conditioned by the batch kernels) and warm
    (every pair a cache hit, nothing recomputed)."""
    wl, arr, obj = workload_pairs[name]
    sc = array_side(SafeBound())
    sc.stats = arr.stats
    with object_path_only():
        expected = obj.estimate_batch(wl.queries)
    assert sc.estimate_batch(wl.queries) == expected  # cold: fills the LRU
    cold = sc.conditioning_cache_stats()
    assert cold["misses"] > 0
    assert sc.estimate_batch(wl.queries) == expected  # warm: LRU hits only
    warm = sc.conditioning_cache_stats()
    assert warm["misses"] == cold["misses"]
    assert warm["hits"] > cold["hits"]


def test_object_side_truncates_on_the_object_path(tiny_db):
    """A conditioned relation cached by one query and reused by the next
    on another join column still gets that column truncated by the object
    path on the oracle side, never by the batched truncation kernel."""
    arr = array_side(SafeBound())
    arr.build(tiny_db)
    obj = object_side(SafeBound())
    obj.stats = arr.stats
    score = Eq("score", 3)
    alone = Query().add_relation("f", "fact").add_predicate("f", score)
    # ``tag`` is not a declared join column: its fallback CDS counts every
    # row, so the single-table bound of ``fact`` under ``score`` cuts it.
    joined = (
        Query()
        .add_relation("f", "fact")
        .add_relation("g", "fact2")
        .add_join("f", "tag", "g", "tag")
        .add_predicate("f", score)
    )
    with object_path_only():
        bounds = [obj.bound(alone), obj.bound(joined)]
    with metrics_installed() as registry:
        assert arr.estimate_batch([alone, joined]) == bounds
    assert registry.snapshot()["conditioning.truncations"] > 0


def test_default_dispatch_picks_kernel_by_batch_size(workload_pairs):
    """With the shipped thresholds a one-query batch stays on the object
    path and a large batch runs the array kernels, with the same bounds."""
    wl, arr, _ = workload_pairs["STATS-CEB"]
    sb = SafeBound()
    sb.stats = arr.stats

    def work(query):
        skeleton = sb._engine.compile(query)
        return len(skeleton.plans) * max(len(skeleton.edges), 1)

    small = min(wl.queries, key=work)
    assert work(small) < FdsbEngine.ARRAY_MIN_WORK <= sum(map(work, wl.queries))
    with metrics_installed() as registry:
        single = sb.bound(small)
    snap = registry.snapshot()
    assert snap["bound.object_queries"] == 1
    assert snap.get("bound.array_queries", 0) == 0
    with metrics_installed() as registry:
        batch = sb.estimate_batch(wl.queries)
    snap = registry.snapshot()
    assert snap["bound.array_queries"] == len(wl.queries)
    assert snap.get("bound.object_queries", 0) == 0
    assert batch[wl.queries.index(small)] == single
    assert batch == arr.estimate_batch(wl.queries)


# ----------------------------------------------------------------------
# Op-level differential on hypothesis-generated piecewise inputs
# ----------------------------------------------------------------------
# Breakpoint coordinates: modest magnitudes, including awkward fractions;
# strictly increasing xs come from cumulative positive steps.
steps = st.floats(
    min_value=1e-6, max_value=50.0, allow_nan=False, allow_infinity=False
)
values = st.floats(
    min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False
)


@st.composite
def linear_cds(draw, max_points: int = 8):
    """A valid nondecreasing CDS-like PiecewiseLinear starting at (0, 0)."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    dx = draw(st.lists(steps, min_size=n, max_size=n))
    dy = draw(st.lists(values, min_size=n, max_size=n))
    xs = np.concatenate(([0.0], np.cumsum(dx)))
    ys = np.concatenate(([0.0], np.cumsum(dy)))
    return pw.PiecewiseLinear(xs, ys)


@st.composite
def linear_any(draw, max_points: int = 8):
    """A valid (possibly non-monotone) PiecewiseLinear."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    dx = draw(st.lists(steps, min_size=n - 1, max_size=n - 1)) if n > 1 else []
    ys = draw(st.lists(values, min_size=n, max_size=n))
    xs = np.concatenate(([0.0], np.cumsum(dx))) if n > 1 else np.array([0.0])
    return pw.PiecewiseLinear(xs, np.array(ys))


@st.composite
def batches(draw, strategy, min_size=1, max_size=6):
    return draw(st.lists(strategy, min_size=min_size, max_size=max_size))


class TestOpDifferential:
    @given(batches(linear_cds()))
    def test_inverse(self, funcs):
        r = ak.batch_inverse(ak.Ragged.from_functions(funcs))
        for i, f in enumerate(funcs):
            exact_equal(f.inverse(), r, i)

    @given(batches(linear_cds()))
    def test_delta(self, funcs):
        r = ak.batch_delta(ak.Ragged.from_functions(funcs))
        for i, f in enumerate(funcs):
            exact_equal(f.delta(), r, i)

    @given(batches(st.tuples(linear_cds(), linear_cds())))
    def test_compose(self, pairs):
        outer = ak.batch_inverse(ak.Ragged.from_functions([a for a, _ in pairs]))
        inner = ak.Ragged.from_functions([b for _, b in pairs])
        r = ak.batch_compose(outer, inner)
        for i, (a, b) in enumerate(pairs):
            exact_equal(a.inverse().compose(b), r, i)

    @given(batches(st.tuples(linear_cds(), linear_cds())))
    def test_compose_with(self, pairs):
        pcs = [a.delta() for a, _ in pairs]
        inner = ak.Ragged.from_functions([b for _, b in pairs])
        r = ak.batch_compose_with(ak.Ragged.from_functions(pcs), inner)
        for i, (pc, (_, b)) in enumerate(zip(pcs, pairs)):
            exact_equal(pc.compose_with(b), r, i)

    @given(batches(st.tuples(linear_cds(), linear_cds())))
    def test_multiply_and_integral(self, pairs):
        a_pc = [a.delta() for a, _ in pairs]
        b_pc = [b.delta() for _, b in pairs]
        r = ak.batch_multiply(
            ak.Ragged.from_functions(a_pc), ak.Ragged.from_functions(b_pc)
        )
        sums = ak.batch_integral(r)
        for i, (pa, pb) in enumerate(zip(a_pc, b_pc)):
            product = pa.multiply(pb)
            exact_equal(product, r, i)
            assert product.integral() == sums[i]

    @given(batches(st.tuples(linear_cds(), linear_cds(), linear_cds())))
    @settings(max_examples=50)
    def test_pointwise_family(self, triples):
        parts = [
            ak.Ragged.from_functions([t[k] for t in triples]) for k in range(3)
        ]
        for batched, obj in (
            (ak.batch_pointwise_min, pw.pointwise_min),
            (ak.batch_pointwise_max, pw.pointwise_max),
            (ak.batch_pointwise_sum, pw.pointwise_sum),
            (ak.batch_concave_max, pw.concave_max),
        ):
            r = batched(parts)
            for i, t in enumerate(triples):
                exact_equal(obj(list(t)), r, i)

    @given(batches(linear_any(max_points=12)))
    def test_concave_envelope(self, funcs):
        r = ak.batch_concave_envelope(ak.Ragged.from_functions(funcs))
        for i, f in enumerate(funcs):
            exact_equal(pw.concave_envelope(f), r, i)

    @given(st.lists(st.floats(min_value=-10, max_value=1e4), min_size=1, max_size=6))
    def test_constant(self, ends):
        arr = np.array(ends)
        r = ak.batch_constant(arr)
        for i, end in enumerate(ends):
            exact_equal(pw.PiecewiseConstant.constant(1.0, end), r, i)


class TestOpEdgeCases:
    def test_empty_and_single_point_segments(self):
        empty = pw.PiecewiseConstant.empty()
        one = pw.PiecewiseLinear(np.array([2.0]), np.array([3.0]))
        two = pw.PiecewiseLinear(np.array([0.0, 4.0]), np.array([0.0, 8.0]))
        pc = two.delta()

        r = ak.batch_multiply(
            ak.Ragged.from_functions([empty, pc, empty]),
            ak.Ragged.from_functions([pc, empty, empty]),
        )
        for i in range(3):
            exact_equal(pw.PiecewiseConstant.empty(), r, i)
        assert list(ak.batch_integral(r)) == [0.0, 0.0, 0.0]

        # compose_with early-outs: empty step function / degenerate inner.
        cw = ak.batch_compose_with(
            ak.Ragged.from_functions([empty, pc, pc]),
            ak.Ragged.from_functions([two, one, two]),
        )
        exact_equal(empty.compose_with(two), cw, 0)
        exact_equal(pc.compose_with(one), cw, 1)
        exact_equal(pc.compose_with(two), cw, 2)

        inv = ak.batch_inverse(ak.Ragged.from_functions([one, two]))
        exact_equal(one.inverse(), inv, 0)
        exact_equal(two.inverse(), inv, 1)

    def test_dedupe_tail_corner(self):
        # Breakpoints closer than _EPS at the domain end exercise the
        # keep-the-last-breakpoint rule of _dedupe_breakpoints.
        f = pw.PiecewiseLinear(
            np.array([0.0, 1.0, 1.0 + 5e-10]), np.array([0.0, 2.0, 2.0 + 1e-10])
        )
        g = pw.PiecewiseLinear(np.array([0.0, 2.0]), np.array([0.0, 1.0]))
        r = ak.batch_compose(
            ak.Ragged.from_functions([f.inverse()]), ak.Ragged.from_functions([g])
        )
        exact_equal(f.inverse().compose(g), r, 0)

    def test_zero_cardinality_and_break_semantics(self):
        # An empty relation must bound to exactly 0.0 on both kernels —
        # including cross products, where the object path breaks out of the
        # root product at the first zero (the array path must replicate the
        # break, not multiply 0 by a possibly-infinite later factor).
        cds = {
            ("a", "x"): pw.PiecewiseLinear(np.array([0.0, 3.0]), np.array([0.0, 9.0])),
            ("b", "x"): pw.PiecewiseLinear(np.array([0.0, 2.0]), np.array([0.0, 0.0])),
        }
        q = Query().add_relation("a", "A").add_relation("b", "B")
        q.add_join("a", "x", "b", "x")
        lone = Query().add_relation("a", "A").add_relation("c", "C")
        for min_work in (math.inf, 0):  # object path, then array kernels
            engine = FdsbEngine()
            engine.array_min_work = min_work
            skeleton = engine.compile(q)
            items = [(skeleton, cds, {"a": 9.0, "b": 0.0})]
            assert engine.bound_batch_compiled(items) == [0.0]
            # Disconnected shape: zero single-table card zeroes the product.
            sk2 = engine.compile(lone)
            assert engine.bound_batch_compiled([(sk2, {}, {"a": 0.0, "c": 123.0})]) == [0.0]


# ----------------------------------------------------------------------
# Segmented search and merge against the loop references
# ----------------------------------------------------------------------
# A small pool makes ties within a segment common; signed zeros and
# infinities sit in it beside arbitrary finite floats.
search_values = st.one_of(
    st.sampled_from([-np.inf, -2.0, -0.0, 0.0, 0.5, 1.0, np.inf]),
    st.floats(allow_nan=False, allow_infinity=True),
)


def _pack(segments) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, offsets, segment ids) of a list of per-segment lists."""
    lengths = np.array([len(seg) for seg in segments], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    vals = np.array([v for seg in segments for v in seg], dtype=float)
    return vals, offsets, np.repeat(np.arange(len(segments)), lengths)


@st.composite
def ragged_pairs(draw, sorted_queries: bool):
    """A segment-sorted ragged batch and a ragged batch of queries with
    the same number of segments (either may hold empty segments)."""
    batch = draw(st.integers(min_value=1, max_value=5))
    seg = st.lists(search_values, max_size=6)
    searched = [sorted(draw(seg)) for _ in range(batch)]
    queries = [draw(seg) for _ in range(batch)]
    if sorted_queries:
        queries = [sorted(q) for q in queries]
    return _pack(searched), _pack(queries)


class TestSegmentedPrimitives:
    @given(ragged_pairs(sorted_queries=False), st.sampled_from(["left", "right"]))
    @settings(max_examples=300)
    def test_seg_searchsorted_matches_references(self, pair, side):
        (a, a_off, a_ids), (q, q_off, q_ids) = pair
        got = ak._seg_searchsorted(
            ak._keys(a_ids, a), a_off, ak._keys(q_ids, q), q_ids, side
        )
        assert np.array_equal(got, bisect_searchsorted(a, a_off, q, q_off, side))
        per_segment = [
            np.searchsorted(a[a_off[i] : a_off[i + 1]], q[q_off[i] : q_off[i + 1]], side)
            for i in range(len(a_off) - 1)
        ]
        assert np.array_equal(got, np.concatenate(per_segment))

    @given(ragged_pairs(sorted_queries=True))
    @settings(max_examples=300)
    def test_seg_merge_unique_matches_reference_bits(self, pair):
        (a, a_off, _), (b, b_off, _) = pair
        got = ak._seg_merge_unique(ak.Ragged(a, None, a_off), ak.Ragged(b, None, b_off))
        want, want_off = bisect_merge_unique(a, a_off, b, b_off)
        assert np.array_equal(got.offsets, want_off)
        assert np.array_equal(got.xs.view(np.int64), want.view(np.int64))

    def test_merge_tie_keeps_the_first_operands_bits(self):
        a, a_off, _ = _pack([[0.0], [-0.0, np.inf], []])
        b, b_off, _ = _pack([[-0.0], [0.0, np.inf], [-np.inf]])
        got = ak._seg_merge_unique(ak.Ragged(a, None, a_off), ak.Ragged(b, None, b_off))
        assert list(got.offsets) == [0, 1, 3, 4]
        assert np.array_equal(
            got.xs.view(np.int64), np.array([0.0, -0.0, np.inf, -np.inf]).view(np.int64)
        )
