"""Batched conditioning differential + property tests.

The arena-native conditioning pipeline (expression trees, CSE'd batched
evaluation, ``batch_truncate_total``) carries the same bit-identity
contract as the bound kernels: every batched result must equal the
per-object ``ConditionedRelation`` path element for element.  Two
layers:

* op-level hypothesis differential: ``batch_truncate_total`` against
  ``PiecewiseLinear.truncate_total`` across all three cut classes, and
  ``evaluate_exprs_array`` against the scalar ``evaluate_expr`` recursion
  on generated expression forests (with duplicated sub-trees, so the CSE
  interning is on the tested path);
* relation-level differential on the tiny star schema: every predicate
  shape through ``condition_relations_batch`` + ``fill_truncations_batch``
  versus the object constructor.

End-to-end estimate identity (cold and warm conditioning cache, server
path) lives in ``test_array_kernel.py``.
"""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import arraykernel as ak
from repro.core import piecewise as pw
from repro.core.conditioning import (
    ConditionedRelation,
    condition_relations_batch,
    evaluate_expr,
    evaluate_exprs_array,
    fill_truncations_batch,
)
from repro.core.predicates import And, Eq, InList, Like, Or, Range
from repro.core.safebound import SafeBound


def exact_pl_equal(a: pw.PiecewiseLinear, b: pw.PiecewiseLinear) -> None:
    assert len(a.xs) == len(b.xs)
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.ys, b.ys)


# ----------------------------------------------------------------------
# Op level: batch_truncate_total and the expression evaluator
# ----------------------------------------------------------------------
steps = st.floats(
    min_value=1e-6, max_value=50.0, allow_nan=False, allow_infinity=False
)
values = st.floats(
    min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False
)


@st.composite
def linear_cds(draw, max_points: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_points))
    dx = draw(st.lists(steps, min_size=n, max_size=n))
    dy = draw(st.lists(values, min_size=n, max_size=n))
    xs = np.concatenate(([0.0], np.cumsum(dx)))
    ys = np.concatenate(([0.0], np.cumsum(dy)))
    return pw.PiecewiseLinear(xs, ys)


@st.composite
def cds_with_total(draw):
    """A CDS plus a truncation target hitting every branch class: above
    the total (unchanged), below the first breakpoint (floor), interior
    (cut), and the exact-total epsilon boundary."""
    f = draw(linear_cds())
    ratio = draw(
        st.one_of(
            st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
            st.just(1.0),
        )
    )
    return f, float(f.total * ratio)


@given(st.lists(cds_with_total(), min_size=1, max_size=6))
def test_batch_truncate_total_differential(items):
    funcs = [f for f, _ in items]
    totals = np.array([t for _, t in items])
    r = ak.batch_truncate_total(ak.Ragged.from_functions(funcs), totals)
    for i, (f, t) in enumerate(items):
        xs, ys = r.segment_arrays(i)
        expected = f.truncate_total(t)
        assert np.array_equal(expected.xs, xs)
        assert np.array_equal(expected.ys, ys)


@st.composite
def expr_trees(draw, depth: int = 2):
    """A conditioning expression: PiecewiseLinear leaves, interior
    ``(kind, children)`` nodes over min/sum/cmax."""
    if depth == 0 or draw(st.booleans()):
        return draw(linear_cds())
    kind = draw(st.sampled_from(["min", "sum", "cmax"]))
    n = draw(st.integers(min_value=2, max_value=3))
    children = tuple(draw(expr_trees(depth=depth - 1)) for _ in range(n))
    return (kind, children)


@given(st.lists(expr_trees(), min_size=1, max_size=5))
@settings(max_examples=50)
def test_evaluate_exprs_array_differential(trees):
    # Duplicate the first tree so the CSE interning path (same structure,
    # same leaf identities -> one evaluation) is always exercised.
    exprs = trees + [trees[0]]
    batched = evaluate_exprs_array(exprs)
    for expr, got in zip(exprs, batched):
        exact_pl_equal(evaluate_expr(expr), got)
    # Identical roots must intern to one node, hence one result object.
    assert batched[0] is batched[-1]


def test_evaluate_exprs_array_leaf_preserves_identity():
    leaf = pw.PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
    assert evaluate_exprs_array([leaf]) == [leaf]
    assert evaluate_exprs_array([leaf])[0] is leaf


# ----------------------------------------------------------------------
# Relation level on the tiny star schema
# ----------------------------------------------------------------------
PREDICATES = [
    None,
    Eq("kind", 2),
    Eq("tag", 3),
    Range("year", low=1960, high=1990),
    Range("score", low=5, high=20),
    Like("name", "alp"),
    And([Eq("kind", 1), Range("year", low=1955, high=2000)]),
    Or([Eq("kind", 0), Eq("kind", 4)]),
    InList("kind", [0, 2, 4]),
    And([Range("year", low=1950, high=2005), Or([Eq("kind", 1), Eq("kind", 3)])]),
    Eq("no_such_column", 1),
]


@pytest.fixture(scope="module")
def tiny_stats(tiny_db):
    sb = SafeBound()
    sb.build(tiny_db)
    return sb.stats


def test_condition_relations_batch_differential(tiny_stats):
    pairs = [
        (rel, pred)
        for rel in tiny_stats.relations.values()
        for pred in PREDICATES
    ]
    batched = condition_relations_batch(pairs)
    for (rel, pred), got in zip(pairs, batched):
        expected = ConditionedRelation(rel, pred)
        assert got.single_table == expected.single_table
        assert set(got._conditioned) == set(expected._conditioned)
        for jcol in expected._conditioned:
            exact_pl_equal(expected._conditioned[jcol], got._conditioned[jcol])


def test_fill_truncations_batch_differential(tiny_stats):
    pairs = [
        (rel, pred)
        for rel in tiny_stats.relations.values()
        for pred in PREDICATES
    ]
    batched = condition_relations_batch(pairs)
    objected = [ConditionedRelation(rel, pred) for rel, pred in pairs]
    # Every declared join column plus an undeclared one (the Sec 3.6
    # fallback), batch-truncated versus the lazy object path.
    requests = [
        (c, col)
        for c in batched
        for col in (*c._conditioned, "undeclared_col")
    ]
    fill_truncations_batch(requests)
    for got, expected in zip(batched, objected):
        for col in (*expected._conditioned, "undeclared_col"):
            exact_pl_equal(expected.cds_for(col), got.cds_for(col))
