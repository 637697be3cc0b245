"""Property-based validation of the paper's central guarantee: for every
query, ``SafeBound.bound(q) >= |q(D)|`` — the estimate is a true upper
bound on the output cardinality (Theorem 3.1 via Theorem 2.1).

Hypothesis generates micro-databases (skewed foreign keys, dangling keys,
correlated filter columns, short strings) and random acyclic and cyclic
join queries with predicate trees, then checks the bound against the exact
executor.  A second property drives insert/delete cycles through
``apply_insert`` / ``apply_delete`` and asserts the padded statistics stay
valid against the *updated* data, including after a recompression.

Run under the deterministic CI profile with ``HYPOTHESIS_PROFILE=ci``
(registered in conftest.py).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_stats_builder import permute_rows

from repro.core.conditioning import ConditioningConfig
from repro.core.predicates import And, Eq, InList, Like, Or, Range
from repro.core.safebound import SafeBound, SafeBoundConfig
from repro.core.serialization import stats_digest
from repro.db.database import Database
from repro.db.query import Query
from repro.db.schema import Schema
from repro.db.table import Table
from repro.estimators.truth import TrueCardinalityEstimator
from repro.service.ingest import append_rows, remove_rows

# Small conditioning knobs keep each build a few milliseconds.
FAST_CONDITIONING = ConditioningConfig(
    mcv_size=8, histogram_levels=3, trigram_mcv_size=8, cds_group_count=4
)

WORDS = ["ash", "birch", "cedar", "fir", "oak", "pine", "yew"]


@st.composite
def micro_databases(draw):
    """A dim table plus one or two fact tables with declared FKs.

    Foreign keys are Zipf-skewed and may dangle (point past the dimension),
    so virtual PK-FK columns contain NaN/None; filter columns correlate
    with the key to stress conditioned statistics.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n_dim = draw(st.integers(2, 25))
    n_fact = draw(st.integers(1, 90))
    two_facts = draw(st.booleans())

    schema = Schema()
    schema.add_table("dim", primary_key="id", filter_columns=["a", "s"])
    schema.add_table("fact", join_columns=["dim_id"], filter_columns=["b", "t"])
    schema.add_foreign_key("fact", "dim_id", "dim", "id")
    if two_facts:
        schema.add_table("fact2", join_columns=["dim_id"], filter_columns=["b"])
        schema.add_foreign_key("fact2", "dim_id", "dim", "id")
    db = Database(schema)

    a = rng.integers(0, 6, n_dim)
    s = np.array(
        [WORDS[(int(v) + i) % len(WORDS)] + str(i % 5) for i, v in enumerate(a)],
        dtype=object,
    )
    db.add_table(Table("dim", {"id": np.arange(n_dim), "a": a, "s": s}))

    def fact_columns(n):
        fk = (rng.zipf(1.6, n) - 1) % (n_dim + draw(st.integers(0, 3)))
        return {
            "dim_id": fk.astype(np.int64),
            "b": (fk % 4 + rng.integers(0, 3, n)).astype(np.int64),
            "t": np.array([WORDS[int(v) % len(WORDS)] for v in fk], dtype=object),
        }
    db.add_table(Table("fact", fact_columns(n_fact)))
    if two_facts:
        cols = fact_columns(max(n_fact // 2, 1))
        del cols["t"]
        db.add_table(Table("fact2", cols))
    return db


@st.composite
def predicates(draw, int_column: str, str_column: str | None):
    kind = draw(
        st.sampled_from(
            ["eq", "range", "in", "and", "or"] + (["like"] if str_column else [])
        )
    )
    if kind == "eq":
        return Eq(int_column, int(draw(st.integers(-1, 8))))
    if kind == "range":
        low = draw(st.none() | st.integers(-1, 6))
        high = draw(st.none() | st.integers(0, 8))
        return Range(int_column, low=low, high=high)
    if kind == "in":
        values = draw(st.lists(st.integers(0, 8), min_size=1, max_size=3))
        return InList(int_column, values)
    if kind == "like":
        return Like(str_column, draw(st.sampled_from(WORDS + ["a", "irc", "zzz"])))
    left = draw(predicates(int_column, str_column))
    right = draw(predicates(int_column, str_column))
    return And([left, right]) if kind == "and" else Or([left, right])


@st.composite
def queries(draw, db: Database):
    """Single-table, star (acyclic) and triangle (cyclic) join queries."""
    has_fact2 = "fact2" in db
    shapes = ["single", "star"] + (["chain", "triangle"] if has_fact2 else [])
    shape = draw(st.sampled_from(shapes))
    q = Query(name=shape)
    if shape == "single":
        q.add_relation("f", "fact")
    elif shape == "star":
        q.add_relation("f", "fact").add_relation("d", "dim")
        q.add_join("f", "dim_id", "d", "id")
    elif shape == "chain":
        q.add_relation("f", "fact").add_relation("d", "dim").add_relation("g", "fact2")
        q.add_join("f", "dim_id", "d", "id").add_join("g", "dim_id", "d", "id")
    else:  # triangle: fact - dim - fact2 - fact, a cycle
        q.add_relation("f", "fact").add_relation("d", "dim").add_relation("g", "fact2")
        q.add_join("f", "dim_id", "d", "id").add_join("g", "dim_id", "d", "id")
        q.add_join("f", "dim_id", "g", "dim_id")
    if draw(st.booleans()):
        q.add_predicate("f", draw(predicates("b", "t")))
    if shape != "single" and draw(st.booleans()):
        q.add_predicate("d", draw(predicates("a", "s")))
    return q


def _true_cardinality(db: Database, query: Query) -> float:
    truth = TrueCardinalityEstimator()
    truth.build(db)
    return truth.estimate(query)


def _assert_upper_bound(sb: SafeBound, db: Database, query: Query) -> None:
    bound = sb.bound(query)
    truth = _true_cardinality(db, query)
    assert truth != float("inf")
    assert bound >= truth * (1 - 1e-9), (
        f"bound {bound} under true cardinality {truth} for {query.name}: "
        f"{query.relations} joins={query.joins} predicates={query.predicates}"
    )


class TestBoundValidity:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_bound_dominates_true_cardinality(self, data):
        db = data.draw(micro_databases())
        sb = SafeBound(SafeBoundConfig(conditioning=FAST_CONDITIONING))
        sb.build(db)
        for _ in range(3):
            query = data.draw(queries(db))
            _assert_upper_bound(sb, db, query)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_permuted_row_builds_are_bounds_too(self, data):
        db = data.draw(micro_databases())
        permuted = permute_rows(db, data.draw(st.integers(0, 2**31 - 1)))
        config = SafeBoundConfig(conditioning=FAST_CONDITIONING)
        sb, reference = SafeBound(config), SafeBound(config)
        sb.build(permuted)
        reference.build(db)
        assert stats_digest(sb.stats) == stats_digest(reference.stats)
        query = data.draw(queries(db))
        _assert_upper_bound(sb, permuted, query)


class TestBoundsSurviveUpdates:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_insert_delete_cycle_preserves_validity(self, data):
        db = data.draw(micro_databases())
        sb = SafeBound(
            SafeBoundConfig(conditioning=FAST_CONDITIONING, track_updates=True)
        )
        sb.build(db)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        n_dim = db.table("dim").num_rows
        checks = [data.draw(queries(db)) for _ in range(2)]

        for _ in range(data.draw(st.integers(1, 3))):
            # Insert a batch of fact rows (stats padded BEFORE data lands).
            n_new = data.draw(st.integers(1, 12))
            fk = (rng.integers(0, n_dim + 2, n_new)).astype(np.int64)
            rows = {
                "dim_id": fk,
                "b": (fk % 4).astype(np.int64),
                "t": np.array([WORDS[int(v) % len(WORDS)] for v in fk], dtype=object),
            }
            sb.apply_insert("fact", rows)
            append_rows(db, "fact", rows)
            for query in checks:
                _assert_upper_bound(sb, db, query)

            # Delete a random subset (data removed BEFORE counters shrink).
            n_rows = db.table("fact").num_rows
            n_del = int(data.draw(st.integers(0, max(n_rows // 4, 0))))
            if n_del:
                indices = rng.choice(n_rows, size=n_del, replace=False)
                removed = remove_rows(db, "fact", indices)
                sb.apply_delete("fact", removed)
                for query in checks:
                    _assert_upper_bound(sb, db, query)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_dimension_insert_disables_propagation_soundly(self, data):
        """Inserting dimension rows can turn dangling FKs into matches;
        the stale-dims guard must keep fact-side bounds valid."""
        db = data.draw(micro_databases())
        sb = SafeBound(
            SafeBoundConfig(conditioning=FAST_CONDITIONING, track_updates=True)
        )
        sb.build(db)
        n_dim = db.table("dim").num_rows
        n_new = data.draw(st.integers(1, 5))
        rows = {
            "id": np.arange(n_dim, n_dim + n_new),
            "a": np.arange(n_new) % 6,
            "s": np.array([WORDS[i % len(WORDS)] for i in range(n_new)], dtype=object),
        }
        sb.apply_insert("dim", rows)
        append_rows(db, "dim", rows)
        query = data.draw(queries(db))
        _assert_upper_bound(sb, db, query)


@pytest.mark.parametrize("shape", ["star", "triangle"])
def test_known_regression_shapes(tiny_db, shape):
    """Deterministic smoke of the property harness' query shapes against
    the shared fixture database (no hypothesis involvement)."""
    sb = SafeBound()
    sb.build(tiny_db)
    q = Query(name=shape)
    q.add_relation("f", "fact").add_relation("d", "dim")
    q.add_join("f", "dim_id", "d", "id")
    if shape == "triangle":
        q.add_relation("g", "fact2")
        q.add_join("g", "dim_id", "d", "id").add_join("f", "dim_id", "g", "dim_id")
    q.add_predicate("d", Range("year", low=1960, high=1999))
    truth = _true_cardinality(tiny_db, q)
    assert sb.bound(q) >= truth * (1 - 1e-9)
