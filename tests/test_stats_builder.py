"""Tests for the offline statistics builder (Sec 3.1 + 4.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.conditioning import ConditioningConfig
from repro.core.predicates import Eq, Like, Range
from repro.core.safebound import SafeBound
from repro.core.serialization import stats_digest
from repro.core.stats_builder import (
    _pull_dimension_column,
    build_statistics,
    virtual_column_name,
)
from repro.db.database import Database
from repro.db.query import Query
from repro.db.schema import Schema
from repro.db.table import Table
from repro.workloads import make_imdb, make_stats_db


class TestPullDimensionColumn:
    def test_numeric_lookup(self):
        fk = np.array([2, 0, 1, 2])
        pk = np.array([0, 1, 2])
        dim = np.array([10, 11, 12])
        out = _pull_dimension_column(fk, pk, dim)
        np.testing.assert_allclose(out, [12.0, 10.0, 11.0, 12.0])

    def test_dangling_fk_becomes_nan(self):
        out = _pull_dimension_column(np.array([5]), np.array([0, 1]), np.array([7, 8]))
        assert np.isnan(out[0])

    def test_string_lookup(self):
        fk = np.array([1, 9])
        pk = np.array([0, 1])
        dim = np.array(["a", "b"], dtype=object)
        out = _pull_dimension_column(fk, pk, dim)
        assert out[0] == "b" and out[1] is None


class TestBuildStatistics:
    @pytest.fixture(scope="class")
    def stats(self, tiny_db):
        return build_statistics(tiny_db, ConditioningConfig(mcv_size=20, cds_group_count=4))

    def test_every_table_covered(self, tiny_db, stats):
        assert set(stats.relations) == set(tiny_db.table_names())

    def test_join_columns_have_stats(self, tiny_db, stats):
        for name, rel in stats.relations.items():
            expected = set(tiny_db.schema.tables[name].join_columns)
            assert set(rel.join_stats) == expected

    def test_fallback_cds_for_every_column(self, tiny_db, stats):
        for name, rel in stats.relations.items():
            assert set(rel.fallback_cds) == set(tiny_db.table(name).column_names)

    def test_virtual_columns_created(self, stats):
        fact = stats.relations["fact"]
        key = ("dim_id", "dim", "id", "year")
        assert key in fact.virtual_columns
        assert fact.virtual_columns[key] == virtual_column_name("dim_id", "dim", "year")
        # the virtual column became a conditioned filter family
        vname = fact.virtual_columns[key]
        assert vname in fact.join_stats["dim_id"].filters

    def test_no_pk_precompute_leaves_no_virtuals(self, tiny_db):
        stats = build_statistics(
            tiny_db,
            ConditioningConfig(mcv_size=10, cds_group_count=4),
            precompute_pk_joins=False,
        )
        assert all(not rel.virtual_columns for rel in stats.relations.values())

    def test_build_seconds_recorded(self, stats):
        assert stats.build_seconds > 0

    def test_sequence_count_example_3_2_style(self, tiny_db, stats):
        """Example 3.2: conditioning yields many sequences per relation;
        group compression (tested in test_safebound) reduces storage."""
        fact = stats.relations["fact"]
        assert fact.num_sequences() > 10
        assert stats.num_sequences() == sum(
            r.num_sequences() for r in stats.relations.values()
        )

    def test_no_trigrams_mode(self, tiny_db):
        with_tri = build_statistics(tiny_db, ConditioningConfig(mcv_size=10, cds_group_count=4))
        without = build_statistics(
            tiny_db,
            ConditioningConfig(mcv_size=10, cds_group_count=4),
            build_trigrams=False,
        )
        assert without.memory_bytes() < with_tri.memory_bytes()


# Digests of fixed builds, recorded from the statistics builder before it
# shared per-filter-column work and compressed each distinct run list once:
# the faster build must produce bit-identical statistics.
PINNED_DIGESTS = {
    "tiny_default": "8544d1cd7c2e6fb6bf536a3d91fb5da47fcb8e5f5211eb59467ba926e4dd8acf",
    "tiny_small_groups": "5a8ee685d736efb61a3ac9a2248ce897612df039a8a48e5731b9cd9819e4d32f",
    "imdb_0.02": "30e6267faa7c3aaff09cc12fe61696e05689ded983edd819cae78d7520fd5eb5",
    "stats_0.02_tracked": "70c559d45ba509477e02dda1b651d12d3e5d5e6f7dec89575b26eb7b482be06f",
}


def _imdb_stats():
    return build_statistics(make_imdb(scale=0.02, seed=1))


def _stats_ceb_stats():
    return build_statistics(make_stats_db(scale=0.02, seed=5), track_updates=True)


class TestPinnedDigests:
    def test_tiny_default_config(self, tiny_db):
        assert stats_digest(build_statistics(tiny_db)) == PINNED_DIGESTS["tiny_default"]

    def test_tiny_small_groups(self, tiny_db):
        stats = build_statistics(tiny_db, ConditioningConfig(mcv_size=20, cds_group_count=4))
        assert stats_digest(stats) == PINNED_DIGESTS["tiny_small_groups"]

    def test_stats_ceb_with_update_tracking(self):
        stats = _stats_ceb_stats()
        assert stats_digest(stats) == PINNED_DIGESTS["stats_0.02_tracked"]
        assert all(
            js.incremental is not None
            for rel in stats.relations.values()
            for js in rel.join_stats.values()
        )

    def test_no_state_carries_between_builds(self):
        """Database B built right after database A digests exactly as B
        built alone (the pin came from a fresh process), and A again after
        B as A alone: nothing a build caches outlives it."""
        assert stats_digest(_imdb_stats()) == PINNED_DIGESTS["imdb_0.02"]
        assert stats_digest(_stats_ceb_stats()) == PINNED_DIGESTS["stats_0.02_tracked"]
        assert stats_digest(_imdb_stats()) == PINNED_DIGESTS["imdb_0.02"]


@pytest.fixture(scope="module")
def nasty_db():
    """A star schema with the inputs where row order could leak into the
    statistics: dangling foreign keys (NaN / None virtual columns), low-
    and high-cardinality strings, skewed joins, and float filter columns
    that mix ``-0.0`` and ``0.0``."""
    rng = np.random.default_rng(42)
    n_dim, n_fact = 220, 2600
    schema = Schema()
    schema.add_table("dim", primary_key="id", filter_columns=["year", "label", "shift"])
    schema.add_table("fact", join_columns=["dim_id"], filter_columns=["score", "tag"])
    schema.add_table("fact2", join_columns=["dim_id"], filter_columns=["tag"])
    schema.add_foreign_key("fact", "dim_id", "dim", "id")
    schema.add_foreign_key("fact2", "dim_id", "dim", "id")
    db = Database(schema)
    words = ["alpha", "beta", "gamma", "delta", "omega", "Quixote"]
    label = np.array(
        [words[i % len(words)] + str(i % 17) for i in range(n_dim)], dtype=object
    )
    db.add_table(
        Table(
            "dim",
            {
                "id": np.arange(n_dim),
                "year": 1950 + rng.integers(0, 60, n_dim),
                "label": label,
                "shift": rng.choice(np.array([-0.0, 0.0, 0.5, -1.5]), n_dim),
            },
        )
    )
    fk = (rng.zipf(1.5, n_fact) - 1) % n_dim
    # Dangling foreign keys: the pulled virtual columns get NaN (numeric)
    # and None (string) entries.
    fk[:80] = n_dim + rng.integers(0, 7, 80)
    db.add_table(
        Table(
            "fact",
            {
                "dim_id": fk,
                "score": np.round(rng.normal(0.0, 2.0, n_fact), 1),
                "tag": np.array(
                    [words[i] for i in rng.integers(0, 3, n_fact)], dtype=object
                ),
            },
        )
    )
    fk2 = (rng.zipf(1.3, 700) - 1) % n_dim
    db.add_table(
        Table(
            "fact2",
            {
                "dim_id": fk2,
                "tag": np.array(
                    [words[i] for i in rng.integers(0, len(words), 700)], dtype=object
                ),
            },
        )
    )
    return db


def permute_rows(db: Database, seed: int) -> Database:
    """``db`` with the rows of every table in a seeded random order."""
    rng = np.random.default_rng(seed)
    out = Database(db.schema)
    for name in db.table_names():
        table = db.table(name)
        out.add_table(table.take(rng.permutation(table.num_rows)))
    return out


class TestRowOrderInvariance:
    """The offline phase is a function of each table's row multiset:
    storing the same rows in another order gives the same statistics,
    byte for byte, and therefore the same bounds."""

    @pytest.fixture(scope="class")
    def permuted(self, nasty_db):
        return [permute_rows(nasty_db, seed) for seed in range(5)]

    @pytest.mark.parametrize(
        "options",
        [{}, {"build_trigrams": False}, {"precompute_pk_joins": False}, {"track_updates": True}],
        ids=["default", "no_trigrams", "no_pk_joins", "track_updates"],
    )
    def test_digest_ignores_row_order(self, nasty_db, permuted, options):
        expected = stats_digest(build_statistics(nasty_db, **options))
        for db in permuted:
            assert stats_digest(build_statistics(db, **options)) == expected

    @pytest.mark.parametrize("block_rows", [400, 513, None, 1])
    def test_digest_ignores_block_order(self, nasty_db, block_rows):
        """Cut every table into contiguous blocks of ``block_rows`` rows
        (``None``: eight equal blocks) and store the blocks last to first.
        Block boundaries are where a per-block build would be merged, so a
        merge that depended on the order of the blocks shows here."""
        expected = stats_digest(build_statistics(nasty_db))
        out = Database(nasty_db.schema)
        for name in nasty_db.table_names():
            table = nasty_db.table(name)
            rows = np.arange(table.num_rows)
            if block_rows is None:
                blocks = np.array_split(rows, 8)
            else:
                starts = range(0, len(rows), block_rows)
                blocks = [rows[i : i + block_rows] for i in starts]
            out.add_table(table.take(np.concatenate(blocks[::-1])))
        assert stats_digest(build_statistics(out)) == expected

    def test_bounds_ignore_row_order(self, nasty_db, permuted):
        def star():
            return (
                Query()
                .add_relation("f", "fact")
                .add_relation("d", "dim")
                .add_join("f", "dim_id", "d", "id")
            )

        queries = [
            star(),
            star().add_predicate("d", Range("year", low=1960, high=1979)),
            star().add_predicate("d", Eq("label", "alpha3")).add_predicate(
                "f", Range("score", high=1.0)
            ),
            star().add_predicate("f", Like("tag", "alp")),
            (
                Query()
                .add_relation("f", "fact")
                .add_relation("f2", "fact2")
                .add_join("f", "dim_id", "f2", "dim_id")
                .add_predicate("f2", Eq("tag", "omega"))
            ),
        ]
        reference = SafeBound()
        reference.build(nasty_db)
        expected = [reference.bound(q) for q in queries]
        for db in permuted:
            sb = SafeBound()
            sb.build(db)
            assert [sb.bound(q) for q in queries] == expected
