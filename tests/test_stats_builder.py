"""Tests for the offline statistics builder (Sec 3.1 + 4.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.conditioning import ConditioningConfig
from repro.core.serialization import stats_digest
from repro.core.stats_builder import (
    _pull_dimension_column,
    build_statistics,
    virtual_column_name,
)
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
