"""Differential tests: the sharded parallel build must be bit-identical
to the serial reference build — same serialized statistics (witnessed by
``stats_digest`` over every array byte and the structural manifest) and
therefore identical bounds — for any worker count or shard size.  The fixture database deliberately includes the hard cases: dangling
foreign keys (NaN / None virtual columns), low- and high-cardinality
string columns, skewed joins, and a join column that collapses under
``np.unique`` NaN semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arena import StatsArena
from repro.core.predicates import Eq, Like, Range
from repro.core.safebound import SafeBound, SafeBoundConfig
from repro.core.serialization import load_stats, save_stats, stats_digest
from repro.core.stats_builder import ParallelBuildPlan, build_statistics
from repro.db.database import Database
from repro.db.query import Query
from repro.db.schema import Schema
from repro.db.table import Table


@pytest.fixture(scope="module")
def nasty_db():
    """A star schema stressing every merge path of the parallel build."""
    rng = np.random.default_rng(42)
    n_dim, n_fact = 220, 2600
    schema = Schema()
    schema.add_table("dim", primary_key="id", filter_columns=["year", "label"])
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
            },
        )
    )
    fk = (rng.zipf(1.5, n_fact) - 1) % n_dim
    # Dangling foreign keys: the pulled virtual columns get NaN (numeric)
    # and None (string) entries, which exercise the NaN-collapse /
    # NaN-never-merges split in the pair counters.
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


@pytest.fixture(scope="module")
def serial_stats(nasty_db):
    return build_statistics(nasty_db)


@pytest.fixture(scope="module")
def serial_digest(serial_stats):
    return stats_digest(serial_stats)


class TestParallelBuildPlan:
    def test_shards_cover_rows_exactly(self):
        plan = ParallelBuildPlan(num_workers=4, shard_rows=300)
        shards = plan.shards(1000)
        assert shards[0][0] == 0 and shards[-1][1] == 1000
        for (_, hi), (lo, _) in zip(shards, shards[1:]):
            assert hi == lo
        assert all(hi - lo <= 300 for lo, hi in shards)

    def test_empty_table_gets_one_empty_shard(self):
        assert ParallelBuildPlan(num_workers=2).shards(0) == [(0, 0)]

    def test_default_shard_rows_keeps_small_tables_single_shard(self):
        plan = ParallelBuildPlan(num_workers=8)
        assert len(plan.shards(ParallelBuildPlan.MIN_SHARD_ROWS)) == 1

    def test_default_gives_two_shards_per_worker(self):
        plan = ParallelBuildPlan(num_workers=4)
        assert len(plan.shards(80_000)) == 8

    def test_serial_plan_is_not_parallel(self):
        assert not ParallelBuildPlan(num_workers=1).parallel
        assert ParallelBuildPlan(num_workers=2).parallel


class TestBitIdenticalBuilds:
    @pytest.mark.parametrize(
        "num_workers,shard_rows",
        [(2, 400), (3, 513), (4, None), (2, 1)],
    )
    def test_thread_pool_digest_matches_serial(
        self, nasty_db, serial_digest, num_workers, shard_rows
    ):
        parallel = build_statistics(
            nasty_db, num_workers=num_workers, shard_rows=shard_rows
        )
        assert stats_digest(parallel) == serial_digest

    def test_serialized_archives_round_trip_identically(
        self, nasty_db, serial_stats, tmp_path
    ):
        parallel = build_statistics(nasty_db, num_workers=3, shard_rows=311)
        serial_path = tmp_path / "serial.sba"
        parallel_path = tmp_path / "parallel.sba"
        save_stats(serial_stats, str(serial_path))
        save_stats(parallel, str(parallel_path))
        a, b = StatsArena(str(serial_path)), StatsArena(str(parallel_path))
        assert list(a.arrays) == list(b.arrays)
        for key in a.arrays:
            assert a.arrays[key].dtype == b.arrays[key].dtype, key
            assert a.arrays[key].tobytes() == b.arrays[key].tobytes(), key
        assert {**a.manifest, "build_seconds": 0} == {**b.manifest, "build_seconds": 0}
        assert stats_digest(load_stats(str(parallel_path))) == stats_digest(
            load_stats(str(serial_path))
        )

    def test_no_trigram_ablation_matches(self, nasty_db):
        serial = build_statistics(nasty_db, build_trigrams=False)
        parallel = build_statistics(
            nasty_db, build_trigrams=False, num_workers=2, shard_rows=800
        )
        assert stats_digest(parallel) == stats_digest(serial)

    def test_no_pk_precompute_matches(self, nasty_db):
        serial = build_statistics(nasty_db, precompute_pk_joins=False)
        parallel = build_statistics(
            nasty_db, precompute_pk_joins=False, num_workers=3
        )
        assert stats_digest(parallel) == stats_digest(serial)

    def test_track_updates_attaches_counters_and_matches(self, nasty_db, serial_digest):
        parallel = build_statistics(nasty_db, track_updates=True, num_workers=2)
        # Counters are ingest state, excluded from serialization: digest
        # still matches the plain serial build.
        assert stats_digest(parallel) == serial_digest
        for rel in parallel.relations.values():
            for js in rel.join_stats.values():
                assert js.incremental is not None


class TestIdenticalBounds:
    @pytest.fixture(scope="class")
    def queries(self):
        def star():
            return (
                Query()
                .add_relation("f", "fact")
                .add_relation("d", "dim")
                .add_join("f", "dim_id", "d", "id")
            )

        qs = [
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
        return qs

    def test_bounds_identical_serial_vs_parallel(self, nasty_db, queries):
        serial_sb = SafeBound()
        serial_sb.build(nasty_db)
        parallel_sb = SafeBound(
            SafeBoundConfig(build_workers=3, build_shard_rows=450)
        )
        parallel_sb.build(nasty_db)
        for q in queries:
            assert parallel_sb.bound(q) == serial_sb.bound(q)

    def test_safebound_config_plumbs_workers(self, nasty_db, serial_digest):
        sb = SafeBound(SafeBoundConfig(build_workers=2))
        sb.build(nasty_db)
        assert stats_digest(sb.stats) == serial_digest
