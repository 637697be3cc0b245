"""Round-trip tests for statistics serialisation: ``save_stats`` /
``load_stats`` and the ``SafeBound.save`` / ``load`` facade.

The arena internals (zero-copy views, copy-on-write, kernel packing) are
covered in ``test_arena.py``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.conditioning import ConditioningConfig
from repro.core.predicates import And, Eq, Like, Range
from repro.core.safebound import SafeBound, SafeBoundConfig
from repro.core.serialization import load_stats, save_stats, stats_digest
from repro.db.query import Query


@pytest.fixture(scope="module")
def built(tiny_db):
    sb = SafeBound()
    sb.build(tiny_db)
    return sb


def _queries():
    q1 = Query()
    q1.add_relation("f", "fact").add_relation("d", "dim")
    q1.add_join("f", "dim_id", "d", "id")
    q1.add_predicate("d", And([Range("year", low=1960, high=1990), Like("name", "Abd")]))
    q2 = Query()
    q2.add_relation("f", "fact").add_relation("d", "dim").add_relation("g", "fact2")
    q2.add_join("f", "dim_id", "d", "id").add_join("g", "dim_id", "d", "id")
    q2.add_predicate("f", Eq("score", 3))
    return [q1, q2]


class TestRoundTrip:
    def test_bounds_identical_after_reload(self, built, tiny_db, tmp_path):
        path = str(tmp_path / "stats.sba")
        size = save_stats(built.stats, path)
        assert size > 0
        reloaded = load_stats(path)
        sb2 = SafeBound(built.config)
        sb2.stats = reloaded
        for q in _queries():
            assert sb2.bound(q) == built.bound(q)  # exact, not approx

    def test_structure_preserved(self, built, tmp_path):
        path = str(tmp_path / "stats.sba")
        save_stats(built.stats, path)
        reloaded = load_stats(path)
        assert set(reloaded.relations) == set(built.stats.relations)
        for name, rel in built.stats.relations.items():
            rel2 = reloaded.relations[name]
            assert rel2.cardinality == rel.cardinality
            assert set(rel2.join_stats) == set(rel.join_stats)
            assert set(rel2.fallback_cds) == set(rel.fallback_cds)
            assert rel2.virtual_columns == rel.virtual_columns

    def test_bloom_filters_survive(self, built, tmp_path):
        path = str(tmp_path / "stats.sba")
        save_stats(built.stats, path)
        reloaded = load_stats(path)
        for name, rel in reloaded.relations.items():
            for js in rel.join_stats.values():
                for fstats in js.filters.values():
                    if fstats.equality is not None and fstats.equality.blooms is not None:
                        assert all(b.num_bits > 0 for b in fstats.equality.blooms)
                        return
        pytest.skip("no bloom filters in this configuration")

    def test_no_bloom_configuration_round_trips(self, tiny_db, tmp_path):
        sb = SafeBound(
            SafeBoundConfig(conditioning=ConditioningConfig(use_bloom_filters=False, mcv_size=10))
        )
        sb.build(tiny_db)
        path = str(tmp_path / "stats.sba")
        save_stats(sb.stats, path)
        sb2 = SafeBound(sb.config)
        sb2.stats = load_stats(path)
        for q in _queries():
            assert sb2.bound(q) == sb.bound(q)

    def test_file_size_metric(self, built, tmp_path):
        path = str(tmp_path / "stats.sba")
        size = save_stats(built.stats, path)
        assert size == os.path.getsize(path)
        assert 0 < size < 10 * 1024 * 1024

    @pytest.mark.parametrize("cut", [1, 64, "header"])
    def test_truncated_archive_raises_value_error(self, built, tmp_path, cut):
        """A truncated arena is rejected when opened, never served: the
        extent check runs in ``StatsArena`` itself."""
        path = tmp_path / "stats.sba"
        size = save_stats(built.stats, str(path))
        keep = 24 if cut == "header" else size - cut
        with open(path, "rb+") as fh:
            fh.truncate(keep)
        with pytest.raises(ValueError, match="truncated"):
            load_stats(str(path))


class TestFacade:
    """SafeBound.save / SafeBound.load over core/serialization.py."""

    def test_build_save_load_bound_bit_identical(self, built, tiny_db, tmp_path):
        path = str(tmp_path / "facade.sba")
        size = built.save(path)
        assert size > 0
        reloaded = SafeBound.load(path, tiny_db, built.config)
        for q in _queries():
            assert reloaded.bound(q) == built.bound(q)  # exact, not approx
        # Update tracking was re-attached from the database.
        for rel in reloaded.stats.relations.values():
            for js in rel.join_stats.values():
                assert js.incremental is not None

    def test_load_without_db_serves_but_cannot_track(self, built, tmp_path):
        path = str(tmp_path / "facade.sba")
        built.save(path)
        reloaded = SafeBound.load(path)
        for q in _queries():
            assert reloaded.bound(q) == built.bound(q)
        for rel in reloaded.stats.relations.values():
            for js in rel.join_stats.values():
                assert js.incremental is None

    def test_save_unbuilt_raises(self, tmp_path):
        with pytest.raises(RuntimeError):
            SafeBound().save(str(tmp_path / "nope.sba"))

    def test_load_with_pending_inserts_reattaches_soundly(self, tmp_path):
        """Regression: adopting the (stale) build-time base CDS unpadded
        after reloading a mid-cycle archive used to underestimate."""
        from repro.db.database import Database
        from repro.db.schema import Schema
        from repro.db.table import Table

        rng = np.random.default_rng(8)
        schema = Schema()
        schema.add_table("fact", join_columns=["dim_id"], filter_columns=["score"])
        db = Database(schema)
        db.add_table(Table("fact", {
            "id": np.arange(1500),
            "dim_id": (rng.zipf(1.5, 1500) - 1) % 80,
            "score": rng.integers(0, 20, 1500),
        }))
        sb = SafeBound()
        sb.build(db)
        # 500 hot-key rows, mirrored into the database.
        hot = {
            "id": np.arange(10000, 10500),
            "dim_id": np.zeros(500, dtype=np.int64),
            "score": np.zeros(500, dtype=np.int64),
        }
        sb.apply_insert("fact", hot)
        db.tables["fact"] = Table("fact", {
            k: np.concatenate((db.table("fact").column(k), hot[k])) for k in hot
        })
        path = str(tmp_path / "midcycle.sba")
        sb.save(path)
        reloaded = SafeBound.load(path, db)
        js = reloaded.stats.relations["fact"].join_stats["dim_id"]
        true_cds = js.incremental.counter.degree_sequence().to_cds()
        maintained = js.condition(None)
        grid = np.linspace(0, true_cds.domain_end, 50)
        assert np.all(maintained(grid) >= true_cds(grid) - 1e-6 * (1 + true_cds(grid)))
        assert maintained.total >= true_cds.total - 1e-6

    def test_pending_update_state_roundtrips(self, tiny_db, tmp_path):
        sb = SafeBound()
        sb.build(tiny_db)
        sb.apply_insert("fact", {
            "id": np.arange(100000, 100050),
            "dim_id": np.arange(50) % 300,
            "score": np.zeros(50, dtype=np.int64),
            "tag": np.zeros(50, dtype=np.int64),
        })
        sb.apply_insert("dim", {
            "id": np.array([90000]),
            "year": np.array([1999]),
            "kind": np.array([0]),
            "name": np.array(["zeta"], dtype=object),
        })
        path = str(tmp_path / "pending.sba")
        sb.save(path)
        reloaded = SafeBound.load(path)
        fact = reloaded.stats.relations["fact"]
        assert fact.pending_inserts == 50
        assert fact.stale_dims == {"dim"}
        assert fact.join_stats["dim_id"].pending_inserts == 50
        for q in _queries():
            assert reloaded.bound(q) == sb.bound(q)
        # A second round trip (save the lazily loaded store again) is
        # stable: the mapped views re-serialise losslessly.
        again = str(tmp_path / "pending2.sba")
        save_stats(reloaded.stats, again)
        assert stats_digest(load_stats(again)) == stats_digest(sb.stats)
