"""Tests for the live update ingest path (service/ingest.py plus the
core apply_insert/apply_delete wiring it drives)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.predicates import Eq, Range
from repro.core.safebound import SafeBound, SafeBoundConfig
from repro.db.database import Database
from repro.db.executor import Executor
from repro.db.query import Query
from repro.db.schema import Schema
from repro.db.table import Table
from repro.service.catalog import CatalogBackedSafeBound, StatsCatalog
from repro.service.ingest import RepublishWorker, UpdateIngest, append_rows, remove_rows
from repro.service.server import EstimationServer


def make_db(seed: int = 11, n_dim: int = 150, n_fact: int = 2500) -> Database:
    """A fresh (function-scoped) star database the tests may mutate."""
    rng = np.random.default_rng(seed)
    schema = Schema()
    schema.add_table("dim", primary_key="id", filter_columns=["year"])
    schema.add_table("fact", join_columns=["dim_id"], filter_columns=["score"])
    schema.add_foreign_key("fact", "dim_id", "dim", "id")
    db = Database(schema)
    db.add_table(Table("dim", {
        "id": np.arange(n_dim),
        "year": rng.integers(1950, 2020, n_dim),
    }))
    db.add_table(Table("fact", {
        "id": np.arange(n_fact),
        "dim_id": (rng.zipf(1.5, n_fact) - 1) % n_dim,
        "score": rng.integers(0, 30, n_fact),
    }))
    return db


def make_queries() -> list[Query]:
    def star() -> Query:
        return (
            Query()
            .add_relation("f", "fact")
            .add_relation("d", "dim")
            .add_join("f", "dim_id", "d", "id")
        )

    return [
        star(),
        star().add_predicate("d", Range("year", low=1980, high=1999)),
        star().add_predicate("f", Eq("score", 3)),
        star()
        .add_predicate("d", Range("year", low=1960, high=2010))
        .add_predicate("f", Range("score", low=5, high=20)),
        (
            Query()
            .add_relation("a", "fact")
            .add_relation("b", "fact")
            .add_join("a", "dim_id", "b", "dim_id")
        ),
    ]


def assert_bounds_dominate(estimator, db: Database, queries) -> None:
    executor = Executor(db)
    for query in queries:
        bound = estimator.bound(query)
        true = executor.cardinality(query)
        assert bound >= true * (1 - 1e-9), f"{bound} < {true} on {query!r}"


class TestTableMutation:
    def test_append_rows(self):
        db = make_db()
        before = db.table("fact").num_rows
        append_rows(db, "fact", {
            "id": np.array([90000]), "dim_id": np.array([0]), "score": np.array([1]),
        })
        assert db.table("fact").num_rows == before + 1
        assert db.table("fact").column("id")[-1] == 90000

    def test_append_rows_requires_all_columns(self):
        db = make_db()
        with pytest.raises(ValueError):
            append_rows(db, "fact", {"id": np.array([1])})

    def test_remove_rows_returns_removed(self):
        db = make_db()
        before = db.table("fact")
        removed = remove_rows(db, "fact", np.array([0, 2]))
        assert db.table("fact").num_rows == before.num_rows - 2
        assert removed["id"].tolist() == before.column("id")[[0, 2]].tolist()


class TestLiveBounds:
    def test_randomized_stream_never_underestimates(self):
        db = make_db()
        sb = SafeBound(SafeBoundConfig(track_updates=True))
        sb.build(db)
        ingest = UpdateIngest(db, sb)
        queries = make_queries()
        rng = np.random.default_rng(3)
        next_id = 1_000_000
        for step in range(10):
            if rng.random() < 0.6 or db.table("fact").num_rows < 500:
                n = int(rng.integers(50, 200))
                ingest.insert("fact", {
                    "id": np.arange(next_id, next_id + n),
                    "dim_id": (rng.zipf(1.5, n) - 1) % 200,  # some dangling FKs
                    "score": rng.integers(0, 40, n),
                })
                next_id += n
            else:
                n = int(rng.integers(20, 100))
                ingest.delete(
                    "fact", rng.choice(db.table("fact").num_rows, n, replace=False)
                )
            assert_bounds_dominate(sb, db, queries)

    def test_dim_insert_disables_propagation_but_stays_sound(self):
        """A new dimension row can turn a dangling FK into a match — the
        bound must survive it (via the stale-dims guard)."""
        db = make_db(n_dim=100)
        # Fact rows pointing at a not-yet-existing dimension row.
        append_rows(db, "fact", {
            "id": np.arange(500000, 500400),
            "dim_id": np.full(400, 5000),
            "score": np.zeros(400, dtype=np.int64),
        })
        sb = SafeBound(SafeBoundConfig(track_updates=True))
        sb.build(db)
        ingest = UpdateIngest(db, sb)
        query = (
            Query()
            .add_relation("f", "fact")
            .add_relation("d", "dim")
            .add_join("f", "dim_id", "d", "id")
            .add_predicate("d", Range("year", low=1985, high=1985))
        )
        executor = Executor(db)
        true_before = executor.cardinality(query)
        assert sb.bound(query) >= true_before
        # The insert makes the 400 dangling rows match the predicate.
        ingest.insert("dim", {"id": np.array([5000]), "year": np.array([1985])})
        assert "dim" in sb.stats.relations["fact"].stale_dims
        true_after = Executor(db).cardinality(query)
        assert true_after >= true_before + 400
        assert sb.bound(query) >= true_after

    def test_update_poisoned_cache_entry_is_never_read(self):
        """Regression for the clear()/write race: a conditioning result
        computed from pre-update statistics but stored after the update's
        cache clear must land under a dead epoch, not get served."""
        db = make_db()
        sb = SafeBound(SafeBoundConfig(track_updates=True))
        sb.build(db)
        query = make_queries()[1]
        before = sb.bound(query)
        old_epoch = sb._stats_epoch
        # Snapshot the pre-update conditioning entries (what a racing
        # worker thread would have computed).
        stale = dict(sb._conditioning_cache._data)
        assert stale and all(key[0] == old_epoch for key in stale)
        rng = np.random.default_rng(4)
        n = 500
        sb.apply_insert("fact", {
            "id": np.arange(400000, 400000 + n),
            "dim_id": rng.integers(0, 150, n),
            "score": rng.integers(0, 30, n),
        })
        assert sb._stats_epoch > old_epoch
        # The race: stale results written back after the clear.
        for key, value in stale.items():
            sb._conditioning_cache[key] = value
        padded = sb.bound(query)
        assert padded > before  # served from fresh, padded statistics

    def test_insert_without_join_column_raises_when_tracked(self):
        db = make_db()
        sb = SafeBound(SafeBoundConfig(track_updates=True))
        sb.build(db)
        with pytest.raises(KeyError):
            sb.apply_insert("fact", {"id": np.array([1]), "score": np.array([2])})

    def test_rejected_update_leaves_stats_unmutated(self):
        """Regression: a KeyError raised mid-loop used to leave some
        counters already bumped, double-counting the batch on retry."""
        db = make_db()
        sb = SafeBound(SafeBoundConfig(track_updates=True))
        sb.build(db)
        rel = sb.stats.relations["fact"]
        card_before = rel.cardinality
        counter_before = rel.join_stats["dim_id"].incremental.counter.cardinality
        with pytest.raises(KeyError):
            sb.apply_insert("fact", {"id": np.array([1]), "score": np.array([2])})
        with pytest.raises(KeyError):
            sb.apply_delete("fact", {"id": np.array([1]), "score": np.array([2])})
        assert rel.cardinality == card_before
        assert rel.pending_inserts == 0
        assert rel.join_stats["dim_id"].pending_inserts == 0
        assert rel.join_stats["dim_id"].incremental.counter.cardinality == counter_before
        # A correct retry is then counted exactly once.
        sb.apply_insert("fact", {
            "id": np.array([1]), "dim_id": np.array([0]), "score": np.array([2]),
        })
        assert rel.join_stats["dim_id"].incremental.counter.cardinality == counter_before + 1

    def test_staleness_grows_with_inserts(self):
        db = make_db()
        sb = SafeBound(SafeBoundConfig(track_updates=True))
        sb.build(db)
        ingest = UpdateIngest(db, sb, republish_overhead=0.08)
        assert ingest.staleness == 0.0
        assert not ingest.needs_republish()
        rng = np.random.default_rng(5)
        n = 400
        ingest.insert("fact", {
            "id": np.arange(700000, 700000 + n),
            "dim_id": rng.integers(0, 150, n),
            "score": rng.integers(0, 30, n),
        })
        assert ingest.staleness > 0.1
        assert ingest.needs_republish()


class TestRepublish:
    def _catalog_pair(self, tmp_path, db):
        catalog = StatsCatalog(tmp_path)
        estimator = CatalogBackedSafeBound(
            catalog, "live", SafeBoundConfig(track_updates=True)
        )
        estimator.build(db)
        return catalog, estimator

    def test_republish_publishes_swaps_and_resets_staleness(self, tmp_path):
        db = make_db()
        catalog, estimator = self._catalog_pair(tmp_path, db)
        ingest = UpdateIngest(db, estimator, republish_overhead=0.05)
        rng = np.random.default_rng(9)
        n = 300
        ingest.insert("fact", {
            "id": np.arange(800000, 800000 + n),
            "dim_id": rng.integers(0, 150, n),
            "score": rng.integers(0, 30, n),
        })
        assert ingest.needs_republish()
        version = ingest.maybe_republish()
        assert version is not None and version.version == 2
        assert estimator.version == 2
        assert estimator.staleness() == 0.0
        assert catalog.latest("live").version == 2
        assert_bounds_dominate(estimator, db, make_queries())
        # Below threshold now: no further republish.
        assert ingest.maybe_republish() is None

    def test_republish_under_a_running_server_counts_one_swap(self, tmp_path):
        """Regression: ``republish`` swaps through ``estimator.refresh``
        itself, so the server's next poll found the version current and
        ``server.swaps`` stayed 0 after a republish.  The server's own
        poll is pushed out of the test's window, so the republish is the
        only swap and the count cannot come from a racing poll."""
        db = make_db()
        catalog, estimator = self._catalog_pair(tmp_path, db)
        ingest = UpdateIngest(db, estimator)
        server = EstimationServer(estimator, refresh_seconds=3600.0, refresh_db=db)
        with server:
            server.bound(make_queries()[0])
            ingest.republish()
            server.bound(make_queries()[0])
        assert ingest.republishes == 1
        assert estimator.version == 2
        assert server.metrics.value("server.swaps") == 1

    def test_refresh_skips_version_built_before_a_padded_insert(self, tmp_path):
        """Regression: a version built before an insert (a republish that
        published but failed to swap, or one fsck recovered after a torn
        manifest) used to be swapped in by the server's refresh poll after
        that insert was padded into the served statistics — dropping the
        padding while the rows stayed visible, so bounds underestimated."""
        db = make_db()
        catalog, estimator = self._catalog_pair(tmp_path, db)
        ingest = UpdateIngest(db, estimator, republish_overhead=1e9)
        stale = SafeBound(estimator.config)
        stale.build(db)
        stale_metadata = estimator.build_metadata()
        rng = np.random.default_rng(13)
        n = 2500  # doubles the fact table
        ingest.insert("fact", {
            "id": np.arange(700000, 700000 + n),
            "dim_id": rng.integers(0, 150, n),
            "score": rng.integers(0, 30, n),
        })
        catalog.publish("live", stale.stats, metadata=stale_metadata)
        full_join = make_queries()[0]
        assert stale.bound(full_join) < Executor(db).cardinality(full_join)
        assert estimator.refresh(db) is False
        assert estimator.version == 1
        assert_bounds_dominate(estimator, db, make_queries())
        # The next republish supersedes the stale version.
        assert ingest.republish().version == 3
        assert estimator.version == 3
        assert_bounds_dominate(estimator, db, make_queries())

    def test_republish_requires_catalog_backed_estimator(self):
        db = make_db()
        sb = SafeBound(SafeBoundConfig(track_updates=True))
        sb.build(db)
        ingest = UpdateIngest(db, sb)
        with pytest.raises(TypeError):
            ingest.republish()

    def test_background_worker_republishes(self, tmp_path):
        db = make_db()
        catalog, estimator = self._catalog_pair(tmp_path, db)
        ingest = UpdateIngest(db, estimator, republish_overhead=0.05)
        worker = RepublishWorker(ingest, poll_seconds=0.01)
        worker.start()
        try:
            rng = np.random.default_rng(13)
            n = 400
            ingest.insert("fact", {
                "id": np.arange(900000, 900000 + n),
                "dim_id": rng.integers(0, 150, n),
                "score": rng.integers(0, 30, n),
            })
            deadline = 10.0
            import time

            start = time.monotonic()
            while not worker.published and time.monotonic() - start < deadline:
                time.sleep(0.01)
        finally:
            worker.stop()
        assert worker.published, "worker must republish once staleness crosses"
        assert estimator.version == worker.published[-1].version
        assert_bounds_dominate(estimator, db, make_queries())

    def test_deletes_publish_no_snapshot(self, tmp_path):
        """Deletes shrink counters only after the rows are gone, so the
        served statistics stay sound in place — nothing is published."""
        db = make_db()
        catalog, estimator = self._catalog_pair(tmp_path, db)
        ingest = UpdateIngest(db, estimator, republish_overhead=1e9)
        rng = np.random.default_rng(7)
        ingest.delete(
            "fact", rng.choice(db.table("fact").num_rows, 200, replace=False)
        )
        assert catalog.generation("live") == 1
        assert_bounds_dominate(estimator, db, make_queries())

    def test_worker_stop_before_start_is_safe(self):
        """Regression: ``stop()`` on a never-started worker used to raise
        ``RuntimeError: cannot join thread before it is started``, which
        blew up error-path cleanup (construct, fail before start, stop
        in a finally block)."""

        class _StubIngest:
            def maybe_republish(self, note=""):
                return None

        worker = RepublishWorker(_StubIngest())
        worker.stop()  # never started: must not raise
        worker.stop()  # ... and stays idempotent
        assert not worker.is_alive()

    def test_worker_stop_is_idempotent_after_start(self):
        class _StubIngest:
            def maybe_republish(self, note=""):
                return None

        worker = RepublishWorker(_StubIngest(), poll_seconds=0.01)
        worker.start()
        worker.stop()
        worker.stop()
        assert not worker.is_alive()
