"""Tests for the versioned statistics catalog and its estimator wrapper."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.predicates import Eq, Range
from repro.core.safebound import SafeBound
from repro.db.query import Query
from repro.obs.metrics import metrics_installed
from repro.service.catalog import CatalogBackedSafeBound, StatsCatalog


@pytest.fixture(scope="module")
def built(tiny_db):
    sb = SafeBound()
    sb.build(tiny_db)
    return sb


def _queries():
    q1 = (
        Query()
        .add_relation("f", "fact")
        .add_relation("d", "dim")
        .add_join("f", "dim_id", "d", "id")
        .add_predicate("d", Range("year", low=1960, high=1990))
    )
    q2 = (
        Query()
        .add_relation("f", "fact")
        .add_relation("d", "dim")
        .add_join("f", "dim_id", "d", "id")
        .add_predicate("f", Eq("score", 3))
    )
    return [q1, q2]


class TestStatsCatalog:
    def test_publish_creates_versioned_archive_and_manifest(self, built, tmp_path):
        catalog = StatsCatalog(tmp_path)
        published = catalog.publish("db1", built.stats, note="initial")
        assert published.version == 1
        assert published.label == "v000001"
        assert (tmp_path / "db1" / "v000001.sba").exists()
        manifest = json.loads((tmp_path / "db1" / "MANIFEST.json").read_text())
        assert [e["version"] for e in manifest["versions"]] == [1]
        assert manifest["versions"][0]["note"] == "initial"
        assert manifest["versions"][0]["file_bytes"] > 0
        assert manifest["versions"][0]["num_sequences"] == built.stats.num_sequences()

    def test_publish_leaves_no_temporaries(self, built, tmp_path):
        catalog = StatsCatalog(tmp_path)
        catalog.publish("db1", built.stats)
        catalog.publish("db1", built.stats)
        names = {p.name for p in (tmp_path / "db1").iterdir()}
        assert names == {"MANIFEST.json", "v000001.sba", "v000002.sba"}

    def test_publish_records_content_digest(self, built, tmp_path):
        """Every version records the statistics' content digest, and loads
        back to bit-identical bounds."""
        from repro.core.serialization import stats_digest

        catalog = StatsCatalog(tmp_path)
        v1 = catalog.publish("db1", built.stats)
        v2 = catalog.publish("db1", built.stats)
        digest = stats_digest(built.stats)
        assert v1.metadata["stats_digest"] == digest
        assert v2.metadata["stats_digest"] == digest
        for version in (1, 2):
            sb = SafeBound(built.config)
            sb.stats = catalog.load("db1", version)
            assert stats_digest(sb.stats) == digest
            for q in _queries():
                assert sb.bound(q) == built.bound(q)

    def test_reads_manifests_with_retired_format_field(self, built, tmp_path):
        """Manifests written while a second archive format existed carry a
        ``format`` field per entry; they stay readable."""
        catalog = StatsCatalog(tmp_path)
        catalog.publish("db1", built.stats)
        path = tmp_path / "db1" / "MANIFEST.json"
        manifest = json.loads(path.read_text())
        manifest["versions"][0]["format"] = "arena"
        path.write_text(json.dumps(manifest))
        assert [v.version for v in StatsCatalog(tmp_path).versions("db1")] == [1]

    def test_stats_info_reads_manifests_with_retired_build_pool(
        self, built, tmp_path, capsys
    ):
        """Versions published while the build offered a thread or process
        pool carry ``build_workers``, ``build_shard_rows`` and
        ``build_pool`` metadata keys; they stay readable and loadable, and
        new publishes write none of them."""
        from repro.core.serialization import stats_digest
        from repro.service.__main__ import stats_info

        retired = {"build_workers": 4, "build_shard_rows": None, "build_pool": "process"}
        catalog = StatsCatalog(tmp_path)
        catalog.publish("db1", built.stats, metadata=retired)
        assert stats_info(["db1", "--catalog", str(tmp_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["version"] == 1
        assert info["stats_digest"] == stats_digest(built.stats)
        sb = SafeBound(built.config)
        sb.stats = catalog.load("db1", 1)
        for q in _queries():
            assert sb.bound(q) == built.bound(q)
        written = CatalogBackedSafeBound(catalog, "db1").build_metadata()
        assert not retired.keys() & written.keys()

    def test_version_info_and_archive_path(self, built, tmp_path):
        catalog = StatsCatalog(tmp_path)
        catalog.publish("db1", built.stats, note="first")
        catalog.publish("db1", built.stats, note="second")
        latest = catalog.version_info("db1")
        assert latest.version == 2 and latest.note == "second"
        first = catalog.version_info("db1", 1)
        assert first.note == "first"
        assert catalog.archive_path(first).exists()
        with pytest.raises(LookupError):
            catalog.version_info("db1", 99)
        with pytest.raises(LookupError):
            catalog.version_info("nope")

    def test_versions_monotonic_and_latest(self, built, tmp_path):
        catalog = StatsCatalog(tmp_path)
        for _ in range(3):
            catalog.publish("db1", built.stats)
        versions = catalog.versions("db1")
        assert [v.version for v in versions] == [1, 2, 3]
        assert catalog.latest("db1").version == 3
        assert catalog.latest("other") is None

    def test_databases_listing(self, built, tmp_path):
        catalog = StatsCatalog(tmp_path)
        catalog.publish("a", built.stats)
        catalog.publish("b", built.stats)
        assert catalog.databases() == ["a", "b"]

    def test_load_roundtrips_bounds(self, built, tiny_db, tmp_path):
        catalog = StatsCatalog(tmp_path)
        catalog.publish("db1", built.stats)
        loaded = catalog.load("db1")
        sb = SafeBound(built.config)
        sb.stats = loaded
        for q in _queries():
            assert sb.bound(q) == built.bound(q)

    def test_load_missing_raises(self, tmp_path, built):
        catalog = StatsCatalog(tmp_path)
        with pytest.raises(LookupError):
            catalog.load("nope")
        catalog.publish("db1", built.stats)
        with pytest.raises(LookupError):
            catalog.load("db1", version=99)

    def test_loads_are_private_copies(self, built, tmp_path):
        """Every load reads its own copy from disk: two loads of one
        version are distinct objects, and padding one (as a served
        version is padded by inserts) leaves the other untouched."""
        catalog = StatsCatalog(tmp_path)
        catalog.publish("db1", built.stats)
        first = catalog.load("db1", 1)
        second = catalog.load("db1", 1)
        assert first is not second
        assert first.relations["fact"] is not second.relations["fact"]
        padded = SafeBound(built.config)
        padded.stats = first
        padded.apply_insert("fact", {
            "id": np.arange(700000, 700050),
            "dim_id": np.arange(50) % 7,
            "score": np.zeros(50, dtype=np.int64),
            "tag": np.zeros(50, dtype=np.int64),
        })
        assert first.relations["fact"].pending_inserts == 50
        assert second.relations["fact"].pending_inserts == 0
        untouched = SafeBound(built.config)
        untouched.stats = second
        for q in _queries():
            assert untouched.bound(q) == built.bound(q)


class TestCatalogBackedSafeBound:
    def test_build_publishes_and_serves(self, tiny_db, built, tmp_path):
        catalog = StatsCatalog(tmp_path)
        estimator = CatalogBackedSafeBound(catalog, "tiny")
        estimator.build(tiny_db)
        assert estimator.version == 1
        assert catalog.latest("tiny").version == 1
        for q in _queries():
            assert estimator.estimate(q) == built.bound(q)
        assert estimator.estimate_batch(_queries()) == [built.bound(q) for q in _queries()]

    def test_refresh_hot_swaps_to_latest(self, tiny_db, built, tmp_path):
        catalog = StatsCatalog(tmp_path)
        estimator = CatalogBackedSafeBound(catalog, "tiny")
        estimator.build(tiny_db)
        assert estimator.refresh() is False  # already current
        catalog.publish("tiny", built.stats, note="rebuild")
        assert estimator.refresh() is True
        assert estimator.version == 2
        for q in _queries():
            assert estimator.estimate(q) == built.bound(q)

    def test_refresh_keeps_compiled_skeletons(self, tiny_db, tmp_path):
        """A swap hands the outgoing engine to the incoming version: shapes
        bounded before it are not compiled again, and the bounds equal a
        fresh engine's on the new statistics."""
        catalog = StatsCatalog(tmp_path)
        estimator = CatalogBackedSafeBound(catalog, "tiny")
        estimator.build(tiny_db)
        estimator.estimate_batch(_queries())
        estimator.apply_insert("fact", {
            "id": np.arange(600000, 600040),
            "dim_id": np.arange(40) % 7,
            "score": np.full(40, 3, dtype=np.int64),
            "tag": np.zeros(40, dtype=np.int64),
        })
        catalog.publish(
            "tiny", estimator._current().stats, metadata=estimator.build_metadata()
        )
        assert estimator.refresh() is True
        with metrics_installed() as registry:
            swapped = estimator.estimate_batch(_queries())
        assert registry.snapshot().get("skeleton.compiles", 0) == 0
        fresh = SafeBound()
        fresh.stats = catalog.load("tiny", 2)
        assert swapped == fresh.estimate_batch(_queries())

    def test_refresh_rejects_truncated_archive(self, tiny_db, built, tmp_path):
        """Regression: a truncated published arena used to be hot-swapped
        in, after which every estimate failed with an IndexError.  Now the
        open fails with a ValueError and the old version keeps serving."""
        catalog = StatsCatalog(tmp_path)
        estimator = CatalogBackedSafeBound(catalog, "tiny")
        estimator.build(tiny_db)
        before = estimator.estimate_batch(_queries())
        published = catalog.publish("tiny", built.stats, note="rebuild")
        path = catalog.archive_path(published)
        with open(path, "rb+") as fh:
            fh.truncate(path.stat().st_size - 64)
        with pytest.raises(ValueError, match="truncated"):
            estimator.refresh()
        assert estimator.version == 1
        assert estimator.estimate_batch(_queries()) == before

    def test_refresh_serves_private_copy(self, tiny_db, tmp_path):
        """The estimator serves (and mutates) its own copy: its
        apply_insert never reaches another reader of that published
        version."""
        import numpy as np

        catalog = StatsCatalog(tmp_path)
        estimator = CatalogBackedSafeBound(catalog, "tiny")
        estimator.build(tiny_db)
        catalog.publish("tiny", estimator._current().stats)
        estimator.refresh()
        shared = catalog.load("tiny", 2)
        assert estimator._current().stats is not shared
        estimator.apply_insert("fact", {
            "id": np.arange(500000, 500050),
            "dim_id": np.arange(50) % 300,
            "score": np.zeros(50, dtype=np.int64),
            "tag": np.zeros(50, dtype=np.int64),
        })
        # The published version stays pristine.
        assert shared.relations["fact"].pending_inserts == 0
        assert catalog.load("tiny", 2).relations["fact"].pending_inserts == 0
        assert estimator._current().stats.relations["fact"].pending_inserts == 50

    def test_concurrent_refresh_leaks_nothing(self, tiny_db, built, tmp_path):
        """Racing refreshes must leave the latest version served."""
        import threading

        catalog = StatsCatalog(tmp_path)
        estimator = CatalogBackedSafeBound(catalog, "tiny")
        estimator.build(tiny_db)
        catalog.publish("tiny", built.stats)
        barrier = threading.Barrier(4)

        def race():
            barrier.wait()
            estimator.refresh()

        threads = [threading.Thread(target=race) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert estimator.version == 2
        assert estimator.estimate_batch(_queries()) == [built.bound(q) for q in _queries()]

    def test_refresh_attaches_tracking_even_when_version_current(self, tiny_db, tmp_path):
        """Regression: when the server's trackerless poll wins the swap
        race, the ingest's own refresh(db) must still attach counters."""
        from repro.core.safebound import SafeBoundConfig

        catalog = StatsCatalog(tmp_path)
        estimator = CatalogBackedSafeBound(
            catalog, "tiny", SafeBoundConfig(track_updates=True)
        )
        estimator.build(tiny_db)
        catalog.publish("tiny", estimator._current().stats)
        assert estimator.refresh() is True  # trackerless poll (no db)
        sb = estimator._current()
        assert all(
            js.incremental is None
            for rel in sb.stats.relations.values()
            for js in rel.join_stats.values()
        )
        assert estimator.refresh(tiny_db) is False  # version current...
        assert all(
            js.incremental is not None
            for rel in sb.stats.relations.values()
            for js in rel.join_stats.values()
        )  # ...but tracking was repaired

    def test_unbuilt_estimator_raises(self, tmp_path):
        estimator = CatalogBackedSafeBound(StatsCatalog(tmp_path), "tiny")
        with pytest.raises(RuntimeError):
            estimator.estimate(_queries()[0])

    def test_runner_consumes_catalog_backed_estimator(self, tmp_path):
        """The harness runner accepts the catalog-backed variant unchanged."""
        from repro.harness.experiments import default_estimators
        from repro.harness.runner import run_workload
        from repro.workloads import make_stats_ceb

        workload = make_stats_ceb(scale=0.03, num_queries=4, seed=5)
        catalog = StatsCatalog(tmp_path)
        factories = default_estimators(
            methods=["SafeBound"],
            safebound_factory=lambda: CatalogBackedSafeBound(catalog, "stats_ceb"),
        )
        results = run_workload(workload, {"SafeBound": factories["SafeBound"]()})
        records = results["SafeBound"].supported_records()
        assert records, "catalog-backed SafeBound must answer the workload"
        assert catalog.latest("stats_ceb").version == 1
        for record in records:
            assert record.estimate >= record.true_cardinality * (1 - 1e-9)


class TestGeneration:
    """The published generation: the manifest's latest version."""

    def test_generation_is_latest_manifest_version(self, built, tmp_path):
        catalog = StatsCatalog(tmp_path)
        assert catalog.generation("db1") == 0  # nothing published
        catalog.publish("db1", built.stats)
        assert catalog.generation("db1") == 1
        catalog.publish("db1", built.stats)
        assert catalog.generation("db1") == 2 == catalog.latest("db1").version
        estimator = CatalogBackedSafeBound(catalog, "db1")
        assert estimator.generation() == 2
