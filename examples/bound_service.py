"""Quickstart for the bound-serving subsystem.

Walks the full service lifecycle on a toy database:

1. build SafeBound statistics and publish them to a versioned on-disk
   catalog (atomic publish, manifest with build metadata);
2. serve concurrent clients through the micro-batching estimation server
   (requests sharing a query shape share compiled skeletons and warm
   conditioning caches);
3. stream live inserts/deletes through the ingest path — bounds stay
   valid the whole time via CDS padding;
4. let the background recompress-and-republish cycle publish a fresh
   version, which the server hot-swaps without dropping a request.

Run with:  PYTHONPATH=src python examples/bound_service.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.core import Eq, Range, SafeBoundConfig
from repro.db import Database, Query, Schema, Table
from repro.db.executor import Executor
from repro.service import (
    CatalogBackedSafeBound,
    EstimationServer,
    StatsCatalog,
    UpdateIngest,
    generate_load,
)


def build_database() -> Database:
    rng = np.random.default_rng(7)
    schema = Schema()
    schema.add_table("users", primary_key="id", filter_columns=["country"])
    schema.add_table("events", join_columns=["user_id"], filter_columns=["kind"])
    schema.add_foreign_key("events", "user_id", "users", "id")
    db = Database(schema)
    n_users, n_events = 1000, 20000
    db.add_table(Table("users", {
        "id": np.arange(n_users),
        "country": rng.integers(0, 20, n_users),
    }))
    db.add_table(Table("events", {
        "id": np.arange(n_events),
        "user_id": (rng.zipf(1.5, n_events) - 1) % n_users,
        "kind": rng.integers(0, 10, n_events),
    }))
    return db


def make_queries() -> list[Query]:
    def join() -> Query:
        return (
            Query()
            .add_relation("u", "users")
            .add_relation("e", "events")
            .add_join("e", "user_id", "u", "id")
        )

    return [
        join().add_predicate("u", Eq("country", c)).add_predicate("e", Range("kind", low=0, high=4))
        for c in range(10)
    ] + [join().add_predicate("e", Eq("kind", k)) for k in range(5)]


def main() -> None:
    db = build_database()
    queries = make_queries()

    with tempfile.TemporaryDirectory(prefix="safebound-catalog-") as root:
        # 1. Offline phase: build + publish to the versioned catalog.
        catalog = StatsCatalog(root)
        estimator = CatalogBackedSafeBound(
            catalog, "events_db", SafeBoundConfig(track_updates=True)
        )
        estimator.build(db)
        v1 = catalog.latest("events_db")
        print(f"published {v1.label}: "
              f"{v1.file_bytes / 1024:.1f} KiB on disk, "
              f"{v1.num_sequences} sequences, "
              f"digest {v1.metadata['stats_digest'][:12]}…")
        # The archive is a zero-copy stats arena: cold starts map it in
        # O(manifest) time, and every process serving this version shares
        # the same read-only pages (see `python -m repro.service
        # stats-info`).

        # 2. Serve concurrent clients through micro-batches.
        server = EstimationServer(estimator, max_batch=32, refresh_db=db)
        with server:
            report = generate_load([server.bound] * 8, queries, num_requests=200)
            metrics = server.metrics_snapshot()
            print(f"served {report['requests']} requests at {report['qps']:.0f} q/s, "
                  f"mean batch {metrics['server.batch_size']['mean']:.1f}, "
                  f"p99 latency {metrics['server.request_seconds']['p99'] * 1e3:.2f} ms")

            # Micro-batched answers are bit-identical to direct calls.
            direct = [estimator.bound(q) for q in queries]
            assert all(
                report["results"][i] == direct[i % len(queries)]
                for i in range(report["requests"])
            )

            # 3. Live ingest: bounds stay valid under inserts/deletes.
            ingest = UpdateIngest(db, estimator, republish_overhead=0.05)
            rng = np.random.default_rng(42)
            n = 3000
            ingest.insert("events", {
                "id": np.arange(10_000_000, 10_000_000 + n),
                "user_id": (rng.zipf(1.5, n) - 1) % db.table("users").num_rows,
                "kind": rng.integers(0, 10, n),
            })
            ingest.delete("events", rng.choice(db.table("events").num_rows, 800, replace=False))
            executor = Executor(db)
            for q in queries[:5]:
                served = server.bound(q)
                true = executor.cardinality(q)
                assert served >= true, "bounds must survive updates"
            print(f"after +{n}/-800 rows: bounds still dominate truth "
                  f"(staleness {ingest.staleness * 100:.1f}%)")

            # 4. Recompress-and-republish; the server hot-swaps mid-traffic.
            version = ingest.maybe_republish()
            assert version is not None, "staleness crossed the threshold"
            generate_load([server.bound] * 4, queries, num_requests=100)
            assert server.metrics.rejected == 0
            print(f"republished {version.label}; server now serves "
                  f"version {estimator.version} (staleness {estimator.staleness() * 100:.1f}%), "
                  f"no rejected requests")

    print("\ncatalog -> server -> ingest -> republish cycle complete.")


if __name__ == "__main__":
    main()
