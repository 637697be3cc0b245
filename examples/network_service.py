"""Network serving walkthrough: bounds over a socket, hot-swapped live.

Extends the ``bound_service.py`` lifecycle across a socket:

1. build + publish SafeBound statistics to a versioned catalog;
2. put the socket front end (:class:`NetServer`, length-prefixed JSON
   frames) over the micro-batching estimation server;
3. drive it with :func:`generate_load` from client threads holding one
   :class:`NetClient` connection each — every request crosses the wire
   codec, TCP, admission control, and micro-batching;
4. republish mid-traffic: the server hot-swaps to the new version, and
   requests submitted after the publish are served from it — zero
   failed requests throughout.

Run with:  PYTHONPATH=src python examples/network_service.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.core import Eq, Range, SafeBoundConfig
from repro.db import Database, Query, Schema, Table
from repro.service import (
    CatalogBackedSafeBound,
    EstimationServer,
    NetClient,
    NetServer,
    StatsCatalog,
    UpdateIngest,
    connect_clients,
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
        join().add_predicate("u", Eq("country", c))
        for c in range(8)
    ] + [join().add_predicate("e", Range("kind", low=0, high=4))]


def main() -> None:
    db = build_database()
    queries = make_queries()

    with tempfile.TemporaryDirectory(prefix="safebound-net-") as root:
        # 1. Offline phase: build + publish to the versioned catalog.
        catalog = StatsCatalog(root)
        estimator = CatalogBackedSafeBound(
            catalog, "events_db", SafeBoundConfig(track_updates=True)
        )
        estimator.build(db)
        v1 = catalog.latest("events_db")
        print(f"published {v1.label}: {v1.file_bytes / 1024:.1f} KiB, "
              f"generation {catalog.generation('events_db')}")

        # 2. Socket front end over the estimation server.
        server = EstimationServer(estimator, max_batch=16, max_queue=4096)
        with server, NetServer(server) as net:
            host, port = net.address
            print(f"serving on {host}:{port}")

            # 3. Load from eight socket clients, one thread each.
            with connect_clients(host, port, 8) as clients:
                report = generate_load([c.bound for c in clients], queries, 300)
            assert report["errors"] == {}, report["errors"]
            direct = [estimator.bound(q) for q in queries]
            assert all(
                report["results"][i] == direct[i % len(queries)]
                for i in range(report["requests"])
            ), "wire round trip must be bit-identical"
            print(f"served {report['completed']} requests from "
                  f"{report['concurrency']} socket clients at {report['qps']:.0f} q/s")

            # 4. Republish mid-traffic; republish swaps the served version
            #    before it returns, so post-publish requests serve it.
            ingest = UpdateIngest(db, estimator)
            rng = np.random.default_rng(42)
            n = 3000
            ingest.insert("events", {
                "id": np.arange(10_000_000, 10_000_000 + n),
                "user_id": (rng.zipf(1.5, n) - 1) % db.table("users").num_rows,
                "kind": rng.integers(0, 10, n),
            })
            version = ingest.republish()
            with connect_clients(host, port, 4) as clients:
                post = generate_load([c.bound for c in clients], queries, 60)
            assert post["errors"] == {}

            v2 = CatalogBackedSafeBound(catalog, "events_db")
            v2.refresh()
            expected = [v2.bound(q) for q in queries]
            assert all(
                post["results"][i] == expected[i % len(queries)]
                for i in range(post["requests"])
            ), "post-publish bounds must come from the new version"

            with NetClient(host, port) as probe:
                health = probe.health()
            print(f"republished {version.label}; health reports version "
                  f"{health['version']} generation {health['generation']}, "
                  f"0 failed requests")

    print("\ncatalog -> socket -> clients -> republish cycle complete.")


if __name__ == "__main__":
    main()
