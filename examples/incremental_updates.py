"""Incremental statistics maintenance and serialisation.

Demonstrates two extensions beyond the paper's prototype (its Sec 6
future-work list): maintaining a valid compressed CDS under a stream of
inserts/deletes without full recomputation, and persisting SafeBound's
statistics to disk.

Run with:  python examples/incremental_updates.py
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.core import (
    IncrementalColumnStats,
    SafeBound,
    load_stats,
    save_stats,
)
from repro.core.degree_sequence import DegreeSequence
from repro.db import Database, Query, Schema, Table
from repro.core.predicates import Range


def updates_demo() -> None:
    rng = np.random.default_rng(0)
    initial = (rng.zipf(1.4, 20_000) - 1) % 1_500
    stats = IncrementalColumnStats(initial, accuracy=0.01, slack=0.15)
    print("incremental CDS maintenance (inserts keep the bound valid):")
    print(f"  start: {stats.counter.cardinality} rows, "
          f"{stats.cds.num_segments} segments")
    for step in range(6):
        batch = (rng.zipf(1.4, 800) - 1) % 2_000
        stats.insert(batch)
        true_cds = stats.counter.degree_sequence().to_cds()
        grid = np.linspace(0, true_cds.domain_end, 50)
        assert np.all(stats.cds(grid) >= true_cds(grid) - 1e-6), "must stay a bound"
        print(f"  +800 rows -> total bound {stats.cds.total:9.0f} "
              f"(true {stats.counter.cardinality}), "
              f"padding overhead {stats.padding_overhead * 100:5.2f}%, "
              f"recompressions so far: {stats.recompressions}")
    deletions = stats.counter.degree_sequence()
    print(f"  final degree sequence: {deletions.num_distinct} distinct values, "
          f"max degree {deletions.max_frequency}")


def serialization_demo() -> None:
    rng = np.random.default_rng(1)
    schema = Schema()
    schema.add_table("dim", primary_key="id", filter_columns=["year"])
    schema.add_table("fact", join_columns=["dim_id"], filter_columns=["score"])
    schema.add_foreign_key("fact", "dim_id", "dim", "id")
    db = Database(schema)
    db.add_table(Table("dim", {"id": np.arange(500), "year": rng.integers(1950, 2020, 500)}))
    db.add_table(Table("fact", {
        "id": np.arange(8000),
        "dim_id": (rng.zipf(1.5, 8000) - 1) % 500,
        "score": rng.integers(0, 50, 8000),
    }))
    sb = SafeBound()
    sb.build(db)
    query = (Query()
             .add_relation("f", "fact")
             .add_relation("d", "dim")
             .add_join("f", "dim_id", "d", "id")
             .add_predicate("d", Range("year", low=1980, high=1999)))
    original_bound = sb.bound(query)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "safebound_stats.sba")
        size = save_stats(sb.stats, path)
        print(f"\nserialisation: wrote {size / 1024:.1f} KiB to disk "
              f"(in-memory estimate: {sb.memory_bytes() / 1024:.1f} KiB)")
        sb2 = SafeBound(sb.config)
        sb2.stats = load_stats(path)
        reloaded_bound = sb2.bound(query)
    print(f"bound before save: {original_bound:.0f}, after reload: {reloaded_bound:.0f}")
    assert original_bound == reloaded_bound


if __name__ == "__main__":
    updates_demo()
    serialization_demo()
