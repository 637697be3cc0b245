"""Conditioning-path benchmark: object constructor vs the batched array
pipeline vs warm hits in SafeBound's conditioning LRU.

Conditioning — turning each query's (table, effective predicate) pair
into conditioned join-column CDSs plus the single-table bound — is the
dominant cold-path cost of online estimation.  This bench times the
three implementations over the distinct pairs of a workload batch:

* **object** — the per-relation :class:`ConditionedRelation` constructor
  (lookup -> pointwise min/sum/concave-max recursion per join column);
* **array** — :func:`condition_relations_batch`, one CSE'd dependency-
  level kernel schedule over every pair at once;
* **lru-warm** — what the online path pays once the pair is cached:
  ``SafeBound._conditioned_relation`` answered by the conditioning LRU
  (a lock, a dict probe and a recency bump; no piecewise math at all).

Bit-identity across all three is asserted unconditionally; at any
configuration the LRU-warm path must beat the object path by the 2x
floor (CI smoke-runs this file at a reduced scale).

``REPRO_BENCH_COND_SCALE`` scales the datasets (default 0.2) and
``REPRO_BENCH_COND_QUERIES`` the batch size (default 80); the committed
``BENCH_conditioning.json`` snapshot is only refreshed at the default
configuration.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np
import pytest

from repro.core.conditioning import ConditionedRelation, condition_relations_batch
from repro.core.safebound import SafeBound
from repro.workloads import make_imdb, make_job_light, make_stats_ceb

COND_SNAPSHOT_PATH = (
    pathlib.Path(__file__).resolve().parent / "BENCH_conditioning.json"
)

SCALE = float(os.environ.get("REPRO_BENCH_COND_SCALE", "0.2"))
NUM_QUERIES = int(os.environ.get("REPRO_BENCH_COND_QUERIES", "80"))
DEFAULT_CONFIG = SCALE == 0.2 and NUM_QUERIES == 80
SPEEDUP_FLOOR = 2.0  # lru-warm vs object, asserted at every config
REPETITIONS = 7


def _distinct_pairs(sb: SafeBound, queries) -> list[tuple[str, object]]:
    """The distinct (table, effective predicate) pairs a batch conditions
    — exactly the keys ``_prepare_conditioning`` would miss on."""
    pairs: list[tuple[str, object]] = []
    seen: set[tuple[str, str]] = set()
    for query in queries:
        effective = sb._effective_predicates(query)
        for alias, tname in query.relations.items():
            predicate = effective.get(alias)
            key = (tname, repr(predicate))
            if key not in seen:
                seen.add(key)
                pairs.append((tname, predicate))
    return pairs


def _median_seconds(fn) -> tuple[float, object]:
    result = fn()  # warm-up (allocator, code paths)
    times = []
    for _ in range(REPETITIONS):
        started = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - started)
    return float(np.median(times)), result


def _assert_identical(expected: list[ConditionedRelation], got) -> None:
    for e, g in zip(expected, got):
        assert g.single_table == e.single_table
        for jcol, cds in e._conditioned.items():
            other = g._conditioned[jcol]
            assert np.array_equal(cds.xs, other.xs)
            assert np.array_equal(cds.ys, other.ys)


@pytest.fixture(scope="module")
def workloads():
    imdb = make_imdb(scale=SCALE, seed=1)
    return {
        "JOB-Light": make_job_light(db=imdb, num_queries=NUM_QUERIES, seed=3),
        "stats-CEB": make_stats_ceb(scale=SCALE, num_queries=NUM_QUERIES, seed=5),
    }


@pytest.fixture(scope="module")
def estimators(workloads):
    out = {}
    for name, wl in workloads.items():
        sb = SafeBound()
        sb.build(wl.db)
        out[name] = sb
    return out


def test_conditioning_speedup_and_identity(workloads, estimators, show):
    rows = []
    lines = [
        f"conditioning, scale={SCALE}, {NUM_QUERIES} queries/workload "
        f"(nproc {len(os.sched_getaffinity(0))})",
        f"{'workload':>10} {'pairs':>6} {'object_ms':>10} {'array_ms':>9} "
        f"{'warm_ms':>8} {'array_x':>8} {'warm_x':>7}",
    ]
    for name, wl in workloads.items():
        sb = estimators[name]
        pairs = _distinct_pairs(sb, wl.queries)
        relations = [(sb.stats.relations[t], p) for t, p in pairs]

        object_seconds, object_rels = _median_seconds(
            lambda: [ConditionedRelation(rel, p) for rel, p in relations]
        )
        array_seconds, array_rels = _median_seconds(
            lambda: condition_relations_batch(relations)
        )
        _assert_identical(object_rels, array_rels)

        # Warm LRU: the lookup the online path makes for a pair it has
        # conditioned before (the warm-up call inside _median_seconds
        # fills the cache; every timed call is all hits).
        warm_seconds, warm_rels = _median_seconds(
            lambda: [sb._conditioned_relation(t, p) for t, p in pairs]
        )
        _assert_identical(object_rels, warm_rels)

        array_speedup = object_seconds / array_seconds
        warm_speedup = object_seconds / warm_seconds
        lines.append(
            f"{name:>10} {len(pairs):>6} {object_seconds * 1e3:>10.2f} "
            f"{array_seconds * 1e3:>9.2f} {warm_seconds * 1e3:>8.2f} "
            f"{array_speedup:>7.2f}x {warm_speedup:>6.1f}x"
        )
        rows.append(
            {
                "workload": name,
                "distinct_pairs": len(pairs),
                "object_seconds": round(object_seconds, 5),
                "array_seconds": round(array_seconds, 5),
                "lru_warm_seconds": round(warm_seconds, 5),
                "array_speedup": round(array_speedup, 3),
                "lru_warm_speedup": round(warm_speedup, 3),
                "identical": True,
            }
        )
        assert warm_speedup >= SPEEDUP_FLOOR, (
            f"{name}: warm LRU conditioning {warm_speedup:.2f}x "
            f"under the {SPEEDUP_FLOOR}x floor (object "
            f"{object_seconds * 1e3:.2f}ms, warm {warm_seconds * 1e3:.2f}ms)"
        )
    show("\n".join(lines))

    if DEFAULT_CONFIG:
        payload = {
            "bench": "conditioning",
            "scale": SCALE,
            "num_queries": NUM_QUERIES,
            "nproc": len(os.sched_getaffinity(0)),
            "repetitions": REPETITIONS,
            "speedup_floor": SPEEDUP_FLOOR,
            "rows": rows,
        }
        COND_SNAPSHOT_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    else:
        print(
            f"\n[conditioning_snapshot] non-default config scale={SCALE}, "
            f"queries={NUM_QUERIES}; not refreshing {COND_SNAPSHOT_PATH.name}"
        )

