"""Micro-benchmarks of SafeBound's hot kernels.

Not a paper figure, but the numbers the paper's complexity claims rest
on: ValidCompress is linear in the number of runs, and FDSB inference is
log-linear in the total compressed segment count (Theorem 3.4 of Sec 3.5),
i.e. both are micro- to millisecond-scale.  The segmented search and
merge are the array kernel's primitives under both bound evaluation and
batched conditioning: one ``np.searchsorted`` pass over sorted keys each.
"""

import numpy as np
import pytest

from repro.core import DegreeSequence, SafeBound, valid_compress
from repro.core import arraykernel as ak
from repro.core.predicates import And, Eq, Range
from repro.db.query import Query


@pytest.fixture(scope="module")
def zipf_ds():
    rng = np.random.default_rng(0)
    return DegreeSequence.from_column((rng.zipf(1.3, 500_000) % 50_000))


def test_bench_valid_compress(benchmark, zipf_ds):
    cds = benchmark(valid_compress, zipf_ds, 0.01)
    assert cds.total == zipf_ds.cardinality


@pytest.fixture(scope="module")
def built_safebound(bench_imdb):
    sb = SafeBound()
    sb.build(bench_imdb)
    return sb


def test_bench_fdsb_inference(benchmark, built_safebound, bench_imdb):
    q = Query(name="kernel")
    q.add_relation("t", "title").add_relation("ci", "cast_info")
    q.add_relation("mk", "movie_keyword").add_relation("mc", "movie_companies")
    q.add_join("ci", "movie_id", "t", "id")
    q.add_join("mk", "movie_id", "t", "id")
    q.add_join("mc", "movie_id", "t", "id")
    q.add_predicate("t", And([Range("production_year", low=1990, high=2005), Eq("kind_id", 0)]))
    q.add_predicate("ci", Eq("role_id", 1))
    bound = benchmark(built_safebound.bound, q)
    assert bound >= 0


@pytest.fixture(scope="module")
def ragged_batches():
    """Two segment-sorted batches of 2,000 segments, ~16 points each,
    drawn from a small value pool so that ties are common."""
    rng = np.random.default_rng(0)

    def batch():
        lengths = rng.integers(0, 33, 2_000)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        vals = rng.integers(0, 64, offsets[-1]).astype(float)
        ids = np.repeat(np.arange(len(lengths)), lengths)
        vals = vals[np.lexsort((vals, ids))]
        return ak.Ragged(vals, None, offsets)

    return batch(), batch()


def test_bench_seg_searchsorted(benchmark, ragged_batches):
    a, q = ragged_batches
    # Keys are built inside the timing: callers pay for them once per batch.
    idx = benchmark(
        lambda: ak._seg_searchsorted(
            ak._keys(a.ids(), a.xs), a.offsets, ak._keys(q.ids(), q.xs), q.ids(), "right"
        )
    )
    assert np.all((idx >= 0) & (idx <= a.lengths()[q.ids()]))


def test_bench_seg_merge_unique(benchmark, ragged_batches):
    a, b = ragged_batches
    # Fresh batches per call, so the keys are built inside the timing.
    merged = benchmark(
        lambda: ak._seg_merge_unique(
            ak.Ragged(a.xs, None, a.offsets), ak.Ragged(b.xs, None, b.offsets)
        )
    )
    assert merged.offsets[-1] <= a.offsets[-1] + b.offsets[-1]
