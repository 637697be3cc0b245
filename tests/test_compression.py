"""Tests for ValidCompress (Algorithm 1) and the baseline compressions."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compression import (
    RunListCompressor,
    dominate_ds_compress,
    equi_depth_compress,
    exponential_compress,
    reduce_cds_segments,
    relative_self_join_error,
    self_join_bound,
    valid_compress,
    valid_compress_runs,
)
from repro.core.degree_sequence import DegreeSequence
from repro.core.piecewise import PiecewiseLinear


def _validity_checks(ds: DegreeSequence, compressed):
    """Definition 3.3: (a) nonincreasing DS, (b) CDS domination,
    (c) cardinality preservation."""
    exact = ds.to_cds()
    assert compressed.delta().is_nonincreasing(), "(a) associated DS must be nonincreasing"
    assert compressed.dominates(exact), "(b) compressed CDS must dominate the exact CDS"
    assert compressed.total == pytest.approx(ds.cardinality), "(c) cardinality must be preserved"
    assert compressed.domain_end == pytest.approx(ds.num_distinct)


frequency_lists = st.lists(st.integers(1, 1000), min_size=1, max_size=150)


class TestValidCompress:
    @given(frequency_lists, st.sampled_from([0.0, 0.001, 0.01, 0.1, 1.0, 10.0]))
    @settings(max_examples=120, deadline=None)
    def test_always_valid(self, freqs, accuracy):
        ds = DegreeSequence.from_frequencies(np.array(freqs))
        compressed = valid_compress(ds, accuracy)
        _validity_checks(ds, compressed)

    @given(frequency_lists)
    @settings(max_examples=60, deadline=None)
    def test_accuracy_zero_is_lossless(self, freqs):
        ds = DegreeSequence.from_frequencies(np.array(freqs))
        compressed = valid_compress(ds, 0.0)
        exact = ds.to_cds()
        grid = np.linspace(0, exact.domain_end, 37)
        npt.assert_allclose(compressed(grid), exact(grid), rtol=1e-9, atol=1e-9)

    def test_key_column_single_segment(self):
        ds = DegreeSequence.from_column(np.arange(1000))
        assert valid_compress(ds, 0.01).num_segments == 1

    def test_more_accuracy_fewer_segments(self):
        rng = np.random.default_rng(0)
        ds = DegreeSequence.from_column((rng.zipf(1.3, 20000) % 5000))
        loose = valid_compress(ds, 1.0)
        tight = valid_compress(ds, 0.001)
        assert loose.num_segments <= tight.num_segments
        assert relative_self_join_error(ds, loose) >= relative_self_join_error(ds, tight) - 1e-12

    def test_self_join_error_bounded_by_theorem(self):
        """Theorem 3.4: relative self-join error <= c * k."""
        rng = np.random.default_rng(1)
        ds = DegreeSequence.from_column((rng.zipf(1.4, 30000) % 8000))
        for c in (0.001, 0.01, 0.1):
            compressed = valid_compress(ds, c)
            k = compressed.num_segments
            assert relative_self_join_error(ds, compressed) <= c * k + 1e-9

    def test_empty(self):
        ds = DegreeSequence.from_frequencies(np.array([], dtype=np.int64))
        assert valid_compress(ds, 0.01).total == 0.0

    def test_zipf_compresses_hard(self):
        """The paper reports 20-30 segments at c=.01 for FK columns."""
        rng = np.random.default_rng(2)
        ds = DegreeSequence.from_column((rng.zipf(1.3, 100000) % 20000))
        compressed = valid_compress(ds, 0.01)
        assert compressed.num_segments <= 40
        assert compressed.num_segments < ds.num_runs


def _valid_compress_oracle(ds: DegreeSequence, accuracy: float) -> PiecewiseLinear:
    """ValidCompress as it ran on numpy scalars straight off the
    DegreeSequence arrays — the reference for the run-list compressor."""
    if ds.num_distinct == 0:
        return PiecewiseLinear.zero()
    d = float(ds.num_distinct)
    cardinality = float(ds.cardinality)
    threshold = accuracy * float(ds.self_join_size)
    bp_x = [0.0]
    bp_y = [0.0]
    slope = float(ds.freqs[0])
    seg_start_x = 0.0
    seg_start_y = 0.0
    m = 0.0
    eps = 0.0
    for freq, count in zip(ds.freqs.astype(float), ds.counts.astype(float)):
        remaining = count
        while remaining > 0:
            inc = freq * (slope - freq)
            if inc <= 0.0:
                m += remaining * (freq / slope)
                remaining = 0.0
                continue
            budget = threshold - eps
            can_take = np.floor(budget / inc) if budget > 0 else 0.0
            if can_take >= remaining:
                eps += remaining * inc
                m += remaining * (freq / slope)
                remaining = 0.0
            else:
                take = max(can_take, 0.0)
                if take > 0:
                    eps += take * inc
                    m += take * (freq / slope)
                    remaining -= take
                seg_start_y = seg_start_y + slope * (m - seg_start_x)
                seg_start_x = m
                bp_x.append(seg_start_x)
                bp_y.append(seg_start_y)
                slope = freq
                eps = 0.0
    end_y = seg_start_y + slope * (m - seg_start_x)
    bp_x.append(m)
    bp_y.append(end_y)
    if m < d - 1e-12:
        bp_x.append(d)
        bp_y.append(cardinality)
    else:
        bp_y[-1] = cardinality
    return PiecewiseLinear(np.array(bp_x), np.array(bp_y))


def _assert_same_function(a: PiecewiseLinear, b: PiecewiseLinear) -> None:
    assert a.xs.tobytes() == b.xs.tobytes()
    assert a.ys.tobytes() == b.ys.tobytes()


# Run lists: strictly descending frequencies, each with a run length.
run_lists = st.lists(
    st.tuples(st.integers(1, 10**6), st.integers(1, 10**5)), min_size=1, max_size=60
).map(lambda runs: sorted({f: c for f, c in runs}.items(), reverse=True))


class TestRunListCompressor:
    @given(run_lists, st.sampled_from([0.0, 0.001, 0.01, 0.1, 1.0, 10.0]))
    @settings(max_examples=200, deadline=None)
    def test_matches_degree_sequence_oracle(self, runs, accuracy):
        freqs = [f for f, _ in runs]
        counts = [c for _, c in runs]
        ds = DegreeSequence(np.array(freqs), np.array(counts))
        expected = _valid_compress_oracle(ds, accuracy)
        _assert_same_function(valid_compress_runs(freqs, counts, accuracy), expected)
        _assert_same_function(valid_compress(ds, accuracy), expected)

    @given(frequency_lists)
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_column_frequencies(self, freqs):
        ds = DegreeSequence.from_frequencies(np.array(freqs))
        _assert_same_function(valid_compress(ds, 0.01), _valid_compress_oracle(ds, 0.01))

    def test_empty_run_list_is_zero(self):
        assert valid_compress_runs([], [], 0.01).total == 0.0

    def test_identical_run_lists_compress_once(self):
        compress = RunListCompressor(0.01)
        first = compress((5, 2), (3, 7))
        assert compress((5, 2), (3, 7)) is first
        ds = DegreeSequence(np.array([5, 2]), np.array([3, 7]))
        assert compress.degree_sequence(ds) is first
        assert compress((5, 1), (3, 7)) is not first
        _assert_same_function(first, _valid_compress_oracle(ds, 0.01))

    def test_instances_share_nothing(self):
        a, b = RunListCompressor(0.01), RunListCompressor(0.01)
        assert a((4,), (2,)) is not b((4,), (2,))


class TestBaselineCompressions:
    @given(frequency_lists, st.integers(1, 20))
    @settings(max_examples=80, deadline=None)
    def test_equi_depth_valid(self, freqs, segments):
        ds = DegreeSequence.from_frequencies(np.array(freqs))
        _validity_checks(ds, equi_depth_compress(ds, segments))

    @given(frequency_lists, st.integers(1, 20))
    @settings(max_examples=80, deadline=None)
    def test_exponential_valid(self, freqs, segments):
        ds = DegreeSequence.from_frequencies(np.array(freqs))
        _validity_checks(ds, exponential_compress(ds, segments))

    @given(frequency_lists, st.integers(1, 10))
    @settings(max_examples=80, deadline=None)
    def test_ds_domination_inflates_cardinality(self, freqs, segments):
        """The [4]-style compression dominates the DS pointwise, so its
        total can only exceed the true cardinality — the motivation for
        Sec 3.3."""
        ds = DegreeSequence.from_frequencies(np.array(freqs))
        expanded = ds.expand()
        dividers = np.linspace(1, len(expanded), segments + 1).astype(int)[1:]
        dom = dominate_ds_compress(ds, dividers)
        assert dom.total >= ds.cardinality - 1e-9
        assert dom.dominates(ds.to_cds())

    def test_cds_beats_ds_modeling(self):
        """Fig 9b headline: modeling the CDS gives lower error than the DS
        at comparable compression."""
        rng = np.random.default_rng(3)
        ds = DegreeSequence.from_column((rng.zipf(1.25, 50000) % 9000))
        segments = 8
        cds_err = relative_self_join_error(ds, equi_depth_compress(ds, segments))
        expanded_cum = np.cumsum(ds.expand().astype(float))
        targets = np.linspace(0, expanded_cum[-1], segments + 1)[1:]
        dividers = np.searchsorted(expanded_cum, targets, "left") + 1
        ds_err = relative_self_join_error(ds, dominate_ds_compress(ds, dividers))
        assert cds_err < ds_err


class TestReduceSegments:
    @given(st.lists(st.floats(0.05, 10), min_size=3, max_size=40), st.integers(2, 8))
    @settings(max_examples=80, deadline=None)
    def test_reduction_dominates(self, slope_steps, max_segments):
        slopes = np.sort(np.array(slope_steps))[::-1]
        xs = np.arange(len(slopes) + 1, dtype=float)
        ys = np.concatenate(([0.0], np.cumsum(slopes)))
        from repro.core.piecewise import PiecewiseLinear

        cds = PiecewiseLinear(xs, ys)
        reduced = reduce_cds_segments(cds, max_segments)
        assert reduced.num_segments <= max_segments + 1
        assert reduced.dominates(cds)
        assert reduced.total == pytest.approx(cds.total, rel=1e-9)
        assert reduced.is_concave()

    def test_noop_when_small(self):
        from repro.core.piecewise import PiecewiseLinear

        cds = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 5.0]))
        assert reduce_cds_segments(cds, 10) is cds


class TestSelfJoinBound:
    def test_exact_on_step(self):
        ds = DegreeSequence.from_frequencies(np.array([4, 2, 2, 1]))
        assert self_join_bound(ds.to_cds()) == pytest.approx(16 + 4 + 4 + 1)

    def test_zero(self):
        from repro.core.piecewise import PiecewiseLinear

        assert self_join_bound(PiecewiseLinear.zero()) == 0.0
