"""Tests for CDS group compression (Sec 4.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform

from repro.core.clustering import (
    _interp_at,
    _pad_breakpoints,
    _sj_of_max_rows,
    cluster_cds,
    distinct_members,
    group_maxima,
    pairwise_sj_distance_matrix,
    self_join_distance,
)
from repro.core.compression import self_join_bound, valid_compress
from repro.core.degree_sequence import DegreeSequence
from repro.core.piecewise import concave_max


def _cds_family(seed: int = 0, n: int = 24):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        size = int(rng.integers(5, 500))
        freqs = rng.zipf(1.5, size) % 100 + 1
        out.append(DegreeSequence.from_frequencies(freqs).to_cds())
    return out


class TestSelfJoinDistance:
    def test_identical_functions_have_zero_distance(self):
        cds = DegreeSequence.from_frequencies(np.array([5, 3, 1])).to_cds()
        assert self_join_distance(cds, cds) == pytest.approx(0.0, abs=1e-9)

    def test_symmetry(self):
        fam = _cds_family(1, 6)
        for i in range(len(fam)):
            for j in range(len(fam)):
                assert self_join_distance(fam[i], fam[j]) == pytest.approx(
                    self_join_distance(fam[j], fam[i]), rel=1e-9
                )

    def test_nonnegative(self):
        fam = _cds_family(2, 8)
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                assert self_join_distance(fam[i], fam[j]) >= 0.0

    def test_dissimilar_functions_are_far(self):
        small = DegreeSequence.from_frequencies(np.array([1, 1])).to_cds()
        big = DegreeSequence.from_frequencies(np.array([1000] * 50)).to_cds()
        near = DegreeSequence.from_frequencies(np.array([1, 1, 1])).to_cds()
        assert self_join_distance(small, big) > self_join_distance(small, near)


class TestClusterCds:
    @pytest.mark.parametrize("method", ["complete", "single", "naive"])
    def test_labels_shape(self, method):
        fam = _cds_family(3, 20)
        labels = cluster_cds(fam, 5, method)
        assert len(labels) == 20
        assert len(np.unique(labels)) <= 5

    def test_fewer_members_than_clusters(self):
        fam = _cds_family(4, 3)
        labels = cluster_cds(fam, 10)
        assert sorted(labels.tolist()) == [0, 1, 2]

    def test_empty(self):
        assert len(cluster_cds([], 4)) == 0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            cluster_cds(_cds_family(5, 4), 2, "kmeans")


class TestGroupMaxima:
    def test_representative_dominates_members(self):
        fam = _cds_family(6, 18)
        labels = cluster_cds(fam, 4)
        reps, remap = group_maxima(fam, labels)
        for i, cds in enumerate(fam):
            assert reps[remap[i]].dominates(cds)

    def test_representatives_are_concave(self):
        fam = _cds_family(7, 12)
        labels = cluster_cds(fam, 3)
        reps, _ = group_maxima(fam, labels)
        for rep in reps:
            assert rep.is_concave()

    def test_complete_linkage_beats_naive_on_average(self):
        """Fig 9c shape: complete linkage yields lower average error."""
        from repro.core.compression import self_join_bound

        fam = _cds_family(8, 40)

        def avg_error(method):
            labels = cluster_cds(fam, 6, method)
            reps, remap = group_maxima(fam, labels)
            errs = []
            for i, cds in enumerate(fam):
                sj = self_join_bound(cds)
                if sj > 0:
                    errs.append(self_join_bound(reps[remap[i]]) / sj - 1.0)
            return float(np.mean(errs))

        assert avg_error("complete") <= avg_error("naive")


# ----------------------------------------------------------------------
# Duplicate-free group compression vs the every-pair / every-member
# reference it replaced (exact equality)
# ----------------------------------------------------------------------
def _reference_distance_matrix(cds_list, chunk_pairs=4096):
    """Every pair ``i < j`` through the batched kernel, no deduplication."""
    n = len(cds_list)
    dist = np.zeros((n, n))
    if n < 2:
        return dist
    sj = np.array([self_join_bound(f) for f in cds_list])
    X, Y = _pad_breakpoints(cds_list)
    m = X.shape[1]
    iu, ju = np.triu_indices(n, k=1)
    span = np.arange(1, 2 * m + 1)
    for start in range(0, len(iu), chunk_pairs):
        I = iu[start : start + chunk_pairs]
        J = ju[start : start + chunk_pairs]
        XI, YI, XJ, YJ = X[I], Y[I], X[J], Y[J]
        C = np.concatenate((XI, XJ), axis=1)
        order = np.argsort(C, axis=1, kind="stable")
        G = np.take_along_axis(C, order, axis=1)
        idx_j = np.cumsum(order >= m, axis=1)
        idx_i = span - idx_j
        Vi = _interp_at(XI, YI, G, idx_i, m)
        Vj = _interp_at(XJ, YJ, G, idx_j, m)
        sj_max = _sj_of_max_rows(G, Vi, Vj)
        with np.errstate(divide="ignore", invalid="ignore"):
            di = np.where(
                sj[I] > 0,
                sj_max / np.where(sj[I] > 0, sj[I], 1.0) - 1.0,
                (sj_max > 0).astype(float),
            )
            dj = np.where(
                sj[J] > 0,
                sj_max / np.where(sj[J] > 0, sj[J], 1.0) - 1.0,
                (sj_max > 0).astype(float),
            )
        row = np.maximum(di + dj, 0.0)
        dist[I, J] = row
        dist[J, I] = row
    return dist


def _reference_group_maxima(cds_list, labels):
    reps, remap = [], {}
    for label in np.unique(labels):
        remap[int(label)] = len(reps)
        reps.append(concave_max([cds_list[i] for i in np.flatnonzero(labels == label)]))
    return reps, np.array([remap[int(l)] for l in labels])


def _family_with_duplicates(seed: int, distinct: int, size: int):
    """``size`` members drawn with replacement from ``distinct`` CDSs of
    mixed breakpoint counts: exact run-length CDSs (many breakpoints),
    compressed ones (few) and single-segment key columns, so rows pad
    differently and many pairs cross."""
    rng = np.random.default_rng(seed)
    pool = []
    for k in range(distinct):
        freqs = rng.zipf(1.4 + 0.3 * (k % 3), int(rng.integers(1, 300))) % 60 + 1
        ds = DegreeSequence.from_frequencies(freqs)
        kind = k % 3
        if kind == 0:
            pool.append(ds.to_cds())
        elif kind == 1:
            pool.append(valid_compress(ds, 0.05))
        else:
            pool.append(DegreeSequence.from_frequencies(np.ones(len(freqs), int)).to_cds())
    return [pool[i] for i in rng.integers(0, distinct, size)]


def _assert_same_functions(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.xs.tobytes() == b.xs.tobytes()
        assert a.ys.tobytes() == b.ys.tobytes()


class TestDuplicateFreeGroupCompression:
    @given(
        st.integers(0, 10_000),
        st.integers(1, 12),
        st.integers(2, 40),
        st.sampled_from([3, 64, 4096]),
    )
    @settings(max_examples=60, deadline=None)
    def test_distance_matrix_matches_every_pair_reference(
        self, seed, distinct, size, chunk_pairs
    ):
        fam = _family_with_duplicates(seed, distinct, size)
        got = pairwise_sj_distance_matrix(fam, chunk_pairs=chunk_pairs)
        assert got.tobytes() == _reference_distance_matrix(fam).tobytes()

    def test_distance_matrix_without_duplicates(self):
        fam = _cds_family(11, 30)
        assert len(distinct_members(fam)[0]) == 30
        got = pairwise_sj_distance_matrix(fam)
        assert got.tobytes() == _reference_distance_matrix(fam).tobytes()

    def test_all_members_identical(self):
        fam = _family_with_duplicates(3, 1, 9)
        got = pairwise_sj_distance_matrix(fam)
        assert got.tobytes() == _reference_distance_matrix(fam).tobytes()

    @given(st.integers(0, 10_000), st.integers(1, 10), st.integers(2, 40))
    @settings(max_examples=40, deadline=None)
    def test_labels_match_reference_linkage(self, seed, distinct, size):
        fam = _family_with_duplicates(seed, distinct, size)
        k = max(1, size // 4)
        tree = linkage(squareform(_reference_distance_matrix(fam), checks=False), "complete")
        expected = fcluster(tree, t=k, criterion="maxclust") - 1
        if k >= size:
            expected = np.arange(size)
        assert cluster_cds(fam, k).tolist() == expected.tolist()

    @given(st.integers(0, 10_000), st.integers(1, 10), st.integers(2, 40))
    @settings(max_examples=40, deadline=None)
    def test_group_maxima_matches_every_member_reference(self, seed, distinct, size):
        fam = _family_with_duplicates(seed, distinct, size)
        labels = np.random.default_rng(seed).integers(0, max(1, size // 3), size)
        reps, remap = group_maxima(fam, labels)
        ref_reps, ref_remap = _reference_group_maxima(fam, labels)
        _assert_same_functions(reps, ref_reps)
        assert remap.tolist() == ref_remap.tolist()

    def test_group_maxima_cluster_of_copies(self):
        """A cluster holding only copies of one function, a singleton and
        a mixed cluster: each representative equals the reference."""
        a, b, c = _family_with_duplicates(5, 3, 3)
        fam = [a, a, b, a, c, b, a]
        labels = np.array([0, 0, 1, 0, 2, 2, 0])
        reps, remap = group_maxima(fam, labels)
        ref_reps, ref_remap = _reference_group_maxima(fam, labels)
        _assert_same_functions(reps, ref_reps)
        assert remap.tolist() == ref_remap.tolist()

    def test_group_maxima_copies_of_a_function_off_the_origin(self):
        """``concave_max`` of one input returns its envelope unchanged, but
        of several inputs it evaluates them on a grid that includes 0, so
        a cluster of copies must not collapse to a single input."""
        from repro.core.piecewise import PiecewiseLinear

        g = PiecewiseLinear(np.array([1.0, 3.0]), np.array([2.0, 5.0]))
        labels = np.array([0, 0])
        reps, _ = group_maxima([g, g], labels)
        ref_reps, _ = _reference_group_maxima([g, g], labels)
        _assert_same_functions(reps, ref_reps)

    def test_distinct_members_keys_on_bits(self):
        fam = _family_with_duplicates(9, 4, 20)
        distinct, which = distinct_members(fam)
        assert len(distinct) <= 4
        for f, u in zip(fam, which):
            assert f.xs.tobytes() == distinct[u].xs.tobytes()
            assert f.ys.tobytes() == distinct[u].ys.tobytes()
