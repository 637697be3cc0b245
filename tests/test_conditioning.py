"""Soundness tests for predicate conditioning (Sec 3.2 / 3.3 / 4).

The central property: for any supported predicate P and join column V,
the conditioned CDS must dominate the exact CDS of V restricted to the
rows satisfying P.  That is what makes the final FDSB an upper bound.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conditioning import (
    ConditioningConfig,
    build_join_column_stats,
    group_runs,
    max_cds_over_groups,
    pair_group_sequences,
    prepare_filter_column,
)
from repro.core.degree_sequence import DegreeSequence
from repro.core.predicates import And, Eq, InList, Like, Or, Range


def _exact_conditioned_cds(join_values, mask):
    return DegreeSequence.from_column(join_values[mask]).to_cds()


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(42)
    n = 4000
    join_values = (rng.zipf(1.5, n) - 1) % 400
    year = rng.integers(1950, 2020, n)
    words = ["alpha", "beta", "gamma", "Abdul", "Quixote", "catalog", "thecat"]
    name = np.array([words[i % len(words)] + str(i % 13) for i in range(n)], dtype=object)
    columns = {"year": year, "name": name}
    config = ConditioningConfig(mcv_size=30, cds_group_count=8, histogram_levels=4)
    stats = build_join_column_stats("v", join_values, columns, config)
    return join_values, columns, stats


def _assert_sound(stats, join_values, columns, predicate):
    conditioned = stats.condition(predicate)
    mask = predicate.evaluate(columns)
    exact = _exact_conditioned_cds(join_values, mask)
    grid = np.linspace(0, exact.domain_end, 50)
    assert np.all(conditioned(grid) >= exact(grid) - 1e-6 * (1 + exact(grid))), (
        f"conditioned CDS must dominate the filtered CDS for {predicate!r}"
    )
    assert conditioned.total >= exact.total - 1e-6


class TestEqualityConditioning:
    def test_mcv_value_sound(self, dataset):
        join_values, columns, stats = dataset
        common = int(np.bincount(columns["year"] - 1950).argmax()) + 1950
        _assert_sound(stats, join_values, columns, Eq("year", common))

    def test_rare_value_sound(self, dataset):
        join_values, columns, stats = dataset
        for year in (1950, 1984, 2019):
            _assert_sound(stats, join_values, columns, Eq("year", year))

    def test_missing_value_gives_small_bound(self, dataset):
        join_values, columns, stats = dataset
        conditioned = stats.condition(Eq("year", 1900))  # not in the data
        assert conditioned.total <= stats.base.total

    @given(st.integers(1950, 2019))
    @settings(max_examples=50, deadline=None)
    def test_equality_fuzz(self, year):
        rng = np.random.default_rng(year)
        join_values = (rng.zipf(1.6, 1500) - 1) % 100
        years = rng.integers(1950, 2020, 1500)
        config = ConditioningConfig(mcv_size=20, cds_group_count=4, histogram_levels=3)
        stats = build_join_column_stats("v", join_values, {"year": years}, config)
        _assert_sound(stats, join_values, {"year": years}, Eq("year", year))


class TestRangeConditioning:
    @pytest.mark.parametrize(
        "low,high",
        [(1960, 1970), (None, 1980), (1990, None), (1950, 2019), (2000, 2001)],
    )
    def test_range_sound(self, dataset, low, high):
        join_values, columns, stats = dataset
        _assert_sound(stats, join_values, columns, Range("year", low=low, high=high))

    def test_narrow_range_tighter_than_base(self, dataset):
        join_values, columns, stats = dataset
        narrow = stats.condition(Range("year", low=1960, high=1961))
        assert narrow.total < stats.base.total


class TestLikeConditioning:
    @pytest.mark.parametrize("pattern", ["Abd", "cat", "Quix", "alpha", "zzz"])
    def test_like_sound(self, dataset, pattern):
        join_values, columns, stats = dataset
        _assert_sound(stats, join_values, columns, Like("name", pattern))

    def test_unknown_gram_falls_back_to_base(self, dataset):
        join_values, columns, stats = dataset
        conditioned = stats.condition(Like("name", "zzz"))
        assert conditioned.total == pytest.approx(stats.base.total)

    def test_nogram_mode_uses_default(self, dataset):
        join_values, columns, _ = dataset
        config = ConditioningConfig(
            mcv_size=30, cds_group_count=8, like_default_mode="nogram", trigram_mcv_size=20
        )
        stats = build_join_column_stats("v", join_values, columns, config)
        conditioned = stats.condition(Like("name", "zzzqqq"))
        assert conditioned.total <= stats.base.total


class TestCombinators:
    def test_conjunction_sound(self, dataset):
        join_values, columns, stats = dataset
        pred = And([Range("year", low=1960, high=1990), Like("name", "Abd")])
        _assert_sound(stats, join_values, columns, pred)

    def test_conjunction_is_min(self, dataset):
        join_values, columns, stats = dataset
        p1, p2 = Range("year", low=1960, high=1990), Eq("year", 1965)
        both = stats.condition(And([p1, p2]))
        assert both.total <= stats.condition(p1).total + 1e-9
        assert both.total <= stats.condition(p2).total + 1e-9

    def test_disjunction_sound(self, dataset):
        join_values, columns, stats = dataset
        pred = Or([Eq("year", 1960), Eq("year", 1961), Eq("year", 1999)])
        _assert_sound(stats, join_values, columns, pred)

    def test_in_list_sound(self, dataset):
        join_values, columns, stats = dataset
        _assert_sound(stats, join_values, columns, InList("year", [1955, 1975, 1995]))

    def test_disjunction_capped_by_base(self, dataset):
        join_values, columns, stats = dataset
        pred = InList("year", list(range(1950, 2020)))
        assert stats.condition(pred).total <= stats.base.total + 1e-6

    def test_unknown_column_returns_base(self, dataset):
        join_values, columns, stats = dataset
        conditioned = stats.condition(Eq("nonexistent", 1))
        assert conditioned.total == pytest.approx(stats.base.total)

    def test_none_predicate_returns_base(self, dataset):
        _, __, stats = dataset
        assert stats.condition(None) is stats.base


class TestVectorisedHelpers:
    def test_pair_group_sequences_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        groups = rng.integers(0, 6, 300)
        joins = rng.integers(0, 25, 300)
        pg, pc, ranks, cumsums = pair_group_sequences(groups, joins)
        for g in range(6):
            mask = pg == g
            got = sorted(pc[mask].tolist(), reverse=True)
            expected = sorted(
                np.unique(joins[groups == g], return_counts=True)[1].tolist(), reverse=True
            )
            assert got == expected
            # ranks are 1..len, cumsums are the running sums of pc desc
            got_ranks = ranks[mask]
            order = np.argsort(got_ranks)
            assert got_ranks[order].tolist() == list(range(1, mask.sum() + 1))
            assert np.allclose(cumsums[mask][order], np.cumsum(pc[mask][order]))

    def test_max_cds_over_groups_is_max(self):
        rng = np.random.default_rng(6)
        groups = rng.integers(0, 5, 400)
        joins = rng.integers(0, 30, 400)
        _, pc, ranks, cumsums = pair_group_sequences(groups, joins)
        include = np.ones(len(pc), dtype=bool)
        m = max_cds_over_groups(ranks, cumsums, include)
        # compare against brute force
        for i in range(1, int(ranks.max()) + 1):
            best = 0.0
            for g in range(5):
                vals = sorted(
                    np.unique(joins[groups == g], return_counts=True)[1], reverse=True
                )
                best = max(best, float(sum(vals[:i])))
            assert m(i) >= best - 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_group_runs_match_per_group_degree_sequences(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        groups = rng.integers(0, 9, n)
        joins = rng.zipf(1.6, n) % 40
        pg, pc, _, _ = pair_group_sequences(groups, joins)
        got_groups, runs = group_runs(pg, pc)
        assert got_groups == sorted(set(groups.tolist()))
        for g, (freqs, counts) in zip(got_groups, runs):
            ds = DegreeSequence.from_column(joins[groups == g])
            assert freqs == tuple(ds.freqs.tolist())
            assert counts == tuple(ds.counts.tolist())

    def test_group_runs_empty(self):
        empty = np.array([], dtype=np.int64)
        assert group_runs(empty, empty) == ([], [])

    def test_prepared_filter_columns_give_the_same_statistics(self, dataset):
        """Statistics from a shared preparation equal those built from the
        raw columns (the serial build prepares once per table)."""
        join_values, columns, stats = dataset
        config = ConditioningConfig(mcv_size=30, cds_group_count=8, histogram_levels=4)
        preps = {name: prepare_filter_column(v, config) for name, v in columns.items()}
        shared = build_join_column_stats("v", join_values, preps, config)
        for name in columns:
            for part in ("equality", "histogram", "trigram"):
                a = getattr(stats.filters[name], part)
                b = getattr(shared.filters[name], part)
                assert (a is None) == (b is None)
                if a is not None:
                    for x, y in zip(a.reps, b.reps):
                        assert x.xs.tobytes() == y.xs.tobytes()
                        assert x.ys.tobytes() == y.ys.tobytes()

    def test_empty_groups(self):
        empty = np.array([], dtype=np.int64)
        pg, pc, ranks, cs = pair_group_sequences(empty, empty)
        assert len(pg) == 0
        m = max_cds_over_groups(ranks, cs, np.array([], dtype=bool))
        assert m.total == 0.0


class TestMemoryAccounting:
    def test_memory_positive_and_additive(self, dataset):
        _, __, stats = dataset
        assert stats.memory_bytes() > 0
        assert stats.num_sequences() >= 1
        total = sum(f.memory_bytes() for f in stats.filters.values())
        assert stats.memory_bytes() >= total
