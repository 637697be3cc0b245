"""Mergeable partial statistics for the parallel sharded offline build.

The offline phase is a pure function of each table's row *multiset*: every
quantity the builders in :mod:`conditioning` compute — factorised filter
groups, (group, join value) pair frequencies, equi-depth quantiles, 3-gram
document counts — is invariant under row reordering.  A shard therefore
only needs to hand back *counters*:

* :class:`ColumnValueCounts` — the value -> multiplicity multiset of one
  column (drives fallback CDSs, join-column base CDSs and histogram
  boundaries);
* :class:`PairCounts` — deduplicated (filter value, join value) pair
  frequencies for one (join column, filter column) family, with filter
  values factorised once per column so every join column shares the work.

Merging sums counters under a canonical ordering (shard index order for
the object-dict paths, value order for the numeric paths), and the
finalize step feeds the merged pairs through the *same* builder functions
the serial path uses, with integer ``weights`` carrying multiplicities —
so the output statistics are bit-identical to a serial build.

Two NaN subtleties are mirrored exactly: ``np.unique`` collapses all NaN
filter values into one group (so shard merging must, too), while the pair
scan in :func:`~.conditioning.pair_group_sequences` compares join values
with ``!=`` where NaN never equals NaN (so NaN join values must never be
merged into a shared pair).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compression import RunListCompressor
from .conditioning import (
    ConditioningConfig,
    FilterColumnPrep,
    JoinColumnStats,
    _clean_strings,
    filter_column_stats,
)
from .degree_sequence import DegreeSequence
from .piecewise import PiecewiseLinear

__all__ = [
    "ColumnValueCounts",
    "PairCounts",
    "TableShardPartial",
    "extract_shard_partial",
    "merge_shard_partials",
    "finalize_join_column",
    "finalize_fallback_cds",
]


# ----------------------------------------------------------------------
# Column multisets
# ----------------------------------------------------------------------
@dataclass
class ColumnValueCounts:
    """The value -> multiplicity multiset of one column slice.

    Numeric columns dedupe through ``np.unique`` (all NaNs collapse into
    one entry, exactly as :meth:`DegreeSequence.from_column` sees them);
    object columns count through a dict, mirroring the hash/eq semantics
    of the object branch of ``from_column``.
    """

    is_object: bool
    values: np.ndarray
    counts: np.ndarray

    @staticmethod
    def from_values(values: np.ndarray) -> "ColumnValueCounts":
        if values.dtype == object:
            seen: dict = {}
            for v in values.tolist():
                seen[v] = seen.get(v, 0) + 1
            vals = np.empty(len(seen), dtype=object)
            vals[:] = list(seen.keys())
            counts = np.fromiter(seen.values(), dtype=np.int64, count=len(seen))
            return ColumnValueCounts(True, vals, counts)
        uniques, counts = np.unique(values, return_counts=True)
        return ColumnValueCounts(False, uniques, counts.astype(np.int64))

    @staticmethod
    def merge(parts: list["ColumnValueCounts"]) -> "ColumnValueCounts":
        if len(parts) == 1:
            return parts[0]
        if parts[0].is_object:
            seen: dict = {}
            for part in parts:
                for v, c in zip(part.values.tolist(), part.counts.tolist()):
                    seen[v] = seen.get(v, 0) + c
            vals = np.empty(len(seen), dtype=object)
            vals[:] = list(seen.keys())
            counts = np.fromiter(seen.values(), dtype=np.int64, count=len(seen))
            return ColumnValueCounts(True, vals, counts)
        all_values = np.concatenate([p.values for p in parts])
        all_counts = np.concatenate([p.counts for p in parts])
        uniques, inverse = np.unique(all_values, return_inverse=True)
        counts = np.zeros(len(uniques), dtype=np.int64)
        np.add.at(counts, inverse, all_counts)
        return ColumnValueCounts(False, uniques, counts)

    def expand(self) -> np.ndarray:
        return np.repeat(self.values, self.counts)


# ----------------------------------------------------------------------
# (filter value, join value) pair counters
# ----------------------------------------------------------------------
def _dedup_pairs(
    f_codes: np.ndarray, j_keys: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge rows with equal (filter code, join key), summing weights.

    Join keys compare with ``!=`` so NaN join values never merge —
    matching the pair scan of ``pair_group_sequences`` exactly.
    """
    if not len(f_codes):
        return (
            f_codes.astype(np.int64),
            j_keys,
            np.array([], dtype=np.int64),
        )
    order = np.lexsort((j_keys, f_codes))
    fc, jk, w = f_codes[order], j_keys[order], weights[order]
    new = np.concatenate(([True], (fc[1:] != fc[:-1]) | (jk[1:] != jk[:-1])))
    starts = np.flatnonzero(new)
    cum = np.concatenate(([0], np.cumsum(w)))
    ends = np.concatenate((starts[1:], [len(fc)]))
    return fc[starts], jk[starts], (cum[ends] - cum[starts]).astype(np.int64)


def _remap_codes(sub_uniques: np.ndarray, global_uniques: np.ndarray) -> np.ndarray:
    """Index of each ``sub_uniques`` entry inside sorted ``global_uniques``
    (NaN maps onto the single collapsed NaN slot at the end)."""
    if not len(sub_uniques):
        return np.array([], dtype=np.int64)
    idx = np.searchsorted(global_uniques, sub_uniques).astype(np.int64)
    if sub_uniques.dtype.kind == "f":
        nan_mask = np.isnan(sub_uniques)
        if nan_mask.any():
            idx[nan_mask] = len(global_uniques) - 1
    return np.clip(idx, 0, len(global_uniques) - 1)


@dataclass
class PairCounts:
    """Deduplicated (filter value, join value) frequencies, mergeable.

    Filter values live as codes into a sorted unique array (NaNs collapsed,
    like ``np.unique``); join values stay raw for numeric columns (NaN
    stays unmergeable) and are coded for object columns.
    """

    j_is_object: bool
    f_uniques: np.ndarray
    j_uniques: np.ndarray | None
    f_codes: np.ndarray
    j_keys: np.ndarray
    counts: np.ndarray

    @staticmethod
    def from_encoded(
        f_uniques: np.ndarray,
        f_codes: np.ndarray,
        join_values: np.ndarray,
    ) -> "PairCounts":
        j_is_object = join_values.dtype == object
        if j_is_object:
            j_uniques, j_keys = np.unique(join_values, return_inverse=True)
        else:
            j_uniques, j_keys = None, join_values
        ones = np.ones(len(f_codes), dtype=np.int64)
        fc, jk, counts = _dedup_pairs(f_codes.astype(np.int64), j_keys, ones)
        return PairCounts(j_is_object, f_uniques, j_uniques, fc, jk, counts)

    @staticmethod
    def merge(parts: list["PairCounts"]) -> "PairCounts":
        if len(parts) == 1:
            return parts[0]
        f_uniques = np.unique(np.concatenate([p.f_uniques for p in parts]))
        f_codes = np.concatenate(
            [_remap_codes(p.f_uniques, f_uniques)[p.f_codes] for p in parts]
        )
        j_is_object = parts[0].j_is_object
        if j_is_object:
            j_uniques = np.unique(np.concatenate([p.j_uniques for p in parts]))
            j_keys = np.concatenate(
                [_remap_codes(p.j_uniques, j_uniques)[p.j_keys] for p in parts]
            )
        else:
            j_uniques = None
            j_keys = np.concatenate([p.j_keys for p in parts])
        counts = np.concatenate([p.counts for p in parts])
        fc, jk, merged = _dedup_pairs(f_codes, j_keys, counts)
        return PairCounts(j_is_object, f_uniques, j_uniques, fc, jk, merged)

    # ------------------------------------------------------------------
    def join_values(self) -> np.ndarray:
        if self.j_is_object:
            return self.j_uniques[self.j_keys]
        return self.j_keys

    def filter_totals(self) -> np.ndarray:
        """The row multiplicity of each ``f_uniques`` entry (pair counts
        summed per filter value)."""
        totals = np.zeros(len(self.f_uniques), dtype=np.int64)
        np.add.at(totals, self.f_codes, self.counts)
        return totals


# ----------------------------------------------------------------------
# Shard extraction and merging
# ----------------------------------------------------------------------
@dataclass
class TableShardPartial:
    """Every mergeable counter extracted from one shard of one table."""

    table: str
    num_rows: int
    column_counts: dict[str, ColumnValueCounts]
    pair_counts: dict[tuple[str, str], PairCounts]


def extract_shard_partial(
    table: str,
    columns: dict[str, np.ndarray],
    join_columns: list[str],
    filter_arrays: dict[str, np.ndarray],
) -> TableShardPartial:
    """Build the partial statistics of one row shard.

    ``columns`` holds the table's real column slices; ``filter_arrays`` the
    filter-column slices (including virtual PK-FK columns, already hashed
    when the trigram ablation is active).  Each filter column is factorised
    once and shared across all join columns — work the serial path repeats
    per join column.
    """
    num_rows = len(next(iter(columns.values()))) if columns else 0
    column_counts = {
        col: ColumnValueCounts.from_values(values) for col, values in columns.items()
    }
    encoded: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for fcol, fvalues in filter_arrays.items():
        if fvalues.dtype == object:
            fvalues = _clean_strings(fvalues)
        encoded[fcol] = np.unique(fvalues, return_inverse=True)
    pair_counts: dict[tuple[str, str], PairCounts] = {}
    for jcol in join_columns:
        join_values = columns[jcol]
        for fcol, (uniques, codes) in encoded.items():
            if fcol == jcol:
                continue
            pair_counts[(jcol, fcol)] = PairCounts.from_encoded(uniques, codes, join_values)
    return TableShardPartial(table, num_rows, column_counts, pair_counts)


def merge_shard_partials(parts: list[TableShardPartial]) -> TableShardPartial:
    """Deterministically merge shard partials (pass them in shard order)."""
    if len(parts) == 1:
        return parts[0]
    first = parts[0]
    column_counts = {
        col: ColumnValueCounts.merge([p.column_counts[col] for p in parts])
        for col in first.column_counts
    }
    pair_counts = {
        key: PairCounts.merge([p.pair_counts[key] for p in parts])
        for key in first.pair_counts
    }
    return TableShardPartial(
        first.table,
        sum(p.num_rows for p in parts),
        column_counts,
        pair_counts,
    )


# ----------------------------------------------------------------------
# Finalization (compression + clustering on the merged counters)
# ----------------------------------------------------------------------
def finalize_join_column(
    table: str,
    column: str,
    base_counts: ColumnValueCounts,
    pairs: dict[str, PairCounts],
    preps: dict[str, FilterColumnPrep],
    config: ConditioningConfig,
) -> tuple[str, str, JoinColumnStats]:
    """Build one join column's statistics from merged partials.

    Runs the exact serial builders with pair multiplicities as weights;
    ``pairs`` must be ordered like the serial ``filter_columns`` dict so
    the resulting filter-family ordering (and hence the serialized
    archive layout) matches the serial build.  ``preps`` holds each
    filter column's :func:`prepare_filter_values`, made once per table:
    every join column's pairs index the same ``f_uniques``.
    """
    compress = RunListCompressor(config.compression_accuracy)
    base = compress.degree_sequence(DegreeSequence.from_frequencies(base_counts.counts))
    stats = JoinColumnStats(column, base, like_default_mode=config.like_default_mode)
    for fcol, pc in pairs.items():
        stats.filters[fcol] = filter_column_stats(
            preps[fcol].for_rows(pc.f_codes),
            pc.join_values(),
            base,
            config,
            compress,
            pc.counts,
        )
    return table, column, stats


def finalize_fallback_cds(
    table: str,
    column_counts: dict[str, ColumnValueCounts],
    accuracy: float,
) -> tuple[str, dict[str, PiecewiseLinear]]:
    """The unconditioned per-column fallback CDSs from merged counters."""
    compress = RunListCompressor(accuracy)
    fallback: dict[str, PiecewiseLinear] = {}
    for col, counts in column_counts.items():
        fallback[col] = compress.degree_sequence(DegreeSequence.from_frequencies(counts.counts))
    return table, fallback
