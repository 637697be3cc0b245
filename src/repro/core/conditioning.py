"""Predicate-conditioned degree sequences (Sec 3.2 + Sec 4 of the paper).

For every *join* column of a relation, SafeBound stores — besides the
unconditioned compressed CDS — a family of CDSs conditioned on predicates
over each *filter* column:

* **equality**: one CDS per most-common value (MCV), plus a default that is
  the pointwise max over all non-MCV values' CDSs (Eq. 3, applied to CDSs);
* **range**: a hierarchy of equi-depth histograms with ``2^k .. 2`` buckets;
  a range predicate uses the smallest single bucket containing it;
* **LIKE**: one CDS per most-common 3-gram, combined by pointwise min over
  the grams of the pattern;
* **conjunction** = pointwise min, **disjunction / IN** = pointwise sum
  (capped at the unconditioned CDS).

The group-compression optimization (Sec 4.1) clusters each family's CDSs
and keeps only the concave envelope of each cluster's pointwise maximum;
Bloom filters (Sec 4.3) replace the MCV dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..obs.metrics import inc as _metric_inc
from ..obs.tracing import span as _span
from . import arraykernel
from .arena import pl_view
from .arraykernel import Ragged
from .bloom import BloomFilter
from .clustering import cluster_cds, group_maxima
from .compression import RunListCompressor, reduce_cds_segments
from .degree_sequence import DegreeSequence
from .piecewise import (
    _EPS,
    PiecewiseLinear,
    concave_envelope,
    concave_max,
    pointwise_min,
    pointwise_sum,
)
from .predicates import And, Eq, InList, Like, Or, Predicate, Range, trigrams
from .updates import IncrementalColumnStats, pad_cds

__all__ = [
    "ConditioningConfig",
    "ConditionedRelation",
    "EqualityStats",
    "HistogramStats",
    "TrigramStats",
    "FilterColumnStats",
    "JoinColumnStats",
    "build_join_column_stats",
    "equi_depth_boundaries",
    "FilterColumnPrep",
    "prepare_filter_values",
    "prepare_filter_column",
    "filter_column_stats",
    "pair_group_sequences",
    "group_runs",
    "max_cds_over_groups",
    "evaluate_expr",
    "evaluate_exprs_array",
    "condition_cds_batch",
    "condition_relations_batch",
    "fill_truncations_batch",
]

_PL_BYTES_PER_BREAKPOINT = 16  # two float64 per breakpoint


def _canonical_value(value):
    """Normalise lookup keys so numpy scalars, Python ints and floats that
    denote the same number hit the same MCV entry."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        # + 0.0 folds -0.0 into +0.0 so the repr-hashed Bloom filters see
        # one canonical zero (0.0 == -0.0 but repr differs).
        return float(value) + 0.0
    return value


@dataclass
class ConditioningConfig:
    """Knobs of the offline conditioning phase.

    Defaults are scaled-down versions of the paper's choices (MCV lists of
    1000-5000 values, k=7 histogram levels) appropriate for the synthetic
    laptop-scale datasets used in this reproduction.
    """

    compression_accuracy: float = 0.01
    mcv_size: int = 100
    histogram_levels: int = 5
    trigram_mcv_size: int = 60
    cds_group_count: int = 16
    clustering_method: str = "complete"
    use_bloom_filters: bool = True
    max_default_segments: int = 24
    # "base": sound fallback for LIKE patterns with no known gram (uses the
    # unconditioned CDS).  "nogram": the paper's behaviour (uses the CDS
    # conditioned on containing no common gram), which can in principle
    # undershoot; see DESIGN.md.
    like_default_mode: str = "base"


# ----------------------------------------------------------------------
# Vectorised helpers: per-group conditioned degree sequences
# ----------------------------------------------------------------------
def _factorize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(codes, uniques)`` — like pandas.factorize but numpy-only."""
    uniques, codes = np.unique(values, return_inverse=True)
    return codes, uniques


def pair_group_sequences(group_codes: np.ndarray, join_values: np.ndarray):
    """Per-group conditioned degree-sequence data, fully vectorised.

    Returns ``(codes, counts, ranks, cumsums)`` where each entry describes
    one (group, join-value) pair: the group code, the pair's frequency, its
    1-based rank within the group in descending frequency order, and the
    running frequency sum within the group (i.e. the group's CDS sampled at
    that rank).  Every output is a function of the row *multiset*: the
    input order of the rows does not matter.
    """
    if not len(group_codes):
        empty = np.array([], dtype=np.int64)
        return empty, empty, empty, empty.astype(float)
    order = np.lexsort((join_values, group_codes))
    g = group_codes[order]
    v = join_values[order]
    new_pair = np.concatenate(([True], (g[1:] != g[:-1]) | (v[1:] != v[:-1])))
    starts = np.flatnonzero(new_pair)
    pair_group = g[starts]
    pair_count = np.diff(np.concatenate((starts, [len(g)])))
    # Sort pairs by (group, count desc) to get within-group ranks.
    order2 = np.lexsort((-pair_count, pair_group))
    pg = pair_group[order2]
    pc = pair_count[order2]
    new_group = np.concatenate(([True], pg[1:] != pg[:-1]))
    idx = np.arange(len(pg))
    group_start = np.maximum.accumulate(np.where(new_group, idx, 0))
    ranks = idx - group_start + 1
    cs = np.cumsum(pc)
    cs_at_start = cs[group_start] - pc[group_start]
    cumsums = (cs - cs_at_start).astype(float)
    return pg, pc, ranks, cumsums


def max_cds_over_groups(
    ranks: np.ndarray, cumsums: np.ndarray, include_mask: np.ndarray
) -> PiecewiseLinear:
    """The exact pointwise max of group CDSs, via a scatter-max over ranks.

    ``M(i) = max_g F_g(i)``; because every ``F_g`` is flat after its last
    rank, a running maximum over the scattered values is exact.
    """
    ranks = ranks[include_mask]
    cumsums = cumsums[include_mask]
    if not len(ranks):
        return PiecewiseLinear.zero()
    max_rank = int(ranks.max())
    m = np.zeros(max_rank)
    np.maximum.at(m, ranks - 1, cumsums)
    m = np.maximum.accumulate(m)
    xs = np.arange(max_rank + 1, dtype=float)
    ys = np.concatenate(([0.0], m))
    return concave_envelope(PiecewiseLinear(xs, ys))


def group_runs(pg: np.ndarray, pc: np.ndarray) -> tuple[list[int], list[tuple]]:
    """Split :func:`pair_group_sequences` output into one run list per group.

    ``pg`` is grouped and ``pc`` descending within each group, so the runs
    of equal frequencies are adjacent: no per-group scan or ``np.unique``
    is needed.  Returns ``(groups, runs)`` with the groups ascending and
    ``runs[k] = (freqs, counts)`` as tuples of Python ints — the input of
    :func:`~.compression.valid_compress_runs`.
    """
    n = len(pg)
    if not n:
        return [], []
    new_run = np.concatenate(([True], (pg[1:] != pg[:-1]) | (pc[1:] != pc[:-1])))
    starts = np.flatnonzero(new_run)
    run_group = pg[starts]
    freqs = pc[starts].tolist()
    counts = np.diff(np.append(starts, n)).tolist()
    first = np.flatnonzero(np.concatenate(([True], run_group[1:] != run_group[:-1])))
    bounds = np.append(first, len(starts)).tolist()
    runs = [
        (tuple(freqs[a:b]), tuple(counts[a:b])) for a, b in zip(bounds[:-1], bounds[1:])
    ]
    return run_group[first].tolist(), runs


def _compress_group(
    sequences: list[PiecewiseLinear], config: ConditioningConfig
) -> tuple[list[PiecewiseLinear], np.ndarray]:
    """Cluster a CDS family and return (representatives, label per member)."""
    if not sequences:
        return [], np.array([], dtype=int)
    if config.cds_group_count <= 0 or len(sequences) <= config.cds_group_count:
        return sequences, np.arange(len(sequences))
    labels = cluster_cds(sequences, config.cds_group_count, config.clustering_method)
    return group_maxima(sequences, labels)


def _join_keys(join_values: np.ndarray) -> np.ndarray:
    """Integer keys of join values under :meth:`DegreeSequence.from_column`
    equality: ``np.unique`` for numeric columns (all NaNs one value), dict
    hashing for object columns."""
    if join_values.dtype == object:
        index: dict = {}
        return np.fromiter(
            (index.setdefault(v, len(index)) for v in join_values.tolist()),
            dtype=np.int64,
            count=len(join_values),
        )
    return np.unique(join_values, return_inverse=True)[1].astype(np.int64)


# ----------------------------------------------------------------------
# Per-filter-column preparation (independent of the join column)
# ----------------------------------------------------------------------
@dataclass
class FilterColumnPrep:
    """The work on one filter column that every join column shares.

    Built once per table from the column's distinct values and their
    multiplicities (:func:`prepare_filter_values`): numeric columns get
    their histogram boundaries and each value's finest bucket, string
    columns their top 3-grams and a value x gram membership matrix whose
    last column marks values with no top gram.  :meth:`for_rows` adds the
    per-row view a join column's pass needs.
    """

    uniques: np.ndarray
    boundaries: np.ndarray | None = None
    levels: int = 0
    value_bucket: np.ndarray | None = None
    top_grams: list[str] | None = None
    value_grams: np.ndarray | None = None
    # Per row (set by for_rows): the value code, and the finest bucket
    # (numeric) or every (gram, row) membership as parallel arrays, with
    # group ``len(top_grams)`` for rows that have no top gram (strings).
    codes: np.ndarray | None = None
    fine_codes: np.ndarray | None = None
    gram_group: np.ndarray | None = None
    gram_rows: np.ndarray | None = None

    @property
    def is_string(self) -> bool:
        return self.top_grams is not None

    def for_rows(self, codes: np.ndarray) -> "FilterColumnPrep":
        """This preparation for rows whose values are ``uniques[codes]``."""
        if not self.is_string:
            return replace(self, codes=codes, fine_codes=self.value_bucket[codes])
        gram_rows, gram_group = np.nonzero(self.value_grams[codes])
        return replace(self, codes=codes, gram_group=gram_group, gram_rows=gram_rows)


def _clean_strings(values: np.ndarray) -> np.ndarray:
    """String filter values with every non-string (None, NaN) as ``""``."""
    return np.array([v if isinstance(v, str) else "" for v in values.tolist()], dtype=object)


def prepare_filter_values(
    uniques: np.ndarray, multiplicities: np.ndarray, config: ConditioningConfig
) -> FilterColumnPrep:
    """Prepare a filter column from its sorted distinct values (strings
    already cleaned) and their row multiplicities."""
    if uniques.dtype != object:
        boundaries, levels = equi_depth_boundaries(
            np.repeat(uniques, multiplicities), config.histogram_levels
        )
        value_bucket = np.clip(
            np.searchsorted(boundaries, uniques.astype(float), "right") - 1,
            0,
            len(boundaries) - 2,
        )
        return FilterColumnPrep(uniques, boundaries, levels, value_bucket)
    # 3-grams are extracted once per distinct string and weighted by its
    # multiplicity: every row with the same value has the same grams.
    value_grams = [set(trigrams(v)) for v in uniques.tolist()]
    gram_counts: dict[str, int] = {}
    for grams, m in zip(value_grams, multiplicities.tolist()):
        for g in grams:
            gram_counts[g] = gram_counts.get(g, 0) + m
    top = sorted(gram_counts, key=lambda g: (-gram_counts[g], g))[: config.trigram_mcv_size]
    top_index = {g: gi for gi, g in enumerate(top)}
    membership = np.zeros((len(uniques), len(top) + 1), dtype=bool)
    for ui, grams in enumerate(value_grams):
        for g in grams:
            gi = top_index.get(g)
            if gi is not None:
                membership[ui, gi] = True
    membership[:, -1] = ~membership[:, :-1].any(axis=1)
    return FilterColumnPrep(uniques, top_grams=top, value_grams=membership)


def prepare_filter_column(values: np.ndarray, config: ConditioningConfig) -> FilterColumnPrep:
    """:func:`prepare_filter_values` of a full column, with its rows."""
    if values.dtype == object:
        values = _clean_strings(values)
    codes, uniques = _factorize(values)
    multiplicities = np.bincount(codes, minlength=len(uniques))
    return prepare_filter_values(uniques, multiplicities, config).for_rows(codes)


# ----------------------------------------------------------------------
# Conditioning expressions
# ----------------------------------------------------------------------
# A conditioning *expression* is either a stored ``PiecewiseLinear`` leaf
# or an interior node ``(kind, children)`` with kind in {"min", "sum",
# "cmax"} and ``children`` a tuple of expressions.  Lookups build the
# expression; evaluation is pluggable: per-object (below, the oracle) or
# batched across many expressions (``evaluate_exprs_array``).
def evaluate_expr(expr) -> PiecewiseLinear:
    """Evaluate one conditioning expression with the scalar pointwise ops.

    A leaf evaluates to itself, so pure-lookup predicates keep returning
    the stored statistics objects (identity matters: the bound engine
    dedupes repeated query instantiations by CDS identity).
    """
    if not isinstance(expr, tuple):
        return expr
    kind, children = expr
    parts = [evaluate_expr(child) for child in children]
    if kind == "min":
        return pointwise_min(parts)
    if kind == "sum":
        return pointwise_sum(parts)
    return concave_max(parts)


# ----------------------------------------------------------------------
# Equality predicates: MCV lists
# ----------------------------------------------------------------------
@dataclass
class EqualityStats:
    """MCV-conditioned CDSs for equality predicates on one filter column."""

    reps: list[PiecewiseLinear]
    default_cds: PiecewiseLinear
    value_to_group: dict | None = None
    blooms: list[BloomFilter] | None = None

    def lookup_expr(self, value):
        """Conditioning expression for ``column = value``: a stored CDS
        leaf, or a ``cmax`` node when several Bloom groups claim the
        value (false positives included — any of them might hold it, so
        the max is still a sound bound)."""
        value = _canonical_value(value)
        if self.blooms is not None:
            positive = [
                self.reps[g] for g, bloom in enumerate(self.blooms) if value in bloom
            ]
            if not positive:
                return self.default_cds
            if len(positive) == 1:
                return positive[0]
            return ("cmax", tuple(positive))
        group = (self.value_to_group or {}).get(value)
        if group is None:
            return self.default_cds
        return self.reps[group]

    def lookup(self, value) -> PiecewiseLinear:
        return evaluate_expr(self.lookup_expr(value))

    def memory_bytes(self) -> int:
        total = sum(_PL_BYTES_PER_BREAKPOINT * len(r.xs) for r in self.reps)
        total += _PL_BYTES_PER_BREAKPOINT * len(self.default_cds.xs)
        if self.blooms is not None:
            total += sum(b.memory_bytes() for b in self.blooms)
        elif self.value_to_group is not None:
            total += sum(len(str(v)) + 8 for v in self.value_to_group)
        return total


def _build_equality_stats(
    prep: FilterColumnPrep,
    join_values: np.ndarray,
    config: ConditioningConfig,
    compress: RunListCompressor,
) -> EqualityStats:
    uniques = prep.uniques
    pg, pc, ranks, cumsums = pair_group_sequences(prep.codes, join_values)
    group_totals = np.zeros(len(uniques))
    np.add.at(group_totals, pg, pc.astype(float))
    mcv_count = min(config.mcv_size, len(uniques))
    mcv_codes = np.argsort(group_totals, kind="stable")[::-1][:mcv_count]

    runs_of = dict(zip(*group_runs(pg, pc)))
    sequences = [compress(*runs_of[code]) for code in mcv_codes.tolist()]
    values_per_seq = [_canonical_value(uniques[code]) for code in mcv_codes]

    non_mcv_mask = ~np.isin(pg, mcv_codes)
    default = max_cds_over_groups(ranks, cumsums, non_mcv_mask)
    default = reduce_cds_segments(default, config.max_default_segments)

    reps, labels = _compress_group(sequences, config)
    value_to_group = {v: int(l) for v, l in zip(values_per_seq, labels)}
    blooms = None
    if config.use_bloom_filters and reps:
        members: dict[int, list] = {}
        for v, g in value_to_group.items():
            members.setdefault(g, []).append(v)
        blooms = []
        for g in range(len(reps)):
            bloom = BloomFilter(len(members.get(g, [])) or 1)
            for v in members.get(g, []):
                bloom.add(v)
            blooms.append(bloom)
        value_to_group = None
    return EqualityStats(reps, default, value_to_group, blooms)


# ----------------------------------------------------------------------
# Range predicates: hierarchical equi-depth histograms
# ----------------------------------------------------------------------
@dataclass
class HistogramStats:
    """A hierarchy of equi-depth histograms with per-bucket CDSs.

    ``boundaries`` are the finest-level bucket edges (``2^levels + 1``
    values); level ``j`` (from 1=coarsest pair to ``levels``=finest) has
    ``2^j`` buckets, each covering ``2^(levels-j)`` finest buckets.
    """

    boundaries: np.ndarray
    levels: int
    reps: list[PiecewiseLinear]
    bucket_group: dict[tuple[int, int], int]
    base: PiecewiseLinear

    def lookup_expr(self, low, high):
        """Conditioning expression for a range predicate over ``[low, high]``.

        Primary rule (paper, Sec 3.2): the smallest single bucket fully
        containing the range.  Refinement: ranges that straddle a bucket
        boundary at every level would otherwise fall back to the whole
        column; instead we also consider the *sum* of the two adjacent
        covering buckets at the deepest level (sound: the matching rows are
        a subset of their union) and take the pointwise minimum of all
        candidates, capped by the unconditioned CDS.
        """
        lo = self.boundaries[0] if low is None else low
        hi = self.boundaries[-1] if high is None else high
        fine = len(self.boundaries) - 2  # max finest bucket index
        b_lo = int(np.clip(np.searchsorted(self.boundaries, lo, "right") - 1, 0, fine))
        b_hi = int(np.clip(np.searchsorted(self.boundaries, hi, "right") - 1, 0, fine))
        candidates: list = [self.base]
        pair_candidate_found = False
        for level in range(self.levels, 0, -1):
            shift = self.levels - level
            c_lo, c_hi = b_lo >> shift, b_hi >> shift
            if c_lo == c_hi:
                group = self.bucket_group.get((level, c_lo))
                if group is not None:
                    candidates.append(self.reps[group])
                    break
            elif c_hi - c_lo == 1 and not pair_candidate_found:
                g_lo = self.bucket_group.get((level, c_lo))
                g_hi = self.bucket_group.get((level, c_hi))
                if g_lo is not None and g_hi is not None:
                    candidates.append(("sum", (self.reps[g_lo], self.reps[g_hi])))
                    pair_candidate_found = True
        if len(candidates) == 1:
            return self.base
        return ("min", tuple(candidates))

    def lookup(self, low, high) -> PiecewiseLinear:
        return evaluate_expr(self.lookup_expr(low, high))

    def memory_bytes(self) -> int:
        total = self.boundaries.nbytes
        total += sum(_PL_BYTES_PER_BREAKPOINT * len(r.xs) for r in self.reps)
        total += 12 * len(self.bucket_group)
        return total


def equi_depth_boundaries(
    values: np.ndarray, histogram_levels: int
) -> tuple[np.ndarray, int]:
    """Finest-level bucket edges plus the effective level count for the
    hierarchical equi-depth histogram of ``values``.  A pure function of
    the value multiset, shared by every join column of a table."""
    levels = histogram_levels
    num_fine = 2**levels
    quantiles = np.linspace(0, 1, num_fine + 1)
    boundaries = np.quantile(values.astype(float), quantiles)
    boundaries = np.unique(boundaries)
    if len(boundaries) < 2:
        boundaries = np.array([boundaries[0], boundaries[0] + 1.0])
    # Re-derive the effective level count when ties collapse buckets.
    eff_fine = len(boundaries) - 1
    levels = max(int(np.floor(np.log2(eff_fine))), 1) if eff_fine > 1 else 1
    num_fine = 2**levels
    # Evenly re-space to exactly 2^levels buckets.
    idx = np.round(np.linspace(0, eff_fine, num_fine + 1)).astype(int)
    boundaries = boundaries[np.unique(idx)]
    return boundaries, levels


def _build_histogram_stats(
    prep: FilterColumnPrep,
    join_values: np.ndarray,
    base: PiecewiseLinear,
    config: ConditioningConfig,
    compress: RunListCompressor,
) -> HistogramStats:
    levels = prep.levels
    sequences: list[PiecewiseLinear] = []
    keys: list[tuple[int, int]] = []
    for level in range(levels, 0, -1):
        codes = prep.fine_codes >> (levels - level)
        pg, pc, _, _ = pair_group_sequences(codes, join_values)
        for bucket, runs in zip(*group_runs(pg, pc)):
            sequences.append(compress(*runs))
            keys.append((level, bucket))
    reps, labels = _compress_group(sequences, config)
    bucket_group = {k: int(l) for k, l in zip(keys, labels)}
    return HistogramStats(prep.boundaries, levels, reps, bucket_group, base)


# ----------------------------------------------------------------------
# LIKE predicates: 3-gram MCVs
# ----------------------------------------------------------------------
@dataclass
class TrigramStats:
    """Conditioned CDSs per common 3-gram of a string filter column."""

    reps: list[PiecewiseLinear]
    gram_to_group: dict[str, int]
    no_common_gram_cds: PiecewiseLinear
    base: PiecewiseLinear

    def lookup_expr(self, pattern: str, mode: str = "base"):
        """Conditioning expression for ``LIKE pattern``: pointwise min over
        the pattern's known 3-grams, or the configured fallback."""
        grams = trigrams(pattern)
        found = [self.reps[self.gram_to_group[g]] for g in grams if g in self.gram_to_group]
        if found:
            return ("min", tuple(found)) if len(found) > 1 else found[0]
        return self.no_common_gram_cds if mode == "nogram" else self.base

    def lookup(self, pattern: str, mode: str = "base") -> PiecewiseLinear:
        return evaluate_expr(self.lookup_expr(pattern, mode))

    def memory_bytes(self) -> int:
        total = sum(_PL_BYTES_PER_BREAKPOINT * len(r.xs) for r in self.reps)
        total += _PL_BYTES_PER_BREAKPOINT * len(self.no_common_gram_cds.xs)
        total += sum(len(g) + 8 for g in self.gram_to_group)
        return total


def _build_trigram_stats(
    prep: FilterColumnPrep,
    join_values: np.ndarray,
    base: PiecewiseLinear,
    config: ConditioningConfig,
    compress: RunListCompressor,
) -> TrigramStats:
    # One grouped pass over every (gram, row) membership; join values are
    # keyed like DegreeSequence.from_column so equal values (NaN included)
    # count as one.
    top = prep.top_grams
    rows = prep.gram_rows
    pg, pc, _, _ = pair_group_sequences(prep.gram_group, _join_keys(join_values)[rows])
    runs_of = dict(zip(*group_runs(pg, pc)))
    sequences = [compress(*runs_of[gi]) for gi in range(len(top))]
    no_gram = runs_of.get(len(top))
    no_common = PiecewiseLinear.zero() if no_gram is None else compress(*no_gram)
    reps, labels = _compress_group(sequences, config)
    gram_to_group = {g: int(l) for g, l in zip(top, labels)}
    return TrigramStats(reps, gram_to_group, no_common, base)


# ----------------------------------------------------------------------
# Per filter column / per join column aggregation
# ----------------------------------------------------------------------
@dataclass
class FilterColumnStats:
    """All conditioned statistics of one (join column, filter column) pair."""

    equality: EqualityStats | None = None
    histogram: HistogramStats | None = None
    trigram: TrigramStats | None = None

    def memory_bytes(self) -> int:
        total = 0
        for part in (self.equality, self.histogram, self.trigram):
            if part is not None:
                total += part.memory_bytes()
        return total

    def num_sequences(self) -> int:
        total = 0
        if self.equality is not None:
            total += len(self.equality.reps) + 1
        if self.histogram is not None:
            total += len(self.histogram.reps)
        if self.trigram is not None:
            total += len(self.trigram.reps) + 1
        return total


@dataclass
class JoinColumnStats:
    """The statistics SafeBound keeps for one join column of a relation."""

    column: str
    base: PiecewiseLinear
    filters: dict[str, FilterColumnStats] = field(default_factory=dict)
    like_default_mode: str = "base"
    # Live-update state (never serialised as-is; see core/updates.py).
    # ``pending_inserts`` counts tuples inserted into the relation since
    # these statistics were built: every stored CDS — base, MCV, histogram
    # bucket, trigram — can be exceeded by at most that many tuples, so
    # padding the *result* of any lookup by it preserves the
    # never-underestimate guarantee between recompressions.
    pending_inserts: float = 0.0
    # Optional exact frequency tracker of this join column; when attached,
    # the unconditioned path serves its self-recompressing CDS instead of
    # the monotonically loosening padded base.
    incremental: IncrementalColumnStats | None = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    def condition(self, predicate: Predicate | None) -> PiecewiseLinear:
        """The CDS of this join column conditioned on a predicate tree."""
        expr = self.condition_expr(predicate)
        if expr is None:
            # No usable filter information: same as unconditioned, so the
            # (possibly self-recompressed, tighter) incremental CDS applies.
            return self._unconditioned()
        return pad_cds(evaluate_expr(expr), self.pending_inserts)

    def _unconditioned(self) -> PiecewiseLinear:
        if self.incremental is not None:
            return self.incremental.cds
        return pad_cds(self.base, self.pending_inserts)

    def condition_expr(self, predicate: Predicate | None):
        """The conditioning *expression* for ``predicate``: a tree of
        ``("min" | "sum" | "cmax", children)`` nodes over stored-CDS
        leaves, or ``None`` for "no usable filter information".

        Both evaluation paths consume the same expression —
        :func:`evaluate_expr` walks it with the scalar pointwise ops,
        :func:`condition_cds_batch` compiles many expressions at once into
        level-scheduled segmented kernel calls with CSE — which is what
        keeps the two paths bit-identical by construction.
        """
        if predicate is None:
            return None
        return self._condition_node(predicate)

    def _condition_node(self, node: Predicate):
        """None means "no information" (treated as the unconditioned CDS)."""
        if isinstance(node, And):
            parts = [self._condition_node(c) for c in node.children]
            parts = [p for p in parts if p is not None]
            if not parts:
                return None
            return ("min", tuple(parts)) if len(parts) > 1 else parts[0]
        if isinstance(node, (Or, InList)):
            children = (
                node.as_disjunction().children if isinstance(node, InList) else node.children
            )
            parts = [self._condition_node(c) for c in children]
            if any(p is None for p in parts) or not parts:
                return None  # one unknown disjunct could select anything
            summed = ("sum", tuple(parts)) if len(parts) > 1 else parts[0]
            return ("min", (summed, self.base))
        if isinstance(node, Eq):
            stats = self.filters.get(node.column)
            if stats is None or stats.equality is None:
                return None
            return stats.equality.lookup_expr(node.value)
        if isinstance(node, Range):
            stats = self.filters.get(node.column)
            if stats is None or stats.histogram is None:
                return None
            return stats.histogram.lookup_expr(node.low, node.high)
        if isinstance(node, Like):
            stats = self.filters.get(node.column)
            if stats is None or stats.trigram is None:
                return None
            return stats.trigram.lookup_expr(node.pattern, self.like_default_mode)
        return None

    def memory_bytes(self) -> int:
        total = _PL_BYTES_PER_BREAKPOINT * len(self.base.xs)
        total += sum(f.memory_bytes() for f in self.filters.values())
        return total

    def num_sequences(self) -> int:
        return 1 + sum(f.num_sequences() for f in self.filters.values())


class ConditionedRelation:
    """Conditioning result of one (table, effective predicate) pair.

    Holds the conditioned CDS of every declared join column, the implied
    single-table bound, and — lazily, per requested column — the CDS
    truncated at that bound (including the undeclared-column fallback of
    Sec 3.6).  Shared through SafeBound's conditioning cache, so the
    truncation is paid once per pair rather than once per subquery, and
    both bound kernels (the per-object recursion and the batched array
    program) consume the *same* conditioned CDS objects — which is what
    makes their bounds bit-identical and lets the array engine deduplicate
    repeated query instantiations by CDS identity.
    """

    __slots__ = ("single_table", "_rel", "_conditioned", "_bound_cds")

    def __init__(self, rel, predicate: Predicate | None) -> None:
        self._rel = rel
        # Single-table bound: the min conditioned total over declared join
        # columns (they all count the same filtered rows).
        _metric_inc("conditioning.object_relations")
        single_table = float(rel.cardinality)
        conditioned: dict[str, PiecewiseLinear] = {}
        with _span("conditioning.object"):
            for jcol, jstats in rel.join_stats.items():
                cds = jstats.condition(predicate)
                conditioned[jcol] = cds
                single_table = min(single_table, cds.total)
        self.single_table = single_table
        self._conditioned = conditioned
        self._bound_cds: dict[str, PiecewiseLinear] = {}

    @classmethod
    def from_conditioned(
        cls, rel, conditioned: dict[str, PiecewiseLinear]
    ) -> "ConditionedRelation":
        """Assemble from per-join-column CDSs computed out of band (the
        batched kernel path or a shared-cache read).  Runs the same
        single-table min in the same ``join_stats`` order as ``__init__``,
        so identical CDS values yield an identical relation."""
        self = cls.__new__(cls)
        self._rel = rel
        single_table = float(rel.cardinality)
        for jcol in rel.join_stats:
            single_table = min(single_table, conditioned[jcol].total)
        self.single_table = single_table
        self._conditioned = conditioned
        self._bound_cds = {}
        return self

    def _fallback_base(self, column: str) -> PiecewiseLinear:
        base = self._conditioned.get(column)
        if base is None:
            # Undeclared join column (Sec 3.6): truncate its
            # unconditioned CDS (padded for any pending inserts) to
            # the single-table bound.
            base = self._rel.padded_fallback(column)
        if base is None:
            base = PiecewiseLinear.from_breakpoints(
                [(0.0, 0.0), (1.0, float(self._rel.cardinality))]
            )
        return base

    def cds_for(self, column: str) -> PiecewiseLinear:
        cds = self._bound_cds.get(column)
        if cds is None:
            cds = self._fallback_base(column).truncate_total(self.single_table)
            self._bound_cds[column] = cds
        return cds


# ----------------------------------------------------------------------
# Batched (array-kernel) conditioning
# ----------------------------------------------------------------------
_EXPR_KERNELS = {
    "min": arraykernel.batch_pointwise_min,
    "sum": arraykernel.batch_pointwise_sum,
    "cmax": arraykernel.batch_concave_max,
}
_EXPR_METRIC = {kind: f"conditioning.ops.{kind}" for kind in _EXPR_KERNELS}
_EXPR_SPAN = {kind: f"conditioning.kernel.{kind}" for kind in _EXPR_KERNELS}


def evaluate_exprs_array(exprs: list) -> list[PiecewiseLinear]:
    """Evaluate many conditioning expressions with the segmented kernels.

    The forest is interned with common-subexpression elimination — leaves
    by object identity, interior nodes by ``(kind, child ids)``, so the
    same (relation, column, canonical-predicate) sub-tree appearing under
    many queries/plans is computed once — then scheduled by dependency
    level; every (level, kind, arity) group runs as one kernel call over
    all expressions at once.  The kernels are the bit-identical twins of
    the scalar pointwise ops and operand order is preserved node by node,
    so results equal :func:`evaluate_expr` array-element for
    array-element.
    """
    node_of: dict = {}
    ops: list = []  # None for leaves, (kind, child_ids) for interior nodes
    values: list = []  # PiecewiseLinear per node, filled level by level
    levels: list[int] = []

    def intern(expr) -> int:
        if not isinstance(expr, tuple):
            key = ("leaf", id(expr))
            nid = node_of.get(key)
            if nid is None:
                nid = len(ops)
                node_of[key] = nid
                ops.append(None)
                values.append(expr)
                levels.append(0)
            return nid
        kind, children = expr
        child_ids = tuple(intern(c) for c in children)
        key = (kind, child_ids)
        nid = node_of.get(key)
        if nid is None:
            nid = len(ops)
            node_of[key] = nid
            ops.append((kind, child_ids))
            values.append(None)
            levels.append(1 + max(levels[c] for c in child_ids))
        return nid

    roots = [intern(e) for e in exprs]
    groups: dict[tuple[int, str, int], list[int]] = {}
    for nid, op in enumerate(ops):
        if op is not None:
            groups.setdefault((levels[nid], op[0], len(op[1])), []).append(nid)
    root_set = set(roots)
    # Same-level nodes only depend on strictly lower levels, so sorted
    # (level, kind, arity) order is a valid schedule.
    for (_, kind, arity), nids in sorted(groups.items()):
        _metric_inc(_EXPR_METRIC[kind], len(nids))
        with _span(_EXPR_SPAN[kind]):
            parts = [
                Ragged.from_functions([values[ops[nid][1][j]] for nid in nids])
                for j in range(arity)
            ]
            out = _EXPR_KERNELS[kind](parts)
        for k, nid in enumerate(nids):
            xs, ys = out.segment_arrays(k)
            if nid in root_set:
                # Roots outlive the batch (they land in conditioning
                # caches): copy them out of the shared group buffer.
                values[nid] = pl_view(xs.copy(), ys.copy())
            else:
                values[nid] = pl_view(xs, ys)
    return [values[r] for r in roots]


def condition_cds_batch(
    jobs: list[tuple[JoinColumnStats, Predicate | None]]
) -> list[PiecewiseLinear]:
    """``JoinColumnStats.condition`` over many jobs in shared kernel calls.

    Leaf expressions (pure lookups) and no-information jobs stay on the
    object path — they do no pointwise math, and identity of the stored
    CDS objects must be preserved — while every interior expression joins
    one CSE'd batched evaluation.
    """
    results: list[PiecewiseLinear | None] = [None] * len(jobs)
    exprs: list = []
    expr_slots: list[int] = []
    for i, (jstats, predicate) in enumerate(jobs):
        expr = jstats.condition_expr(predicate)
        if expr is None:
            results[i] = jstats._unconditioned()
        elif not isinstance(expr, tuple):
            results[i] = pad_cds(expr, jstats.pending_inserts)
        else:
            exprs.append(expr)
            expr_slots.append(i)
    if exprs:
        for i, value in zip(expr_slots, evaluate_exprs_array(exprs)):
            results[i] = pad_cds(value, jobs[i][0].pending_inserts)
    return results


def condition_relations_batch(pairs) -> list[ConditionedRelation]:
    """:class:`ConditionedRelation` for many ``(relation statistics,
    predicate)`` pairs, flattening all their join columns into one
    :func:`condition_cds_batch` call."""
    pairs = list(pairs)
    _metric_inc("conditioning.batched_pairs", len(pairs))
    with _span("conditioning.batch", pairs=len(pairs)):
        jobs: list[tuple[JoinColumnStats, Predicate | None]] = []
        spans: list[tuple[object, list[str]]] = []
        for rel, predicate in pairs:
            jcols = list(rel.join_stats)
            spans.append((rel, jcols))
            jobs.extend((rel.join_stats[jcol], predicate) for jcol in jcols)
        flat = condition_cds_batch(jobs)
        out: list[ConditionedRelation] = []
        pos = 0
        for rel, jcols in spans:
            conditioned = {jcol: flat[pos + k] for k, jcol in enumerate(jcols)}
            pos += len(jcols)
            out.append(ConditionedRelation.from_conditioned(rel, conditioned))
        return out


def fill_truncations_batch(
    requests: list[tuple[ConditionedRelation, str]]
) -> None:
    """Populate ``cds_for``'s per-column truncation cache for many
    ``(conditioned relation, join column)`` pairs in one
    ``batch_truncate_total`` call.

    The no-cut fast path stores the conditioned CDS object itself,
    exactly like ``truncate_total``'s return-self branch, preserving the
    identity-based deduplication downstream.
    """
    bases: list[PiecewiseLinear] = []
    totals: list[float] = []
    targets: list[tuple[ConditionedRelation, str]] = []
    for conditioned_rel, column in requests:
        if column in conditioned_rel._bound_cds:
            continue
        base = conditioned_rel._fallback_base(column)
        total = conditioned_rel.single_table
        if total >= base.total - _EPS:
            conditioned_rel._bound_cds[column] = base
        else:
            bases.append(base)
            totals.append(total)
            targets.append((conditioned_rel, column))
    if not bases:
        return
    _metric_inc("conditioning.truncations", len(targets))
    with _span("conditioning.truncate", cuts=len(targets)):
        out = arraykernel.batch_truncate_total(
            Ragged.from_functions(bases), np.array(totals)
        )
        for k, (conditioned_rel, column) in enumerate(targets):
            xs, ys = out.segment_arrays(k)
            conditioned_rel._bound_cds[column] = pl_view(xs.copy(), ys.copy())


# ----------------------------------------------------------------------
def filter_column_stats(
    prep: FilterColumnPrep,
    join_values: np.ndarray,
    base: PiecewiseLinear,
    config: ConditioningConfig,
    compress: RunListCompressor,
) -> FilterColumnStats:
    """The statistics of one (join column, filter column) pair."""
    fstats = FilterColumnStats()
    fstats.equality = _build_equality_stats(prep, join_values, config, compress)
    if prep.is_string:
        fstats.trigram = _build_trigram_stats(prep, join_values, base, config, compress)
    else:
        fstats.histogram = _build_histogram_stats(prep, join_values, base, config, compress)
    return fstats


def build_join_column_stats(
    column: str,
    join_values: np.ndarray,
    filter_columns: dict[str, np.ndarray | FilterColumnPrep],
    config: ConditioningConfig,
    compress: RunListCompressor | None = None,
) -> JoinColumnStats:
    """Offline construction of all statistics for one join column.

    ``filter_columns`` maps filter-column name to its (full-table) values,
    or to their :func:`prepare_filter_column` output so that the join
    columns of a table share it; numeric columns get MCV + histogram
    statistics, string columns get MCV + trigram statistics.  ``compress``
    is the build's :class:`RunListCompressor` (a fresh one by default).
    """
    compress = compress or RunListCompressor(config.compression_accuracy)
    base = compress.degree_sequence(DegreeSequence.from_column(join_values))
    stats = JoinColumnStats(column, base, like_default_mode=config.like_default_mode)
    for fcol, prep in filter_columns.items():
        if fcol == column:
            continue
        if not isinstance(prep, FilterColumnPrep):
            prep = prepare_filter_column(prep, config)
        stats.filters[fcol] = filter_column_stats(prep, join_values, base, config, compress)
    return stats
