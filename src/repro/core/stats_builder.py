"""Offline phase of SafeBound: build all statistics for a database.

For every table, builds a :class:`JoinColumnStats` per declared join column
(conditioned on every filter column), plus one *unconditioned* compressed
CDS per column as the fallback for undeclared join columns (Sec 3.6).

Implements the PK-FK pre-computation of Sec 4.2: for every foreign key
``fact.fk -> dim.pk`` we materialise *virtual* filter columns on the fact
table — the dimension's filter columns pulled across the join — and build
conditioned statistics on them.  At query time, predicates on the dimension
are rewritten onto these virtual columns, sidestepping the worst-case
cross-join correlation assumption.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..db.database import Database
from ..db.table import Table
from .compression import RunListCompressor
from .conditioning import (
    ConditioningConfig,
    JoinColumnStats,
    build_join_column_stats,
    prepare_filter_column,
)
from .degree_sequence import DegreeSequence
from .piecewise import PiecewiseLinear
from .updates import IncrementalColumnStats, pad_cds

__all__ = [
    "RelationStats",
    "SafeBoundStats",
    "build_statistics",
    "virtual_column_name",
]


def virtual_column_name(fk_column: str, dim_table: str, dim_column: str) -> str:
    """Name of the virtual filter column propagated across a PK-FK join."""
    return f"{fk_column}=>{dim_table}.{dim_column}"


def _pull_dimension_column(
    fk_values: np.ndarray, pk_values: np.ndarray, dim_values: np.ndarray
) -> np.ndarray:
    """``dim_values`` aligned to the fact rows via ``fk -> pk`` lookup.

    Dangling foreign keys map to ``None`` / ``nan`` so no predicate ever
    matches them.
    """
    order = np.argsort(pk_values, kind="stable")
    sorted_pk = pk_values[order]
    idx = np.searchsorted(sorted_pk, fk_values, side="left")
    idx_clipped = np.clip(idx, 0, len(sorted_pk) - 1)
    hit = sorted_pk[idx_clipped] == fk_values
    source = dim_values[order][idx_clipped]
    if dim_values.dtype == object:
        out = np.array(
            [v if h else None for v, h in zip(source.tolist(), hit.tolist())],
            dtype=object,
        )
    else:
        out = np.where(hit, source.astype(float), np.nan)
    return out


@dataclass
class RelationStats:
    """All SafeBound statistics of one table."""

    table: str
    cardinality: int
    join_stats: dict[str, JoinColumnStats] = field(default_factory=dict)
    fallback_cds: dict[str, PiecewiseLinear] = field(default_factory=dict)
    # (fk_column, dim_table, dim_pk_column, dim_filter_column) -> virtual name
    virtual_columns: dict[tuple[str, str, str, str], str] = field(default_factory=dict)
    # Live-update state.  ``pending_inserts`` counts tuples inserted since
    # build (pads every fallback CDS lookup); ``stale_dims`` names dimension
    # tables that received inserts since build — their propagated virtual
    # columns may under-select (a new dimension row can turn a previously
    # dangling foreign key into a match), so predicate propagation across
    # those joins must be skipped until the next rebuild.
    pending_inserts: int = 0
    stale_dims: set[str] = field(default_factory=set)
    # ``virtual_columns`` grouped by join, built on first use (not saved).
    _virtual_index: dict | None = field(default=None, init=False, repr=False, compare=False)

    def virtual_column_map(self, fk_column: str, dim_table: str, dim_pk: str) -> dict[str, str]:
        """``{dimension filter column: virtual column}`` for the join
        ``fk_column -> dim_table.dim_pk``, in ``virtual_columns`` order."""
        if self._virtual_index is None:
            index: dict[tuple[str, str, str], dict[str, str]] = {}
            for (fkcol, dtable, dpk, dcol), vname in self.virtual_columns.items():
                index.setdefault((fkcol, dtable, dpk), {})[dcol] = vname
            self._virtual_index = index
        return self._virtual_index.get((fk_column, dim_table, dim_pk), {})

    def memory_bytes(self) -> int:
        total = sum(js.memory_bytes() for js in self.join_stats.values())
        total += sum(16 * len(f.xs) for f in self.fallback_cds.values())
        return total

    def num_sequences(self) -> int:
        return sum(js.num_sequences() for js in self.join_stats.values()) + len(
            self.fallback_cds
        )

    # ------------------------------------------------------------------
    # Live updates (paper Sec 6, "Handling Updates")
    # ------------------------------------------------------------------
    def attach_incremental(self, table: Table, accuracy: float = 0.01, slack: float = 0.1) -> None:
        """Attach exact frequency counters of every join column, enabling
        tight unconditioned CDSs and threshold-driven recompression between
        full rebuilds.  The counters are ingest state, not statistics: they
        are excluded from ``memory_bytes`` (the paper's stats-size metric)
        and from serialisation."""
        for col, js in self.join_stats.items():
            if js.pending_inserts > 0:
                # The stored base predates pending inserts, so it is NOT a
                # valid compressed CDS of the table's current column —
                # adopting it unpadded would underestimate.  Compress fresh
                # from the live values instead (also tightens the bound).
                js.incremental = IncrementalColumnStats(
                    table.column(col), accuracy, slack
                )
            else:
                js.incremental = IncrementalColumnStats.adopt(
                    table.column(col), js.base, accuracy, slack
                )

    @staticmethod
    def _row_count(rows: dict[str, np.ndarray]) -> int:
        lengths = {len(np.asarray(v)) for v in rows.values()}
        if len(lengths) != 1:
            raise ValueError(f"update columns have differing lengths: {lengths}")
        return lengths.pop()

    def _check_tracked_columns(self, rows: dict[str, np.ndarray], action: str) -> None:
        """Validate *before* any mutation: raising halfway through the
        column loop would leave some counters double-counting on a retry.
        Join columns must be present whenever counters are attached — a
        silently under-counted counter would recompress into an
        underestimating CDS later."""
        for col, js in self.join_stats.items():
            if js.incremental is not None and col not in rows:
                raise KeyError(
                    f"{action} {self.table!r} must provide join column {col!r}"
                )

    def apply_insert(self, rows: dict[str, np.ndarray]) -> int:
        """Register ``rows`` (column -> values) as inserted into the table.

        Padding is raised *before* anything else so a concurrent reader can
        never observe the new cardinality without the matching padding.
        """
        n = self._row_count(rows)
        self._check_tracked_columns(rows, "insert into")
        for col, js in self.join_stats.items():
            js.pending_inserts += n
            if js.incremental is not None:
                js.incremental.insert(np.asarray(rows[col]))
        self.pending_inserts += n
        self.cardinality += n
        return n

    def apply_delete(self, rows: dict[str, np.ndarray]) -> int:
        """Register ``rows`` as deleted.  Deletes never invalidate a
        dominating CDS, so no padding is needed; counters shrink so the next
        recompression tightens the bound back down."""
        n = self._row_count(rows)
        self._check_tracked_columns(rows, "delete from")
        for col, js in self.join_stats.items():
            if js.incremental is not None:
                js.incremental.delete(np.asarray(rows[col]))
        self.cardinality -= n
        return n

    def padded_fallback(self, column: str) -> PiecewiseLinear | None:
        """The undeclared-join fallback CDS, padded for pending inserts."""
        cds = self.fallback_cds.get(column)
        if cds is None:
            return None
        return pad_cds(cds, self.pending_inserts)

    def padding_overhead(self) -> float:
        """Relative cardinality overhead of the conditioned-CDS padding —
        the staleness signal driving recompress-and-republish cycles."""
        return self.pending_inserts / max(self.cardinality, 1)


@dataclass
class SafeBoundStats:
    """The complete statistics store produced by the offline phase."""

    relations: dict[str, RelationStats] = field(default_factory=dict)
    build_seconds: float = 0.0

    def memory_bytes(self) -> int:
        return sum(r.memory_bytes() for r in self.relations.values())

    def num_sequences(self) -> int:
        return sum(r.num_sequences() for r in self.relations.values())

    # ------------------------------------------------------------------
    # Live updates
    # ------------------------------------------------------------------
    def apply_insert(self, table: str, rows: dict[str, np.ndarray]) -> int:
        """Keep all statistics valid across an insert of ``rows`` into
        ``table`` (never-underestimate preserved via padding)."""
        n = self.relations[table].apply_insert(rows)
        # New dimension rows can turn dangling foreign keys into matches,
        # so every fact table propagating predicates from `table` must stop
        # doing so until its next rebuild.
        for rel in self.relations.values():
            if any(dtable == table for (_, dtable, _, _) in rel.virtual_columns):
                rel.stale_dims.add(table)
        return n

    def apply_delete(self, table: str, rows: dict[str, np.ndarray]) -> int:
        """Keep all statistics valid across a delete of ``rows`` from
        ``table`` (deletes only shrink true CDSs — nothing loosens)."""
        return self.relations[table].apply_delete(rows)

    def max_padding_overhead(self) -> float:
        """The worst per-relation staleness — drives republish decisions."""
        if not self.relations:
            return 0.0
        return max(rel.padding_overhead() for rel in self.relations.values())


def _collect_filter_columns(
    db: Database,
    name: str,
    table: Table,
    rel: RelationStats,
    precompute_pk_joins: bool,
    build_trigrams: bool,
) -> dict[str, np.ndarray]:
    """The filter-column arrays of one table, virtual PK-FK columns
    included (registered on ``rel``), with float zeros normalised so the
    statistics conditioned on them depend only on the row multiset."""
    tschema = db.schema.tables[name]
    filter_columns: dict[str, np.ndarray] = {}
    for fcol in tschema.filter_columns:
        values = table.column(fcol)
        if values.dtype == object and not build_trigrams:
            # Scalability ablation (Fig 10): keep equality stats only by
            # replacing strings with their hash codes.
            values = np.array([hash(v) for v in values.tolist()])
        filter_columns[fcol] = _normalize_zeros(values)

    if precompute_pk_joins:
        for fk in db.schema.foreign_keys_of(name):
            if fk.ref_table not in db:
                continue
            dim_schema = db.schema.tables.get(fk.ref_table)
            dim_table = db.table(fk.ref_table)
            if dim_schema is None:
                continue
            for dcol in dim_schema.filter_columns:
                vname = virtual_column_name(fk.column, fk.ref_table, dcol)
                values = _pull_dimension_column(
                    table.column(fk.column),
                    dim_table.column(fk.ref_column),
                    dim_table.column(dcol),
                )
                if values.dtype == object and not build_trigrams:
                    values = np.array([hash(v) for v in values.tolist()])
                filter_columns[vname] = _normalize_zeros(values)
                rel.virtual_columns[(fk.column, fk.ref_table, fk.ref_column, dcol)] = vname
    return filter_columns


def _normalize_zeros(values: np.ndarray) -> np.ndarray:
    """Map float ``-0.0`` to ``+0.0`` (NaN passes through).

    ``-0.0 == 0.0``, so ``np.unique`` keeps an input-order-dependent
    representative of the pair — which would leak row order into
    ``repr``-hashed Bloom filters and interpolated histogram boundaries,
    breaking the build's row-multiset invariance: the same rows stored in
    another order would digest differently."""
    if values.dtype.kind == "f":
        return values + 0.0
    return values


def build_statistics(
    db: Database,
    config: ConditioningConfig | None = None,
    precompute_pk_joins: bool = True,
    build_trigrams: bool = True,
    track_updates: bool = False,
) -> SafeBoundStats:
    """Run SafeBound's offline phase over every table of the database.

    With ``track_updates``, every join column additionally gets an exact
    frequency counter so the statistics can absorb inserts/deletes through
    :meth:`SafeBoundStats.apply_insert` / ``apply_delete`` between rebuilds.
    """
    config = config or ConditioningConfig()
    started = time.perf_counter()
    stats = SafeBoundStats()
    compress = RunListCompressor(config.compression_accuracy)
    for name, tschema in db.schema.tables.items():
        if name not in db:
            continue
        table = db.table(name)
        rel = RelationStats(name, table.num_rows)
        filter_columns = _collect_filter_columns(
            db, name, table, rel, precompute_pk_joins, build_trigrams
        )
        # Factorisation, histogram buckets and 3-grams of a filter column
        # do not depend on the join column: prepare them once per table.
        join_columns = tschema.join_columns
        preps = {
            fcol: prepare_filter_column(values, config)
            for fcol, values in filter_columns.items()
            if any(jcol != fcol for jcol in join_columns)
        }
        for jcol in join_columns:
            rel.join_stats[jcol] = build_join_column_stats(
                jcol, table.column(jcol), preps, config, compress
            )

        # One unconditioned CDS per column: the undeclared-join fallback.
        for col in table.column_names:
            ds = DegreeSequence.from_column(table.column(col))
            rel.fallback_cds[col] = compress.degree_sequence(ds)

        if track_updates:
            rel.attach_incremental(table, config.compression_accuracy)

        stats.relations[name] = rel
    stats.build_seconds = time.perf_counter() - started
    return stats

