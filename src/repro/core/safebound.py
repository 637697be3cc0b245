"""The SafeBound system facade (Sec 3.1).

Offline: :meth:`SafeBound.build` computes compressed, predicate-conditioned
degree sequences for every table.  Online: :meth:`SafeBound.bound` takes a
query and returns a guaranteed upper bound on its output cardinality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..db.database import Database
from ..db.query import Query
from ..obs.metrics import inc as _metric_inc
from ..obs.tracing import span as _span
from .bound import CompiledSkeleton, FdsbEngine
from .cache import LRUCache
from .conditioning import (
    ConditionedRelation,
    ConditioningConfig,
    condition_relations_batch,
    fill_truncations_batch,
)
from .piecewise import PiecewiseLinear
from .predicates import And, Eq, InList, Like, Or, Predicate, Range
from .stats_builder import SafeBoundStats, build_statistics

__all__ = ["SafeBound", "SafeBoundConfig"]


@dataclass
class SafeBoundConfig:
    """Configuration of the full SafeBound system."""

    conditioning: ConditioningConfig = field(default_factory=ConditioningConfig)
    precompute_pk_joins: bool = True
    build_trigrams: bool = True
    max_spanning_trees: int = 64
    # Online-phase cache capacities (LRU-evicted).
    conditioning_cache_entries: int = 50_000
    skeleton_cache_entries: int = 4096
    # Attach per-join-column frequency counters at build time so
    # apply_insert/apply_delete can maintain the statistics between
    # recompress-and-republish cycles (see core/updates.py).
    track_updates: bool = False


def _rewrite_predicate(
    node: Predicate, column_map: dict[str, str], strict: bool = False
) -> Predicate | None:
    """Rewrite leaf columns through ``column_map``.

    Returns None when the node cannot be rewritten soundly.  Conjunctions
    may drop unrewritable children (conditioning on fewer predicates only
    weakens the bound) unless ``strict`` — used when the rewritten
    predicate *replaces* the original, as in PostgresPK's query rewrite —
    in which case every child must rewrite.  Disjunctions must always
    rewrite completely, because dropping a disjunct would *strengthen* the
    predicate.
    """
    if isinstance(node, And):
        parts = [_rewrite_predicate(c, column_map, strict) for c in node.children]
        if strict and any(p is None for p in parts):
            return None
        parts = [p for p in parts if p is not None]
        if not parts:
            return None
        return And(parts) if len(parts) > 1 else parts[0]
    if isinstance(node, Or):
        parts = [_rewrite_predicate(c, column_map, strict) for c in node.children]
        if any(p is None for p in parts) or not parts:
            return None
        return Or(parts)
    if isinstance(node, Eq):
        col = column_map.get(node.column)
        return Eq(col, node.value) if col else None
    if isinstance(node, Range):
        col = column_map.get(node.column)
        if not col:
            return None
        return Range(col, node.low, node.high, node.low_inclusive, node.high_inclusive)
    if isinstance(node, Like):
        col = column_map.get(node.column)
        return Like(col, node.pattern) if col else None
    if isinstance(node, InList):
        col = column_map.get(node.column)
        return InList(col, node.values) if col else None
    return None


class SafeBound:
    """The first practical system for generating cardinality bounds."""

    name = "SafeBound"

    def __init__(self, config: SafeBoundConfig | None = None) -> None:
        self.config = config or SafeBoundConfig()
        self.stats: SafeBoundStats | None = None
        self._db: Database | None = None
        self._engine = FdsbEngine(
            self.config.max_spanning_trees,
            self.config.skeleton_cache_entries,
        )
        # (epoch, table, repr(effective predicate)) -> ConditionedRelation.
        # The optimizer's DP estimates every connected subquery, and aliases
        # repeat across subsets with the same predicate, so this cache
        # carries most of the planning speed.  The epoch counter advances on
        # every statistics mutation: a conditioning result computed from
        # pre-update statistics but stored *after* the update's cache clear
        # lands under the old epoch and is never read again — without it,
        # that race would permanently serve unpadded bounds.
        self._conditioning_cache = LRUCache(self.config.conditioning_cache_entries)
        self._stats_epoch = 0

    # ------------------------------------------------------------------
    # Offline phase
    # ------------------------------------------------------------------
    def build(self, db: Database) -> None:
        """Compute and compress all degree-sequence statistics."""
        self.stats = build_statistics(
            db,
            self.config.conditioning,
            precompute_pk_joins=self.config.precompute_pk_joins,
            build_trigrams=self.config.build_trigrams,
            track_updates=self.config.track_updates,
        )
        self._db = db
        self._invalidate_conditioning()

    def memory_bytes(self) -> int:
        return self.stats.memory_bytes() if self.stats else 0

    def num_sequences(self) -> int:
        return self.stats.num_sequences() if self.stats else 0

    @property
    def build_seconds(self) -> float:
        return self.stats.build_seconds if self.stats else 0.0

    def fresh(self) -> "SafeBound":
        """A SafeBound over the same statistics with cold caches (no
        compiled skeleton, no conditioned relation)."""
        other = SafeBound(self.config)
        other.stats = self.stats
        other._db = self._db
        return other

    def adopt_engine(self, other: "SafeBound") -> None:
        """Share ``other``'s bound engine and its compiled skeletons.

        A skeleton depends only on the query shape and
        ``max_spanning_trees``, never on the statistics, so a new version
        of the same configuration reuses every shape compiled so far (the
        engine's skeleton cache is lock-guarded).
        """
        self._engine = other._engine

    # ------------------------------------------------------------------
    # Persistence facade (over core/serialization.py)
    # ------------------------------------------------------------------
    def save(self, path: str) -> int:
        """Serialise the built statistics to ``path`` as a stats arena
        that :meth:`load` maps lazily (see ``core/serialization.py``);
        returns the file size in bytes."""
        if self.stats is None:
            raise RuntimeError("SafeBound.build(db) must run before save()")
        from .serialization import save_stats

        return save_stats(self.stats, path)

    @classmethod
    def load(
        cls,
        path: str,
        db: Database | None = None,
        config: SafeBoundConfig | None = None,
    ) -> "SafeBound":
        """A ready-to-serve SafeBound from statistics written by
        :meth:`save` (loaded in O(manifest) time as lazy zero-copy
        views).  Pass ``db`` to re-attach update tracking (the frequency
        counters are not serialised)."""
        from .serialization import load_stats

        sb = cls(config)
        sb.stats = load_stats(path)
        if db is not None:
            sb.attach_update_tracking(db)
        return sb

    # ------------------------------------------------------------------
    # Live updates (paper Sec 6, "Handling Updates")
    # ------------------------------------------------------------------
    def attach_update_tracking(self, db: Database) -> None:
        """Attach exact join-column frequency counters from the database's
        *current* contents — required before :meth:`apply_delete`, and what
        lets unconditioned CDSs recompress between republish cycles."""
        if self.stats is None:
            raise RuntimeError("statistics must exist before tracking updates")
        for name, rel in self.stats.relations.items():
            if name in db:
                rel.attach_incremental(
                    db.table(name), self.config.conditioning.compression_accuracy
                )
        self._db = db

    def apply_insert(self, table: str, rows: dict) -> int:
        """Absorb an insert of ``rows`` (column -> values) into ``table``
        while keeping every bound valid; returns the row count."""
        if self.stats is None:
            raise RuntimeError("SafeBound.build(db) must run before apply_insert()")
        n = self.stats.apply_insert(table, rows)
        self._invalidate_conditioning()
        return n

    def apply_delete(self, table: str, rows: dict) -> int:
        """Absorb a delete of ``rows`` from ``table``; returns the count."""
        if self.stats is None:
            raise RuntimeError("SafeBound.build(db) must run before apply_delete()")
        n = self.stats.apply_delete(table, rows)
        self._invalidate_conditioning()
        return n

    def _invalidate_conditioning(self) -> None:
        # Advance the epoch before clearing: in-flight conditioning work
        # keyed to the old epoch can still be written afterwards but will
        # never be read, and eventually falls out of the LRU.
        self._stats_epoch += 1
        self._conditioning_cache.clear()

    def staleness(self) -> float:
        """Worst relative padding overhead across relations (0 when fresh)."""
        return self.stats.max_padding_overhead() if self.stats else 0.0

    # ------------------------------------------------------------------
    # Online phase
    # ------------------------------------------------------------------
    def bound(self, query: Query) -> float:
        """A guaranteed upper bound on the query's output cardinality."""
        if self.stats is None:
            raise RuntimeError("SafeBound.build(db) must run before bound()")
        return self.bound_batch([query])[0]

    def bound_batch(self, queries: list[Query]) -> list[float]:
        """Upper bounds for several queries in one engine call.

        Queries sharing a skeleton (the optimizer DP's repeated subquery
        shapes, or one template's predicate instantiations) are bounded
        against one compiled skeleton, and their conditioning/truncation
        work flows through the estimator's caches.  The whole batch — across
        skeletons — is then handed to the engine at once, which the array
        kernel turns into shared vectorized kernel calls.
        """
        if self.stats is None:
            raise RuntimeError("SafeBound.build(db) must run before bound_batch()")
        with _span("bound.batch", queries=len(queries)):
            _metric_inc("bound.queries", len(queries))
            skeletons: dict[tuple, CompiledSkeleton] = {}
            prepared = []
            for query in queries:
                key = query.skeleton_key()
                skeleton = skeletons.get(key)
                if skeleton is None:
                    skeleton = self._engine.compile(query)
                    skeletons[key] = skeleton
                keys = self._conditioning_keys(query, self._effective_predicates(query))
                prepared.append((query, skeleton, keys))
            self._prepare_conditioning(prepared)
            with _span("bound.inputs"):
                items = []
                for query, skeleton, keys in prepared:
                    column_cds, alias_cardinality = self._query_inputs(query, keys)
                    items.append((skeleton, column_cds, alias_cardinality))
            return self._engine.bound_batch_compiled(items)

    def _conditioning_keys(
        self, query: Query, effective: dict[str, Predicate]
    ) -> list[tuple[str, str, Predicate | None, tuple]]:
        """``(alias, table, effective predicate, conditioning cache key)``
        per alias of ``query``, each key computed once per batch."""
        epoch = self._stats_epoch
        keys = []
        for alias, tname in query.relations.items():
            predicate = effective.get(alias)
            keys.append((alias, tname, predicate, (epoch, tname, repr(predicate))))
        return keys

    def _prepare_conditioning(self, prepared) -> None:
        """Batched conditioning ahead of ``_query_inputs``: condition every
        (table, effective predicate) pair the batch needs that the
        conditioning cache does not hold, then truncate the requested join
        columns, each stage in one CSE'd kernel schedule instead of
        per-alias Python loops.

        Results land in the conditioning LRU (and the conditioned
        relations' truncation caches) before ``_query_inputs`` reads them
        back.  A stage with fewer than the engine's ``array_min_condition``
        items is skipped, and ``_query_inputs`` does its work on the object
        path, whose fixed cost is lower.  Purely a latency move: the
        kernels are bit-identical twins of the object ops, so skipping a
        stage changes no bound.
        """
        floor = max(self._engine.array_min_condition, 1)
        with _span("conditioning.prepare") as sp:
            missing: dict[tuple, tuple[str, Predicate | None]] = {}
            for _, _, keys in prepared:
                for _, tname, predicate, cache_key in keys:
                    if cache_key not in missing and cache_key not in self._conditioning_cache:
                        missing[cache_key] = (tname, predicate)
            if len(missing) >= floor:
                # Each missing key is a logical conditioning-cache miss that
                # the prefetch fills; count it so the counters read the
                # same as the object path's lookup-then-insert sequence.
                self._conditioning_cache.misses += len(missing)
                _metric_inc("conditioning.lru_miss", len(missing))
                _metric_inc("conditioning.computed", len(missing))
                pairs = [(self.stats.relations[t], p) for t, p in missing.values()]
                for cache_key, conditioned in zip(
                    missing, condition_relations_batch(pairs)
                ):
                    self._conditioning_cache[cache_key] = conditioned
            # Anything still missing (a batch below the dispatch floor) falls
            # through to the object path inside _conditioned_relation.
            requests: list[tuple[ConditionedRelation, str]] = []
            seen: set[tuple[int, str]] = set()
            for query, _, keys in prepared:
                for alias, _, _, cache_key in keys:
                    conditioned = self._conditioning_cache.peek(cache_key)
                    if conditioned is None:
                        continue
                    for col in query.join_columns_of(alias):
                        rid = (id(conditioned), col)
                        if rid not in seen and col not in conditioned._bound_cds:
                            seen.add(rid)
                            requests.append((conditioned, col))
            sp.set(missing=len(missing), truncations=len(requests))
            if len(requests) >= floor:
                fill_truncations_batch(requests)

    def _query_inputs(
        self, query: Query, keys: list[tuple] | None = None
    ) -> tuple[dict[tuple[str, str], PiecewiseLinear], dict[str, float]]:
        """Conditioned CDSs and single-table bounds for one query, served
        from the (epoch-keyed) conditioning cache; ``keys`` are the
        query's :meth:`_conditioning_keys` when the caller has them."""
        if keys is None:
            keys = self._conditioning_keys(query, self._effective_predicates(query))
        column_cds: dict[tuple[str, str], PiecewiseLinear] = {}
        alias_cardinality: dict[str, float] = {}
        for alias, tname, predicate, cache_key in keys:
            conditioned = self._conditioned_relation(tname, predicate, cache_key)
            alias_cardinality[alias] = conditioned.single_table
            for col in query.join_columns_of(alias):
                column_cds[(alias, col)] = conditioned.cds_for(col)
        return column_cds, alias_cardinality

    def _conditioned_relation(
        self, tname: str, predicate: Predicate | None, cache_key: tuple | None = None
    ) -> ConditionedRelation:
        if cache_key is None:
            cache_key = (self._stats_epoch, tname, repr(predicate))
        _metric_inc("conditioning.lookups")

        def compute() -> ConditionedRelation:
            _metric_inc("conditioning.lru_miss")
            _metric_inc("conditioning.computed")
            return ConditionedRelation(self.stats.relations[tname], predicate)

        return self._conditioning_cache.get_or_compute(cache_key, compute)

    def conditioning_cache_stats(self) -> dict:
        """Hit/miss counters of the conditioning cache."""
        cache = self._conditioning_cache
        return {
            "entries": len(cache),
            "capacity": cache.maxsize,
            "hits": cache.hits,
            "misses": cache.misses,
        }

    # Aliases so SafeBound satisfies the CardinalityEstimator protocol.
    def estimate(self, query: Query) -> float:
        return self.bound(query)

    def estimate_batch(self, queries: list[Query]) -> list[float]:
        return self.bound_batch(queries)

    # ------------------------------------------------------------------
    def _effective_predicates(self, query: Query) -> dict[str, Predicate]:
        """Own predicates plus dimension predicates propagated over PK-FK
        joins onto the fact side's virtual columns (Sec 4.2)."""
        effective: dict[str, list[Predicate]] = {
            alias: [p] for alias, p in query.predicates.items()
        }
        if not self.config.precompute_pk_joins:
            return {a: _conjoin(ps) for a, ps in effective.items()}
        for join in query.joins:
            for fact_ref, dim_ref in ((join.left, join.right), (join.right, join.left)):
                fact_table = query.relations[fact_ref.alias]
                dim_table = query.relations[dim_ref.alias]
                rel = self.stats.relations.get(fact_table)
                if rel is None:
                    continue
                if dim_table in rel.stale_dims:
                    # The dimension gained rows since this fact table's
                    # virtual columns were materialised; a new dimension row
                    # can turn a dangling FK into a match, so propagating its
                    # predicate could under-select.  Skipping propagation
                    # only weakens the bound.
                    continue
                dim_pred = query.predicates.get(dim_ref.alias)
                if dim_pred is None:
                    continue
                column_map = rel.virtual_column_map(fact_ref.column, dim_table, dim_ref.column)
                if not column_map:
                    continue
                rewritten = _rewrite_predicate(dim_pred, column_map)
                if rewritten is not None:
                    effective.setdefault(fact_ref.alias, []).append(rewritten)
        return {a: _conjoin(ps) for a, ps in effective.items()}


def _conjoin(predicates: list[Predicate]) -> Predicate:
    return predicates[0] if len(predicates) == 1 else And(predicates)

