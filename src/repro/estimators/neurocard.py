"""NeuroCard surrogate: sampling over the full join via random walks.

NeuroCard [28] trains a deep autoregressive model over samples of the full
outer join and answers queries by progressive sampling.  This surrogate
keeps the profile the paper's comparison depends on:

* accurate on average — the wander-join walks are unbiased;
* **prone to significant underestimates** on selective predicates (few or
  no walks survive, and the estimate clamps at 1 — Fig 5c);
* slow inference: every (sub)query estimate runs hundreds of walks, so
  planning time is orders of magnitude above SafeBound's (Fig 5b);
* a non-trivial memory footprint (per-join-column indexes standing in for
  the model weights, Fig 8a);
* **no support for cyclic schemas** (Fig 5: "NeuroCard does not support
  the cyclic schema of the Stats benchmark").
"""

from __future__ import annotations

import copy
import time

import networkx as nx
import numpy as np

from ..db.database import Database
from ..db.query import Query
from .base import CardinalityEstimator, UnsupportedQueryError

__all__ = ["NeuroCardEstimator"]


class _ColumnIndex:
    """Sorted index over one join column: lookup + uniform row sampling."""

    def __init__(self, values: np.ndarray) -> None:
        self.order = np.argsort(values, kind="stable")
        self.sorted_values = values[self.order]

    def match_range(self, value) -> tuple[int, int]:
        lo = int(np.searchsorted(self.sorted_values, value, side="left"))
        hi = int(np.searchsorted(self.sorted_values, value, side="right"))
        return lo, hi

    def memory_bytes(self) -> int:
        return self.order.nbytes + (
            self.sorted_values.nbytes if self.sorted_values.dtype != object else 8 * len(self.sorted_values)
        )


class NeuroCardEstimator(CardinalityEstimator):
    """Progressive-sampling estimator over the full join (NeuroCard surrogate)."""

    name = "NeuroCard"

    def __init__(self, seed: int = 0, num_walks: int = 100) -> None:
        super().__init__()
        self.num_walks = num_walks
        self.seed = seed
        self._db: Database | None = None
        self._indexes: dict[tuple[str, str], _ColumnIndex] = {}
        self._schema_cyclic = False
        self._rng = np.random.default_rng(seed)

    def fresh(self) -> "NeuroCardEstimator":
        """The built model with a copy of its sampler's state, so timing
        a fresh copy leaves this estimator's draws unchanged."""
        other = copy.copy(self)
        other._rng = copy.deepcopy(self._rng)
        return other

    def build(self, db: Database) -> None:
        started = time.perf_counter()
        self._db = db
        self._indexes = {}
        # "Training": materialise per-join-column indexes (standing in for
        # fitting the autoregressive model over the join sample).
        for name, table in db.tables.items():
            for col in db.schema.tables[name].join_columns:
                self._indexes[(name, col)] = _ColumnIndex(table.column(col))
        # "Cyclic schema" support (the Stats gap in Fig 5) manifests at the
        # query level: a schema like Stats — where comments/votes reference
        # both posts and users while posts also references users — produces
        # cyclic join queries, which the walk-based sampler (like the
        # original's full-outer-join model) cannot express.  The per-query
        # check in estimate() raises UnsupportedQueryError for those.
        self._schema_cyclic = False
        self.build_seconds = time.perf_counter() - started

    def memory_bytes(self) -> int:
        return sum(ix.memory_bytes() for ix in self._indexes.values())

    # ------------------------------------------------------------------
    def estimate(self, query: Query) -> float:
        if self._db is None:
            raise RuntimeError("build(db) must run before estimate()")
        if self._schema_cyclic:
            raise UnsupportedQueryError("NeuroCard does not support cyclic schemas")
        graph = query.join_graph()
        if not nx.is_forest(graph):
            raise UnsupportedQueryError("NeuroCard does not support cyclic queries")
        if not query.relations:
            return 0.0
        root = max(
            query.relations,
            key=lambda a: self._db.table(query.relations[a]).num_rows,
        )
        walk_order = list(nx.bfs_tree(graph, root)) if graph.number_of_edges() else [root]
        parents: dict[str, str | None] = {root: None}
        for a, b in nx.bfs_edges(graph, root):
            parents[b] = a
        total = 0.0
        root_rows = self._db.table(query.relations[root]).num_rows
        if root_rows == 0:
            return 1.0
        for _ in range(self.num_walks):
            total += self._walk(query, walk_order, parents, root_rows)
        return max(total / self.num_walks, 1.0)

    # ------------------------------------------------------------------
    def _row_passes(self, query: Query, alias: str, row_idx: int) -> bool:
        predicate = query.predicates.get(alias)
        if predicate is None:
            return True
        table = self._db.table(query.relations[alias])
        row = {c: arr[row_idx : row_idx + 1] for c, arr in table.columns.items()}
        return bool(predicate.evaluate(row)[0])

    def _join_columns(self, query: Query, parent: str, child: str) -> tuple[str, str]:
        for j in query.joins:
            if j.left.alias == parent and j.right.alias == child:
                return j.left.column, j.right.column
            if j.left.alias == child and j.right.alias == parent:
                return j.right.column, j.left.column
        raise KeyError((parent, child))

    def _walk(self, query, walk_order, parents, root_rows) -> float:
        """One wander-join walk; returns its unbiased contribution."""
        rows: dict[str, int] = {}
        weight = float(root_rows)
        for alias in walk_order:
            parent = parents[alias]
            table_name = query.relations[alias]
            if parent is None:
                row_idx = int(self._rng.integers(0, root_rows))
            else:
                p_col, c_col = self._join_columns(query, parent, alias)
                parent_table = query.relations[parent]
                value = self._db.table(parent_table).column(p_col)[rows[parent]]
                index = self._indexes.get((table_name, c_col))
                if index is None:
                    index = _ColumnIndex(self._db.table(table_name).column(c_col))
                    self._indexes[(table_name, c_col)] = index
                lo, hi = index.match_range(value)
                count = hi - lo
                if count == 0:
                    return 0.0
                row_idx = int(index.order[lo + int(self._rng.integers(0, count))])
                weight *= count
            if not self._row_passes(query, alias, row_idx):
                return 0.0
            rows[alias] = row_idx
        return weight
