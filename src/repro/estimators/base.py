"""Common interface for all cardinality estimators in the evaluation.

Every compared system (Sec 5, "Compared Systems") implements:

* ``build(db)`` — the offline phase (may be a no-op, e.g. PessEst);
* ``estimate(query)`` — a cardinality estimate (or bound) for any
  conjunctive (sub)query;
* ``estimate_batch(queries)`` — estimates for many (sub)queries at once;
  the optimizer DP and the harness runner go through this entry point so
  estimators can share work across a batch (SafeBound groups by query
  skeleton);
* ``memory_bytes()`` — size of the pre-computed statistics (Fig 8a);
* ``fresh()`` — the same built estimator with empty online caches, so a
  benchmark can time a cold batch more than once.

``build_seconds`` is recorded by ``build`` implementations (Fig 8b).
"""

from __future__ import annotations

from ..db.database import Database
from ..db.query import Query

__all__ = ["CardinalityEstimator", "UnsupportedQueryError"]


class UnsupportedQueryError(Exception):
    """The estimator cannot handle this query (e.g. BayesCard + LIKE,
    NeuroCard + cyclic schemas) — mirrors the gaps in the paper's Fig 5."""


class CardinalityEstimator:
    """Base class; estimators override :meth:`build` and :meth:`estimate`."""

    name = "base"

    def __init__(self) -> None:
        self.build_seconds = 0.0

    def build(self, db: Database) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def estimate(self, query: Query) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def estimate_batch(self, queries: list[Query]) -> list[float | None]:
        """Estimates for several queries; ``None`` marks an unsupported one.

        The default delegates to scalar :meth:`estimate` per query;
        estimators with work shareable across a batch override this.
        """
        out: list[float | None] = []
        for query in queries:
            try:
                out.append(float(self.estimate(query)))
            except UnsupportedQueryError:
                out.append(None)
        return out

    def memory_bytes(self) -> int:
        return 0

    def fresh(self) -> "CardinalityEstimator":
        """The built estimator with empty online caches.  The default is
        the estimator itself, for estimators that cache nothing between
        calls."""
        return self

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
