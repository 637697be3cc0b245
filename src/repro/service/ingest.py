"""Live update ingest: row streams in, valid bounds out, republish behind.

The paper names incremental maintenance as its key future-work item
(Sec 6).  This module is the serving-side half of the answer built on
``core/updates.py``:

* :class:`UpdateIngest` applies inserts/deletes to the database *and* the
  live estimator in an order that keeps the never-underestimate guarantee
  even for concurrently served requests — statistics are padded *before*
  inserted rows become visible, and deleted rows disappear from the data
  *before* any counter shrinks;
* when padding overhead crosses a threshold, :meth:`UpdateIngest.republish`
  recompresses (a full offline rebuild against the current data), publishes
  the result as a new catalog version, and hot-swaps the estimator so
  serving continues without downtime;
* :class:`RepublishWorker` runs that cycle on a background thread.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..db.database import Database
from ..db.table import Table
from . import faults
from .catalog import CatalogBackedSafeBound, StatsVersion

__all__ = ["append_rows", "remove_rows", "UpdateIngest", "RepublishWorker"]


def append_rows(db: Database, table: str, rows: dict[str, np.ndarray]) -> None:
    """Append ``rows`` (column -> values) to a table of the column store."""
    current = db.table(table)
    if set(rows) != set(current.column_names):
        raise ValueError(
            f"insert into {table!r} must provide exactly columns "
            f"{sorted(current.column_names)}, got {sorted(rows)}"
        )
    merged = {
        name: np.concatenate((column, np.asarray(rows[name], dtype=column.dtype)))
        for name, column in current.columns.items()
    }
    db.tables[table] = Table(table, merged)


def remove_rows(db: Database, table: str, indices: np.ndarray) -> dict[str, np.ndarray]:
    """Drop rows by position; returns the removed rows (column -> values),
    exactly what the statistics layer needs to unregister them."""
    current = db.table(table)
    indices = np.asarray(indices, dtype=int)
    removed = {name: column[indices] for name, column in current.columns.items()}
    mask = np.ones(current.num_rows, dtype=bool)
    mask[indices] = False
    db.tables[table] = Table(table, {n: c[mask] for n, c in current.columns.items()})
    return removed


class UpdateIngest:
    """Applies a row-update stream to a database + live estimator pair.

    Ordering is what makes concurrent serving sound:

    * **insert**: pad the statistics first, then append the rows — a bound
      computed mid-update sees either the pre-insert world or a padded one,
      never unpadded stats over enlarged data;
    * **delete**: drop the rows first, then shrink the counters — a
      recompression triggered by the delete can only tighten to data that
      is already gone.

    With a catalog-backed estimator, :meth:`republish` closes the loop:
    rebuild against the current data, publish, and swap — all under the
    ingest lock so no update lands between the rebuild snapshot and the
    swap (which would silently vanish from the fresh version).
    """

    def __init__(
        self,
        db: Database,
        estimator,
        *,
        republish_overhead: float = 0.10,
    ) -> None:
        self.db = db
        self.estimator = estimator
        self.republish_overhead = republish_overhead
        self.republishes = 0
        self.inserted_rows = 0
        self.deleted_rows = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def insert(self, table: str, rows: dict[str, np.ndarray]) -> int:
        with self._lock:
            n = self.estimator.apply_insert(table, rows)
            append_rows(self.db, table, rows)
            self.inserted_rows += n
            return n

    def delete(self, table: str, indices: np.ndarray) -> int:
        with self._lock:
            removed = remove_rows(self.db, table, indices)
            n = self.estimator.apply_delete(table, removed)
            self.deleted_rows += n
            return n

    # ------------------------------------------------------------------
    @property
    def staleness(self) -> float:
        return self.estimator.staleness()

    def needs_republish(self) -> bool:
        return self.staleness > self.republish_overhead

    def republish(self, note: str = "republish") -> StatsVersion:
        """Recompress-and-republish: rebuild statistics from the current
        database, publish them as a new catalog version, and hot-swap the
        estimator.  Serving continues on the old version throughout the
        rebuild; only the update stream pauses."""
        estimator = self.estimator
        if not isinstance(estimator, CatalogBackedSafeBound):
            raise TypeError(
                "republish needs a CatalogBackedSafeBound estimator, got "
                f"{type(estimator).__name__}"
            )
        with self._lock:
            from ..core.safebound import SafeBound

            faults.fire("ingest.republish")
            fresh = SafeBound(estimator.config)
            fresh.build(self.db)
            version = estimator.catalog.publish(
                estimator.database,
                fresh.stats,
                note=note,
                metadata=estimator.build_metadata(),
            )
            # Swap through the catalog (round-tripping the archive) so the
            # served statistics are exactly what a cold start would load.
            estimator.refresh(self.db)
            self.republishes += 1
            return version

    def maybe_republish(self, note: str = "republish") -> StatsVersion | None:
        with self._lock:
            if not self.needs_republish():
                return None
            return self.republish(note)


class RepublishWorker(threading.Thread):
    """Background recompress-and-republish cycle.

    Polls the ingest's staleness every ``poll_seconds`` and republishes
    when it crosses the threshold — the serving path never blocks on it.

    A failed republish (catalog IO, an injected fault) must not kill the
    worker: serving stays valid on the padded statistics, so the right
    move is to record the error (``failures`` / ``last_error``), back off
    to ``failure_backoff_seconds``, and retry on a later poll — the cycle
    heals itself once the catalog does.
    """

    def __init__(
        self,
        ingest: UpdateIngest,
        poll_seconds: float = 0.05,
        failure_backoff_seconds: float = 0.5,
    ) -> None:
        super().__init__(name="republish-worker", daemon=True)
        self.ingest = ingest
        self.poll_seconds = poll_seconds
        self.failure_backoff_seconds = failure_backoff_seconds
        self.published: list[StatsVersion] = []
        self.failures = 0
        self.last_error: Exception | None = None
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.is_set():
            wait = self.poll_seconds
            try:
                version = self.ingest.maybe_republish(note="background republish")
            except Exception as exc:
                self.failures += 1
                self.last_error = exc
                wait = max(self.poll_seconds, self.failure_backoff_seconds)
            else:
                if version is not None:
                    self.published.append(version)
                    self.last_error = None
            self._stop_event.wait(wait)

    def stop(self, timeout: float | None = 30.0) -> None:
        """Signal the worker to exit and wait for it.  Idempotent, and
        safe on a worker that was never started — ``join`` on an
        unstarted thread raises ``RuntimeError``, which used to make
        error-path cleanup (construct, fail before ``start``, stop)
        blow up in the ``finally`` block."""
        self._stop_event.set()
        if self.ident is not None:
            self.join(timeout)
