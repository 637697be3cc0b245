"""Versioned on-disk statistics catalog.

The paper treats SafeBound's statistics as a build artifact measured by
its file size on disk (Sec 5); a production deployment needs those
artifacts *managed*: versioned per database, published atomically so a
reader can never observe a half-written archive, discoverable through a
manifest carrying build metadata, and hot-swappable into a running
server without downtime.

Layout on disk (one directory per logical database)::

    <root>/
      <database>/
        MANIFEST.json       # ordered version list + build metadata
        v000001.sba         # stats arenas (save_stats), immutable once published
        v000002.sba

Every version is a stats arena (``core/arena.py``): it loads in
O(manifest) time, and its pages are shared read-only across every process
mapping the same version.  Catalogs written with the retired ``.npz`` archives are rebuilt, not migrated: their
``.npz`` files are not versions of this catalog.

Publishing writes the archive to a temporary name in the same directory,
``fsync``s it, and ``os.replace``s it into place, then rewrites the
manifest the same way, fsyncing the directory after each rename — atomic
on POSIX *and* durable across a crash, so concurrent readers always see
either the old or the new catalog state, never a torn one.  The manifest
is the single commit point: its latest version is the published
generation.

A crash (or an injected fault — see ``service/faults.py``) can still
leave debris behind: a stale ``incoming-*`` temp file, an orphan archive
whose manifest entry was never committed, or — on filesystems without
atomic rename semantics — a torn manifest.  :meth:`StatsCatalog.fsck`
detects and repairs all of it: temp files are removed, unreadable
archives are quarantined (moved to ``quarantine/`` and dropped from the
manifest), and torn manifests are rebuilt from the readable archives on
disk.  Opening a catalog runs a conservative fsck pass
by default (temp files are only removed once they are old enough that no
live publish can still own them), and torn-manifest reads self-heal
through the same machinery, so a catalog wedged by a mid-publish crash
recovers without operator action.  ``python -m repro.service fsck`` is
the explicit CLI entry point.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..core.arena import StatsArena
from ..core.safebound import SafeBound, SafeBoundConfig
from ..core.serialization import load_stats, save_stats_with_digest
from ..core.stats_builder import SafeBoundStats
from ..db.database import Database
from ..db.query import Query
from ..estimators.base import CardinalityEstimator
from . import faults
from .faults import InjectedFault

__all__ = ["StatsVersion", "StatsCatalog", "CatalogBackedSafeBound", "FsckReport"]

_MANIFEST_NAME = "MANIFEST.json"
_QUARANTINE_DIR = "quarantine"
_ARCHIVE_RE = re.compile(r"^v(\d{6})\.sba$")
# How old a temp file must be before the *open-time* fsck removes it: a
# concurrent publish legitimately owns younger ones (it writes
# ``incoming-*`` / ``*.incoming`` and renames them within moments).  The
# explicit CLI fsck runs with 0 — the operator asserts nothing is live.
_STALE_TMP_SECONDS = 60.0


def _fsync_file(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: Path) -> None:
    """Durably commit a rename: fsync the containing directory.  Best
    effort — some filesystems refuse directory fsync; atomicity does not
    depend on it, only crash durability does."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _atomic_write_text(path: Path, text: str, site: str) -> None:
    """Write ``text`` to ``path`` via fsynced temp-file rename.

    Fault sites: ``{site}.write`` fails before anything lands on disk;
    ``{site}.torn`` commits *truncated* content to the final path and
    then raises — the on-disk shape a crash mid-write leaves on a
    filesystem without atomic rename, which is exactly what ``fsck``
    must detect and repair.
    """
    faults.fire(f"{site}.write")
    torn = faults.corrupt(f"{site}.torn", text, lambda t: t[: len(t) // 2])
    tmp = path.with_name(path.name + ".incoming")
    tmp.write_text(torn)
    _fsync_file(tmp)
    os.replace(tmp, path)
    _fsync_dir(path.parent)
    if torn is not text:
        raise InjectedFault(f"{site}.torn", f"{path.name} torn mid-write")


def _tear_archive(path: Path):
    """The ``catalog.archive.torn`` corruption: truncate the committed
    archive to half its size and fail the publish."""
    size = path.stat().st_size
    with open(path, "rb+") as fh:
        fh.truncate(max(1, size // 2))
    raise InjectedFault("catalog.archive.torn", f"{path.name} torn mid-write")


def _archive_readable(path: Path) -> bool:
    """Cheaply verify an archive is structurally intact (no data load):
    :class:`StatsArena` parses the header and checks that every array it
    declares lies within the file."""
    try:
        StatsArena(path)
    except (OSError, ValueError):
        return False
    return True


@dataclass
class FsckReport:
    """What one :meth:`StatsCatalog.fsck` pass found and repaired."""

    root: str
    databases: list[str] = field(default_factory=list)
    removed_temp: list[str] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)
    dropped_versions: list[str] = field(default_factory=list)
    rebuilt_manifests: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (
            self.removed_temp
            or self.quarantined
            or self.dropped_versions
            or self.rebuilt_manifests
        )

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "databases": self.databases,
            "clean": self.clean,
            "removed_temp": self.removed_temp,
            "quarantined": self.quarantined,
            "dropped_versions": self.dropped_versions,
            "rebuilt_manifests": self.rebuilt_manifests,
        }


@dataclass(frozen=True)
class StatsVersion:
    """One published statistics version of one database.

    ``metadata`` carries build provenance: the content digest of the
    statistics (``stats_digest``), which lets an operator check that two
    builds of the same data produced the same statistics, plus whatever
    the publisher added (the inserts a build saw).
    """

    database: str
    version: int
    filename: str
    created_at: float
    file_bytes: int
    build_seconds: float
    num_sequences: int
    note: str = ""
    metadata: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"v{self.version:06d}"


# The manifest keys a StatsVersion is built from; other keys (such as the
# ``format`` field manifests carried while two archive formats existed)
# are ignored, so older arena catalogs stay readable.
_ENTRY_FIELDS = {f.name for f in fields(StatsVersion)} - {"database"}


class StatsCatalog:
    """A versioned statistics store over :func:`save_stats`/:func:`load_stats`.

    The catalog keeps no loaded statistics: every :meth:`load` maps the
    version's arena afresh and returns a private copy, which its caller
    may mutate (``CatalogBackedSafeBound`` pads the copy it serves).
    """

    def __init__(self, root: str | Path, fsck_on_open: bool = True) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self.last_fsck: FsckReport | None = None
        if fsck_on_open:
            # Conservative pass: quarantine torn versions, rebuild torn
            # manifests, but only remove temp files old enough that no
            # live publish from another process can still own them.
            self.fsck(stale_tmp_seconds=_STALE_TMP_SECONDS)

    # ------------------------------------------------------------------
    # Manifest handling
    # ------------------------------------------------------------------
    def _db_dir(self, database: str) -> Path:
        return self.root / database

    def _manifest_path(self, database: str) -> Path:
        return self._db_dir(database) / _MANIFEST_NAME

    def _read_entries_raw(self, database: str) -> list[dict] | None:
        """The manifest's version list, or None when the manifest exists
        but is torn/unparseable.  Raises nothing for garbage content —
        healing is the caller's job."""
        path = self._manifest_path(database)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return []
        try:
            versions = json.loads(text)["versions"]
        except (ValueError, KeyError, TypeError):
            return None
        return versions if isinstance(versions, list) else None

    def _read_entries(self, database: str) -> list[dict]:
        faults.fire("catalog.manifest.read")
        entries = self._read_entries_raw(database)
        if entries is None:
            # A torn manifest (crash mid-write on a filesystem without
            # atomic rename, or an injected tear).  Self-heal: rebuild it
            # from the readable archives on disk, quarantining the rest,
            # then re-read.  Deterministic from disk state, so concurrent
            # healers (e.g. several processes) converge benignly.
            with self._lock:
                report = FsckReport(root=str(self.root), databases=[database])
                self._fsck_database(database, report, stale_tmp_seconds=_STALE_TMP_SECONDS)
                self.last_fsck = report
            entries = self._read_entries_raw(database)
            if entries is None:
                raise InjectedFault(
                    "catalog.manifest", f"manifest of {database!r} unrecoverable"
                )
        return entries

    def _write_entries(self, database: str, entries: list[dict]) -> None:
        _atomic_write_text(
            self._manifest_path(database),
            json.dumps({"database": database, "versions": entries}, indent=2),
            site="catalog.manifest",
        )

    def generation(self, database: str) -> int:
        """The published generation of ``database``: the manifest's latest
        version number (0 when nothing is published).  A torn manifest
        self-heals through :meth:`_read_entries`."""
        entries = self._read_entries(database)
        return entries[-1]["version"] if entries else 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def databases(self) -> list[str]:
        with self._lock:
            return sorted(
                d.name for d in self.root.iterdir() if (d / _MANIFEST_NAME).exists()
            )

    def versions(self, database: str) -> list[StatsVersion]:
        with self._lock:
            return [
                StatsVersion(
                    database=database,
                    **{k: v for k, v in entry.items() if k in _ENTRY_FIELDS},
                )
                for entry in self._read_entries(database)
            ]

    def latest(self, database: str) -> StatsVersion | None:
        versions = self.versions(database)
        return versions[-1] if versions else None

    def publish(
        self,
        database: str,
        stats: SafeBoundStats,
        note: str = "",
        metadata: dict | None = None,
    ) -> StatsVersion:
        """Atomically publish ``stats`` as the next version of ``database``.

        The manifest entry always records the statistics' content digest
        (``stats_digest``); ``metadata`` adds caller context (e.g. the
        inserts the build saw).
        """
        with self._lock:
            directory = self._db_dir(database)
            directory.mkdir(parents=True, exist_ok=True)
            entries = self._read_entries(database)
            version = entries[-1]["version"] + 1 if entries else 1
            filename = f"v{version:06d}.sba"
            incoming = directory / f"incoming-{filename}"
            faults.fire("catalog.archive.write")
            file_bytes, digest = save_stats_with_digest(stats, str(incoming))
            _fsync_file(incoming)
            faults.fire("catalog.archive.replace")
            os.replace(incoming, directory / filename)
            _fsync_dir(directory)
            # Injected tear: truncate the just-committed archive and fail
            # the publish — the manifest never records it, fsck must
            # quarantine it.
            faults.corrupt("catalog.archive.torn", directory / filename, _tear_archive)
            entry = {
                "version": version,
                "filename": filename,
                "created_at": time.time(),
                "file_bytes": file_bytes,
                "build_seconds": stats.build_seconds,
                "num_sequences": stats.num_sequences(),
                "note": note,
                "metadata": {"stats_digest": digest, **(metadata or {})},
            }
            self._write_entries(database, entries + [entry])
            return StatsVersion(database=database, **entry)

    def version_info(self, database: str, version: int | None = None) -> StatsVersion:
        """The manifest entry of one version (latest when ``version`` is
        None); raises :class:`LookupError` for unknown versions."""
        versions = self.versions(database)
        if not versions:
            raise LookupError(f"no published statistics for {database!r}")
        if version is None:
            return versions[-1]
        for v in versions:
            if v.version == version:
                return v
        raise LookupError(f"{database!r} has no version {version}")

    def archive_path(self, entry: StatsVersion) -> Path:
        return self._db_dir(entry.database) / entry.filename

    def load(self, database: str, version: int | None = None) -> SafeBoundStats:
        """Load a published version (the latest when ``version`` is None)
        from disk.

        Each call returns a private copy: mutating it (update tracking,
        absorbed inserts/deletes) never reaches another reader of that
        version, nor the archive.
        """
        with self._lock:
            if version is None:
                latest = self.latest(database)
                if latest is None:
                    raise LookupError(f"no published statistics for {database!r}")
                version = latest.version
            entry = next(
                (e for e in self._read_entries(database) if e["version"] == version),
                None,
            )
            if entry is None:
                raise LookupError(f"{database!r} has no version {version}")
            return load_stats(str(self._db_dir(database) / entry["filename"]))

    # ------------------------------------------------------------------
    # Crash repair
    # ------------------------------------------------------------------
    def fsck(
        self, database: str | None = None, *, stale_tmp_seconds: float = 0.0
    ) -> FsckReport:
        """Detect and repair crash debris; what was repaired, as a report.

        Per database: stale publish temp files (older than
        ``stale_tmp_seconds``) are removed; structurally unreadable
        archives are moved to ``quarantine/`` and their manifest entries
        dropped; readable archives the manifest never committed (a crash
        between archive rename and manifest write) are quarantined too —
        the manifest is the commit point, so an uncommitted publish never
        retroactively becomes visible; and a torn manifest is rebuilt from
        the readable archives on disk.  All repairs are
        deterministic functions of the on-disk state and are themselves
        atomic whole-file replaces, so concurrent healers converge.
        """
        with self._lock:
            report = FsckReport(root=str(self.root))
            if database is not None:
                names = [database]
            else:
                names = sorted(
                    d.name
                    for d in self.root.iterdir()
                    if d.is_dir() and d.name != _QUARANTINE_DIR
                )
            for name in names:
                report.databases.append(name)
                self._fsck_database(name, report, stale_tmp_seconds=stale_tmp_seconds)
            self.last_fsck = report
            return report

    def _fsck_database(
        self, database: str, report: FsckReport, *, stale_tmp_seconds: float
    ) -> None:
        directory = self._db_dir(database)
        if not directory.is_dir():
            return
        now = time.time()
        # 1. Temp files from crashed publishes, once old enough that no
        #    live publish can still own them.
        for path in list(directory.iterdir()):
            name = path.name
            if not (name.startswith("incoming-") or name.endswith(".incoming")):
                continue
            try:
                if now - path.stat().st_mtime < stale_tmp_seconds:
                    continue
                path.unlink()
            except OSError:
                continue
            report.removed_temp.append(f"{database}/{name}")
        # 2. Verify every archive; quarantine the unreadable ones.
        readable: dict[int, str] = {}
        for path in sorted(directory.iterdir()):
            match = _ARCHIVE_RE.match(path.name)
            if match is None:
                continue
            if _archive_readable(path):
                readable[int(match.group(1))] = path.name
            else:
                self._quarantine(directory, path.name, report, database)
        # 3. Reconcile the manifest against the readable archives.
        entries = self._read_entries_raw(database)
        if entries is None:
            # Torn manifest: rebuild it from what survives on disk.
            entries = []
            for version in sorted(readable):
                filename = readable[version]
                stat = (directory / filename).stat()
                entries.append(
                    {
                        "version": version,
                        "filename": filename,
                        "created_at": stat.st_mtime,
                        "file_bytes": stat.st_size,
                        "build_seconds": 0.0,
                        "num_sequences": 0,
                        "note": "fsck-recovered",
                        "metadata": {"fsck_recovered": True},
                    }
                )
            self._write_manifest_only(database, entries)
            report.rebuilt_manifests.append(database)
        else:
            kept = []
            for entry in entries:
                if readable.get(entry.get("version")) == entry.get("filename"):
                    kept.append(entry)
                else:
                    label = entry.get("filename") or f"v{entry.get('version')}"
                    report.dropped_versions.append(f"{database}/{label}")
            # Readable archives the manifest never committed: quarantine.
            committed = {entry["version"] for entry in kept}
            for version, filename in readable.items():
                if version not in committed:
                    self._quarantine(directory, filename, report, database)
            if len(kept) != len(entries):
                self._write_manifest_only(database, kept)

    def _quarantine(
        self, directory: Path, filename: str, report: FsckReport, database: str
    ) -> None:
        qdir = directory / _QUARANTINE_DIR
        qdir.mkdir(exist_ok=True)
        os.replace(directory / filename, qdir / filename)
        report.quarantined.append(f"{database}/{filename}")

    def _write_manifest_only(self, database: str, entries: list[dict]) -> None:
        """An fsck repair write: same atomic shape as ``_write_entries``
        but under the ``catalog.fsck`` fault site, so chaos plans tearing
        publish writes cannot wedge the healer."""
        _atomic_write_text(
            self._manifest_path(database),
            json.dumps({"database": database, "versions": entries}, indent=2),
            site="catalog.fsck",
        )


class CatalogBackedSafeBound(CardinalityEstimator):
    """SafeBound served out of a :class:`StatsCatalog`, with hot swap.

    Satisfies the harness's :class:`CardinalityEstimator` protocol:
    ``build`` runs the offline phase *and publishes* the result, while the
    online methods delegate to the currently served version.  ``refresh``
    atomically swaps in the latest published version — in-flight estimates
    finish on the version they started with; later requests see the new
    one.  Between republish cycles, ``apply_insert``/``apply_delete`` keep
    the served version valid through the padding machinery in ``core``.
    """

    name = "SafeBound(catalog)"

    def __init__(
        self,
        catalog: StatsCatalog,
        database: str,
        config: SafeBoundConfig | None = None,
    ) -> None:
        super().__init__()
        self.catalog = catalog
        self.database = database
        self.config = config or SafeBoundConfig()
        self._lock = threading.Lock()
        # Serialises whole build/refresh cycles (publish-check, load,
        # swap) with each other and with ``apply_insert``, so an insert
        # pads either the outgoing version before the swap or the
        # incoming one after it.  Separate from ``_lock`` so estimates are
        # never blocked on disk IO.
        self._swap_lock = threading.Lock()
        self._safebound: SafeBound | None = None
        self._version: int | None = None
        # Inserts this estimator has padded into its served statistics
        # (monotonic across swaps).  Every publish records the count its
        # statistics were built through, and ``refresh`` never swaps to a
        # version built before an insert already padded here: that swap
        # would drop the padding while the inserted rows stay visible.
        self.inserts_applied = 0
        # Swaps ``refresh`` made, whoever called it (an
        # ``EstimationServer`` reports them as ``server.swaps``).
        self.swaps = 0

    # ------------------------------------------------------------------
    @property
    def version(self) -> int | None:
        return self._version

    def _current(self) -> SafeBound:
        with self._lock:
            if self._safebound is None:
                raise RuntimeError(
                    "no statistics loaded: call build(db) or refresh() first"
                )
            return self._safebound

    # ------------------------------------------------------------------
    def build(self, db: Database) -> None:
        """Offline phase: build, publish to the catalog, and serve.

        The just-built in-memory statistics are served directly; the
        published archive is byte-identical to them (``save_stats`` is a
        pure function of the stats), so there is no need to round-trip
        through disk here — ``refresh`` and cold starts do that.
        """
        sb = SafeBound(self.config)
        sb.build(db)
        with self._swap_lock:
            published = self.catalog.publish(
                self.database,
                sb.stats,
                note="build",
                metadata=self.build_metadata(),
            )
            with self._lock:
                self._safebound = sb
                self._version = published.version
        self.build_seconds = sb.build_seconds

    def build_metadata(self) -> dict:
        """Build provenance recorded with every publish: the inserts the
        statistics were built through (the builder holds the update stream
        still, so every insert applied so far is in the data it builds
        from)."""
        return {"inserts_applied": self.inserts_applied}

    def refresh(self, db: Database | None = None) -> bool:
        """Hot-swap to the latest published version, if newer.

        Pass ``db`` to (re-)attach update tracking (the frequency counters
        are not part of the published archive) — it is attached even when
        the version is already current, so a trackerless swap done by the
        server's poll gets repaired by the ingest's own refresh call.
        Returns True when a swap happened.  A version built through fewer
        inserts than this estimator has padded in (e.g. one whose
        republish failed after publishing, or one fsck recovered) is not
        swapped to; the next republish supersedes it.

        The incoming version takes over the outgoing one's bound engine,
        so query shapes compiled before the swap stay compiled.

        The estimator serves its own from-disk copy of the version
        (every ``StatsCatalog.load`` returns one): ``apply_insert`` /
        ``apply_delete`` mutate it, and must not reach any other reader.
        """
        with self._swap_lock:
            latest = self.catalog.latest(self.database)
            if (
                latest is None
                or latest.version == self._version
                or latest.metadata.get("inserts_applied", 0) < self.inserts_applied
            ):
                self._ensure_tracking(db)
                return False
            stats = self.catalog.load(self.database, latest.version)
            sb = SafeBound(self.config)
            sb.stats = stats
            with self._lock:
                outgoing = self._safebound
            if outgoing is not None:
                sb.adopt_engine(outgoing)
            if db is not None:
                sb.attach_update_tracking(db)
            with self._lock:
                self._safebound = sb
                self._version = latest.version
            self.swaps += 1
            return True

    def generation(self) -> int:
        """The catalog's published generation for this database (the
        manifest's latest version number)."""
        return self.catalog.generation(self.database)

    def _ensure_tracking(self, db: Database | None) -> None:
        """Attach update tracking to the served stats if it is missing."""
        if db is None:
            return
        with self._lock:
            sb = self._safebound
        if sb is None or sb.stats is None:
            return
        missing = any(
            js.incremental is None
            for rel in sb.stats.relations.values()
            for js in rel.join_stats.values()
        )
        if missing:
            sb.attach_update_tracking(db)

    # ------------------------------------------------------------------
    def bound(self, query: Query) -> float:
        return self._current().bound(query)

    def estimate(self, query: Query) -> float:
        return self._current().bound(query)

    def estimate_batch(self, queries: list[Query]) -> list[float | None]:
        return self._current().estimate_batch(queries)

    def apply_insert(self, table: str, rows: dict) -> int:
        # Under the swap lock, so a concurrent refresh either completes
        # first (and this pads the new version) or sees the new count.
        with self._swap_lock:
            n = self._current().apply_insert(table, rows)
            self.inserts_applied += 1
            return n

    def apply_delete(self, table: str, rows: dict) -> int:
        return self._current().apply_delete(table, rows)

    def staleness(self) -> float:
        return self._current().staleness()

    def conditioning_cache_stats(self) -> dict:
        """Conditioning-cache counters of the currently served version
        (see :meth:`SafeBound.conditioning_cache_stats`)."""
        return self._current().conditioning_cache_stats()

    def memory_bytes(self) -> int:
        with self._lock:
            return self._safebound.memory_bytes() if self._safebound else 0

    def __repr__(self) -> str:
        return (
            f"CatalogBackedSafeBound({self.database!r}, "
            f"version={self._version}, root={str(self.catalog.root)!r})"
        )
