"""Saving and loading SafeBound statistics.

The paper compares "the size of the stored statistics file on disk"
(Sec 5, Metrics).  This module serialises a :class:`SafeBoundStats` store
as a stats arena (``core/arena.py``): raw little-endian buffers, with
every relation's piecewise functions concatenated into the ragged
``(xs, ys, offsets)`` structure-of-arrays the array kernel consumes,
Bloom bitsets packed into one buffer, histogram boundaries into another,
and the nesting structure in a JSON manifest of integer slice indices.
No pickle, so archives are portable and safe to load.

:func:`load_stats` ``np.memmap``\\ s the file and returns *lazy*
statistics whose relations materialise on first access as zero-copy
views — O(manifest) load time, and the mapped pages are shared read-only
across processes.  :func:`stats_digest` hashes the same canonical
representation (structural manifest + concatenated family buffers) built
from the in-memory store, so a store and its reloaded archive digest
identically.
"""

from __future__ import annotations

import hashlib
import json
import threading

import numpy as np

from .arena import StatsArena, write_arena
from .bloom import BloomFilter
from .conditioning import (
    EqualityStats,
    FilterColumnStats,
    HistogramStats,
    JoinColumnStats,
    TrigramStats,
)
from .piecewise import PiecewiseLinear
from .stats_builder import RelationStats, SafeBoundStats

__all__ = [
    "save_stats",
    "save_stats_with_digest",
    "load_stats",
    "stats_digest",
    "describe_stats_file",
]


class _ArenaArchive:
    """Accumulates a store's arrays into the concatenated ragged families
    of the arena layout; the manifest refers to them by slice index."""

    def __init__(self) -> None:
        self.pl_parts: list[tuple[np.ndarray, np.ndarray]] = []
        self.bloom_parts: list[np.ndarray] = []
        self.hb_parts: list[np.ndarray] = []

    def put_pl(self, func: PiecewiseLinear) -> int:
        self.pl_parts.append((func.xs, func.ys))
        return len(self.pl_parts) - 1

    def put_bloom(self, bloom: BloomFilter) -> dict:
        self.bloom_parts.append(np.packbits(bloom.bits))
        return {
            "bits": len(self.bloom_parts) - 1,
            "num_bits": bloom.num_bits,
            "num_hashes": bloom.num_hashes,
            "num_items": bloom.num_items,
        }

    def put_boundaries(self, boundaries: np.ndarray) -> int:
        self.hb_parts.append(np.asarray(boundaries, dtype=float))
        return len(self.hb_parts) - 1

    def family_arrays(self) -> dict[str, np.ndarray]:
        """The concatenated ``(values, offsets)`` family buffers."""
        from .arraykernel import _offsets_from_lengths

        def offsets(parts_lengths: list[int]) -> np.ndarray:
            # The very convention Ragged consumes — one source of truth.
            return _offsets_from_lengths(np.asarray(parts_lengths, dtype=np.int64))

        def concat(parts: list[np.ndarray], dtype) -> np.ndarray:
            if not parts:
                return np.empty(0, dtype=dtype)
            return np.concatenate([np.asarray(p, dtype=dtype) for p in parts])

        return {
            "pl_xs": concat([p[0] for p in self.pl_parts], np.float64),
            "pl_ys": concat([p[1] for p in self.pl_parts], np.float64),
            "pl_offsets": offsets([len(p[0]) for p in self.pl_parts]),
            "bloom_bits": concat(self.bloom_parts, np.uint8),
            "bloom_offsets": offsets([len(p) for p in self.bloom_parts]),
            "hb_vals": concat(self.hb_parts, np.float64),
            "hb_offsets": offsets([len(p) for p in self.hb_parts]),
        }


def _encode_value(value):
    """JSON-safe encoding of an MCV key (str / float / None)."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return str(value)


def _dump_equality(eq: EqualityStats, ar) -> dict:
    return {
        "reps": [ar.put_pl(r) for r in eq.reps],
        "default": ar.put_pl(eq.default_cds),
        "values": (
            None
            if eq.value_to_group is None
            else [[_encode_value(v), int(g)] for v, g in eq.value_to_group.items()]
        ),
        "blooms": None if eq.blooms is None else [ar.put_bloom(b) for b in eq.blooms],
    }


def _load_equality(manifest: dict, arena: StatsArena) -> EqualityStats:
    return EqualityStats(
        reps=[arena.pl(k) for k in manifest["reps"]],
        default_cds=arena.pl(manifest["default"]),
        value_to_group=(
            None
            if manifest["values"] is None
            else {v: g for v, g in manifest["values"]}
        ),
        blooms=(
            None
            if manifest["blooms"] is None
            else [arena.bloom(b) for b in manifest["blooms"]]
        ),
    )


def _dump_histogram(hist: HistogramStats, ar) -> dict:
    return {
        "boundaries": ar.put_boundaries(hist.boundaries),
        "levels": hist.levels,
        "reps": [ar.put_pl(r) for r in hist.reps],
        "buckets": [[lvl, b, g] for (lvl, b), g in hist.bucket_group.items()],
        "base": ar.put_pl(hist.base),
    }


def _load_histogram(manifest: dict, arena: StatsArena) -> HistogramStats:
    return HistogramStats(
        boundaries=arena.boundaries(manifest["boundaries"]),
        levels=manifest["levels"],
        reps=[arena.pl(k) for k in manifest["reps"]],
        bucket_group={(lvl, b): g for lvl, b, g in manifest["buckets"]},
        base=arena.pl(manifest["base"]),
    )


def _dump_trigram(tri: TrigramStats, ar) -> dict:
    return {
        "reps": [ar.put_pl(r) for r in tri.reps],
        "grams": [[g, int(i)] for g, i in tri.gram_to_group.items()],
        "no_common": ar.put_pl(tri.no_common_gram_cds),
        "base": ar.put_pl(tri.base),
    }


def _load_trigram(manifest: dict, arena: StatsArena) -> TrigramStats:
    return TrigramStats(
        reps=[arena.pl(k) for k in manifest["reps"]],
        gram_to_group={g: i for g, i in manifest["grams"]},
        no_common_gram_cds=arena.pl(manifest["no_common"]),
        base=arena.pl(manifest["base"]),
    )


def _arena_families(stats: SafeBoundStats) -> tuple[dict, dict[str, np.ndarray]]:
    """One walk of the store into (manifest, concatenated family buffers)
    — shared by the arena writer and the digest so a publish never pays
    serialization twice."""
    ar = _ArenaArchive()
    manifest: dict = {"build_seconds": stats.build_seconds, "relations": {}}
    for name, rel in stats.relations.items():
        rel_manifest = {
            "cardinality": rel.cardinality,
            "fallback": {c: ar.put_pl(f) for c, f in rel.fallback_cds.items()},
            "virtual": [[list(k), v] for k, v in rel.virtual_columns.items()],
            "join_stats": {},
            # Live-update state: padding counters and disabled propagation
            # survive a save/load cycle so a reloaded archive of mid-cycle
            # statistics stays sound.  (The frequency counters themselves
            # are ingest state and are re-attached from the database.)
            "pending_inserts": rel.pending_inserts,
            "stale_dims": sorted(rel.stale_dims),
        }
        for col, js in rel.join_stats.items():
            filters = {}
            for fcol, fstats in js.filters.items():
                filters[fcol] = {
                    "eq": None if fstats.equality is None else _dump_equality(fstats.equality, ar),
                    "hist": None if fstats.histogram is None else _dump_histogram(fstats.histogram, ar),
                    "tri": None if fstats.trigram is None else _dump_trigram(fstats.trigram, ar),
                }
            rel_manifest["join_stats"][col] = {
                "base": ar.put_pl(js.base),
                "like_mode": js.like_default_mode,
                "filters": filters,
                "pending_inserts": js.pending_inserts,
            }
        manifest["relations"][name] = rel_manifest
    return manifest, ar.family_arrays()


def _relation_from_manifest(
    name: str, rel_manifest: dict, arena: StatsArena
) -> RelationStats:
    """Rebuild one relation's statistics from its manifest subtree as
    zero-copy views into ``arena``."""
    rel = RelationStats(name, rel_manifest["cardinality"])
    rel.fallback_cds = {
        c: arena.pl(k) for c, k in rel_manifest["fallback"].items()
    }
    rel.virtual_columns = {
        tuple(k): v for k, v in rel_manifest["virtual"]
    }
    rel.pending_inserts = rel_manifest.get("pending_inserts", 0)
    rel.stale_dims = set(rel_manifest.get("stale_dims", []))
    for col, js_manifest in rel_manifest["join_stats"].items():
        js = JoinColumnStats(
            column=col,
            base=arena.pl(js_manifest["base"]),
            like_default_mode=js_manifest["like_mode"],
            pending_inserts=js_manifest.get("pending_inserts", 0.0),
        )
        for fcol, f_manifest in js_manifest["filters"].items():
            fstats = FilterColumnStats()
            if f_manifest["eq"] is not None:
                fstats.equality = _load_equality(f_manifest["eq"], arena)
            if f_manifest["hist"] is not None:
                fstats.histogram = _load_histogram(f_manifest["hist"], arena)
            if f_manifest["tri"] is not None:
                fstats.trigram = _load_trigram(f_manifest["tri"], arena)
            js.filters[fcol] = fstats
        rel.join_stats[col] = js
    return rel


class _ArenaRelations(dict):
    """Lazy ``table -> RelationStats`` mapping over an arena manifest.

    Each relation materialises on first access — zero-copy views into the
    arena — so ``load_stats`` is O(manifest) and a server that only ever
    queries a subset of tables never pays for the rest.  Iteration follows
    the manifest (build) order so re-serialising or digesting a lazily
    loaded store walks relations exactly like the original.

    Materialisation is thread-safe: a serving thread and a staleness
    poller routinely race on the same freshly loaded store, so the
    pending->materialised transition happens under a lock (the loser of
    the race gets the winner's object, never a ``KeyError``)."""

    def __init__(self, arena: StatsArena, rel_manifests: dict[str, dict]) -> None:
        super().__init__()
        self._arena = arena
        self._pending = dict(rel_manifests)
        self._order = list(rel_manifests)
        self._materialize_lock = threading.Lock()

    def __missing__(self, name: str) -> RelationStats:
        with self._materialize_lock:
            if dict.__contains__(self, name):  # lost the materialise race
                return dict.__getitem__(self, name)
            rel_manifest = self._pending[name]  # KeyError for unknown names
            rel = _relation_from_manifest(name, rel_manifest, self._arena)
            dict.__setitem__(self, name, rel)
            del self._pending[name]
            return rel

    def __setitem__(self, name, rel) -> None:
        with self._materialize_lock:
            self._pending.pop(name, None)
            if name not in self._order:
                self._order.append(name)
            dict.__setitem__(self, name, rel)

    def __contains__(self, name) -> bool:
        return dict.__contains__(self, name) or name in self._pending

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        return iter(self._order)

    def keys(self):
        return list(self._order)

    def values(self):
        return [self[name] for name in self._order]

    def items(self):
        return [(name, self[name]) for name in self._order]

    def get(self, name, default=None):
        return self[name] if name in self else default

    @property
    def materialized(self) -> list[str]:
        return [name for name in self._order if dict.__contains__(self, name)]


def _digest_families(manifest: dict, arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over the canonical (arena-family) representation: the
    zeroed structural manifest plus every family buffer's name, dtype and
    raw bytes.  A pure function of the store content, so a store and
    every load of its archive digest identically."""
    zeroed = dict(manifest)
    zeroed["build_seconds"] = 0.0
    h = hashlib.sha256()
    h.update(json.dumps(zeroed, sort_keys=False).encode())
    for name, array in arrays.items():
        h.update(name.encode())
        array = np.ascontiguousarray(array)
        h.update(str(array.dtype).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def save_stats(stats: SafeBoundStats, path: str) -> int:
    """Serialise the statistics store as an arena file; returns the file
    size in bytes."""
    manifest, arrays = _arena_families(stats)
    return write_arena(path, manifest, arrays)


def save_stats_with_digest(stats: SafeBoundStats, path: str) -> tuple[int, str]:
    """Serialise and digest together — for publishers that want both.

    The digest is :func:`stats_digest` of the very walk that is written,
    so a publish pays one serialization pass.
    """
    manifest, arrays = _arena_families(stats)
    digest = _digest_families(manifest, arrays)
    return write_arena(path, manifest, arrays), digest


def stats_digest(stats: SafeBoundStats) -> str:
    """A SHA-256 over the full serialised content of the statistics.

    Hashes the canonical arena-family representation — the structural
    manifest plus every concatenated array's raw bytes — except
    ``build_seconds``, which is wall-clock noise, so two builds of equal
    statistics digest equally no matter how long they took, and a store
    loaded back from its archive digests like the original.  Catalog
    manifests record it for provenance.
    """
    manifest, arrays = _arena_families(stats)
    return _digest_families(manifest, arrays)


def load_stats(path: str) -> SafeBoundStats:
    """Load a statistics store written by :func:`save_stats`.

    The file is mapped zero-copy: the returned store's relations
    materialise lazily, their piecewise functions are read-only views of
    the mapping, and any later mutation (``apply_insert`` padding,
    recompression) builds fresh private arrays — never writing through
    the mmap.  Raises :class:`ValueError` for a file that is not a
    complete stats arena (bad magic, torn header, truncated arrays).
    """
    arena = StatsArena(path)
    return SafeBoundStats(
        relations=_ArenaRelations(arena, arena.manifest["relations"]),
        build_seconds=arena.manifest["build_seconds"],
    )


def describe_stats_file(path: str) -> dict:
    """Size and array-count metadata of a stats archive on disk — the
    ``stats-info`` CLI's raw material (paper Fig 8a reports stats memory;
    this is the serving-side equivalent)."""
    arena = StatsArena(path)
    return {
        "file_bytes": arena.file_bytes,
        "arrays": len(arena.arrays),
        "piecewise_functions": arena.num_functions,
        "bloom_filters": len(arena.arrays["bloom_offsets"]) - 1,
        "relations": len(arena.manifest["relations"]),
    }
