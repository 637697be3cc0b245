"""The zero-copy arena stats format (core/arena.py + serialization).

Covers the format contract end to end: bit-identical bounds against the
in-memory build, O(manifest) lazy loading, read-only mmap views
(mutation is copy-on-write, never write-through), the content digest of
a reloaded store, update state across a save/load cycle, the array
kernel's direct-from-arena batch packing, and the golden corpus served
from arena-backed stats. The save/load facade, file size and truncated
files are covered in ``test_serialization.py``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from kernel_oracle import array_side, object_path_only, object_side

from repro.core import arraykernel as ak
from repro.core.arena import ArenaBloomFilter, StatsArena
from repro.core.predicates import And, Eq, Like, Range
from repro.core.safebound import SafeBound, SafeBoundConfig
from repro.core.serialization import (
    describe_stats_file,
    load_stats,
    save_stats,
    stats_digest,
)
from repro.db.query import Query


@pytest.fixture(scope="module")
def built(tiny_db):
    sb = SafeBound()
    sb.build(tiny_db)
    return sb


@pytest.fixture(scope="module")
def arena_path(built, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("arena") / "stats.sba")
    save_stats(built.stats, path)
    return path


def _queries():
    q1 = Query()
    q1.add_relation("f", "fact").add_relation("d", "dim")
    q1.add_join("f", "dim_id", "d", "id")
    q1.add_predicate("d", And([Range("year", low=1960, high=1990), Like("name", "Abd")]))
    q2 = Query()
    q2.add_relation("f", "fact").add_relation("d", "dim").add_relation("g", "fact2")
    q2.add_join("f", "dim_id", "d", "id").add_join("g", "dim_id", "d", "id")
    q2.add_predicate("f", Eq("score", 3))
    q3 = Query()
    q3.add_relation("f", "fact").add_relation("d", "dim")
    q3.add_join("f", "dim_id", "d", "id")  # predicate-free: raw arena views
    return [q1, q2, q3]


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestRoundTrip:
    def test_bounds_bit_identical_to_build(self, built, arena_path):
        sb_arena = SafeBound(built.config)
        sb_arena.stats = load_stats(arena_path)
        for q in _queries():
            assert sb_arena.bound(q) == built.bound(q)  # exact, not approx

    def test_digest_identical_after_reload(self, built, arena_path):
        """One store, two representations (in-memory, arena-loaded), one
        digest."""
        assert stats_digest(load_stats(arena_path)) == stats_digest(built.stats)

    def test_object_kernel_differential_on_arena_stats(self, built, arena_path):
        """Arena-backed stats through the object kernel == array kernel
        (the full differential contract holds on views too)."""
        sb_obj = object_side(SafeBound())
        sb_obj.stats = load_stats(arena_path)
        sb_arr = array_side(SafeBound())
        sb_arr.stats = load_stats(arena_path)
        queries = _queries()
        with object_path_only():
            expected = sb_obj.estimate_batch(queries)
        assert sb_arr.estimate_batch(queries) == expected

    def test_describe_stats_file(self, built, arena_path):
        info = describe_stats_file(arena_path)
        arena = StatsArena(arena_path)
        assert info["file_bytes"] == arena.file_bytes > 0
        assert info["arrays"] == len(arena.arrays)
        assert info["piecewise_functions"] == arena.num_functions > 0
        assert info["bloom_filters"] > 0
        assert info["relations"] == len(built.stats.relations)


class TestZeroCopy:
    def test_magic_sniffing(self, arena_path, tmp_path):
        assert StatsArena(arena_path).manifest["relations"]
        other = tmp_path / "stats.npz"
        other.write_bytes(b"PK\x03\x04" + b"\x00" * 60)  # a zip, not an arena
        with pytest.raises(ValueError, match="bad magic"):
            load_stats(str(other))
        with pytest.raises(FileNotFoundError):
            load_stats(str(tmp_path / "missing.sba"))

    def test_lazy_relation_materialization(self, arena_path):
        stats = load_stats(arena_path)
        assert stats.relations.materialized == []
        rel = stats.relations["fact"]
        assert stats.relations.materialized == ["fact"]
        assert rel.join_stats  # fully usable once materialized
        # Re-access returns the same object, not a fresh materialization.
        assert stats.relations["fact"] is rel

    def test_concurrent_materialization_is_race_free(self, arena_path):
        """Regression: two threads racing to materialise the same pending
        relation used to double-pop the manifest entry, crashing the loser
        with KeyError — exactly the serving-thread vs staleness-poller
        shape on a freshly refreshed store."""
        import threading

        for _ in range(20):
            stats = load_stats(arena_path)
            barrier = threading.Barrier(4)
            errors = []

            def reader():
                barrier.wait()
                try:
                    # Same walk a staleness poll / bound batch performs.
                    stats.max_padding_overhead()
                    assert stats.relations["fact"].join_stats
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            # All threads observed one shared materialization.
            assert stats.relations["fact"] is stats.relations["fact"]

    def test_views_are_readonly_slices_of_the_mapping(self, arena_path):
        stats = load_stats(arena_path)
        base = stats.relations["fact"].join_stats["dim_id"].base
        assert not base.xs.flags.writeable
        assert not base.ys.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            base.xs[0] = 123.0
        # The view chains back to one shared memmap, not a private copy.
        root = base.xs
        while not isinstance(root, np.memmap) and isinstance(root.base, np.ndarray):
            root = root.base
        assert isinstance(root, np.memmap)

    def test_arena_slices_tagged_for_the_kernel(self, arena_path):
        stats = load_stats(arena_path)
        base = stats.relations["fact"].join_stats["dim_id"].base
        arena, index = base._arena_slice
        assert isinstance(arena, StatsArena)
        assert np.array_equal(arena.pl(index).xs, base.xs)

    def test_bloom_filters_lazy_and_equivalent(self, built, arena_path):
        arena = load_stats(arena_path)
        checked = 0
        for name, rel in built.stats.relations.items():
            rel2 = arena.relations[name]
            for col, js in rel.join_stats.items():
                for fcol, fstats in js.filters.items():
                    if fstats.equality is None or fstats.equality.blooms is None:
                        continue
                    blooms2 = rel2.join_stats[col].filters[fcol].equality.blooms
                    for b1, b2 in zip(fstats.equality.blooms, blooms2):
                        assert isinstance(b2, ArenaBloomFilter)
                        assert b2.num_bits == b1.num_bits > 0
                        assert np.array_equal(b1.bits, b2.bits)
                        checked += 1
        assert checked > 0
        with pytest.raises(TypeError):
            b2.add("new-value")


class TestCopyOnWrite:
    def test_mutation_never_writes_through_the_mmap(self, tiny_db, arena_path, tmp_path):
        """apply_insert / apply_delete on arena-backed stats must leave the
        file untouched: padding materializes fresh private arrays."""
        before = _file_sha(arena_path)
        sb = SafeBound.load(arena_path, tiny_db)
        rows = {
            "id": np.arange(700000, 700040),
            "dim_id": np.arange(40) % 300,
            "score": np.zeros(40, dtype=np.int64),
            "tag": np.zeros(40, dtype=np.int64),
        }
        sb.apply_insert("fact", rows)
        sb.apply_delete("fact", {k: v[:5] for k, v in rows.items()})
        for q in _queries():
            assert np.isfinite(sb.bound(q))
        assert _file_sha(arena_path) == before

    def test_mutated_arena_stats_match_mutated_in_memory_stats(self, tiny_db, tmp_path):
        """The same mutation stream over an in-memory build and its
        arena-loaded twin yields bit-identical bounds (the lazy view mode
        changes representation, never semantics)."""
        in_memory = SafeBound()
        in_memory.build(tiny_db)
        arena_p = str(tmp_path / "twin.sba")
        in_memory.save(arena_p)
        in_memory.attach_update_tracking(tiny_db)
        twins = [in_memory, SafeBound.load(arena_p, tiny_db)]
        rows = {
            "id": np.arange(800000, 800060),
            "dim_id": np.arange(60) % 300,
            "score": np.ones(60, dtype=np.int64),
            "tag": np.zeros(60, dtype=np.int64),
        }
        for sb in twins:
            sb.apply_insert("fact", rows)
        for q in _queries():
            assert twins[0].bound(q) == twins[1].bound(q)


class TestKernelPacking:
    def test_from_functions_gathers_arena_slices(self, arena_path):
        stats = load_stats(arena_path)
        funcs = []
        for rel in stats.relations.values():
            for js in rel.join_stats.values():
                funcs.append(js.base)
            funcs.extend(rel.fallback_cds.values())
        assert all(hasattr(f, "_arena_slice") for f in funcs)
        fast = ak.Ragged.from_functions(funcs)
        generic = ak.Ragged.from_functions(
            [type(f)(f.xs.copy(), f.ys.copy()) for f in funcs]
        )
        assert np.array_equal(fast.xs, generic.xs)
        assert np.array_equal(fast.ys, generic.ys)
        assert np.array_equal(fast.offsets, generic.offsets)

    def test_from_functions_mixed_batch_falls_back(self, arena_path):
        from repro.core.piecewise import PiecewiseLinear

        stats = load_stats(arena_path)
        view = stats.relations["fact"].join_stats["dim_id"].base
        plain = PiecewiseLinear(np.array([0.0, 2.0]), np.array([0.0, 5.0]))
        packed = ak.Ragged.from_functions([view, plain, view])
        assert packed.batch == 3
        assert np.array_equal(packed.segment_arrays(0)[0], view.xs)
        assert np.array_equal(packed.segment_arrays(1)[0], plain.xs)


class TestGoldenCorpusViaArena:
    def test_stats_ceb_golden_digest_from_arena_backed_stats(self, tmp_path):
        """The committed golden corpus passes bit-identically when the
        bounds are served from an arena round trip of the statistics."""
        import json

        from golden_corpus import digest_bounds, golden_path
        from repro.workloads import make_stats_ceb

        workload = make_stats_ceb(scale=0.05, num_queries=30, seed=7)
        sb = SafeBound(SafeBoundConfig())
        sb.build(workload.db)
        path = str(tmp_path / "golden.sba")
        sb.save(path)
        served = SafeBound.load(path)
        bounds = served.estimate_batch(workload.queries)
        fresh = {q.name: float(b).hex() for q, b in zip(workload.queries, bounds)}
        stored = json.loads(golden_path("stats_ceb").read_text())
        assert fresh == stored["bounds"]
        assert digest_bounds(fresh) == stored["digest"]
