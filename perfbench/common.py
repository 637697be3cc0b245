"""Shared helpers of the repository benchmark: source paths, statistics,
provenance and the span recorder used by traced runs.

Both the client process (``run.py``) and the server process
(``server.py``) import this module before anything from ``repro``, so it
only depends on the standard library at import time.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"


def use_repo_sources() -> None:
    """Put the checkout's ``src/`` on the import path, or exit non-zero
    when the checkout holds no ``repro`` package to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no repro package under {SRC}; nothing to measure\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def emit(payload: dict) -> None:
    """One JSON object per line on stdout (the server process's events)."""
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (numpy's default); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Soundness:
    """The bound >= true cardinality check.

    Today a bound can undershoot an exact cardinality by floating-point
    rounding (e.g. 61.99999999999994 against 62).  Like the repository's
    own tests, the check accepts a relative ``SLACK``, and it counts the
    checks that needed it (``slack``), so exact soundness shows as 0.
    """

    SLACK = 1e-9

    def __init__(self) -> None:
        self.checked = 0
        self.slack = 0
        self.failures: list[str] = []

    def check(self, label: str, bound: float, true: float) -> None:
        if true == float("inf"):
            return  # the executor overflowed: no truth to check against
        self.checked += 1
        if bound >= true:
            return
        if bound >= true * (1 - self.SLACK):
            self.slack += 1
        else:
            self.failures.append(f"{label}: bound {bound!r} < true {true!r}")


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _git_rev() -> str:
    """The checkout's commit, read from ``.git`` without running git;
    ``"none"`` for an exported tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "none"


def _source_digest() -> str:
    """Content digest of every ``.py`` file under ``src/`` — identifies
    the measured code when the checkout is not a git repository."""
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, sizes: dict) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "git_rev": _git_rev(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "sizes": sizes,
    }


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Recorder:
    """In-memory spans for a traced run: ``(name, rid, start, end, attrs)``.

    ``rid`` identifies the request a span belongs to.  A span records
    when the recorder is ``enabled`` (in-process phases) or when the
    calling thread is marked ``traced`` (the server process marks the
    connection thread of a frame that carries a request id, and the
    batching thread while it serves a batch holding such a frame).
    Times are ``time.perf_counter()`` readings, which on Linux share one
    monotonic clock across processes, so client and server spans of one
    request line up.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self._lock = threading.Lock()
        self.local = threading.local()

    def active(self) -> bool:
        return self.enabled or getattr(self.local, "traced", False)

    @property
    def rid(self):
        return getattr(self.local, "rid", None)

    def add(self, name: str, start: float, end: float, rid=None, **attrs) -> None:
        with self._lock:
            self.spans.append((name, rid if rid is not None else self.rid, start, end, attrs))

    @contextlib.contextmanager
    def request(self, rid):
        """Mark the calling thread as working on request ``rid``."""
        previous = getattr(self.local, "rid", None)
        self.local.rid = rid
        try:
            yield
        finally:
            self.local.rid = previous

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span named
        ``name`` around each call while the recorder is active.
        ``count(args, result)`` adds a ``n`` attribute to the span."""
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.active():
                return original(*args, **kwargs)
            start = time.perf_counter()
            result = original(*args, **kwargs)
            end = time.perf_counter()
            if count is None:
                recorder.add(name, start, end)
            else:
                recorder.add(name, start, end, n=count(args, result))
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def export(self) -> list:
        with self._lock:
            return [list(span) for span in self.spans]


def wrap_engine_layers(recorder: Recorder) -> None:
    """Span the library layers under ``SafeBound.bound_batch``: the
    batched conditioning kernels, skeleton compile and bound evaluation.
    Wrapping the names bound in ``repro.core.safebound`` catches exactly
    the calls ``SafeBound`` makes."""
    from repro.core import bound, safebound

    recorder.wrap(safebound.SafeBound, "bound_batch", "safebound.bound_batch",
                  count=lambda args, result: len(args[1]))
    recorder.wrap(safebound, "condition_relations_batch", "conditioning.condition")
    recorder.wrap(safebound, "fill_truncations_batch", "conditioning.truncate")
    recorder.wrap(bound.FdsbEngine, "compile", "bound.compile")
    recorder.wrap(bound.FdsbEngine, "bound_batch_compiled", "bound.eval")


def wrap_build(recorder: Recorder) -> None:
    """Span every statistics build (always recorded, not per request)."""
    from repro.core import safebound

    original = safebound.build_statistics

    def build_statistics(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        recorder.add("stats_builder.build", start, time.perf_counter())
        return result

    safebound.build_statistics = build_statistics


COUNTERS = (
    "skeleton.compiles",
    "skeleton.cache_hits",
    "conditioning.computed",
    "conditioning.lookups",
    "bound.array_queries",
    "bound.object_queries",
)


def counter_values(registry) -> dict:
    """The engine counters of an ``repro.obs`` metrics registry."""
    snapshot = registry.snapshot() if registry is not None else {}
    return {name: float(snapshot.get(name, 0) or 0) for name in COUNTERS}


def counter_delta(before: dict, after: dict) -> dict:
    return {name: after.get(name, 0.0) - before.get(name, 0.0) for name in COUNTERS}


def clock() -> float:
    return time.perf_counter()
