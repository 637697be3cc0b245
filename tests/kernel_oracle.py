"""Reference implementations the array kernel is checked against.

``FdsbEngine`` sends a batch to the batched array kernels or to the
per-object recursion by its size (``array_min_work`` for bound
evaluation, ``array_min_condition`` for conditioning and truncation).
Thresholds of 0 send every batch to the array kernels; thresholds no
batch can reach keep every batch on the object path, which is the
differential oracle.

Below the dispatch pins sit loop references for the kernel's segmented
primitives: a vectorized bisection that narrows every query's own
segment one step per round (the kernel's search before it became one
sorted-key ``np.searchsorted``), and the merge built on it.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from repro.obs.metrics import metrics_installed

# Counters that only the batched kernels increment.
BATCHED_KERNEL_COUNTERS = (
    "bound.array_queries",
    "conditioning.batched_pairs",
    "conditioning.truncations",
)


def array_side(sb):
    """Send every batch of ``sb`` to the batched array kernels."""
    sb._engine.array_min_work = 0
    sb._engine.array_min_condition = 0
    return sb


def object_side(sb):
    """Keep every batch of ``sb`` on the per-object path (the oracle)."""
    sb._engine.array_min_work = math.inf
    sb._engine.array_min_condition = math.inf
    return sb


@contextlib.contextmanager
def object_path_only():
    """Assert that the block evaluates bounds and never runs a batched
    kernel, so an oracle built by :func:`object_side` stays pure."""
    with metrics_installed() as registry:
        yield registry
    snap = registry.snapshot()
    assert snap.get("bound.object_queries", 0) > 0
    for name in BATCHED_KERNEL_COUNTERS:
        assert snap.get(name, 0) == 0, f"oracle ran a batched kernel: {name}"


def _segment_ids(offsets: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


def bisect_searchsorted(a_vals, a_offsets, q_vals, q_offsets, side: str) -> np.ndarray:
    """Segment-local ``np.searchsorted`` of every query against its own
    segment of ``a_vals``, by a bisection looping in Python."""
    if not len(q_vals):
        return np.zeros(0, dtype=np.int64)
    qb = _segment_ids(q_offsets)
    base = a_offsets[:-1][qb]
    lo = base.copy()
    hi = a_offsets[1:][qb].copy()
    if len(a_vals):
        maxi = len(a_vals) - 1
        right = side == "right"
        while True:
            act = lo < hi
            if not act.any():
                break
            mid = (lo + hi) >> 1
            av = a_vals[np.minimum(mid, maxi)]
            go = (av <= q_vals) if right else (av < q_vals)
            go &= act
            hi = np.where(act & ~go, mid, hi)
            lo = np.where(go, mid + 1, lo)
    return lo - base


def bisect_merge_unique(a_vals, a_off, b_vals, b_off) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment ``np.unique(np.concatenate((a, b)))`` of segment-sorted
    inputs: a stable merge (``a`` ahead of equal ``b``) placed by
    :func:`bisect_searchsorted`, then an equality dedupe."""
    batch = len(a_off) - 1
    ia = bisect_searchsorted(b_vals, b_off, a_vals, a_off, "left")
    ib = bisect_searchsorted(a_vals, a_off, b_vals, b_off, "right")
    aidx = _segment_ids(a_off)
    bidx = _segment_ids(b_off)
    lengths = np.diff(a_off) + np.diff(b_off)
    m_off = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    merged = np.empty(m_off[-1])
    merged[m_off[:-1][aidx] + (np.arange(len(a_vals)) - a_off[:-1][aidx]) + ia] = a_vals
    merged[m_off[:-1][bidx] + (np.arange(len(b_vals)) - b_off[:-1][bidx]) + ib] = b_vals
    mb = _segment_ids(m_off)
    keep = np.empty(len(merged), dtype=bool)
    if len(merged):
        keep[0] = True
        keep[1:] = (merged[1:] != merged[:-1]) | (mb[1:] != mb[:-1])
        counts = np.bincount(mb[keep], minlength=batch)
        return merged[keep], np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return merged, m_off
