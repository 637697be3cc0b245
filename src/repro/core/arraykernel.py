"""Vectorized piecewise array-program engine for the online bound path.

The FDSB hot path (core/bound.py) evaluates Algorithm 2 as a recursion of
per-object :class:`~.piecewise.PiecewiseConstant` /
:class:`~.piecewise.PiecewiseLinear` method calls — dozens of small numpy
invocations per query, dominated by call overhead rather than FLOPs.  This
module lowers the same computation into a *batched* form:

* a :class:`Ragged` structure-of-arrays holds one piecewise function per
  *segment* — all breakpoints of a whole batch packed into contiguous
  ``(xs, ys, offsets)`` buffers;
* segmented kernels (``batch_delta``, ``batch_inverse``, ``batch_compose``,
  ``batch_compose_with``, ``batch_multiply``, ``batch_integral``, the
  pointwise min/max/sum family, ``batch_concave_envelope``) evaluate one
  operation for every segment in a handful of numpy passes;
* :func:`compile_array_program` flattens a
  :class:`~.bound.CompiledSkeleton`'s alpha/beta recursion — across *all*
  of its spanning-tree plans, with common-subexpression elimination — into
  a linear op list, and :func:`evaluate_bounds` executes the programs of a
  whole heterogeneous batch, scheduling ops of the same kind from every
  query/skeleton into shared kernel calls.

**Segmented search.**  Every search and merge runs on sort keys that
order elements by (segment id, value): ``complex128`` with the segment id
as real part and the value as imaginary part, which numpy orders
lexicographically.  One ``np.searchsorted`` over a batch's keys then
searches every query in its own segment, with ``np.searchsorted``'s
left/right tie rule on that segment alone, and one pair of such searches
merges two batches stably.  Segment lengths, ids and keys are derived
once per :class:`Ragged` and passed along, not re-derived per primitive.

**Bit-identity contract.**  Every kernel performs exactly the floating-
point operations of its object-path twin, in the same order, on the same
values: shared elementwise cores live in ``core/piecewise.py``
(``_interp_core``, ``_pseudo_inverse_core``, ``_sequential_sum``), the
segmented search finds the indices ``np.searchsorted`` finds on each
segment, a merge tie keeps the first operand's value bits, and segmented
sums use the same ``np.add.reduceat`` (strict left-to-right) as
``PiecewiseConstant.integral``.  The primitives are checked against loop
references (tests/kernel_oracle.py).  The differential suite
(tests/test_array_kernel.py) asserts exact float equality of bounds
against the object kernel on every bundled workload.  The object path
stays in ``core/bound.py``: ``FdsbEngine`` sends small batches to it by
size, and an engine whose thresholds no batch reaches is the oracle.

The one sequential-in-points exception is the concave-envelope hull scan,
whose tolerance-based pops are order-dependent; it is vectorized across
the batch (all segments advance through the scan together) but follows the
exact per-segment pop sequence of the scalar algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.metrics import inc as _metric_inc
from ..obs.tracing import span as _span
from .piecewise import (
    _EPS,
    _interp_core,
    _pseudo_inverse_core,
)

# Pre-built metric names so the disabled instrumentation path pays no
# string formatting (see repro.obs: one global load + None check).
_OP_METRIC = {
    kind: f"kernel.ops.{kind}"
    for kind in ("inv", "delta", "comp", "const", "cw", "mul", "integral")
}
_OP_SPAN = {kind: f"kernel.{kind}" for kind in _OP_METRIC}

__all__ = [
    "Ragged",
    "batch_delta",
    "batch_inverse",
    "batch_compose",
    "batch_compose_with",
    "batch_multiply",
    "batch_constant",
    "batch_integral",
    "batch_pointwise_min",
    "batch_pointwise_max",
    "batch_pointwise_sum",
    "batch_concave_envelope",
    "batch_concave_max",
    "batch_truncate_total",
    "compile_array_program",
    "evaluate_bounds",
]


# ----------------------------------------------------------------------
# Ragged batches
# ----------------------------------------------------------------------
class Ragged:
    """A batch of piecewise functions in structure-of-arrays form.

    Segment ``i`` (one function) occupies the half-open slice
    ``offsets[i]:offsets[i+1]`` of the flat ``xs`` / ``ys`` buffers.  A
    zero-length segment is the empty ``PiecewiseConstant``; piecewise-
    linear segments always hold at least one breakpoint.  A batch of
    query points has the same layout with ``ys`` None.

    Segment lengths, the segment id of every element and the search keys
    of ``xs``/``ys`` are derived once per batch and cached; kernels pass
    them along where they know them (``lengths=``, ``ids=``, ``xkeys=``).
    """

    __slots__ = ("xs", "ys", "offsets", "_lengths", "_ids", "_xkeys", "_ykeys")

    def __init__(
        self,
        xs: np.ndarray,
        ys: np.ndarray | None,
        offsets: np.ndarray,
        *,
        lengths: np.ndarray | None = None,
        ids: np.ndarray | None = None,
        xkeys: np.ndarray | None = None,
    ) -> None:
        self.xs = xs
        self.ys = ys
        self.offsets = offsets
        self._lengths = lengths
        self._ids = ids
        self._xkeys = xkeys
        self._ykeys = None

    @property
    def batch(self) -> int:
        return len(self.offsets) - 1

    def lengths(self) -> np.ndarray:
        if self._lengths is None:
            self._lengths = self.offsets[1:] - self.offsets[:-1]
        return self._lengths

    def ids(self) -> np.ndarray:
        """Segment id of every flat element (cached)."""
        if self._ids is None:
            self._ids = _ids_from_lengths(self.lengths())
        return self._ids

    def xkeys(self) -> np.ndarray:
        """Search keys of ``xs`` (cached; see :func:`_keys`)."""
        if self._xkeys is None:
            self._xkeys = _keys(self.ids(), self.xs)
        return self._xkeys

    def ykeys(self) -> np.ndarray:
        """Search keys of ``ys`` (cached; see :func:`_keys`)."""
        if self._ykeys is None:
            self._ykeys = _keys(self.ids(), self.ys)
        return self._ykeys

    def points(self, xs: np.ndarray) -> "Ragged":
        """Query points ``xs`` laid out like this batch's elements."""
        return Ragged(xs, None, self.offsets, lengths=self.lengths(), ids=self.ids())

    @staticmethod
    def from_functions(funcs) -> "Ragged":
        """Pack PiecewiseLinear / PiecewiseConstant objects into one batch.

        When every function is an arena slice of the same
        :class:`~.arena.StatsArena` (unconditioned serving traffic over
        mmap-loaded statistics — the common case for edge packs), the
        whole batch is built with one vectorized gather over the arena's
        flat family buffers instead of touching per-object fields.  The
        gathered floats are byte-identical to the per-object path.
        """
        if not funcs:
            return Ragged(np.empty(0), np.empty(0), np.zeros(1, dtype=np.int64))
        first = getattr(funcs[0], "_arena_slice", None)
        if first is not None:
            arena = first[0]
            indices = np.empty(len(funcs), dtype=np.int64)
            for i, f in enumerate(funcs):
                ref = getattr(f, "_arena_slice", None)
                if ref is None or ref[0] is not arena:
                    break
                indices[i] = ref[1]
            else:
                return arena.gather(indices)
        lengths = np.array([len(f.xs) for f in funcs], dtype=np.int64)
        offsets = _offsets_from_lengths(lengths)
        if offsets[-1]:
            xs = np.concatenate([f.xs for f in funcs])
            ys = np.concatenate([f.ys for f in funcs])
        else:
            xs = np.empty(0)
            ys = np.empty(0)
        return Ragged(xs, ys, offsets, lengths=lengths)

    def segment_arrays(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The (xs, ys) slice of segment ``i`` (views, for tests)."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return self.xs[lo:hi], self.ys[lo:hi]


def _offsets_from_lengths(lengths: np.ndarray) -> np.ndarray:
    out = np.empty(len(lengths) + 1, dtype=np.int64)
    out[0] = 0
    np.cumsum(lengths, out=out[1:])
    return out


def _ids_from_lengths(lengths: np.ndarray) -> np.ndarray:
    return np.arange(len(lengths)).repeat(lengths)


def _keys(ids: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Sort keys ordering elements by (segment id, value).

    numpy orders complex numbers lexicographically — real part first —
    so ``complex128`` keys with ``.real`` the segment id and ``.imag`` the
    value make one ``np.searchsorted`` over a segment-sorted array a
    per-segment search.  Within a segment the order is exactly the float
    order of the values (``-0.0 == 0.0``, ``±inf`` at the ends).  The
    parts are assigned, never computed as ``ids + 1j * vals``: ``1j * inf``
    is ``nan+infj``.
    """
    keys = np.empty(len(vals), dtype=np.complex128)
    keys.real = ids
    keys.imag = vals
    return keys


def _kept_offsets(mask: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Segment offsets of the elements that ``mask`` keeps."""
    kept = np.empty(len(mask) + 1, dtype=np.int64)
    kept[0] = 0
    np.cumsum(mask, out=kept[1:])
    return kept[offsets]


def _firsts(vals: np.ndarray, offsets: np.ndarray, default: float = 0.0) -> np.ndarray:
    """Per-segment first element (``default`` for empty segments)."""
    out = np.full(len(offsets) - 1, default)
    nz = offsets[1:] > offsets[:-1]
    out[nz] = vals[offsets[:-1][nz]]
    return out


def _lasts(vals: np.ndarray, offsets: np.ndarray, default: float = 0.0) -> np.ndarray:
    """Per-segment last element (``default`` for empty segments)."""
    out = np.full(len(offsets) - 1, default)
    nz = offsets[1:] > offsets[:-1]
    out[nz] = vals[offsets[1:][nz] - 1]
    return out


def _filter_points(vals: np.ndarray, offsets: np.ndarray, mask: np.ndarray) -> Ragged:
    """Keep masked elements as query points, preserving segment structure."""
    return Ragged(vals[mask], None, _kept_offsets(mask, offsets))


def _prev_in_segment(vals: np.ndarray, offsets: np.ndarray, fill: float) -> np.ndarray:
    """Element shifted right by one within each segment, ``fill`` at starts."""
    # One spare slot takes the start offset of trailing empty segments.
    out = np.empty(len(vals) + 1, dtype=vals.dtype)
    out[1:-1] = vals[:-1]
    out[offsets[:-1]] = fill
    return out[:-1]


def _append_where(
    vals: np.ndarray, offsets: np.ndarray, extra: np.ndarray, need: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Append ``extra[i]`` to the end of segment ``i`` where ``need[i]``."""
    if not need.any():
        return vals, offsets
    lengths = offsets[1:] - offsets[:-1]
    new_off = _offsets_from_lengths(lengths + need)
    out = np.empty(new_off[-1])
    out[(new_off[:-1] - offsets[:-1]).repeat(lengths) + np.arange(len(vals))] = vals
    out[new_off[1:][need] - 1] = extra[need]
    return out, new_off


def _gather_segments(r: Ragged, sel: np.ndarray) -> Ragged:
    """The sub-batch made of segments ``sel`` (in the given order)."""
    lengths = r.lengths()[sel]
    offsets = _offsets_from_lengths(lengths)
    ids = _ids_from_lengths(lengths)
    pos = (r.offsets[:-1][sel] - offsets[:-1])[ids] + np.arange(offsets[-1])
    return Ragged(r.xs[pos], r.ys[pos], offsets, lengths=lengths, ids=ids)


def _scatter_segments(parts: list[tuple[np.ndarray, Ragged]], batch: int) -> Ragged:
    """Reassemble a batch of ``batch`` segments from indexed sub-batches
    (each ``sel`` sorted and distinct, as ``np.flatnonzero`` returns it);
    segments covered by no part come out empty."""
    if len(parts) == 1 and len(parts[0][0]) == batch:
        return parts[0][1]  # ``sel`` is every segment, in order
    lengths = np.zeros(batch, dtype=np.int64)
    for sel, sub in parts:
        lengths[sel] = sub.lengths()
    offsets = _offsets_from_lengths(lengths)
    xs = np.empty(offsets[-1])
    ys = np.empty(offsets[-1])
    for sel, sub in parts:
        shift = offsets[:-1][sel] - sub.offsets[:-1]
        pos = shift.repeat(sub.lengths()) + np.arange(len(sub.xs))
        xs[pos] = sub.xs
        ys[pos] = sub.ys
    return Ragged(xs, ys, offsets, lengths=lengths)


def _select_segments(r: Ragged, sel: np.ndarray) -> Ragged:
    """The sub-batch of segments ``sel`` (sorted and distinct); ``r``
    itself when that is every segment."""
    return r if len(sel) == r.batch else _gather_segments(r, sel)


# ----------------------------------------------------------------------
# Segmented primitives
# ----------------------------------------------------------------------
def _seg_searchsorted(
    a_keys: np.ndarray,
    a_offsets: np.ndarray,
    q_keys: np.ndarray,
    q_ids: np.ndarray,
    side: str,
) -> np.ndarray:
    """``np.searchsorted`` of every query against its own segment.

    ``a_keys`` / ``q_keys`` are the :func:`_keys` of the segment-sorted
    searched values and of the queries, ``q_ids`` the segment of every
    query.  One ``np.searchsorted`` over the keys finds each query's slot
    within its own segment — the keys of every other segment sort wholly
    before or after it — and subtracting the segment base makes the index
    segment-local.  The tie contract is ``np.searchsorted``'s on the
    segment alone: ``side="left"`` lands before values equal to the query,
    ``side="right"`` after them, with float equality (``-0.0 == 0.0``).
    """
    return np.searchsorted(a_keys, q_keys, side=side) - a_offsets[:-1][q_ids]


def _seg_merge_unique(a: Ragged, b: Ragged) -> Ragged:
    """Per-segment ``np.unique(np.concatenate((a, b)))`` of the ``xs`` of
    two segment-sorted batches, as query points.

    One stable merge on the keys: an element of ``a`` lands ahead of equal
    elements of ``b``, so a tie keeps ``a``'s value bits (``-0.0`` vs
    ``0.0``).  Consecutive equal keys — same segment, equal value — are
    then deduplicated to their first element.
    """
    ak = a.xkeys()
    bk = b.xkeys()
    merged = np.empty(len(ak) + len(bk), dtype=np.complex128)
    merged[np.searchsorted(bk, ak, side="left") + np.arange(len(ak))] = ak
    merged[np.searchsorted(ak, bk, side="right") + np.arange(len(bk))] = bk
    keep = np.empty(len(merged), dtype=bool)
    keep[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    keys = merged[keep]
    offsets = _kept_offsets(keep, a.offsets + b.offsets)
    return Ragged(keys.imag.copy(), None, offsets, xkeys=keys)


def _seg_bracket(idx: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The object path's ``(i0, i1)`` bracket of a ``searchsorted`` index
    ``idx`` into a segment of ``n`` points (both 0 for a single point)."""
    single = n <= 1
    i1 = np.where(single, 0, np.minimum(np.maximum(idx, 1), np.maximum(n - 1, 1)))
    i0 = np.where(single, 0, i1 - 1)
    return i0, i1


def _seg_interp(q: Ragged, f: Ragged) -> np.ndarray:
    """Evaluate piecewise-linear segments at ragged query points — the
    batched twin of ``PiecewiseLinear.__call__`` (same ``_interp_core``)."""
    if not len(q.xs):
        return np.zeros(0)
    qb = q.ids()
    idx = _seg_searchsorted(f.xkeys(), f.offsets, q.xkeys(), qb, "right")
    i0, i1 = _seg_bracket(idx, f.lengths()[qb])
    base = f.offsets[:-1][qb]
    last = f.offsets[1:][qb] - 1
    return _interp_core(
        q.xs,
        f.xs[base + i0],
        f.xs[base + i1],
        f.ys[base + i0],
        f.ys[base + i1],
        f.xs[base],
        f.ys[base],
        f.xs[last],
        f.ys[last],
    )


def _seg_inverse_values(v: Ragged, f: Ragged) -> np.ndarray:
    """Batched twin of ``PiecewiseLinear.inverse_values`` (pseudo-inverse)."""
    if not len(v.xs):
        return np.zeros(0)
    vb = v.ids()
    idx = _seg_searchsorted(f.ykeys(), f.offsets, v.xkeys(), vb, "left")
    i0, i1 = _seg_bracket(idx, f.lengths()[vb])
    base = f.offsets[:-1][vb]
    last = f.offsets[1:][vb] - 1
    return _pseudo_inverse_core(
        v.xs,
        f.xs[base + i0],
        f.xs[base + i1],
        f.ys[base + i0],
        f.ys[base + i1],
        f.xs[base],
        f.ys[base],
        f.xs[last],
        f.ys[last],
    )


def _seg_dedupe_pl(xs: np.ndarray, ys: np.ndarray, offsets: np.ndarray) -> Ragged:
    """Per-segment ``_dedupe_breakpoints`` (the PiecewiseLinear constructor
    normalisation), including its keep-the-domain-end tail rule."""
    n = len(xs)
    if n == 0:
        return Ragged(xs, ys, offsets)
    lengths = offsets[1:] - offsets[:-1]
    keep = np.empty(n + 1, dtype=bool)
    np.greater(xs[1:] - xs[:-1], _EPS, out=keep[1:n])
    keep[offsets[:-1]] = True  # segment starts; the spare slot absorbs n
    keep = keep[:n]
    # Tail rule for multi-point segments whose final breakpoint got dropped:
    # force-keep it, and drop its predecessor instead when they are within
    # _EPS (unless the predecessor is the segment start).
    multi = lengths > 1
    ml = (offsets[1:] - 1)[multi]
    need_fix = ~keep[ml]
    if need_fix.any():
        runmax = np.maximum.accumulate(np.where(keep, np.arange(n), -1))
        keep[ml] = True
        fix_last = ml[need_fix]
        prev = runmax[fix_last - 1]
        cond = (xs[fix_last] - xs[prev]) <= _EPS
        pp = prev[cond]
        keep[pp] = pp == offsets[:-1][multi][need_fix][cond]
    return Ragged(xs[keep], ys[keep], _kept_offsets(keep, offsets))


def _seg_simplify_pc(xs: np.ndarray, ys: np.ndarray, offsets: np.ndarray) -> Ragged:
    """Per-segment ``PiecewiseConstant.simplify`` (merge equal-value runs)."""
    n = len(xs)
    if n == 0:
        return Ragged(xs, ys, offsets)
    keep = np.empty(n, dtype=bool)
    np.greater(np.abs(ys[1:] - ys[:-1]), _EPS * (1.0 + np.abs(ys[:-1])), out=keep[:-1])
    keep[offsets[1:] - 1] = True  # segment ends (an empty one's is its predecessor's)
    return Ragged(xs[keep], ys[keep], _kept_offsets(keep, offsets))

# ----------------------------------------------------------------------
# Batched piecewise operations
# ----------------------------------------------------------------------
def batch_delta(f: Ragged) -> Ragged:
    """Batched ``PiecewiseLinear.delta``: per-segment derivative steps."""
    n = len(f.xs)
    if not n:
        return Ragged(f.xs, f.ys, f.offsets)
    notfirst = np.ones(n + 1, dtype=bool)
    notfirst[f.offsets[:-1]] = False  # segment starts; the spare slot absorbs n
    j = np.flatnonzero(notfirst[:n])
    xs = f.xs[j]
    slopes = (f.ys[j] - f.ys[j - 1]) / (f.xs[j] - f.xs[j - 1])
    offsets = _offsets_from_lengths(np.maximum(f.lengths() - 1, 0))
    return _seg_simplify_pc(xs, slopes, offsets)


def batch_inverse(f: Ragged) -> Ragged:
    """Batched ``PiecewiseLinear.inverse`` (leftmost-x pseudo-inverse)."""
    n = len(f.xs)
    if not n:
        return Ragged(f.xs, f.ys, f.offsets)
    keep = np.empty(n + 1, dtype=bool)
    np.greater(f.ys[1:] - f.ys[:-1], _EPS, out=keep[1:n])
    keep[f.offsets[:-1]] = True  # segment starts; the spare slot absorbs n
    keep = keep[:n]
    return _seg_dedupe_pl(f.ys[keep], f.xs[keep], _kept_offsets(keep, f.offsets))


def batch_compose(outer: Ragged, inner: Ragged) -> Ragged:
    """Batched ``PiecewiseLinear.compose``: ``x -> outer(inner(x))``."""
    ob = outer.ids()
    lo_y = _firsts(inner.ys, inner.offsets)
    hi_y = _lasts(inner.ys, inner.offsets)
    mask = (outer.xs > lo_y[ob] + _EPS) & (outer.xs < hi_y[ob] - _EPS)
    interior = _filter_points(outer.xs, outer.offsets, mask)
    inv = interior.points(_seg_inverse_values(interior, inner))
    grid = _seg_merge_unique(inner, inv)
    ys = _seg_interp(grid.points(_seg_interp(grid, inner)), outer)
    return _seg_dedupe_pl(grid.xs, ys, grid.offsets)


def batch_compose_with(f: Ragged, inner: Ragged) -> Ragged:
    """Batched ``PiecewiseConstant.compose_with``: ``x -> f(inner(x))`` for
    nondecreasing piecewise-linear ``inner`` (the beta-step kernel)."""
    alive = (f.lengths() > 0) & (inner.lengths() >= 2)
    ai = np.flatnonzero(alive)
    if not len(ai):
        return Ragged(np.empty(0), np.empty(0), np.zeros(f.batch + 1, dtype=np.int64))
    f2 = _select_segments(f, ai)
    in2 = _select_segments(inner, ai)
    # Every segment left holds >= 1 step (f2) and >= 2 breakpoints (in2).
    f_start, f_last = f2.offsets[:-1], f2.offsets[1:] - 1
    in_start, in_last = in2.offsets[:-1], in2.offsets[1:] - 1
    inner_end = in2.xs[in_last]
    # Candidate edges: inner's own breakpoints (minus the leading one) plus
    # the preimages of f's segment edges interior to inner's value range.
    notfirst = np.ones(len(in2.xs), dtype=bool)
    notfirst[in_start] = False
    own = Ragged(in2.xs[notfirst], None, _offsets_from_lengths(in2.lengths() - 1))
    fb = f2.ids()
    im = (f2.xs > in2.ys[in_start][fb] + _EPS) & (f2.xs < in2.ys[in_last][fb] - _EPS)
    pre = _filter_points(f2.xs, f2.offsets, im)
    edges = _seg_merge_unique(own, pre.points(_seg_inverse_values(pre, in2)))
    fm = (edges.xs > _EPS) & (edges.xs <= inner_end[edges.ids()] + _EPS)
    e_vals, e_off = edges.xs[fm], _kept_offsets(fm, edges.offsets)
    last_e = _lasts(e_vals, e_off, default=-np.inf)
    need = (e_off[1:] == e_off[:-1]) | (last_e < inner_end - _EPS)
    e_vals, e_off = _append_where(e_vals, e_off, inner_end, need)
    e = Ragged(e_vals, None, e_off)
    mids = (_prev_in_segment(e.xs, e.offsets, 0.0) + e.xs) / 2.0
    inner_vals = e.points(_seg_interp(e.points(mids), in2))
    eb = e.ids()
    idx = _seg_searchsorted(f2.xkeys(), f2.offsets, inner_vals.xkeys(), eb, "left")
    idx = np.minimum(idx, (f2.lengths() - 1)[eb])
    iv = inner_vals.xs
    inside = (iv > 0) & (iv <= f2.xs[f_last][eb] + _EPS)
    vals = np.where(inside, f2.ys[f_start[eb] + idx], 0.0)
    return _scatter_segments([(ai, _seg_simplify_pc(e.xs, vals, e.offsets))], f.batch)


def batch_multiply(a: Ragged, b: Ragged) -> Ragged:
    """Batched ``PiecewiseConstant.multiply`` (the alpha-step kernel)."""
    end = np.minimum(_lasts(a.xs, a.offsets, 0.0), _lasts(b.xs, b.offsets, 0.0))
    alive = end > 0
    ai = np.flatnonzero(alive)
    if not len(ai):
        return Ragged(np.empty(0), np.empty(0), np.zeros(a.batch + 1, dtype=np.int64))
    a2 = _select_segments(a, ai)
    b2 = _select_segments(b, ai)
    end2 = end[ai]
    grid = _seg_merge_unique(a2, b2)
    fm = grid.xs <= end2[grid.ids()] + _EPS
    e_vals, e_off = grid.xs[fm], _kept_offsets(fm, grid.offsets)
    last_e = _lasts(e_vals, e_off, default=-np.inf)
    need = (e_off[1:] == e_off[:-1]) | (last_e < end2 - _EPS)
    e_vals, e_off = _append_where(e_vals, e_off, end2, need)
    e = Ragged(e_vals, None, e_off)
    eb = e.ids()
    ia = _seg_searchsorted(a2.xkeys(), a2.offsets, e.xkeys(), eb, "left")
    ia = np.minimum(ia, (a2.lengths() - 1)[eb])
    ib = _seg_searchsorted(b2.xkeys(), b2.offsets, e.xkeys(), eb, "left")
    ib = np.minimum(ib, (b2.lengths() - 1)[eb])
    vals = a2.ys[a2.offsets[:-1][eb] + ia] * b2.ys[b2.offsets[:-1][eb] + ib]
    return _scatter_segments([(ai, _seg_simplify_pc(e.xs, vals, e.offsets))], a.batch)


def batch_constant(ends: np.ndarray, value: float = 1.0) -> Ragged:
    """Batched ``PiecewiseConstant.constant(value, end)`` (empty when
    ``end <= 0``)."""
    alive = ends > 0
    offsets = _offsets_from_lengths(alive.astype(np.int64))
    xs = ends[alive].astype(float)
    return Ragged(xs, np.full(len(xs), float(value)), offsets)


def batch_integral(f: Ragged) -> np.ndarray:
    """Batched ``PiecewiseConstant.integral``: per-segment strict
    left-to-right ``reduceat`` sums, bit-identical to the scalar path."""
    out = np.zeros(f.batch)
    widths = f.xs - _prev_in_segment(f.xs, f.offsets, 0.0)
    prod = widths * f.ys
    nz = f.lengths() > 0
    if prod.size and nz.any():
        out[nz] = np.add.reduceat(prod, f.offsets[:-1][nz].astype(np.intp))
    return out


# ----------------------------------------------------------------------
# Batched pointwise combinations (predicate-conditioning algebra)
# ----------------------------------------------------------------------
def _batch_combined_grid(parts: list[Ragged], ends: np.ndarray) -> Ragged:
    """Batched ``_combined_grid``: union of breakpoints within the domain
    plus the {0, end} anchors of every segment."""
    lo = np.minimum(0.0, ends)
    hi = np.maximum(0.0, ends)
    grid = Ragged(
        np.column_stack((lo, hi)).ravel(), None, np.arange(0, 2 * len(ends) + 1, 2)
    )
    for p in parts:
        inside = _filter_points(p.xs, p.offsets, p.xs <= ends[p.ids()] + _EPS)
        grid = _seg_merge_unique(grid, inside)
    mask = (grid.xs >= -_EPS) & (grid.xs <= ends[grid.ids()] + _EPS)
    return _filter_points(grid.xs, grid.offsets, mask)


def _batch_crossings(a: Ragged, b: Ragged, grid: Ragged) -> Ragged:
    """Batched ``_crossings``: per-segment crossing points of two
    piecewise-linear functions between consecutive grid points."""
    n = len(grid.xs)
    if not n:
        return grid
    d = _seg_interp(grid, a) - _seg_interp(grid, b)
    crosses = np.empty(n, dtype=bool)
    np.less(d[:-1] * d[1:], -_EPS, out=crosses[:-1])
    crosses[grid.offsets[1:] - 1] = False  # segment ends (an empty one's is its predecessor's)
    jj = np.flatnonzero(crosses)
    g = grid.xs
    x0, x1 = g[jj], g[jj + 1]
    d0, d1 = d[jj], d[jj + 1]
    return Ragged(x0 + (x1 - x0) * (d0 / (d0 - d1)), None, _kept_offsets(crosses, grid.offsets))


def _batch_pointwise(parts: list[Ragged], mode: str) -> Ragged:
    if not parts:
        raise ValueError("need at least one function")
    if len(parts) == 1:
        return parts[0]
    if mode == "sum":
        # Matches ``sum(f.domain_end for f in funcs)``: 0 + e_0 + e_1 + ...
        ends = np.zeros(parts[0].batch)
        for p in parts:
            ends = ends + _lasts(p.xs, p.offsets)
    else:
        combine = np.minimum if mode == "min" else np.maximum
        ends = _lasts(parts[0].xs, parts[0].offsets)
        for p in parts[1:]:
            ends = combine(ends, _lasts(p.xs, p.offsets))
    grid = _batch_combined_grid(parts, ends)
    if mode != "sum":
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                grid = _seg_merge_unique(grid, _batch_crossings(parts[i], parts[j], grid))
    rows = np.vstack([_seg_interp(grid, p) for p in parts])
    if mode == "min":
        ys = np.min(rows, axis=0)
    elif mode == "max":
        ys = np.max(rows, axis=0)
    else:
        ys = np.sum(rows, axis=0)
    return _seg_dedupe_pl(grid.xs, ys, grid.offsets)


def batch_pointwise_min(parts: list[Ragged]) -> Ragged:
    """Batched ``pointwise_min`` (conjunction of predicates)."""
    return _batch_pointwise(parts, "min")


def batch_pointwise_max(parts: list[Ragged]) -> Ragged:
    """Batched ``pointwise_max`` (default MCV sequence)."""
    return _batch_pointwise(parts, "max")


def batch_pointwise_sum(parts: list[Ragged]) -> Ragged:
    """Batched ``pointwise_sum`` (disjunction / IN predicates)."""
    return _batch_pointwise(parts, "sum")


def batch_concave_envelope(f: Ragged) -> Ragged:
    """Batched ``concave_envelope`` (least concave majorant).

    All segments advance through the hull scan together — one push round
    per breakpoint index, pop rounds shared across the batch — while each
    segment follows the exact pop sequence of the scalar stack algorithm
    (the tolerance-based pops are order-dependent, so the order is part of
    the bit-identity contract).
    """
    lengths = f.lengths()
    proc = lengths > 2
    if not proc.any():
        return f
    pi = np.flatnonzero(proc)
    f2 = _select_segments(f, pi)
    starts = f2.offsets[:-1]
    l2 = f2.lengths()
    bufx = np.empty(len(f2.xs))
    bufy = np.empty(len(f2.ys))
    top = starts.astype(np.int64).copy()
    segs = np.arange(len(pi))
    for j in range(int(l2.max())):
        act = segs[l2 > j]
        src = starts[act] + j
        dst = top[act]
        bufx[dst] = f2.xs[src]
        bufy[dst] = f2.ys[src]
        top[act] = dst + 1
        cand = act[(top[act] - starts[act]) >= 3]
        while len(cand):
            t = top[cand]
            x0, y0 = bufx[t - 3], bufy[t - 3]
            x1, y1 = bufx[t - 2], bufy[t - 2]
            x2, y2 = bufx[t - 1], bufy[t - 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                cross = np.where(
                    x2 - x0 <= _EPS,
                    np.maximum(y0, y2),
                    y0 + (y2 - y0) * (x1 - x0) / (x2 - x0),
                )
            popping = cand[y1 <= cross + _EPS]
            if not len(popping):
                break
            tp = top[popping]
            bufx[tp - 2] = bufx[tp - 1]
            bufy[tp - 2] = bufy[tp - 1]
            top[popping] = tp - 1
            cand = popping[(top[popping] - starts[popping]) >= 3]
    hull_len = top - starts
    hull_off = _offsets_from_lengths(hull_len)
    pos = (starts - hull_off[:-1]).repeat(hull_len) + np.arange(hull_off[-1])
    sub = _seg_dedupe_pl(bufx[pos], bufy[pos], hull_off)
    rest = np.flatnonzero(~proc)
    return _scatter_segments([(pi, sub), (rest, _gather_segments(f, rest))], f.batch)


def batch_concave_max(parts: list[Ragged]) -> Ragged:
    """Batched ``concave_max``: envelope of the crossing-free pointwise max
    of concave inputs (the group-compression hot path)."""
    if not parts:
        raise ValueError("need at least one function")
    if len(parts) == 1:
        return batch_concave_envelope(parts[0])
    ends = _lasts(parts[0].xs, parts[0].offsets)
    for p in parts[1:]:
        ends = np.maximum(ends, _lasts(p.xs, p.offsets))
    grid = _batch_combined_grid(parts, ends)
    ys = np.max(np.vstack([_seg_interp(grid, p) for p in parts]), axis=0)
    return batch_concave_envelope(_seg_dedupe_pl(grid.xs, ys, grid.offsets))


def batch_truncate_total(f: Ragged, totals: np.ndarray) -> Ragged:
    """Batched ``PiecewiseLinear.truncate_total``: cap segment ``i`` at
    ``totals[i]``, cutting the domain where the cap binds.

    Segments split into the scalar method's three cases — cap above the
    current total (unchanged), cap at/below the first value (single
    capped breakpoint), and an interior cut at ``F⁻¹(total)`` — and each
    class runs vectorized through the same ``_pseudo_inverse_core`` /
    constructor-normalisation twins, so results are bit-identical.
    """
    totals = np.asarray(totals, dtype=float)
    seg_total = _lasts(f.ys, f.offsets)
    first_y = _firsts(f.ys, f.offsets)
    unchanged = totals >= seg_total - _EPS
    floor = ~unchanged & (totals <= first_y + _EPS)
    cut = ~(unchanged | floor)
    parts: list[tuple[np.ndarray, Ragged]] = []
    ui = np.flatnonzero(unchanged)
    if len(ui):
        parts.append((ui, _select_segments(f, ui)))
    fi = np.flatnonzero(floor)
    if len(fi):
        starts = f.offsets[:-1][fi]
        parts.append(
            (
                fi,
                Ragged(
                    f.xs[starts].copy(),
                    np.minimum(f.ys[starts], totals[fi]),
                    np.arange(len(fi) + 1, dtype=np.int64),
                ),
            )
        )
    ci = np.flatnonzero(cut)
    if len(ci):
        sub = _gather_segments(f, ci)
        t = totals[ci]
        # One query value per segment: offsets are just 0..len(ci).
        caps = Ragged(t, None, np.arange(len(ci) + 1, dtype=np.int64))
        x_cut = _seg_inverse_values(caps, sub)
        keep = sub.xs < (x_cut[sub.ids()] - _EPS)
        koff = _kept_offsets(keep, sub.offsets)
        need = np.ones(len(ci), dtype=bool)
        xs2, off2 = _append_where(sub.xs[keep], koff, x_cut, need)
        ys2, _ = _append_where(sub.ys[keep], koff, t, need)
        ys2 = np.minimum(ys2, t.repeat(off2[1:] - off2[:-1]))
        parts.append((ci, _seg_dedupe_pl(xs2, ys2, off2)))
    return _scatter_segments(parts, f.batch)


# ----------------------------------------------------------------------
# The array program: compiled skeleton -> flat op list
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArrayProgram:
    """A CompiledSkeleton's bound recursion as straight-line batched ops.

    The alpha/beta recursion of *every* spanning-tree plan is flattened
    into one op list with common-subexpression elimination: spanning trees
    share most subtrees, so identical messages compile to one op.  Operand
    references encode the preamble register ``i`` as ``-(i + 1)`` and body
    register ``i`` as ``i`` (body op ``i``'s output is register ``i``).

    * ``pre_ops`` — plan-independent per-edge work (``('inv', edge)``,
      ``('delta', edge)``, ``('comp', inv_reg, parent_edge)``), the batched
      twins of the object path's memoised ``inverse()``/``delta()`` and its
      per-plan recomputed ``inverse().compose(parent)``;
    * ``body_ops`` — ``('const', root, kid_edges)``, ``('cw', msg, inner)``
      and ``('mul', a, b)`` steps of the message recursion;
    * ``integrals`` — body registers whose per-segment integral becomes a
      scalar slot;
    * ``plan_slots`` — per plan, the root results in evaluation order,
      each ``('card', alias_index)`` or ``('slot', integral_index)``;
    * ``schedule`` — body ops grouped by dependency level then kind, so
      the executor can run every independent same-kind op (across plans,
      and across skeletons at execution time) in one kernel call.
    """

    pre_ops: tuple
    body_ops: tuple
    integrals: tuple
    plan_slots: tuple
    schedule: tuple


def compile_array_program(skeleton) -> ArrayProgram:
    """Lower ``skeleton``'s bound recursion (all plans) into an
    :class:`ArrayProgram`; cached on the skeleton object."""
    cached = getattr(skeleton, "_array_program", None)
    if cached is not None:
        return cached

    pre_index: dict[tuple, int] = {}
    pre_ops: list[tuple] = []
    body_index: dict[tuple, int] = {}
    body_ops: list[tuple] = []
    integral_index: dict[int, int] = {}
    integrals: list[int] = []

    def pre_op(key: tuple) -> int:
        reg = pre_index.get(key)
        if reg is None:
            reg = len(pre_ops)
            pre_index[key] = reg
            pre_ops.append(key)
        return reg

    def inv(edge: int) -> int:
        return pre_op(("inv", edge))

    def delta(edge: int) -> int:
        return pre_op(("delta", edge))

    def comp(edge: int, parent_edge: int) -> int:
        return pre_op(("comp", inv(edge), parent_edge))

    def body_op(key: tuple) -> int:
        reg = body_index.get(key)
        if reg is None:
            reg = len(body_ops)
            body_index[key] = reg
            body_ops.append(key)
        return reg

    def integral_slot(reg: int) -> int:
        slot = integral_index.get(reg)
        if slot is None:
            slot = len(integrals)
            integral_index[reg] = slot
            integrals.append(reg)
        return slot

    plan_slots: list[tuple] = []
    for plan in skeleton.plans:
        children = plan.children

        def emit_var(var: int) -> int | None:
            combined: int | None = None
            for rel, ei in children[var]:
                msg = emit_rel(rel, ei)
                combined = msg if combined is None else body_op(("mul", combined, msg))
            return combined

        def emit_rel(rel: int, parent_edge: int) -> int:
            result = -(delta(parent_edge) + 1)
            for var, ei in children[rel]:
                msg = emit_var(var)
                if msg is None:
                    continue
                inner = -(comp(ei, parent_edge) + 1)
                result = body_op(("mul", result, body_op(("cw", msg, inner))))
            return result

        slots: list[tuple[str, int]] = []
        for root in plan.roots:
            kids = children[root]
            if not kids:
                slots.append(("card", root))
                continue
            weight = body_op(("const", root, tuple(ei for _, ei in kids)))
            for var, ei in kids:
                msg = emit_var(var)
                if msg is None:
                    continue
                composed = body_op(("cw", msg, -(inv(ei) + 1)))
                weight = body_op(("mul", weight, composed))
            slots.append(("slot", integral_slot(weight)))
        plan_slots.append(tuple(slots))

    # Dependency level of every body op (preamble refs are level -1): ops
    # at one level are mutually independent, so same-kind ops at a level
    # share a single kernel call.
    levels: list[int] = []
    for op in body_ops:
        if op[0] == "const":
            levels.append(0)
        else:
            operands = (op[1], op[2])
            levels.append(
                max((levels[ref] for ref in operands if ref >= 0), default=-1) + 1
            )
    num_levels = max(levels) + 1 if levels else 0
    schedule: list[dict[str, tuple[int, ...]]] = [dict() for _ in range(num_levels)]
    for idx, (op, level) in enumerate(zip(body_ops, levels)):
        schedule[level].setdefault(op[0], [])
        schedule[level][op[0]].append(idx)  # type: ignore[attr-defined]
    schedule_t = tuple(
        {kind: tuple(idxs) for kind, idxs in lvl.items()} for lvl in schedule
    )

    program = ArrayProgram(
        tuple(pre_ops), tuple(body_ops), tuple(integrals), tuple(plan_slots), schedule_t
    )
    object.__setattr__(skeleton, "_array_program", program)
    return program


# ----------------------------------------------------------------------
# Program execution over a heterogeneous batch
# ----------------------------------------------------------------------
class _GroupState:
    """Execution state of one skeleton's program over its deduped rows."""

    __slots__ = (
        "program",
        "row_items",
        "item_rows",
        "edge_packs",
        "totals",
        "cards",
        "pre_vals",
        "body_vals",
        "slot_vals",
    )

    def __init__(self, skeleton, item_indices, items) -> None:
        self.program = compile_array_program(skeleton)
        # Rows are deduplicated (edge CDS identity, cardinalities) query
        # instantiations: repeated queries — the common case for a serving
        # micro-batch — evaluate once and fan back out.
        row_of: dict[tuple, int] = {}
        self.row_items: list[int] = []
        self.item_rows: list[tuple[int, int]] = []
        row_edge_funcs = []
        row_cards = []
        for idx in item_indices:
            _, edge_funcs, cards = items[idx]
            key = (tuple(id(f) for f in edge_funcs), tuple(cards))
            row = row_of.get(key)
            if row is None:
                row = len(row_edge_funcs)
                row_of[key] = row
                row_edge_funcs.append(edge_funcs)
                row_cards.append(cards)
            self.item_rows.append((idx, row))
        num_edges = len(row_edge_funcs[0]) if row_edge_funcs else 0
        self.edge_packs = [
            Ragged.from_functions([funcs[e] for funcs in row_edge_funcs])
            for e in range(num_edges)
        ]
        # Conditioned totals (cds.total == ys[-1]) drive root cardinalities.
        self.totals = [_lasts(p.ys, p.offsets) for p in self.edge_packs]
        self.cards = np.array(row_cards, dtype=float)
        self.pre_vals: list[Ragged | None] = [None] * len(self.program.pre_ops)
        self.body_vals: list[Ragged | None] = [None] * len(self.program.body_ops)
        self.slot_vals: list[np.ndarray | None] = [None] * len(self.program.integrals)

    @property
    def rows(self) -> int:
        return len(self.cards)

    def resolve(self, ref: int) -> Ragged:
        return self.pre_vals[-ref - 1] if ref < 0 else self.body_vals[ref]


def _concat_ragged(parts: list[Ragged]) -> Ragged:
    if len(parts) == 1:
        return parts[0]
    lengths = np.concatenate([p.lengths() for p in parts])
    xs = np.concatenate([p.xs for p in parts])
    ys = np.concatenate([p.ys for p in parts])
    return Ragged(xs, ys, _offsets_from_lengths(lengths), lengths=lengths)


def _split_ragged(r: Ragged, counts: list[int]) -> list[Ragged]:
    if len(counts) == 1:
        return [r]
    out = []
    seg = 0
    for c in counts:
        off = r.offsets[seg : seg + c + 1]
        base = off[0]
        out.append(Ragged(r.xs[base : off[-1]], r.ys[base : off[-1]], off - base))
        seg += c
    return out


def evaluate_bounds(items: list[tuple]) -> np.ndarray:
    """Bounds for a heterogeneous batch via the array-program engine.

    ``items`` holds ``(skeleton, edge_cds, cards)`` per query: the compiled
    skeleton, the chosen conditioned CDS per skeleton edge, and the
    single-table cardinality per alias (in ``skeleton.aliases`` order).
    Ops of the same kind across every query, plan and skeleton execute as
    shared segmented kernel calls.
    """
    results = np.zeros(len(items))
    if not items:
        return results
    by_skeleton: dict[int, list[int]] = {}
    skeletons: dict[int, object] = {}
    for i, (skeleton, _, _) in enumerate(items):
        by_skeleton.setdefault(id(skeleton), []).append(i)
        skeletons[id(skeleton)] = skeleton
    groups = [
        _GroupState(skeletons[key], idxs, items) for key, idxs in by_skeleton.items()
    ]

    # Preamble: plan-independent per-edge values, two dependency levels.
    for kinds in (("inv", "delta"), ("comp",)):
        jobs: dict[str, list[tuple]] = {k: [] for k in kinds}
        for g in groups:
            for reg, op in enumerate(g.program.pre_ops):
                if op[0] in jobs:
                    jobs[op[0]].append((g, reg, op))
        for kind, entries in jobs.items():
            if not entries:
                continue
            _metric_inc(_OP_METRIC[kind], len(entries))
            with _span(_OP_SPAN[kind]):
                if kind == "comp":
                    outer = _concat_ragged([g.pre_vals[op[1]] for g, _, op in entries])
                    inner = _concat_ragged([g.edge_packs[op[2]] for g, _, op in entries])
                    chunks = _split_ragged(
                        batch_compose(outer, inner), [g.rows for g, _, _ in entries]
                    )
                else:
                    big = _concat_ragged([g.edge_packs[op[1]] for g, _, op in entries])
                    kernel = batch_inverse if kind == "inv" else batch_delta
                    chunks = _split_ragged(kernel(big), [g.rows for g, _, _ in entries])
            for (g, reg, _), chunk in zip(entries, chunks):
                g.pre_vals[reg] = chunk

    # Body: dependency-level schedule — every independent same-kind op
    # across all plans and skeletons shares one kernel call per level.
    max_levels = max((len(g.program.schedule) for g in groups), default=0)
    for level in range(max_levels):
        for kind in ("const", "cw", "mul"):
            jobs: list[tuple[_GroupState, int]] = []
            for g in groups:
                if level < len(g.program.schedule):
                    for idx in g.program.schedule[level].get(kind, ()):
                        jobs.append((g, idx))
            if not jobs:
                continue
            _metric_inc(_OP_METRIC[kind], len(jobs))
            with _span(_OP_SPAN[kind]):
                if kind == "const":
                    ends = []
                    for g, idx in jobs:
                        _, root, kid_edges = g.program.body_ops[idx]
                        e = g.cards[:, root].copy()
                        for ei in kid_edges:
                            e = np.minimum(e, g.totals[ei])
                        ends.append(e)
                    result = batch_constant(np.concatenate(ends))
                else:
                    a = _concat_ragged([g.resolve(g.program.body_ops[idx][1]) for g, idx in jobs])
                    b = _concat_ragged([g.resolve(g.program.body_ops[idx][2]) for g, idx in jobs])
                    kernel = batch_compose_with if kind == "cw" else batch_multiply
                    result = kernel(a, b)
            for (g, idx), chunk in zip(jobs, _split_ragged(result, [g.rows for g, _ in jobs])):
                g.body_vals[idx] = chunk

    # Integrals: every (group, slot) in one reduceat pass.
    jobs = [(g, slot, reg) for g in groups for slot, reg in enumerate(g.program.integrals)]
    if jobs:
        _metric_inc(_OP_METRIC["integral"], len(jobs))
        with _span(_OP_SPAN["integral"]):
            big = _concat_ragged([g.resolve(reg) for g, _, reg in jobs])
            sums = batch_integral(big)
        pos = 0
        for g, slot, _ in jobs:
            g.slot_vals[slot] = sums[pos : pos + g.rows]
            pos += g.rows

    # Scalar finish: product over roots (with the object path's
    # break-on-zero semantics) and minimum over plans, per row.
    for g in groups:
        best = np.full(g.rows, np.inf)
        for slots in g.program.plan_slots:
            total = np.ones(g.rows)
            for kind, ref in slots:
                value = g.cards[:, ref] if kind == "card" else g.slot_vals[ref]
                total = np.where(total == 0.0, 0.0, total * value)
            best = np.where(total < best, total, best)
        for idx, row in g.item_rows:
            results[idx] = best[row]
    return results
