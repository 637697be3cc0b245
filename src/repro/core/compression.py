"""Compression of degree sequences.

Implements the paper's ``ValidCompress`` (Algorithm 1) plus the baseline
segmentation strategies the micro-benchmarks compare against (Fig 9b):

* ``valid_compress`` — the paper's one-pass heuristic: dominate the
  *cumulative* degree sequence, preserve the cardinality, and bound every
  segment's contribution to the self-join error by ``c * SJ``.
* ``equi_depth_compress`` — equal-cardinality segment boundaries.
* ``exponential_compress`` — geometric (power-of-two) rank boundaries.
* ``dominate_ds_compress`` — the pre-SafeBound approach from [4]: dominate
  the DS itself with a step function, which inflates the cardinality.

All functions return the CDS as a :class:`PiecewiseLinear`; the compressed
DS is its :meth:`delta`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .degree_sequence import DegreeSequence
from .piecewise import PiecewiseLinear

__all__ = [
    "valid_compress",
    "valid_compress_runs",
    "RunListCompressor",
    "equi_depth_compress",
    "exponential_compress",
    "dominate_ds_compress",
    "compress_from_ranks",
    "reduce_cds_segments",
    "self_join_bound",
    "relative_self_join_error",
]


def valid_compress(ds: DegreeSequence, accuracy: float = 0.01) -> PiecewiseLinear:
    """Algorithm 1 (ValidCompress) of the paper on a :class:`DegreeSequence`
    (see :func:`valid_compress_runs`)."""
    return valid_compress_runs(ds.freqs.tolist(), ds.counts.tolist(), accuracy)


def valid_compress_runs(
    freqs: Sequence[int], counts: Sequence[int], accuracy: float = 0.01
) -> PiecewiseLinear:
    """Algorithm 1 (ValidCompress) of the paper, run-length accelerated.

    ``freqs`` are a degree sequence's distinct frequencies in strictly
    descending order and ``counts[i]`` how many values have ``freqs[i]``
    (positive Python ints, the run-length form of :class:`DegreeSequence`).

    Walks the exact degree sequence rank by rank, extending the current
    linear segment of the compressed CDS; a new segment starts whenever the
    accumulated self-join error of the current one would exceed
    ``accuracy * SJ`` where ``SJ = sum_i f(i)^2``.  Runs of equal
    frequencies are processed in closed form, so the cost is linear in the
    number of *runs*, not ranks.

    The result is a *valid* compression (Def 3.3): nonincreasing associated
    DS, CDS domination, and exact cardinality preservation.
    """
    if not len(freqs):
        return PiecewiseLinear.zero()
    d = float(sum(counts))
    cardinality = float(sum(f * c for f, c in zip(freqs, counts)))
    threshold = accuracy * float(sum(f * f * c for f, c in zip(freqs, counts)))

    # Breakpoints of the compressed CDS under construction.
    bp_x = [0.0]
    bp_y = [0.0]
    slope = float(freqs[0])  # a_1 = f(1)
    seg_start_x = 0.0
    seg_start_y = 0.0
    m = 0.0  # current right end of the open segment
    eps = 0.0  # accumulated self-join error of the open segment

    for freq, count in zip(freqs, counts):
        freq = float(freq)
        remaining = float(count)
        while remaining > 0:
            # Error added per rank while the slope stays `slope`:
            #   a_k^2 * (f/a_k) - f^2 = f * (a_k - f)
            inc = freq * (slope - freq)
            if inc <= 0.0:
                # No error accrues (slope == freq); absorb the whole run.
                m += remaining * (freq / slope)
                remaining = 0.0
                continue
            budget = threshold - eps
            can_take = float(math.floor(budget / inc)) if budget > 0 else 0.0
            if can_take >= remaining:
                eps += remaining * inc
                m += remaining * (freq / slope)
                remaining = 0.0
            else:
                take = max(can_take, 0.0)
                if take > 0:
                    eps += take * inc
                    m += take * (freq / slope)
                    remaining -= take
                # Start a new segment at the current frequency (Alg 1 line 9).
                seg_start_y = seg_start_y + slope * (m - seg_start_x)
                seg_start_x = m
                bp_x.append(seg_start_x)
                bp_y.append(seg_start_y)
                slope = freq
                eps = 0.0

    # Close the final linear segment; by the loop invariant its endpoint is
    # exactly (m, cardinality).
    end_y = seg_start_y + slope * (m - seg_start_x)
    bp_x.append(m)
    bp_y.append(end_y)
    # Final constant segment (m, d] at height |R| (Alg 1, line 14).
    if m < d - 1e-12:
        bp_x.append(d)
        bp_y.append(cardinality)
    else:
        bp_y[-1] = cardinality
    return PiecewiseLinear(np.array(bp_x), np.array(bp_y))


class RunListCompressor:
    """:func:`valid_compress_runs` computed once per distinct run list.

    An offline build compresses many identical sequences (for instance,
    every MCV value whose rows hit distinct join values has the run list
    ``[(1, k)]``), so the builder keeps one instance for the whole build
    and hands the same compressed CDS to every family that asks.  Scope an
    instance to one build: it holds every CDS it has produced.
    """

    def __init__(self, accuracy: float) -> None:
        self.accuracy = accuracy
        self._done: dict[tuple[tuple[int, ...], tuple[int, ...]], PiecewiseLinear] = {}

    def __call__(self, freqs: tuple[int, ...], counts: tuple[int, ...]) -> PiecewiseLinear:
        key = (freqs, counts)
        cds = self._done.get(key)
        if cds is None:
            cds = self._done[key] = valid_compress_runs(freqs, counts, self.accuracy)
        return cds

    def degree_sequence(self, ds: DegreeSequence) -> PiecewiseLinear:
        return self(tuple(ds.freqs.tolist()), tuple(ds.counts.tolist()))


def compress_from_ranks(ds: DegreeSequence, dividers: np.ndarray) -> PiecewiseLinear:
    """Valid compression with user-chosen integer rank dividers.

    Each segment ``(m_{l-1}, m_l]`` of the output CDS is the chord of the
    exact CDS between its endpoints.  Because the exact CDS is concave, the
    chord lies below it — so to *dominate* we instead use, on each segment,
    the line through the left endpoint with the slope of the first rank in
    the segment, clipped at the exact segment mass; equivalently we emulate
    Algorithm 1 restarting a segment exactly at each divider.
    """
    expanded = ds.expand().astype(float)
    d = len(expanded)
    if d == 0:
        return PiecewiseLinear.zero()
    dividers = np.unique(np.clip(np.asarray(dividers, dtype=int), 1, d))
    if not len(dividers) or dividers[-1] != d:
        dividers = np.concatenate((dividers, [d]))
    bp_x = [0.0]
    bp_y = [0.0]
    m = 0.0
    y = 0.0
    start = 0
    for div in dividers:
        seg = expanded[start:div]
        if not len(seg):
            continue
        slope = seg[0]
        length = float(np.sum(seg / slope))
        m += length
        y += float(np.sum(seg))
        bp_x.append(m)
        bp_y.append(y)
        start = div
    if m < d - 1e-12:
        bp_x.append(float(d))
        bp_y.append(float(ds.cardinality))
    return PiecewiseLinear(np.array(bp_x), np.array(bp_y))


def equi_depth_compress(ds: DegreeSequence, num_segments: int) -> PiecewiseLinear:
    """Baseline: dividers at equal cumulative-cardinality quantiles."""
    if ds.num_distinct == 0:
        return PiecewiseLinear.zero()
    expanded = ds.expand().astype(float)
    cum = np.cumsum(expanded)
    targets = np.linspace(0, cum[-1], num_segments + 1)[1:]
    dividers = np.searchsorted(cum, targets, side="left") + 1
    return compress_from_ranks(ds, dividers)


def exponential_compress(ds: DegreeSequence, num_segments: int) -> PiecewiseLinear:
    """Baseline: geometric rank boundaries 1, 2, 4, ... up to d."""
    d = ds.num_distinct
    if d == 0:
        return PiecewiseLinear.zero()
    ratio = max(d, 2) ** (1.0 / max(num_segments, 1))
    dividers = np.unique(np.ceil(ratio ** np.arange(1, num_segments + 1)).astype(int))
    return compress_from_ranks(ds, dividers)


def dominate_ds_compress(ds: DegreeSequence, dividers: np.ndarray) -> PiecewiseLinear:
    """The approach of [4]: a step function dominating the DS itself.

    On each segment the compressed DS takes the segment's *maximum*
    frequency, which inflates the relation's apparent cardinality — the
    weakness Fig 9b quantifies.  Returned as the corresponding CDS so all
    compressions share one interface.
    """
    expanded = ds.expand().astype(float)
    d = len(expanded)
    if d == 0:
        return PiecewiseLinear.zero()
    dividers = np.unique(np.clip(np.asarray(dividers, dtype=int), 1, d))
    if not len(dividers) or dividers[-1] != d:
        dividers = np.concatenate((dividers, [d]))
    bp_x = [0.0]
    bp_y = [0.0]
    start = 0
    y = 0.0
    for div in dividers:
        seg = expanded[start:div]
        if not len(seg):
            continue
        level = seg[0]  # max frequency in the segment (sequence is sorted)
        y += level * len(seg)
        bp_x.append(float(div))
        bp_y.append(y)
        start = div
    return PiecewiseLinear(np.array(bp_x), np.array(bp_y))


def reduce_cds_segments(cds: PiecewiseLinear, max_segments: int) -> PiecewiseLinear:
    """Upper-approximate a concave CDS with at most ``max_segments`` pieces.

    Keeps an evenly spread subset of the original segment *lines* (each is a
    supporting line of the concave function, hence pointwise above it) and
    takes their lower envelope, which is again concave, dominates the input
    and preserves both endpoints.  Used to cap the size of derived CDSs
    (pointwise maxima, conditioned defaults) that Algorithm 1 never touched.
    """
    if cds.num_segments <= max_segments or max_segments < 1:
        return cds
    xs, ys = cds.xs, cds.ys
    dx = np.diff(xs)
    slopes = np.diff(ys) / np.where(dx > 0, dx, 1.0)
    # Pick an even spread of segment indices, always keeping the first and
    # last segments so the endpoints are preserved exactly.
    pick = np.unique(np.round(np.linspace(0, len(slopes) - 1, max_segments)).astype(int))
    # Drop picks with (numerically) duplicate slopes; parallel lines never
    # both appear on a lower envelope.
    slopes_picked = slopes[pick]
    keep = np.concatenate(([True], np.abs(np.diff(slopes_picked)) > 1e-12))
    pick = pick[keep]
    # Line i: y = ys[pick_i] + slopes[pick_i] * (x - xs[pick_i]).
    intercepts = ys[pick] - slopes[pick] * xs[pick]
    sl = slopes[pick]
    bx = [float(xs[0])]
    by = [float(sl[0] * xs[0] + intercepts[0])]
    for i in range(len(pick) - 1):
        x_star = (intercepts[i + 1] - intercepts[i]) / (sl[i] - sl[i + 1])
        x_star = float(np.clip(x_star, bx[-1], xs[-1]))
        bx.append(x_star)
        by.append(float(sl[i] * x_star + intercepts[i]))
    bx.append(float(xs[-1]))
    by.append(float(sl[-1] * xs[-1] + intercepts[-1]))
    return PiecewiseLinear(np.array(bx), np.array(by))


def self_join_bound(cds: PiecewiseLinear) -> float:
    """DSB of the self-join under a compressed CDS: integral of ``fhat^2``.

    ``integral(slope^2 dx) = sum(dy^2 / dx)`` over the CDS breakpoints.
    """
    if len(cds.xs) < 2:
        return 0.0
    dx = np.diff(cds.xs)
    dy = np.diff(cds.ys)
    good = dx > 0
    return float(np.sum(dy[good] ** 2 / dx[good]))


def relative_self_join_error(ds: DegreeSequence, cds: PiecewiseLinear) -> float:
    """``(approx self-join DSB) / (exact self-join DSB) - 1``.

    The error metric of Theorem 3.4 and the y-axis of Fig 9b.
    """
    exact = float(ds.self_join_size)
    if exact == 0:
        return 0.0
    return self_join_bound(cds) / exact - 1.0
