"""Piecewise function machinery for degree sequences.

SafeBound represents a (compressed) degree sequence as a right-continuous
step function on the continuous rank domain ``(0, d]`` and its cumulative
degree sequence as a continuous, nondecreasing piecewise-linear function on
``[0, d]``.  This module implements both representations and every operation
Algorithm 2 of the paper needs:

* evaluation, integration, restriction;
* multiplication of step functions (alpha steps);
* pseudo-inversion and composition of piecewise-linear functions, and
  composition of a step function with a monotone piecewise-linear inner
  function (beta steps);
* pointwise min / max / sum of CDSs (predicate conditioning);
* the least concave majorant, which restores concavity after max / sum;
* truncation of a CDS at a total (undeclared-column fallback, Sec 3.6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PiecewiseConstant",
    "PiecewiseLinear",
    "concave_envelope",
    "concave_max",
    "pointwise_min",
    "pointwise_max",
    "pointwise_sum",
]

# Relative tolerance used when comparing breakpoints and slopes.
_EPS = 1e-9


def _interp_core(
    x: np.ndarray,
    x0: np.ndarray,
    x1: np.ndarray,
    y0: np.ndarray,
    y1: np.ndarray,
    lo_x,
    lo_y,
    hi_x,
    hi_y,
) -> np.ndarray:
    """Linear interpolation between gathered bracketing breakpoints.

    This is the single source of truth for evaluating a piecewise-linear
    function: both the per-object path (:meth:`PiecewiseLinear.__call__`)
    and the batched array kernel (``core.arraykernel``) feed it the same
    gathered operands, so the two kernels produce bit-identical floats.
    Outside ``[lo_x, hi_x]`` the function clamps to the endpoint values.
    """
    dx = x1 - x0
    slope = (y1 - y0) / np.where(dx > 0, dx, 1.0)
    out = y0 + slope * (x - x0)
    out = np.where(x <= lo_x, lo_y, out)
    out = np.where(x >= hi_x, hi_y, out)
    return out


def _pseudo_inverse_core(
    values: np.ndarray,
    x0: np.ndarray,
    x1: np.ndarray,
    y0: np.ndarray,
    y1: np.ndarray,
    first_x,
    first_y,
    last_x,
    last_y,
) -> np.ndarray:
    """Shared arithmetic of the pseudo-inverse ``F^{-1}(v)`` given gathered
    bracketing breakpoints (see :meth:`PiecewiseLinear.inverse_values`).
    Used verbatim by the array kernel for bit-identical batched inversion.
    """
    dy = y1 - y0
    frac = np.where(dy > _EPS, (values - y0) / np.where(dy > _EPS, dy, 1.0), 0.0)
    frac = np.clip(frac, 0.0, 1.0)
    out = x0 + frac * (x1 - x0)
    out = np.where(values <= first_y + _EPS, first_x, out)
    out = np.where(values > last_y, last_x, out)
    return out


def _sequential_sum(values: np.ndarray) -> float:
    """Strict left-to-right summation (``np.add.reduceat``).

    ``np.dot``/``np.sum`` may reassociate (BLAS, pairwise summation), which
    would make a segmented batch sum differ from the per-object sum in the
    last ulp.  ``reduceat`` reduces sequentially, and the array kernel uses
    the same ufunc for its per-segment sums, so integrals agree bitwise.
    """
    if not len(values):
        return 0.0
    return float(np.add.reduceat(values, np.array([0], dtype=np.intp))[0])


def _dedupe_breakpoints(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop zero-width segments produced by floating-point noise."""
    if len(xs) <= 1:
        return xs, ys
    keep = np.empty(len(xs), dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(xs) > _EPS
    # Always keep the final breakpoint so the domain end survives.
    if not keep[-1]:
        keep[-1] = True
        idx = np.flatnonzero(keep)
        prev = idx[-2]
        if xs[-1] - xs[prev] <= _EPS:
            keep[prev] = prev == 0
    return xs[keep], ys[keep]


@dataclass(frozen=True)
class PiecewiseConstant:
    """A right-continuous step function on ``(0, xs[-1]]``.

    ``ys[j]`` is the value on the half-open interval ``(xs[j-1], xs[j]]``
    (with the convention ``xs[-1] == 0`` before the first edge).  Outside
    the domain the function is defined to be 0; this matches the worst-case
    instance, where join values past the last rank have multiplicity 0.
    """

    xs: np.ndarray  # right edges of segments, strictly increasing
    ys: np.ndarray  # value on each segment

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.shape != ys.shape:
            raise ValueError("xs and ys must have the same length")
        if len(xs) and np.any(np.diff(xs) <= 0):
            raise ValueError("segment edges must be strictly increasing")
        if len(xs) and xs[0] <= 0:
            raise ValueError("first segment edge must be positive")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def empty() -> "PiecewiseConstant":
        """The everywhere-zero function with an empty domain."""
        return PiecewiseConstant(np.array([]), np.array([]))

    @staticmethod
    def constant(value: float, domain_end: float) -> "PiecewiseConstant":
        if domain_end <= 0:
            return PiecewiseConstant.empty()
        return PiecewiseConstant(np.array([float(domain_end)]), np.array([float(value)]))

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def domain_end(self) -> float:
        return float(self.xs[-1]) if len(self.xs) else 0.0

    @property
    def num_segments(self) -> int:
        return len(self.xs)

    def __call__(self, x):
        """Evaluate at ``x`` (scalar or array); 0 outside ``(0, domain_end]``."""
        x_arr = np.asarray(x, dtype=float)
        if not len(self.xs):
            out = np.zeros_like(x_arr)
            return float(out) if np.isscalar(x) else out
        idx = np.searchsorted(self.xs, x_arr, side="left")
        inside = (x_arr > 0) & (x_arr <= self.domain_end + _EPS)
        idx = np.clip(idx, 0, len(self.ys) - 1)
        out = np.where(inside, self.ys[idx], 0.0)
        return float(out) if np.isscalar(x) else out

    def integral(self) -> float:
        """Total mass: sum of ``value * width`` over all segments.

        For a degree sequence this is the cardinality of the relation.

        Summed strictly left to right (never ``np.dot``): the batched array
        kernel integrates whole batches with segmented ``reduceat`` sums,
        and both kernels must agree bitwise.
        """
        if not len(self.xs):
            return 0.0
        widths = np.diff(np.concatenate(([0.0], self.xs)))
        return _sequential_sum(widths * self.ys)

    def is_nonincreasing(self, tol: float = 1e-6) -> bool:
        """True when the step values never increase (valid degree sequence)."""
        if len(self.ys) <= 1:
            return True
        return bool(np.all(np.diff(self.ys) <= tol * (1.0 + np.abs(self.ys[:-1]))))

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def simplify(self) -> "PiecewiseConstant":
        """Merge adjacent segments with (numerically) equal values."""
        if len(self.xs) <= 1:
            return self
        keep = np.empty(len(self.xs), dtype=bool)
        keep[-1] = True
        keep[:-1] = np.abs(np.diff(self.ys)) > _EPS * (1.0 + np.abs(self.ys[:-1]))
        return PiecewiseConstant(self.xs[keep], self.ys[keep])

    def restrict(self, domain_end: float) -> "PiecewiseConstant":
        """Restrict the domain to ``(0, domain_end]``."""
        if domain_end <= 0 or not len(self.xs):
            return PiecewiseConstant.empty()
        if domain_end >= self.domain_end - _EPS:
            return self
        cut = int(np.searchsorted(self.xs, domain_end, side="left"))
        xs = np.concatenate((self.xs[:cut], [domain_end]))
        ys = self.ys[: cut + 1].copy()
        return PiecewiseConstant(*_dedupe_breakpoints(xs, ys))

    def scale(self, factor: float) -> "PiecewiseConstant":
        return PiecewiseConstant(self.xs.copy(), self.ys * factor)

    def multiply(self, other: "PiecewiseConstant") -> "PiecewiseConstant":
        """Pointwise product; the domain is the intersection of domains.

        This is the alpha step of Algorithm 2: intersecting unary relations
        multiplies the multiplicity of each join value.  Works directly on
        the merged breakpoint set: every merged edge falls inside (or on the
        right edge of) exactly one segment of each factor, so one
        ``searchsorted`` per factor yields all segment values at once.
        """
        end = min(self.domain_end, other.domain_end)
        if end <= 0:
            return PiecewiseConstant.empty()
        edges = np.unique(np.concatenate((self.xs, other.xs)))
        edges = edges[edges <= end + _EPS]
        if not len(edges) or edges[-1] < end - _EPS:
            edges = np.concatenate((edges, [end]))
        ia = np.minimum(np.searchsorted(self.xs, edges, side="left"), len(self.ys) - 1)
        ib = np.minimum(np.searchsorted(other.xs, edges, side="left"), len(other.ys) - 1)
        vals = self.ys[ia] * other.ys[ib]
        return PiecewiseConstant(edges, vals).simplify()

    def cumulative(self) -> "PiecewiseLinear":
        """The running integral, a continuous piecewise-linear function."""
        if not len(self.xs):
            return PiecewiseLinear(np.array([0.0]), np.array([0.0]))
        widths = np.diff(np.concatenate(([0.0], self.xs)))
        ys = np.concatenate(([0.0], np.cumsum(widths * self.ys)))
        xs = np.concatenate(([0.0], self.xs))
        return PiecewiseLinear(xs, ys)

    def compose_with(self, inner: "PiecewiseLinear") -> "PiecewiseConstant":
        """Return ``x -> self(inner(x))`` for a nondecreasing ``inner``.

        Used by beta steps: ``f_A(F_l^{-1}(F_0(x)))``.  Values of ``inner``
        outside this function's domain map to 0.
        """
        if not len(self.xs) or len(inner.xs) < 2:
            return PiecewiseConstant.empty()
        inner_end = inner.domain_end
        # Breakpoints of the composition: inner's own breakpoints plus the
        # preimages of this function's segment edges under inner.
        candidates = [inner.xs[1:]]
        lo_y, hi_y = inner.ys[0], inner.ys[-1]
        interior = self.xs[(self.xs > lo_y + _EPS) & (self.xs < hi_y - _EPS)]
        if len(interior):
            candidates.append(inner.inverse_values(interior))
        edges = np.unique(np.concatenate(candidates))
        edges = edges[(edges > _EPS) & (edges <= inner_end + _EPS)]
        if not len(edges) or edges[-1] < inner_end - _EPS:
            edges = np.concatenate((edges, [inner_end]))
        mids = (np.concatenate(([0.0], edges[:-1])) + edges) / 2.0
        inner_vals = inner(mids)
        idx = np.minimum(
            np.searchsorted(self.xs, inner_vals, side="left"), len(self.ys) - 1
        )
        inside = (inner_vals > 0) & (inner_vals <= self.domain_end + _EPS)
        vals = np.where(inside, self.ys[idx], 0.0)
        return PiecewiseConstant(edges, vals).simplify()


@dataclass(frozen=True)
class PiecewiseLinear:
    """A continuous piecewise-linear function given by its breakpoints.

    Defined on ``[xs[0], xs[-1]]``; evaluation clamps outside the domain
    (a CDS is flat before rank 0 and after the last rank).
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.shape != ys.shape:
            raise ValueError("xs and ys must have the same length")
        if len(xs) == 0:
            raise ValueError("a piecewise-linear function needs >= 1 breakpoint")
        if np.any(np.diff(xs) < -_EPS):
            raise ValueError("breakpoints must be nondecreasing")
        xs, ys = _dedupe_breakpoints(xs, ys)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zero() -> "PiecewiseLinear":
        return PiecewiseLinear(np.array([0.0]), np.array([0.0]))

    @staticmethod
    def from_breakpoints(points: list[tuple[float, float]]) -> "PiecewiseLinear":
        xs = np.array([p[0] for p in points], dtype=float)
        ys = np.array([p[1] for p in points], dtype=float)
        return PiecewiseLinear(xs, ys)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def domain_end(self) -> float:
        return float(self.xs[-1])

    @property
    def total(self) -> float:
        """The final value; for a CDS this is the relation cardinality."""
        return float(self.ys[-1])

    @property
    def num_segments(self) -> int:
        return max(len(self.xs) - 1, 0)

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        xs, ys = self.xs, self.ys
        if len(xs) > 1:
            i1 = np.clip(np.searchsorted(xs, x_arr, side="right"), 1, len(xs) - 1)
            i0 = i1 - 1
        else:
            i1 = i0 = np.zeros_like(x_arr, dtype=np.intp)
        out = _interp_core(
            x_arr, xs[i0], xs[i1], ys[i0], ys[i1], xs[0], ys[0], xs[-1], ys[-1]
        )
        return float(out) if np.isscalar(x) else out

    def is_nondecreasing(self, tol: float = 1e-6) -> bool:
        return bool(np.all(np.diff(self.ys) >= -tol * (1.0 + np.abs(self.ys[:-1]))))

    def is_concave(self, tol: float = 1e-6) -> bool:
        """True when slopes never increase (valid compressed CDS shape)."""
        dx = np.diff(self.xs)
        dy = np.diff(self.ys)
        slopes = dy / np.where(dx > 0, dx, 1.0)
        if len(slopes) <= 1:
            return True
        scale = 1.0 + np.abs(slopes[:-1])
        return bool(np.all(np.diff(slopes) <= tol * scale))

    def dominates(self, other: "PiecewiseLinear", tol: float = 1e-6) -> bool:
        """True when ``self(x) >= other(x)`` on the union of breakpoints."""
        grid = np.unique(np.concatenate((self.xs, other.xs)))
        diff = self(grid) - other(grid)
        return bool(np.all(diff >= -tol * (1.0 + np.abs(other(grid)))))

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def delta(self) -> PiecewiseConstant:
        """The derivative step function (the DS associated with this CDS).

        Memoised: beta steps re-derive the same CDS on every bound call, so
        the step function is computed once per (immutable) instance.
        """
        cached = getattr(self, "_delta", None)
        if cached is None:
            if len(self.xs) < 2:
                cached = PiecewiseConstant.empty()
            else:
                slopes = np.diff(self.ys) / np.diff(self.xs)
                cached = PiecewiseConstant(self.xs[1:], slopes).simplify()
            object.__setattr__(self, "_delta", cached)
        return cached

    def inverse_values(self, values: np.ndarray) -> np.ndarray:
        """Pseudo-inverse ``F^{-1}(v) = min { x : F(x) >= v }`` (vectorised).

        Requires a nondecreasing function.  Values above the total clamp to
        the domain end; values below the start clamp to the start.
        """
        values = np.asarray(values, dtype=float)
        ys = self.ys
        xs = self.xs
        idx = np.searchsorted(ys, values, side="left")
        idx = np.clip(idx, 1, len(ys) - 1)
        return _pseudo_inverse_core(
            values, xs[idx - 1], xs[idx], ys[idx - 1], ys[idx], xs[0], ys[0], xs[-1], ys[-1]
        )

    def inverse(self) -> "PiecewiseLinear":
        """The pseudo-inverse as a piecewise-linear function of the value.

        Flat runs (e.g. the constant tail segment ValidCompress appends)
        must invert to the *leftmost* x of the run — ``F^{-1}(v) = min
        { x : F(x) >= v }`` — otherwise beta steps would evaluate child
        messages at inflated ranks and the bound could undershoot.

        Memoised: every alpha/beta step inverts its CDS, and the same
        conditioned CDSs are reused across all subqueries of a workload.
        """
        cached = getattr(self, "_inverse", None)
        if cached is None:
            ys = self.ys
            xs = self.xs
            keep = np.concatenate(([True], np.diff(ys) > _EPS))
            cached = PiecewiseLinear(ys[keep], xs[keep])
            object.__setattr__(self, "_inverse", cached)
        return cached

    def compose(self, inner: "PiecewiseLinear") -> "PiecewiseLinear":
        """Return ``x -> self(inner(x))`` for a nondecreasing ``inner``."""
        candidates = [inner.xs]
        lo_y, hi_y = inner.ys[0], inner.ys[-1]
        interior = self.xs[(self.xs > lo_y + _EPS) & (self.xs < hi_y - _EPS)]
        if len(interior):
            candidates.append(inner.inverse_values(interior))
        xs = np.unique(np.concatenate(candidates))
        ys = self(inner(xs))
        return PiecewiseLinear(xs, ys)

    def restrict(self, domain_end: float) -> "PiecewiseLinear":
        if domain_end >= self.domain_end - _EPS:
            return self
        domain_end = max(domain_end, float(self.xs[0]))
        cut = int(np.searchsorted(self.xs, domain_end, side="left"))
        xs = np.concatenate((self.xs[:cut], [domain_end]))
        ys = np.concatenate((self.ys[:cut], [self(domain_end)]))
        return PiecewiseLinear(xs, ys)

    def truncate_total(self, total: float) -> "PiecewiseLinear":
        """Cap the CDS at ``total`` and cut the domain where the cap binds.

        Used to reconcile join columns of one relation whose conditioned
        totals differ, and for the undeclared-join-column fallback.
        """
        if total >= self.total - _EPS:
            return self
        if total <= self.ys[0] + _EPS:
            return PiecewiseLinear(self.xs[:1], np.minimum(self.ys[:1], total))
        x_cut = float(self.inverse_values(np.array([total]))[0])
        keep = self.xs < x_cut - _EPS
        xs = np.concatenate((self.xs[keep], [x_cut]))
        ys = np.concatenate((self.ys[keep], [total]))
        return PiecewiseLinear(xs, np.minimum(ys, total))

    def scale(self, factor: float) -> "PiecewiseLinear":
        return PiecewiseLinear(self.xs.copy(), self.ys * factor)


# ----------------------------------------------------------------------
# Pointwise combinations of CDSs
# ----------------------------------------------------------------------
def _combined_grid(funcs: list[PiecewiseLinear], domain_end: float) -> np.ndarray:
    pieces = [f.xs[f.xs <= domain_end + _EPS] for f in funcs]
    grid = np.unique(np.concatenate(pieces + [np.array([0.0, domain_end])]))
    return grid[(grid >= -_EPS) & (grid <= domain_end + _EPS)]


def _crossings(a: PiecewiseLinear, b: PiecewiseLinear, grid: np.ndarray) -> np.ndarray:
    """X-coordinates where two piecewise-linear functions cross between
    consecutive grid points (needed for exact pointwise min / max)."""
    va, vb = a(grid), b(grid)
    d = va - vb
    sign_change = d[:-1] * d[1:] < -_EPS
    if not np.any(sign_change):
        return np.array([])
    i = np.flatnonzero(sign_change)
    x0, x1 = grid[i], grid[i + 1]
    d0, d1 = d[i], d[i + 1]
    return x0 + (x1 - x0) * (d0 / (d0 - d1))


def pointwise_min(funcs: list[PiecewiseLinear]) -> PiecewiseLinear:
    """Exact pointwise minimum (conjunction of predicates, Sec 3.3)."""
    if not funcs:
        raise ValueError("need at least one function")
    if len(funcs) == 1:
        return funcs[0]
    end = min(f.domain_end for f in funcs)
    grid = _combined_grid(funcs, end)
    for i in range(len(funcs)):
        for j in range(i + 1, len(funcs)):
            cross = _crossings(funcs[i], funcs[j], grid)
            if len(cross):
                grid = np.unique(np.concatenate((grid, cross)))
    ys = np.min(np.vstack([f(grid) for f in funcs]), axis=0)
    return PiecewiseLinear(grid, ys)


def pointwise_max(funcs: list[PiecewiseLinear]) -> PiecewiseLinear:
    """Exact pointwise maximum (default MCV sequence, Eq. 3 on CDSs)."""
    if not funcs:
        raise ValueError("need at least one function")
    if len(funcs) == 1:
        return funcs[0]
    end = max(f.domain_end for f in funcs)
    grid = _combined_grid(funcs, end)
    for i in range(len(funcs)):
        for j in range(i + 1, len(funcs)):
            cross = _crossings(funcs[i], funcs[j], grid)
            if len(cross):
                grid = np.unique(np.concatenate((grid, cross)))
    # Beyond a CDS's own domain it stays flat at its total (np.interp clamps),
    # which is exactly the CDS of the underlying (finished) sequence.
    ys = np.max(np.vstack([f(grid) for f in funcs]), axis=0)
    return PiecewiseLinear(grid, ys)


def concave_max(funcs: list[PiecewiseLinear]) -> PiecewiseLinear:
    """The least concave majorant of the pointwise max of *concave* inputs.

    Equals ``concave_envelope(pointwise_max(funcs))`` but needs no crossing
    points: between consecutive union-grid points every input is linear, so
    their max is convex there and lies below the chord through the cell
    endpoints — the upper concave hull of the endpoint samples already
    dominates it.  This is the hot path of group compression (every cluster
    representative is a max of concave CDSs).
    """
    if not funcs:
        raise ValueError("need at least one function")
    if len(funcs) == 1:
        return concave_envelope(funcs[0])
    end = max(f.domain_end for f in funcs)
    grid = _combined_grid(funcs, end)
    ys = np.max(np.vstack([f(grid) for f in funcs]), axis=0)
    return concave_envelope(PiecewiseLinear(grid, ys))


def pointwise_sum(funcs: list[PiecewiseLinear]) -> PiecewiseLinear:
    """Pointwise sum (disjunction / IN predicates, Sec 3.2).

    The domain extends to the *sum* of the children's domains: a
    disjunction can select up to ``sum_l d_l`` distinct join values, and
    every child CDS is flat (at its total) past its own domain, so the sum
    correctly plateaus at the combined total.
    """
    if not funcs:
        raise ValueError("need at least one function")
    if len(funcs) == 1:
        return funcs[0]
    end = sum(f.domain_end for f in funcs)
    grid = _combined_grid(funcs, end)
    ys = np.sum(np.vstack([f(grid) for f in funcs]), axis=0)
    return PiecewiseLinear(grid, ys)


def concave_envelope(func: PiecewiseLinear) -> PiecewiseLinear:
    """The least concave majorant (upper convex hull of the breakpoints).

    Restores the "valid degree sequence" shape after pointwise max / sum
    while still dominating the input and preserving the endpoint values, so
    Theorem 3.1 continues to apply.
    """
    xs, ys = func.xs, func.ys
    if len(xs) <= 2:
        return func
    hull_x = [xs[0]]
    hull_y = [ys[0]]
    for x, y in zip(xs[1:], ys[1:]):
        hull_x.append(float(x))
        hull_y.append(float(y))
        # Pop middle points that lie below the chord (upper hull).
        while len(hull_x) >= 3:
            x0, x1, x2 = hull_x[-3], hull_x[-2], hull_x[-1]
            y0, y1, y2 = hull_y[-3], hull_y[-2], hull_y[-1]
            # keep x1 only if it is strictly above segment (x0,y0)-(x2,y2)
            if x2 - x0 <= _EPS:
                cross = max(y0, y2)
            else:
                cross = y0 + (y2 - y0) * (x1 - x0) / (x2 - x0)
            if y1 <= cross + _EPS:
                del hull_x[-2]
                del hull_y[-2]
            else:
                break
    return PiecewiseLinear(np.array(hull_x), np.array(hull_y))
