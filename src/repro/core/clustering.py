"""Group compression of CDS sets (Sec 4.1 of the paper).

A relation accumulates thousands of conditioned CDSs (one per MCV value,
histogram bucket and trigram — Example 3.2 counts 18,522 for ``Title``).
Instead of storing each, SafeBound clusters "similar" CDSs under the
self-join distance and keeps only the pointwise maximum of each cluster.

The paper argues for *complete-linkage* hierarchical clustering: it avoids
the chain-shaped clusters of single linkage where one dominating CDS ruins
the maximum for everyone else.  Fig 9c compares the three methods below.
"""

from __future__ import annotations

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform

from .compression import self_join_bound
from .piecewise import PiecewiseLinear, concave_max

__all__ = [
    "self_join_distance",
    "pairwise_sj_distance_matrix",
    "distinct_members",
    "cluster_cds",
    "group_maxima",
]


def _sj_of_max(xs1, ys1, xs2, ys2) -> float:
    """Self-join bound of ``max(F1, F2)`` computed directly on arrays."""
    grid = np.unique(np.concatenate((xs1, xs2)))
    v1 = np.interp(grid, xs1, ys1)
    v2 = np.interp(grid, xs2, ys2)
    d = v1 - v2
    crossing = d[:-1] * d[1:] < 0
    if crossing.any():
        i = np.flatnonzero(crossing)
        x0, x1 = grid[i], grid[i + 1]
        d0, d1 = d[i], d[i + 1]
        xc = x0 + (x1 - x0) * d0 / (d0 - d1)
        grid = np.sort(np.concatenate((grid, xc)))
        v1 = np.interp(grid, xs1, ys1)
        v2 = np.interp(grid, xs2, ys2)
    m = np.maximum(v1, v2)
    dx = np.diff(grid)
    dy = np.diff(m)
    good = dx > 0
    return float(np.sum(dy[good] ** 2 / dx[good]))


def _distance_from_sj(sj_max: float, sj1: float, sj2: float) -> float:
    d = 0.0
    d += sj_max / sj1 - 1.0 if sj1 > 0 else (1.0 if sj_max > 0 else 0.0)
    d += sj_max / sj2 - 1.0 if sj2 > 0 else (1.0 if sj_max > 0 else 0.0)
    return max(d, 0.0)


def self_join_distance(f1: PiecewiseLinear, f2: PiecewiseLinear) -> float:
    """The symmetric relative self-join error of replacing both CDSs by
    their pointwise maximum (Sec 4.1's distance metric)."""
    sj_max = _sj_of_max(f1.xs, f1.ys, f2.xs, f2.ys)
    return _distance_from_sj(sj_max, self_join_bound(f1), self_join_bound(f2))


def _interp_at(
    X: np.ndarray, Y: np.ndarray, Q: np.ndarray, idx: np.ndarray, m: int
) -> np.ndarray:
    """Row-wise linear interpolation of ``(X, Y)`` at ``Q`` given
    ``idx[b, k] = #{x in X[b] : x < or <= Q[b, k]}`` (either side works:
    at an exact breakpoint both give the breakpoint's value)."""
    lo = np.clip(idx - 1, 0, m - 1)
    hi = np.clip(idx, 0, m - 1)
    x0 = np.take_along_axis(X, lo, axis=1)
    x1 = np.take_along_axis(X, hi, axis=1)
    y0 = np.take_along_axis(Y, lo, axis=1)
    y1 = np.take_along_axis(Y, hi, axis=1)
    dx = x1 - x0
    t = np.where(dx > 0, (Q - x0) / np.where(dx > 0, dx, 1.0), 0.0)
    return y0 + t * (y1 - y0)


def _pad_breakpoints(cds_list: list[PiecewiseLinear]) -> tuple[np.ndarray, np.ndarray]:
    """Stack all breakpoint arrays into matrices, padding each row by
    repeating its last breakpoint (a flat extension, matching how a CDS is
    constant past its domain end)."""
    m = max(len(f.xs) for f in cds_list)
    X = np.empty((len(cds_list), m))
    Y = np.empty((len(cds_list), m))
    for b, f in enumerate(cds_list):
        k = len(f.xs)
        X[b, :k], Y[b, :k] = f.xs, f.ys
        X[b, k:], Y[b, k:] = f.xs[-1], f.ys[-1]
    return X, Y


def _sj_of_max_rows(
    G: np.ndarray, V1: np.ndarray, V2: np.ndarray
) -> np.ndarray:
    """Self-join bound of ``max(F1_b, F2_b)`` per row, given both functions
    sampled on a shared per-row grid ``G[b]`` that refines both breakpoint
    sets (so each is linear within every cell; crossings are solved
    per cell in closed form)."""
    g0, g1 = G[:, :-1], G[:, 1:]
    dx = g1 - g0
    live = dx > 0
    safe_dx = np.where(live, dx, 1.0)
    d0 = V1[:, :-1] - V2[:, :-1]
    d1 = V1[:, 1:] - V2[:, 1:]
    m0 = np.maximum(V1[:, :-1], V2[:, :-1])
    m1 = np.maximum(V1[:, 1:], V2[:, 1:])
    # Plain cells: the max is one of the two (linear) functions throughout.
    plain = np.where(live, (m1 - m0) ** 2 / safe_dx, 0.0)
    crossing = (d0 * d1 < 0) & live
    if not crossing.any():
        return plain.sum(axis=1)
    # Crossing cells split at xc where the difference hits zero; both
    # functions agree there, and the value follows F1's cell line.
    denom = np.where(crossing, d0 - d1, 1.0)
    frac = np.where(crossing, d0 / denom, 0.0)
    xc = g0 + dx * frac
    vc = V1[:, :-1] + (V1[:, 1:] - V1[:, :-1]) * frac
    left = xc - g0
    right = g1 - xc
    split = (
        np.where(left > 0, (vc - m0) ** 2 / np.where(left > 0, left, 1.0), 0.0)
        + np.where(right > 0, (m1 - vc) ** 2 / np.where(right > 0, right, 1.0), 0.0)
    )
    return np.where(crossing, split, plain).sum(axis=1)


def distinct_members(
    cds_list: list[PiecewiseLinear],
) -> tuple[list[PiecewiseLinear], np.ndarray]:
    """The distinct functions of a family, in first-occurrence order, and
    the index of each member among them.  Two members are the same when
    their breakpoint arrays are bit-identical, so any kernel gives both
    the same result."""
    index: dict[tuple[bytes, bytes], int] = {}
    distinct: list[PiecewiseLinear] = []
    which = np.empty(len(cds_list), dtype=np.intp)
    for k, f in enumerate(cds_list):
        u = index.setdefault((f.xs.tobytes(), f.ys.tobytes()), len(distinct))
        if u == len(distinct):
            distinct.append(f)
        which[k] = u
    return distinct, which


def _pair_distances(
    X: np.ndarray,
    Y: np.ndarray,
    sj: np.ndarray,
    I: np.ndarray,
    J: np.ndarray,
    chunk_pairs: int,
) -> np.ndarray:
    """:func:`self_join_distance` of rows ``I[k]`` and ``J[k]`` of the
    padded breakpoint matrices, for every ``k``.  Each result depends only
    on its two rows and the padded width, never on the other pairs."""
    m = X.shape[1]
    span = np.arange(1, 2 * m + 1)
    out = np.empty(len(I))
    for start in range(0, len(I), chunk_pairs):
        I_c = I[start : start + chunk_pairs]
        J_c = J[start : start + chunk_pairs]
        XI, YI, XJ, YJ = X[I_c], Y[I_c], X[J_c], Y[J_c]
        # One stable argsort yields the merged grid AND, via provenance
        # counts, the searchsorted indices of every grid point into both
        # breakpoint sets — no further sorting or interp calls needed.
        C = np.concatenate((XI, XJ), axis=1)
        order = np.argsort(C, axis=1, kind="stable")
        G = np.take_along_axis(C, order, axis=1)
        idx_j = np.cumsum(order >= m, axis=1)
        idx_i = span - idx_j
        Vi = _interp_at(XI, YI, G, idx_i, m)
        Vj = _interp_at(XJ, YJ, G, idx_j, m)
        sj_max = _sj_of_max_rows(G, Vi, Vj)
        with np.errstate(divide="ignore", invalid="ignore"):
            di = np.where(
                sj[I_c] > 0,
                sj_max / np.where(sj[I_c] > 0, sj[I_c], 1.0) - 1.0,
                (sj_max > 0).astype(float),
            )
            dj = np.where(
                sj[J_c] > 0,
                sj_max / np.where(sj[J_c] > 0, sj[J_c], 1.0) - 1.0,
                (sj_max > 0).astype(float),
            )
        out[start : start + len(I_c)] = np.maximum(di + dj, 0.0)
    return out


def pairwise_sj_distance_matrix(
    cds_list: list[PiecewiseLinear], chunk_pairs: int = 4096
) -> np.ndarray:
    """The full symmetric :func:`self_join_distance` matrix, vectorised.

    Equivalent to calling ``self_join_distance`` on every pair (up to
    floating-point reassociation) but orders of magnitude faster for the
    family sizes group compression feeds it: all pairs run through one
    batched merge-grid/interp/integration pass (chunked to bound memory at
    roughly ``chunk_pairs * max_breakpoints`` floats per intermediate).

    Families repeat functions (many MCV values share one compressed CDS),
    so each ordered pair of *distinct* members is evaluated once — plus
    one self-pair per member that occurs more than once — and the results
    are expanded back to every pair.  The kernel is not bit-symmetric, so
    entry ``(i, j)``, ``i < j``, always comes from the pair in the order
    ``(member i, member j)``, as if every pair were evaluated.
    """
    n = len(cds_list)
    dist = np.zeros((n, n))
    if n < 2:
        return dist
    distinct, which = distinct_members(cds_list)
    k = len(distinct)
    sj = np.array([self_join_bound(f) for f in distinct])
    X, Y = _pad_breakpoints(distinct)
    iu, ju = np.triu_indices(n, k=1)
    pairs, expand = np.unique(which[iu] * k + which[ju], return_inverse=True)
    row = _pair_distances(X, Y, sj, pairs // k, pairs % k, chunk_pairs)[expand]
    dist[iu, ju] = row
    dist[ju, iu] = row
    return dist


def cluster_cds(
    cds_list: list[PiecewiseLinear],
    num_clusters: int,
    method: str = "complete",
) -> np.ndarray:
    """Assign each CDS to one of ``num_clusters`` groups.

    ``method`` is ``"complete"`` (the paper's choice), ``"single"`` or
    ``"naive"`` (equal-size groups in cardinality order, the Fig 9c
    baseline).  Returns 0-based cluster labels.
    """
    n = len(cds_list)
    if n == 0:
        return np.array([], dtype=int)
    num_clusters = max(1, min(num_clusters, n))
    if num_clusters >= n:
        return np.arange(n)
    if method == "naive":
        order = np.argsort([f.total for f in cds_list], kind="stable")
        labels = np.empty(n, dtype=int)
        for rank, idx in enumerate(order):
            labels[idx] = rank * num_clusters // n
        return labels
    if method not in ("complete", "single"):
        raise ValueError(f"unknown clustering method: {method!r}")
    dist = pairwise_sj_distance_matrix(cds_list)
    condensed = squareform(dist, checks=False)
    tree = linkage(condensed, method=method)
    labels = fcluster(tree, t=num_clusters, criterion="maxclust") - 1
    return labels


def group_maxima(
    cds_list: list[PiecewiseLinear], labels: np.ndarray
) -> tuple[list[PiecewiseLinear], np.ndarray]:
    """Replace each cluster by the concave envelope of its pointwise max.

    Returns ``(representatives, remapped_labels)`` where
    ``representatives[remapped_labels[i]]`` dominates ``cds_list[i]``.
    """
    distinct, which = distinct_members(cds_list)
    reps: list[PiecewiseLinear] = []
    remap: dict[int, int] = {}
    out = np.empty(len(labels), dtype=int)
    for label in np.unique(labels):
        member_ids = which[labels == label]
        members = [distinct[u] for u in np.unique(member_ids)]
        if len(members) == 1 and len(member_ids) > 1:
            # concave_max treats a single input differently from several;
            # a cluster of copies stays on the several-input path.
            members *= 2
        # Members are concave CDSs, so the crossing-free concave max equals
        # the envelope of their exact pointwise max.
        rep = concave_max(members)
        remap[int(label)] = len(reps)
        reps.append(rep)
    for i, label in enumerate(labels):
        out[i] = remap[int(label)]
    return reps, out
