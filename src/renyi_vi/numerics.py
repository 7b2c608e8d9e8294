"""Deterministic numeric kernels shared by all modules.

Adaptive Gauss-Kronrod quadrature on finite, half-infinite and doubly
infinite intervals, a stable log-sum-exp, and, for the few-dimensional
matrices of the Gaussian closed forms, a Cholesky factor and its triangular
solve in Python floats.

One adaptive loop serves 1-D intervals and 2-D boxes alike: a tensor G7/K15
rule on every box of a transformed grid, QUADPACK's error estimate, and
splits of the worst boxes at the midpoint of their widest side. Each axis's
change of variables is applied to that axis's abscissae before the tensor
product, so a 2-D box maps 2 x 15 abscissae, not 225 nodes. A first pass
that meets the tolerance returns at once, so a well-seeded call costs one
vectorized pass over the integrand, in calls of at most 8192 nodes, plus
its set-up. :func:`integrate` and :func:`integrate_2d` only choose the axis
maps and seed the first boxes.

All functions are pure: results depend only on their arguments, node
placement is deterministic, and repeated calls are bit-for-bit identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "integrate",
    "integrate_2d",
    "log_sum_exp",
    "cholesky_rows",
    "cholesky_batch",
    "solve_lower",
]

# 15-point Kronrod rule with embedded 7-point Gauss rule on [-1, 1].
_NODES = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_W_KRONROD = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_W_GAUSS = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)

_MAX_WAVES = 200


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration request: interval, relative tolerance and refinement cap.

    ``lower``/``upper`` may be -inf/+inf; infinite ends are handled by a
    rational change of variables. ``breakpoints`` are optional interior
    abscissae (a tuple or a 1-D array, in any order, repeats allowed) used
    as initial panel edges, so that narrow features of the integrand are
    seen by the rule from the first pass.
    """

    lower: float
    upper: float
    rel_tol: float = 1e-6
    max_refinements: int = 4000
    breakpoints: tuple = ()

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"lower must be < upper, got [{self.lower}, {self.upper}]")
        if not (0.0 < self.rel_tol <= 1e-2):
            raise ValueError(f"rel_tol must lie in (0, 1e-2], got {self.rel_tol}")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be a positive integer")


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value, achieved-error estimate and convergence status."""

    value: float
    error: float
    converged: bool
    panels: int

    def __float__(self) -> float:
        return self.value


# A map is (fwd, weight, inv, a, b): x = fwd(t) for t in (a, b), its
# Jacobian dx/dt = weight(t), and t = inv(x). The two fixed maps are built
# once; only a half-infinite map closes over its finite end.

def _identity(x):
    return x


def _unit_weight(t):
    return 1.0


# x = t / (1 - t^2) maps (-1, 1) onto the real line; the clamp keeps panel
# edges that round onto +-1 finite.
def _double_infinite_fwd(t):
    return t / np.maximum(1.0 - t * t, 1e-150)


def _double_infinite_weight(t):
    tt = t * t
    u = np.maximum(1.0 - tt, 1e-150)
    return (1.0 + tt) / (u * u)


def _double_infinite_inv(x):
    # t = (sqrt(1 + 4x^2) - 1) / (2x), and t = 0 at x = 0, where nothing is
    # divided, so no floating-point warning needs silencing
    x = np.minimum(np.maximum(np.asarray(x, dtype=float), -1e150), 1e150)
    return np.divide(np.sqrt(1.0 + 4.0 * x * x) - 1.0, 2.0 * x,
                     out=np.zeros(x.shape), where=x != 0.0)


_DOUBLE_INFINITE = (_double_infinite_fwd, _double_infinite_weight,
                    _double_infinite_inv, -1.0, 1.0)


def _half_infinite_map(a: float, rising: bool):
    # rising: x = a + t/(1-t) on (0, 1); falling: x = a - t/(1-t).
    sign = 1.0 if rising else -1.0

    def fwd(t):
        u = np.maximum(1.0 - t, 1e-150)
        return a + sign * t / u

    def weight(t):
        u = np.maximum(1.0 - t, 1e-150)
        return 1.0 / (u * u)

    def inv(x):
        u = sign * (np.asarray(x, dtype=float) - a)
        u = np.clip(u, 0.0, 1e150)
        return u / (1.0 + u)

    return fwd, weight, inv, 0.0, 1.0


def _make_map(lower: float, upper: float):
    lo_fin = math.isfinite(lower)
    hi_fin = math.isfinite(upper)
    if lo_fin and hi_fin:
        return _identity, _unit_weight, _identity, lower, upper
    if not lo_fin and not hi_fin:
        return _DOUBLE_INFINITE
    if lo_fin:
        return _half_infinite_map(lower, rising=True)
    return _half_infinite_map(upper, rising=False)


def _tensor_rule(d: int):
    """Weights of the G7/K15 pair as a d-fold tensor rule on [-1, 1]^d, with
    the nodes in row-major order (the last axis varies fastest): the Kronrod
    weights, and the indices and weights of the Gauss nodes."""
    idx = np.indices((15,) * d).reshape(d, -1)
    w_gauss = np.zeros(15)
    w_gauss[_GAUSS_IDX] = _W_GAUSS
    gauss = np.flatnonzero(np.all(idx % 2 == 1, axis=0))
    return np.prod(_W_KRONROD[idx], axis=0), gauss, np.prod(w_gauss[idx[:, gauss]], axis=0)


_RULES = {d: _tensor_rule(d) for d in (1, 2)}


# Nodes per call of the integrand. A call's per-node float64 arrays then
# take at most 64 KB each, below glibc's default mmap threshold (128 KB), so
# a large batch of boxes does not send its temporaries through mmap and
# munmap.
_CHUNK_NODES = 8192


def _box_sums(f: Callable, maps: Sequence[tuple], lo: np.ndarray, hi: np.ndarray):
    """Evaluate the tensor G7/K15 pair on a batch of (m, d) boxes of the
    transformed variable t; returns the Kronrod value and QUADPACK's error
    estimate per box.

    f is called on the nodes of at most :data:`_CHUNK_NODES` // 15^d boxes
    at a time, in box order. Each box's sums depend on its own nodes alone,
    so the chunks change no bit of them.
    """
    m, d = lo.shape
    step = _CHUNK_NODES // 15 ** d
    if m <= step:
        return _chunk_sums(f, maps, lo, hi)
    parts = [_chunk_sums(f, maps, lo[i:i + step], hi[i:i + step])
             for i in range(0, m, step)]
    return (np.concatenate([k15 for k15, _ in parts]),
            np.concatenate([err for _, err in parts]))


def _chunk_sums(f: Callable, maps: Sequence[tuple], lo: np.ndarray, hi: np.ndarray):
    """:func:`_box_sums` on a batch of boxes with one call to f.

    ``maps`` holds each axis's map ``(fwd, weight, ...)``. Each is applied
    to its axis's 15 abscissae per box, before the tensor product, so a 2-D
    call maps 2 x 15 m abscissae, not 225 m nodes. f receives the mapped
    points, (N,) in 1-D and (N, 2) in 2-D in row-major node order (the last
    axis varies fastest), and the Jacobians multiply its values one axis
    after the other.
    """
    m, d = lo.shape
    w_kronrod, gauss, w_gauss = _RULES[d]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs, ws = [], []
    for j, (fwd, weight, *_) in enumerate(maps):
        # (m, 15) abscissae of axis j, shaped to broadcast over the tensor
        t = (mid[:, j, None] + half[:, j, None] * _NODES).reshape(
            (m,) + (1,) * j + (15,) + (1,) * (d - 1 - j))
        xs.append(fwd(t))
        ws.append(weight(t))
    if d == 1:
        pts = xs[0].reshape(-1)
    else:
        pts = np.empty((m,) + (15,) * d + (d,))
        for j, x in enumerate(xs):
            pts[..., j] = x
        pts = pts.reshape(-1, d)
    vals = np.asarray(f(pts), dtype=float).reshape((m,) + (15,) * d)
    for w in ws:
        vals = vals * w
    vals = vals.reshape(m, -1)
    volume = half[:, 0]
    for j in range(1, d):
        volume = volume * half[:, j]
    k15 = (vals * w_kronrod).sum(axis=1) * volume
    g7 = (vals[:, gauss] * w_gauss).sum(axis=1) * volume
    diff = np.abs(k15 - g7)
    with np.errstate(over="ignore"):
        err = np.minimum(diff, np.power(200.0 * diff, 1.5))
    return k15, err


def _initial_edges(spec: QuadratureSpec, inv: Callable, a: float, b: float) -> np.ndarray:
    """Sorted first-pass panel edges: the ends, the midpoint and the mapped
    breakpoints that lie strictly inside, with near-duplicates dropped (an
    exact repeat is a gap of 0, so no separate dedupe is needed)."""
    edges = [a, 0.5 * (a + b), b]
    if len(spec.breakpoints):
        bps = inv(np.asarray(spec.breakpoints, dtype=float))
        pad = 1e-12 * (b - a)
        edges = np.concatenate([edges, bps[(bps > a + pad) & (bps < b - pad)]])
    edges = np.sort(edges)
    keep = np.empty(edges.size, dtype=bool)
    keep[0] = True
    np.greater(edges[1:] - edges[:-1], 1e-14 * (b - a), out=keep[1:])
    return edges[keep]


def _adapt(f: Callable, maps: Sequence[tuple], lo: np.ndarray, hi: np.ndarray,
           rel_tol: float, budget: int) -> QuadratureResult:
    """Adaptive quadrature of f over the (m, d) boxes with corners lo, hi,
    in the variable that ``maps`` take to f's (see :func:`_box_sums`).

    A first pass that meets the tolerance returns at once, with its sums.
    Otherwise each wave splits every box whose error exceeds its share of
    the tolerance (or, if none does, the worst ones) at the midpoint of its
    widest side, until the summed error meets ``rel_tol`` or the splits
    would exceed ``budget``.
    """
    d = lo.shape[1]
    vals, errs = _box_sums(f, maps, lo, hi)

    splits_used = 0
    converged = False
    for _ in range(_MAX_WAVES):
        total = float(vals.sum())
        total_err = float(errs.sum())
        tol = rel_tol * max(abs(total), 1e-300)
        if total_err <= tol:
            converged = True
            break
        bad = errs > tol / (2.0 * vals.size)
        n_bad = np.count_nonzero(bad)
        if n_bad == 0:
            bad = errs == errs.max()
            n_bad = np.count_nonzero(bad)
        if splits_used + n_bad > budget:
            break
        splits_used += n_bad
        # children: every lower half, then every upper half; the order fixes
        # the summation order and so the digits of every result
        blo, bhi = lo[bad], hi[bad]
        mid = 0.5 * (blo + bhi)
        if d == 1:  # the only side is the widest
            upper_lo = lower_hi = mid
        else:
            cut = np.eye(d, dtype=bool)[(bhi - blo).argmax(axis=1)]
            upper_lo, lower_hi = np.where(cut, mid, blo), np.where(cut, mid, bhi)
        new_lo = np.concatenate([blo, upper_lo])
        new_hi = np.concatenate([lower_hi, bhi])
        new_v, new_e = _box_sums(f, maps, new_lo, new_hi)
        keep = ~bad
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        vals = np.concatenate([vals[keep], new_v])
        errs = np.concatenate([errs[keep], new_e])
    else:  # every wave split: sum the last one's boxes
        total = float(vals.sum())
        total_err = float(errs.sum())

    return QuadratureResult(value=total, error=total_err, converged=converged,
                            panels=int(vals.size))


def integrate(f: Callable[[np.ndarray], np.ndarray], spec: QuadratureSpec) -> QuadratureResult:
    """Adaptive quadrature of a vectorized scalar function.

    ``f`` must accept a 1-D numpy array of abscissae and return the values
    elementwise; it must be finite on every node (after the tail transform
    for infinite ends). Returns the estimate, an achieved-error estimate and
    a convergence flag; non-convergence is reported in the flag, never
    raised, and the best estimate is carried along.
    """
    axis = _make_map(spec.lower, spec.upper)
    edges = _initial_edges(spec, *axis[2:])
    return _adapt(f, (axis,), edges[:-1, None], edges[1:, None], spec.rel_tol,
                  spec.max_refinements)


def integrate_2d(
    f: Callable[[np.ndarray], np.ndarray],
    spec_x: QuadratureSpec,
    spec_y: QuadratureSpec,
) -> QuadratureResult:
    """Tensor-product adaptive quadrature over a (possibly infinite) box.

    ``f`` receives an (m, 2) array of points and returns (m,) values. The
    same adaptive loop as :func:`integrate` splits the worst rectangles
    along their longer transformed side. The tighter ``rel_tol`` and the
    larger ``max_refinements`` of the two specs apply. Intended for the
    smooth 2-D densities used here; higher dimensions are out of scope.
    """
    maps = (_make_map(spec_x.lower, spec_x.upper), _make_map(spec_y.lower, spec_y.upper))
    ex, ey = (_initial_edges(s, *mp[2:]) for s, mp in zip((spec_x, spec_y), maps))
    lo = np.stack(np.meshgrid(ex[:-1], ey[:-1], indexing="ij"), axis=-1).reshape(-1, 2)
    hi = np.stack(np.meshgrid(ex[1:], ey[1:], indexing="ij"), axis=-1).reshape(-1, 2)
    return _adapt(f, maps, lo, hi, min(spec_x.rel_tol, spec_y.rel_tol),
                  max(spec_x.max_refinements, spec_y.max_refinements))


def log_sum_exp(values: Sequence[float]) -> float:
    """log(sum(exp(v_i))) without overflow; -inf entries are absorbing zeros."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("log_sum_exp of an empty sequence")
    m = float(np.max(v))
    if m == -np.inf:
        return -np.inf
    return m + float(np.log(np.sum(np.exp(v - m))))


def cholesky_rows(a) -> tuple[tuple[float, ...], ...] | None:
    """Rows of the lower Cholesky factor L of a symmetric matrix, L L' = a,
    or None when a pivot is zero or negative: a is not positive definite.

    ``a`` is a nested sequence of floats, of which only the lower triangle
    is read. Row i of the result holds L[i, 0..i]. As with LAPACK's
    ``potrf`` behind ``np.linalg.cholesky``, a NaN pivot is not a failed
    one: it passes through into L. Plain float arithmetic: for the d <= 3
    matrices of this package it is several times cheaper than a LAPACK call
    on a tiny array.
    """
    rows: list[tuple[float, ...]] = []
    for i, ai in enumerate(a):
        row = []
        for j, rj in enumerate(rows):
            s = ai[j]
            for k in range(j):
                s -= row[k] * rj[k]
            row.append(s / rj[j])
        s = ai[i]
        for v in row:
            s -= v * v
        if s <= 0.0:
            return None
        row.append(math.sqrt(s))
        rows.append(tuple(row))
    return tuple(rows)


def cholesky_batch(a) -> tuple[tuple, np.ndarray]:
    """:func:`cholesky_rows` of a batch of matrices, with the same operations
    in the same order, so each member's factor has the same bits.

    An entry of ``a`` is an array over the batch, or a float that all its
    members share. Returns the rows, and a mask of the members whose pivots
    are all positive; the rows of the others hold no factor. As in
    :func:`cholesky_rows`, a NaN pivot is not a failed one.
    """
    rows: list[tuple] = []
    ok = np.True_
    for i, ai in enumerate(a):
        row = []
        for j, rj in enumerate(rows):
            s = ai[j]
            for k in range(j):
                s = s - row[k] * rj[k]
            row.append(s / rj[j])
        s = ai[i]
        for v in row:
            s = s - v * v
        ok = ok & ~(np.asarray(s) <= 0.0)
        row.append(np.sqrt(s))
        rows.append(tuple(row))
    return tuple(rows), ok


def solve_lower(rows, b) -> list:
    """z with L z = b, by forward substitution; ``rows`` as returned by
    :func:`cholesky_rows` or :func:`cholesky_batch`. Entries may be floats
    or arrays over a batch: none is updated in place."""
    z: list = []
    for row, bi in zip(rows, b):
        s = bi
        for k, zk in enumerate(z):
            s = s - row[k] * zk
        z.append(s / row[len(z)])
    return z
