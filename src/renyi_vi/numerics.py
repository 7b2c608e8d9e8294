"""Deterministic numeric kernels shared by all modules.

Adaptive Gauss-Kronrod quadrature on finite, half-infinite and doubly
infinite intervals, a stable log-sum-exp, and, for the few-dimensional
matrices of the Gaussian closed forms, a Cholesky factor and its triangular
solve, in Python floats or element by element over a batch.

One adaptive loop serves 1-D intervals and 2-D boxes alike: a tensor G7/K15
rule on every box of a transformed grid, QUADPACK's error estimate, and
splits of the worst boxes at the midpoint of their widest side. Each axis's
change of variables is applied to that axis's abscissae before the tensor
product, so a 2-D box maps 2 x 15 abscissae, not 225 nodes. A first pass
that meets the tolerance returns at once, so a well-seeded call costs one
vectorized pass over the integrand, in calls of at most 8192 nodes, plus
its set-up. On the few hundred nodes of a well-seeded 1-D call that set-up,
about 50 numpy calls on arrays of tens to hundreds of elements, costs more
than most integrands: so the 1-D boxes are the rows of one (m, 15) array
from end to end, the first edges are sorted in place and masked only where
a breakpoint falls outside, and the error estimate skips its overflow guard
where no box needs it. :func:`integrate` and :func:`integrate_2d` only
choose the axis maps and seed the first boxes.

All functions are pure: results depend only on their arguments, node
placement is deterministic, and repeated calls are bit-for-bit identical.
"""

from __future__ import annotations

import math
import sys
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
# The most box splits one integral may take, summed over its waves.
_MAX_REFINEMENTS = 4000
# The largest magnitude of a finite end of a finite interval.
_HALF_MAX = 0.5 * sys.float_info.max


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration request: interval, relative tolerance and first edges.

    ``lower``/``upper`` may be -inf/+inf; infinite ends are handled by a
    rational change of variables, and two finite ends must lie within
    float64's largest value / 2 of 0, so that every midpoint 0.5 * (a + b)
    and width is finite. ``breakpoints`` are optional interior
    abscissae (a tuple or a 1-D array, in any order, repeats allowed) used
    as initial panel edges, so that narrow features of the integrand are
    seen by the rule from the first pass. Every integral may split at most
    :data:`_MAX_REFINEMENTS` panels in all.
    """

    lower: float
    upper: float
    rel_tol: float = 1e-6
    breakpoints: tuple = ()

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"lower must be < upper, got [{self.lower}, {self.upper}]")
        finite = -math.inf < self.lower and self.upper < math.inf
        if finite and max(abs(self.lower), abs(self.upper)) > _HALF_MAX:
            raise ValueError(f"the finite ends of [{self.lower}, {self.upper}] must lie within "
                             "float64's largest value / 2, so that a midpoint does not overflow")
        if not (0.0 < self.rel_tol <= 1e-2):
            raise ValueError(f"rel_tol must lie in (0, 1e-2], got {self.rel_tol}")


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value, achieved-error estimate and convergence status."""

    value: float
    error: float
    converged: bool
    panels: int


# A map is (fwd, inv, a, b): fwd(t) gives x and its Jacobian dx/dt for t in
# (a, b), and t = inv(x). The two fixed maps are built once; only a
# half-infinite map closes over its finite end.

def _identity(x):
    return x


def _identity_fwd(t):
    return t, 1.0


# x = t / (1 - t^2) maps (-1, 1) onto the real line; the clamp keeps panel
# edges that round onto +-1 finite.
def _double_infinite_fwd(t):
    tt = t * t
    u = np.maximum(1.0 - tt, 1e-150)
    x = t / u
    # the Jacobian (1 + t^2) / u^2, in place where t is an array
    tt += 1.0
    u *= u
    tt /= u
    return x, tt


def _double_infinite_inv(x):
    # t = (sqrt(1 + 4x^2) - 1) / (2x), and t = 0 at x = 0, where nothing is
    # divided, so no floating-point warning needs silencing. 2x is exact, so
    # (2x)(2x) rounds 4x^2 once, as (4x)x does.
    x = np.maximum(x, -1e150)
    np.minimum(x, 1e150, out=x)
    two_x = 2.0 * x
    num = two_x * two_x
    num += 1.0
    np.sqrt(num, out=num)
    num -= 1.0
    return np.divide(num, two_x, out=np.zeros(x.shape), where=x != 0.0)


_DOUBLE_INFINITE = (_double_infinite_fwd, _double_infinite_inv, -1.0, 1.0)


def _half_infinite_map(a: float, rising: bool):
    # rising: x = a + t/(1-t) on (0, 1); falling: x = a - t/(1-t).
    sign = 1.0 if rising else -1.0

    def fwd(t):
        u = np.maximum(1.0 - t, 1e-150)
        return a + sign * t / u, 1.0 / (u * u)

    def inv(x):
        u = sign * (np.asarray(x, dtype=float) - a)
        u = np.clip(u, 0.0, 1e150)
        return u / (1.0 + u)

    return fwd, inv, 0.0, 1.0


def _make_map(lower: float, upper: float):
    lo_fin = math.isfinite(lower)
    hi_fin = math.isfinite(upper)
    if lo_fin and hi_fin:
        return _identity_fwd, _identity, lower, upper
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

    ``maps`` holds each axis's map ``(fwd, ...)``. Each is applied
    to its axis's 15 abscissae per box, before the tensor product, so a 2-D
    call maps 2 x 15 m abscissae, not 225 m nodes. f receives the mapped
    points, (N,) in 1-D and (N, 2) in 2-D in row-major node order (the last
    axis varies fastest), and the Jacobians multiply its values one axis
    after the other. In 1-D f must return a float array; the boxes are then
    the rows of one (m, 15) array from end to end.
    """
    m, d = lo.shape
    w_kronrod, gauss, w_gauss = _RULES[d]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    volume = half[:, 0]
    if d == 1:
        fwd = maps[0][0]
        x, w = fwd(mid + half * _NODES)
        vals = f(x.reshape(-1)).reshape(m, 15)
        if fwd is not _identity_fwd:  # whose Jacobian, 1, changes no bit
            vals = vals * w
        # the Gauss nodes are every other Kronrod node
        gauss_vals = vals[:, 1::2]
    else:
        xs, ws = [], []
        for j, (fwd, *_) in enumerate(maps):
            # (m, 15) abscissae of axis j, shaped to broadcast over the tensor
            t = (mid[:, j, None] + half[:, j, None] * _NODES).reshape(
                (m,) + (1,) * j + (15,) + (1,) * (d - 1 - j))
            x, w = fwd(t)
            xs.append(x)
            if fwd is not _identity_fwd:
                ws.append(w)
        pts = np.empty((m,) + (15,) * d + (d,))
        for j, x in enumerate(xs):
            pts[..., j] = x
        vals = np.asarray(f(pts.reshape(-1, d)), dtype=float).reshape((m,) + (15,) * d)
        for w in ws:
            vals = vals * w
        vals = vals.reshape(m, -1)
        for j in range(1, d):
            volume = volume * half[:, j]
        gauss_vals = vals[:, gauss]
    k15 = (vals * w_kronrod).sum(axis=1) * volume
    g7 = (gauss_vals * w_gauss).sum(axis=1) * volume
    diff = np.abs(k15 - g7)
    # QUADPACK's min(diff, (200 diff)^1.5): where 200 diff >= 1 the power is
    # at least diff, so it is taken only below, where it cannot overflow;
    # where every diff is below (as on a pass that converges), that guard
    # changes nothing and is skipped
    if np.maximum.reduce(diff, initial=0.0) < 0.005:
        return k15, np.minimum(diff, np.power(200.0 * diff, 1.5))
    err = np.where(diff < 0.005,
                   np.minimum(diff, np.power(200.0 * np.minimum(diff, 0.005), 1.5)), diff)
    return k15, err


def _initial_edges(spec: QuadratureSpec, inv: Callable, a: float, b: float) -> np.ndarray:
    """Sorted first-pass panel edges: the ends, the midpoint and the mapped
    breakpoints that lie strictly inside, with near-duplicates dropped (an
    exact repeat is a gap of 0, so no separate dedupe is needed).

    The breakpoints are first sorted in with the ends and the midpoint. Where
    the second edge and the last but one then lie strictly inside the padded
    interval, so do all but the first and the last, which are the ends (a
    NaN, sorted last, fails the test), and no mask is taken.
    """
    ends = [a, 0.5 * (a + b), b]
    bps = inv(np.asarray(spec.breakpoints, dtype=float)) if len(spec.breakpoints) else np.empty(0)
    pad = 1e-12 * (b - a)
    edges = np.concatenate([ends, bps])
    edges.sort()  # in place: the array is this call's own
    if bps.size and not (edges[1] > a + pad and edges[-2] < b - pad):
        edges = np.concatenate([ends, bps[(bps > a + pad) & (bps < b - pad)]])
        edges.sort()
    gaps = edges[1:] - edges[:-1]
    keep = gaps > 1e-14 * (b - a)
    if np.count_nonzero(keep) == keep.size:  # no near-duplicate to drop
        return edges
    return edges[np.concatenate([[True], keep])]


def _adapt(f: Callable, maps: Sequence[tuple], lo: np.ndarray, hi: np.ndarray,
           rel_tol: float) -> QuadratureResult:
    """Adaptive quadrature of f over the (m, d) boxes with corners lo, hi,
    in the variable that ``maps`` take to f's (see :func:`_box_sums`).

    A first pass that meets the tolerance returns at once, with its sums.
    Otherwise each wave splits every box whose error exceeds its share of
    the tolerance (or, if none does, the worst ones) at the midpoint of its
    widest side, until the summed error meets ``rel_tol`` or the splits
    would exceed :data:`_MAX_REFINEMENTS`. A pass whose sum or error is NaN
    (a NaN value of f, or box sums that overflow) stops it, unconverged,
    with that sum.
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
        if math.isnan(total) or math.isnan(total_err):  # no box can be told worse
            break
        bad = errs > tol / (2.0 * vals.size)
        n_bad = np.count_nonzero(bad)
        if n_bad == 0:
            bad = errs == errs.max()
            n_bad = np.count_nonzero(bad)
        if splits_used + n_bad > _MAX_REFINEMENTS:
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
    elementwise. Returns the estimate, an achieved-error estimate and a
    convergence flag; non-convergence is reported in the flag, never
    raised, and the best estimate is carried along. Where f is NaN on a
    node, or its sums overflow, the estimate is not finite; a NaN sum or
    error ends the refinement, with the flag False.
    """
    axis = _make_map(spec.lower, spec.upper)
    edges = _initial_edges(spec, *axis[1:])
    return _adapt(f, (axis,), edges[:-1, None], edges[1:, None], spec.rel_tol)


def integrate_2d(
    f: Callable[[np.ndarray], np.ndarray],
    spec_x: QuadratureSpec,
    spec_y: QuadratureSpec,
) -> QuadratureResult:
    """Tensor-product adaptive quadrature over a (possibly infinite) box.

    ``f`` receives an (m, 2) array of points and returns (m,) values. The
    same adaptive loop as :func:`integrate` splits the worst rectangles
    along their longer transformed side, under the same cap on splits. The
    tighter ``rel_tol`` of the two specs applies. Intended for the
    smooth 2-D densities used here; higher dimensions are out of scope.
    """
    maps = (_make_map(spec_x.lower, spec_x.upper), _make_map(spec_y.lower, spec_y.upper))
    ex, ey = (_initial_edges(s, *mp[1:]) for s, mp in zip((spec_x, spec_y), maps))
    lo = np.stack(np.meshgrid(ex[:-1], ey[:-1], indexing="ij"), axis=-1).reshape(-1, 2)
    hi = np.stack(np.meshgrid(ex[1:], ey[1:], indexing="ij"), axis=-1).reshape(-1, 2)
    return _adapt(f, maps, lo, hi, min(spec_x.rel_tol, spec_y.rel_tol))


def log_sum_exp(values: Sequence[float]) -> float:
    """log(sum(exp(v_i))) without overflow; -inf entries are absorbing zeros."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("log_sum_exp of an empty sequence")
    m = float(np.max(v))
    if m == -np.inf:
        return -np.inf
    return m + float(np.log(np.sum(np.exp(v - m))))


def cholesky_rows(a) -> tuple[tuple, bool | np.ndarray]:
    """Rows of the lower Cholesky factor L of a symmetric matrix, L L' = a,
    and whether a is positive definite: no pivot is zero or negative.

    ``a`` is a nested sequence of which only the lower triangle is read.
    Its entries are Python floats, and the flag is a bool; or some are
    arrays over a batch of matrices, with a float where an entry is the same
    for every member, and the flag is a mask of the members. Row i of the
    result holds L[i, 0..i], with each member's bits in a batch. A failed
    pivot is NaN, and so is every entry of L that depends on it. As with
    LAPACK's ``potrf`` behind ``np.linalg.cholesky``, a NaN pivot is not a
    failed one: it passes through into L. Plain float arithmetic: for the
    d <= 3 matrices of this package it is several times cheaper than a
    LAPACK call on a tiny array.
    """
    rows: list[tuple] = []
    ok = True
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
        if isinstance(s, np.ndarray):
            ok = ok & ~(s <= 0.0)
            row.append(np.sqrt(np.where(s > 0.0, s, np.nan)))
        elif s > 0.0:
            row.append(math.sqrt(s))
        else:  # a NaN pivot passes through; any other fails
            ok = ok and math.isnan(s)
            row.append(math.nan)
        rows.append(tuple(row))
    return tuple(rows), ok


def solve_lower(rows, b) -> list:
    """z with L z = b, by forward substitution; ``rows`` as returned by
    :func:`cholesky_rows`. Entries may be floats or arrays over a batch:
    none is updated in place."""
    z: list = []
    for row, bi in zip(rows, b):
        s = bi
        for k, zk in enumerate(z):
            s = s - row[k] * zk
        z.append(s / row[len(z)])
    return z
