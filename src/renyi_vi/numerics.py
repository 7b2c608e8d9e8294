"""Deterministic numeric kernels shared by all modules.

Adaptive Gauss-Kronrod quadrature on finite, half-infinite and doubly
infinite intervals (1-D, plus a tensor-product 2-D variant), a stable
log-sum-exp, the classical Laplace approximation of integrals of the form
``int h(y) exp(-n g(y)) dy``, and a lower bound on Gaussian tail mass.

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
    "LaplaceInput",
    "integrate",
    "integrate_2d",
    "log_sum_exp",
    "laplace_approx",
    "gaussian_tail_lower",
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
    abscissae used as initial panel edges, so that narrow features of the
    integrand are seen by the rule from the first pass.
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


@dataclass(frozen=True)
class LaplaceInput:
    """Inputs for the n -> infinity approximation of int h(y) e^{-n g(y)} dy.

    ``y_star`` must be an interior minimizer of ``g`` and ``g_second`` the
    (positive) second derivative of ``g`` there.
    """

    h: Callable[[float], float]
    g: Callable[[float], float]
    n: int
    y_star: float
    g_second: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not self.g_second > 0:
            raise ValueError(
                f"g_second must be > 0 (interior minimum), got {self.g_second}"
            )


def _identity_map(lower: float, upper: float):
    fwd = lambda t: t
    weight = lambda t: np.ones_like(t)
    inv = lambda x: x
    return fwd, weight, inv, lower, upper


def _double_infinite_map():
    # x = t / (1 - t^2) maps (-1, 1) onto the real line; the clamp keeps
    # panel edges that round onto +-1 finite.
    def fwd(t):
        u = np.maximum(1.0 - t * t, 1e-150)
        return t / u

    def weight(t):
        u = np.maximum(1.0 - t * t, 1e-150)
        return (1.0 + t * t) / (u * u)

    def inv(x):
        x = np.clip(np.asarray(x, dtype=float), -1e150, 1e150)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(
                x == 0.0, 0.0, (np.sqrt(1.0 + 4.0 * x * x) - 1.0) / (2.0 * x)
            )
        return t

    return fwd, weight, inv, -1.0, 1.0


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
        return _identity_map(lower, upper)
    if not lo_fin and not hi_fin:
        return _double_infinite_map()
    if lo_fin:
        return _half_infinite_map(lower, rising=True)
    return _half_infinite_map(upper, rising=False)


def _panel_sums(g: Callable, lefts: np.ndarray, rights: np.ndarray):
    """Evaluate the G7/K15 pair on a batch of panels with one call to g."""
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (rights + lefts)
    nodes = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = np.asarray(g(nodes.ravel()), dtype=float).reshape(nodes.shape)
    k15 = (vals * _W_KRONROD).sum(axis=1) * half
    g7 = (vals[:, _GAUSS_IDX] * _W_GAUSS).sum(axis=1) * half
    diff = np.abs(k15 - g7)
    with np.errstate(over="ignore"):
        err = np.minimum(diff, np.power(200.0 * diff, 1.5))
    return k15, err


def _initial_edges(spec: QuadratureSpec, inv: Callable, a: float, b: float) -> np.ndarray:
    """Sorted first-pass panel edges: the ends, the midpoint and the mapped
    breakpoints that lie strictly inside, with near-duplicates dropped."""
    edges = np.array([a, 0.5 * (a + b), b])
    if spec.breakpoints:
        bps = np.atleast_1d(inv(np.asarray(spec.breakpoints, dtype=float)))
        pad = 1e-12 * (b - a)
        edges = np.concatenate([edges, bps[(bps > a + pad) & (bps < b - pad)]])
    edges = np.unique(edges)
    return edges[np.concatenate([[True], np.diff(edges) > 1e-14 * (b - a)])]


def integrate(f: Callable[[np.ndarray], np.ndarray], spec: QuadratureSpec) -> QuadratureResult:
    """Adaptive quadrature of a vectorized scalar function.

    ``f`` must accept a 1-D numpy array of abscissae and return the values
    elementwise; it must be finite on every node (after the tail transform
    for infinite ends). Returns the estimate, an achieved-error estimate and
    a convergence flag; non-convergence is reported in the flag, never
    raised, and the best estimate is carried along.
    """
    fwd, weight, inv, ta, tb = _make_map(spec.lower, spec.upper)

    def g(t):
        return np.asarray(f(fwd(t)), dtype=float) * weight(t)

    edges = _initial_edges(spec, inv, ta, tb)
    lefts = edges[:-1].copy()
    rights = edges[1:].copy()
    vals, errs = _panel_sums(g, lefts, rights)

    splits_used = 0
    converged = False
    for _ in range(_MAX_WAVES):
        total = float(vals.sum())
        total_err = float(errs.sum())
        tol = spec.rel_tol * max(abs(total), 1e-300)
        if total_err <= tol:
            converged = True
            break
        n_panels = lefts.size
        bad = errs > tol / (2.0 * n_panels)
        n_bad = int(bad.sum())
        if n_bad == 0:
            bad = errs == errs.max()
            n_bad = int(bad.sum())
        if splits_used + n_bad > spec.max_refinements:
            break
        splits_used += n_bad
        bl, br = lefts[bad], rights[bad]
        bm = 0.5 * (bl + br)
        new_l = np.concatenate([bl, bm])
        new_r = np.concatenate([bm, br])
        new_v, new_e = _panel_sums(g, new_l, new_r)
        lefts = np.concatenate([lefts[~bad], new_l])
        rights = np.concatenate([rights[~bad], new_r])
        vals = np.concatenate([vals[~bad], new_v])
        errs = np.concatenate([errs[~bad], new_e])

    return QuadratureResult(
        value=float(vals.sum()),
        error=float(errs.sum()),
        converged=converged,
        panels=int(lefts.size),
    )


def _rect_sums(g2: Callable, boxes: np.ndarray):
    """Tensor G7/K15 sums on a batch of rectangles; boxes is (m, 4)."""
    lx, rx, ly, ry = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
    hx = 0.5 * (rx - lx)
    hy = 0.5 * (ry - ly)
    mx = 0.5 * (rx + lx)
    my = 0.5 * (ry + ly)
    tx = mx[:, None] + hx[:, None] * _NODES[None, :]
    ty = my[:, None] + hy[:, None] * _NODES[None, :]
    # (m, 15, 15) grids flattened into one call
    xx = np.repeat(tx[:, :, None], 15, axis=2)
    yy = np.repeat(ty[:, None, :], 15, axis=1)
    vals = np.asarray(g2(xx.ravel(), yy.ravel()), dtype=float).reshape(xx.shape)
    wk = np.outer(_W_KRONROD, _W_KRONROD)
    k = (vals * wk).sum(axis=(1, 2)) * hx * hy
    sub = vals[:, _GAUSS_IDX][:, :, _GAUSS_IDX]
    wg = np.outer(_W_GAUSS, _W_GAUSS)
    g7 = (sub * wg).sum(axis=(1, 2)) * hx * hy
    return k, np.abs(k - g7)


def integrate_2d(
    f: Callable[[np.ndarray], np.ndarray],
    spec_x: QuadratureSpec,
    spec_y: QuadratureSpec,
) -> QuadratureResult:
    """Tensor-product adaptive quadrature over a (possibly infinite) box.

    ``f`` receives an (m, 2) array of points and returns (m,) values. The
    box is split adaptively along the longer transformed side of the worst
    rectangles. Intended for the smooth 2-D densities used here; higher
    dimensions are out of scope.
    """
    fwd_x, w_x, inv_x, ax, bx = _make_map(spec_x.lower, spec_x.upper)
    fwd_y, w_y, inv_y, ay, by = _make_map(spec_y.lower, spec_y.upper)

    def g2(tx, ty):
        pts = np.column_stack([fwd_x(tx), fwd_y(ty)])
        return np.asarray(f(pts), dtype=float) * w_x(tx) * w_y(ty)

    ex = _initial_edges(spec_x, inv_x, ax, bx)
    ey = _initial_edges(spec_y, inv_y, ay, by)
    boxes = np.array(
        [
            [ex[i], ex[i + 1], ey[j], ey[j + 1]]
            for i in range(ex.size - 1)
            for j in range(ey.size - 1)
        ]
    )
    vals, errs = _rect_sums(g2, boxes)

    rel_tol = min(spec_x.rel_tol, spec_y.rel_tol)
    budget = max(spec_x.max_refinements, spec_y.max_refinements)
    splits_used = 0
    converged = False
    for _ in range(_MAX_WAVES):
        total = float(vals.sum())
        total_err = float(errs.sum())
        tol = rel_tol * max(abs(total), 1e-300)
        if total_err <= tol:
            converged = True
            break
        bad = errs > tol / (2.0 * len(boxes))
        if not bad.any():
            bad = errs == errs.max()
        n_bad = int(bad.sum())
        if splits_used + n_bad > budget:
            break
        splits_used += n_bad
        b = boxes[bad]
        wx = b[:, 1] - b[:, 0]
        wy = b[:, 3] - b[:, 2]
        split_x = wx >= wy
        kids = []
        for box, sx in zip(b, split_x):
            if sx:
                m = 0.5 * (box[0] + box[1])
                kids.append([box[0], m, box[2], box[3]])
                kids.append([m, box[1], box[2], box[3]])
            else:
                m = 0.5 * (box[2] + box[3])
                kids.append([box[0], box[1], box[2], m])
                kids.append([box[0], box[1], m, box[3]])
        kids = np.array(kids)
        kv, ke = _rect_sums(g2, kids)
        boxes = np.vstack([boxes[~bad], kids])
        vals = np.concatenate([vals[~bad], kv])
        errs = np.concatenate([errs[~bad], ke])

    return QuadratureResult(
        value=float(vals.sum()),
        error=float(errs.sum()),
        converged=converged,
        panels=int(len(boxes)),
    )


def log_sum_exp(values: Sequence[float]) -> float:
    """log(sum(exp(v_i))) without overflow; -inf entries are absorbing zeros."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("log_sum_exp of an empty sequence")
    m = float(np.max(v))
    if m == -np.inf:
        return -np.inf
    return m + float(np.log(np.sum(np.exp(v - m))))


def laplace_approx(inp: LaplaceInput) -> float:
    """h(y*) e^{-n g(y*)} sqrt(2 pi / (n g''(y*)))."""
    return (
        float(inp.h(inp.y_star))
        * math.exp(-inp.n * float(inp.g(inp.y_star)))
        * math.sqrt(2.0 * math.pi / (inp.n * inp.g_second))
    )


def gaussian_tail_lower(m: float, s: float) -> float:
    """Lower bound on P(X > m) for X ~ N(0, s^2), valid for m/s > 1.

    Equals phi(m/s) * (s/m - (s/m)^3) with phi the standard normal pdf; the
    bound is positive and below the true tail for every m/s > 1, and tight
    as m/s -> infinity.
    """
    if m <= 0 or s <= 0:
        raise ValueError("m and s must be positive")
    x = m / s
    if x <= 1.0:
        raise ValueError(f"bound requires m/s > 1, got m/s = {x}")
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * (1.0 / x - 1.0 / x**3)
