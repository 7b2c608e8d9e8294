"""Renyi divergence D_alpha(p || q) for alpha > 1, forward and reverse KL,
a Monte-Carlo evidence upper bound, and the Holder lower bound on the Renyi
integral.

``renyi`` and ``kl_forward`` score a pair by the closed form that
``_RENYI_CLOSED`` or ``_KL_CLOSED`` lists for its two kinds, else by
adaptive quadrature (dim <= 2), both objectives in the frame of
:func:`_frame`. Each closed-form row has a batch form, which
``renyi_batch`` and ``kl_forward_batch`` run: it scores a batch of members
(:class:`~renyi_vi.distributions.Members`) on either side of the pair in one
call, each with the bits its scalar row gives it, so that a fit scores its
start grid in one call for pairs that have one.

Infinity is a first-class value here: D_alpha is infinite whenever q fails
to dominate p or the integral q (p/q)^alpha diverges, and both outcomes are
reported as ``value = inf`` rather than raised, with the reason in
:attr:`DivergenceEstimate.reason`. Whether the integral diverges is decided
from the two densities' tails (:attr:`Density.tails`) before any node is
evaluated: with alpha > 1 it diverges when q's tail is lighter than p's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .distributions import (
    Density,
    Members,
    bulk_points,
    dominates,
    interval_mass,
    make_gaussian,
)
from .numerics import (
    QuadratureSpec,
    cholesky_batch,
    cholesky_rows,
    integrate,
    integrate_2d,
    log_sum_exp,
    solve_lower,
)

__all__ = [
    "CLOSED_FORM",
    "QUADRATURE",
    "OVERFLOW_NATS",
    "DOMINANCE",
    "OVERFLOW_UNDECIDED",
    "DivergenceEstimate",
    "MCUpperBound",
    "renyi",
    "renyi_quadrature",
    "renyi_gauss_closed",
    "renyi_batch",
    "kl_forward",
    "kl_forward_batch",
    "kl_reverse",
    "mc_renyi_upper_bound",
    "holder_lower_bound",
]

CLOSED_FORM = "closed-form"
QUADRATURE = "quadrature"

# Log-integrand excess over the frame's shift (:func:`_frame`) that stops a
# quadrature pass: the shift has missed the integrand's peak. 700 nats is
# just below exp-overflow in float64, so a pass whose shift is sound never
# trips it. With finite tails, the 1-D pass is re-seeded at the located
# peak; only when a density declares no tails is the integral declared
# divergent.
OVERFLOW_NATS = 700.0

# Why a value is infinite (DivergenceEstimate.reason), besides a divergent
# tail, whose reason names the end.
DOMINANCE = "dominance"
OVERFLOW_UNDECIDED = "overflow, tails undecided"
_S_STAR_INDEFINITE = "divergent tail: S* is not positive definite"


@dataclass(frozen=True)
class DivergenceEstimate:
    """A divergence value in [0, inf] with its method tag and error bound.

    ``alpha`` is None for KL estimates (the alpha -> 1 limit is served by a
    separate code path, never by renyi_*). ``converged`` is False when the
    adaptive quadrature behind a finite value stopped before reaching its
    tolerance; closed forms and ``inf`` verdicts are always converged.
    ``panels`` counts the final quadrature panels (boxes in 2-D) behind a
    finite quadrature value; it is 0 for closed forms and ``inf`` verdicts.
    ``reason`` says why a value is infinite and is None when it is finite:
    ``"dominance"`` (q vanishes where p does not), ``"divergent tail at
    <end>"`` (or, for a Gaussian pair, an S* that is not positive definite),
    or ``"overflow, tails undecided"``.
    """

    value: float
    method: str
    error: float
    alpha: float | None = None
    converged: bool = True
    panels: int = 0
    reason: str | None = None


@dataclass(frozen=True)
class MCUpperBound:
    """Monte-Carlo estimate of (1/alpha) log E_q (joint/q)^alpha.

    The population value equals log p(X_n) + ((alpha-1)/alpha) *
    D_alpha(posterior || q). ``stderr`` is the delta-method standard error
    of the estimate; it is exactly 0 when every draw carries the same
    log-weight.
    """

    value: float
    stderr: float
    n_draws: int
    alpha: float


def _check_alpha(alpha: float | None) -> float:
    if alpha is None or not 1.0 < float(alpha) < math.inf:
        raise ValueError(f"alpha must be finite and exceed 1 (got {alpha}); "
                         "use kl_forward for the limit alpha -> 1")
    return float(alpha)


# Fallback shift/breakpoint grid for 1-D pairs where neither density declares
# moments (so bulk_points has nothing to offer inside p's support).
_FALLBACK_POINTS = 129
_FALLBACK_HALF_WIDTH = 1e3


def _anchor_points_1d(p: Density, q: Density) -> np.ndarray:
    """Both densities' bulk points inside p's support, or a fallback grid.

    Unsorted, and a point both densities share appears twice: the shift is a
    maximum over them and the panel edges are sorted and deduplicated by
    ``integrate``, so neither depends on order or repeats.
    """
    lo, hi = p.support[0]
    pts = np.concatenate([bulk_points(p), bulk_points(q)])
    pts = pts[(pts > lo) & (pts < hi)]
    if pts.size == 0:
        grid = np.linspace(max(lo, -_FALLBACK_HALF_WIDTH),
                           min(hi, _FALLBACK_HALF_WIDTH), _FALLBACK_POINTS)
        pts = grid[(grid > lo) & (grid < hi)]
    return pts


_NEWTON_MAX_STEPS = 30
_NEWTON_STEP_TOL = 1e-3  # in marginal sds of inv(-H)
# (i, j) offsets of the 3 x 3 central-difference stencil, row-major.
_STENCIL = np.array([[i, j] for i in (-1.0, 0.0, 1.0) for j in (-1.0, 0.0, 1.0)])


def _newton_max_2d(log_integrand, centre, step):
    """Maximise a 2-D log-integrand by Newton steps on a 3 x 3 stencil.

    Starts at ``centre`` with per-axis stencil step ``step``; later steps are
    the marginal sds of inv(-H). Returns ``(maximiser, inv(-H))``, or None
    when a stencil value is not finite, H is not negative definite, or the
    steps have not settled within ``_NEWTON_MAX_STEPS``.
    """
    c = np.array(centre, dtype=float)
    h = np.array(step, dtype=float)
    for _ in range(_NEWTON_MAX_STEPS):
        v = log_integrand(c + h * _STENCIL).reshape(3, 3)
        if not np.all(np.isfinite(v)):
            return None
        grad = np.array([v[2, 1] - v[0, 1], v[1, 2] - v[1, 0]]) / (2.0 * h)
        hxy = (v[2, 2] - v[2, 0] - v[0, 2] + v[0, 0]) / (4.0 * h[0] * h[1])
        neg_hess = -np.array([
            [(v[2, 1] - 2.0 * v[1, 1] + v[0, 1]) / h[0] ** 2, hxy],
            [hxy, (v[1, 2] - 2.0 * v[1, 1] + v[1, 0]) / h[1] ** 2],
        ])
        lam, vec = np.linalg.eigh(neg_hess)
        if not lam[0] > 0.0:
            return None
        cov = (vec / lam) @ vec.T
        move = cov @ grad
        c = c + move
        h = np.sqrt(np.diag(cov))
        if np.all(np.abs(move) <= _NEWTON_STEP_TOL * h):
            return c, cov
    return None


def _centres(d: Density):
    """(mean, per-axis sd) of d, or of each mixture component; None when a
    component declares no moments."""
    comps = d.params["components"] if d.kind == "mixture" else (d,)
    if any(c.mean is None or c.cov is None for c in comps):
        return None
    return [(c.mean, np.sqrt(np.diag(c.cov))) for c in comps]


class _Frame(NamedTuple):
    """Where and how to integrate. ``supports`` and ``breakpoints`` are per
    axis of the integration variable u; ``to_x`` maps (N, 2) points u to x,
    and is None when u is x itself; ``log_jac`` is log |dx/du|; ``shift`` is
    the largest value of the log-integrand that the frame located."""

    supports: tuple
    breakpoints: tuple
    shift: float
    log_jac: float
    to_x: Callable | None

    def integrate(self, f, rel_tol: float):
        """The quadrature of ``f``, a function of x, in u without the
        Jacobian: the one place where a divergence builds its quadrature
        specs and picks ``integrate`` or ``integrate_2d``."""
        g = f if self.to_x is None else lambda u: f(self.to_x(u))
        specs = [QuadratureSpec(*s, rel_tol=rel_tol, breakpoints=b)
                 for s, b in zip(self.supports, self.breakpoints)]
        return integrate(g, *specs) if len(specs) == 1 else integrate_2d(g, *specs)


def _peak_frame_2d(p, q, log_integrand):
    """The integration frame from the log-integrand's maxima.

    Newton runs once from each centre of p and q; a maximum within one
    marginal sd of one already found is dropped. Each maximum c with
    curvature H stands for N(c, inv(-H)). The frame is x = origin + A z with
    A A' = inv(-H) at the largest maximum, so its peak is a unit isotropic
    bump in z and a thin ridge along a diagonal of x still meets boxes of its
    own width. Its breakpoints are the per-axis bulk points in z of every
    maximum's Gaussian, and its shift the largest log-integrand value at the
    maxima. None when p's support is not the whole plane, a density has no
    centres, or any start fails.
    """
    starts = [_centres(p), _centres(q)]
    if np.isfinite(p.support).any() or None in starts:
        return None
    maxima = []
    for centre, sd in starts[0] + starts[1]:
        found = _newton_max_2d(log_integrand, centre, sd)
        if found is None:
            return None
        c, cov = found
        reach = np.sqrt(np.diag(cov))
        if all(np.any(np.abs(c - m) > reach) for m, _ in maxima):
            maxima.append((c, cov))
    peaks = log_integrand(np.array([c for c, _ in maxima]))
    origin, cov = maxima[int(np.argmax(peaks))]
    lam, vec = np.linalg.eigh(cov)
    if not lam[0] > 0.0:
        return None
    a_inv = vec.T / np.sqrt(lam)[:, None]
    gauss = [make_gaussian(a_inv @ (c - origin), a_inv @ s @ a_inv.T)
             for c, s in maxima]
    bx = np.unique(np.concatenate([bulk_points(g, 0) for g in gauss]))
    by = np.unique(np.concatenate([bulk_points(g, 1) for g in gauss]))
    a = vec * np.sqrt(lam)
    # x = origin + A z, column by column with A's entries as Python floats:
    # cheaper than an (N, 2) @ (2, 2) matmul on every batch of nodes
    (o0, o1), ((a00, a01), (a10, a11)) = origin.tolist(), a.tolist()

    def to_x(z):
        z0, z1 = z[:, 0], z[:, 1]
        x = np.empty(z.shape)
        x[:, 0] = o0 + (a00 * z0 + a01 * z1)
        x[:, 1] = o1 + (a10 * z0 + a11 * z1)
        return x

    return _Frame(((-np.inf, np.inf), (-np.inf, np.inf)), (bx, by), float(np.max(peaks)),
                  float(np.log(abs(np.linalg.det(a)))), to_x)


def _mesh_frame_2d(p, q, log_integrand):
    """The frame of x itself, seeded at both densities' bulk points per
    axis, with the shift from an 81 x 81 mesh over their span."""
    bx = np.unique(np.concatenate([bulk_points(p, 0), bulk_points(q, 0)]))
    by = np.unique(np.concatenate([bulk_points(p, 1), bulk_points(q, 1)]))
    gx = np.linspace(bx.min(), bx.max(), 81)
    gy = np.linspace(by.min(), by.max(), 81)
    mesh = np.column_stack([np.repeat(gx, gy.size), np.tile(gy, gx.size)])
    shift = float(np.max(log_integrand(mesh)))
    if shift == -np.inf:
        raise ValueError("integrand vanishes on the entire 81 x 81 probe mesh")
    return _Frame(p.support, (bx, by), shift, 0.0, None)


def _frame(p, q, log_integrand) -> _Frame:
    """Where to integrate a function of x whose mass follows
    ``log_integrand``: the Renyi integrand, or p's log-density for the KL.

    In 1-D the variable is x, seeded at both densities' bulk points, which
    hold each density's centre, so a Laplace or logistic kink is a panel
    edge from the first pass. In 2-D a located maximum with negative-definite
    curvature (a log-concave integrand near its peak) seeds the boxes where
    the mass is, in its whitened frame; divergent pairs and integrands
    without one fall back to the 81 x 81 probe mesh, in x itself.
    """
    if p.dim == 1:
        anchors = _anchor_points_1d(p, q)
        shift = float(log_integrand(anchors).max(initial=-np.inf))
        if shift == -np.inf:
            raise ValueError("integrand vanishes on every anchor point")
        return _Frame(p.support, (anchors,), shift, 0.0, None)
    if p.dim > 2:
        raise ValueError("quadrature divergences support dim <= 2")
    return _peak_frame_2d(p, q, log_integrand) or _mesh_frame_2d(p, q, log_integrand)


# Stands for q at an end of p's support that lies inside q's: there q is
# finite and positive, a power 0 of the distance to the end.
_INSIDE = (0, 0.0, 0.0)
_FINITE = "finite"
_UNDECIDED = "undecided"


def _end_finite(tp, tq, alpha: float) -> bool | None:
    """Whether p^alpha q^(1-alpha) is integrable at one end of p's support,
    from p's and q's :attr:`~renyi_vi.distributions.Density.tails` terms
    there; None when the leading terms cancel and the rest is not declared.

    At an infinite end the log-integrand is -alpha c_p |x|^k_p + (alpha - 1)
    c_q |x|^k_q + (alpha m_p - (alpha - 1) m_q) log |x| + smaller terms: the
    larger power wins, an equal one goes by the sign of alpha c_p - (alpha -
    1) c_q, and where that is 0 with bounded remainders (k = 1), by the log
    term, integrable iff its power is below -1. At a finite end the
    integrand is |x - e|^(alpha m_p - (alpha - 1) m_q), integrable iff that
    power exceeds -1.
    """
    kp, cp, mp = tp
    kq, cq, mq = tq
    if kp != kq:
        return kp > kq
    power = alpha * mp - (alpha - 1.0) * mq
    if not kp:
        return power > -1.0
    rate = alpha * cp - (alpha - 1.0) * cq
    if rate != 0.0:
        return rate > 0.0
    return power < -1.0 if kp == 1 else None


def _tail_verdict(p: Density, q: Density, alpha: float) -> str:
    """``_FINITE`` or ``_UNDECIDED`` for int p^alpha q^(1-alpha), with q
    dominating p, or the reason it diverges, read from the densities'
    declared tails; undecided when either declares none.

    In 1-D each end of p's support is decided by :func:`_end_finite`. In 2-D
    two Gaussians give a finite integral iff alpha P_p - (alpha - 1) P_q is
    positive definite, which is the closed form's S* > 0.
    """
    tp, tq = p.tails, q.tails
    if tp is None or tq is None:
        return _UNDECIDED
    if p.dim == 2:
        beta = alpha - 1.0
        a = [[alpha * x - beta * y for x, y in zip(rp[:i + 1], rq[:i + 1])]
             for i, (rp, rq) in enumerate(zip(tp, tq))]
        if cholesky_rows(a) is None:
            return _S_STAR_INDEFINITE
        return _FINITE
    (lo, hi), = p.support
    (q_lo, q_hi), = q.support
    lower = _end_finite(tp[0], tq[0] if lo == q_lo else _INSIDE, alpha)
    upper = _end_finite(tp[1], tq[1] if hi == q_hi else _INSIDE, alpha)
    if lower and upper:
        return _FINITE
    for finite, end in ((lower, lo), (upper, hi)):
        if finite is False:
            return f"divergent tail at {end:+g}" if math.isinf(end) else f"divergent tail at {end:g}"
    return _UNDECIDED


_STENCIL_1D = np.array([-1.0, 0.0, 1.0])


def _newton_max_1d(log_integrand, x: float, h: float, lo: float, hi: float):
    """Maximise a 1-D log-integrand on (lo, hi) by Newton steps on a 3-point
    stencil, kept inside the support.

    Starts at ``x`` with stencil step ``h``. Where the curvature is negative
    the step is Newton's and the scale 1/sqrt(-H); elsewhere the step runs
    up the gradient to the end it points at and the scale is 1/|gradient|.
    A step that would leave the support goes half way to the end instead, so
    a maximum at a finite end is approached geometrically. Later stencil
    steps are the scale. Returns ``(maximiser, scale)`` once a step is
    within ``_NEWTON_STEP_TOL`` scales. Where the steps stop short of that
    (a stencil value that is not finite, a gradient up to an infinite end
    with no curvature to stop it, rounding that flattens the stencil far
    from the origin, or ``_NEWTON_MAX_STEPS`` steps), it returns the best
    stencil centre seen with its stencil step, or None when there is none.
    """
    best = None
    for _ in range(_NEWTON_MAX_STEPS):
        h = min(h, 0.5 * (x - lo), 0.5 * (hi - x))
        if not h > 0.0:  # rounding has put x on an end
            break
        v0, v1, v2 = log_integrand(x + h * _STENCIL_1D).tolist()
        if not (math.isfinite(v0) and math.isfinite(v1) and math.isfinite(v2)):
            break
        if best is None or v1 > best[0]:
            best = (v1, x, h)
        grad = (v2 - v0) / (2.0 * h)
        curv = (2.0 * v1 - v0 - v2) / (h * h)
        if curv > 0.0:
            scale, step = 1.0 / math.sqrt(curv), grad / curv
        elif grad != 0.0:
            scale, step = 1.0 / abs(grad), math.copysign(math.inf, grad)
        else:
            break
        end = hi if step > 0.0 else lo
        if abs(step) >= abs(end - x):  # would leave the support
            if math.isinf(end):
                break
            step = 0.5 * (end - x)
        x += step
        if abs(step) <= _NEWTON_STEP_TOL * scale:
            return x, scale
        h = scale
    return None if best is None else best[1:]


# Breakpoint offsets, in units of a scale, on either side of a located
# maximum or a finite end: 2^-40 to 2^7 scales, so that panels of the
# integrand's own width meet it there even when rounding has skewed the
# scale that the stencil measured.
_LADDER = np.multiply.outer([-1.0, 1.0], 2.0 ** np.arange(-40.0, 8.0)).ravel()


def _peak_anchors_1d(log_integrand, anchors: np.ndarray, support):
    """The log-integrand's largest value on p's support and breakpoints that
    resolve it, ``(shift, breakpoints)``, or None when none is found.

    The candidates are the maximum that Newton steps locate from the best
    anchor, at its scale, and, on a bounded support, each end, at the
    support's width: an end can hold the larger value, as against a narrow
    Gaussian q, whose q^(1-alpha) grows like exp(+x^2) towards the ends of
    a bounded p, past a local maximum in p's bulk that the Newton steps
    settle on. Each candidate whose log-integrand is finite adds the
    :data:`_LADDER` of breakpoints around it to the anchors.
    """
    lo, hi = support
    pts = np.unique(anchors)
    i = int(np.argmax(log_integrand(pts)))
    candidates = []
    if pts.size > 1:
        gaps = np.diff(pts)
        h = float(min(gaps[max(i - 1, 0)], gaps[min(i, gaps.size - 1)]))
        found = _newton_max_1d(log_integrand, float(pts[i]), h, lo, hi)
        if found is not None:
            candidates.append(found)
    if math.isfinite(hi - lo):
        candidates += [(lo, hi - lo), (hi, hi - lo)]
    if not candidates:
        return None
    values = log_integrand(np.array([c for c, _ in candidates]))
    finite = np.isfinite(values)
    if not finite.any():
        return None
    ladders = [c + s * _LADDER for (c, s), ok in zip(candidates, finite) if ok]
    return float(values[finite].max()), np.concatenate([anchors, *ladders])


def _shifted_integral(log_integrand, frame: _Frame, rel_tol):
    """The quadrature of exp(log_integrand - frame.shift) in the frame, and
    whether q vanished where p does not. It is None when the pass overflowed:
    a node rose more than :data:`OVERFLOW_NATS` above the shift (+inf where
    q vanishes), or the weighted sum is not finite."""
    state = {"over": False, "vanished": False}

    def f(x):
        if state["over"]:  # the pass is already void
            return np.zeros(np.shape(x)[:1] if np.ndim(x) > 1 else np.shape(x))
        lv = log_integrand(x) - frame.shift
        top = lv.max(initial=-np.inf)
        if top > OVERFLOW_NATS:
            state["over"], state["vanished"] = True, top == np.inf
            return np.zeros(lv.shape)
        return np.exp(lv)

    res = frame.integrate(f, rel_tol)
    if state["over"] or not math.isfinite(res.value):
        return None, state["vanished"]
    return res, False


def renyi_quadrature(
    p: Density, q: Density, alpha: float, rel_tol: float = 1e-8
) -> DivergenceEstimate:
    """(1/(alpha-1)) log int q (p/q)^alpha by adaptive quadrature (dim <= 2).

    Returns inf, before any node is evaluated, when q does not dominate p
    or when the densities' tails make the integral diverge
    (:func:`_tail_verdict`). A pass whose log-integrand overflows its shift
    (:data:`OVERFLOW_NATS`) returns inf only when some density declares no
    tails; with finite tails the 1-D pass is taken again from the located
    peak, and an overflow there, or in 2-D, raises ``ArithmeticError``, as
    does an integral that is not positive. A log-integrand that overflows
    to NaN (a huge alpha) raises ``ValueError``.
    """
    alpha = _check_alpha(alpha)
    if not dominates(p, q):
        return DivergenceEstimate(np.inf, QUADRATURE, 0.0, alpha, reason=DOMINANCE)
    tails = _tail_verdict(p, q, alpha)
    if tails is not _FINITE and tails is not _UNDECIDED:
        return DivergenceEstimate(np.inf, QUADRATURE, 0.0, alpha, reason=tails)

    def log_integrand(x):
        lp = p.log_pdf(x)
        lq = q.log_pdf(x)
        if lp.min(initial=np.inf) > -np.inf:  # p > 0 on every point
            return alpha * lp + (1.0 - alpha) * lq
        out = np.full(lp.shape, -np.inf)
        ok = lp > -np.inf
        out[ok] = alpha * lp[ok] + (1.0 - alpha) * lq[ok]
        return out

    # A huge alpha overflows alpha log p to -inf and the sum to NaN at the
    # frame's first points, and the shift check refuses it by name, so numpy
    # need not warn of it first. Only where alpha - 1 rounds to alpha: below
    # that, only a log-density past -1e292 overflows, and numpy's ufuncs run
    # slower under an errstate (about 3% of a Gamma pair's quadrature).
    if alpha - 1.0 == alpha:
        with np.errstate(over="ignore", invalid="ignore"):
            frame = _frame(p, q, log_integrand)
    else:
        frame = _frame(p, q, log_integrand)
    if math.isnan(frame.shift):
        raise ValueError(f"the Renyi integrand overflows at alpha = {alpha:g}")
    res, vanished = _shifted_integral(log_integrand, frame, rel_tol)
    if res is None and not vanished and tails is _FINITE and p.dim == 1:
        peak = _peak_anchors_1d(log_integrand, frame.breakpoints[0], frame.supports[0])
        if peak is not None:
            shift, anchors = peak
            frame = frame._replace(shift=shift, breakpoints=(anchors,))
            res, vanished = _shifted_integral(log_integrand, frame, rel_tol)
    if vanished:
        return DivergenceEstimate(np.inf, QUADRATURE, 0.0, alpha, reason=DOMINANCE)
    if res is None:
        if tails is _FINITE:
            raise ArithmeticError("Renyi integral overflowed its shift although "
                                  "the tails make it finite")
        return DivergenceEstimate(np.inf, QUADRATURE, 0.0, alpha, reason=OVERFLOW_UNDECIDED)
    if res.value <= 0.0:
        raise ArithmeticError("Renyi integral evaluated to a non-positive value")
    value = (frame.shift + frame.log_jac + np.log(res.value)) / (alpha - 1.0)
    err = res.error / (res.value * (alpha - 1.0))
    return DivergenceEstimate(float(value), QUADRATURE, float(err), alpha,
                              res.converged, res.panels)


def _check_gaussians(p: Density, q: Density) -> None:
    for d in (p, q):
        if d.kind != "gaussian":
            raise TypeError(f"expected a Gaussian density, got kind={d.kind!r}")
    if p.dim != q.dim:
        raise ValueError("dimension mismatch between Gaussian inputs")


def renyi_gauss_closed(p: Density, q: Density, alpha: float) -> DivergenceEstimate:
    """Closed-form Gaussian Renyi divergence.

    With S* = alpha S_q + (1-alpha) S_p, finite iff S* is positive definite:

        D_alpha = (alpha/2) d' S*^{-1} d
                  - (1/(2(alpha-1))) [ log det S*
                                       - (1-alpha) log det S_p
                                       - alpha log det S_q ].

    Definiteness is decided by the pivots of a Cholesky factorisation of
    S*'s lower triangle: the value is ``inf`` when one is not positive.
    The same factor gives d' S*^{-1} d by forward substitution and log det
    S*; log det S_p and log det S_q are the densities' own ``log_det``.
    Raises ``ValueError`` where a large alpha overflows the value to NaN.
    """
    alpha = _check_alpha(alpha)
    _check_gaussians(p, q)
    beta = 1.0 - alpha
    s_star = [[alpha * sq + beta * sp for sp, sq in zip(rp[:i + 1], rq[:i + 1])]
              for i, (rp, rq) in enumerate(zip(p.cov.tolist(), q.cov.tolist()))]
    rows = cholesky_rows(s_star)
    if rows is None:
        return DivergenceEstimate(np.inf, CLOSED_FORM, 0.0, alpha, reason=_S_STAR_INDEFINITE)
    z = solve_lower(rows, [a - b for a, b in zip(p.mean.tolist(), q.mean.tolist())])
    quad = 0.5 * alpha * sum(v * v for v in z)
    log_det = 2.0 * sum(math.log(row[i]) for i, row in enumerate(rows))
    logdets = log_det - beta * p.log_det - alpha * q.log_det
    value = quad - logdets / (2.0 * (alpha - 1.0))
    if math.isnan(value):
        raise ValueError(f"the Gaussian Renyi closed form overflows at alpha = {alpha:g}")
    return DivergenceEstimate(max(value, 0.0), CLOSED_FORM, 0.0, alpha)


def _kl_gauss_closed(p: Density, q: Density) -> DivergenceEstimate:
    """KL(p || q) for two Gaussians, from their factors L_p and L_q:
    tr(S_q^{-1} S_p) = ||L_q^{-1} L_p||_F^2, solved column by column."""
    trace = 0.0
    for j in range(p.dim):
        col = [0.0] * j + [row[j] for row in p.chol[j:]]
        trace += sum(v * v for v in solve_lower(q.chol, col))
    z = solve_lower(q.chol, [a - b for a, b in zip(p.mean.tolist(), q.mean.tolist())])
    value = 0.5 * (trace + sum(v * v for v in z) - p.dim
                   + q.log_det - p.log_det)
    return DivergenceEstimate(max(value, 0.0), CLOSED_FORM, 0.0, None)


_SQRT_2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_LOG_2PI = math.log(2.0 * math.pi)


def _kl_gauss_laplace(p: Density, q: Density) -> DivergenceEstimate:
    """KL(N(mu, s^2) || Laplace(k, b)) = -H(N) + log 2b + E|X - k| / b, where
    the folded normal's mean is, with d = mu - k,

        E|X - k| = s sqrt(2/pi) exp(-d^2 / 2s^2) + d erf(d / (s sqrt 2)).
    """
    s = p.chol[0][0]
    k, b = q.params["loc"], q.params["scale"]
    d = p.mean.tolist()[0] - k
    folded = s * _SQRT_2_OVER_PI * math.exp(-0.5 * (d / s) ** 2) + d * math.erf(d / (s * _SQRT_2))
    value = -p.entropy + math.log(2.0 * b) + folded / b
    return DivergenceEstimate(value, CLOSED_FORM, 0.0, None)


def _kl_laplace_gauss(p: Density, q: Density) -> DivergenceEstimate:
    """KL(Laplace(k, b) || N(mu, s^2)) = -H(L) + (1/2) log 2 pi s^2
    + E(X - mu)^2 / 2s^2, with E(X - mu)^2 = (k - mu)^2 + 2 b^2."""
    k, b = p.params["loc"], p.params["scale"]
    s = q.chol[0][0]
    d = k - q.mean.tolist()[0]
    value = (-p.entropy + 0.5 * (_LOG_2PI + q.log_det)
             + (d * d + 2.0 * b * b) / (2.0 * s * s))
    return DivergenceEstimate(value, CLOSED_FORM, 0.0, None)


def _kl_quadrature(p: Density, q: Density, rel_tol: float) -> DivergenceEstimate:
    """KL(p || q) = int p log(p/q) by adaptive quadrature (dim <= 2), in the
    frame that :func:`_frame` finds for p's log-density."""
    if not dominates(p, q):
        return DivergenceEstimate(np.inf, QUADRATURE, 0.0, None, reason=DOMINANCE)
    blown = {"hit": False}

    def f(x):
        lp = p.log_pdf(x)
        lq = q.log_pdf(x)
        out = np.zeros(lp.shape)
        ok = lp > -700.0
        if np.any(ok & (lq == -np.inf)):
            blown["hit"] = True
            lq = np.where(lq == -np.inf, -1e9, lq)
        lp_ok = lp[ok]
        out[ok] = np.exp(lp_ok) * (lp_ok - lq[ok])
        return out

    frame = _frame(p, q, p.log_pdf)
    res = frame.integrate(f, rel_tol)
    if blown["hit"]:  # q vanishes where p does not
        return DivergenceEstimate(np.inf, QUADRATURE, 0.0, None, reason=DOMINANCE)
    if not math.isfinite(res.value):
        return DivergenceEstimate(np.inf, QUADRATURE, 0.0, None, reason=OVERFLOW_UNDECIDED)
    jac = math.exp(frame.log_jac)
    return DivergenceEstimate(max(float(res.value) * jac, 0.0), QUADRATURE,
                              float(res.error) * jac, None, res.converged, res.panels)


# Batch forms of the closed forms. One side of the pair is a Density and the
# other a batch of members (:class:`~renyi_vi.distributions.Members`), on
# whichever side the objective puts them; each returns every member's value
# with the bits its scalar row gives it. So each repeats its row's
# operations in its order: numpy only for +, -, *, / and sqrt, which round
# correctly, as Python's floats do, and the row's own function, element by
# element, for every log, exp, erf and ``** 2`` (the numpy log where a
# Density's own log_det or entropy used it). The rows stay the reference.


def _means(d) -> list:
    """d's mean, coordinate by coordinate: floats, or arrays over a batch."""
    return d.mean.tolist() if isinstance(d, Density) else list(d.mean)


def _each(fn, x):
    """``fn`` of x, of each element where x is an array over a batch."""
    if isinstance(x, np.ndarray):
        return np.array([fn(v) for v in x.tolist()])
    return fn(x)


def _square(v: float) -> float:
    return v ** 2


def _renyi_gauss_batch(p: Density, q: Members, alpha: float) -> np.ndarray:
    """:func:`renyi_gauss_closed` of p against each member of q."""
    beta = 1.0 - alpha
    s_star = [[alpha * sq + beta * sp for sp, sq in zip(rp[:i + 1], rq)]
              for i, (rp, rq) in enumerate(zip(p.cov.tolist(), q.cov))]
    rows, ok = cholesky_batch(s_star)
    z = solve_lower(rows, [a - b for a, b in zip(_means(p), _means(q))])
    quad = 0.5 * alpha * sum(v * v for v in z)
    log_det = 2.0 * sum(_each(math.log, np.where(ok, row[i], 1.0))
                        for i, row in enumerate(rows))
    logdets = log_det - beta * p.log_det - alpha * q.log_det
    value = quad - logdets / (2.0 * (alpha - 1.0))
    return np.where(ok, np.where(0.0 > value, 0.0, value), np.inf)


def _kl_gauss_batch(p, q) -> np.ndarray:
    """:func:`_kl_gauss_closed` with a batch of members as p or as q."""
    trace = 0.0
    for j in range(p.dim):
        col = [0.0] * j + [row[j] for row in p.chol[j:]]
        trace = trace + sum(v * v for v in solve_lower(q.chol, col))
    z = solve_lower(q.chol, [a - b for a, b in zip(_means(p), _means(q))])
    value = 0.5 * (trace + sum(v * v for v in z) - p.dim + q.log_det - p.log_det)
    return np.where(0.0 > value, 0.0, value)


def _kl_gauss_laplace_batch(p, q) -> np.ndarray:
    """:func:`_kl_gauss_laplace` with a batch of members as p or as q."""
    s = p.chol[0][0]
    k, b = q.params["loc"], q.params["scale"]
    d = _means(p)[0] - k
    folded = (s * _SQRT_2_OVER_PI * _each(math.exp, -0.5 * _each(_square, d / s))
              + d * _each(math.erf, d / (s * _SQRT_2)))
    return -p.entropy + _each(math.log, 2.0 * b) + folded / b


def _kl_laplace_gauss_batch(p, q) -> np.ndarray:
    """:func:`_kl_laplace_gauss` with a batch of members as p or as q."""
    k, b = p.params["loc"], p.params["scale"]
    s = q.chol[0][0]
    d = k - _means(q)[0]
    return (-p.entropy + 0.5 * (_LOG_2PI + q.log_det)
            + (d * d + 2.0 * b * b) / (2.0 * s * s))


# Closed forms by (p.kind, q.kind), one table per objective; a pair that is
# not listed is scored by the objective's quadrature. Each entry names two
# module attributes, the scalar row and its batch form (None for a row
# without one), which :func:`_score` and :func:`_score_batch` look up at
# call time, so a rebinding of either (a test's patch, a call tracer) is
# what runs. A Laplace is 1-D, so its Gaussian partner is too once the
# dimensions agree.
_RENYI_CLOSED = {("gaussian", "gaussian"): ("renyi_gauss_closed", "_renyi_gauss_batch")}
_KL_CLOSED = {
    ("gaussian", "gaussian"): ("_kl_gauss_closed", "_kl_gauss_batch"),
    ("gaussian", "laplace"): ("_kl_gauss_laplace", "_kl_gauss_laplace_batch"),
    ("laplace", "gaussian"): ("_kl_laplace_gauss", "_kl_laplace_gauss_batch"),
}


def _score(table: dict, quadrature, p: Density, q: Density, *args, rel_tol: float):
    """The pair scored by the closed form that ``table`` lists for its kinds,
    else by ``quadrature`` at ``rel_tol``."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    row = table.get((p.kind, q.kind))
    if row is not None:
        return globals()[row[0]](p, q, *args)
    return quadrature(p, q, *args, rel_tol=rel_tol)


def _score_batch(table: dict, p, q, *args) -> np.ndarray | None:
    """Each member of the batch on one side scored by the batch form of the
    row that ``table`` lists for the kinds; None where it lists no row, or
    a row without one (None in place of its name). Python's floats
    overflow without a word, so numpy does not warn here either."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    row = table.get((p.kind, q.kind))
    if row is None or row[1] is None:
        return None
    with np.errstate(all="ignore"):
        return globals()[row[1]](p, q, *args)


def renyi(p: Density, q: Density, alpha: float, rel_tol: float = 1e-8) -> DivergenceEstimate:
    """D_alpha(p || q): the closed form that ``_RENYI_CLOSED`` lists for the
    pair, else :func:`renyi_quadrature` (dim <= 2)."""
    return _score(_RENYI_CLOSED, renyi_quadrature, p, q, alpha, rel_tol=rel_tol)


def renyi_batch(p: Density, q: Members, alpha: float) -> np.ndarray | None:
    """D_alpha(p || q_i) for each member q_i of the batch q, with the bits
    that :func:`renyi` gives each, by the batch form of the pair's
    ``_RENYI_CLOSED`` row; None when the pair has none. A value that the
    scalar row refuses (a NaN) is NaN here."""
    return _score_batch(_RENYI_CLOSED, p, q, _check_alpha(alpha))


def kl_forward(p: Density, q: Density, rel_tol: float = 1e-9) -> DivergenceEstimate:
    """KL(p || q) = int p log(p/q): the closed form that ``_KL_CLOSED`` lists
    for the pair, else quadrature (dim <= 2)."""
    return _score(_KL_CLOSED, _kl_quadrature, p, q, rel_tol=rel_tol)


def kl_forward_batch(p, q) -> np.ndarray | None:
    """KL(p || q) for each member of a batch of members on either side, with
    the bits that :func:`kl_forward` gives each, by the batch form of the
    pair's ``_KL_CLOSED`` row; None when the pair has none."""
    return _score_batch(_KL_CLOSED, p, q)


def kl_reverse(p: Density, q: Density, rel_tol: float = 1e-9) -> DivergenceEstimate:
    """KL(q || p): the classical variational-Bayes (ELBO) direction."""
    return kl_forward(q, p, rel_tol=rel_tol)


def mc_renyi_upper_bound(
    q: Density,
    log_joint,
    alpha: float,
    n_draws: int,
    seed: int,
) -> MCUpperBound:
    """Estimate (1/alpha) log E_q[(joint(theta)/q(theta))^alpha] from draws.

    Plain importance weights combined through log-sum-exp; no
    self-normalization. Deterministic given (seed, n_draws).
    """
    alpha = _check_alpha(alpha)
    if n_draws < 2:
        raise ValueError("n_draws must be at least 2")
    theta = q.sample(n_draws, seed)
    lw = np.asarray(log_joint(theta), dtype=float) - q.log_pdf(theta)
    if np.all(lw == -np.inf):
        raise ValueError(
            "all importance weights vanished: q places no mass where the "
            "joint density lives"
        )
    value = (log_sum_exp(alpha * lw) - np.log(n_draws)) / alpha
    shift = np.max(alpha * lw)
    u = np.exp(alpha * lw - shift)
    mu = float(u.mean())
    sd = float(u.std(ddof=1))
    stderr = sd / (np.sqrt(n_draws) * mu * alpha)
    return MCUpperBound(
        value=float(value), stderr=float(stderr), n_draws=n_draws, alpha=alpha
    )


def holder_lower_bound(
    p: Density,
    q: Density,
    alpha: float,
    interval: tuple[float, float],
    rel_tol: float = 1e-10,
) -> float:
    """(int_K p)^alpha / (int_K q)^{alpha-1}, a lower bound on int q (p/q)^alpha."""
    alpha = _check_alpha(alpha)
    if p.dim != 1 or q.dim != 1:
        raise ValueError("holder_lower_bound is for univariate densities")
    lo, hi = float(interval[0]), float(interval[1])
    mp = interval_mass(p, lo, hi, rel_tol)
    mq = interval_mass(q, lo, hi, rel_tol)
    if mq == 0.0:
        return np.inf if mp > 0.0 else 0.0
    if mp == 0.0:
        return 0.0
    return float(np.exp(alpha * np.log(mp) - (alpha - 1.0) * np.log(mq)))
