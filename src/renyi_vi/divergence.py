"""Renyi divergence D_alpha(p || q) for alpha > 1, forward and reverse KL,
a Monte-Carlo evidence upper bound, and the Holder lower bound on the Renyi
integral.

``renyi`` and ``kl_forward`` go through one dispatcher
(:func:`_divergence`): the closed form that ``_RENYI_CLOSED`` or
``_KL_CLOSED`` lists for the pair's two kinds, else adaptive quadrature
(dim <= 2) in one pass set-up for both objectives (:class:`_Pass`), each of
which gives only its log-mass (the Renyi log-integrand, or log p for the
KL) and what it makes of a node's values: in 1-D in x, with both
densities' bulk points as first panel edges (:func:`_anchor_points_1d`),
and in 2-D in the peak frame (:func:`_peak_frame_2d`). Each closed-form row
is one function over Python floats or arrays: it reads a Density, or
:class:`~renyi_vi.distributions.Members` (the attributes of Gaussians or
Laplaces, without a ``log_pdf``) on either side of the pair. One member is
what a fit's line searches score in place of a Density. A batch is what
``closed_batch`` scores in one call, keyed by alpha (None for the KL), each
member with the bits the row gives it alone, so that a fit scores its start
grid in one call.

Infinity is a first-class value here: D_alpha is infinite whenever q fails
to dominate p or the integral q (p/q)^alpha diverges, and both outcomes are
reported as ``value = inf`` rather than raised, with the reason in
:attr:`DivergenceEstimate.reason`; a finite value that overflows float64
raises. Whether the integral diverges is decided from the two densities'
tails (:attr:`Density.tails`) before any node is evaluated: with alpha > 1
it diverges when q's tail is lighter than p's.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .distributions import (
    Density,
    Members,
    bulk_points,
    dominates,
    interval_mass,
)
from .numerics import (
    QuadratureSpec,
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
    "DivergenceEstimate",
    "MCUpperBound",
    "renyi",
    "renyi_quadrature",
    "renyi_gauss_closed",
    "kl_forward",
    "closed_batch",
    "kl_reverse",
    "mc_renyi_upper_bound",
    "holder_lower_bound",
]

CLOSED_FORM = "closed-form"
QUADRATURE = "quadrature"

# Log-integrand excess over a pass's shift (:class:`_Pass`) that stops a
# Renyi quadrature pass: the shift has missed the integrand's peak. 700 nats
# is just below exp-overflow in float64, so a pass whose shift is sound
# never trips it. The 1-D pass is then re-seeded at the located peak.
OVERFLOW_NATS = 700.0

# Why a value is infinite (DivergenceEstimate.reason), besides a divergent
# tail, whose reason names the end.
DOMINANCE = "dominance"
_S_STAR_INDEFINITE = "divergent tail: S* is not positive definite"


@dataclass(frozen=True)
class DivergenceEstimate:
    """A divergence value in [0, inf] with its method tag and error bound.

    ``alpha`` is None for KL estimates, the alpha -> 1 limit, which its own
    log-mass and node step serve, never renyi_*. ``converged`` is False
    when the adaptive quadrature behind a finite value stopped before
    reaching its tolerance; closed forms and ``inf`` verdicts are always
    converged. ``panels`` counts the final quadrature panels (boxes in 2-D)
    behind a finite quadrature value; it is 0 for closed forms and ``inf``
    verdicts.
    ``reason`` says why a value is infinite and is None when it is finite:
    ``"dominance"`` (q vanishes where p does not) or ``"divergent tail at
    <end>"`` (in 2-D, an S* that is not positive definite). An ``inf`` is
    never a guess: a pair that these do not decide raises, as does a
    closed form that overflows float64.
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


def _kinds(p: Density, q: Density) -> str:
    return f"p (kind={p.kind!r}) and q (kind={q.kind!r})"


def _anchor_points_1d(p: Density, q: Density) -> np.ndarray:
    """Both densities' bulk points inside p's support; raises ``ValueError``
    where there are none.

    Unsorted, and a point both densities share appears twice: the shift is a
    maximum over them and the panel edges are sorted and deduplicated by
    ``integrate``, so neither depends on order or repeats. p's bulk points
    lie inside p's support, and q's sorted ones do where their ends do, as
    where q's support is p's: then no mask is taken.
    """
    lo, hi = p.support[0]
    pts = bulk_points(q)
    if pts.size and not (pts[0] > lo and pts[-1] < hi):
        pts = pts[(pts > lo) & (pts < hi)]
    pts = np.concatenate([bulk_points(p), pts])
    if pts.size == 0:
        raise ValueError(f"{_kinds(p, q)} declare no (finite) moments inside p's support")
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
    """Where to integrate in 2-D (:func:`_peak_frame_2d`): over the whole
    plane of the variable u, with first box edges ``breakpoints`` per axis
    of u. ``to_x`` maps (N, 2) points u to x; ``log_jac`` is log |dx/du|;
    ``shift`` is the largest value of the log-mass that the frame located."""

    breakpoints: tuple
    shift: float
    log_jac: float
    to_x: Callable


# Breakpoint offsets of the 2-D peak frame on either side of a maximum, in
# its marginal sds in z. The frame makes the largest maximum a unit bump, so
# a short ladder seeds boxes of its width where its mass is.
_PEAK_LADDER = np.array([-12.0, -8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0, 12.0])


def _peak_frame_2d(p, q, log_integrand):
    """The integration frame from the log-integrand's maxima.

    Newton runs once from each centre of p and q; a maximum within one
    marginal sd of one already found is dropped. Each maximum c with
    curvature H stands for N(c, inv(-H)). The frame is x = origin + A z with
    A A' = inv(-H) at the largest maximum, so its peak is a unit isotropic
    bump in z and a thin ridge along a diagonal of x still meets boxes of its
    own width. Its breakpoints, per axis of z, are each maximum's centre
    plus :data:`_PEAK_LADDER` times its marginal sd there (11 per maximum,
    so 144 first-pass boxes for one), and its shift the largest
    log-integrand value at the maxima. A start whose Newton steps fail (as
    from q's centre between two modes of p) adds no maximum. None when p's
    support is not the whole plane, a density has no centres, or every
    start fails.
    """
    starts = [_centres(p), _centres(q)]
    if np.isfinite(p.support).any() or None in starts:
        return None
    maxima = []
    for centre, sd in starts[0] + starts[1]:
        found = _newton_max_2d(log_integrand, centre, sd)
        if found is None:
            continue
        c, cov = found
        reach = np.sqrt(np.diag(cov))
        if all(np.any(np.abs(c - m) > reach) for m, _ in maxima):
            maxima.append((c, cov))
    if not maxima:
        return None
    peaks = log_integrand(np.array([c for c, _ in maxima]))
    origin, cov = maxima[int(np.argmax(peaks))]
    lam, vec = np.linalg.eigh(cov)
    if not lam[0] > 0.0:
        return None
    a_inv = vec.T / np.sqrt(lam)[:, None]
    # each maximum's centre and marginal sds in z, laddered along each axis
    edges = np.concatenate([
        a_inv @ (c - origin) + _PEAK_LADDER[:, None] * np.sqrt(np.diag(a_inv @ s @ a_inv.T))
        for c, s in maxima])
    bx, by = np.unique(edges[:, 0]), np.unique(edges[:, 1])
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

    return _Frame((bx, by), float(np.max(peaks)), float(np.log(abs(np.linalg.det(a)))), to_x)


# Stands for q at an end of p's support that lies inside q's: there q is
# finite and positive, a power 0 of the distance to the end.
_INSIDE = (0, 0.0, 0.0)
_FINITE = "finite"


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
    """``_FINITE``, or the reason int p^alpha q^(1-alpha) diverges, with q
    dominating p, read from the densities' declared tails. Raises
    ``ValueError``, naming both kinds, where they do not decide it: tails
    not declared, a 2-D q with more than one component, or cancelling
    leading terms at a 1-D end (:func:`_end_finite` is None).

    In 1-D each end of p's support is decided by :func:`_end_finite`. In 2-D
    it is finite iff alpha P_k - (alpha - 1) P_q is positive definite for
    q's precision P_q and each of p's P_k, since (sum_k w_k p_k)^alpha lies
    between max_k (w_k p_k)^alpha and K^(alpha - 1) sum_k (w_k p_k)^alpha;
    for one component that is the closed form's S* > 0.
    """
    tp, tq = p.tails, q.tails
    if tp is None or tq is None:
        raise ValueError(f"the tails of {_kinds(p, q)} are not both declared, so whether "
                         "the Renyi integral is finite is undecided")
    if p.dim == 2:
        if len(tq) != 1:
            raise ValueError(f"the tails of {_kinds(p, q)} do not decide the Renyi integral: "
                             "q has more than one component")
        (pq,), beta = tq, alpha - 1.0
        for pk in tp:
            a = [[alpha * x - beta * y for x, y in zip(rp[:i + 1], rq[:i + 1])]
                 for i, (rp, rq) in enumerate(zip(pk, pq))]
            if not cholesky_rows(a)[1]:
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
    raise ValueError(f"the leading tail terms of {_kinds(p, q)} cancel, and the rest is "
                     "not declared, so whether the Renyi integral is finite is undecided")


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


class _Pass:
    """One quadrature pass of a divergence over p's support (dim <= 2), run
    on construction: the integrand, what the pass met, and ``res``, its
    quadrature, or None where the pass is void or its sum is not finite.

    An objective gives two things: its log-mass (the Renyi log-integrand, or
    log p for the KL) and its ``node`` step, ``node(pass, log_mass, x)``,
    which turns the log-mass at a call's nodes x into the integrand's values
    there. In 1-D the pass runs in x, with the anchors
    (:func:`_anchor_points_1d`) as its first panel edges, so that a Laplace
    or logistic kink is an edge from the first pass; its first call
    evaluates the log-mass once, on the anchors and then its nodes, takes
    the ``shift`` from the anchors' part (NaN if one is NaN), and raises
    ``ValueError`` where the log-mass vanishes on every anchor. Given
    ``seed``, a ``(shift, breakpoints)`` pair (:func:`_peak_anchors_1d`), it
    starts from those instead. In 2-D it runs in the peak frame of the
    log-mass (:func:`_peak_frame_2d`), with the frame's shift and
    ``log_jac``, log |dx/du|; ``ValueError``, naming both kinds, where no
    maximum is found. A node step may void the pass (:meth:`stop`),
    ``vanished`` where q vanishes where p does not; a void pass's later
    calls return zeros.
    """

    __slots__ = ("log_mass", "node", "shift", "anchors", "log_jac", "void", "vanished", "res")

    def __init__(self, p, q, log_mass, node, rel_tol: float, seed=None):
        self.log_mass, self.node, self.void, self.vanished = log_mass, node, False, False
        if p.dim == 1:
            (lo, hi), = p.support
            self.shift, self.anchors = (None, _anchor_points_1d(p, q)) if seed is None else seed
            self.log_jac = 0.0
            res = integrate(self, QuadratureSpec(lo, hi, rel_tol, self.anchors))
        else:
            if p.dim > 2:
                raise ValueError("quadrature divergences support dim <= 2")
            frame = _peak_frame_2d(p, q, log_mass)
            if frame is None:
                raise ValueError("no maximum of the integrand found from the centres of "
                                 + _kinds(p, q))
            self.shift, self.anchors, self.log_jac = frame.shift, None, frame.log_jac
            bx, by = frame.breakpoints
            res = integrate_2d(lambda u: self(frame.to_x(u)),
                               QuadratureSpec(-np.inf, np.inf, rel_tol, bx),
                               QuadratureSpec(-np.inf, np.inf, rel_tol, by))
        self.res = None if self.void or not math.isfinite(res.value) else res

    def __call__(self, x):
        if self.void:
            return np.zeros(len(x))
        if self.shift is None:
            k = self.anchors.size
            lm = self.log_mass(np.concatenate([self.anchors, x]))
            self.shift = float(lm[:k].max(initial=-np.inf))
            if self.shift == -np.inf:
                raise ValueError("integrand vanishes on every anchor point")
            lm = lm[k:]
        else:
            lm = self.log_mass(x)
        return self.node(self, lm, x)

    def stop(self, n: int, vanished: bool) -> np.ndarray:
        """Void the pass, ``vanished`` where q vanishes where p does not:
        zeros for this call's ``n`` nodes and every later call's."""
        self.void, self.vanished = True, vanished
        return np.zeros(n)


def renyi_quadrature(
    p: Density, q: Density, alpha: float, rel_tol: float = 1e-8
) -> DivergenceEstimate:
    """(1/(alpha-1)) log int q (p/q)^alpha by adaptive quadrature (dim <= 2).

    Returns inf, before any node is evaluated, when q does not dominate p
    or when the densities' tails make the integral diverge; a pair whose
    tails do not decide it raises ``ValueError`` (:func:`_tail_verdict`).
    The pass (:class:`_Pass`) integrates exp(log-integrand - shift); in 1-D
    its first call evaluates the anchors with its first nodes, so a pass
    that converges at once calls each ``log_pdf`` once. It is void once its
    shift is NaN (a log-integrand that overflows to NaN, a huge alpha),
    which raises ``ValueError``, or once a node rises more than
    :data:`OVERFLOW_NATS` above the shift; an anchor or node at +inf is q
    vanishing where p does not, and the value is inf. A 1-D pass that
    overflows its shift, or that sums to a value that is not positive (a
    peak so narrow, at a large alpha, that it falls between the nodes of
    the panels either side of a breakpoint), is taken again from the
    located peak (:func:`_peak_anchors_1d`). An overflow in 2-D, or in the
    re-seeded 1-D pass, raises ``ArithmeticError``, as does an integral that
    is still not positive: a finite integral that float64 cannot evaluate.
    """
    alpha = _check_alpha(alpha)
    if not dominates(p, q):
        return DivergenceEstimate(np.inf, QUADRATURE, 0.0, alpha, reason=DOMINANCE)
    tails = _tail_verdict(p, q, alpha)
    if tails is not _FINITE:
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

    def node(g, lv, x):
        shift = g.shift
        if not shift < math.inf:  # NaN, or +inf: q vanishes at an anchor
            return g.stop(lv.size, shift == math.inf)
        lv -= shift  # in place: the log-integrand's array is fresh
        top = lv.max(initial=-np.inf)
        if top > OVERFLOW_NATS:
            return g.stop(lv.size, top == np.inf)
        return np.exp(lv)

    # A huge alpha overflows alpha log p to -inf and the sum to NaN at the
    # first points evaluated, and the NaN shift is refused by name, so numpy
    # need not warn of it first. The first pass runs under the errstate too:
    # in 1-D its first call evaluates those points. Only where alpha - 1
    # rounds to alpha: below that, only a log-density past -1e292 overflows,
    # and numpy's ufuncs run slower under an errstate (about 3% of a Gamma
    # pair's quadrature).
    with np.errstate(over="ignore", invalid="ignore") if alpha - 1.0 == alpha else nullcontext():
        g = _Pass(p, q, log_integrand, node, rel_tol)
    if math.isnan(g.shift):
        raise ValueError(f"the Renyi integrand overflows at alpha = {alpha:g}")
    if (g.res is None or g.res.value <= 0.0) and not g.vanished and p.dim == 1:
        peak = _peak_anchors_1d(log_integrand, g.anchors, p.support[0])
        if peak is not None:
            g = _Pass(p, q, log_integrand, node, rel_tol, peak)
    if g.vanished:
        return DivergenceEstimate(np.inf, QUADRATURE, 0.0, alpha, reason=DOMINANCE)
    res = g.res
    if res is None:
        raise ArithmeticError("Renyi integral overflowed its shift although "
                              "the tails make it finite")
    if res.value <= 0.0:
        raise ArithmeticError("Renyi integral evaluated to a non-positive value")
    value = (g.shift + g.log_jac + np.log(res.value)) / (alpha - 1.0)
    err = res.error / (res.value * (alpha - 1.0))
    return DivergenceEstimate(float(value), QUADRATURE, float(err), alpha,
                              res.converged, res.panels)


# The closed forms read a Density, or Members (distributions.Members: the
# same attributes, in Python floats for one member or in arrays over a
# batch), on either side of the pair. Each row is one function over floats
# or arrays, and gives each member of a batch the bits it gives that member
# alone. So a float stays a Python float: numpy only for +, -, *, / and
# sqrt over a batch, which round correctly, as Python's floats do, and the
# row's own function, element by element (:func:`_each`), for every log,
# exp, erf and ``** 2`` (the numpy log where a Density's own log_det or
# entropy used it). The clamp at 0 (:func:`_nonneg`), the inf mask
# (:func:`_where`) and the check for a value float64 holds (:func:`_number`)
# dispatch the same way.

def _means(d) -> list | tuple:
    """d's mean, coordinate by coordinate: floats, or arrays over a batch."""
    return d.mean.tolist() if isinstance(d, Density) else d.mean


def _covs(d) -> list | tuple:
    """The rows of d's covariance, of which the closed forms read the lower
    triangle: floats, or arrays over a batch."""
    return d.cov.tolist() if isinstance(d, Density) else d.cov


def _each(fn, x):
    """``fn`` of x, of each element where x is an array over a batch."""
    if isinstance(x, np.ndarray):
        return np.array([fn(v) for v in x.tolist()])
    return fn(x)


def _kernel(r: float) -> float:
    """exp(-r^2 / 2), with Python's ``** 2``, which is not always r * r; 0.0
    where that square overflows."""
    try:
        return math.exp(-0.5 * r ** 2)
    except OverflowError:
        return 0.0


def _nonneg(x):
    """max(x, 0.0), element by element where x is an array over a batch."""
    return np.where(0.0 > x, 0.0, x) if isinstance(x, np.ndarray) else (0.0 if 0.0 > x else x)


def _where(ok, x, y):
    """x where ok, else y: ``np.where`` over a batch, whose ok is a mask."""
    return np.where(ok, x, y) if isinstance(ok, np.ndarray) else (x if ok else y)


def _number(x):
    """x where it is finite, else NaN, element by element over a batch."""
    if isinstance(x, np.ndarray):
        return np.where(np.isfinite(x), x, np.nan)
    return x if math.isfinite(x) else math.nan


def _check_gaussians(p: Density, q: Density) -> None:
    for d in (p, q):
        if d.kind != "gaussian":
            raise TypeError(f"expected a Gaussian density, got kind={d.kind!r}")
    if p.dim != q.dim:
        raise ValueError("dimension mismatch between Gaussian inputs")


def _s_star_rows(p, q, alpha: float):
    """:func:`~renyi_vi.numerics.cholesky_rows` of S* = alpha S_q +
    (1 - alpha) S_p: its factor rows and whether it is positive definite."""
    beta = 1.0 - alpha
    return cholesky_rows([[alpha * sq + beta * sp for sp, sq in zip(rp[:i + 1], rq[:i + 1])]
                          for i, (rp, rq) in enumerate(zip(_covs(p), _covs(q)))])


def _renyi_gauss(p, q, alpha: float):
    """The Gaussian Renyi row: the closed form of :func:`renyi_gauss_closed`,
    clamped at 0, and whether it is finite: whether S* is positive definite
    (a mask over a batch). S*'s factor rows give d' S*^{-1} d by forward
    substitution and log det S*; where a pivot fails, the value is NaN."""
    rows, ok = _s_star_rows(p, q, alpha)
    if ok is False:  # one pair, with no value to compute
        return math.nan, False
    z = solve_lower(rows, [a - b for a, b in zip(_means(p), _means(q))])
    quad = 0.5 * alpha * sum(v * v for v in z)
    log_det = 2.0 * sum(_each(math.log, row[i]) for i, row in enumerate(rows))
    logdets = log_det - (1.0 - alpha) * p.log_det - alpha * q.log_det
    return _nonneg(quad - logdets / (2.0 * (alpha - 1.0))), ok


def renyi_gauss_closed(p: Density, q: Density, alpha: float) -> DivergenceEstimate:
    """Closed-form Gaussian Renyi divergence: the Gaussian row by name, which
    refuses any other kind; :func:`renyi` reaches the same row through the
    table (:func:`_divergence`).

    With S* = alpha S_q + (1-alpha) S_p, finite iff S* is positive definite:

        D_alpha = (alpha/2) d' S*^{-1} d
                  - (1/(2(alpha-1))) [ log det S*
                                       - (1-alpha) log det S_p
                                       - alpha log det S_q ].

    Definiteness is decided by the pivots of a Cholesky factorisation of
    S*'s lower triangle: the value is ``inf`` when one is not positive.
    The same factor gives d' S*^{-1} d by forward substitution and log det
    S*; log det S_p and log det S_q are the densities' own ``log_det``.
    Either side may be :class:`~renyi_vi.distributions.Members` of one
    member. Raises ``ValueError`` where float64 cannot hold the value of a
    positive definite S*: a large alpha, or means far apart for the
    covariances (:func:`_closed_estimate`).
    """
    alpha = _check_alpha(alpha)
    _check_gaussians(p, q)
    return _closed_estimate(_renyi_gauss, p, q, alpha)


def _kl_gauss(p, q):
    """KL(p || q) for two Gaussians, from their factors L_p and L_q:
    tr(S_q^{-1} S_p) = ||L_q^{-1} L_p||_F^2, solved column by column."""
    trace = 0.0
    for j in range(p.dim):
        col = [0.0] * j + [row[j] for row in p.chol[j:]]
        trace = trace + sum(v * v for v in solve_lower(q.chol, col))
    z = solve_lower(q.chol, [a - b for a, b in zip(_means(p), _means(q))])
    return _nonneg(0.5 * (trace + sum(v * v for v in z) - p.dim + q.log_det - p.log_det))


_SQRT_2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_LOG_2PI = math.log(2.0 * math.pi)


def _kl_gauss_laplace(p, q):
    """KL(N(mu, s^2) || Laplace(k, b)) = -H(N) + log 2b + E|X - k| / b, where
    the folded normal's mean is, with d = mu - k,

        E|X - k| = s sqrt(2/pi) exp(-d^2 / 2s^2) + d erf(d / (s sqrt 2)).
    """
    s = p.chol[0][0]
    k, b = q.params["loc"], q.params["scale"]
    d = _means(p)[0] - k
    folded = s * _SQRT_2_OVER_PI * _each(_kernel, d / s) + d * _each(math.erf, d / (s * _SQRT_2))
    return -p.entropy + _each(math.log, 2.0 * b) + folded / b


def _kl_laplace_gauss(p, q):
    """KL(Laplace(k, b) || N(mu, s^2)) = -H(L) + (1/2) log 2 pi s^2
    + E(X - mu)^2 / 2s^2, with E(X - mu)^2 = (k - mu)^2 + 2 b^2."""
    k, b = p.params["loc"], p.params["scale"]
    s = q.chol[0][0]
    d = k - _means(q)[0]
    return (-p.entropy + 0.5 * (_LOG_2PI + q.log_det)
            + (d * d + 2.0 * b * b) / (2.0 * s * s))


def _kl_quadrature(p: Density, q: Density, rel_tol: float) -> DivergenceEstimate:
    """KL(p || q) = int p log(p/q) by adaptive quadrature (dim <= 2), in the
    Renyi quadrature's pass (:class:`_Pass`) with p's log-density as its
    log-mass. A node where q vanishes and p does not makes the value inf; a
    sum that is not finite raises ``ArithmeticError``."""
    if not dominates(p, q):
        return DivergenceEstimate(np.inf, QUADRATURE, 0.0, None, reason=DOMINANCE)

    def node(g, lp, x):
        lq = q.log_pdf(x)
        ok = lp > -700.0
        if np.any(ok & (lq == -np.inf)):
            return g.stop(lp.size, True)
        out = np.zeros(lp.shape)
        lp_ok = lp[ok]
        out[ok] = np.exp(lp_ok) * (lp_ok - lq[ok])
        return out

    g = _Pass(p, q, p.log_pdf, node, rel_tol)
    if g.vanished:
        return DivergenceEstimate(np.inf, QUADRATURE, 0.0, None, reason=DOMINANCE)
    if g.res is None:
        raise ArithmeticError(f"the KL integral of {_kinds(p, q)} is not finite in float64")
    res, jac = g.res, math.exp(g.log_jac)
    return DivergenceEstimate(max(float(res.value) * jac, 0.0), QUADRATURE,
                              float(res.error) * jac, None, res.converged, res.panels)


# Closed forms by (p.kind, q.kind): ``_RENYI_CLOSED`` for D_alpha and
# ``_KL_CLOSED`` for the KL, whose alpha is None. A pair that is not listed
# is scored by quadrature. Each entry names the row, a module attribute that
# :func:`_closed_row` looks up at call time, so that a rebinding of it (a
# test's patch) is what runs. A KL row gives its value; a Renyi row, which
# may be infinite, its value and whether that is finite. A Laplace is 1-D,
# so its Gaussian partner is too once the dimensions agree.
_RENYI_CLOSED = {("gaussian", "gaussian"): "_renyi_gauss"}
_KL_CLOSED = {
    ("gaussian", "gaussian"): "_kl_gauss",
    ("gaussian", "laplace"): "_kl_gauss_laplace",
    ("laplace", "gaussian"): "_kl_laplace_gauss",
}


def _closed_row(p, q, alpha: float | None):
    """The row that ``_RENYI_CLOSED``, or ``_KL_CLOSED`` where alpha is
    None, lists for the kinds of p and q; None where it lists none."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    name = (_RENYI_CLOSED if alpha is not None else _KL_CLOSED).get((p.kind, q.kind))
    return None if name is None else globals()[name]


def _closed(row, p, q, alpha: float | None):
    """``row``'s value for the pair, or each member's over a batch: inf where
    the row finds it infinite, NaN where float64 cannot hold it (a listed
    pair's KL is finite, so an infinite KL is an overflow). The one place a
    closed-form value is checked."""
    if alpha is None:
        return _number(row(p, q))
    value, finite = row(p, q, alpha)
    return _where(finite, _number(value), math.inf)


def _closed_estimate(row, p, q, alpha: float | None) -> DivergenceEstimate:
    """The pair's closed form by ``row`` (:func:`_closed`) as an estimate.
    Raises ``ValueError`` where float64 cannot hold the value. The one Renyi
    row is infinite only where S* is not positive definite."""
    value = _closed(row, p, q, alpha)
    if math.isnan(value):
        at = " float64" if alpha is None else f" at alpha = {alpha:g}"
        raise ValueError(f"the closed form of {_kinds(p, q)} overflows{at}")
    reason = _S_STAR_INDEFINITE if value == math.inf else None
    return DivergenceEstimate(value, CLOSED_FORM, 0.0, alpha, reason=reason)


def _divergence(p, q, alpha: float | None, rel_tol: float) -> DivergenceEstimate:
    """D_alpha(p || q), or KL(p || q) where alpha is None: the closed form
    that the tables list for the pair (:func:`_closed_row`), else
    :func:`renyi_quadrature` or :func:`_kl_quadrature` (dim <= 2)."""
    row = _closed_row(p, q, alpha)
    if row is not None:
        return _closed_estimate(row, p, q, alpha)
    if alpha is None:
        return _kl_quadrature(p, q, rel_tol)
    return renyi_quadrature(p, q, alpha, rel_tol=rel_tol)


def renyi(p: Density, q: Density, alpha: float, rel_tol: float = 1e-8) -> DivergenceEstimate:
    """D_alpha(p || q), by the closed form that ``_RENYI_CLOSED`` lists for
    the pair, else quadrature (:func:`_divergence`). Where the table lists
    the pair, either side may be :class:`~renyi_vi.distributions.Members`
    of one member, and a value that overflows raises ``ValueError``."""
    return _divergence(p, q, _check_alpha(alpha), rel_tol)


def kl_forward(p: Density, q: Density, rel_tol: float = 1e-9) -> DivergenceEstimate:
    """KL(p || q) = int p log(p/q), by the closed form that ``_KL_CLOSED``
    lists for the pair, else quadrature (:func:`_divergence`). Where the
    table lists the pair, either side may be
    :class:`~renyi_vi.distributions.Members` of one member, and a value that
    overflows raises ``ValueError``."""
    return _divergence(p, q, None, rel_tol)


def closed_batch(p, q, alpha: float | None = None) -> np.ndarray | None:
    """D_alpha(p || q), or KL(p || q) where alpha is None, for each member of
    a batch of :class:`~renyi_vi.distributions.Members` on either side, by
    the pair's closed-form row, with the bits that :func:`renyi` or
    :func:`kl_forward` gives each, and NaN where they raise; None where the
    pair has no row. Python's floats overflow without a word, so numpy does
    not warn here either."""
    if alpha is not None:
        alpha = _check_alpha(alpha)
    row = _closed_row(p, q, alpha)
    if row is None:
        return None
    with np.errstate(all="ignore"):
        return _closed(row, p, q, alpha)


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
