"""Renyi divergence D_alpha(p || q) for alpha > 1, forward and reverse KL,
a Monte-Carlo evidence upper bound, and the Holder lower bound on the Renyi
integral.

Closed forms, in Python floats from the parameters each
:class:`~renyi_vi.distributions.Density` holds (a Gaussian's Cholesky factor
and log-determinant, a Laplace's location and scale):

- Renyi: two Gaussians (Gil, Alajaji & Linder 2013);
- KL: two Gaussians, and a 1-D Gaussian against a Laplace in either
  direction, chosen by ``kl_forward`` from one table keyed on the two kinds.

Every other pair is scored by adaptive quadrature (dim <= 2).

Infinity is a first-class value here: D_alpha is infinite whenever q fails
to dominate p or the integral q (p/q)^alpha diverges, and both outcomes are
reported as ``value = inf`` rather than raised. The divergence-detection
threshold is :data:`OVERFLOW_NATS`: once the shifted log-integrand exceeds
it on any refinement node (i.e. the integrand keeps growing as the adaptive
pass widens), the integral is declared divergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Density, bulk_points, dominates, interval_mass, make_gaussian
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
    "DivergenceEstimate",
    "MCUpperBound",
    "renyi",
    "renyi_quadrature",
    "renyi_gauss_closed",
    "kl_forward",
    "kl_reverse",
    "mc_renyi_upper_bound",
    "holder_lower_bound",
]

CLOSED_FORM = "closed-form"
QUADRATURE = "quadrature"

# Log-integrand excess over the shift beyond which the Renyi integral is
# declared divergent. The shift is the log-integrand's maximum over both
# densities' bulk points in 1-D; in 2-D it is its largest located maximum,
# or, for a pair where none is located, its maximum over an 81 x 81 probe
# mesh. 700 nats is just below exp-overflow in float64, so a finite integral
# whose shift is sound never trips it.
OVERFLOW_NATS = 700.0


@dataclass(frozen=True)
class DivergenceEstimate:
    """A divergence value in [0, inf] with its method tag and error bound.

    ``alpha`` is None for KL estimates (the alpha -> 1 limit is served by a
    separate code path, never by renyi_*). ``converged`` is False when the
    adaptive quadrature behind a finite value stopped before reaching its
    tolerance; closed forms and ``inf`` verdicts are always converged.
    ``panels`` counts the final quadrature panels (boxes in 2-D) behind a
    finite quadrature value; it is 0 for closed forms and ``inf`` verdicts.
    """

    value: float
    method: str
    error: float
    alpha: float | None = None
    converged: bool = True
    panels: int = 0


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


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not alpha > 1.0:
        raise ValueError(
            f"alpha must exceed 1 (got {alpha}); use kl_forward for the limit"
        )
    return alpha


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


def _peak_frame_2d(p, q, log_integrand):
    """Integration frame and breakpoints from the log-integrand's maxima.

    Newton runs once from each centre of p and q; a maximum within one
    marginal sd of one already found is dropped. Each maximum c with
    curvature H stands for N(c, inv(-H)). The frame is x = origin + A z with
    A A' = inv(-H) at the largest maximum, so its peak is a unit isotropic
    bump in z and a thin ridge along a diagonal of x still meets boxes of its
    own width. Returns ``(to_x, log_jac, bx, by, shift)``: the map from
    (N, 2) points z to x, log |det A|, the per-axis bulk points in z of every
    maximum's Gaussian, and the largest log-integrand value at the maxima.
    None when p's support is not the whole plane, a density has no centres,
    or any start fails.
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

    return (to_x, float(np.log(abs(np.linalg.det(a)))), bx, by,
            float(np.max(peaks)))


def _mesh_anchors_2d(p, q, log_integrand):
    """Both densities' bulk points per axis, with the shift from an 81 x 81
    mesh over their span."""
    bx = np.unique(np.concatenate([bulk_points(p, 0), bulk_points(q, 0)]))
    by = np.unique(np.concatenate([bulk_points(p, 1), bulk_points(q, 1)]))
    gx = np.linspace(bx.min(), bx.max(), 81)
    gy = np.linspace(by.min(), by.max(), 81)
    mesh = np.column_stack([np.repeat(gx, gy.size), np.tile(gy, gx.size)])
    shift = float(np.max(log_integrand(mesh)))
    if shift == -np.inf:
        raise ValueError("integrand vanishes on the entire 81 x 81 probe mesh")
    return bx, by, shift


def _frame(p, q, log_integrand):
    """Where and how to integrate: ``(supports, breakpoints, shift, log_jac,
    log_g)``, with per-axis supports and breakpoints of the integration
    variable, the log-integrand's shift, the log Jacobian of the change of
    variables, and the log-integrand in that variable.

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
        return p.support, (anchors,), shift, 0.0, log_integrand
    peak = _peak_frame_2d(p, q, log_integrand)
    if peak is None:
        bx, by, shift = _mesh_anchors_2d(p, q, log_integrand)
        return p.support, (bx, by), shift, 0.0, log_integrand
    to_x, log_jac, bx, by, shift = peak
    plane = ((-np.inf, np.inf), (-np.inf, np.inf))
    return plane, (bx, by), shift, log_jac, lambda z: log_integrand(to_x(z))


def renyi_quadrature(
    p: Density, q: Density, alpha: float, rel_tol: float = 1e-8
) -> DivergenceEstimate:
    """(1/(alpha-1)) log int q (p/q)^alpha by adaptive quadrature (dim <= 2).

    Returns inf when q does not dominate p, or when the integral diverges
    past :data:`OVERFLOW_NATS`.
    """
    alpha = _check_alpha(alpha)
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    if p.dim > 2:
        raise ValueError("quadrature divergences support dim <= 2")
    if not dominates(p, q):
        return DivergenceEstimate(np.inf, QUADRATURE, 0.0, alpha)

    def log_integrand(x):
        lp = p.log_pdf(x)
        lq = q.log_pdf(x)
        if lp.min(initial=np.inf) > -np.inf:  # p > 0 on every point
            return alpha * lp + (1.0 - alpha) * lq
        out = np.full(lp.shape, -np.inf)
        ok = lp > -np.inf
        out[ok] = alpha * lp[ok] + (1.0 - alpha) * lq[ok]
        return out

    supports, breakpoints, shift, log_jac, log_g = _frame(p, q, log_integrand)
    overflow = {"hit": False}

    def f(x):
        if overflow["hit"]:  # integral already declared divergent
            return np.zeros(np.shape(x)[:1] if np.ndim(x) > 1 else np.shape(x))
        lv = log_g(x) - shift
        if lv.max(initial=-np.inf) > OVERFLOW_NATS:
            overflow["hit"] = True
            return np.zeros(lv.shape)
        return np.exp(lv)

    specs = [QuadratureSpec(*s, rel_tol=rel_tol, breakpoints=b)
             for s, b in zip(supports, breakpoints)]
    res = integrate(f, *specs) if p.dim == 1 else integrate_2d(f, *specs)
    if overflow["hit"] or not math.isfinite(res.value):
        return DivergenceEstimate(np.inf, QUADRATURE, 0.0, alpha)
    if res.value <= 0.0:
        raise ArithmeticError("Renyi integral evaluated to a non-positive value")
    value = (shift + log_jac + np.log(res.value)) / (alpha - 1.0)
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
    """
    alpha = _check_alpha(alpha)
    _check_gaussians(p, q)
    beta = 1.0 - alpha
    s_star = [[alpha * sq + beta * sp for sp, sq in zip(rp[:i + 1], rq[:i + 1])]
              for i, (rp, rq) in enumerate(zip(p.cov.tolist(), q.cov.tolist()))]
    rows = cholesky_rows(s_star)
    if rows is None:
        return DivergenceEstimate(np.inf, CLOSED_FORM, 0.0, alpha)
    z = solve_lower(rows, [a - b for a, b in zip(p.mean.tolist(), q.mean.tolist())])
    quad = 0.5 * alpha * sum(v * v for v in z)
    log_det = 2.0 * sum(math.log(row[i]) for i, row in enumerate(rows))
    logdets = log_det - beta * p.log_det - alpha * q.log_det
    value = quad - logdets / (2.0 * (alpha - 1.0))
    return DivergenceEstimate(max(value, 0.0), CLOSED_FORM, 0.0, alpha)


def _kl_gauss_closed(p: Density, q: Density) -> DivergenceEstimate:
    """KL(p || q) for two Gaussians, from their factors L_p and L_q:
    tr(S_q^{-1} S_p) = ||L_q^{-1} L_p||_F^2, solved column by column."""
    _check_gaussians(p, q)
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
    if not dominates(p, q):
        return DivergenceEstimate(np.inf, QUADRATURE, 0.0, None)
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

    if p.dim > 2:
        raise ValueError("quadrature divergences support dim <= 2")
    specs = [
        QuadratureSpec(*p.support[i], rel_tol=rel_tol, breakpoints=np.concatenate(
            [bulk_points(p, i), bulk_points(q, i)]))
        for i in range(p.dim)
    ]
    res = integrate(f, *specs) if p.dim == 1 else integrate_2d(f, *specs)
    if blown["hit"] or not math.isfinite(res.value):
        return DivergenceEstimate(np.inf, QUADRATURE, 0.0, None)
    return DivergenceEstimate(
        max(float(res.value), 0.0), QUADRATURE, float(res.error), None,
        res.converged, res.panels,
    )


def renyi(p: Density, q: Density, alpha: float, rel_tol: float = 1e-8) -> DivergenceEstimate:
    """D_alpha(p || q); closed form when both inputs are Gaussian, else
    quadrature (dim <= 2)."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    if p.kind == "gaussian" and q.kind == "gaussian":
        return renyi_gauss_closed(p, q, alpha)
    return renyi_quadrature(p, q, alpha, rel_tol=rel_tol)


# KL(p || q) in closed form, by (p.kind, q.kind). A Laplace is 1-D, so its
# Gaussian partner is too once the dimensions agree.
_KL_CLOSED = {
    ("gaussian", "gaussian"): _kl_gauss_closed,
    ("gaussian", "laplace"): _kl_gauss_laplace,
    ("laplace", "gaussian"): _kl_laplace_gauss,
}


def kl_forward(p: Density, q: Density, rel_tol: float = 1e-9) -> DivergenceEstimate:
    """KL(p || q) = int p log(p/q): in closed form for a pair in
    ``_KL_CLOSED`` (Gaussian/Gaussian of any dimension, and a 1-D Gaussian
    against a Laplace either way), else by quadrature (dim <= 2)."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    closed = _KL_CLOSED.get((p.kind, q.kind))
    if closed is not None:
        return closed(p, q)
    return _kl_quadrature(p, q, rel_tol)


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
