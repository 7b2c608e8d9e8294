"""Conjugate Bayesian models with exact posteriors, MLE and Fisher information.

Three models are shipped: a univariate Gaussian mean model with known
variance and a conjugate Gaussian prior, its 2-D analogue, and a univariate
exponential-rate model with a uniform prior on a bounded interval, whose
posterior is a truncated Gamma in closed form. Data can be generated
internally from (model, theta0, n, seed) or loaded from a CSV file with one
datum per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import Density, make_gaussian, make_uniform

__all__ = [
    "BayesModel",
    "gaussian_mean_model",
    "mvn_mean_model",
    "exponential_model",
    "load_data_csv",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class BayesModel:
    """Prior + likelihood with exact posterior map, MLE and Fisher info.

    ``loglik(data, thetas)`` is vectorized over a 1-D array of parameter
    values (an (m, dim) array for dim 2) and returns the total data
    log-likelihood at each.
    """

    name: str
    dim: int
    param_support: tuple[tuple[float, float], ...]
    prior: Density
    loglik: Callable[[np.ndarray, np.ndarray], np.ndarray]
    exact_posterior: Callable[[np.ndarray], Density]
    mle: Callable[[np.ndarray], np.ndarray]
    fisher_info: Callable[[float], float]
    simulate: Callable[[float, int, int], np.ndarray]
    log_evidence: Callable[[np.ndarray], float] | None = None


def gaussian_mean_model(mu0: float = 0.0, sigma: float = 1.0) -> BayesModel:
    """Gaussian likelihood N(theta, sigma^2) with conjugate N(mu0, sigma^2)
    prior. Posterior after n points: N((mu0 + sum x)/(n+1), sigma^2/(n+1))."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    mu0 = float(mu0)
    s2 = float(sigma) ** 2
    prior = make_gaussian(mu0, s2)

    def loglik(data, thetas):
        x = np.asarray(data, dtype=float).reshape(-1)
        t = np.asarray(thetas, dtype=float).reshape(-1)
        n = x.size
        sx = x.sum()
        sxx = float(x @ x)
        return (
            -0.5 * n * np.log(2.0 * np.pi * s2)
            - (sxx - 2.0 * t * sx + n * t * t) / (2.0 * s2)
        )

    def exact_posterior(data):
        x = np.asarray(data, dtype=float).reshape(-1)
        n = x.size
        return make_gaussian((mu0 + x.sum()) / (n + 1), s2 / (n + 1))

    def mle(data):
        x = np.asarray(data, dtype=float).reshape(-1)
        if x.size == 0:
            raise ValueError("MLE requires at least one observation")
        return np.array([x.mean()])

    def log_evidence(data):
        x = np.asarray(data, dtype=float).reshape(-1)
        n = x.size
        sx = x.sum()
        return float(
            -0.5 * n * np.log(2.0 * np.pi * s2)
            - 0.5 * np.log(n + 1)
            - (x @ x + mu0**2 - (sx + mu0) ** 2 / (n + 1)) / (2.0 * s2)
        )

    return BayesModel(
        name="gaussian-mean",
        dim=1,
        param_support=((-np.inf, np.inf),),
        prior=prior,
        loglik=loglik,
        exact_posterior=exact_posterior,
        mle=mle,
        fisher_info=lambda theta: 1.0 / s2,
        simulate=lambda theta0, n, seed: np.random.default_rng(seed).normal(
            theta0, sigma, size=n
        ),
        log_evidence=log_evidence,
    )


def mvn_mean_model(mu0=(0.0, 0.0), Sigma=((1.0, 0.0), (0.0, 1.0))) -> BayesModel:
    """2-D Gaussian likelihood with known covariance and conjugate Gaussian
    prior N(mu0, Sigma); posterior N((sum x + mu0)/(n+1), Sigma/(n+1))."""
    mu0 = np.asarray(mu0, dtype=float).reshape(-1)
    Sigma = np.asarray(Sigma, dtype=float)
    d = mu0.size
    if d > 2:
        raise ValueError("mvn_mean_model supports dim <= 2")
    prior = make_gaussian(mu0, Sigma)  # raises unless Sigma is finite and SPD
    # simulate draws through LAPACK's factor, whose bits the seeded data keep
    chol = np.linalg.cholesky(Sigma)
    Sinv = np.linalg.inv(Sigma)
    log_det = prior.log_det

    def loglik(data, thetas):
        x = np.asarray(data, dtype=float).reshape(-1, d)
        t = np.atleast_2d(np.asarray(thetas, dtype=float))
        n = x.shape[0]
        const = -0.5 * n * (d * np.log(2.0 * np.pi) + log_det)
        sx = x.sum(axis=0)
        quad_data = float(np.einsum("ij,jk,ik->", x, Sinv, x))
        cross = t @ Sinv @ sx
        quad_t = np.einsum("ij,jk,ik->i", t, Sinv, t)
        return const - 0.5 * (quad_data - 2.0 * cross + n * quad_t)

    def exact_posterior(data):
        x = np.asarray(data, dtype=float).reshape(-1, d)
        n = x.shape[0]
        center = (x.sum(axis=0) + mu0) / (n + 1)
        return make_gaussian(center, Sigma / (n + 1))

    def mle(data):
        x = np.asarray(data, dtype=float).reshape(-1, d)
        if x.shape[0] == 0:
            raise ValueError("MLE requires at least one observation")
        return x.mean(axis=0)

    def simulate(theta0, n, seed):
        rng = np.random.default_rng(seed)
        center = np.asarray(theta0, dtype=float).reshape(-1)
        return center + rng.standard_normal((n, d)) @ chol.T

    return BayesModel(
        name="mvn-mean",
        dim=d,
        param_support=tuple((-np.inf, np.inf) for _ in range(d)),
        prior=prior,
        loglik=loglik,
        exact_posterior=exact_posterior,
        mle=mle,
        fisher_info=lambda theta: Sinv,
        simulate=simulate,
        log_evidence=None,
    )


def _stirlerr(a: float) -> float:
    """log a! - (a + 1/2) log a + a - log(2 pi) / 2, Stirling's error: by its
    series from a = 20 on, where log a! is too large to subtract from exactly."""
    if a < 20.0:
        # scipy.special costs about 0.3 s of start-up, and only Gamma code needs it
        from scipy.special import gammaln

        return float(gammaln(a + 1.0)) - (a + 0.5) * math.log(a) + a - 0.5 * _LOG_2PI
    r = 1.0 / (a * a)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / a


def exponential_model(prior: Density | None = None) -> BayesModel:
    """Exponential likelihood with unknown rate; uniform prior on a bounded
    interval [lo, hi], default [0, 50], of which the part above 0 counts.

    After n points summing to sx the posterior is Gamma(k = n + 1, sx) cut to
    [lo, hi]: log-density n (log t - t + 1) + const with t = lam sx / n, mass
    by ``gammainc`` below the bulk and ``gammaincc`` above it, inverse-CDF
    sampler. Moments by parts, E = (k - hi p(hi) + lo p(lo)) / sx (k / sx at
    the default prior) and Var = (E - (hi - E) hi p(hi) + (lo - E) lo p(lo))
    / sx, or, where sx hi <= k / 2, by ratios of the masses under shapes k + 1
    and k + 2. Deep in a tail of the Gamma the variance loses accuracy (7e-9
    at a tail mass of 4e-35); a mass below the float range raises ``ValueError``.
    """
    if prior is None:
        prior = make_uniform(0.0, 50.0)
    if prior.kind != "uniform":
        raise ValueError("exponential_model requires a uniform prior on a bounded "
                         f"interval, got kind={prior.kind!r}")
    plo, hi = prior.support[0]
    lo = max(plo, 0.0)
    if not lo < hi:
        raise ValueError(f"the prior's interval [{plo}, {hi}] must reach above 0")

    def loglik(data, thetas):
        x = np.asarray(data, dtype=float).reshape(-1)
        lam = np.asarray(thetas, dtype=float).reshape(-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = x.size * np.log(lam) - lam * x.sum()
        return np.where(lam > 0.0, out, -np.inf)

    def _check_data(data):
        x = np.asarray(data, dtype=float).reshape(-1)
        if x.size and np.any(x <= 0.0):
            bad = float(x[x <= 0.0][0])
            raise ValueError(f"exponential data must be positive, found {bad}")
        return x

    def exact_posterior(data):
        # scipy.special costs about 0.3 s of start-up, and only Gamma code needs it
        from scipy.special import gammainc, gammaincc, gammainccinv, gammaincinv

        x = _check_data(data)
        n = x.size
        if n == 0:
            return prior
        k, sx = n + 1.0, float(x.sum())
        y_lo, y_hi = sx * lo, sx * hi  # the ends on the scale of Gamma(k, 1)
        p_lo, p_hi = gammainc(k, [y_lo, y_hi]).tolist()
        q_lo, q_hi = gammaincc(k, [y_lo, y_hi]).tolist()
        # the mass on [lo, hi], never as a difference of two numbers near 1
        mass = p_hi - p_lo if y_hi <= k else q_lo - q_hi if y_lo >= k else 1.0 - p_lo - q_hi
        if not mass >= np.finfo(float).tiny:
            raise ValueError(f"the posterior Gamma({k:g}, {sx:g}) has mass {mass:g} on the "
                             f"prior's [{lo}, {hi}]: the rate {n / sx:g} lies too far outside it")
        ratio = sx / n
        t_lo, t_hi = lo * ratio, hi * ratio
        const = math.log(sx) - math.log(mass) - 0.5 * math.log(2.0 * math.pi * n) - _stirlerr(n)

        def log_pdf(lam):
            t = np.asarray(lam, dtype=float).reshape(-1) * ratio
            t_min = t.min(initial=np.inf)
            if t_min > 0.0 and t_min >= t_lo and t.max(initial=-np.inf) <= t_hi:
                return n * (np.log(t) - (t - 1.0)) + const  # the usual case: no mask
            with np.errstate(divide="ignore", invalid="ignore"):
                out = n * (np.log(t) - (t - 1.0)) + const
            return np.where((t >= t_lo) & (t <= t_hi), out, -np.inf)

        if y_hi <= 0.5 * k:  # by parts, near-cancelling terms would be divided by sx
            shapes = [k + 1.0, k + 2.0]
            r1, r2 = ((gammainc(shapes, y_hi) - gammainc(shapes, y_lo)) / mass).tolist()
            mean, var = k / sx * r1, k * ((k + 1.0) * r2 - k * r1 * r1) / (sx * sx)
        else:
            e_lo, e_hi = np.multiply([lo, hi], np.exp(log_pdf([lo, hi]))).tolist()  # lam p(lam)
            mean = (k - e_hi + e_lo) / sx
            var = (mean - (hi - mean) * e_hi + (lo - mean) * e_lo) / sx

        def sample_rng(rng, size):
            u = rng.uniform(0.0, 1.0, size=size)
            below, above = p_lo + u * mass, q_hi + (1.0 - u) * mass  # P(k, y), Q(k, y)
            y = np.where(below <= above, gammaincinv(k, below), gammainccinv(k, above))
            return np.clip(y / sx, lo, hi)

        return Density(
            dim=1,
            support=((lo, hi),),
            log_pdf=log_pdf,
            mean=np.array([mean]),
            cov=np.array([[var]]),
            sample_rng=sample_rng,
            kind="truncated-gamma",
            params={"shape": k, "rate": sx, "lo": lo, "hi": hi},
        )

    def mle(data):
        x = _check_data(data)
        if x.size == 0:
            raise ValueError("MLE requires at least one observation")
        return np.array([x.size / x.sum()])

    return BayesModel(
        name="exponential",
        dim=1,
        param_support=((0.0, hi),),
        prior=prior,
        loglik=loglik,
        exact_posterior=exact_posterior,
        mle=mle,
        fisher_info=lambda lam: 1.0 / lam**2,
        simulate=lambda theta0, n, seed: np.random.default_rng(seed).exponential(
            1.0 / theta0, size=n
        ),
        log_evidence=None,
    )


def load_data_csv(path) -> np.ndarray:
    """Load observations from a CSV file, one datum per row (1 or 2 columns)."""
    arr = np.loadtxt(path, delimiter=",", ndmin=2)
    if arr.shape[1] == 1:
        return arr[:, 0]
    if arr.shape[1] == 2:
        return arr
    raise ValueError(f"expected 1 or 2 columns, found {arr.shape[1]}")
