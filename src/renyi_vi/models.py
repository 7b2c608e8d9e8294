"""Conjugate Bayesian models with exact posteriors, MLE, Fisher information,
and a local-asymptotic-normality residual diagnostic.

Three models are shipped: a univariate Gaussian mean model with known
variance and a conjugate Gaussian prior, its 2-D analogue, and a univariate
exponential-rate model with a bounded prior whose posterior is normalized
numerically. Data can be generated internally from (model, theta0, n, seed)
or loaded from a CSV file with one datum per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import Density, make_gaussian, make_uniform
from .numerics import QuadratureSpec, integrate

__all__ = [
    "BayesModel",
    "LANDiagnostic",
    "gaussian_mean_model",
    "mvn_mean_model",
    "exponential_model",
    "lan_residual",
    "load_data_csv",
]


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


@dataclass(frozen=True)
class LANDiagnostic:
    """Residuals of the quadratic log-likelihood expansion on a compact grid.

    residuals[i] = |log P_n(theta0 + h_i/sqrt(n)) - log P_n(theta0)
                    - h_i I(theta0) Delta_n + h_i^2 I(theta0)/2|
    with Delta_n = sqrt(n) (mle - theta0).
    """

    theta0: float
    n: int
    h_grid: np.ndarray
    residuals: np.ndarray
    delta_n: float

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))


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


def _grid_sampler(log_pdf, lo, hi, breakpoints):
    """Inverse-CDF sampler on a dense grid for numeric 1-D posteriors."""
    grid = np.unique(
        np.concatenate(
            [np.linspace(lo, hi, 4097), np.asarray(breakpoints, dtype=float)]
        )
    )
    pdf = np.exp(log_pdf(grid))
    dx = np.diff(grid)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * dx)])
    cdf /= cdf[-1]

    def sample_rng(rng, n):
        return np.interp(rng.uniform(0.0, 1.0, size=n), cdf, grid)

    return sample_rng


def exponential_model(prior: Density | None = None) -> BayesModel:
    """Exponential likelihood with unknown rate; bounded prior on (0, inf).

    Defaults to a uniform prior on [0, 50]. The posterior is proportional to
    prior(lam) * lam^n * exp(-lam * sum x) and is normalized by quadrature;
    its ``params["converged"]`` is True when the normalizer and both moment
    quadratures met their tolerance.
    """
    if prior is None:
        prior = make_uniform(0.0, 50.0)
    plo, phi = prior.support[0]
    lo = max(plo, 0.0)
    hi = phi
    if not np.isfinite(hi):
        raise ValueError("exponential_model requires a prior with bounded support")

    def loglik_stats(n, sx, thetas):
        """The log-likelihood from the data's sufficient statistics: the
        count n and the sum sx."""
        lam = np.asarray(thetas, dtype=float).reshape(-1)
        if lam.min(initial=np.inf) > 0.0:  # the usual case: no masked copies
            return n * np.log(lam) - lam * sx
        out = np.full(lam.shape, -np.inf)
        pos = lam > 0.0
        out[pos] = n * np.log(lam[pos]) - lam[pos] * sx
        return out

    def loglik(data, thetas):
        x = np.asarray(data, dtype=float).reshape(-1)
        return loglik_stats(x.size, x.sum(), thetas)

    def _check_data(data):
        x = np.asarray(data, dtype=float).reshape(-1)
        if x.size and np.any(x <= 0.0):
            bad = float(x[x <= 0.0][0])
            raise ValueError(f"exponential data must be positive, found {bad}")
        return x

    def exact_posterior(data):
        x = _check_data(data)
        n = x.size
        if n == 0:
            return prior
        sx = x.sum()

        def log_unnorm(lam):
            return prior.log_pdf(lam) + loglik_stats(n, sx, lam)

        mode = min(max(n / sx, lo + 1e-12), hi)
        sd = mode / np.sqrt(n)
        bps = np.clip(
            mode + sd * np.array([-12, -8, -5, -3, -2, -1, 0, 1, 2, 3, 5, 8, 12]),
            lo,
            hi,
        )
        bps = tuple(np.unique(bps[(bps > lo) & (bps < hi)]))
        shift = float(np.max(log_unnorm(np.linspace(max(lo, 1e-12), hi, 2049))))
        spec = QuadratureSpec(lower=lo, upper=hi, rel_tol=1e-12, breakpoints=bps)
        z = integrate(lambda lam: np.exp(log_unnorm(lam) - shift), spec)
        log_z = shift + np.log(z.value)

        def log_pdf(lam):
            return log_unnorm(lam) - log_z

        first = integrate(lambda lam: lam * np.exp(log_pdf(lam)), spec)
        m1 = first.value
        second = integrate(lambda lam: (lam - m1) ** 2 * np.exp(log_pdf(lam)), spec)
        return Density(
            dim=1,
            support=((lo, hi),),
            log_pdf=log_pdf,
            mean=np.array([m1]),
            cov=np.array([[second.value]]),
            sample_rng=_grid_sampler(log_pdf, lo, hi, bps),
            kind="numeric-posterior",
            params={"n": n, "sum_x": sx, "log_z": log_z,
                    "converged": z.converged and first.converged and second.converged},
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


def lan_residual(
    model: BayesModel,
    theta0: float,
    data,
    K_radius: float,
    grid_points: int = 41,
) -> LANDiagnostic:
    """Quadratic-expansion residuals of the log-likelihood over a compact
    grid h in [-K_radius, K_radius] (uniform, 41 points by default)."""
    if model.dim != 1:
        raise ValueError("lan_residual is defined for univariate models")
    x = np.asarray(data, dtype=float).reshape(-1)
    n = x.size
    if n == 0:
        raise ValueError("lan_residual requires data")
    h = np.linspace(-K_radius, K_radius, grid_points)
    thetas = theta0 + h / np.sqrt(n)
    lo, hi = model.param_support[0]
    inside = (thetas > lo) & (thetas < hi)
    if not inside.all():
        bad = float(h[~inside][0])
        raise ValueError(
            f"h = {bad} puts theta0 + h/sqrt(n) = {theta0 + bad / np.sqrt(n)} "
            f"outside the parameter support ({lo}, {hi})"
        )
    info = float(model.fisher_info(theta0))
    mle = float(model.mle(x)[0])
    delta = np.sqrt(n) * (mle - theta0)
    ll = model.loglik(x, thetas) - model.loglik(x, np.array([theta0]))[0]
    residuals = np.abs(ll - h * info * delta + 0.5 * h * h * info)
    return LANDiagnostic(
        theta0=float(theta0),
        n=n,
        h_grid=h,
        residuals=residuals,
        delta_n=float(delta),
    )


def load_data_csv(path) -> np.ndarray:
    """Load observations from a CSV file, one datum per row (1 or 2 columns)."""
    arr = np.loadtxt(path, delimiter=",", ndmin=2)
    if arr.shape[1] == 1:
        return arr[:, 0]
    if arr.shape[1] == 2:
        return arr
    raise ValueError(f"expected 1 or 2 columns, found {arr.shape[1]}")
