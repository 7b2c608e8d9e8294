"""Conjugate models: exact posteriors, MLE, Fisher information, evidence,
and the posterior-concentration / prior-tail checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc
from scipy.stats import kstest

from renyi_vi import distributions, models, numerics
from renyi_vi.distributions import (
    bulk_points,
    interval_mass,
    make_gamma,
    make_mixture,
    make_uniform,
)
from renyi_vi.models import (
    exponential_model,
    gaussian_mean_model,
    load_data_csv,
    mvn_mean_model,
)
from renyi_vi.numerics import QuadratureSpec, integrate


class TestGaussianMeanModel:
    def test_posterior_example(self):
        m = gaussian_mean_model(0.0, 1.0)
        post = m.exact_posterior([1.0, 1.0, 1.0])
        assert abs(float(post.mean[0]) - 0.75) <= 1e-15
        assert abs(post.var - 0.25) <= 1e-15

    def test_no_data_returns_prior(self):
        m = gaussian_mean_model(0.3, 2.0)
        post = m.exact_posterior([])
        assert float(post.mean[0]) == 0.3
        assert abs(post.var - 4.0) <= 1e-15

    def test_data_at_prior_mean_keeps_mean(self):
        m = gaussian_mean_model(0.7, 1.0)
        post = m.exact_posterior([0.7] * 5)
        assert abs(float(post.mean[0]) - 0.7) <= 1e-15

    def test_posterior_variance_exact(self):
        m = gaussian_mean_model(0.0, 1.5)
        for n in (1, 10, 1000):
            post = m.exact_posterior(np.zeros(n))
            assert post.var == 1.5**2 / (n + 1)

    def test_mle_and_fisher(self):
        m = gaussian_mean_model(0.0, 2.0)
        assert float(m.mle([1.0, 3.0])[0]) == 2.0
        assert m.fisher_info(0.0) == 0.25

    def test_evidence_matches_quadrature(self):
        m = gaussian_mean_model(0.0, 1.0)
        data = m.simulate(0.5, 11, seed=7)

        def joint(mu):
            return np.exp(m.prior.log_pdf(mu) + m.loglik(data, mu))

        shift = m.loglik(data, np.array([data.mean()]))[0]
        res = integrate(
            lambda mu: joint(mu) * math.exp(-shift),
            QuadratureSpec(-np.inf, np.inf, rel_tol=1e-12,
                           breakpoints=(-1.0, 0.0, 0.5, 1.0, 2.0)),
        )
        assert abs((math.log(res.value) + shift) - m.log_evidence(data)) <= 1e-10


class TestMvnMeanModel:
    def test_posterior_example(self):
        m = mvn_mean_model([0.0, 0.0], np.eye(2))
        post = m.exact_posterior([[1.0, 1.0]])
        assert np.allclose(post.mean, [0.5, 0.5])
        assert np.allclose(post.cov, np.eye(2) / 2)

    def test_no_data_returns_prior(self):
        m = mvn_mean_model([1.0, -1.0], [[2.0, 0.3], [0.3, 1.0]])
        post = m.exact_posterior(np.empty((0, 2)))
        assert np.allclose(post.mean, [1.0, -1.0])
        assert np.allclose(post.cov, [[2.0, 0.3], [0.3, 1.0]])

    def test_coordinate_permutation_symmetry(self):
        m = mvn_mean_model([0.0, 0.0], np.eye(2))
        data = np.array([[1.0, 2.0], [0.5, -0.3]])
        p1 = m.exact_posterior(data)
        p2 = m.exact_posterior(data[:, ::-1])
        assert np.allclose(p1.mean[::-1], p2.mean)

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError):
            mvn_mean_model([0.0, 0.0], [[1.0, 3.0], [3.0, 1.0]])


def _truncated_gamma_case(lo, hi, theta0, n, seed):
    """An exponential-model posterior under a uniform prior on [lo, hi], and
    its Gamma(n + 1, sum x) parameters."""
    m = exponential_model(make_uniform(lo, hi))
    x = m.simulate(theta0, n, seed=seed)
    return m.exact_posterior(x), n + 1.0, float(x.sum())


def _quad(f, post):
    """int f over the posterior's support by scipy's quad: the bulk (40 sd
    either side of the mean) at its bulk points, and each tail apart."""
    lo, hi = post.support[0]
    mean, sd = float(post.mean[0]), post.sd
    edges = [lo, max(lo, mean - 40.0 * sd), min(hi, mean + 40.0 * sd), hi]
    pts = [p for p in bulk_points(post) if edges[1] < p < edges[2]]
    return sum(quad(f, a, b, points=pts if i == 1 else None, epsabs=0.0, epsrel=1e-13,
                    limit=500)[0] for i, (a, b) in enumerate(zip(edges, edges[1:])) if a < b)


# (lo, hi, theta0): the prior's interval cuts the posterior at neither end,
# at hi (at small n only, or at every n when theta0 = hi) or at lo
TRUNCATIONS = [(0.0, 50.0, 2.0), (0.0, 3.0, 2.9), (0.0, 2.0, 2.0), (2.0, 10.0, 2.0)]


class TestExponentialModel:
    def test_posterior_matches_quadrature_normalized_gamma(self):
        m = exponential_model()
        post = m.exact_posterior([1.0, 2.0, 3.0])
        # flat prior on [0,50]: posterior ~ Gamma(4, 6) up to negligible truncation
        assert abs(float(post.mean[0]) - 4.0 / 6.0) <= 2 * math.ulp(4.0 / 6.0)
        spec = QuadratureSpec(0.0, 50.0, rel_tol=1e-9,
                              breakpoints=tuple(bulk_points(post)))
        res = integrate(lambda lam: np.exp(post.log_pdf(lam)), spec)
        assert abs(res.value - 1.0) <= 1e-7

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(st.sampled_from(TRUNCATIONS), st.floats(0.0, 5.0).map(lambda e: round(10**e)),
           st.integers(0, 2**16))
    def test_closed_form_matches_quadrature(self, case, n, seed):
        """Normaliser, mean and variance against scipy's quad, for n from 1
        to 1e5 and truncation at neither end, at hi or at lo."""
        post, _, _ = _truncated_gamma_case(*case, n=n, seed=seed)
        mean, var = float(post.mean[0]), post.var
        pdf = lambda lam: math.exp(post.log_pdf(lam)[0])
        # measured over 4600 such cases: at most 4.9e-14, 4.9e-14 and 3.0e-12
        assert abs(_quad(pdf, post) - 1.0) <= 1e-12
        assert abs(_quad(lambda lam: lam * pdf(lam), post) - mean) <= 1e-12 * mean
        assert abs(_quad(lambda lam: (lam - mean) ** 2 * pdf(lam), post) - var) <= 1e-10 * var

    @pytest.mark.parametrize("case", TRUNCATIONS)
    def test_sampler_is_the_exact_distribution(self, case):
        """Kolmogorov-Smirnov against the truncated Gamma's CDF, from gammainc."""
        lo, hi = case[0], case[1]
        post, k, sx = _truncated_gamma_case(*case, n=40, seed=5)
        c_lo, c_hi = gammainc(k, sx * lo), gammainc(k, sx * hi)
        draws = post.sample(20000, seed=11)
        assert lo <= draws.min() and draws.max() <= hi
        res = kstest(draws, lambda lam: (gammainc(k, sx * lam) - c_lo) / (c_hi - c_lo))
        assert res.pvalue > 1e-3

    @pytest.mark.parametrize("case", TRUNCATIONS)
    def test_log_pdf_bits_do_not_depend_on_the_batch(self, case):
        """Points inside the support score alike alone and batched with points
        outside it (0, NaN, beyond either end), which score -inf."""
        lo, hi = case[0], case[1]
        post, _, _ = _truncated_gamma_case(*case, n=40, seed=5)
        inside = np.linspace(lo, hi, 101)
        inside = inside[inside > 0.0]
        outside = [0.0, lo - 1.0, hi + 1.0, math.nan]
        batched = post.log_pdf(np.concatenate([inside, outside]))
        assert batched[:inside.size].tobytes() == post.log_pdf(inside).tobytes()
        assert np.all(batched[inside.size:] == -np.inf)

    def test_makes_no_integrate_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("exact_posterior ran a quadrature")

        for module in (numerics, distributions, models):
            monkeypatch.setattr(module, "integrate", refuse, raising=False)
        for case in TRUNCATIONS:
            for n in (1, 100, 10**4):
                _truncated_gamma_case(*case, n=n, seed=n)

    def test_interval_deep_in_a_tail(self):
        """The data put the rate far below the prior's [3, 10]: the mean
        holds, and past the float range the posterior is refused."""
        post, k, sx = _truncated_gamma_case(3.0, 10.0, 2.0, n=300, seed=1)
        mean = float(post.mean[0])
        assert gammaincc(k, 3.0 * sx) < 1e-9  # deep in the upper tail
        pdf = lambda lam: math.exp(post.log_pdf(lam)[0])
        assert abs(_quad(lambda lam: lam * pdf(lam), post) - mean) <= 1e-12 * mean
        with pytest.raises(ValueError, match="outside"):
            _truncated_gamma_case(3.0, 10.0, 2.0, n=10**4, seed=1)

    def test_mle_and_fisher(self):
        m = exponential_model()
        data = m.simulate(2.0, 10, seed=0)
        assert abs(float(m.mle(data)[0]) - 10.0 / data.sum()) <= 1e-15
        assert m.fisher_info(2.0) == 0.25

    def test_nonpositive_data_rejected(self):
        m = exponential_model()
        with pytest.raises(ValueError, match="positive"):
            m.exact_posterior([1.0, -2.0])

    def test_posterior_sampler_moments(self):
        m = exponential_model()
        post = m.exact_posterior(m.simulate(2.0, 50, seed=1))
        x = post.sample(10**5, seed=9)
        assert abs(x.mean() - float(post.mean[0])) <= 5 * post.sd / math.sqrt(10**5)

    def test_unbounded_prior_rejected(self):
        with pytest.raises(ValueError, match="bounded"):
            exponential_model(make_gamma(2.0, 1.0))

    def test_prior_below_zero_rejected(self):
        with pytest.raises(ValueError, match="above 0"):
            exponential_model(make_uniform(-3.0, -1.0))

    def test_mixture_prior_rejected(self):
        # bounded, but not a uniform
        prior = make_mixture([0.5, 0.5], [make_uniform(0.0, 10.0), make_uniform(5.0, 50.0)])
        with pytest.raises(ValueError, match="bounded"):
            exponential_model(prior)


class TestConcentration:
    """Posterior mass of [theta0 +- 0.2] exceeds 0.99 at n = 1e4 in at least
    95 of 100 seeded runs, for each model."""

    N = 10**4
    WINDOW = 0.2

    def _hits(self, masses):
        return sum(1 for v in masses if v > 0.99)

    def test_gaussian_mean(self):
        m = gaussian_mean_model(0.0, 1.0)
        masses = []
        for s in range(100):
            post = m.exact_posterior(m.simulate(0.5, self.N, seed=s))
            masses.append(interval_mass(post, 0.5 - self.WINDOW, 0.5 + self.WINDOW))
        assert self._hits(masses) >= 95

    def test_mvn_mean(self):
        m = mvn_mean_model([0.0, 0.0], np.eye(2))
        hits = 0
        for s in range(100):
            post = m.exact_posterior(m.simulate(np.array([0.5, 0.5]), self.N, seed=s))
            # box mass factorizes for a diagonal posterior covariance
            from scipy.stats import norm
            mass = 1.0
            for j in (0, 1):
                mu = float(post.mean[j])
                sd = math.sqrt(post.cov[j, j])
                mass *= norm.cdf((0.5 + self.WINDOW - mu) / sd) - norm.cdf(
                    (0.5 - self.WINDOW - mu) / sd
                )
            hits += mass > 0.99
        assert hits >= 95

    def test_exponential(self):
        m = exponential_model()
        masses = []
        for s in range(100):
            post = m.exact_posterior(m.simulate(2.0, self.N, seed=s))
            masses.append(interval_mass(post, 2.0 - self.WINDOW, 2.0 + self.WINDOW))
        assert self._hits(masses) >= 95


class TestPriorTails:
    """Mass outside [theta1 - n, theta1 + n] decays like 1/n: the constant is
    fitted at n = 10 and then frozen for the rest of the ladder."""

    @pytest.mark.parametrize(
        "prior,theta1",
        [
            (gaussian_mean_model(0.0, 1.0).prior, 0.0),
            (exponential_model().prior, 25.0),
            (make_uniform(-3.0, 3.0), 0.0),
        ],
    )
    def test_tail_mass_decays(self, prior, theta1):
        beta = 1.0

        def outside(n):
            return 1.0 - interval_mass(prior, theta1 - n**beta, theta1 + n**beta)

        c = max(outside(10) * 10.0**beta, 1e-12)
        for n in (100, 1000):
            assert outside(n) <= c * n ** (-beta) + 1e-12


def test_load_data_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1.5\n2.5\n-0.5\n")
    x = load_data_csv(path)
    assert np.allclose(x, [1.5, 2.5, -0.5])
    path2 = tmp_path / "data2.csv"
    path2.write_text("1.0,2.0\n3.0,4.0\n")
    y = load_data_csv(path2)
    assert y.shape == (2, 2)
    path3 = tmp_path / "data3.csv"
    path3.write_text("1.0,2.0,3.0\n")
    with pytest.raises(ValueError):
        load_data_csv(path3)
