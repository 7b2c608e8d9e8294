"""Conjugate models: exact posteriors, MLE, Fisher information, LAN
residuals, evidence, and the posterior-concentration / prior-tail checks."""

import math

import numpy as np
import pytest

from renyi_vi.distributions import bulk_points, interval_mass, make_uniform
from renyi_vi.models import (
    exponential_model,
    gaussian_mean_model,
    lan_residual,
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


class TestExponentialModel:
    def test_posterior_matches_quadrature_normalized_gamma(self):
        m = exponential_model()
        post = m.exact_posterior([1.0, 2.0, 3.0])
        # flat prior on [0,50]: posterior ~ Gamma(4, 6) up to negligible truncation
        assert abs(float(post.mean[0]) - 4.0 / 6.0) <= 1e-6
        spec = QuadratureSpec(0.0, 50.0, rel_tol=1e-9,
                              breakpoints=tuple(bulk_points(post)))
        res = integrate(lambda lam: np.exp(post.log_pdf(lam)), spec)
        assert abs(res.value - 1.0) <= 1e-7

    @pytest.mark.parametrize("n", [100, 1000, 10**4])
    def test_posterior_quadratures_converge(self, n):
        m = exponential_model()
        post = m.exact_posterior(m.simulate(2.0, n, seed=1))
        assert post.params["converged"] is True

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
        from renyi_vi.distributions import make_gamma
        with pytest.raises(ValueError, match="bounded"):
            exponential_model(make_gamma(2.0, 1.0))


class TestLanResidual:
    def test_gaussian_model_exact(self):
        m = gaussian_mean_model(0.0, 1.0)
        for n in (10, 100, 10**4):
            diag = lan_residual(m, 0.5, m.simulate(0.5, n, seed=n), K_radius=2.0)
            assert diag.max_residual <= 1e-9
            assert diag.h_grid.size == 41

    def test_zero_offset_zero_residual(self):
        m = exponential_model()
        diag = lan_residual(m, 1.0, m.simulate(1.0, 50, seed=2), K_radius=2.0,
                            grid_points=41)
        mid = diag.h_grid.size // 2
        assert diag.h_grid[mid] == 0.0
        assert diag.residuals[mid] <= 1e-12

    def test_exponential_residual_shrinks_with_n(self):
        m = exponential_model()
        med = {}
        for n in (100, 10**4):
            vals = [
                lan_residual(m, 1.0, m.simulate(1.0, n, seed=s), K_radius=2.0).max_residual
                for s in range(50)
            ]
            med[n] = float(np.median(vals))
        assert med[10**4] < med[100]

    def test_support_violation_names_offender(self):
        m = exponential_model()
        data = m.simulate(1.0, 4, seed=3)
        with pytest.raises(ValueError, match="h = "):
            lan_residual(m, 0.5, data, K_radius=3.0)


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
