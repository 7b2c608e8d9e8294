"""Good-sequence constructors and audits: scales, centering, tail-ratio
bounds, log-concavity and the entropy cap."""

import math

import numpy as np
import pytest

from renyi_vi import goodseq
from renyi_vi.goodseq import (
    GoodSequenceSpec,
    alpha_factor,
    audit,
    build_good_sequence,
    cited_ratio_bound,
    default_variance_scale,
)
from renyi_vi.models import exponential_model, gaussian_mean_model, mvn_mean_model
from renyi_vi.numerics import QuadratureSpec, integrate

GM = gaussian_mean_model(0.0, 1.0)
EM = exponential_model()


def gm_data(n, seed=0, theta0=0.5):
    return GM.simulate(theta0, n, seed)


def centered_data(n):
    """Data with sample mean exactly equal to the prior mean (0), so the
    posterior mean, prior mean and MLE all coincide."""
    rng = np.random.default_rng(123)
    x = rng.normal(0.0, 1.0, size=n)
    return x - x.mean()


def entropy_quadrature(d):
    """Reference: -int q log q by adaptive quadrature, panels seeded at the
    mean and 1 to 12 standard deviations either side."""
    lo, hi = d.support[0]
    c = float(np.atleast_1d(d.mean)[0])
    s = d.sd
    bps = tuple(
        v
        for v in (c + s * np.array([-12, -8, -5, -3, -2, -1, 0, 1, 2, 3, 5, 8, 12]))
        if lo < v < hi
    )

    def f(x):
        lq = d.log_pdf(x)
        return np.where(lq > -700.0, -np.exp(lq) * lq, 0.0)

    spec = QuadratureSpec(lower=lo, upper=hi, rel_tol=1e-10, breakpoints=bps)
    return integrate(f, spec).value


class TestConstruction:
    def test_laplace_scale_example(self):
        # alpha=2, sigma=1, n=8: b = sqrt(pi * 2 / 16) = sqrt(pi/8)
        q = build_good_sequence(GoodSequenceSpec("laplace", 2.0), GM, gm_data(8))
        assert abs(q.params["scale"] - math.sqrt(math.pi / 8.0)) <= 1e-12

    def test_logistic_scale(self):
        n = 15
        q = build_good_sequence(GoodSequenceSpec("logistic", 2.0), GM, gm_data(n))
        assert abs(q.params["scale"] - math.sqrt(4 * math.pi / (n + 1))) <= 1e-12

    def test_gamma_parameters(self):
        data = np.array([1.0, 2.0, 3.0])
        q = build_good_sequence(GoodSequenceSpec("gamma", 2.0), EM, data)
        assert q.params["shape"] == 4.0 and q.params["rate"] == 6.0
        assert abs(float(q.mean[0]) - 4.0 / 6.0) <= 1e-12

    def test_gaussian_meanfield_variance(self):
        n = 50
        q = build_good_sequence(GoodSequenceSpec("gaussian-meanfield", 2.0), GM, gm_data(n))
        assert abs(q.var - 1.0 / n) <= 1e-15
        q2 = build_good_sequence(
            GoodSequenceSpec("gaussian-meanfield", 2.0, variance_scale=0.5), GM, gm_data(n)
        )
        assert abs(q2.var - 0.5 / n) <= 1e-15

    def test_centers_at_posterior_mean(self):
        data = gm_data(20, seed=4)
        post = GM.exact_posterior(data)
        for fam in ("gaussian-meanfield", "laplace", "logistic"):
            q = build_good_sequence(GoodSequenceSpec(fam, 2.0), GM, data)
            assert abs(float(q.mean[0]) - float(post.mean[0])) <= 1e-12

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_good_sequence(GoodSequenceSpec("gaussian-meanfield", 2.0), GM, [])

    def test_incompatible_pairing_rejected(self):
        with pytest.raises(ValueError, match="pairs with"):
            build_good_sequence(GoodSequenceSpec("gamma", 2.0), GM, gm_data(5))
        with pytest.raises(ValueError, match="pairs with"):
            build_good_sequence(GoodSequenceSpec("laplace", 2.0), EM, [1.0, 2.0])

    @pytest.mark.parametrize("family", goodseq.FAMILIES)
    def test_two_dimensional_model_refused_by_name(self, family):
        # every constructor and audit is 1-D; the mean-field Gaussian too
        mvn = mvn_mean_model()
        data = mvn.simulate(np.zeros(2), 20, 0)
        spec = GoodSequenceSpec(family, 2.0)
        with pytest.raises(ValueError, match="pairs with .*'mvn-mean'"):
            build_good_sequence(spec, mvn, data)
        with pytest.raises(ValueError, match="pairs with .*'mvn-mean'"):
            audit(spec, mvn, data)

    def test_alpha_factor(self):
        assert alpha_factor(2.0) == 2.0
        assert abs(alpha_factor(1.5) - 1.5**2) <= 1e-12
        with pytest.raises(ValueError):
            alpha_factor(1.0)

    def test_infinite_alpha_rejected_by_name(self):
        # inf ** (1 / inf) would be a silent factor of 1
        with pytest.raises(ValueError, match="alpha must be finite"):
            alpha_factor(math.inf)
        with pytest.raises(ValueError, match="alpha must be finite"):
            GoodSequenceSpec("laplace", math.inf)


class TestMeanGap:
    """The constructors center at the posterior mean; the gap to the MLE is
    exactly |mu0 - xbar|/(n+1) for the location families and 1/sum(x) for
    the Gamma family, both vanishing at the parametric rate."""

    @pytest.mark.parametrize("n", [10, 100, 1000, 10**4])
    def test_exact_on_centered_data(self, n):
        data = centered_data(n)
        for fam in ("gaussian-meanfield", "laplace", "logistic"):
            a = audit(GoodSequenceSpec(fam, 2.0), GM, data)
            assert a.mean_gap <= 1e-8
            assert a.mean_is_mle

    @pytest.mark.parametrize("n", [10, 100, 1000, 10**4])
    def test_generic_gap_is_the_analytic_one(self, n):
        data = gm_data(n, seed=2)
        xbar = data.mean()
        expected_gap = abs(0.0 - xbar) / (n + 1)
        a = audit(GoodSequenceSpec("laplace", 2.0), GM, data)
        assert abs(a.mean_gap - expected_gap) <= 1e-12

    @pytest.mark.parametrize("n", [10, 100, 1000, 10**4])
    def test_gamma_gap_bounded_by_two_over_sum(self, n):
        data = EM.simulate(2.0, n, seed=3)
        a = audit(GoodSequenceSpec("gamma", 2.0), EM, data)
        assert abs(a.mean_gap - 1.0 / data.sum()) <= 1e-12
        assert a.mean_gap <= 2.0 / data.sum()


class TestRatioBounds:
    def test_z_tail_is_the_gaussian_quantile(self):
        # the scan's outer edge is a literal so that importing goodseq loads
        # no scipy; it must equal the quantile bit for bit
        from scipy.special import erfcinv

        assert goodseq._Z_TAIL == math.sqrt(2.0) * erfcinv(2e-10)

    def test_cited_constants(self):
        assert abs(cited_ratio_bound("laplace", 2.0) - math.exp(0.5)) <= 1e-12
        assert abs(
            cited_ratio_bound("logistic", 2.0) - math.sqrt(2.0) * math.exp(1.0 / 16.0)
        ) <= 1e-12
        assert cited_ratio_bound("gaussian-meanfield", 2.0) is None

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_laplace_tail_ratio_below_cited_bound(self, n):
        a = audit(GoodSequenceSpec("laplace", 2.0), GM, gm_data(n))
        assert a.ratio_bound_ok
        assert a.ratio_sup <= 1.64872

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_logistic_tail_ratio_below_cited_bound(self, n):
        a = audit(GoodSequenceSpec("logistic", 2.0), GM, gm_data(n))
        assert a.ratio_bound_ok
        assert a.ratio_sup <= 1.50543

    def test_laplace_global_sup_matches_exact_algebra(self):
        # the exact global supremum of posterior/member for this construction:
        # prefactor sqrt(A (n+1)/n) times exp(max of -c u^2 + u), c = (n+1) pi A / (4n)
        n = 100
        a = audit(GoodSequenceSpec("laplace", 2.0), GM, gm_data(n))
        A = 2.0
        c = (n + 1) * math.pi * A / (4.0 * n)
        exact = math.sqrt(A * (n + 1) / n) * math.exp(1.0 / (4.0 * c))
        assert abs(a.ratio_sup_global - exact) <= 1e-3

    def test_gamma_ratio_is_flat_prior_constant(self):
        # flat prior: posterior/member is constant 1/P(member <= 50) on the
        # support, so the tail sup sits just above 1
        data = EM.simulate(2.0, 100, seed=0)
        a = audit(GoodSequenceSpec("gamma", 2.0), EM, data)
        assert 1.0 - 1e-9 <= a.ratio_sup <= 1.0 + 1e-6


class TestAuditProperties:
    @pytest.mark.parametrize("fam", ["gaussian-meanfield", "laplace", "logistic"])
    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_logconcave_everywhere(self, fam, n):
        a = audit(GoodSequenceSpec(fam, 2.0), GM, gm_data(n))
        assert a.logconcave_ok

    def test_gamma_logconcave(self):
        a = audit(GoodSequenceSpec("gamma", 2.0), EM, EM.simulate(2.0, 50, seed=1))
        assert a.logconcave_ok

    @pytest.mark.parametrize("fam", ["gaussian-meanfield", "laplace", "logistic"])
    def test_entropy_below_cap(self, fam):
        for n in (10, 100, 1000):
            a = audit(GoodSequenceSpec(fam, 2.0), GM, gm_data(n))
            assert a.rate_ok
            assert a.entropy <= a.entropy_bound + 1e-9

    def test_gaussian_at_cap_attains_equality(self):
        # gaussian member with variance exactly M_bar/n: max-entropy case
        a = audit(GoodSequenceSpec("gaussian-meanfield", 2.0), GM, gm_data(100))
        assert abs(a.entropy - a.entropy_bound) <= 1e-9

    def test_gamma_entropy(self):
        a = audit(GoodSequenceSpec("gamma", 2.0), EM, EM.simulate(2.0, 100, seed=0))
        assert a.rate_ok and a.entropy_ok

    @pytest.mark.parametrize("fam", ["gaussian-meanfield", "laplace", "logistic", "gamma"])
    def test_member_entropy_matches_quadrature(self, fam):
        # the audit reports Density.entropy; quadrature is the oracle
        model, data = (EM, EM.simulate(2.0, 60, seed=4)) if fam == "gamma" else (GM, gm_data(60))
        for alpha in (1.5, 2.0, 5.0):
            q = build_good_sequence(GoodSequenceSpec(fam, alpha), model, data)
            assert abs(q.entropy - entropy_quadrature(q)) <= 1e-9


class TestVarianceScale:
    def test_defaults_cover_constructed_variance(self):
        for fam, model, data in (
            ("gaussian-meanfield", GM, gm_data(25)),
            ("laplace", GM, gm_data(25)),
            ("logistic", GM, gm_data(25)),
            ("gamma", EM, EM.simulate(2.0, 25, seed=2)),
        ):
            spec = GoodSequenceSpec(fam, 2.0)
            q = build_good_sequence(spec, model, data)
            m_bar = default_variance_scale(spec, model, data)
            assert q.var <= m_bar / len(np.asarray(data)) * (1 + 1e-9)

    @pytest.mark.parametrize("family, model, data, match", [
        ("gamma", GM, gm_data(5), "pairs with"),
        ("laplace", EM, [1.0, 2.0], "pairs with"),
        ("laplace", GM, [], "empty"),
    ], ids=["gamma-on-gaussian-mean", "laplace-on-exponential", "empty-data"])
    def test_refuses_what_the_constructor_refuses(self, family, model, data, match):
        spec = GoodSequenceSpec(family, 2.0)
        with pytest.raises(ValueError, match=match):
            build_good_sequence(spec, model, data)
        with pytest.raises(ValueError, match=match):
            default_variance_scale(spec, model, data)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            GoodSequenceSpec("weibull", 2.0)
        with pytest.raises(ValueError):
            GoodSequenceSpec("laplace", 1.0)
        with pytest.raises(ValueError):
            GoodSequenceSpec("laplace", 2.0, variance_scale=-1.0)
