"""Finiteness of the Renyi integral decided from the densities' tails, with
closed forms as oracles: the Gaussian S* condition, the Gamma kernel
integral, and the re-seeded quadrature where the tails say finite."""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, gammaln

from renyi_vi import divergence
from renyi_vi.distributions import (
    Density,
    make_gamma,
    make_gaussian,
    make_laplace,
    make_logistic,
    make_mixture,
    make_spike,
    make_uniform,
)
from renyi_vi.divergence import (
    DOMINANCE,
    renyi,
    renyi_gauss_closed,
    renyi_quadrature,
)
from renyi_vi.models import exponential_model, gaussian_mean_model

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=60)
# Relative distance of S* from singular, on either side.
GAP = 1e-6


def _divergent(p, q, alpha):
    return divergence._tail_verdict(p, q, alpha) != divergence._FINITE


@st.composite
def gaussian_pairs_near_singular(draw, dim):
    """(p, q, alpha) with S* = alpha S_q - (alpha - 1) S_p a relative GAP
    above or below singular: p's sds in [e^-7, e] (correlation up to 0.95 in
    2-D), q's covariance a shape of the same range scaled to put S* there,
    and means in [-2, 2]."""
    alpha = draw(st.floats(1.001, 20.0))
    side = draw(st.sampled_from([-1.0, 1.0]))
    sds = [math.exp(draw(st.floats(-7.0, 1.0))) for _ in range(2 * dim)]
    means = [draw(st.floats(-2.0, 2.0)) for _ in range(2 * dim)]
    if dim == 1:
        sp, shape_q = sds[0] ** 2, np.array([[1.0]])
    else:
        rho_p, rho_q = (draw(st.floats(-0.95, 0.95)) for _ in range(2))
        cp = rho_p * sds[0] * sds[1]
        sp = np.array([[sds[0] ** 2, cp], [cp, sds[1] ** 2]])
        cq = rho_q * sds[2] * sds[3]
        shape_q = np.array([[sds[2] ** 2, cq], [cq, sds[3] ** 2]])
    # S* is singular at the scale t0 of shape_q where alpha t0 shape_q -
    # (alpha - 1) S_p first loses definiteness
    lq = np.linalg.cholesky(shape_q)
    whitened = np.linalg.solve(lq, np.linalg.solve(lq, np.atleast_2d(sp)).T)
    t0 = (alpha - 1.0) / alpha * np.linalg.eigvalsh(whitened).max()
    sq = t0 * (1.0 + side * GAP) * shape_q
    p = make_gaussian(means[:dim], sp)
    q = make_gaussian(means[dim:], sq)
    return p, q, alpha


# Rounding of the log-integrand at its peak, in nats, past which the 1-D
# quadrature may give up: the integrand is then noise on its own scale.
ROUNDING_NATS = 10.0


def peak_rounding(p, q, alpha):
    """The float64 rounding of alpha log p - (alpha - 1) log q at the peak
    of a finite 1-D Gaussian pair: each quadratic term is rounded to about
    one part in 2^52 of its own size, which dwarfs their difference when
    the peak lies a million sds out."""
    (mp,), (mq,) = p.mean, q.mean
    vp, vq = p.var, q.var
    x = (alpha * mp / vp - (alpha - 1.0) * mq / vq) / (alpha / vp - (alpha - 1.0) / vq)
    terms = alpha * (x - mp) ** 2 / (2.0 * vp) + (alpha - 1.0) * (x - mq) ** 2 / (2.0 * vq)
    return terms * np.finfo(float).eps


class TestGaussianPairs:
    @SETTINGS
    @given(gaussian_pairs_near_singular(1))
    # the peak, near x = 3.47, lies 1170 sds of p past its bulk points: was inf
    @example((make_gaussian(1.9842, 0.001268**2), make_gaussian(0.7293, 0.00121**2), 1.973))
    def test_1d_verdict_and_value_match_closed_form(self, pair):
        p, q, alpha = pair
        closed = renyi_gauss_closed(p, q, alpha).value
        assert _divergent(p, q, alpha) == math.isinf(closed)
        try:
            quad = renyi_quadrature(p, q, alpha)
        except ArithmeticError:
            # finite, but not in float64: the log-densities at the peak are
            # rounded by more than ROUNDING_NATS, so the integrand is noise
            assert math.isfinite(closed) and peak_rounding(p, q, alpha) > ROUNDING_NATS
            return
        if math.isinf(closed):
            assert quad.value == math.inf and quad.reason.startswith("divergent tail")
        else:
            assert quad.reason is None
            assert abs(quad.value - closed) <= 1e-6 * max(1.0, abs(closed))

    @SETTINGS
    @given(gaussian_pairs_near_singular(2))
    def test_2d_verdict_matches_closed_form(self, pair):
        # a 2-D pair is scored by its closed form alone, infinite where the
        # pivots of S*'s Cholesky factor say S* is not positive definite:
        # here S*'s smallest eigenvalue, a relative GAP from 0 either way
        p, q, alpha = pair
        est = renyi(p, q, alpha)
        s_star = alpha * q.cov - (alpha - 1.0) * p.cov
        assert math.isinf(est.value) == (np.linalg.eigvalsh(s_star)[0] <= 0.0)
        assert est.method == divergence.CLOSED_FORM

    def test_second_component_alone_makes_it_diverge(self):
        # S* = 2 - s_k^2 against N(0, 1) at alpha 2: positive for the first
        # component, not for the second, so the mixture's integral diverges,
        # as its tails tell before any node is evaluated
        q = make_gaussian(0.0, 1.0)
        first, second = make_gaussian(0.5, 0.5), make_gaussian(-0.5, 2.5)
        assert math.isfinite(renyi_gauss_closed(first, q, 2.0).value)
        assert renyi_gauss_closed(second, q, 2.0).value == math.inf
        calls = []

        def log_pdf(x):
            calls.append(len(x))
            return mix.log_pdf(x)

        mix = make_mixture([0.7, 0.3], [first, second])
        est = renyi_quadrature(dataclasses.replace(mix, log_pdf=log_pdf), q, 2.0)
        assert est.value == math.inf and est.reason == "divergent tail at -inf"
        assert calls == []

    def test_barely_finite_1d_pair_is_reseeded_to_its_closed_form(self):
        # S* = 1e-4: the integrand peaks near x = -3000, far past both
        # densities' bulk points, and overflows the first shift
        p, q = make_gaussian(0.0, 1.0), make_gaussian(0.3, 0.50005)
        est = renyi_quadrature(p, q, 2.0)
        assert est.reason is None and est.converged
        assert abs(est.value - 903.9121230005277) <= 1e-9 * 903.9121230005277

    def test_barely_indefinite_2d_pair_is_infinite(self):
        # by the closed form, the only way a 2-D pair is scored
        p = make_gaussian([0.3, -0.2], [[1.0, 0.9], [0.9, 1.0]])
        q = make_gaussian([0.0, 0.0], 0.95 * (1.0 - 1e-6) * np.eye(2))
        est = renyi(p, q, 2.0)
        assert est.value == math.inf and est.method == divergence.CLOSED_FORM
        assert est.reason == "divergent tail: S* is not positive definite"


class TestLaplaceAgainstGaussian:
    @SETTINGS
    @given(st.floats(1.001, 20.0), st.floats(-3.0, 3.0), st.floats(-7.0, 1.0),
           st.floats(-3.0, 3.0), st.floats(-7.0, 1.0))
    def test_infinite_for_every_alpha(self, alpha, loc, log_b, mean, log_sd):
        p = make_laplace(loc, math.exp(log_b))
        q = make_gaussian(mean, math.exp(2.0 * log_sd))
        est = renyi(p, q, alpha)
        assert est.value == math.inf and est.reason == "divergent tail at -inf"

    def test_gaussian_into_laplace_is_finite(self):
        est = renyi(make_gaussian(0.0, 9.0), make_laplace(0.0, 0.01), 20.0)
        assert math.isfinite(est.value) and est.reason is None


# D_inf(N(0, 1) || Laplace(1, 1)) = max_x log p/q, at x = -1: 3/2 - log(2 pi)/2
# + log 2. D_alpha rises to it as alpha grows.
D_INF_N01_LAPLACE11 = 1.5 - 0.5 * math.log(2.0 * math.pi) + math.log(2.0)


class TestLargeAlpha:
    # N(0, 1) against Laplace(1, 1): the integrand peaks at x = -1, one of
    # p's bulk points and so a panel edge, with width about alpha^(-1/2);
    # from alpha 1e10 every node of the first pass misses it
    P, Q = make_gaussian(0.0, 1.0), make_laplace(1.0, 1.0)

    def test_pass_that_sums_to_zero_is_reseeded_at_the_peak(self):
        est = renyi_quadrature(self.P, self.Q, 1e10)
        assert est.converged
        assert abs(est.value - 1.27420864615) <= 1e-11
        assert est.value < D_INF_N01_LAPLACE11

    def test_reseeded_value_keeps_rising_to_d_inf(self):
        low = renyi_quadrature(self.P, self.Q, 1e10).value
        est = renyi_quadrature(self.P, self.Q, 1e12)
        assert not est.converged  # honest: the tolerance was not met
        assert low < est.value < D_INF_N01_LAPLACE11

    def test_rounding_past_the_shift_still_raises(self):
        # at alpha 1e20 the log-densities' rounding, about 1e4 nats, swamps
        # the re-seeded pass's shift
        with pytest.raises(ArithmeticError, match="overflowed its shift"):
            renyi_quadrature(self.P, self.Q, 1e20)


EXP = exponential_model()


def exponential_posterior(n, rate):
    """The exponential model's truncated-Gamma posterior on [0, 50] after n
    points that sum to ``rate``."""
    return EXP.exact_posterior(np.full(n, rate / n))


def gamma_kernel_renyi(post, q, alpha):
    """D_alpha(post || q) from the exact kernel integral: post^alpha
    q^(1-alpha) is C lam^(s-1) exp(-r lam) on [0, hi], whose integral is
    Gamma(s) r^-s P(s, r hi) for r > 0; inf when s <= 0, where the power
    at 0 is not integrable."""
    k, sx, hi = post.params["shape"], post.params["rate"], post.params["hi"]
    a, b = q.params["shape"], q.params["rate"]
    s = alpha * (k - 1.0) - (alpha - 1.0) * (a - 1.0) + 1.0
    if s <= 0.0:
        return math.inf
    r = alpha * sx - (alpha - 1.0) * b
    log_mass = math.log(gammainc(k, sx * hi))
    log_c = (alpha * (k * math.log(sx) - gammaln(k) - log_mass)
             - (alpha - 1.0) * (a * math.log(b) - gammaln(a)))
    log_i = gammaln(s) - s * math.log(r) + math.log(gammainc(s, r * hi))
    return (log_c + log_i) / (alpha - 1.0)


class TestTruncatedGammaAgainstGamma:
    @SETTINGS
    @given(st.sampled_from([1, 10, 100, 1000]), st.floats(1.001, 20.0),
           st.floats(-3.0, 3.0), st.floats(0.5, 4.0), st.floats(0.5, 0.99))
    # the n = 100 member at shape 205.87 that the overflow heuristic scored finite
    @example(100, 2.0, -4.87, 2.0, 0.9)
    def test_power_at_zero_matches_the_kernel_integral(self, n, alpha, power, lam, r_frac):
        # q's shape puts the kernel's power alpha n - (alpha - 1)(a - 1) at 0;
        # q's rate keeps the combined rate r = r_frac alpha sx positive
        post = exponential_posterior(n, n / lam)
        sx = post.params["rate"]
        shape = (alpha * n - power) / (alpha - 1.0) + 1.0
        if shape <= 0.0:
            return
        rate = alpha * sx * (1.0 - r_frac) / (alpha - 1.0)
        q = make_gamma(shape, rate)
        exact = gamma_kernel_renyi(post, q, alpha)
        assert _divergent(post, q, alpha) == math.isinf(exact)
        est = renyi_quadrature(post, q, alpha)
        if math.isinf(exact):
            assert est.value == math.inf and est.reason == "divergent tail at 0"
        else:
            # a power just above -1 at 0 is an endpoint singularity that the
            # panels do not resolve within their wave cap; they say so
            assert est.reason is None and math.isfinite(est.value)
            if est.converged:
                assert abs(est.value - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_power_of_exactly_minus_one_diverges(self):
        # alpha n - (alpha - 1)(a - 1) = 200 - 201 = -1: int_0 1/lam diverges
        post = exponential_posterior(100, 50.0)
        est = renyi_quadrature(post, make_gamma(202.0, 100.0), 2.0)
        assert est.value == math.inf and est.reason == "divergent tail at 0"
        assert math.isfinite(renyi_quadrature(post, make_gamma(201.5, 100.0), 2.0).value)

    def test_heuristic_member_at_n_100_is_infinite(self):
        # scored 74.34 by the overflow heuristic: the power at 0 is -4.87
        post = EXP.exact_posterior(EXP.simulate(2.0, 100, 1))
        q = make_gamma(205.8745378803554, 99.92709389119284)
        est = renyi_quadrature(post, q, 2.0)
        assert est.value == math.inf and est.reason == "divergent tail at 0"

    def test_rising_to_the_prior_end_is_reseeded(self):
        # negative combined rate: the integrand rises to the prior's end, 50;
        # the oracle is scipy's quad of the kernel from that end
        post = exponential_posterior(10**4, 5000.0)
        q = make_gamma(19980.0016, 10100.0)
        est = renyi_quadrature(post, q, 2.0)
        assert est.reason is None and est.converged
        k, sx, hi = post.params["shape"], post.params["rate"], post.params["hi"]
        a, b = q.params["shape"], q.params["rate"]
        power, rate = 2.0 * (k - 1.0) - (a - 1.0), 2.0 * sx - b
        top = power * math.log(hi) - rate * hi
        kernel, _ = quad(lambda u: math.exp(power * math.log(hi - u) - rate * (hi - u) - top),
                         0.0, hi, points=(0.01, 0.1, 1.0), epsabs=0.0, epsrel=1e-12)
        log_c = (2.0 * (k * math.log(sx) - gammaln(k) - math.log(gammainc(k, sx * hi)))
                 - (a * math.log(b) - gammaln(a)))
        exact = log_c + top + math.log(kernel)
        assert abs(est.value - exact) <= 1e-9 * exact

    def test_larger_value_at_the_prior_end_than_in_the_bulk(self):
        # q^(1-alpha) of a narrow Gaussian grows like exp(+x^2) up to 50,
        # past the local maximum near the posterior's bulk
        post = exponential_posterior(200, 100.0)
        q = make_gaussian(1.5, 0.0176)
        est = renyi_quadrature(post, q, 2.0)
        assert est.reason is None and est.converged

        def log_integrand(x):
            x = np.array([x])
            return float(2.0 * post.log_pdf(x)[0] - q.log_pdf(x)[0])

        top = log_integrand(50.0)
        kernel, _ = quad(lambda x: math.exp(log_integrand(x) - top), 0.0, 50.0,
                         points=(2.0, 49.0, 49.9, 49.99, 49.999), epsabs=0.0,
                         epsrel=1e-13, limit=500)
        assert abs(est.value - (top + math.log(kernel))) <= 1e-12 * est.value

    @pytest.mark.parametrize("alpha, finite", [(3.0, False), (2.0, False), (1.5, True)])
    def test_bounded_uniform_into_gamma(self, alpha, finite):
        # q = Gamma(2, 1) vanishes like x at 0: int_0^1 x^(1 - alpha) dx
        # diverges iff alpha >= 2
        est = renyi_quadrature(make_uniform(0.0, 1.0), make_gamma(2.0, 1.0), alpha)
        assert math.isfinite(est.value) == finite
        assert est.reason == (None if finite else "divergent tail at 0")


class TestMixtures:
    def test_slowest_component_decides(self):
        # the wide second component of q keeps the integral finite; its
        # narrow first one alone would make it diverge
        p = make_gaussian(0.0, 1.0)
        q = make_mixture([0.5, 0.5], [make_gaussian(0.0, 0.3), make_gaussian(0.0, 3.0)])
        assert renyi_gauss_closed(p, q.params["components"][0], 2.0).value == math.inf
        est = renyi_quadrature(p, q, 2.0)
        assert math.isfinite(est.value) and est.reason is None

    def test_slowest_component_of_p_decides(self):
        p = make_mixture([0.5, 0.5], [make_gaussian(0.0, 0.3), make_gaussian(0.0, 3.0)])
        assert renyi_quadrature(p, make_gaussian(0.0, 1.0), 2.0).reason == "divergent tail at -inf"

    @pytest.mark.parametrize("width", [1e-3, 1e-2])
    @pytest.mark.parametrize("n", [10**4, 10**5])
    def test_spike_mixture_verdicts(self, n, width):
        # criterion 6: the Renyi integral to a two-spike mixture diverges
        # exactly when it does to a single spike
        model = gaussian_mean_model(0.0, 1.0)
        post = model.exact_posterior(model.simulate(0.5, n, 0))
        q = make_mixture([0.5, 0.5], [make_spike(0.5, width), make_spike(1.5, width)])
        single = renyi_gauss_closed(post, make_spike(0.5, width), 2.0).value
        est = renyi_quadrature(post, q, 2.0, rel_tol=1e-7)
        assert math.isinf(est.value) == math.isinf(single)
        assert math.isinf(est.value) == (width == 1e-3)


class TestUndecided:
    def test_undecided_tails_raise_naming_the_kinds(self):
        # tails not declared (a custom kind), a 2-D pair (no tails, and no
        # quadrature), and leading terms that cancel: refused by name, not
        # scored
        p = Density(dim=1, support=((-np.inf, np.inf),), log_pdf=make_gaussian(0.0, 1.0).log_pdf)
        q = Density(dim=1, support=((-np.inf, np.inf),), log_pdf=make_gaussian(0.0, 0.25).log_pdf)
        with pytest.raises(ValueError, match=r"tails of p \(kind='custom'\) and q "
                                             r"\(kind='custom'\) are not both declared"):
            renyi_quadrature(p, q, 2.0)
        g = make_gaussian([0.0, 0.0], 4.0 * np.eye(2))
        with pytest.raises(ValueError, match=r"p \(kind='gaussian'\) and q \(kind='mixture'\) "
                                             "are 2-D, and quadrature is 1-D only"):
            renyi_quadrature(g, make_mixture([0.5, 0.5], [g, make_gaussian([1.0, 0.0], np.eye(2))]),
                             2.0)
        # alpha c_p = (alpha - 1) c_q, with c = 1 / (2 var): 1.5 / 6 = 0.5 / 2
        with pytest.raises(ValueError, match=r"leading tail terms of p \(kind='gaussian'\) "
                                             r"and q \(kind='gaussian'\) cancel"):
            renyi_quadrature(make_gaussian(0.0, 3.0), make_gaussian(0.0, 1.0), 1.5)

    def test_dominance_failure_says_so(self):
        est = renyi_quadrature(make_gaussian(0.0, 1.0), make_gamma(2.0, 1.0), 2.0)
        assert est.value == math.inf and est.reason == DOMINANCE

    def test_logistic_tails_are_declared(self):
        # logistic p against a Laplace of the same scale: the rate alpha/s -
        # (alpha - 1)/s is positive, so the integral is finite
        p, q = make_logistic(0.0, 1.0), make_laplace(0.0, 1.0)
        assert divergence._tail_verdict(p, q, 5.0) == divergence._FINITE
        assert divergence._tail_verdict(q, make_laplace(0.0, 0.5), 5.0) == "divergent tail at -inf"


def test_every_test_module_is_imported_at_session_start():
    # conftest imports them all, so hypothesis draws from the same pool of
    # constants whether this file runs alone or in the full run
    here = Path(__file__).parent
    assert {path.stem for path in here.glob("test_*.py")} <= set(sys.modules)
