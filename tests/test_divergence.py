"""Renyi and KL divergences: closed forms vs quadrature, infinity handling,
the Monte-Carlo upper bound, and the Holder lower bound."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad
from scipy.special import erfc, log_ndtr

from renyi_vi.distributions import (
    Density,
    bulk_points,
    make_gamma,
    make_gaussian,
    make_laplace,
    make_logistic,
    make_mixture,
    make_uniform,
)
from renyi_vi.divergence import (
    holder_lower_bound,
    kl_forward,
    kl_reverse,
    mc_renyi_upper_bound,
    renyi,
    renyi_gauss_closed,
    renyi_quadrature,
)
from renyi_vi import divergence
from renyi_vi.models import gaussian_mean_model
from renyi_vi.numerics import QuadratureSpec, integrate
from renyi_vi.varfit import FAMILY_BUILDERS, _divergence


def normal_tail(z):
    return 0.5 * erfc(z / math.sqrt(2.0))


def random_valid_gaussian_pair(rng, alpha):
    """A Gaussian pair with positive mixture variance at this alpha."""
    while True:
        mp, mq = rng.uniform(-2.0, 2.0, size=2)
        sp, sq = rng.uniform(0.5, 2.0, size=2)
        if alpha * sq**2 + (1.0 - alpha) * sp**2 > 0.05:
            return make_gaussian(mp, sp**2), make_gaussian(mq, sq**2)


class TestRenyiQuadrature:
    def test_identity_is_zero(self):
        p = make_gaussian(0.0, 1.0)
        est = renyi_quadrature(p, make_gaussian(0.0, 1.0), 2.0)
        assert abs(est.value) <= 1e-8

    def test_unit_variance_mean_shift(self):
        # equal variances: D_alpha = alpha (mu_p - mu_q)^2 / 2
        est = renyi_quadrature(make_gaussian(0.0, 1.0), make_gaussian(1.0, 1.0), 2.0)
        assert abs(est.value - 1.0) <= 1e-6

    def test_dominance_failure_is_infinite(self):
        est = renyi_quadrature(make_gaussian(0.0, 1.0), make_gamma(2.0, 1.0), 2.0)
        assert est.value == np.inf

    def test_gamma_into_gaussian_dominated_but_divergent(self):
        # support containment holds, yet the integral itself diverges: the
        # Gaussian tail decays faster than the alpha-amplified Gamma needs
        from renyi_vi.distributions import dominates

        p, q = make_gamma(2.0, 1.0), make_gaussian(0.0, 1.0)
        assert dominates(p, q)
        assert renyi_quadrature(p, q, 2.0).value == np.inf

    def test_gamma_into_heavy_scaled_laplace_finite(self):
        # a dominating member with slow enough tails keeps the value finite
        p, q = make_gamma(2.0, 1.0), make_laplace(1.0, 3.0)
        est = renyi_quadrature(p, q, 2.0)
        assert np.isfinite(est.value) and est.value > 0

    def test_divergent_integral_reported_infinite(self):
        # alpha sq^2 + (1-alpha) sp^2 = 0.8 - 1 < 0
        est = renyi_quadrature(make_gaussian(0.0, 1.0), make_gaussian(0.0, 0.4), 2.0)
        assert est.value == np.inf

    def test_truncated_integrals_grow_without_bound(self):
        # same divergent pair: the integral over [-W, W] increases in W
        p, q = make_gaussian(0.0, 1.0), make_gaussian(0.0, 0.4)

        def truncated(width):
            f = lambda x: np.exp(2.0 * p.log_pdf(x) - q.log_pdf(x))
            return integrate(f, QuadratureSpec(-width, width, rel_tol=1e-8)).value

        vals = [truncated(w) for w in (5.0, 10.0, 20.0)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > 1e20

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            renyi_quadrature(make_gaussian(0, 1), make_gaussian(0, 1), 1.0)


def renyi_gauss_laplace(mu, s, k, b, alpha):
    """D_alpha(N(mu, s^2) || Laplace(k, b)) in closed form: split the integral
    at k into two Gaussian-times-exponential pieces, each a log_ndtr term."""
    v = s * s / alpha
    c = (alpha - 1.0) / b
    d = mu - k
    log_i = (
        -0.5 * alpha * math.log(2.0 * math.pi * s * s)
        + (alpha - 1.0) * math.log(2.0 * b)
        + 0.5 * math.log(2.0 * math.pi * v)
        + 0.5 * c * c * v
        + np.logaddexp(c * d + log_ndtr((d + c * v) / math.sqrt(v)),
                       -c * d + log_ndtr((c * v - d) / math.sqrt(v)))
    )
    return float(log_i) / (alpha - 1.0)


def moment_free(d):
    """The same density with its moments (hence its bulk points) withheld."""
    return Density(dim=d.dim, support=d.support, log_pdf=d.log_pdf)


class TestRenyiQuadratureAccuracy:
    def test_gauss_laplace_matches_closed_form(self):
        # the Laplace kink at k must be a panel edge for 1e-11 to hold
        rng = np.random.default_rng(2024)
        for _ in range(200):
            scale = 10.0 ** rng.uniform(-3.0, 0.5)
            mu = rng.uniform(-2.0, 2.0)
            s = scale * rng.uniform(0.3, 1.5)
            k = mu + scale * rng.uniform(-2.0, 2.0)
            b = scale * rng.uniform(0.3, 1.5)
            a = rng.uniform(1.1, 4.0)
            expect = renyi_gauss_laplace(mu, s, k, b, a)
            est = renyi_quadrature(make_gaussian(mu, s * s), make_laplace(k, b), a)
            assert est.converged
            assert abs(est.value - expect) <= 1e-11 * abs(expect), (mu, s, k, b, a)

    def test_logistic_pair_matches_fine_reference(self):
        p, q = make_logistic(0.2, 0.5), make_laplace(-0.1, 0.8)
        f = lambda x: np.exp(2.5 * p.log_pdf(x) - 1.5 * q.log_pdf(x))
        ref = integrate(f, QuadratureSpec(-np.inf, np.inf, rel_tol=1e-13,
                                          breakpoints=(-0.1, 0.2))).value
        est = renyi_quadrature(p, q, 2.5).value
        assert abs(est - math.log(ref) / 1.5) <= 1e-11

    def test_pair_without_moments_is_refused_by_name(self):
        # no bulk points inside p's support: the quadrature has nowhere to
        # start, with declared tails (Renyi) or without them (KL)
        p, q = make_gaussian(0.3, 1.0), make_gaussian(0.0, 2.25)
        assert bulk_points(moment_free(p)).size == 0
        no_moments = [dataclasses.replace(d, mean=None, cov=None) for d in (p, q)]
        with pytest.raises(ValueError, match=r"p \(kind='gaussian'\) and q \(kind='gaussian'\) "
                                             r"declare no \(finite\) moments"):
            renyi_quadrature(*no_moments, 2.0)
        with pytest.raises(ValueError, match=r"p \(kind='custom'\) and q \(kind='custom'\) "
                                             r"declare no \(finite\) moments"):
            kl_forward(moment_free(p), moment_free(q))


def log_pdf_2d(mean, cov):
    """log N(mean, cov) at (x, y), written out over Python floats: the
    integrand of the scipy references below, independent of the library."""
    (a, b), (_, c) = np.linalg.inv(cov).tolist()
    m0, m1 = (float(v) for v in mean)
    norm = -0.5 * math.log(np.linalg.det(cov)) - math.log(2.0 * math.pi)

    def log_pdf(y, x):
        u, v = x - m0, y - m1
        return norm - 0.5 * (a * u * u + 2.0 * b * u * v + c * v * v)

    return log_pdf


def dblquad_2d(integrand):
    """scipy's dblquad of ``integrand(y, x)`` over [-20, 20]^2, past which
    the pairs below carry no mass that float64 sees."""
    value, _ = dblquad(integrand, -20.0, 20.0, -20.0, 20.0, epsabs=0.0, epsrel=1e-11)
    return value


def renyi_2d_reference(mp, cp, mq, cq, alpha):
    lp, lq = log_pdf_2d(mp, cp), log_pdf_2d(mq, cq)
    mass = dblquad_2d(lambda y, x: math.exp(alpha * lp(y, x) + (1.0 - alpha) * lq(y, x)))
    return math.log(mass) / (alpha - 1.0)


def kl_2d_reference(mp, cp, mq, cq):
    lp, lq = log_pdf_2d(mp, cp), log_pdf_2d(mq, cq)
    return dblquad_2d(lambda y, x: math.exp(lp(y, x)) * (lp(y, x) - lq(y, x)))


# Isotropic variances that figure1 fits to N(0, [[1, .9], [.9, 1]]).
FIG1_S2 = {2.0: 1.4337396712041177, 20.0: 1.85256759120746}
FIG1_COV = [[1.0, 0.9], [0.9, 1.0]]
FIG1_TARGET = make_gaussian([0.0, 0.0], FIG1_COV)

# Gaussian pairs (p mean, p cov, q mean, q cov, alpha) with finite D_alpha:
# figure1's alpha-2 pair, a correlated p against a shifted isotropic q, and
# two correlated densities, apart, at an alpha near 1.
PAIRS_2D = [
    ([0.0, 0.0], FIG1_COV, [0.0, 0.0], FIG1_S2[2.0] * np.eye(2), 2.0),
    ([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]], [0.1, -0.1], 1.4 * np.eye(2), 2.0),
    ([0.3, -0.2], [[2.0, -0.4], [-0.4, 0.5]], [0.5, 0.1], [[1.5, 0.2], [0.2, 1.0]], 1.5),
]

# A bimodal p against a wide q: no closed form lists the pair.
BIMODAL_PAIR = (
    make_mixture([0.5, 0.5], [make_gaussian([-2.0, 0.0], 0.5 * np.eye(2)),
                              make_gaussian([2.0, 0.5], [[0.6, 0.2], [0.2, 0.4]])]),
    make_gaussian([0.0, 0.0], 4.0 * np.eye(2)),
)


def refused_before_any_node(divergence_of, p, q):
    """Whether ``divergence_of(p, q)`` raises a ``ValueError`` naming both
    kinds without evaluating p's or q's log-density."""
    calls = []

    def counted(d):
        def log_pdf(x):
            calls.append(len(x))
            return d.log_pdf(x)
        return dataclasses.replace(d, log_pdf=log_pdf)

    with pytest.raises(ValueError, match=rf"p \(kind='{p.kind}'\) and q \(kind='{q.kind}'\) "
                                         "are 2-D, and quadrature is 1-D only"):
        divergence_of(counted(p), counted(q))
    return calls == []


class TestRenyiQuadrature2D:
    # 2-D Gaussian pairs take the closed form; its 2-D reference is a
    # test-side scipy integral
    def test_matches_closed_form(self):
        for mp, cp, mq, cq, a in PAIRS_2D:
            closed = renyi(make_gaussian(mp, cp), make_gaussian(mq, cq), a)
            assert closed.method == divergence.CLOSED_FORM
            ref = renyi_2d_reference(mp, cp, mq, cq, a)
            assert abs(closed.value - ref) <= 1e-12 * ref, (a, closed.value, ref)

    def test_bimodal_mixture_is_refused_before_any_node(self):
        assert refused_before_any_node(lambda p, q: renyi(p, q, 2.0), *BIMODAL_PAIR)
        assert refused_before_any_node(lambda p, q: renyi_quadrature(p, q, 2.0), *BIMODAL_PAIR)

    def test_figure1_shrunk_alpha20_member_is_infinite(self):
        s2 = FIG1_S2[20.0] * 0.97**2  # 20 s^2 < 19 lambda_max: S* indefinite
        q = make_gaussian([0.0, 0.0], s2 * np.eye(2))
        assert renyi(FIG1_TARGET, q, 20.0).value == np.inf


class TestKLQuadrature2D:
    def test_gaussian_pair_matches_closed_form(self):
        for mp, cp, mq, cq, _ in PAIRS_2D:
            closed = kl_forward(make_gaussian(mp, cp), make_gaussian(mq, cq))
            assert closed.method == divergence.CLOSED_FORM
            ref = kl_2d_reference(mp, cp, mq, cq)
            assert abs(closed.value - ref) <= 1e-12 * ref, (closed.value, ref)

    def test_bimodal_mixture_is_refused_before_any_node(self):
        assert refused_before_any_node(kl_forward, *BIMODAL_PAIR)
        # a twin mixture is figure1's target, but not by kind
        twin = make_mixture([0.5, 0.5], [FIG1_TARGET, FIG1_TARGET])
        q = make_gaussian([0.0, 0.0], FIG1_S2[2.0] * np.eye(2))
        assert refused_before_any_node(kl_forward, twin, q)
        assert refused_before_any_node(lambda p, q: divergence._kl_quadrature(p, q, 1e-9),
                                       FIG1_TARGET, q)


class TestConvergenceFlag:
    def test_quadrature_reports_converged(self):
        p, q = make_gaussian(0.0, 1.0), make_laplace(0.3, 1.0)
        assert renyi_quadrature(p, q, 2.0).converged
        assert kl_forward(p, q).converged

    def test_endpoint_singularity_reports_not_converged(self):
        # Gamma(0.1, .) has a x^-0.9 pole at 0: the refinement waves run out
        # before the tolerance is met, the flag says so, and the best
        # estimate is still carried along
        p, q = make_gamma(0.1, 1.0), make_gamma(0.1, 2.0)
        ren = renyi_quadrature(p, q, 1.5)
        assert not ren.converged
        assert abs(ren.value - 0.1 * math.log(2.0)) <= 1e-5
        kl = kl_forward(p, q)
        assert not kl.converged
        assert abs(kl.value - 0.1 * (1.0 - math.log(2.0))) <= 1e-5

    def test_panels_are_carried(self):
        p, q = make_gaussian(0.0, 1.0), make_laplace(0.3, 1.0)
        assert renyi_quadrature(p, q, 2.0).panels > 0
        assert kl_forward(p, make_logistic(0.3, 1.0)).panels > 0
        closed = kl_forward(p, q)
        assert closed.panels == 0 and closed.method == divergence.CLOSED_FORM
        assert renyi_gauss_closed(p, make_gaussian(0.5, 2.0), 2.0).panels == 0
        assert renyi_quadrature(p, make_gamma(2.0, 1.0), 2.0).panels == 0

    def test_closed_form_and_infinite_are_converged(self):
        p = make_gaussian(0.0, 1.0)
        assert renyi_gauss_closed(p, make_gaussian(0.5, 2.0), 2.0).converged
        assert renyi_quadrature(p, make_gamma(2.0, 1.0), 2.0).converged


class TestRenyiClosedForm:
    def test_identity_zero_any_alpha(self):
        p = make_gaussian(0.2, 1.3)
        for a in (1.5, 2.0, 5.0):
            assert abs(renyi_gauss_closed(p, p, a).value) <= 1e-12

    def test_negative_mixture_variance_infinite(self):
        est = renyi_gauss_closed(make_gaussian(0.0, 1.0), make_gaussian(0.0, 0.4), 2.0)
        assert est.value == np.inf

    def test_alpha_to_one_limit_is_forward_kl(self):
        p, q = make_gaussian(0.0, 1.0), make_gaussian(0.0, 4.0)
        kl = kl_forward(p, q).value
        near = renyi_gauss_closed(p, q, 1.0 + 1e-4).value
        assert abs(near - kl) <= 1e-4

    def test_agrees_with_quadrature_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            for a in (1.5, 2.0, 3.0):
                p, q = random_valid_gaussian_pair(rng, a)
                dc = renyi_gauss_closed(p, q, a).value
                dq = renyi_quadrature(p, q, a).value
                assert abs(dc - dq) <= 1e-6

    def test_agrees_with_quadrature_2d(self):
        # the quadrature is a test-side scipy integral
        mp, cp, mq, cq = [0.0, 0.0], FIG1_COV, [0.1, -0.1], 1.4 * np.eye(2)
        dc = renyi_gauss_closed(make_gaussian(mp, cp), make_gaussian(mq, cq), 2.0).value
        dq = renyi_2d_reference(mp, cp, mq, cq, 2.0)
        assert abs(dc - dq) <= 1e-12 * dq

    def test_monotone_in_alpha(self):
        p, q = make_gaussian(0.0, 1.0), make_gaussian(0.7, 1.5)
        vals = [renyi_gauss_closed(p, q, a).value for a in (1.5, 2.0, 3.0, 5.0)]
        assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(3))

    def test_nonnegative_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p, q = random_valid_gaussian_pair(rng, 2.0)
            assert renyi_gauss_closed(p, q, 2.0).value >= -1e-9


def renyi_gauss_numpy(p, q, alpha):
    """The Gaussian Renyi closed form on numpy arrays: S* definite by its
    eigenvalues, d' S*^{-1} d by a solve, three log-determinants by slogdet.
    The oracle for the library's float form."""
    mp, sp, mq, sq = p.mean, p.cov, q.mean, q.cov
    s_star = alpha * sq + (1.0 - alpha) * sp
    if np.linalg.eigvalsh(s_star).min() <= 0.0:
        return math.inf
    diff = mp - mq
    quad = 0.5 * alpha * float(diff @ np.linalg.solve(s_star, diff))
    logdets = (np.linalg.slogdet(s_star)[1] - (1.0 - alpha) * np.linalg.slogdet(sp)[1]
               - alpha * np.linalg.slogdet(sq)[1])
    return max(float(quad - logdets / (2.0 * (alpha - 1.0))), 0.0)


def kl_gauss_numpy(p, q):
    """KL(p || q) for two Gaussians on numpy arrays, with inv and slogdet."""
    sq_inv = np.linalg.inv(q.cov)
    diff = p.mean - q.mean
    value = 0.5 * (np.trace(sq_inv @ p.cov) + diff @ sq_inv @ diff - p.dim
                   + np.linalg.slogdet(q.cov)[1] - np.linalg.slogdet(p.cov)[1])
    return max(float(value), 0.0)


def _rotation(draw, d):
    q, _ = np.linalg.qr(np.array(
        [[draw(st.floats(-1.0, 1.0)) for _ in range(d)] for _ in range(d)]))
    return q


def _symmetric(rot, lam):
    m = (rot * lam) @ rot.T
    return 0.5 * (m + m.T)


@st.composite
def gaussian_pairs_at_gap(draw, gap):
    """(p, q, alpha, cond(S*)) in d = 1, 2 or 3 with S* = alpha S_q +
    (1 - alpha) S_p of eigenvalues between |gap| and 1 times its largest, the
    smallest exactly gap times it: 1e-9 below singular for gap = -1e-9.
    S_p has eigenvalues 1e-3 to 10 and q's mean is 1e-6 to 1 from p's."""
    d = draw(st.integers(1, 3))
    alpha = draw(st.floats(1.001, 20.0))
    sp = _symmetric(_rotation(draw, d), [10.0 ** draw(st.floats(-3.0, 1.0)) for _ in range(d)])
    top = 10.0 ** draw(st.floats(-1.0, 1.0))
    lam = [top * 10.0 ** draw(st.floats(math.log10(abs(gap)), 0.0)) for _ in range(d)]
    lam[-1] = top
    lam[0] = gap * top  # last, so that it is the one eigenvalue when d = 1
    s_star = _symmetric(_rotation(draw, d), lam)
    sq = (s_star + (alpha - 1.0) * sp) / alpha  # symmetric, as both terms are
    mp = np.array([draw(st.floats(-3.0, 3.0)) for _ in range(d)])
    shift = 10.0 ** draw(st.floats(-6.0, 0.0))
    mq = mp + shift * np.array([draw(st.floats(-1.0, 1.0)) for _ in range(d)])
    return make_gaussian(mp, sp), make_gaussian(mq, sq), alpha, 1.0 / abs(gap)


class TestGaussClosedFormsInFloats:
    """The float closed forms against their numpy oracles. Errors are
    relative to the sum of the magnitudes of the terms each form adds up,
    which bounds the value and is what rounding scales with: near p = q the
    value itself cancels to almost nothing."""

    @pytest.mark.parametrize("gap", [1e-1, 1e-9, -1e-9])
    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(data=st.data())
    def test_renyi_matches_numpy_oracle(self, gap, data):
        p, q, alpha, cond = data.draw(gaussian_pairs_at_gap(gap))
        got = renyi_gauss_closed(p, q, alpha).value
        expect = renyi_gauss_numpy(p, q, alpha)
        assert np.isinf(got) == np.isinf(expect) == (gap < 0.0)
        if gap > 0.0:
            s_star = alpha * q.cov + (1.0 - alpha) * p.cov
            diff = p.mean - q.mean
            terms = (0.5 * alpha * float(diff @ np.linalg.solve(s_star, diff))
                     + (abs(np.linalg.slogdet(s_star)[1])
                        + (alpha - 1.0) * abs(np.linalg.slogdet(p.cov)[1])
                        + alpha * abs(np.linalg.slogdet(q.cov)[1])) / (2.0 * (alpha - 1.0)))
            assert abs(got - expect) <= (1e-12 + 1e-14 * cond) * terms

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(gaussian_pairs_at_gap(1e-1))
    def test_kl_matches_numpy_oracle(self, case):
        p, q, _, _ = case
        for a, b in ((p, q), (q, p)):
            got = divergence._kl_gauss(a, b)
            expect = kl_gauss_numpy(a, b)
            b_inv = np.linalg.inv(b.cov)
            diff = a.mean - b.mean
            terms = 0.5 * (np.trace(b_inv @ a.cov) + diff @ b_inv @ diff + a.dim
                           + abs(np.linalg.slogdet(b.cov)[1])
                           + abs(np.linalg.slogdet(a.cov)[1]))
            assert abs(got - expect) <= (1e-12 + 1e-14 * np.linalg.cond(b.cov)) * terms


@st.composite
def gauss_laplace_pairs(draw):
    """(N(0, s^2), Laplace(-d, b)) with s from 1e-2 to 1e2, |d| <= 8 s and
    b / s from 10^-1.5 to 10^1.5. The Gaussian sits at 0: the quadrature
    oracle loses mass in the tails of a Laplace narrow against its distance
    from 0, and KL is invariant under a shift of both."""
    s = 10.0 ** draw(st.floats(-2.0, 2.0))
    d = s * draw(st.floats(-8.0, 8.0))
    b = s * 10.0 ** draw(st.floats(-1.5, 1.5))
    return make_gaussian(0.0, s * s), make_laplace(-d, b)


# Worst relative error against quadrature at rel_tol 1e-10 over these
# examples: 4.3e-14 forward and 1.2e-12 reverse, where the quadrature is the
# looser of the two
KL_GAUSS_LAPLACE_TOL = {"forward": 1e-13, "reverse": 5e-12}


def kl_gauss_laplace_errors(pair):
    """Relative error of kl_forward against _kl_quadrature in each
    direction, for a (Gaussian, Laplace) pair."""
    p, q = pair
    out = {}
    for name, (a, b) in (("forward", (p, q)), ("reverse", (q, p))):
        got = kl_forward(a, b)
        assert got.method == divergence.CLOSED_FORM and got.panels == 0
        expect = divergence._kl_quadrature(a, b, 1e-10)
        assert expect.converged
        out[name] = abs(got.value - expect.value) / expect.value
    return out


class TestKLGaussLaplaceClosedForm:
    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(gauss_laplace_pairs())
    @example((make_gaussian(0.0, 1.0), make_laplace(0.0, 1.0)))
    @example((make_gaussian(0.0, 0.01), make_laplace(0.0, 10.0 ** -2.5)))
    @example((make_gaussian(0.0, 1e4), make_laplace(0.0, 10.0 ** 3.5)))
    def test_matches_quadrature(self, pair):
        errors = kl_gauss_laplace_errors(pair)
        assert all(errors[k] <= KL_GAUSS_LAPLACE_TOL[k] for k in errors), errors

    def test_wrong_folded_normal_constant_fails(self, monkeypatch):
        # a mutant: sqrt(2/pi) in E|X - k| off by 1e-11 relative
        pair = (make_gaussian(0.0, 1.0), make_laplace(0.0, 1.0))
        monkeypatch.setattr(divergence, "_SQRT_2_OVER_PI",
                            divergence._SQRT_2_OVER_PI * (1.0 + 1e-11))
        assert kl_gauss_laplace_errors(pair)["forward"] > KL_GAUSS_LAPLACE_TOL["forward"]


# (objective, target kind, family) for each closed-form row and side of it
# that a batch of members takes: _renyi_gauss in 1-D and 2-D, _kl_gauss
# with members as q and as p in 1-D and 2-D, then _kl_gauss_laplace with
# Laplace members as q and Gaussian members as p, and _kl_laplace_gauss
# with Gaussian members as q and Laplace members as p.
BATCH_CASES = [
    ("renyi-alpha", "gaussian", "gaussian"),
    ("renyi-alpha", "gaussian", "isotropic-gaussian-2d"),
    ("kl-forward", "gaussian", "gaussian"),
    ("kl-reverse", "gaussian", "gaussian"),
    ("kl-forward", "gaussian", "isotropic-gaussian-2d"),
    ("kl-reverse", "gaussian", "isotropic-gaussian-2d"),
    ("kl-forward", "gaussian", "laplace"),
    ("kl-reverse", "laplace", "gaussian"),
    ("kl-forward", "laplace", "gaussian"),
    ("kl-reverse", "gaussian", "laplace"),
]
BATCH_SIZE = 16


@st.composite
def batch_cases(draw, objective, target_kind, family_name):
    """(target, family, alpha, params): a target and the parameters of
    BATCH_SIZE members of the family. A Gaussian target has covariance
    eigenvalues 1e-3 to 10 in any orientation. Each member lies within 4
    target sds of its mean and is spread (sd 0.1 to 10 target sds), narrow
    (1e-7 to 1e-2 sds: under Renyi, S* is not positive definite and the
    value is inf) or near singular (sd^2 within a relative 1e-12 to 1e-3 of
    (alpha - 1) / alpha times the largest eigenvalue, on either side: S*
    is that close to singular; under a KL, of the eigenvalue itself)."""
    family = FAMILY_BUILDERS[family_name]()
    alpha = draw(st.floats(1.001, 20.0)) if objective == "renyi-alpha" else None
    if target_kind == "laplace":
        target = make_laplace(draw(st.floats(-3.0, 3.0)), 10.0 ** draw(st.floats(-2.0, 1.0)))
    else:
        d = family.dim
        cov = _symmetric(_rotation(draw, d), [10.0 ** draw(st.floats(-3.0, 1.0)) for _ in range(d)])
        target = make_gaussian([draw(st.floats(-3.0, 3.0)) for _ in range(d)], cov)
    top = float(np.linalg.eigvalsh(np.atleast_2d(target.cov))[-1])
    centre, sd = np.atleast_1d(target.mean), math.sqrt(top)
    rows = []
    for _ in range(BATCH_SIZE):
        loc = [c + sd * draw(st.floats(-4.0, 4.0)) for c in centre]
        how = draw(st.sampled_from(["spread", "narrow", "singular"]))
        if how == "spread":
            scale = sd * 10.0 ** draw(st.floats(-1.0, 1.0))
        elif how == "narrow":
            scale = sd * 10.0 ** draw(st.floats(-7.0, -2.0))
        else:
            gap = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-12.0, -3.0))
            scale = math.sqrt((1.0 - 1.0 / (alpha or math.inf)) * top * (1.0 + gap))
        rows.append(loc + [scale])
    return target, family, alpha, np.array(rows)


def assert_batch_is_scalar_row(objective, target, family, alpha, params):
    """The batch of members with ``params`` scored in one call, against
    each member scored alone, as its Density and as Members of one, bit for
    bit."""
    swap, alpha = _divergence(objective, alpha)
    pair = (lambda q: (q, target)) if swap else (lambda q: (target, q))
    got = divergence.closed_batch(*pair(family.unpack_members(params)), alpha)
    for unpack in (family.unpack, family.unpack_members):
        want = np.array([(kl_forward(*pair(unpack(p))) if alpha is None
                          else renyi(*pair(unpack(p)), alpha)).value for p in params],
                        dtype=float)
        differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert not differ.size, (params[differ].tolist(), got[differ], want[differ])


# Members at which numpy's function in place of the one the row uses for a
# float or a Density uses changes the value's bits, found by search; random
# members meet such a point about once in 1e4 to 1e5.
ROW_FUNCTION_CASES = {
    "pivot's math.log": ("renyi-alpha", make_gaussian(0.0, 1.0), "gaussian",
                         [0.5, 1.304435155525269]),
    "Python's ** 2 of the sd": ("renyi-alpha", make_gaussian(0.0, 1.0), "gaussian",
                                [0.5, 1.362992210878112]),
    "Python's ** 2": ("kl-reverse", make_laplace(0.0, 1.0), "gaussian",
                      [0.7633927329123011, 1.0]),
    "math.exp": ("kl-reverse", make_laplace(0.0, 1.0), "gaussian", [1.1869441761202628, 1.0]),
    "math.log of 2b": ("kl-forward", make_gaussian(0.0, 1.0), "laplace",
                       [0.25, 1.3683858639965105]),
    "numpy's log in log_det": ("kl-forward", make_gaussian(0.0, 1.0), "gaussian",
                               [0.25, 1.0832103187274]),
    "numpy's log in entropy": ("kl-reverse", make_gaussian(0.0, 1.0), "laplace",
                               [0.25, 0.8015217357033679]),
}


class TestBatchForms:
    """Each row on a batch against the same row member by member, bit for
    bit: the values fit takes from a batch must be the ones it would score."""

    @pytest.mark.parametrize("objective,target_kind,family", BATCH_CASES)
    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(data=st.data())
    def test_equals_scalar_row_bit_for_bit(self, objective, target_kind, family, data):
        target, fam, alpha, params = data.draw(batch_cases(objective, target_kind, family))
        assert_batch_is_scalar_row(objective, target, fam, alpha, params)

    @pytest.mark.parametrize("case", ROW_FUNCTION_CASES.values(), ids=ROW_FUNCTION_CASES)
    def test_rows_own_functions(self, case):
        objective, target, family, member = case
        assert_batch_is_scalar_row(objective, target, FAMILY_BUILDERS[family](), 2.0,
                                   np.array([member]))

    def test_pairs_without_a_batch_form(self):
        members = FAMILY_BUILDERS["laplace"]().unpack_members(np.array([[0.0, 1.0]]))
        assert divergence.closed_batch(make_gaussian(0.0, 1.0), members, 2.0) is None
        assert divergence.closed_batch(make_logistic(0.0, 1.0), members) is None
        with pytest.raises(ValueError, match="dimension"):
            divergence.closed_batch(make_gaussian([0.0, 0.0], np.eye(2)), members)


# N(0, 1) against N(1e200, 1): d' S*^{-1} d, and the KL's mean term, are
# finite but overflow float64.
FAR = make_gaussian(1e200, 1.0)


class TestClosedFormOverflow:
    """A closed form that float64 cannot hold is refused by name, never
    reported as infinite; over a batch, its member is NaN."""

    @pytest.mark.parametrize("score", [lambda p, q: renyi_gauss_closed(p, q, 2.0),
                                       kl_forward, lambda p, q: kl_forward(q, p)],
                             ids=["renyi", "kl-forward", "kl-reversed"])
    def test_scalar_raises(self, score):
        with pytest.raises(ValueError, match="overflows"):
            score(make_gaussian(0.0, 1.0), FAR)

    @pytest.mark.parametrize("objective,alpha", [("renyi-alpha", 2.0), ("kl-forward", None),
                                                 ("kl-reverse", None)])
    def test_batch_member_is_nan(self, objective, alpha):
        # the second member overflows; under Renyi the third's S* is not
        # positive definite, and its value is inf
        target, family = make_gaussian(0.0, 1.0), FAMILY_BUILDERS["gaussian"]()
        params = np.array([[0.5, 1.0], [1e200, 1.0], [0.0, 1e-3]])
        swap, alpha = _divergence(objective, alpha)
        members = family.unpack_members(params)
        got = divergence.closed_batch(*((members, target) if swap else (target, members)), alpha)
        assert math.isnan(got[1])
        assert (got[2] == math.inf) == (alpha is not None)
        assert_batch_is_scalar_row(objective, target, family, alpha, params[[0, 2]])

    def test_gauss_laplace_kernel_that_underflows_is_zero(self):
        # (d / s) ** 2 overflows Python's float, but the folded normal's
        # kernel is then 0, and the KL, about |d| / b, is finite
        est = kl_forward(make_gaussian(0.0, 1.0), make_laplace(1e200, 1.0))
        assert (est.value, est.reason) == (1e200, None)


class TestRenyiDispatcher:
    def test_gaussian_pair_is_closed_form(self):
        est = renyi(make_gaussian(0.0, 1.0), make_gaussian(1.0, 1.0), 2.0)
        assert est.method == "closed-form"
        assert est.value == 1.0

    def test_gaussian_pair_in_three_dimensions(self):
        p = make_gaussian(np.zeros(3), np.eye(3))
        q = make_gaussian([1.0, 0.0, 0.0], np.diag([2.0, 1.0, 1.0]))
        assert renyi(p, q, 2.0).value == renyi_gauss_closed(p, q, 2.0).value

    def test_other_pairs_use_quadrature(self):
        p, q = make_gaussian(0.0, 1.0), make_laplace(0.0, 1.0)
        est = renyi(p, q, 2.0, rel_tol=1e-7)
        assert est.method == "quadrature"
        assert est.value == renyi_quadrature(p, q, 2.0, rel_tol=1e-7).value

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            renyi(make_gaussian(0.0, 1.0), make_gaussian([0.0, 0.0], np.eye(2)), 2.0)

    @pytest.mark.parametrize("q", [make_gaussian(1.0, 2.0), make_laplace(1.0, 1.0)])
    def test_infinite_alpha_is_rejected_by_name(self, q):
        with pytest.raises(ValueError, match="alpha must be finite"):
            renyi(make_gaussian(0.0, 1.0), q, math.inf)

    @pytest.mark.parametrize("q", [make_gaussian(1.0, 2.0), make_laplace(1.0, 1.0)])
    def test_alpha_that_overflows_to_nan_raises(self, q):
        # alpha (1 - alpha) terms overflow: the closed form's to inf / inf,
        # the quadrature's log-integrand to inf - inf
        with pytest.raises(ValueError, match="overflows at alpha = 1e\\+308"):
            renyi(make_gaussian(0.0, 1.0), q, 1e308)


class TestKL:
    def test_identity_zero(self):
        p = make_gaussian(0.4, 0.9)
        assert kl_forward(p, p).value == 0.0
        assert kl_reverse(p, p).value == 0.0

    def test_unit_variance_mean_shift(self):
        assert abs(kl_forward(make_gaussian(0, 1), make_gaussian(1, 1)).value - 0.5) <= 1e-12

    def test_scale_example(self):
        # KL(N(0,1) || N(0,4)) = ln 2 + 1/8 - 1/2
        expect = math.log(2.0) + 0.125 - 0.5
        assert abs(kl_forward(make_gaussian(0, 1), make_gaussian(0, 4)).value - expect) <= 1e-12

    def test_closed_form_matches_quadrature(self):
        p, q = make_gaussian(0.3, 1.2), make_laplace(0.0, 1.0)
        quad = kl_forward(p, q).value
        # same value through the generic path with a Gaussian pair
        p2, q2 = make_gaussian(0.3, 1.2), make_gaussian(-0.2, 2.0)
        closed = kl_forward(p2, q2).value
        f = lambda x: np.exp(p2.log_pdf(x)) * (p2.log_pdf(x) - q2.log_pdf(x))
        ref = integrate(f, QuadratureSpec(-np.inf, np.inf, rel_tol=1e-10,
                                          breakpoints=tuple(bulk_points(p2)))).value
        assert abs(closed - ref) <= 1e-8
        assert np.isfinite(quad)

    def test_reverse_direction(self):
        p, q = make_gaussian(0, 1), make_gaussian(1, 1)
        assert abs(kl_reverse(p, q).value - 0.5) <= 1e-12

    def test_dominance_failure_infinite(self):
        assert kl_forward(make_gaussian(0, 1), make_uniform(-1, 1)).value == np.inf

    def test_anchors_ride_with_the_first_pass(self):
        # p's log-density on the 1-D anchors is evaluated in one call with
        # the first nodes: 2 calls of it, the first pass and one wave of
        # splits (37 panels), with the bits of an anchor call of its own
        p, q = make_gamma(30.0, 15.0), make_gamma(28.0, 14.5)
        calls = []

        def log_pdf(x):
            calls.append(len(x))
            return p.log_pdf(x)

        est = kl_forward(dataclasses.replace(p, log_pdf=log_pdf), q)
        assert len(calls) == 2
        assert (est.value.hex(), est.error.hex(), est.panels, est.converged) == (
            "0x1.310f4e9747328p-6", "0x1.52d5f6b2e30d0p-46", 37, True)

    def test_p_vanishing_on_every_anchor_raises(self):
        p = dataclasses.replace(make_gaussian(0.0, 1.0), kind="custom",
                                log_pdf=lambda x: np.full(x.shape, -np.inf))
        with pytest.raises(ValueError, match="vanishes on every anchor"):
            kl_forward(p, make_laplace(0.0, 1.0))

    def test_p_nan_at_one_anchor_is_not_a_void_pass(self):
        # the KL pass takes no shift, so a NaN at an anchor (0, an edge and
        # never a node) leaves its value as it was
        g = make_gaussian(0.0, 1.0)
        p = dataclasses.replace(g, kind="custom",
                                log_pdf=lambda x: np.where(x == 0.0, np.nan, g.log_pdf(x)))
        est = kl_forward(p, make_logistic(0.0, 1.0))
        assert (est.value, est.converged, est.reason) == (0.19317983349020626, True, None)

    @pytest.mark.parametrize("lq", [math.nan, -1.7e308], ids=["nan", "huge"])
    def test_sum_that_is_not_finite_raises(self, lq):
        # a NaN integrand, or one whose panel sums overflow (of which numpy
        # warns, as it does of inf - inf in the error estimate)
        q = dataclasses.replace(make_gaussian(0.0, 1.0), kind="custom",
                                log_pdf=lambda x: np.full(x.shape, lq))
        with pytest.raises(ArithmeticError, match="not finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            kl_forward(make_gaussian(0.0, 1.0), q)

    def test_kl_lower_bounds_renyi_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(34):
            for a in (1.5, 2.0, 3.0):
                p, q = random_valid_gaussian_pair(rng, a)
                kl = kl_forward(p, q).value
                ren = renyi_gauss_closed(p, q, a).value
                assert kl <= ren + 1e-6


class TestMCUpperBound:
    def _model_and_joint(self, n=10, seed=42):
        m = gaussian_mean_model(0.0, 1.0)
        data = m.simulate(0.5, n, seed)

        def log_joint(th):
            return m.prior.log_pdf(th) + m.loglik(data, th)

        return m, data, log_joint

    def test_exact_posterior_zero_variance(self):
        m, data, log_joint = self._model_and_joint()
        post = m.exact_posterior(data)
        est = mc_renyi_upper_bound(post, log_joint, 2.0, 1000, seed=7)
        assert abs(est.value - m.log_evidence(data)) <= 1e-10
        assert est.stderr <= 1e-12

    def test_perturbed_q_matches_population_value(self):
        m, data, log_joint = self._model_and_joint()
        post = m.exact_posterior(data)
        q = make_gaussian(float(m.mle(data)[0]), 2.0 / len(data))
        est = mc_renyi_upper_bound(q, log_joint, 2.0, 10**5, seed=3)
        pop = m.log_evidence(data) + 0.5 * renyi_gauss_closed(post, q, 2.0).value
        assert abs(est.value - pop) <= 3.0 * est.stderr

    def test_jensen_direction(self):
        m, data, log_joint = self._model_and_joint()
        for seed in range(5):
            q = make_gaussian(0.3, 0.5)
            est = mc_renyi_upper_bound(q, log_joint, 2.0, 10**4, seed=seed)
            assert est.value >= m.log_evidence(data) - 3.0 * est.stderr

    def test_disjoint_support_rejected(self):
        q = make_uniform(100.0, 101.0)
        _, _, log_joint = self._model_and_joint()
        joint_with_gap = lambda th: np.where(th < 50.0, log_joint(th), -np.inf)
        with pytest.raises(ValueError, match="weights"):
            mc_renyi_upper_bound(q, joint_with_gap, 2.0, 100, seed=0)

    def test_deterministic_given_seed(self):
        m, data, log_joint = self._model_and_joint()
        q = make_gaussian(0.4, 0.3)
        a = mc_renyi_upper_bound(q, log_joint, 2.0, 500, seed=5)
        b = mc_renyi_upper_bound(q, log_joint, 2.0, 500, seed=5)
        assert a.value == b.value and a.stderr == b.stderr


class TestHolderLowerBound:
    def test_identity_full_support(self):
        p = make_gaussian(0.0, 1.0)
        val = holder_lower_bound(p, p, 2.0, (-np.inf, np.inf))
        assert abs(val - 1.0) <= 1e-8
        # int q (p/q)^alpha = 1 >= 1 at p = q

    def test_tail_interval_example(self):
        p, q = make_gaussian(0.0, 1.0), make_gaussian(0.0, 4.0)
        val = holder_lower_bound(p, q, 2.0, (2.0, np.inf))
        expect = normal_tail(2.0) ** 2 / normal_tail(1.0)
        assert abs(val - expect) <= 1e-8
        integral = math.exp(renyi_quadrature(p, q, 2.0).value)  # alpha - 1 = 1
        assert integral >= val

    def test_shrinking_interval_vanishes(self):
        p, q = make_gaussian(0.0, 1.0), make_gaussian(0.5, 2.0)
        vals = [holder_lower_bound(p, q, 2.0, (0.0, eps)) for eps in (0.1, 0.01, 0.001)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] <= 1e-3

    def test_zero_q_mass_is_infinite(self):
        p, q = make_gaussian(0.0, 1.0), make_uniform(-1.0, 1.0)
        assert holder_lower_bound(p, q, 2.0, (2.0, 3.0)) == np.inf

    def test_random_instances_hold(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = float(rng.uniform(1.2, 4.0))
            p, q = random_valid_gaussian_pair(rng, a)
            lo = float(rng.uniform(-3.0, 0.0))
            hi = lo + float(rng.uniform(0.2, 4.0))
            bound = holder_lower_bound(p, q, a, (lo, hi))
            d = renyi_quadrature(p, q, a).value
            integral = math.exp((a - 1.0) * d) if np.isfinite(d) else np.inf
            assert integral - bound >= -1e-9


# q dominates p by its support, but vanishes on (1, 2), where p's bulk points
# 1.125, 1.5 and 1.875 lie: the Renyi log-integrand is +inf on those anchors
GAPPED_PAIR = (make_uniform(0.0, 3.0),
               make_mixture([0.5, 0.5], [make_uniform(0.0, 1.0), make_uniform(2.0, 3.0)]))


class TestMixtureDivergence:
    @pytest.mark.parametrize("score", [lambda p, q: renyi(p, q, 2.0), kl_forward],
                             ids=["renyi", "kl-forward"])
    def test_q_vanishing_at_an_anchor_is_dominance(self, score):
        # no node is needed, and no NaN is formed (the suite turns numpy's
        # RuntimeWarning into an error)
        est = score(*GAPPED_PAIR)
        assert (est.value, est.reason, est.panels) == (math.inf, divergence.DOMINANCE, 0)

    def test_posterior_vs_two_spikes_exceeds_weight_bound(self):
        from renyi_vi.distributions import make_spike

        post = make_gaussian(0.5, 1e-6)  # narrow posterior, sd 1e-3
        q = make_mixture(
            [0.5, 0.5], [make_spike(0.5, 1e-3), make_spike(1.5, 1e-3)]
        )
        d = renyi_quadrature(post, q, 2.0).value
        # matched widths: D ~ log(1/w); the mixture bound is 2 (1-w)^2 = 0.5
        assert d >= 0.5 - 0.05
        assert abs(d - math.log(2.0)) <= 0.05
