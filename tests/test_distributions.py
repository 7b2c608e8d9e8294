"""Density constructors: log-pdfs, moments, samplers, support logic."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from renyi_vi.distributions import (
    Density,
    bulk_points,
    dominates,
    interval_mass,
    make_gamma,
    make_gaussian,
    make_laplace,
    make_logistic,
    make_mixture,
    make_spike,
    make_uniform,
)
from renyi_vi.numerics import QuadratureSpec, integrate, integrate_2d, log_sum_exp

ALL_1D = {
    "gaussian": make_gaussian(0.3, 1.7),
    "laplace": make_laplace(-0.5, 0.8),
    "logistic": make_logistic(0.1, 1.2),
    "gamma": make_gamma(3.0, 2.0),
    "uniform": make_uniform(-1.0, 3.0),
    "spike": make_spike(0.25, 1e-2),
    "mixture": make_mixture(
        [0.3, 0.7], [make_gaussian(-1.0, 0.5), make_gaussian(2.0, 1.5)]
    ),
}


def assert_logpdf_close(got, expect):
    """Equal to 1e-12 absolute plus 1e-12 relative."""
    assert np.all(np.abs(got - expect) <= 1e-12 * (1.0 + np.abs(expect)))


@st.composite
def gaussian_2d_and_points(draw):
    """(mean, cov, points): per-axis variances from 1e-6 to 1e2, any
    correlation up to 0.999, and points up to 40 marginal sds from the mean
    along each axis."""
    vx, vy = (10.0 ** draw(st.floats(-6.0, 2.0)) for _ in range(2))
    cxy = draw(st.floats(-0.999, 0.999)) * math.sqrt(vx * vy)
    mu = np.array([draw(st.floats(-10.0, 10.0)) for _ in range(2)])
    offsets = draw(st.lists(st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
                            min_size=1, max_size=8))
    pts = mu + np.array(offsets) * np.sqrt([vx, vy])
    return mu, np.array([[vx, cxy], [cxy, vy]]), pts


@st.composite
def matrices_near_definite(draw):
    """A symmetric d x d matrix, d <= 3, whose smallest eigenvalue is 1e-6 to
    10 from zero on either side, sometimes with one entry set to NaN."""
    d = draw(st.integers(1, 3))
    q, _ = np.linalg.qr(np.array(
        [[draw(st.floats(-1.0, 1.0)) for _ in range(d)] for _ in range(d)]))
    lam = [10.0 ** draw(st.floats(-3.0, 1.0)) for _ in range(d)]
    lam[0] = (-1.0 if draw(st.booleans()) else 1.0) * 10.0 ** draw(st.floats(-6.0, 1.0))
    cov = (q * lam) @ q.T
    cov = 0.5 * (cov + cov.T)
    if draw(st.booleans()):
        cov[draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))] = math.nan
    return cov


class TestGaussian:
    def test_standard_logpdf_at_zero(self):
        d = make_gaussian(0.0, 1.0)
        assert abs(d.log_pdf(np.array([0.0]))[0] + 0.5 * math.log(2 * math.pi)) <= 1e-12

    def test_correlated_2d_logpdf_at_zero(self):
        d = make_gaussian([0.0, 0.0], [[1.0, 0.9], [0.9, 1.0]])
        # -log(2 pi) - 0.5 log det, det = 1 - 0.81 = 0.19
        expect = -math.log(2 * math.pi) - 0.5 * math.log(0.19)
        assert abs(d.log_pdf(np.array([[0.0, 0.0]]))[0] - expect) <= 1e-12

    def test_translation_invariance(self):
        cov = np.array([[1.3, 0.4], [0.4, 0.9]])
        d0 = make_gaussian([0.0, 0.0], cov)
        d1 = make_gaussian([2.0, -3.0], cov)
        at_mean = d1.log_pdf(np.array([[2.0, -3.0]]))[0]
        std_at_zero = d0.log_pdf(np.array([[0.0, 0.0]]))[0]
        assert abs(at_mean - std_at_zero) <= 1e-12

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError):
            make_gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(matrices_near_definite())
    @example(np.zeros((2, 2)))
    @example(np.array([[math.nan]]))
    @example(np.array([[1.0, math.nan], [math.nan, 1.0]]))
    @example(np.array([[1.0, math.nan], [0.5, 1.0]]))  # NaN above: not read
    @example(np.array([[1.0, 5.0], [0.5, 1.0]]))  # only the lower triangle is SPD
    @example(np.array([[1.0, 0.5], [5.0, 1.0]]))  # only the upper triangle is SPD
    def test_accepts_what_lapack_cholesky_accepts(self, cov):
        """A NaN in the lower triangle, which is read, is rejected (LAPACK's
        ``potrf`` passes a NaN pivot through); every finite lower triangle is
        accepted exactly when np.linalg.cholesky accepts it."""
        read = np.tril(cov) + np.tril(cov, -1).T  # the triangle that is read
        if not np.all(np.isfinite(read)):
            with pytest.raises(ValueError):
                make_gaussian(np.zeros(len(cov)), cov)
            return
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            lapack = False
        else:
            lapack = True
        try:
            d = make_gaussian(np.zeros(len(cov)), cov)
        except ValueError:
            assert not lapack
        else:
            assert lapack
            low = np.array([r + (0.0,) * (len(cov) - len(r)) for r in d.chol])
            assert np.abs(low @ low.T - read).max() <= 1e-14 * np.abs(read).max()

    @pytest.mark.parametrize("mean, cov", [
        (math.nan, 1.0), (0.0, math.nan), (math.inf, 1.0), (0.0, math.inf),
        ([0.0, -math.inf], np.eye(2)), ([0.0, 0.0], [[1.0, 0.0], [math.inf, 1.0]]),
        ([0.0, 0.0], [[1.0, 0.0], [0.0, math.inf]]),
    ])
    def test_non_finite_rejected(self, mean, cov):
        with pytest.raises(ValueError, match="finite"):
            make_gaussian(mean, cov)

    @settings(derandomize=True, deadline=None, database=None)
    @given(gaussian_2d_and_points())
    def test_2d_logpdf_matches_scipy(self, case):
        mu, cov, pts = case
        assert_logpdf_close(make_gaussian(mu, cov).log_pdf(pts),
                            multivariate_normal(mu, cov).logpdf(pts))

    def test_3d_logpdf_matches_scipy(self):
        mu = np.array([0.5, -1.0, 2.0])
        cov = np.array([[2.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 0.5]])
        pts = mu + np.random.default_rng(3).normal(scale=6.0, size=(50, 3))
        assert_logpdf_close(make_gaussian(mu, cov).log_pdf(pts),
                            multivariate_normal(mu, cov).logpdf(pts))

    def test_2d_mixture_logpdf_matches_scipy(self):
        comps = [([-1.0, 0.5], [[1.0, 0.8], [0.8, 1.5]]),
                 ([2.0, -0.5], [[0.3, -0.1], [-0.1, 0.2]])]
        w = np.array([0.35, 0.65])
        mix = make_mixture(w, [make_gaussian(m, c) for m, c in comps])
        pts = np.random.default_rng(4).normal(scale=4.0, size=(50, 2))
        expect = logsumexp([np.log(wi) + multivariate_normal(m, c).logpdf(pts)
                            for wi, (m, c) in zip(w, comps)], axis=0)
        assert_logpdf_close(mix.log_pdf(pts), expect)


class TestScalarFamilies:
    def test_laplace_logpdf_and_variance(self):
        d = make_laplace(0.0, 1.0)
        assert abs(d.log_pdf(np.array([0.0]))[0] + math.log(2.0)) <= 1e-12
        assert abs(make_laplace(1.0, 0.7).var - 2 * 0.7**2) <= 1e-12

    def test_logistic_variance_identity(self):
        assert abs(make_logistic(0.0, 1.0).var - math.pi**2 / 3.0) <= 1e-12

    def test_gamma_posterior_parameters(self):
        # shape n+1, rate sum(x) with n=3, sum=6
        d = make_gamma(4.0, 6.0)
        assert abs(float(d.mean[0]) - 4.0 / 6.0) <= 1e-12
        assert abs(d.var - 4.0 / 36.0) <= 1e-12

    @pytest.mark.parametrize(
        "ctor,args",
        [
            (make_laplace, (0.0, -1.0)),
            (make_logistic, (0.0, 0.0)),
            (make_gamma, (-1.0, 1.0)),
            (make_gamma, (1.0, 0.0)),
            (make_spike, (0.0, 0.0)),
            (make_uniform, (1.0, 1.0)),
            (make_laplace, (math.nan, 1.0)),
            (make_laplace, (math.inf, 1.0)),
            (make_laplace, (0.0, math.nan)),
            (make_laplace, (0.0, math.inf)),
            (make_logistic, (math.nan, 1.0)),
            (make_logistic, (-math.inf, 1.0)),
            (make_logistic, (0.0, math.nan)),
            (make_logistic, (0.0, math.inf)),
            (make_gamma, (math.nan, 1.0)),
            (make_gamma, (math.inf, 1.0)),
            (make_gamma, (2.0, math.nan)),
            (make_gamma, (2.0, math.inf)),
            (make_uniform, (math.nan, 1.0)),
            (make_uniform, (-math.inf, 1.0)),
            (make_uniform, (0.0, math.nan)),
            (make_uniform, (0.0, math.inf)),
        ],
    )
    def test_bad_parameters_rejected(self, ctor, args):
        with pytest.raises(ValueError):
            ctor(*args)

    @pytest.mark.parametrize("rate", [1e-160, 1e-200])
    def test_gamma_without_a_finite_variance_is_refused_by_name(self, rate):
        # shape / rate^2 overflows at 1e-160 and divides by an underflowed
        # 0.0 at 1e-200
        with pytest.raises(ValueError, match="variance shape / rate\\^2 must be finite"):
            make_gamma(1.0, rate)

    def test_gamma_with_a_huge_finite_variance_keeps_its_bits(self):
        d = make_gamma(2.0, 1e-150)
        assert d.var == 2.0 / 1e-150**2 and math.isfinite(d.var)


class TestNormalization:
    @pytest.mark.parametrize("name", sorted(ALL_1D))
    def test_pdf_integrates_to_one(self, name):
        d = ALL_1D[name]
        spec = QuadratureSpec(
            d.support[0][0], d.support[0][1], rel_tol=1e-8,
            breakpoints=tuple(bulk_points(d)),
        )
        res = integrate(lambda x: np.exp(d.log_pdf(x)), spec)
        assert abs(res.value - 1.0) <= 2e-6

    def test_2d_pdf_integrates_to_one(self):
        d = make_gaussian([0.5, -0.5], [[1.0, 0.6], [0.6, 2.0]])
        res = integrate_2d(
            lambda pts: np.exp(d.log_pdf(pts)),
            *(QuadratureSpec(-np.inf, np.inf, rel_tol=1e-7,
                             breakpoints=tuple(marginal_bulk_points(d, i))) for i in (0, 1)),
        )
        assert abs(res.value - 1.0) <= 1e-4


class TestSamplers:
    N = 10**5

    @pytest.mark.parametrize("name", sorted(ALL_1D))
    def test_sample_mean_matches_declared(self, name):
        d = ALL_1D[name]
        x = d.sample(self.N, seed=1234)
        tol = 4.0 * d.sd / math.sqrt(self.N)
        assert abs(x.mean() - float(d.mean[0])) <= tol

    @pytest.mark.parametrize("name", sorted(ALL_1D))
    def test_sample_variance_matches_declared(self, name):
        d = ALL_1D[name]
        x = d.sample(self.N, seed=99)
        # fourth-moment-driven error bar, generous factor
        assert abs(x.var() - d.var) <= 8.0 * d.var / math.sqrt(self.N) + 1e-9

    def test_seeded_sampling_reproducible(self):
        d = ALL_1D["mixture"]
        assert np.array_equal(d.sample(100, seed=7), d.sample(100, seed=7))

    def test_2d_sampler(self):
        d = make_gaussian([1.0, -1.0], [[1.0, 0.8], [0.8, 1.0]])
        x = d.sample(self.N, seed=5)
        assert x.shape == (self.N, 2)
        assert np.allclose(x.mean(axis=0), [1.0, -1.0], atol=0.02)
        assert abs(np.cov(x.T)[0, 1] - 0.8) <= 0.02


class TestMixture:
    def test_logpdf_is_logsumexp_of_components(self):
        w = [0.25, 0.75]
        comps = [make_gaussian(-1.0, 0.4), make_laplace(1.5, 0.6)]
        mix = make_mixture(w, comps)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-5, 5, size=40)
        got = mix.log_pdf(pts)
        for i, x in enumerate(pts):
            parts = [math.log(wi) + float(c.log_pdf(np.array([x]))[0])
                     for wi, c in zip(w, comps)]
            assert abs(got[i] - log_sum_exp(parts)) <= 1e-12

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            make_mixture([0.5, 0.6], [make_gaussian(0, 1), make_gaussian(1, 1)])

    def test_weights_strictly_inside_unit_interval(self):
        with pytest.raises(ValueError):
            make_mixture([1.0], [make_gaussian(0, 1)])

    @pytest.mark.parametrize("weights", [[math.nan, 0.5], [math.nan, math.nan],
                                         [math.inf, 0.5], [-math.inf, 0.5]])
    def test_non_finite_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="finite"):
            make_mixture(weights, [make_gaussian(0, 1), make_gaussian(1, 1)])

    def test_moments(self):
        mix = make_mixture([0.5, 0.5], [make_gaussian(-1, 1), make_gaussian(1, 1)])
        assert abs(float(mix.mean[0])) <= 1e-12
        assert abs(mix.var - 2.0) <= 1e-12

    @pytest.mark.parametrize("comps, pts", [
        ([make_gamma(2.0, 1.0), make_gamma(5.0, 3.0)], [-1.0, 0.0, 0.5, 2.0]),
        ([make_uniform(0.0, 1.0), make_uniform(2.0, 3.0)], [0.5, 1.125, 1.5, 2.5, 4.0]),
    ], ids=["gamma-below-zero", "uniform-gap"])
    def test_logpdf_where_every_component_vanishes(self, comps, pts):
        # -inf there, with no "invalid value" warning from -inf - -inf (the
        # suite turns RuntimeWarning into an error), and elsewhere the
        # log-sum-exp of the components
        got = make_mixture([0.25, 0.75], comps).log_pdf(np.array(pts))
        for x, g in zip(pts, got.tolist()):
            parts = [math.log(w) + float(c.log_pdf(np.array([x]))[0])
                     for w, c in zip([0.25, 0.75], comps)]
            if max(parts) == -math.inf:
                assert g == -math.inf
            else:
                assert abs(g - log_sum_exp(parts)) <= 1e-12

    def test_logpdf_keeps_a_component_nan(self):
        nan = dataclasses.replace(make_gaussian(0, 1), log_pdf=lambda x: np.full(x.shape, np.nan))
        got = make_mixture([0.5, 0.5], [nan, make_uniform(0.0, 1.0)]).log_pdf(np.array([0.5, 2.0]))
        assert np.isnan(got).all()


class TestSpike:
    def test_mean_is_center(self):
        d = make_spike(0.7, 1e-3)
        assert float(d.mean[0]) == 0.7
        assert abs(d.sd - 1e-3) <= 1e-18

    def test_mass_concentrates(self):
        d = make_spike(0.0, 1e-3)
        assert interval_mass(d, -0.01, 0.01) >= 1.0 - 1e-12


class TestDominates:
    def test_gamma_inside_gaussian(self):
        assert dominates(make_gamma(2.0, 1.0), make_gaussian(0.0, 1.0))

    def test_gaussian_not_inside_gamma(self):
        assert not dominates(make_gaussian(0.0, 1.0), make_gamma(2.0, 1.0))

    def test_reflexive(self):
        d = make_logistic(0.0, 1.0)
        assert dominates(d, d)

    def test_uniform_inside_gamma(self):
        assert dominates(make_uniform(1.0, 2.0), make_gamma(2.0, 1.0))
        assert not dominates(make_uniform(-1.0, 2.0), make_gamma(2.0, 1.0))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dominates(make_gaussian(0.0, 1.0), make_gaussian([0.0, 0.0], np.eye(2)))


def marginal_bulk_points(d, coord):
    """The bulk points of a Gaussian's marginal along ``coord``, from its mean
    and sd there."""
    return bulk_points(make_gaussian(d.mean[coord], d.cov[coord, coord]))


def bulk_points_loop(d, coord=0):
    """Reference: the element-by-element form of bulk_points."""
    lo, hi = d.support[coord]
    pts = []
    if d.kind == "mixture":
        for c in d.params["components"]:
            pts.extend(bulk_points_loop(c, coord).tolist())
    elif d.kind == "uniform":
        pts.extend(np.linspace(lo, hi, 9).tolist())
    elif d.mean is not None and d.cov is not None:
        c = float(np.atleast_1d(d.mean)[coord])
        s = float(np.sqrt(np.atleast_2d(d.cov)[coord, coord]))
        for mult in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0):
            pts.extend([c + mult * s, c - mult * s])
    return np.asarray(sorted({p for p in pts if lo < p < hi and np.isfinite(p)}))


class TestBulkPoints:
    @pytest.mark.parametrize("name", sorted(ALL_1D))
    def test_matches_loop_reference(self, name):
        d = ALL_1D[name]
        got = bulk_points(d)
        assert got.tolist() == bulk_points_loop(d).tolist()
        assert np.all(np.diff(got) > 0)

    @pytest.mark.parametrize("centre", [1e4, -3.0, 0.0])
    @pytest.mark.parametrize("ratio", [1e-12, 2e-14, 1e-14, 5e-15, 1e-15, 1e-16, 1e-17])
    def test_distinct_where_rounding_merges_neighbours(self, centre, ratio):
        # an sd near 1e-14 |centre|, where the points skip their scan for
        # repeats (above) or rounding merges neighbours (below)
        d = make_gaussian(centre, (ratio * max(abs(centre), 1.0)) ** 2)
        got = bulk_points(d)
        assert got.tolist() == bulk_points_loop(d).tolist()
        assert np.all(np.diff(got) > 0)

    def test_computed_once_and_read_only(self):
        for d in (ALL_1D["gaussian"], ALL_1D["mixture"]):
            pts = bulk_points(d)
            assert bulk_points(d) is pts
            assert not pts.flags.writeable

    def test_refuses_other_dimensions(self):
        with pytest.raises(ValueError, match="1-D densities, got dim 2"):
            bulk_points(make_gaussian([0.5, -1.0], [[1.0, 0.3], [0.3, 2.0]]))

    @pytest.mark.parametrize("var", [math.nan, -1.0, -math.inf, math.inf])
    def test_variance_without_an_sd_gives_no_points(self, var):
        # declared moments whose variance has no square root: no points,
        # and no warning or error on the way
        d = Density(dim=1, support=((-np.inf, np.inf),), log_pdf=ALL_1D["gaussian"].log_pdf,
                    mean=np.array([0.5]), cov=np.array([[var]]))
        assert bulk_points(d).size == 0

    def test_matches_loop_reference_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m, s = rng.uniform(-3.0, 3.0), rng.uniform(1e-3, 3.0)
            for d in (make_gamma(rng.uniform(0.5, 20.0), rng.uniform(0.1, 5.0)),
                      make_mixture([0.4, 0.6], [make_uniform(m, m + s),
                                                make_laplace(m + 0.5 * s, s)])):
                assert bulk_points(d).tolist() == bulk_points_loop(d).tolist()
        d2 = make_gaussian([0.5, -1.0], [[1.0, 0.3], [0.3, 2.0]])
        for coord in (0, 1):
            assert marginal_bulk_points(d2, coord).tolist() == bulk_points_loop(d2, coord).tolist()
