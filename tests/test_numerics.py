"""Quadrature, log-sum-exp, Laplace approximation and Gaussian tail bound."""

import math

import numpy as np
import pytest
from scipy.special import erfc

from renyi_vi.numerics import (
    LaplaceInput,
    QuadratureSpec,
    gaussian_tail_lower,
    integrate,
    integrate_2d,
    laplace_approx,
    log_sum_exp,
)
from renyi_vi.numerics import _initial_edges, _make_map


def std_normal_pdf(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def normal_tail(z):
    """Reference P(Z > z) via erfc."""
    return 0.5 * erfc(z / math.sqrt(2.0))


class TestIntegrate:
    def test_standard_normal_normalizes(self):
        res = integrate(std_normal_pdf, QuadratureSpec(-np.inf, np.inf, rel_tol=1e-10))
        assert res.converged
        assert abs(res.value - 1.0) <= 1e-8

    def test_gaussian_tail_matches_erfc_reference(self):
        res = integrate(std_normal_pdf, QuadratureSpec(2.0, np.inf, rel_tol=1e-10))
        assert abs(res.value - normal_tail(2.0)) <= 1e-6
        assert abs(res.value - 0.02275013194817921) <= 1e-6

    def test_zero_function_is_exactly_zero(self):
        res = integrate(lambda x: np.zeros_like(x), QuadratureSpec(0.0, 1.0))
        assert res.value == 0.0
        assert res.converged

    def test_half_infinite_left(self):
        res = integrate(std_normal_pdf, QuadratureSpec(-np.inf, -1.0, rel_tol=1e-10))
        assert abs(res.value - normal_tail(1.0)) <= 1e-8

    def test_narrow_bump_found_via_breakpoints(self):
        s = 1e-3
        f = lambda x: np.exp(-0.5 * ((x - 0.5) / s) ** 2) / (s * math.sqrt(2 * math.pi))
        spec = QuadratureSpec(
            -np.inf, np.inf, rel_tol=1e-8,
            breakpoints=(0.5 - 10 * s, 0.5 - 3 * s, 0.5, 0.5 + 3 * s, 0.5 + 10 * s),
        )
        res = integrate(f, spec)
        assert abs(res.value - 1.0) <= 1e-7

    def test_unconverged_status_carries_estimate(self):
        f = lambda x: np.cos(200.0 * x) ** 2
        res = integrate(f, QuadratureSpec(0.0, 10.0, rel_tol=1e-10, max_refinements=3))
        assert not res.converged
        assert np.isfinite(res.value)

    def test_deterministic(self):
        spec = QuadratureSpec(-np.inf, np.inf, rel_tol=1e-9)
        a = integrate(std_normal_pdf, spec)
        b = integrate(std_normal_pdf, spec)
        assert a.value == b.value and a.error == b.error

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lower": 1.0, "upper": 0.0},
            {"lower": 0.0, "upper": 1.0, "rel_tol": 0.0},
            {"lower": 0.0, "upper": 1.0, "rel_tol": 0.5},
            {"lower": 0.0, "upper": 1.0, "max_refinements": 0},
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


def initial_edges_loop(spec, inv, a, b):
    """Reference: the element-by-element form of _initial_edges."""
    edges = [a, 0.5 * (a + b), b]
    if spec.breakpoints:
        bps = inv(np.asarray(spec.breakpoints, dtype=float))
        pad = 1e-12 * (b - a)
        edges.extend(float(t) for t in np.atleast_1d(bps) if a + pad < t < b - pad)
    edges = np.array(sorted(set(edges)))
    return edges[np.concatenate([[True], np.diff(edges) > 1e-14 * (b - a)])]


class TestInitialEdges:
    @pytest.mark.parametrize("lo, hi", [(-np.inf, np.inf), (0.0, np.inf),
                                        (-np.inf, 2.0), (-3.0, 5.0)])
    def test_matches_loop_reference(self, lo, hi):
        rng = np.random.default_rng(8)
        _, _, inv, a, b = _make_map(lo, hi)
        for _ in range(40):
            pts = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), size=rng.integers(1, 40))
            pts = np.concatenate([pts, pts[:3], [0.0, 2.0, -3.0, 5.0, 1e300]])
            spec = QuadratureSpec(lo, hi, breakpoints=tuple(pts))
            assert (_initial_edges(spec, inv, a, b).tolist()
                    == initial_edges_loop(spec, inv, a, b).tolist())
        spec = QuadratureSpec(lo, hi)
        assert _initial_edges(spec, inv, a, b).tolist() == [a, 0.5 * (a + b), b]


class TestIntegrate2D:
    def test_standard_normal_2d(self):
        f = lambda pts: np.exp(-0.5 * (pts**2).sum(axis=1)) / (2 * math.pi)
        res = integrate_2d(
            f,
            QuadratureSpec(-np.inf, np.inf, rel_tol=1e-8),
            QuadratureSpec(-np.inf, np.inf, rel_tol=1e-8),
        )
        assert abs(res.value - 1.0) <= 1e-6

    def test_correlated_gaussian_normalizes(self):
        rho = 0.9
        det = 1.0 - rho * rho
        Sinv = np.array([[1.0, -rho], [-rho, 1.0]]) / det

        def f(pts):
            q = np.einsum("ij,jk,ik->i", pts, Sinv, pts)
            return np.exp(-0.5 * q) / (2 * math.pi * math.sqrt(det))

        res = integrate_2d(
            f,
            QuadratureSpec(-np.inf, np.inf, rel_tol=1e-7),
            QuadratureSpec(-np.inf, np.inf, rel_tol=1e-7),
        )
        assert abs(res.value - 1.0) <= 1e-4


class TestLogSumExp:
    def test_basic(self):
        assert abs(log_sum_exp([0.0, 0.0]) - math.log(2.0)) <= 1e-12

    def test_shift_invariance_no_overflow(self):
        assert abs(log_sum_exp([1000.0, 1000.0]) - (1000.0 + math.log(2.0))) <= 1e-9
        assert np.isfinite(log_sum_exp([700.0, -700.0]))

    def test_neg_inf_absorbing(self):
        assert log_sum_exp([-np.inf, 0.0]) == 0.0
        assert log_sum_exp([-np.inf, -np.inf]) == -np.inf

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([])


class TestLaplaceApprox:
    def test_gaussian_case_exact(self):
        inp = LaplaceInput(h=lambda y: 1.0, g=lambda y: 0.5 * y * y, n=100,
                           y_star=0.0, g_second=1.0)
        val = laplace_approx(inp)
        assert abs(val - math.sqrt(2 * math.pi / 100)) <= 1e-15
        # Gaussian case: the approximation is the exact integral
        ref = integrate(lambda y: np.exp(-100 * 0.5 * y * y),
                        QuadratureSpec(-np.inf, np.inf, rel_tol=1e-10))
        assert abs(val / ref.value - 1.0) <= 1e-9

    def test_quartic_within_two_percent_of_quadrature(self):
        g = lambda y: 0.5 * y * y + y**4
        inp = LaplaceInput(h=lambda y: 1.0, g=g, n=200, y_star=0.0, g_second=1.0)
        ref = integrate(lambda y: np.exp(-200 * g(y)),
                        QuadratureSpec(-np.inf, np.inf, rel_tol=1e-10))
        assert abs(laplace_approx(inp) / ref.value - 1.0) <= 0.02

    def test_sqrt_n_scaling(self):
        base = dict(h=lambda y: 1.0, g=lambda y: 0.5 * y * y, y_star=0.0, g_second=1.0)
        v1 = laplace_approx(LaplaceInput(n=100, **base))
        v4 = laplace_approx(LaplaceInput(n=400, **base))
        assert abs(v4 / v1 - 0.5) <= 1e-12

    def test_relative_error_decreases_in_n(self):
        g = lambda y: 0.5 * y * y + y**4
        errs = []
        for n in (50, 100, 200, 400):
            inp = LaplaceInput(h=lambda y: 1.0, g=g, n=n, y_star=0.0, g_second=1.0)
            ref = integrate(lambda y: np.exp(-n * g(y)),
                            QuadratureSpec(-np.inf, np.inf, rel_tol=1e-11))
            errs.append(abs(laplace_approx(inp) / ref.value - 1.0))
        assert all(errs[i + 1] < errs[i] for i in range(3))

    def test_bad_curvature_rejected(self):
        with pytest.raises(ValueError):
            LaplaceInput(h=lambda y: 1.0, g=lambda y: -0.5 * y * y, n=10,
                         y_star=0.0, g_second=-1.0)


class TestGaussianTailLower:
    def test_value_at_two(self):
        # phi(2) * (1/2 - 1/8), below the erfc truth
        val = gaussian_tail_lower(2.0, 1.0)
        assert abs(val - 0.020246612442445523) <= 1e-12
        assert val <= normal_tail(2.0)

    def test_tight_at_five(self):
        val = gaussian_tail_lower(5.0, 1.0)
        true = normal_tail(5.0)
        assert val <= true
        assert abs(val - true) / true <= 0.04

    def test_asymptotically_exact(self):
        z = 25.0
        val = gaussian_tail_lower(z, 1.0)
        assert abs(val / normal_tail(z) - 1.0) <= 1e-3

    def test_below_reference_on_grid(self):
        for z in np.linspace(1.1, 8.0, 50):
            assert gaussian_tail_lower(z, 1.0) <= normal_tail(z)

    def test_scale_parameter(self):
        # P(X > m) for X ~ N(0, s^2) equals the standard tail at m/s
        assert abs(gaussian_tail_lower(4.0, 2.0) - gaussian_tail_lower(2.0, 1.0)) <= 1e-15

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gaussian_tail_lower(1.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_tail_lower(-1.0, 1.0)
