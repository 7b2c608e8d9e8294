"""Quadrature and log-sum-exp."""

import itertools
import math
import sys

import numpy as np
import pytest
from scipy.special import erfc

from renyi_vi import numerics
from renyi_vi.numerics import (
    QuadratureSpec,
    integrate,
    integrate_2d,
    log_sum_exp,
)
from renyi_vi.numerics import _NODES, _RULES, _box_sums, _initial_edges, _make_map


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

    def test_unconverged_status_carries_estimate(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_REFINEMENTS", 3)
        f = lambda x: np.cos(200.0 * x) ** 2
        res = integrate(f, QuadratureSpec(0.0, 10.0, rel_tol=1e-10))
        assert not res.converged
        assert np.isfinite(res.value)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_nan_pass_stops_unconverged(self, dim):
        # no box can be told worse than another, so the refinement stops
        # with the NaN sum
        def f(x):
            return np.where(np.atleast_2d(x.T)[0] > 0.3, np.nan, 1.0)

        specs = [QuadratureSpec(-np.inf, np.inf)] * dim
        res = (integrate if dim == 1 else integrate_2d)(f, *specs)
        assert math.isnan(res.value) and not res.converged

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
            # finite ends whose distance overflows: no panel edge survives
            {"lower": -1e308, "upper": 1e308},
            # a finite width, but a midpoint 0.5 * (a + b) that overflows
            {"lower": 1e308, "upper": 1.7e308},
            {"lower": 9e307, "upper": 1.7e308},
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)

    def test_widest_finite_interval_has_finite_midpoints(self):
        # ends at float64's largest value / 2: every sub-box midpoint stays
        # finite, and a constant integrates to the interval's width
        half = 0.5 * sys.float_info.max
        res = integrate(lambda x: np.full(x.shape, 0.25), QuadratureSpec(-half, half))
        assert res.converged and abs(res.value - 0.5 * half) <= 1e-12 * half


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
        _, inv, a, b = _make_map(lo, hi)
        for _ in range(40):
            pts = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), size=rng.integers(1, 40))
            pts = np.concatenate([pts, pts[:3], [0.0, 2.0, -3.0, 5.0, 1e300]])
            spec = QuadratureSpec(lo, hi, breakpoints=tuple(pts))
            assert (_initial_edges(spec, inv, a, b).tolist()
                    == initial_edges_loop(spec, inv, a, b).tolist())
        spec = QuadratureSpec(lo, hi)
        assert _initial_edges(spec, inv, a, b).tolist() == [a, 0.5 * (a + b), b]


def rational(pts):
    """A smooth integrand of +, * and / only, so its value at a node does not
    depend on how the nodes are batched."""
    pts = pts.reshape(len(pts), -1)
    r2 = (pts * pts).sum(axis=1) + 0.3 * pts[:, 0] * pts[:, -1]
    return 1.0 / ((1.0 + r2) * (1.0 + r2))


def box_sums_loop(f, maps, lo, hi):
    """_box_sums node by node: every tensor node mapped on its own, f called
    on it alone, and the Jacobians multiplied in axis order."""
    m, d = lo.shape
    vals = np.empty((m, 15 ** d))
    for b in range(m):
        for k, idx in enumerate(itertools.product(range(15), repeat=d)):
            t = [0.5 * (hi[b, j] + lo[b, j]) + 0.5 * (hi[b, j] - lo[b, j]) * _NODES[i]
                 for j, i in enumerate(idx)]
            xw = [fwd(np.float64(tj)) for (fwd, *_), tj in zip(maps, t)]
            x = [float(xj) for xj, _ in xw]
            v = float(f(np.array([x]) if d > 1 else np.array(x))[0])
            for _, wj in xw:
                v = v * float(wj)
            vals[b, k] = v
    w_kronrod, gauss, w_gauss = _RULES[d]
    volume = np.prod(0.5 * (hi - lo), axis=1)
    k15 = (vals * w_kronrod).sum(axis=1) * volume
    diff = np.abs(k15 - (vals[:, gauss] * w_gauss).sum(axis=1) * volume)
    return k15, np.minimum(diff, np.power(200.0 * diff, 1.5))


class TestBoxSums:
    @pytest.mark.parametrize("bounds", [
        [(-np.inf, np.inf)], [(0.0, np.inf)], [(-2.0, 3.0)],
        [(-np.inf, np.inf), (-np.inf, np.inf)], [(0.0, np.inf), (-2.0, 3.0)],
        [(-2.0, 3.0), (-np.inf, 1.0)],
    ], ids=["line", "half-line", "interval", "plane", "half-strip", "box-half"])
    def test_matches_node_loop(self, bounds):
        maps = [_make_map(*b) for b in bounds]
        rng = np.random.default_rng(len(bounds))
        ends = np.array([[a, b] for _, _, a, b in maps])
        # three boxes in t, each axis's corners inside that axis's range
        u = np.sort(rng.uniform(size=(3, len(maps), 2)))
        corners = ends[:, :1] + (ends[:, 1:] - ends[:, :1]) * u
        lo, hi = corners[..., 0], corners[..., 1]
        got = _box_sums(rational, maps, lo, hi)
        expect = box_sums_loop(rational, maps, lo, hi)
        assert got[0].tolist() == expect[0].tolist()
        assert got[1].tolist() == expect[1].tolist()


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

    def test_boxes_split_along_either_axis(self):
        # narrow in x, heavy-tailed in y: refinement must cut both axes
        s = 0.02
        f = lambda pts: (np.exp(-0.5 * ((pts[:, 0] - 0.3) / s) ** 2) / (s * math.sqrt(2 * math.pi))
                         / (math.pi * (1.0 + pts[:, 1] ** 2)))
        res = integrate_2d(
            f,
            QuadratureSpec(-np.inf, np.inf, rel_tol=1e-8,
                           breakpoints=tuple(0.3 + s * np.arange(-8.0, 9.0))),
            QuadratureSpec(-np.inf, np.inf, rel_tol=1e-8),
        )
        assert res.converged
        assert abs(res.value - 1.0) <= 1e-7


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
