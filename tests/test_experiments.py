"""Experiment harness: verdicts, records, report files, reproducibility."""

import json
import math

import numpy as np
import pytest

from renyi_vi import experiments
from renyi_vi.distributions import make_gamma, make_laplace
from renyi_vi.experiments import (
    run_consistency,
    run_ep_consistency,
    run_figure1,
    run_goodseq_audit,
    run_mixture_bound,
    run_ndegen,
    run_rate_violation,
    run_ubfin,
    write_report,
)
from renyi_vi.goodseq import build_good_sequence

GM = {"name": "gaussian-mean", "mu0": 0.0, "sigma": 1.0}
EM = {"name": "exponential"}


class TestConsistency:
    def test_gaussian_laplace_small(self):
        rep = run_consistency(GM, "laplace", 2.0, [100, 1000, 10**4], list(range(10)))
        assert rep.verdict("variance_slope")["passed"]
        assert rep.verdict("mean_within_3sigma")["passed"]
        assert rep.verdict("concentration")["passed"]
        assert rep.records == sorted(rep.records, key=lambda r: (r["n"], r["seed"]))

    def test_gaussian_family_recovers_exact_rate(self):
        rep = run_consistency(GM, "gaussian", 2.0, [100, 1000, 10**4, 10**5],
                              list(range(5)))
        slope = rep.verdict("variance_slope")["measured"]
        assert abs(slope + 1.0) <= 0.05  # q* is the posterior itself

    def test_exponential_gamma_mean_error_decays(self):
        rep = run_consistency(EM, "gamma", 2.0, [100, 1000, 10**4],
                              list(range(40)), budget=200)
        assert rep.verdict("variance_slope")["passed"]
        assert abs(rep.config["mean_error_slope"] + 0.5) <= 0.1

    def test_jobs_pool_matches_sequential(self):
        seq = run_consistency(GM, "laplace", 2.0, [100, 1000], [0, 1, 2], jobs=1)
        par = run_consistency(GM, "laplace", 2.0, [100, 1000], [0, 1, 2], jobs=2)
        assert seq.records == par.records


class TestEpConsistency:
    def test_small_run(self):
        rep = run_ep_consistency(GM, "laplace", [100, 1000, 10**4], list(range(10)))
        assert rep.passed
        assert rep.verdict("kl_le_renyi")["passed"]
        for r in rep.records:
            assert r["kl_forward"] <= r["renyi"] + 1e-6

    def test_gaussian_family_exact_recovery(self):
        rep = run_ep_consistency(GM, "gaussian", [100, 1000, 10**4, 10**5], [0, 1, 2])
        assert max(r["objective"] for r in rep.records) <= 1e-8


class TestUbfin:
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0])
    @pytest.mark.parametrize("factor", [1.0, 2.0])
    def test_bound_on_minimal_divergence(self, alpha, factor):
        thr = alpha ** (1.0 / (alpha - 1.0)) / math.e
        rep = run_ubfin(GM, alpha, factor * thr)
        assert rep.verdict("min_family_le_B")["passed"]
        assert rep.verdict("finite_n_matches_limit")["passed"]
        B = rep.config["bound_B"]
        assert abs(B - 0.5 * math.log(factor)) <= 1e-12

    def test_exact_threshold_good_sequence_exceeds_zero_bound(self):
        # at the threshold B = 0 and the specific member keeps positive
        # divergence: the bound constrains the minimum, not every member
        rep = run_ubfin(GM, 2.0, 2.0 / math.e)
        d_good = rep.records[-1]["d_goodseq"]
        r = 2.0 / math.e
        analytic = 0.5 * math.log(r) + 0.5 * math.log(r / (2 * r - 1))
        assert d_good > rep.config["bound_B"]
        assert abs(d_good - analytic) <= 1e-3
        assert rep.records[-1]["d_min_family"] <= 1e-6

    def test_alpha5_threshold_member_is_infinite(self):
        thr = 5.0 ** 0.25 / math.e
        rep = run_ubfin(GM, 5.0, thr)
        assert all(np.isinf(r["d_goodseq"]) for r in rep.records)
        assert rep.passed  # the family minimum still sits below B

    def test_precondition_violation_rejected(self):
        with pytest.raises(ValueError, match="below"):
            run_ubfin(GM, 2.0, 0.5 * 2.0 / math.e)


class TestNdegen:
    def test_growth_slope_half(self):
        rep = run_ndegen(GM, 2.0, {"kind": "gaussian", "mean": 0.5, "cov": 1.0},
                         [100, 1000, 10**4, 10**5, 10**6], seed=0)
        assert rep.verdict("growth_slope")["passed"]
        assert abs(rep.verdict("growth_slope")["measured"] - 0.5) <= 0.05

    def test_vanishing_q_at_theta0_diverges(self):
        rep = run_ndegen(GM, 2.0, {"kind": "spike", "center": 5.0, "width": 1e-3},
                         [100, 1000, 10**4, 10**5], seed=0)
        assert all(np.isinf(r["d_alpha"]) for r in rep.records)
        assert rep.verdict("divergence_reported")["passed"]

    def test_short_grid_rejected(self):
        with pytest.raises(ValueError, match="n_grid"):
            run_ndegen(GM, 2.0, {"kind": "gaussian", "mean": 0.5, "cov": 1.0},
                       [100, 1000, 1000, 10**4], seed=0)

    def test_exact_posterior_control_is_zero(self):
        # degenerate control: scoring the posterior against itself
        from renyi_vi.config import build_model
        from renyi_vi.divergence import renyi_gauss_closed

        model = build_model(GM)
        data = model.simulate(0.5, 1000, 0)
        post = model.exact_posterior(data)
        assert renyi_gauss_closed(post, post, 2.0).value <= 1e-12


class TestMixtureBound:
    def test_half_weight_bound(self):
        rep = run_mixture_bound(GM, 2.0, 0.5, 1.5, spike_width=1e-3,
                                n_grid=[1000, 10**4, 10**5], seed=0)
        assert rep.verdict("liminf_ge_mixture_bound")["passed"]
        assert rep.config["bound"] == 0.5

    def test_finite_regime_with_wider_spikes(self):
        rep = run_mixture_bound(GM, 2.0, 0.5, 1.5, spike_width=1e-2,
                                n_grid=[10**4, 10**5], seed=0)
        vals = [r["d_alpha"] for r in rep.records]
        assert all(np.isfinite(v) for v in vals)
        assert min(vals) >= 0.4

    def test_high_weight_small_bound(self):
        rep = run_mixture_bound(GM, 2.0, 0.9, 1.5, spike_width=1e-2,
                                n_grid=[10**4, 10**5], seed=0)
        assert rep.config["bound"] == pytest.approx(0.02)
        assert rep.verdict("liminf_ge_mixture_bound")["passed"]

    def test_all_weight_at_truth_limit_is_small(self):
        # the limiting contrast: a single spike at theta0 whose width sits
        # at the posterior scale stays far below the two-spike floor
        from renyi_vi.config import build_model
        from renyi_vi.distributions import make_spike
        from renyi_vi.divergence import renyi_quadrature

        model = build_model(GM)
        n = 10**4
        post = model.exact_posterior(model.simulate(0.5, n, seed=0))
        spike = make_spike(0.5, 2.0 * post.sd)
        d = renyi_quadrature(post, spike, 2.0).value
        assert 0.0 <= d < 0.5

    def test_wide_spike_rejected(self):
        with pytest.raises(ValueError, match="spike_width"):
            run_mixture_bound(GM, 2.0, 0.5, 1.5, spike_width=0.1)


class TestRateViolation:
    def test_onset_at_six(self):
        rep = run_rate_violation(kappa=0.75, alpha=2.0, expected_n0=6)
        assert rep.config["n0"] == 6
        assert rep.passed
        for r in rep.records:
            if r["n"] >= 6:
                assert r["violated"]

    def test_parametric_rate_control(self):
        rep = run_rate_violation(kappa=0.5, alpha=2.0)
        assert rep.config["n0"] is None
        assert rep.verdict("control_no_violation")["passed"]

    def test_alpha_near_one_onset_grows(self):
        rep = run_rate_violation(kappa=0.75, alpha=1.01, n_max=10**5)
        n0 = rep.config["n0"]
        assert n0 is not None and n0 > 1000
        # exact onset: smallest n with alpha (n+1) <= (alpha-1) n^(3/2)
        assert 1.01 * (n0 + 1) <= 0.01 * n0**1.5
        assert 1.01 * n0 > 0.01 * (n0 - 1) ** 1.5

    def test_asymptotic_onset_recorded(self):
        rep = run_rate_violation(kappa=0.75, alpha=2.0)
        assert rep.config["n0_asymptotic"] == 5

    def test_too_fast_kappa_rejected(self):
        with pytest.raises(ValueError, match="kappa"):
            run_rate_violation(kappa=0.4, alpha=2.0)


@pytest.fixture(scope="module")
def figure1_report():
    return run_figure1(rho=0.9, alphas=(2.0, 5.0, 20.0))


class TestFigure1:
    @pytest.fixture
    def report(self, figure1_report):
        return figure1_report

    def test_verdicts(self, report):
        assert report.passed

    def test_expected_scales(self, report):
        s2 = {r["objective"]: r["s_sq"] for r in report.records}
        assert abs(s2["kl-reverse"] - 0.19) <= 0.01
        assert abs(s2["kl-forward"] - 1.0) <= 0.01
        assert s2["renyi-2"] <= s2["renyi-5"] <= s2["renyi-20"] <= 1.95

    def test_grid_rows(self, report):
        assert all(col.shape == (61 * 61,) for col in report.grid.values())
        assert {"x", "y", "target", "kl_forward", "kl_reverse"} <= set(report.grid)


def figure1_exact_s2(rho, objective, alpha):
    """The exact optimum s^2 of an isotropic fit to N(0, [[1, rho], [rho, 1]]).

    Renyi: dD/ds^2 = 0 gives sum_i s^2 / (alpha s^2 + (1 - alpha) lam_i) = 2,
    that is 2 alpha (alpha - 1) t^2 + (1 - alpha)(2 alpha - 1)(lam_1 + lam_2) t
    + 2 (1 - alpha)^2 lam_1 lam_2 = 0 in t = s^2; the optimum is the root with
    alpha t + (1 - alpha) lam_max > 0. Forward KL: tr Sigma / 2. Reverse KL:
    2 / tr Sigma^-1.
    """
    lam1, lam2 = 1.0 - abs(rho), 1.0 + abs(rho)
    if objective == "kl-forward":
        return (lam1 + lam2) / 2.0
    if objective == "kl-reverse":
        return 2.0 / (1.0 / lam1 + 1.0 / lam2)
    roots = np.roots([2.0 * alpha * (alpha - 1.0),
                      (1.0 - alpha) * (2.0 * alpha - 1.0) * (lam1 + lam2),
                      2.0 * (1.0 - alpha) ** 2 * lam1 * lam2])
    (t,) = [t.real for t in roots if alpha * t.real + (1.0 - alpha) * lam2 > 0.0]
    return t


@pytest.mark.parametrize("rho", [-0.7, 0.3, 0.5, 0.9])
def test_figure1_fits_reach_exact_optima(rho):
    rep = run_figure1(rho=rho, alphas=(2.0, 5.0, 20.0), grid_points=2)
    for r in rep.records:
        objective = r["objective"] if r["alpha"] == 1.0 else "renyi"
        exact = figure1_exact_s2(rho, objective, r["alpha"])
        assert abs(r["s_sq"] - exact) <= 1e-7 * exact, (r["objective"], r["s_sq"], exact)


class TestGoodseqAuditExperiment:
    def test_laplace(self):
        rep = run_goodseq_audit(GM, "laplace", alpha=2.0)
        assert rep.passed
        assert max(r["ratio_sup"] for r in rep.records) <= 1.64872

    def test_gamma(self):
        rep = run_goodseq_audit(EM, "gamma", alpha=2.0)
        assert rep.verdict("rate_slope")["passed"]
        assert rep.verdict("rate_cap")["passed"]
        assert rep.verdict("entropy_bounded")["passed"]
        assert rep.verdict("logconcave")["passed"]

    @pytest.mark.parametrize("family, model", [
        ("gaussian-meanfield", GM), ("laplace", GM), ("logistic", GM), ("gamma", EM),
    ])
    def test_default_audit_passes_at_every_seed(self, family, model):
        # the Gamma's scale 2 lambda_hat^2 cancels the draw from its slope
        for seed in range(12):
            assert run_goodseq_audit(model, family, seed=seed).passed, seed

    @pytest.mark.parametrize("family, model", [("laplace", GM), ("gamma", EM)])
    @pytest.mark.parametrize("power", [0.9, 1.1])
    def test_rate_slope_fails_off_the_parametric_rate(self, monkeypatch, family,
                                                      model, power):
        def build(spec, bayes, data):
            # the constructor's member, at its mean, with variance ~ n^-power
            q = build_good_sequence(spec, bayes, data)
            mean = float(np.atleast_1d(q.mean)[0])
            var = q.var * len(data) ** (1.0 - power)
            if spec.family == "gamma":
                return make_gamma(mean**2 / var, mean / var)
            return make_laplace(mean, math.sqrt(var / 2.0))

        monkeypatch.setattr(experiments, "build_good_sequence", build)
        for seed in range(12):
            rep = run_goodseq_audit(model, family, seed=seed)
            assert not rep.verdict("rate_slope")["passed"], seed


class TestReports:
    def test_write_and_reread(self, tmp_path):
        rep = run_rate_violation(kappa=0.75, alpha=2.0, expected_n0=6)
        paths = write_report(rep, tmp_path / "run")
        with open(paths["json"]) as fh:
            payload = json.load(fh)
        assert payload["name"] == "rate-violation"
        assert payload["passed"] is True
        lines = (tmp_path / "run" / "report.csv").read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert lines[1].split(",")[0] == "n"

    def test_byte_identical_reruns(self, tmp_path):
        a = run_consistency(GM, "laplace", 2.0, [100, 1000], [0, 1])
        b = run_consistency(GM, "laplace", 2.0, [100, 1000], [0, 1])
        pa = write_report(a, tmp_path / "a")
        pb = write_report(b, tmp_path / "b")
        assert pa["csv"].read_bytes() == pb["csv"].read_bytes()

    def test_figure1_grid_file(self, tmp_path):
        rep = run_figure1(rho=0.9, alphas=(2.0,), grid_points=21)
        paths = write_report(rep, tmp_path / "fig")
        assert paths["grid"].exists()
        lines = paths["grid"].read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert len(lines) == 2 + 21 * 21

    def test_figure1_grid_file_round_trips(self, tmp_path):
        rep = run_figure1(rho=0.5, alphas=(2.0,), grid_points=5)
        path = write_report(rep, tmp_path / "fig")["grid"]
        lines = path.read_text().splitlines()
        assert lines[1].split(",") == list(rep.grid)
        assert lines[2].split(",")[0] == "%.17g" % rep.grid["x"][0]
        back = np.loadtxt(path, delimiter=",", skiprows=2)
        assert np.array_equal(back, np.column_stack(list(rep.grid.values())))

    def test_grid_file_is_each_value_in_17_digits(self, tmp_path):
        odd = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 0.1, 0.1 + 2.0 ** -56, 0.1])
        grids = [run_figure1(rho=0.5, alphas=(2.0,), grid_points=7).grid,
                 {"a": odd, "b": odd[::-1]}]
        for i, grid in enumerate(grids):
            path = tmp_path / f"grid{i}.csv"
            experiments._write_grid_csv(path, grid)
            expect = "".join(",".join("%.17g" % v for v in row) + "\n"
                             for row in zip(*grid.values()))
            header = f"# schema={experiments.CSV_SCHEMA}\n" + ",".join(grid) + "\n"
            assert path.read_text() == header + expect
