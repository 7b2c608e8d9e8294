"""Experiment harness: verdicts, records, report files, reproducibility."""

import hashlib
import json
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renyi_vi import divergence, experiments
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
from renyi_vi.goodseq import _member

GM = {"name": "gaussian-mean", "mu0": 0.0, "sigma": 1.0}
EM = {"name": "exponential"}


class TestConsistency:
    def test_gaussian_laplace_small(self):
        rep = run_consistency(GM, "laplace", 2.0, [100, 1000, 10**4], n_seeds=10)
        assert rep.verdict("variance_slope")["passed"]
        assert rep.verdict("mean_within_3sigma")["passed"]
        assert rep.verdict("concentration")["passed"]
        assert rep.records == sorted(rep.records, key=lambda r: (r["n"], r["seed"]))

    def test_gaussian_family_recovers_exact_rate(self):
        rep = run_consistency(GM, "gaussian", 2.0, [100, 1000, 10**4, 10**5],
                              n_seeds=5)
        slope = rep.verdict("variance_slope")["measured"]
        assert abs(slope + 1.0) <= 0.05  # q* is the posterior itself

    def test_exponential_gamma_mean_error_decays(self):
        rep = run_consistency(EM, "gamma", 2.0, [100, 1000, 10**4],
                              n_seeds=40, budget=200)
        assert rep.verdict("variance_slope")["passed"]
        assert abs(rep.config["mean_error_slope"] + 0.5) <= 0.1

    def test_jobs_pool_matches_sequential(self):
        seq = run_consistency(GM, "laplace", 2.0, [100, 1000], n_seeds=3, jobs=1)
        par = run_consistency(GM, "laplace", 2.0, [100, 1000], n_seeds=3, jobs=2)
        assert seq.records == par.records


class TestEpConsistency:
    def test_small_run(self):
        rep = run_ep_consistency(GM, "laplace", [100, 1000, 10**4], n_seeds=10)
        assert rep.passed
        assert rep.verdict("kl_le_renyi")["passed"]
        for r in rep.records:
            assert r["kl_forward"] <= r["renyi"] + 1e-6

    def test_gaussian_family_exact_recovery(self):
        rep = run_ep_consistency(GM, "gaussian", [100, 1000, 10**4, 10**5], n_seeds=3)
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

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0])
    @pytest.mark.parametrize("factor", [1.0, 2.0])
    def test_family_minimum_is_exactly_zero(self, alpha, factor):
        # the Gaussian family holds the posterior, so its minimum is 0 at
        # every n, with no rounding left over from a numerical search
        thr = alpha ** (1.0 / (alpha - 1.0)) / math.e
        rep = run_ubfin(GM, alpha, factor * thr)
        assert [r["d_min_family"] for r in rep.records] == [0.0] * len(rep.records)
        assert rep.verdict("min_family_le_B")["measured"] == -rep.config["bound_B"]
        # the closed form has its minimum, 0, at the variance ratio 1
        f = experiments._renyi_limit_same_mean
        assert f(alpha, 1.0) == 0.0
        assert min(f(alpha, 1.0 - 1e-6), f(alpha, 1.0 + 1e-6)) > 0.0

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


def scanned_onsets(kappa, alpha, sigma, n_max):
    """(n0, n0_asymptotic) by linear scans over n = 1 ... n_max: the first n
    with sigma*^2(n) <= 0, and the first that meets the sub-Gaussian
    inequality with its variance proxy B = 1 (None at kappa = 0.5)."""
    s2, B = sigma**2, 1.0
    info = 1.0 / s2
    ns = range(1, n_max + 1)
    n0 = next((n for n in ns
               if alpha * n ** (-2.0 * kappa) + (1.0 - alpha) * s2 / (n + 1.0) <= 0.0), None)
    n0_asymptotic = None
    if kappa > 0.5:
        n0_asymptotic = next(
            (n for n in ns
             if (alpha - 1.0) / alpha * n ** (2.0 * kappa) / (2.0 * B) > n * info / 2.0),
            None)
    return n0, n0_asymptotic


class TestRateViolation:
    # kappa's lower bound, the parametric rate, is among the draws (and the
    # example); sigma is drawn log-uniformly, so that many onsets lie past 1
    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(kappa=st.floats(0.5, 3.7),
           alpha=st.floats(1.0, 33.0, exclude_min=True),
           sigma=st.floats(math.log(0.03), math.log(32.0)).map(math.exp),
           n_max=st.integers(1, 31623))
    @example(kappa=0.5, alpha=2.0, sigma=2.0, n_max=10**4)
    def test_bisected_onsets_match_linear_scans(self, kappa, alpha, sigma, n_max):
        rep = run_rate_violation(kappa=kappa, alpha=alpha, sigma=sigma, n_max=n_max)
        assert (rep.config["n0"], rep.config["n0_asymptotic"]) == scanned_onsets(
            kappa, alpha, sigma, n_max)

    def test_onsets_past_a_huge_n_max_in_under_a_second(self):
        # a scan over n would take hours here; both onsets lie past 2^50
        t0 = time.perf_counter()
        rep = run_rate_violation(kappa=0.51, n_max=10**12)
        assert time.perf_counter() - t0 < 1.0
        assert rep.config["n0"] is None and rep.config["n0_asymptotic"] is None

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

    def test_renyi_verdicts_read_the_exact_optima(self, report):
        exact = [figure1_exact_s2(0.9, "renyi", a) for a in (2.0, 5.0, 20.0)]
        measured = report.verdict("renyi_s2_nondecreasing")["measured"]
        assert measured == pytest.approx(exact, rel=1e-14)
        assert report.verdict("renyi_s2_exact")["measured"] <= 1e-8


def test_figure1_renyi_row_at_another_alpha_fails_the_exact_verdict(monkeypatch):
    # a mutant: the Renyi row scores every member at 1.02 alpha. Its fits
    # still widen with alpha below lambda_max, but miss their optima
    real = divergence._renyi_gauss
    monkeypatch.setattr(divergence, "_renyi_gauss",
                        lambda p, q, alpha: real(p, q, 1.02 * alpha))
    rep = run_figure1(rho=0.9, alphas=(2.0, 5.0, 20.0))
    verdict = rep.verdict("renyi_s2_exact")
    assert not verdict["passed"] and verdict["measured"] > 1e-3
    s2 = [r["s_sq"] for r in rep.records if r["alpha"] != 1.0]
    assert s2 == sorted(s2) and s2[-1] <= rep.config["lambda_max"]


@pytest.mark.parametrize("rho, alphas", [(0.0, (1.5, 2.0, 3.0)), (0.5, (5.0, 2.0))])
def test_figure1_passes(rho, alphas):
    # at rho 0 every optimum is 1: the ordering holds with equality, where
    # the fits scatter around 1 by optimizer noise; alphas out of order are
    # ordered by alpha
    assert run_figure1(rho=rho, alphas=alphas).passed


@pytest.mark.parametrize("rho", [-0.99, -0.5, -1e-8, 0.0, 1e-8, 0.3, 0.9, 0.99])
def test_figure1_renyi_s2_is_the_larger_root(rho):
    # np.roots loses digits as the two roots merge, near rho = 0 at large alpha
    for alpha in (1.001, 1.5, 2.0, 5.0, 20.0, 100.0):
        exact = figure1_exact_s2(rho, "renyi", alpha)
        assert experiments._figure1_renyi_s2(rho, alpha) == pytest.approx(exact, rel=1e-12)


def figure1_exact_s2(rho, objective, alpha):
    """The exact optimum s^2 of an isotropic fit to N(0, [[1, rho], [rho, 1]]).

    Renyi: dD/ds^2 = 0 gives sum_i s^2 / (alpha s^2 + (1 - alpha) lam_i) = 2,
    that is 2 alpha (alpha - 1) t^2 + (1 - alpha)(2 alpha - 1)(lam_1 + lam_2) t
    + 2 (1 - alpha)^2 lam_1 lam_2 = 0 in t = s^2; the optimum is the root with
    alpha t + (1 - alpha) lam_max > 0, the larger one (the smaller lies at or
    below lam_max (alpha - 1) / alpha, with equality at rho = 0). Forward KL:
    tr Sigma / 2. Reverse KL: 2 / tr Sigma^-1.
    """
    lam1, lam2 = 1.0 - abs(rho), 1.0 + abs(rho)
    if objective == "kl-forward":
        return (lam1 + lam2) / 2.0
    if objective == "kl-reverse":
        return 2.0 / (1.0 / lam1 + 1.0 / lam2)
    roots = np.roots([2.0 * alpha * (alpha - 1.0),
                      (1.0 - alpha) * (2.0 * alpha - 1.0) * (lam1 + lam2),
                      2.0 * (1.0 - alpha) ** 2 * lam1 * lam2])
    return max(t.real for t in roots)


@pytest.mark.parametrize("rho", [-0.7, 0.0, 0.3, 0.5, 0.9])
def test_figure1_fits_reach_exact_optima(rho):
    rep = run_figure1(rho=rho, alphas=(2.0, 5.0, 20.0))
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
        def member(spec, bayes, data):
            # the constructor's member, at its mean, with variance ~ n^-power,
            # and the constructor's own M_bar
            q, m_bar = _member(spec, bayes, data)
            mean = float(np.atleast_1d(q.mean)[0])
            var = q.var * len(data) ** (1.0 - power)
            if spec.family == "gamma":
                return make_gamma(mean**2 / var, mean / var), m_bar
            return make_laplace(mean, math.sqrt(var / 2.0)), m_bar

        monkeypatch.setattr(experiments, "_member", member)
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

    @pytest.mark.parametrize("run,sha256", [
        (lambda: run_figure1(rho=0.9),
         "32803475f002d39f6144ab91e4085da687d3f3eb2296d123dff50764e4a165d7"),
        (lambda: run_ep_consistency(n_grid=[100, 1000], n_seeds=2),
         "ac965991614d6aad1ad3e72f6dd610b29c7a0abe75d776cf45fa7304d75c0955"),
        # fits by 1-D Renyi quadrature: Laplace members, and Gamma members
        # against the exponential model's truncated-Gamma posterior
        (lambda: run_consistency(GM, "laplace", n_grid=[100, 1000], n_seeds=2),
         "238d456fcf6e9fc08c13c8cd1c1cdf2f88c49535c0b2b6ee74a7f67435c1e014"),
        (lambda: run_consistency(EM, "gamma", n_grid=[100, 1000], n_seeds=2),
         "fc5e11bff78242045c1722a6bd94e1d5139a1877958f03672d1952a6b835fb63"),
        # fits by the Gaussian Renyi closed form, start grid in one batch
        (lambda: run_consistency(GM, "gaussian", n_grid=[100, 1000, 10000], n_seeds=2),
         "736ee4d28615fbcbc4bb5322ccef2e4eaf9c292645dece9b92f29a89f8ef0c9b"),
        # every other experiment, at its defaults but the values named
        (lambda: run_ndegen(),
         "4de219cbd30b9b13c5c3ceb6acc388b93f8a78ae239f5c97cc75895044defce1"),
        (lambda: run_ndegen(q_fixed={"kind": "spike", "center": 5.0, "width": 1e-3}),
         "bb8cd2e29e0a6b67acf3407c46f8996247f7b2e87a3599b974c247442d4c87dd"),
        (lambda: run_mixture_bound(spike_width=1e-3),
         "98d337e7a36cf0f8212e09ec51b558b48b2c1acf782e2707fdeb7bc9cf1fcb71"),
        (lambda: run_mixture_bound(spike_width=1e-2),
         "8378f251b78e4288dc8953e06cb83372976a10ca902c3c539ba09c00a99f1c67"),
        (lambda: run_rate_violation(kappa=0.75, expected_n0=6),
         "c921232ceebf5765e15c4d1b370fe3f4fe200de72cfcc58731b92de6799bfdf9"),
        (lambda: run_rate_violation(kappa=0.5),
         "3b8c19cbb6ebf0a2bac1019f497cdf2343f4fba0373734e064f0e4f073a5576c"),
        (lambda: run_goodseq_audit(GM, "gaussian-meanfield"),
         "479dbbeed2e0c1d90d32dd38cb554cc090bd8fbafd987091fca31dfbefb6d88b"),
        (lambda: run_goodseq_audit(GM, "laplace"),
         "983f4f5758bd1aa4bba6e89010d56fcd919d47a4fe8134b58d82def7f640a92a"),
        (lambda: run_goodseq_audit(GM, "logistic"),
         "95c56c001afa52caebacbc1c7bbf107eb14e359554b0c69b113733c3cab51793"),
        (lambda: run_goodseq_audit(EM, "gamma"),
         "5faf3a9c097c568fbba3c40eba61c6051405270f940afb9b250df5b77350e39e"),
        # d_min_family is the exact family minimum, 0 at every n
        (lambda: run_ubfin(M_bar=1.0),
         "bc75df9635701b328752b0c80c29b1beabe3a0fceb6dca61f8b18438054c504d"),
    ], ids=["figure1", "ep", "consistency-laplace", "consistency-gamma", "consistency-gaussian",
            "ndegen", "ndegen-spike", "mixture-1e-3", "mixture-1e-2", "rate-violation-0.75",
            "rate-violation-0.5", "goodseq-gaussian-meanfield", "goodseq-laplace",
            "goodseq-logistic", "goodseq-gamma", "ubfin"])
    def test_report_csv_bytes_pinned(self, tmp_path, run, sha256):
        # a change that moves any digit of a report moves its digest
        path = write_report(run(), tmp_path / "run")["csv"]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    def test_byte_identical_reruns(self, tmp_path):
        a = run_consistency(GM, "laplace", 2.0, [100, 1000], n_seeds=2)
        b = run_consistency(GM, "laplace", 2.0, [100, 1000], n_seeds=2)
        pa = write_report(a, tmp_path / "a")
        pb = write_report(b, tmp_path / "b")
        assert pa["csv"].read_bytes() == pb["csv"].read_bytes()

    def test_figure1_grid_file(self, tmp_path):
        rep = run_figure1(rho=0.9, alphas=(2.0,))
        paths = write_report(rep, tmp_path / "fig")
        assert paths["grid"].exists()
        lines = paths["grid"].read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert len(lines) == 2 + experiments.FIGURE1_GRID_POINTS ** 2

    def test_figure1_grid_file_round_trips(self, tmp_path):
        rep = run_figure1(rho=0.5, alphas=(2.0,))
        path = write_report(rep, tmp_path / "fig")["grid"]
        lines = path.read_text().splitlines()
        assert lines[1].split(",") == list(rep.grid)
        assert lines[2].split(",")[0] == "%.17g" % rep.grid["x"][0]
        back = np.loadtxt(path, delimiter=",", skiprows=2)
        assert np.array_equal(back, np.column_stack(list(rep.grid.values())))

    def test_grid_file_is_each_value_in_17_digits(self, tmp_path):
        odd = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 0.1, 0.1 + 2.0 ** -56, 0.1])
        grids = [run_figure1(rho=0.5, alphas=(2.0,)).grid,
                 {"a": odd, "b": odd[::-1]}]
        for i, grid in enumerate(grids):
            path = tmp_path / f"grid{i}.csv"
            experiments._write_grid_csv(path, grid)
            expect = "".join(",".join("%.17g" % v for v in row) + "\n"
                             for row in zip(*grid.values()))
            header = f"# schema={experiments.CSV_SCHEMA}\n" + ",".join(grid) + "\n"
            assert path.read_text() == header + expect
