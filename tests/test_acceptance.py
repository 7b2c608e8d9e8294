"""Acceptance criteria, one test per criterion.

Each test enforces its stated tolerance and wall-clock budget and prints a
single [criterion N] PASS/FAIL line (run with ``pytest -s`` to see them as
they complete). Every expected value is either exact arithmetic, an erfc/
closed-form reference, or an independent quadrature / grid-search oracle
computed in place.
"""

import math
import time

import numpy as np
import pytest

from renyi_vi.distributions import bulk_points, make_gaussian
from renyi_vi.divergence import (
    holder_lower_bound,
    mc_renyi_upper_bound,
    renyi_gauss_closed,
    renyi_quadrature,
)
from renyi_vi.experiments import (
    run_consistency,
    run_ep_consistency,
    run_figure1,
    run_goodseq_audit,
    run_mixture_bound,
    run_ndegen,
    run_rate_violation,
    run_ubfin,
)
from renyi_vi.models import gaussian_mean_model
from renyi_vi.numerics import QuadratureSpec, integrate

GM = {"name": "gaussian-mean", "mu0": 0.0, "sigma": 1.0}
EM = {"name": "exponential"}

_results = []


def _report(number, label, passed, detail, elapsed, budget):
    mark = "PASS" if passed else "FAIL"
    line = (f"[criterion {number:>2}] {mark}  {label}: {detail}  "
            f"({elapsed:.1f}s / budget {budget:.0f}s)")
    print(line)
    _results.append(line)
    assert passed, line
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"


@pytest.fixture(scope="module", autouse=True)
def summary():
    yield
    print("\n=== acceptance summary ===")
    for line in _results:
        print(line)


def test_criterion_01_closed_form_matches_quadrature():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    pairs = 0
    while pairs < 100:
        mp, mq = rng.uniform(-2.0, 2.0, size=2)
        sp, sq = rng.uniform(0.5, 2.0, size=2)
        if min(a * sq**2 + (1 - a) * sp**2 for a in (1.5, 2.0, 3.0)) <= 0.05:
            continue
        pairs += 1
        p, q = make_gaussian(mp, sp**2), make_gaussian(mq, sq**2)
        for a in (1.5, 2.0, 3.0):
            gap = abs(renyi_gauss_closed(p, q, a).value
                      - renyi_quadrature(p, q, a).value)
            worst = max(worst, gap)
    _report(1, "closed form vs quadrature", worst <= 1e-6,
            f"max |closed - quadrature| = {worst:.2e} over 100 pairs x 3 alphas",
            time.perf_counter() - t0, 10.0)


def test_criterion_02_consistency_laplace_family():
    t0 = time.perf_counter()
    rep = run_consistency(GM, "laplace", 2.0, [100, 1000, 10**4, 10**5],
                          list(range(100)))
    slope = rep.verdict("variance_slope")["measured"]
    cover = rep.verdict("mean_within_3sigma")["measured"]
    tails = [float(np.median([r["tail_mass"] for r in rep.records if r["n"] == n]))
             for n in rep.config["n_grid"]]
    ok = (-1.2 <= slope <= -0.8) and cover >= 0.95 and tails[-1] < 1e-6
    _report(2, "consistency (Laplace family)", ok,
            f"variance slope = {slope:.4f}, coverage = {cover:.3f}, "
            f"final tail mass = {tails[-1]:.1e}",
            time.perf_counter() - t0, 20.0)


def test_criterion_03_minimal_divergence_bound():
    t0 = time.perf_counter()
    worst = -np.inf
    details = []
    for alpha in (1.5, 2.0, 5.0):
        thr = alpha ** (1.0 / (alpha - 1.0)) / math.e
        for m_bar in (thr, 2.0 * thr):
            rep = run_ubfin(GM, alpha, m_bar, n_grid=(10**4, 10**5, 10**6))
            B = rep.config["bound_B"]
            gap = max(r["d_min_family"] - B for r in rep.records)
            worst = max(worst, gap)
            details.append(f"a={alpha:g},M={m_bar:.3f}: min-B={gap:.1e}")
    _report(3, "asymptotic bound on minimal divergence", worst <= 1e-6,
            "; ".join(details), time.perf_counter() - t0, 5.0)


def test_criterion_04_rate_violation_onset():
    t0 = time.perf_counter()
    rep = run_rate_violation(kappa=0.75, alpha=2.0, sigma=1.0, n_max=10**4, expected_n0=6)
    n0 = rep.config["n0"]
    stays = all(r["violated"] for r in rep.records if r["n"] >= 6)
    ctrl = run_rate_violation(kappa=0.5, alpha=2.0, sigma=1.0, n_max=10**4)
    ok = n0 == 6 and stays and ctrl.config["n0"] is None
    _report(4, "too-fast shrinkage onset", ok,
            f"n0 = {n0} (expected 6), persists to 1e4: {stays}, "
            f"kappa=0.5 control onset: {ctrl.config['n0']}",
            time.perf_counter() - t0, 5.0)


def test_criterion_05_fixed_member_growth_rate():
    t0 = time.perf_counter()
    rep = run_ndegen(GM, 2.0, {"kind": "gaussian", "mean": 0.5, "cov": 1.0},
                     [100, 1000, 10**4, 10**5, 10**6], seed=0)
    slope = rep.verdict("growth_slope")["measured"]
    _report(5, "divergence growth against a fixed member",
            abs(slope - 0.5) <= 0.05,
            f"slope of D vs log n = {slope:.4f} (want 0.5 +- 0.05)",
            time.perf_counter() - t0, 5.0)


def test_criterion_06_mixture_lower_bound():
    t0 = time.perf_counter()
    rep = run_mixture_bound(GM, 2.0, 0.5, 1.5, spike_width=1e-3,
                            n_grid=[10**4, 10**5], seed=0)
    measured = min(r["d_alpha"] for r in rep.records)
    # sensitivity run: wider spikes put the divergence in its finite regime
    rep2 = run_mixture_bound(GM, 2.0, 0.5, 1.5, spike_width=1e-2,
                             n_grid=[10**4, 10**5], seed=0)
    measured2 = min(r["d_alpha"] for r in rep2.records)
    ok = measured >= 0.45 and measured2 >= 0.45
    _report(6, "two-spike mixture lower bound", ok,
            f"min D = {measured} (width 1e-3), {measured2:.3f} (width 1e-2), "
            "bound 2(1-w)^2 - 0.05 = 0.45",
            time.perf_counter() - t0, 30.0)


def test_criterion_07_good_sequence_audits():
    t0 = time.perf_counter()
    lap = run_goodseq_audit(GM, "laplace", alpha=2.0, audit_grid=(10, 100, 1000))
    logi = run_goodseq_audit(GM, "logistic", alpha=2.0, audit_grid=(10, 100, 1000))
    gauss = run_goodseq_audit(GM, "gaussian-meanfield", alpha=2.0,
                              audit_grid=(10, 100, 1000))
    gam = run_goodseq_audit(EM, "gamma", alpha=2.0, audit_grid=(10, 100, 1000))
    lap_sup = max(r["ratio_sup"] for r in lap.records)
    logi_sup = max(r["ratio_sup"] for r in logi.records)
    entropy_ok = all(
        r["entropy"] <= r["entropy_bound"] + 1e-9
        for rep in (lap, logi, gauss, gam) for r in rep.records
    )
    slopes = {
        "laplace": lap.verdict("rate_slope")["measured"],
        "logistic": logi.verdict("rate_slope")["measured"],
        "gaussian": gauss.verdict("rate_slope")["measured"],
        "gamma": gam.verdict("rate_slope")["measured"],
    }
    slopes_ok = all(abs(s + 1.0) <= 0.01 for s in slopes.values())
    gamma_ok = gam.verdict("rate_cap")["passed"]
    ok = (lap_sup <= 1.64872 and logi_sup <= 1.50550 and entropy_ok
          and slopes_ok and gamma_ok)
    _report(7, "good-sequence audits", ok,
            f"ratio_sup: laplace {lap_sup:.3g} <= 1.64872, "
            f"logistic {logi_sup:.3g} <= 1.50550; entropy caps hold; "
            f"slopes {dict((k, round(v, 4)) for k, v in slopes.items())}",
            time.perf_counter() - t0, 30.0)


def test_criterion_08_anisotropic_spread_ordering():
    t0 = time.perf_counter()
    rep = run_figure1(rho=0.9, alphas=(2.0, 5.0, 20.0))
    s2 = {r["objective"]: r["s_sq"] for r in rep.records}
    renyi = [s2["renyi-2"], s2["renyi-5"], s2["renyi-20"]]
    ok = (
        abs(s2["kl-reverse"] - 0.19) <= 0.01
        and abs(s2["kl-forward"] - 1.0) <= 0.01
        and renyi[0] <= renyi[1] <= renyi[2] <= 1.95
        and rep.verdict("quadrature_local_min")["passed"]
    )
    _report(8, "anisotropic target spread ordering", ok,
            f"s2: reverse {s2['kl-reverse']:.4f}, forward {s2['kl-forward']:.4f}, "
            f"alpha (2,5,20) -> {[round(v, 4) for v in renyi]}",
            time.perf_counter() - t0, 2.0)


def test_criterion_09_ep_consistency_and_kl_le_renyi():
    t0 = time.perf_counter()
    rep = run_ep_consistency(GM, "laplace", [100, 1000, 10**4, 10**5],
                             list(range(100)))
    slope = rep.verdict("variance_slope")["measured"]
    cover = rep.verdict("mean_within_3sigma")["measured"]
    min_gap = min(r["renyi"] - r["kl_forward"] for r in rep.records)
    ok = (-1.2 <= slope <= -0.8) and cover >= 0.95 and min_gap >= -1e-6
    _report(9, "idealized-EP consistency and KL <= Renyi", ok,
            f"variance slope = {slope:.4f}, coverage = {cover:.3f}, "
            f"min (Renyi - KL) over {len(rep.records)} pairs = {min_gap:.3e}",
            time.perf_counter() - t0, 5.0)


def test_criterion_10_mc_upper_bound():
    t0 = time.perf_counter()
    model = gaussian_mean_model(0.0, 1.0)
    data = model.simulate(0.5, 10, seed=42)
    post = model.exact_posterior(data)

    def log_joint(th):
        return model.prior.log_pdf(th) + model.loglik(data, th)

    # quadrature log-evidence oracle
    mle = float(model.mle(data)[0])
    shift = float(model.loglik(data, np.array([mle]))[0])
    spec = QuadratureSpec(-np.inf, np.inf, rel_tol=1e-13,
                          breakpoints=tuple(bulk_points(post)))
    res = integrate(lambda mu: np.exp(log_joint(mu) - shift), spec)
    log_evidence_quad = shift + math.log(res.value)

    exact = mc_renyi_upper_bound(post, log_joint, 2.0, 10**4, seed=3)
    gap_exact = abs(exact.value - log_evidence_quad)

    q = make_gaussian(mle, 2.0 / len(data))
    est = mc_renyi_upper_bound(q, log_joint, 2.0, 10**5, seed=5)
    pop = log_evidence_quad + 0.5 * renyi_gauss_closed(post, q, 2.0).value
    z = abs(est.value - pop) / est.stderr
    ok = gap_exact <= 1e-10 and z <= 3.0 and exact.stderr <= 1e-12
    _report(10, "Monte-Carlo evidence upper bound", ok,
            f"|exact-posterior estimate - quadrature evidence| = {gap_exact:.1e}, "
            f"perturbed-q deviation = {z:.2f} MC standard errors",
            time.perf_counter() - t0, 30.0)


def test_criterion_11_holder_lower_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = np.inf
    checked = 0
    while checked < 200:
        alpha = float(rng.uniform(1.2, 4.0))
        mp, mq = rng.uniform(-2.0, 2.0, size=2)
        sp, sq = rng.uniform(0.5, 2.0, size=2)
        if alpha * sq**2 + (1 - alpha) * sp**2 <= 0.05:
            continue
        p, q = make_gaussian(mp, sp**2), make_gaussian(mq, sq**2)
        lo = float(rng.uniform(-3.0, 1.0))
        hi = lo + float(rng.uniform(0.1, 5.0))
        bound = holder_lower_bound(p, q, alpha, (lo, hi))
        d = renyi_quadrature(p, q, alpha).value
        integral = math.exp((alpha - 1.0) * d)
        worst = min(worst, integral - bound)
        checked += 1
    _report(11, "Holder lower bound", worst >= -1e-9,
            f"min (integral - bound) over 200 instances = {worst:.3e}",
            time.perf_counter() - t0, 10.0)
