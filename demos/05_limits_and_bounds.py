"""The sharp edges of the asymptotic theory, reproduced numerically.

Four effects: (1) a member shrinking faster than the posterior has
infinite divergence past an exact onset; (2) the minimal divergence stays
below an explicit constant B; (3) a fixed member accrues divergence like
0.5 log n; (4) an approximation splitting mass between the truth and a
second spike is stuck above 2 (1-w)^2.
"""

import math

from renyi_vi.experiments import (
    run_mixture_bound,
    run_ndegen,
    run_rate_violation,
    run_ubfin,
)

GM = {"name": "gaussian-mean", "mu0": 0.0, "sigma": 1.0}

print("1. Shrinking too fast (member variance n^(-2k), k = 0.75):")
rep = run_rate_violation(kappa=0.75, alpha=2.0, expected_n0=6)
print(f"   divergence infinite from n0 = {rep.config['n0']} on "
      f"(asymptotic-variance criterion: {rep.config['n0_asymptotic']})")
ctrl = run_rate_violation(kappa=0.5, alpha=2.0)
print(f"   k = 0.5 control (parametric rate): onset = {ctrl.config['n0']}")

print("\n2. The minimal-divergence bound B = 0.5 log(e M I / alpha^(1/(alpha-1))):")
for alpha in (1.5, 2.0, 5.0):
    thr = alpha ** (1.0 / (alpha - 1.0)) / math.e
    rep = run_ubfin(GM, alpha, 2.0 * thr)
    last = rep.records[-1]
    print(f"   alpha = {alpha:>3}: B = {rep.config['bound_B']:.4f}, "
          f"member divergence at n=1e6 = {last['d_goodseq']:.4f}, "
          f"family minimum = {last['d_min_family']:.2e}")

print("\n3. A fixed member cannot keep up (D grows like 0.5 log n):")
rep = run_ndegen(GM, 2.0, {"kind": "gaussian", "mean": 0.5, "cov": 1.0},
                 [100, 1000, 10**4, 10**5, 10**6], seed=0)
for r in rep.records:
    print(f"   n = {r['n']:>8}: D_2 = {r['d_alpha']:.4f}")
print(f"   slope vs log n = {rep.verdict('growth_slope')['measured']:.4f}")

print("\n4. Splitting mass with a second spike (w = 0.5 at the truth):")
rep = run_mixture_bound(GM, 2.0, 0.5, 1.5, spike_width=1e-2,
                        n_grid=[10**4, 10**5], seed=0)
for r in rep.records:
    print(f"   n = {r['n']:>8}: D_2 = {r['d_alpha']:.4f}  (lower bound 0.5)")
