"""Good sequences: family members engineered to shadow the posterior.

A good sequence sits in the variational family, centers on the sample
estimate, shrinks at the parametric rate, stays log-concave, and bounds the
posterior density ratio outside a compact set. Its existence is what makes
the minimal divergence stay bounded, so auditing these properties is
auditing the consistency machinery itself.
"""

from renyi_vi import (
    GoodSequenceSpec,
    audit,
    cited_ratio_bound,
    exponential_model,
    gaussian_mean_model,
)
from renyi_vi.experiments import run_goodseq_audit

gm = gaussian_mean_model(0.0, 1.0)
em = exponential_model()

print("Tail-ratio constants from the worked constructions (alpha = 2):")
print(f"  laplace : {cited_ratio_bound('laplace', 2.0):.5f}")
print(f"  logistic: {cited_ratio_bound('logistic', 2.0):.5f}")

print(f"\n{'family':<20}{'n':>6} {'ratio_sup':>10} {'logconc':>8} "
      f"{'entropy-cap gap':>16} {'var<=M/n':>9}")
for family, model, theta0 in (
    ("gaussian-meanfield", gm, 0.5),
    ("laplace", gm, 0.5),
    ("logistic", gm, 0.5),
    ("gamma", em, 2.0),
):
    spec = GoodSequenceSpec(family, alpha=2.0)
    for n in (10, 100, 1000):
        data = model.simulate(theta0, n, seed=0)
        a = audit(spec, model, data)
        print(f"{family:<20}{n:>6} {a.ratio_sup:>10.3g} {str(a.logconcave_ok):>8} "
              f"{a.entropy - a.entropy_bound:>16.2e} {str(a.rate_ok):>9}")

print("\nShrink rate of each constructor (slope of log(variance / M_bar_n) vs log n):")
for family, model in (
    ("gaussian-meanfield", {"name": "gaussian-mean"}),
    ("laplace", {"name": "gaussian-mean"}),
    ("logistic", {"name": "gaussian-mean"}),
    ("gamma", {"name": "exponential"}),
):
    slope = run_goodseq_audit(model, family).verdict("rate_slope")["measured"]
    print(f"  {family:<20} slope = {slope:+.4f}")
