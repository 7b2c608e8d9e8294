"""Evidence upper bounds at fixed members and at the exact optimum.

For alpha > 1, (1/alpha) log E_q[(p(theta, X)/q(theta))^alpha] upper-bounds
the log evidence, with slack ((alpha-1)/alpha) D_alpha(posterior || q): the
complement of the ELBO. The bound is estimated from plain importance
weights. It is evaluated here, not descended: the last paragraph scores it
at the Laplace member that ``fit`` finds by minimizing D_alpha exactly.
"""

from renyi_vi import (
    fit,
    gaussian_mean_model,
    laplace_family,
    make_gaussian,
    mc_renyi_upper_bound,
    renyi_gauss_closed,
)

model = gaussian_mean_model(0.0, 1.0)
data = model.simulate(0.5, 10, seed=42)
posterior = model.exact_posterior(data)
log_evidence = model.log_evidence(data)


def log_joint(theta):
    return model.prior.log_pdf(theta) + model.loglik(data, theta)


print(f"exact log evidence: {log_evidence:.6f}")

est = mc_renyi_upper_bound(posterior, log_joint, alpha=2.0, n_draws=1000, seed=7)
print(f"\nq = exact posterior: estimate = {est.value:.6f}, stderr = {est.stderr:.1e}")
print("  every draw carries the same weight, so the bound is tight and exact")

print("\nq held away from the posterior (wider, recentered):")
print(f"{'q':<24} {'bound':>10} {'slack':>9} {'0.5 D_2':>9}")
for label, q in [
    ("N(mle, 2/n)", make_gaussian(float(model.mle(data)[0]), 0.2)),
    ("N(0.3, 0.5)", make_gaussian(0.3, 0.5)),
    ("N(0.0, 2.0)", make_gaussian(0.0, 2.0)),
]:
    est = mc_renyi_upper_bound(q, log_joint, alpha=2.0, n_draws=10**5, seed=1)
    d2 = renyi_gauss_closed(posterior, q, 2.0).value
    print(f"{label:<24} {est.value:>10.4f} {est.value - log_evidence:>9.4f} "
          f"{0.5 * d2:>9.4f}")

print("\nAt the exact D_2 optimum over the Laplace family, which does not")
print("contain the posterior, the slack is 0.5 D_2 of the fitted member:")
res = fit((model, data), laplace_family(), "renyi-alpha", alpha=2.0)
est = mc_renyi_upper_bound(res.density, log_joint, alpha=2.0, n_draws=10**5, seed=3)
print(f"  fitted (loc, scale) = ({res.params[0]:.4f}, {res.params[1]:.4f})")
print(f"  bound - log evidence = {est.value - log_evidence:.4f} "
      f"(stderr {est.stderr:.1e})")
print(f"  0.5 D_2 at the fit   = {0.5 * res.objective.value:.4f} "
      f"({res.objective.method})")
