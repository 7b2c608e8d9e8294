"""The four benchmark workloads: experiment configs generated from a seed.

Each workload is a set of ``renyi-vi experiment`` configs. One *round* runs
every config of the set once through ``cli.main``; a benchmark run repeats
rounds, so every config runs several times and its ``report.csv`` must come
out byte-identical each time.

Why these four: dropping any one leaves a layer path unmeasured.

- consistency-renyi-laplace: acceptance criterion 2. Laplace fits to the
  Gaussian-mean posterior by alpha-Renyi quadrature: fit -> renyi_quadrature
  (probe grid) -> integrate. The main target of closed forms, of a
  probe-free quadrature and of optimizer changes.
- ep-laplace: acceptance criterion 9. Forward-KL fits by quadrature (no probe
  grid, no overflow guard) plus the per-cell KL <= Renyi check. Same
  integrate, different integrand: a renyi_quadrature-only change should not
  move it.
- exponential-gamma: Gamma fits to the exponential-model posterior. The only
  workload where models.exact_posterior does real work (three quadratures
  and a grid sampler per cell), on a finite interval with a closure-chain
  integrand.
- figure1-2d: isotropic fits to an anisotropic 2-D Gaussian. Fits score by
  closed form; the local-minimum certificate runs integrate_2d. Bypasses
  every 1-D quadrature change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GAUSSIAN_MEAN = {"name": "gaussian-mean", "mu0": 0.0, "sigma": 1.0}
EXPONENTIAL = {"name": "exponential"}
RHO_RANGE = (-0.95, 0.95)
# Cells per consistency config. The mean_within_3sigma verdict needs a
# coverage of at least 0.95: with 20 cells it absorbs one cell outside 3 sigma,
# with fewer a single tail draw of the data fails the whole config.
MIN_CONFIG_CELLS = 20
N_RHOS = 3  # figure1 configs per round


@dataclass(frozen=True)
class Workload:
    name: str
    cell_span: str  # span name of one cell: one report.csv record
    # Spans the host is probed before: the cells, plus, on figure1, the
    # certificate's quadratures, which take most of its time outside cells.
    probed: tuple[str, ...]

    def configs(self, seed: int, tiny: bool) -> list[tuple[dict, int]]:
        """(experiment config, --seed value) pairs for one round.

        The benchmark seed picks the seed-list base of the consistency
        workloads, or the rho values of figure1 (one per equal-width stratum
        of RHO_RANGE, so every round spans weak to strong correlation).
        """
        rng = np.random.default_rng(seed)
        if self.name == "figure1-2d":
            k = 1 if tiny else N_RHOS
            lo, hi = RHO_RANGE
            u = rng.uniform(0.0, 1.0, size=k)
            rhos = [lo + (hi - lo) * (i + u[i]) / k for i in range(k)]
            return [({"experiment": "figure1", "rho": float(r)}, 0) for r in rhos]
        base = int(rng.integers(0, 2**31 - 2**16))
        common = {"alpha": 2.0, "quad_tol": 1e-7}
        if self.name == "consistency-renyi-laplace":
            cfg = {"experiment": "consistency", "model": GAUSSIAN_MEAN,
                   "family": "laplace", "theta0": 0.5,
                   "n_grid": [100, 1000, 10**4, 10**5], "budget": 260, **common}
        elif self.name == "ep-laplace":
            cfg = {"experiment": "ep", "model": GAUSSIAN_MEAN,
                   "family": "laplace", "theta0": 0.5,
                   "n_grid": [100, 1000, 10**4, 10**5], "budget": 260, **common}
        else:
            cfg = {"experiment": "consistency", "model": EXPONENTIAL,
                   "family": "gamma", "theta0": 2.0,
                   "n_grid": [100, 1000, 10**4], "budget": 200, **common}
        cfg["n_seeds"] = 2 if tiny else -(-MIN_CONFIG_CELLS // len(cfg["n_grid"]))
        return [(cfg, base)]


def planned_cells(cfg: dict) -> int:
    """report.csv records one config yields: one per (n, seed), or one per
    figure1 objective (reverse KL, forward KL, Renyi at alpha 2, 5, 20)."""
    if cfg["experiment"] == "figure1":
        return 5
    return len(cfg["n_grid"]) * cfg["n_seeds"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("consistency-renyi-laplace", "experiments.consistency_cell",
                 ("experiments.consistency_cell",)),
        Workload("ep-laplace", "experiments.consistency_cell",
                 ("experiments.consistency_cell",)),
        Workload("exponential-gamma", "experiments.consistency_cell",
                 ("experiments.consistency_cell",)),
        Workload("figure1-2d", "varfit.fit",
                 ("varfit.fit", "divergence.renyi_quadrature")),
    )
}
