"""Scripted numerical verifications of the asymptotic theory at desk scale.

Each experiment returns an :class:`ExperimentReport` with a config echo,
per-n records sorted by n, and named pass/fail verdicts; reports are
reproducible bit-for-bit from their config (fixed seeds, deterministic
numerics). Limit statements are operationalized as trends plus endpoint
assertions over a fixed n-grid, which every report states in its config.

Report files: ``report.json`` (everything) and ``report.csv`` (per-n
records; schema versioned in a header comment). The anisotropy experiment
additionally writes ``grid.csv`` with contour-ready density evaluations.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import build_density, build_family, build_model
from .distributions import interval_mass, make_gaussian, make_mixture, make_spike
from .divergence import _check_alpha, renyi, renyi_quadrature
from .goodseq import (
    AUDIT_COLUMNS,
    GoodSequenceSpec,
    audit,
    build_good_sequence,
    cited_ratio_bound,
    default_variance_scale,
)
from .varfit import fit

__all__ = [
    "ExperimentReport",
    "run_consistency",
    "run_ep_consistency",
    "run_ubfin",
    "run_ndegen",
    "run_mixture_bound",
    "run_rate_violation",
    "run_figure1",
    "run_goodseq_audit",
    "write_report",
    "DEFAULT_THETA0",
]

CSV_SCHEMA = 1

# One shared true parameter per experiment unless overridden in config.
DEFAULT_THETA0 = {"gaussian-mean": 0.5, "mvn-mean": 0.5, "exponential": 2.0}
# The model an experiment runs on unless its config names another.
GAUSSIAN_MEAN = {"name": "gaussian-mean", "mu0": 0.0, "sigma": 1.0}


@dataclass
class ExperimentReport:
    name: str
    config: dict
    records: list[dict]
    verdicts: list[dict]
    runtime_s: float
    # grid.csv columns, name -> 1-D array; empty for experiments without one
    grid: dict[str, np.ndarray] = field(default_factory=dict)
    schema: int = CSV_SCHEMA

    @property
    def passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts)

    def verdict(self, criterion: str) -> dict:
        for v in self.verdicts:
            if v["criterion"] == criterion:
                return v
        raise KeyError(criterion)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "schema": self.schema,
            "config": _jsonify(self.config),
            "records": _jsonify(self.records),
            "verdicts": _jsonify(self.verdicts),
            "passed": self.passed,
            "runtime_s": self.runtime_s,
        }


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def _fmt_csv(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def _write_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write(f"# schema={CSV_SCHEMA}\n")
        if not rows:
            return
        cols = list(rows[0].keys())
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_csv(row[c]) for c in cols) + "\n")


def _write_grid_csv(path: Path, grid: dict[str, np.ndarray]) -> None:
    """Float columns in the format of :func:`_write_csv`. Each column is
    formatted once per distinct value, told apart by its bits (so 0.0 and
    -0.0 stay apart): a mesh coordinate has one per mesh line, and a
    symmetric density repeats its values."""
    cols = []
    for col in grid.values():
        bits, inverse = np.unique(np.asarray(col, dtype=float).view(np.int64),
                                  return_inverse=True)
        text = np.array(["%.17g" % v for v in bits.view(float).tolist()], dtype=object)
        cols.append(text[inverse])
    with open(path, "w") as fh:
        fh.write(f"# schema={CSV_SCHEMA}\n" + ",".join(grid) + "\n")
        fh.write("".join(",".join(row) + "\n" for row in np.column_stack(cols).tolist()))


def write_report(report: ExperimentReport, outdir) -> dict[str, Path]:
    """Write report.json and report.csv (plus grid.csv if present)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {"json": outdir / "report.json", "csv": outdir / "report.csv"}
    with open(paths["json"], "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
    _write_csv(paths["csv"], report.records)
    if report.grid:
        paths["grid"] = outdir / "grid.csv"
        _write_grid_csv(paths["grid"], report.grid)
    return paths


def _verdict(criterion: str, passed: bool, measured, threshold) -> dict:
    return {
        "criterion": criterion,
        "passed": bool(passed),
        "measured": measured,
        "threshold": threshold,
    }


def _loglog_slope(ns, values) -> float:
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    return float(np.polyfit(np.log(ns), np.log(values), 1)[0])


def _sizes(key: str, grid, least: int, used: str) -> list[int]:
    """The sizes of ``grid``, sorted; a ValueError naming ``key`` unless it
    holds the ``least`` distinct sizes that ``used`` needs."""
    sizes = sorted(int(n) for n in grid)
    if len(set(sizes)) < least:
        raise ValueError(f"{key} needs at least {least} distinct "
                         f"size{'s' if least > 1 else ''} for {used}, got {sizes}")
    return sizes


def _model_at(spec: dict, theta0):
    """The model a spec builds, and ``theta0`` or else the model's default."""
    bayes = build_model(spec)
    return bayes, DEFAULT_THETA0[bayes.name] if theta0 is None else theta0


def consistency_cell(model_spec, family_name, objective_kind, alpha, theta0,
                     n, seed, quad_tol, budget) -> dict:
    """One (n, seed) fit; module-level and picklable for worker pools. A
    forward-KL fit also records KL, which is its own objective at q, and the
    Renyi divergence at ``alpha``."""
    model = build_model(model_spec)
    family = build_family(family_name)
    data = model.simulate(theta0, n, seed)
    posterior = model.exact_posterior(data)
    result = fit(
        posterior,
        family,
        objective_kind,
        alpha=alpha if objective_kind == "renyi-alpha" else None,
        budget=budget,
        quad_tol=quad_tol,
    )
    q = result.density
    mean = float(np.atleast_1d(q.mean)[0])
    rec = {
        "n": n,
        "seed": seed,
        "mean": mean,
        "variance": q.var,
        "abs_err": abs(mean - theta0),
        "objective": result.objective.value,
        "converged": result.converged,
        "tail_mass": 1.0 - interval_mass(q, theta0 - 0.1, theta0 + 0.1, rel_tol=1e-7),
    }
    if objective_kind == "kl-forward":
        rec["kl_forward"] = result.objective.value
        rec["renyi"] = renyi(posterior, q, alpha, rel_tol=quad_tol).value
    return rec


# The consistency verdicts: the log-log slope of the median variance against n
# (-1 for 1/n shrinkage), and the least share of means within 3 sd/sqrt(n).
VARIANCE_SLOPE_RANGE = (-1.2, -0.8)
COVER_MIN = 0.95
# Distinct sizes the consistency slopes are fitted on.
CONSISTENCY_MIN_SIZES = 2
# The goodseq-audit rate_slope verdict: the log-log slope of the member
# variance in units of its scale M_bar_n (-1 at the parametric rate), fitted
# on at least RATE_MIN_SIZES distinct sizes.
RATE_SLOPE_RANGE = (-1.01, -0.99)
RATE_MIN_SIZES = 4


def run_consistency(
    model: dict = GAUSSIAN_MEAN,
    family: str = "laplace",
    alpha: float = 2.0,
    n_grid=(100, 1000, 10**4, 10**5),
    seeds=tuple(range(10)),
    objective_kind: str = "renyi-alpha",
    theta0: float | None = None,
    quad_tol: float = 1e-7,
    budget: int = 260,
    jobs: int = 1,
) -> ExperimentReport:
    """Fit the approximate posterior per (n, seed); verify the shrink rate,
    the coverage of the true parameter, and concentration of mass. A
    forward-KL (EP) fit also checks KL <= Renyi at ``alpha`` per cell.
    ``n_grid`` must hold at least :data:`CONSISTENCY_MIN_SIZES` distinct
    sizes."""
    t0 = time.perf_counter()
    bayes, theta0 = _model_at(model, theta0)
    alpha, quad_tol, budget = float(alpha), float(quad_tol), int(budget)
    n_grid = _sizes("n_grid", n_grid, CONSISTENCY_MIN_SIZES, "the variance slope")
    seeds = [int(s) for s in seeds]
    config = {
        "model": model,
        "family": family,
        "alpha": alpha,
        "objective_kind": objective_kind,
        "n_grid": n_grid,
        "seeds": seeds,
        "theta0": theta0,
        "quad_tol": quad_tol,
        "budget": budget,
        "limit_proxy": "trend + endpoint assertions over the fixed n-grid",
    }
    cells = [(n, s) for n in n_grid for s in seeds]
    args = [
        (model, family, objective_kind, alpha, theta0, n, s, quad_tol, budget)
        for (n, s) in cells
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_cell_star, args, chunksize=8))
    else:
        records = [_cell_star(a) for a in args]
    records.sort(key=lambda r: (r["n"], r["seed"]))

    sigma0 = 1.0 / math.sqrt(float(bayes.fisher_info(theta0)))
    med_var = [float(np.median([r["variance"] for r in records if r["n"] == n]))
               for n in n_grid]
    med_err = [float(np.median([r["abs_err"] for r in records if r["n"] == n]))
               for n in n_grid]
    med_tail = [float(np.median([r["tail_mass"] for r in records if r["n"] == n]))
                for n in n_grid]
    var_slope = _loglog_slope(n_grid, med_var)
    err_slope = _loglog_slope(n_grid, med_err)
    within = [r["abs_err"] <= 3.0 * sigma0 / math.sqrt(r["n"]) for r in records]
    cover = float(np.mean(within))

    verdicts = [
        _verdict("variance_slope",
                 VARIANCE_SLOPE_RANGE[0] <= var_slope <= VARIANCE_SLOPE_RANGE[1],
                 var_slope, list(VARIANCE_SLOPE_RANGE)),
        _verdict("mean_within_3sigma", cover >= COVER_MIN, cover, COVER_MIN),
        _verdict("concentration",
                 all(med_tail[i + 1] <= med_tail[i] + 1e-12
                     for i in range(len(med_tail) - 1))
                 and med_tail[-1] < 0.1,
                 med_tail, "nonincreasing, final < 0.1"),
    ]
    if objective_kind == "kl-forward":
        gaps = [r["renyi"] - r["kl_forward"] for r in records]
        min_gap = float(np.min(gaps))
        verdicts.append(_verdict("kl_le_renyi", min_gap >= -1e-6, min_gap, -1e-6))
    config["mean_error_slope"] = err_slope
    name = "ep" if objective_kind == "kl-forward" else "consistency"
    return ExperimentReport(name, config, records, verdicts,
                            time.perf_counter() - t0)


def _cell_star(a):
    return consistency_cell(*a)


def run_ep_consistency(
    model: dict = GAUSSIAN_MEAN,
    family: str = "laplace",
    n_grid=(100, 1000, 10**4, 10**5),
    seeds=tuple(range(10)),
    alpha: float = 2.0,
    theta0: float | None = None,
    quad_tol: float = 1e-7,
    budget: int = 260,
    jobs: int = 1,
) -> ExperimentReport:
    """Forward-KL (idealized EP) consistency plus the KL <= Renyi check at
    ``alpha``."""
    return run_consistency(
        model, family, alpha, n_grid, seeds, objective_kind="kl-forward",
        theta0=theta0, quad_tol=quad_tol, budget=budget, jobs=jobs,
    )


def _renyi_limit_same_mean(alpha: float, r: float) -> float:
    """Large-n D_alpha between same-mean Gaussians with variance ratio r."""
    den = alpha * r + 1.0 - alpha
    if den <= 0.0:
        return np.inf
    return 0.5 * math.log(r) + math.log(r / den) / (2.0 * (alpha - 1.0))


def run_ubfin(
    model: dict = GAUSSIAN_MEAN,
    alpha: float = 2.0,
    M_bar: float | None = None,
    n_grid=(10**4, 10**5, 10**6),
    theta0: float | None = None,
) -> ExperimentReport:
    """Asymptotic bound B on the minimal divergence, by closed form.

    Requires M_bar, with M_bar * I(theta0) >= alpha^(1/(alpha-1)) / e; then
    B = 0.5 log(e * M_bar * I(theta0) / alpha^(1/(alpha-1))). Records the
    divergence to the Gaussian member with variance M_bar/n (which may
    exceed B, or be infinite) and the family minimum (which may not).
    """
    t0 = time.perf_counter()
    if M_bar is None:
        raise ValueError("ubfin needs 'M_bar', the good sequence's variance scale")
    alpha, M_bar = float(alpha), float(M_bar)
    bayes, theta0 = _model_at(model, theta0)
    if bayes.name != "gaussian-mean":
        raise ValueError("run_ubfin uses the Gaussian mean model")
    info = float(bayes.fisher_info(theta0))
    A = alpha ** (1.0 / (alpha - 1.0))
    if M_bar * info < A / math.e - 1e-12:
        raise ValueError(
            f"M_bar * fisher_info = {M_bar * info:.6g} is below "
            f"alpha^(1/(alpha-1))/e = {A / math.e:.6g}; the asymptotic bound "
            "does not apply"
        )
    B = 0.5 * math.log(math.e * M_bar * info / A)
    sigma2 = 1.0 / info
    n_grid = _sizes("n_grid", n_grid, 1, "the family minimum")
    records = []
    for n in n_grid:
        var_post = sigma2 / (n + 1.0)
        var_q = M_bar / n
        sstar = alpha * var_q + (1.0 - alpha) * var_post
        if sstar <= 0.0:
            d_good = np.inf
        else:
            r = var_q / var_post
            d_good = _renyi_limit_same_mean(alpha, r)
        # family minimum over Gaussian (m, s): the mean term vanishes at the
        # posterior mean, so minimize the variance part alone
        lo, hi = math.log(var_post) - 4.0, math.log(var_post) + 4.0
        for _ in range(200):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            f1 = _renyi_limit_same_mean(alpha, math.exp(m1) / var_post)
            f2 = _renyi_limit_same_mean(alpha, math.exp(m2) / var_post)
            if f1 <= f2:
                hi = m2
            else:
                lo = m1
        d_min = _renyi_limit_same_mean(alpha, math.exp(0.5 * (lo + hi)) / var_post)
        records.append(
            {"n": n, "d_goodseq": d_good, "d_min_family": d_min, "bound_B": B,
             "sigma_star_sq": sstar}
        )
    limit = _renyi_limit_same_mean(alpha, M_bar * info)
    tail = [r for r in records if r["n"] >= 10**4] or records
    worst = max(r["d_min_family"] - B for r in tail)
    d_last = records[-1]["d_goodseq"]
    limit_gap = (
        0.0 if (np.isinf(d_last) and np.isinf(limit)) else abs(d_last - limit)
    )
    verdicts = [
        _verdict("min_family_le_B", worst <= 1e-6, worst, 1e-6),
        _verdict("finite_n_matches_limit", limit_gap <= 1e-3, limit_gap, 1e-3),
    ]
    config = {
        "model": model, "alpha": alpha, "M_bar": M_bar, "n_grid": n_grid,
        "theta0": theta0, "bound_B": B, "analytic_limit": limit,
        "limit_proxy": "max over n >= 1e4 of the n-grid",
    }
    return ExperimentReport("ubfin", config, records, verdicts,
                            time.perf_counter() - t0)


# The growth_slope verdict: against a fixed q the divergence grows like 0.5 log n.
GROWTH_SLOPE_RANGE = (0.45, 0.55)
# Finite values the slope is fitted on; fewer, and the divergence is taken to
# have gone infinite, so a grid must offer at least this many sizes.
NDEGEN_MIN_SIZES = 4


def run_ndegen(
    model: dict = GAUSSIAN_MEAN,
    alpha: float = 2.0,
    q_fixed: dict = {"kind": "gaussian", "mean": 0.5, "cov": 1.0},
    n_grid=(100, 1000, 10**4, 10**5, 10**6),
    seed: int = 0,
    theta0: float | None = None,
) -> ExperimentReport:
    """Divergence growth against a fixed density: slope vs log n.

    A fixed non-degenerate q accrues divergence like 0.5 log n; a q that
    vanishes at theta0 goes infinite outright. ``n_grid`` must hold at least
    :data:`NDEGEN_MIN_SIZES` distinct sizes.
    """
    t0 = time.perf_counter()
    alpha, seed = float(alpha), int(seed)
    bayes, theta0 = _model_at(model, theta0)
    q = build_density(q_fixed)
    n_grid = _sizes("n_grid", n_grid, NDEGEN_MIN_SIZES, "the growth slope")
    data_full = bayes.simulate(theta0, max(n_grid), seed)
    records = []
    for n in n_grid:
        post = bayes.exact_posterior(data_full[:n])
        records.append({"n": n, "d_alpha": renyi(post, q, alpha).value})
    finite = [(r["n"], r["d_alpha"]) for r in records if np.isfinite(r["d_alpha"])]
    verdicts = []
    if len(finite) >= NDEGEN_MIN_SIZES:
        ns, ds = zip(*finite)
        slope = float(np.polyfit(np.log(ns), ds, 1)[0])
        verdicts.append(
            _verdict("growth_slope",
                     GROWTH_SLOPE_RANGE[0] <= slope <= GROWTH_SLOPE_RANGE[1],
                     slope, list(GROWTH_SLOPE_RANGE))
        )
    else:
        n_inf = sum(1 for r in records if np.isinf(r["d_alpha"]))
        verdicts.append(
            _verdict("divergence_reported", n_inf > 0, n_inf, "any infinite value")
        )
    config = {
        "model": model, "alpha": alpha, "q_fixed": q_fixed,
        "n_grid": n_grid, "seed": seed, "theta0": theta0,
    }
    return ExperimentReport("ndegen", config, records, verdicts,
                            time.perf_counter() - t0)


# How far below the bound 2 (1-w)^2 the liminf proxy may fall.
MIXTURE_SLACK = 0.1


def run_mixture_bound(
    model: dict = GAUSSIAN_MEAN,
    alpha: float = 2.0,
    w: float = 0.5,
    theta1: float = 1.5,
    spike_width: float = 1e-3,
    n_grid=(10**2, 10**3, 10**4, 10**5),
    seed: int = 0,
    theta0: float | None = None,
) -> ExperimentReport:
    """Divergence to a two-spike mixture stays above 2 (1-w)^2.

    The mixture puts weight w on a spike at theta0 and 1-w at theta1; the
    liminf is proxied by the minimum over the two largest n (an infinite
    divergence counts as above any bound).
    """
    t0 = time.perf_counter()
    alpha, w, theta1, spike_width, seed = (
        float(alpha), float(w), float(theta1), float(spike_width), int(seed))
    if not 0.0 < w < 1.0:
        raise ValueError(f"w must lie in (0,1), got {w}")
    if spike_width > 1e-2:
        raise ValueError(f"spike_width must be <= 1e-2, got {spike_width}")
    bayes, theta0 = _model_at(model, theta0)
    if theta1 == theta0:
        raise ValueError("theta1 must differ from theta0")
    q = make_mixture([w, 1.0 - w],
                     [make_spike(theta0, spike_width), make_spike(theta1, spike_width)])
    n_grid = _sizes("n_grid", n_grid, 1, "the liminf proxy")
    data_full = bayes.simulate(theta0, max(n_grid), seed)
    records = []
    for n in n_grid:
        post = bayes.exact_posterior(data_full[:n])
        d = renyi(post, q, alpha, rel_tol=1e-7).value
        records.append({"n": n, "d_alpha": d})
    bound = 2.0 * (1.0 - w) ** 2
    tail = [r["d_alpha"] for r in records[-2:]]
    measured = min(tail)
    verdicts = [
        _verdict("liminf_ge_mixture_bound", measured >= bound - MIXTURE_SLACK,
                 measured, bound - MIXTURE_SLACK)
    ]
    config = {
        "model": model, "alpha": alpha, "w": w, "theta1": theta1,
        "spike_width": spike_width, "n_grid": n_grid, "seed": seed,
        "theta0": theta0, "bound": bound,
        "limit_proxy": "min over the two largest n",
    }
    return ExperimentReport("mixture", config, records, verdicts,
                            time.perf_counter() - t0)


def run_rate_violation(kappa: float = 0.75, alpha: float = 2.0, sigma: float = 1.0,
                       B: float = 1.0, n_max: int = 10**4,
                       expected_n0: int | None = None) -> ExperimentReport:
    """Find the onset n0 past which sigma*^2 <= 0 for q_n = N(mle, n^(-2k)).

    The member variance n^(-2 kappa) needs kappa >= 0.5: kappa = 0.5 is the
    boundary control (the parametric rate; no violation), and kappa > 0.5
    shrinks faster than the posterior, whose data sd is ``sigma``.
    sigma*^2(n) = alpha n^(-2 kappa) + (1-alpha) sigma^2/(n+1); finiteness
    of the divergence is equivalent to its positivity, so no data is needed.
    Also records the asymptotic-variance onset implied by the sub-Gaussian
    tail comparison, min{n : ((alpha-1)/alpha) n^(2 kappa)/(2B) > n I/2},
    with B the sub-Gaussian variance proxy (exactly 1 for the Gaussian
    member N(mle, n^(-2 kappa))).
    """
    t0 = time.perf_counter()
    kappa, alpha, sigma, B = float(kappa), float(alpha), float(sigma), float(B)
    n_max = int(n_max)
    if kappa < 0.5:
        raise ValueError(f"kappa must be >= 0.5, got {kappa}")
    _check_alpha(alpha)
    if not (sigma > 0 and B > 0):
        raise ValueError("sigma and B must be positive")
    s2 = sigma**2
    info = 1.0 / s2

    def sigma_star_sq(n):
        return alpha * n ** (-2.0 * kappa) + (1.0 - alpha) * s2 / (n + 1.0)

    # (n+1)/n^(2 kappa) is strictly decreasing for kappa >= 1/2, so the
    # violated set is an up-set: the exact onset follows by bisection.
    n0 = None
    if sigma_star_sq(n_max) <= 0.0:
        lo_n, hi_n = 1, n_max
        while lo_n < hi_n:
            mid = (lo_n + hi_n) // 2
            if sigma_star_sq(mid) <= 0.0:
                hi_n = mid
            else:
                lo_n = mid + 1
        n0 = lo_n
    ns = sorted(set(range(1, 101)) | set(
        int(v) for v in np.unique(np.logspace(2, math.log10(n_max), 60).astype(int))
    ) | ({n0} if n0 is not None else set()))
    records = []
    for n in ns:
        sstar = sigma_star_sq(n)
        records.append({"n": n, "var_q": n ** (-2.0 * kappa),
                        "sigma_star_sq": sstar, "violated": sstar <= 0.0})
    persists = all(r["violated"] for r in records if n0 is not None and r["n"] >= n0)
    n0_asymptotic = None
    if kappa > 0.5:
        n = 1
        while n <= n_max:
            if (alpha - 1.0) / alpha * n ** (2.0 * kappa) / (2.0 * B) > n * info / 2.0:
                n0_asymptotic = n
                break
            n += 1
    verdicts = []
    if kappa == 0.5:
        verdicts.append(_verdict("control_no_violation", n0 is None, n0, None))
    else:
        verdicts.append(_verdict("onset_found", n0 is not None, n0, "finite onset"))
        verdicts.append(_verdict("persists_after_onset", persists, persists, True))
    if expected_n0 is not None:
        verdicts.append(_verdict("onset_matches_expected", n0 == expected_n0,
                                 n0, expected_n0))
    config = {
        "kappa": kappa, "alpha": alpha, "sigma": sigma, "B": B,
        "n_max": n_max, "n0": n0, "n0_asymptotic": n0_asymptotic,
        "subgaussian_note": "Gaussian member N(mle, n^(-2 kappa)): B = 1, rate n^kappa",
    }
    return ExperimentReport("rate-violation", config, records, verdicts,
                            time.perf_counter() - t0)


def run_figure1(
    rho: float = 0.9,
    alphas=(2.0, 5.0, 20.0),
    budget: int = 700,
    grid_extent: float = 3.0,
    grid_points: int = 61,
) -> ExperimentReport:
    """Isotropic fits to an anisotropic 2-D Gaussian, across objectives.

    Asserts the spread ordering: reverse KL collapses to the small
    eigenvalue direction, forward KL moment-matches, and the mass-covering
    fits widen with alpha while staying below the top eigenvalue. Each
    mass-covering optimum is certified as a local minimum of the quadrature
    objective. Emits contour-ready density evaluations.
    """
    t0 = time.perf_counter()
    rho, alphas, budget = float(rho), tuple(float(a) for a in alphas), int(budget)
    grid_extent, grid_points = float(grid_extent), int(grid_points)
    if not abs(rho) < 1.0:
        raise ValueError(f"|rho| must be < 1, got {rho}")
    Sigma = np.array([[1.0, rho], [rho, 1.0]])
    target = make_gaussian(np.zeros(2), Sigma)
    family = build_family("isotropic-gaussian-2d")
    lam = np.linalg.eigvalsh(Sigma)
    s2_fwd_expect = float(np.trace(Sigma) / 2.0)
    s2_rev_expect = float(2.0 / np.trace(np.linalg.inv(Sigma)))

    records = []
    fits = {}
    for kind, a in [("kl-reverse", None), ("kl-forward", None)] + [
        ("renyi-alpha", a) for a in alphas
    ]:
        res = fit(target, family, kind, alpha=a, budget=budget)
        key = kind if a is None else f"renyi-{a:g}"
        fits[key] = res
        records.append(
            {"objective": key, "alpha": 1.0 if a is None else a,
             "s_sq": float(res.params[2] ** 2),
             "mean_x": float(res.params[0]), "mean_y": float(res.params[1]),
             "value": res.objective.value}
        )
    s2 = {r["objective"]: r["s_sq"] for r in records}
    renyi_keys = [f"renyi-{a:g}" for a in alphas]
    renyi_s2 = [s2[k] for k in renyi_keys]
    monotone = all(renyi_s2[i] <= renyi_s2[i + 1] + 1e-9 for i in range(len(renyi_s2) - 1))
    verdicts = [
        _verdict("kl_reverse_s2", abs(s2["kl-reverse"] - s2_rev_expect) <= 1e-6,
                 s2["kl-reverse"], s2_rev_expect),
        _verdict("kl_forward_s2", abs(s2["kl-forward"] - s2_fwd_expect) <= 1e-6,
                 s2["kl-forward"], s2_fwd_expect),
        _verdict("renyi_s2_nondecreasing", monotone, renyi_s2, "nondecreasing"),
        _verdict("renyi_s2_below_lambda_max",
                 max(renyi_s2) <= float(lam[-1]) + 0.05,
                 max(renyi_s2), float(lam[-1]) + 0.05),
    ]
    worst = -np.inf
    for a in alphas:
        res = fits[f"renyi-{a:g}"]
        s_fit = float(res.params[2])
        d0 = renyi_quadrature(target, family.unpack(res.params), a, rel_tol=1e-7).value
        for mult in (0.97, 1.03):
            p = res.params.copy()
            p[2] = s_fit * mult
            d1 = renyi_quadrature(target, family.unpack(p), a, rel_tol=1e-7).value
            worst = max(worst, d0 - d1)
    verdicts.append(_verdict("quadrature_local_min", worst <= 1e-6, worst, 1e-6))

    g = np.linspace(-grid_extent, grid_extent, grid_points)
    mesh = np.column_stack([np.repeat(g, g.size), np.tile(g, g.size)])
    grid = {"x": mesh[:, 0], "y": mesh[:, 1],
            "target": np.exp(target.log_pdf(mesh))}
    for key, res in fits.items():
        grid[key.replace("-", "_")] = np.exp(res.density.log_pdf(mesh))

    config = {
        "rho": rho, "alphas": list(alphas), "budget": budget,
        "s2_expect": {"kl-forward": s2_fwd_expect, "kl-reverse": s2_rev_expect},
        "lambda_max": float(lam[-1]),
    }
    return ExperimentReport("figure1", config, records, verdicts,
                            time.perf_counter() - t0, grid=grid)


def run_goodseq_audit(
    model: dict = GAUSSIAN_MEAN,
    family: str = "laplace",
    alpha: float = 2.0,
    audit_grid=(10, 100, 1000),
    rate_grid=(100, 1000, 10**4, 10**5),
    seed: int = 0,
    theta0: float | None = None,
    M_bar: float | None = None,
) -> ExperimentReport:
    """Audit one good-sequence constructor over an n-grid.

    One nested data stream (a prefix per n) feeds both the per-n audits over
    ``audit_grid`` and the rate verdict over ``rate_grid``, which must hold
    at least :data:`RATE_MIN_SIZES` distinct sizes. ``rate_slope`` fits the
    log-log slope of Var(q_n) / M_bar_n against n, where M_bar_n is the
    constructor's own variance scale on the same prefix (the scale
    ``rate_cap`` checks against). A scale taken from the data, as the
    Gamma's 2 lambda_hat^2 is, cancels the draw, so the slope depends on no
    seed; it must lie in :data:`RATE_SLOPE_RANGE`.
    """
    t0 = time.perf_counter()
    audit_grid = _sizes("audit_grid", audit_grid, 1, "the audits")
    rate_grid = _sizes("rate_grid", rate_grid, RATE_MIN_SIZES, "the rate slope")
    alpha, seed = float(alpha), int(seed)
    bayes, theta0 = _model_at(model, theta0)
    gspec = GoodSequenceSpec(family=family, alpha=alpha, variance_scale=M_bar)
    data_full = bayes.simulate(theta0, max(audit_grid[-1], rate_grid[-1]), seed)
    # the compact set centers on the known true parameter here
    half = 5.0 / math.sqrt(float(bayes.fisher_info(theta0)))
    lo, hi = bayes.param_support[0]
    K = (max(lo, theta0 - half), min(hi, theta0 + half))
    records = []
    for n in audit_grid:
        a = audit(gspec, bayes, data_full[:n], K=K)
        rec = {c: getattr(a, c) for c in AUDIT_COLUMNS}
        if a.ratio_bound is None:  # no cited bound for this family
            rec["ratio_bound"], rec["ratio_bound_ok"] = np.nan, True
        records.append(rec)
    scaled = [build_good_sequence(gspec, bayes, data_full[:n]).var
              / default_variance_scale(gspec, bayes, data_full[:n])
              for n in rate_grid]
    slope = _loglog_slope(rate_grid, scaled)
    bound = cited_ratio_bound(family, alpha)
    verdicts = [
        _verdict("rate_slope", RATE_SLOPE_RANGE[0] <= slope <= RATE_SLOPE_RANGE[1],
                 slope, list(RATE_SLOPE_RANGE)),
        _verdict("entropy_bounded", all(r["entropy_ok"] for r in records),
                 [r["entropy"] - r["entropy_bound"] for r in records], 1e-9),
        _verdict("logconcave", all(r["logconcave_ok"] for r in records),
                 all(r["logconcave_ok"] for r in records), True),
        _verdict("rate_cap", all(r["rate_ok"] for r in records),
                 [r["variance"] * r["n"] / r["m_bar"] for r in records], 1.0),
    ]
    if bound is not None:
        worst = max(r["ratio_sup"] for r in records)
        verdicts.append(_verdict("ratio_bound", worst <= bound, worst, bound))
    config = {
        "model": model, "family": family, "alpha": alpha,
        "audit_grid": audit_grid, "rate_grid": rate_grid,
        "seed": seed, "theta0": theta0, "M_bar": M_bar,
        "first_n_all_ok": next(
            (r["n"] for r in records
             if r["rate_ok"] and r["logconcave_ok"] and r["entropy_ok"]
             and r["ratio_bound_ok"]),
            None,
        ),
    }
    return ExperimentReport("goodseq-audit", config, records, verdicts,
                            time.perf_counter() - t0)
