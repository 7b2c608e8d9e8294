"""Output check that does not use the code under test.

Every fitted objective in a ``report.csv`` is recomputed here from the
record's parameters: 1-D objectives with plain ``scipy.integrate.quad`` over
densities written out in closed form below, 2-D Gaussian objectives by their
closed forms. The data behind each posterior is regenerated with numpy from
the cell's seed. A record must also be a local minimum of the recomputed
objective under a +-3% change of the fitted scale.

The tolerance (1e-6, absolute plus relative) is loose enough for digit moves
at the 1e-8 level, such as a closed form replacing a quadrature.
"""

from __future__ import annotations

import contextlib
import csv
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammainc, gammaln

from workloads import planned_cells

TOL = 1e-6
SCALE_STEP = 0.03
PRIOR_HI = 50.0  # exponential model: uniform prior on [0, 50]


def read_csv(path) -> list[dict]:
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return [{k: _parse(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def _parse(v: str):
    if v in ("true", "false"):
        return v == "true"
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(v)
    return v


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= TOL * (1.0 + abs(b))


# -- closed-form log densities ---------------------------------------------

def _gauss(mu, var):
    c = -0.5 * math.log(2.0 * math.pi * var)
    return lambda x: c - (x - mu) ** 2 / (2.0 * var)


def _laplace(k, b):
    c = -math.log(2.0 * b)
    return lambda x: c - abs(x - k) / b


def _gamma(shape, rate, log_norm=0.0):
    c = shape * math.log(rate) - gammaln(shape) - log_norm
    return lambda x: c + (shape - 1.0) * math.log(x) - rate * x if x > 0.0 else -math.inf


def _split_quad(f, center, width, lo, hi, points, epsabs):
    """int_lo^hi f, split at center +- 60 width so quad sees the bulk."""
    core_lo, core_hi = max(lo, center - 60.0 * width), min(hi, center + 60.0 * width)
    inner = [p for p in points if core_lo < p < core_hi]
    kw = dict(epsabs=epsabs, epsrel=1e-11, limit=500)
    total = quad(f, core_lo, core_hi, points=inner or None, **kw)[0]
    if lo < core_lo:
        total += quad(f, lo, core_lo, **kw)[0]
    if core_hi < hi:
        total += quad(f, core_hi, hi, **kw)[0]
    return total


def _log_integral(logf, center, width, lo, hi, points):
    """log of int_lo^hi exp(logf), shifted by its maximum near the bulk."""
    probe = np.linspace(max(lo, center - 60.0 * width), min(hi, center + 60.0 * width), 2001)
    shift = max(logf(float(x)) for x in probe)
    f = lambda x: math.exp(logf(x) - shift)
    return shift + math.log(_split_quad(f, center, width, lo, hi, points, 0.0))


def _renyi_1d(lp, lq, alpha, center, width, lo, hi, points):
    def logf(x):
        a = lp(x)
        return -math.inf if a == -math.inf else alpha * a + (1.0 - alpha) * lq(x)

    return _log_integral(logf, center, width, lo, hi, points) / (alpha - 1.0)


def _kl_1d(lp, lq, center, width, lo, hi, points):
    def f(x):
        a = lp(x)
        return 0.0 if a < -700.0 else math.exp(a) * (a - lq(x))

    return _split_quad(f, center, width, lo, hi, points, 1e-14)


# -- 1-D consistency cells -------------------------------------------------

def check_consistency(cfg: dict, base_seed: int, rows: list[dict]) -> list[tuple]:
    """(cell, problem) pairs for one consistency/ep report; cell None means
    the report as a whole is wrong."""
    seeds = [base_seed + i for i in range(cfg["n_seeds"])]
    want = sorted((n, s) for n in cfg["n_grid"] for s in seeds)
    got = sorted((r["n"], r["seed"]) for r in rows)
    if got != want:
        return [(None, f"cells {got} differ from the planned grid {want}")]
    return [(f"n={r['n']} seed={r['seed']}", p) for r in rows for p in _check_cell(cfg, r)]


def _check_cell(cfg: dict, r: dict) -> list[str]:
    theta0, alpha, n = cfg["theta0"], cfg["alpha"], r["n"]
    mean, var = r["mean"], r["variance"]
    problems = []
    if not all(math.isfinite(r[k]) for k in ("objective", "mean", "variance")):
        return [f"non-finite record {r}"]
    if cfg["model"]["name"] == "gaussian-mean":
        mu0, sigma = cfg["model"]["mu0"], cfg["model"]["sigma"]
        x = np.random.default_rng(r["seed"]).normal(theta0, sigma, size=n)
        pm, pv = (mu0 + float(x.sum())) / (n + 1), sigma**2 / (n + 1)
        lp, lo, hi = _gauss(pm, pv), -math.inf, math.inf
        b = math.sqrt(var / 2.0)
        member = lambda scale: _laplace(mean, scale)
        base_scale = b
        mass = _laplace_cdf(mean, b, theta0 + 0.1) - _laplace_cdf(mean, b, theta0 - 0.1)
    else:
        x = np.random.default_rng(r["seed"]).exponential(1.0 / theta0, size=n)
        sx = float(x.sum())
        log_norm = math.log(gammainc(n + 1.0, sx * PRIOR_HI))
        lp = _gamma(n + 1.0, sx, log_norm)
        pm, pv = (n + 1.0) / sx, (n + 1.0) / sx**2
        lo, hi = 0.0, PRIOR_HI
        sd = math.sqrt(var)
        member = lambda s: _gamma((mean / s) ** 2, mean / s**2)
        base_scale = sd
        shape, rate = (mean / sd) ** 2, mean / sd**2
        mass = gammainc(shape, rate * (theta0 + 0.1)) - gammainc(shape, rate * (theta0 - 0.1))
    width = math.sqrt(pv)
    points = [pm, mean]

    if cfg["experiment"] == "ep":
        def objective(scale):
            return _kl_1d(lp, member(scale), pm, width, lo, hi, points)
        renyi = _renyi_1d(lp, member(base_scale), alpha, pm, width, lo, hi, points)
        if not _close(r["renyi"], renyi):
            problems.append(f"renyi {r['renyi']!r} != oracle {renyi!r}")
        if not _close(r["kl_forward"], objective(base_scale)):
            problems.append(f"kl_forward {r['kl_forward']!r} != oracle")
    else:
        def objective(scale):
            return _renyi_1d(lp, member(scale), alpha, pm, width, lo, hi, points)

    d0 = objective(base_scale)
    if not _close(r["objective"], d0):
        problems.append(f"objective {r['objective']!r} != oracle {d0!r}")
    for mult in (1.0 - SCALE_STEP, 1.0 + SCALE_STEP):
        d1 = objective(base_scale * mult)
        if d1 < d0 - TOL:
            problems.append(f"not a local minimum: scale x{mult} lowers it by {d0 - d1:.3g}")
    if abs(r["abs_err"] - abs(mean - theta0)) > 1e-12:
        problems.append("abs_err does not match the fitted mean")
    if abs(r["tail_mass"] - (1.0 - mass)) > TOL:
        problems.append(f"tail_mass {r['tail_mass']!r} != oracle {1.0 - mass!r}")
    return problems


def _laplace_cdf(k, b, x):
    z = (x - k) / b
    return 0.5 * math.exp(z) if z < 0 else 1.0 - 0.5 * math.exp(-z)


# -- figure1 fits ------------------------------------------------------------

def _gauss_renyi(mp, Sp, mq, Sq, alpha):
    Ss = alpha * Sq + (1.0 - alpha) * Sp
    if np.linalg.eigvalsh(Ss).min() <= 0.0:
        return math.inf
    d = mp - mq
    ld = lambda S: np.linalg.slogdet(S)[1]
    return float(0.5 * alpha * (d @ np.linalg.solve(Ss, d))
                 - (ld(Ss) - (1.0 - alpha) * ld(Sp) - alpha * ld(Sq)) / (2.0 * (alpha - 1.0)))


def _gauss_kl(mp, Sp, mq, Sq):
    iq = np.linalg.inv(Sq)
    d = mp - mq
    return float(0.5 * (np.trace(iq @ Sp) + d @ iq @ d - mp.size
                        + np.linalg.slogdet(Sq)[1] - np.linalg.slogdet(Sp)[1]))


def check_figure1(cfg: dict, rows: list[dict]) -> list[tuple]:
    """(cell, problem) pairs for one figure1 report, as check_consistency."""
    rho = cfg["rho"]
    Sp, mp = np.array([[1.0, rho], [rho, 1.0]]), np.zeros(2)
    problems = []
    for r in rows:
        mq = np.array([r["mean_x"], r["mean_y"]])
        key = r["objective"]

        def objective(s):
            Sq = s * s * np.eye(2)
            if key == "kl-reverse":
                return _gauss_kl(mq, Sq, mp, Sp)
            if key == "kl-forward":
                return _gauss_kl(mp, Sp, mq, Sq)
            return _gauss_renyi(mp, Sp, mq, Sq, r["alpha"])

        s = math.sqrt(r["s_sq"])
        d0 = objective(s)
        if not _close(r["value"], d0):
            problems.append((key, f"rho={rho}: value {r['value']!r} != oracle {d0!r}"))
        for mult in (1.0 - SCALE_STEP, 1.0 + SCALE_STEP):
            if objective(s * mult) < d0 - TOL:
                problems.append((key, f"rho={rho}: scale x{mult} is lower"))
    if len(rows) != planned_cells(cfg):
        problems.append((None, f"expected {planned_cells(cfg)} fits, got {len(rows)}"))
    return problems
