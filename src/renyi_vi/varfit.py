"""Minimize a divergence objective over a parametric variational family.

One deterministic optimizer: a coarse grid over location x log-spaced grid
over scale, then coordinate line searches by Brent's method, minimizing the
alpha-Renyi divergence (alpha > 1), the forward KL or the reverse KL.

Objectives are scored by ``divergence.renyi`` and ``kl_forward``, which
take a closed form where their tables list the pair and quadrature
elsewhere. Where the family and the pair have a batch form, the start grid
is scored in one call (``renyi_batch``, ``kl_forward_batch``), with the
bits the scalar rows give each member; every member still counts as one
evaluation. An infinite objective region (dominance failure or a divergent
integral) is skipped by the grid and reported as an error only when the
whole initial grid is infinite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import (
    Density,
    Members,
    isotropic_gaussians,
    laplace_members,
    make_gamma,
    make_gaussian,
    make_laplace,
    make_logistic,
)
from .divergence import (
    DivergenceEstimate,
    _check_alpha,
    kl_forward,
    kl_forward_batch,
    kl_reverse,
    renyi,
    renyi_batch,
)
from .models import BayesModel

__all__ = [
    "OBJECTIVE_KINDS",
    "FAMILY_BUILDERS",
    "VariationalFamily",
    "FitResult",
    "DominanceError",
    "gaussian_family",
    "laplace_family",
    "logistic_family",
    "gamma_family",
    "isotropic_gaussian_family",
    "fit",
]

OBJECTIVE_KINDS = ("renyi-alpha", "kl-reverse", "kl-forward")


class DominanceError(ValueError):
    """The family cannot dominate the target: objective infinite everywhere."""


@dataclass(frozen=True)
class VariationalFamily:
    """Parametric map from a parameter vector to a Density.

    ``unpack`` builds the member from its parameters, and ``init_from`` gives
    the parameters a fit starts from, matched to a target's moments.
    ``param_roles`` marks each coordinate "location", "positive" (a location
    that must stay above 0, such as a Gamma mean) or "scale". Positive and
    scale coordinates are optimized in log space, and the family's dimension
    is its number of locations. ``unpack_batch``, where a family has one,
    maps the rows of an (m, k) array of parameters to their members as
    :class:`~renyi_vi.distributions.Members`, building no Density, or to
    None where ``unpack`` would refuse one of them.
    """

    name: str
    param_names: tuple[str, ...]
    param_roles: tuple[str, ...]
    unpack: Callable[[np.ndarray], Density]
    init_from: Callable[[Density], np.ndarray]
    unpack_batch: Callable[[np.ndarray], Members | None] | None = None

    @property
    def dim(self) -> int:
        return sum(role != "scale" for role in self.param_roles)

    def natural(self, z: np.ndarray) -> np.ndarray:
        """Parameters from optimizer coordinates."""
        out = np.array(z, dtype=float)
        for i, role in enumerate(self.param_roles):
            if role != "location":
                out[i] = math.exp(out[i])
        return out

    def internal(self, params: np.ndarray) -> np.ndarray:
        """Optimizer coordinates from parameters."""
        out = np.array(params, dtype=float)
        for i, role in enumerate(self.param_roles):
            if role != "location":
                out[i] = math.log(out[i])
        return out


@dataclass
class FitResult:
    """Optimization outcome: parameters, fitted density, scored objective."""

    params: np.ndarray
    density: Density
    objective: DivergenceEstimate
    objective_kind: str
    trace: list[dict]
    converged: bool
    seed: int | None
    n_evals: int
    config: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "params": [float(v) for v in np.atleast_1d(self.params)],
            "param_names": list(self.config.get("param_names", [])),
            "objective": {
                "value": float(self.objective.value),
                "method": self.objective.method,
                "error": float(self.objective.error),
                "alpha": self.objective.alpha,
            },
            "objective_kind": self.objective_kind,
            "converged": bool(self.converged),
            "seed": self.seed,
            "n_evals": int(self.n_evals),
            "trace_length": len(self.trace),
            "trace_tail": self.trace[-5:],
            "config": self.config,
            "extras": {k: v for k, v in self.extras.items() if _is_jsonable(v)},
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)


def _is_jsonable(v) -> bool:
    return isinstance(v, (int, float, str, bool, type(None), list, dict))


def _target_sd(target: Density) -> np.ndarray:
    cov = np.atleast_2d(target.cov)
    return np.sqrt(np.diag(cov))


def _location_scale(name, param_names, make, start_scale, make_batch=None) -> VariationalFamily:
    """A 1-D family of members ``make(location, scale)``, started at the
    target's mean and at the scale ``start_scale(sd)`` that matches its sd;
    ``make_batch(locations, scales)`` makes a batch of them."""
    return VariationalFamily(
        name=name,
        param_names=param_names,
        param_roles=("location", "scale"),
        unpack=lambda p: make(p[0], p[1]),
        init_from=lambda t: np.array(
            [float(np.atleast_1d(t.mean)[0]), start_scale(_target_sd(t)[0])]
        ),
        unpack_batch=None if make_batch is None else lambda ps: make_batch(ps[:, 0], ps[:, 1]),
    )


def gaussian_family() -> VariationalFamily:
    return _location_scale("gaussian", ("mean", "sd"), lambda m, s: make_gaussian(m, s**2),
                           lambda sd: sd, lambda m, s: isotropic_gaussians(m[:, None], s))


def laplace_family() -> VariationalFamily:
    return _location_scale("laplace", ("loc", "scale"), make_laplace,
                           lambda sd: sd / math.sqrt(2.0), laplace_members)


def logistic_family() -> VariationalFamily:
    return _location_scale("logistic", ("loc", "scale"), make_logistic,
                           lambda sd: sd * math.sqrt(3.0) / math.pi)


def gamma_family() -> VariationalFamily:
    # parameterized by (mean, sd); shape = (m/s)^2, rate = m/s^2
    def unpack(p):
        m, s = float(p[0]), float(p[1])
        return make_gamma((m / s) ** 2, m / s**2)

    return VariationalFamily(
        name="gamma",
        param_names=("mean", "sd"),
        param_roles=("positive", "scale"),
        unpack=unpack,
        init_from=lambda t: np.array([float(np.atleast_1d(t.mean)[0]), _target_sd(t)[0]]),
    )


def isotropic_gaussian_family() -> VariationalFamily:
    def unpack(p):
        x, y, s = (float(v) for v in p)
        s2 = s ** 2
        return make_gaussian([x, y], [[s2, 0.0], [0.0, s2]])

    def init_from(t):
        m = np.atleast_1d(t.mean)
        s = math.sqrt(float(np.trace(np.atleast_2d(t.cov))) / 2.0)
        return np.array([float(m[0]), float(m[1]), s])

    return VariationalFamily(
        name="isotropic-gaussian-2d",
        param_names=("mean_x", "mean_y", "sd"),
        param_roles=("location", "location", "scale"),
        unpack=unpack,
        init_from=init_from,
        unpack_batch=lambda ps: isotropic_gaussians(ps[:, :2], ps[:, 2]),
    )


FAMILY_BUILDERS: dict[str, Callable[[], VariationalFamily]] = {
    "gaussian": gaussian_family,
    "laplace": laplace_family,
    "logistic": logistic_family,
    "gamma": gamma_family,
    "isotropic-gaussian-2d": isotropic_gaussian_family,
}


def _make_scorer(target: Density, family: VariationalFamily, kind: str,
                 alpha: float | None, quad_tol: float):
    if kind not in OBJECTIVE_KINDS:
        raise ValueError(f"unknown objective kind {kind!r}; choose from {OBJECTIVE_KINDS}")
    if kind == "renyi-alpha":
        alpha = _check_alpha(alpha)

    def estimate(params: np.ndarray) -> DivergenceEstimate:
        q = family.unpack(params)
        if kind == "renyi-alpha":
            return renyi(target, q, alpha, rel_tol=quad_tol)
        if kind == "kl-forward":
            return kl_forward(target, q, rel_tol=quad_tol)
        return kl_reverse(target, q, rel_tol=quad_tol)

    return estimate


def _prescore(target: Density, family: VariationalFamily, kind: str, alpha,
              zs: np.ndarray) -> dict[tuple, float]:
    """The objective at each row of ``zs`` (internal coords), by its key,
    scored in one call by the batch form of the pair's closed-form row: the
    values the scorer gives them one by one. Empty where the family or the
    pair has no batch form, and where a member or a value needs the scalar
    path (a member ``unpack`` refuses, or a NaN, which a scalar row raises
    on or returns), so that path runs as it always has."""
    if family.unpack_batch is None:
        return {}
    params = np.array(zs, dtype=float)
    for i, role in enumerate(family.param_roles):
        if role != "location":  # as family.natural does, row by row
            params[:, i] = [math.exp(v) for v in params[:, i].tolist()]
    members = family.unpack_batch(params)
    if members is None:
        return {}
    if kind == "renyi-alpha":
        values = renyi_batch(target, members, alpha)
    elif kind == "kl-forward":
        values = kl_forward_batch(target, members)
    else:
        values = kl_forward_batch(members, target)
    if values is None or np.isnan(values).any():
        return {}
    scored: dict[tuple, float] = {}
    for z, v in zip(zs.tolist(), values.tolist()):
        scored.setdefault(_key(z), v)  # a repeated key is scored once, first
    return scored


def _key(z: list[float]) -> tuple:
    # np.round(z, 14)'s arithmetic (rint of z * 1e14, over 1e14) on Python
    # floats: the same keys at a fraction of the cost
    return tuple(round(v * 1e14) / 1e14 for v in z)


class _Objective:
    """Caching, budgeted wrapper around a parameter scorer (internal coords).

    Keeps the best ``(z, value)`` it has scored, so a fit stopped by the
    budget in the middle of a line search still returns its best point.
    ``scored`` holds values already scored by key (:func:`_prescore`): a
    point found there counts as an evaluation like any other, but is not
    scored again.
    """

    def __init__(self, score, family, budget, scored):
        self._score = score
        self._family = family
        self.budget = budget
        self.n_evals = 0
        self._cache: dict[tuple, float] = {}
        self._scored = scored
        self.best_z: np.ndarray | None = None
        self.best_val = math.inf

    def __call__(self, z: np.ndarray) -> float:
        key = _key(np.asarray(z, dtype=float).tolist())
        if key in self._cache:
            return self._cache[key]
        if self.n_evals >= self.budget:
            raise _BudgetExhausted
        self.n_evals += 1
        val = self._scored.pop(key, None)
        if val is None:
            val = float(self._score(self._family.natural(np.asarray(z, dtype=float))).value)
        self._cache[key] = val
        if val < self.best_val:
            self.best_val = val
            self.best_z = np.array(z, dtype=float)
        return val


class _BudgetExhausted(Exception):
    pass


_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


def _brent_1d(f1, lo, hi, x):
    """Brent minimum of f1 on [lo, hi] started from x inside; returns (x, f(x)).

    Parabolic steps through the three best points, golden-section steps
    when the parabola is rejected. The arithmetic is on Python floats: an
    infinite value makes the parabola NaN, which fails the test for taking
    it, so the step falls back to golden section without a warning.
    """
    a, b, x = float(lo), float(hi), float(x)
    w = v = x
    fx = fw = fv = float(f1(x))
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + 1e-8 / 3.0
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return x, fx
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # written so that a NaN p or q fails the test
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                parabolic = True
                if (x + d) - a < tol2 or b - (x + d) < tol2:
                    d = math.copysign(tol1, m - x)
        if not parabolic:
            e = (a if x >= m else b) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = float(f1(u))
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def fit(
    target,
    family: VariationalFamily,
    objective_kind: str,
    alpha: float | None = None,
    budget: int = 400,
    seed: int | None = None,
    quad_tol: float = 1e-8,
) -> FitResult:
    """Deterministic divergence minimization over the family.

    Coarse grid (linear in locations, log-spaced in scales around a
    moment-matched start), then sweeps of coordinate line searches by
    Brent's method, each started from the best point on a bracket that
    shrinks by 0.35 per sweep; converged means the last sweep improved the
    objective by < 1e-8. Raises :class:`DominanceError` when the objective
    is infinite on the entire initial grid. ``budget`` caps objective
    evaluations; a fit stopped by it returns the best point it scored.
    """
    target = _target_density(target, family)
    score = _make_scorer(target, family, objective_kind, alpha, quad_tol)

    x0 = family.init_from(target)
    sd = _target_sd(target)
    for i, role in enumerate(family.param_roles):
        if role != "location" and x0[i] <= 0.0:
            # positive coordinate started out of range (e.g. a
            # positive-support family aimed at a zero-mean target)
            x0[i] = max(1e-8, 0.1 * float(sd[min(i, sd.size - 1)]))
    z0 = family.internal(x0)

    # keep the coarse grid to a minority of the budget so refinement runs
    small = budget < 300 or len(family.param_roles) >= 3
    loc_offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) if small else np.array(
        [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    )
    n_scale = 9 if small else 13
    amax = math.sqrt(alpha) if (alpha is not None and alpha > 1) else 1.0
    scale_offsets = np.linspace(math.log(0.2), math.log(4.0 * max(1.0, amax)), n_scale)

    axes = []
    loc_seen = 0
    for i, role in enumerate(family.param_roles):
        if role == "scale":
            axes.append(z0[i] + scale_offsets)
        else:
            s = sd[min(loc_seen, sd.size - 1)]
            loc_seen += 1
            if role == "positive":
                # positive location: multiplicative grid in log space
                axes.append(z0[i] + np.log1p(np.clip(loc_offsets * s / x0[i], -0.9, 9.0)))
            else:
                axes.append(z0[i] + loc_offsets * s)
        axes[-1] = np.unique(axes[-1])

    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.column_stack([m.ravel() for m in mesh])
    # the grid in one call where the pair has a batch form; each member
    # still counts as one evaluation, in grid order
    obj = _Objective(score, family, budget,
                     _prescore(target, family, objective_kind, alpha, grid[:budget]))

    trace: list[dict] = []
    best_val = np.inf
    best_z = None
    try:
        for zrow in grid:
            v = obj(zrow)
            if v < best_val:
                best_val = v
                best_z = np.array(zrow)
                trace.append(
                    {"step": obj.n_evals, "params": family.natural(best_z).tolist(),
                     "objective": best_val}
                )
    except _BudgetExhausted:
        pass
    if best_z is None or not np.isfinite(best_val):
        raise DominanceError(
            f"family {family.name!r} cannot dominate the target: objective "
            "infinite on the entire initial grid"
        )

    steps = np.array(
        [
            (axes[i][1] - axes[i][0]) if axes[i].size > 1 else 0.5
            for i in range(len(axes))
        ]
    )
    converged = False
    try:
        for _sweep in range(8):
            sweep_start = best_val
            for i in range(len(axes)):
                zi = best_z.copy()

                def f1(v, i=i, zi=zi):
                    w = zi.copy()
                    w[i] = v
                    return obj(w)

                xi, fv = _brent_1d(f1, best_z[i] - steps[i], best_z[i] + steps[i], best_z[i])
                if fv < best_val:
                    best_val = fv
                    best_z = zi.copy()
                    best_z[i] = xi
                    trace.append(
                        {"step": obj.n_evals, "params": family.natural(best_z).tolist(),
                         "objective": best_val}
                    )
            steps = steps * 0.35
            if sweep_start - best_val < 1e-8:
                converged = True
                break
    except _BudgetExhausted:
        converged = False
        if obj.best_val < best_val:
            # the budget ran out inside a line search that had improved
            best_val, best_z = obj.best_val, obj.best_z
            trace.append(
                {"step": obj.n_evals, "params": family.natural(best_z).tolist(),
                 "objective": best_val}
            )

    params = family.natural(best_z)
    final = score(params)
    return FitResult(
        params=params,
        density=family.unpack(params),
        objective=final,
        objective_kind=objective_kind,
        trace=trace,
        converged=converged,
        seed=seed,
        n_evals=obj.n_evals,
        config={
            "family": family.name,
            "param_names": list(family.param_names),
            "objective_kind": objective_kind,
            "alpha": alpha,
            "budget": budget,
            "quad_tol": quad_tol,
        },
    )


def _target_density(target, family: VariationalFamily) -> Density:
    """The density a Density or a (BayesModel, data) pair stands for: itself,
    or the model's exact posterior. Its dimension must be the family's."""
    if isinstance(target, tuple) and len(target) == 2 and isinstance(target[0], BayesModel):
        model, data = target
        target = model.exact_posterior(np.asarray(data, dtype=float))
    elif not isinstance(target, Density):
        raise TypeError("target must be a Density or a (BayesModel, data) pair")
    if target.dim != family.dim:
        raise ValueError(f"family dim {family.dim} != target dim {target.dim}")
    return target
