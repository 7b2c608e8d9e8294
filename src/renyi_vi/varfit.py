"""Minimize a divergence objective over a parametric variational family.

One deterministic optimizer: a coarse grid over location x log-spaced grid
over scale, then coordinate line searches by Brent's method, minimizing the
alpha-Renyi divergence (alpha > 1), the forward KL or the reverse KL.

Each objective kind is one divergence, read once per fit
(:func:`_divergence`): the reverse KL is the forward KL with the pair
swapped, and alpha is None for both, so a KL fit ignores any alpha it is
given, start grid included. One object per fit, :class:`_Objective`,
holds that reading and makes every evaluation. Members are scored by
``divergence.renyi`` or ``kl_forward``, a closed form where their tables
list the pair and quadrature elsewhere. A family with member records
scores a closed-form pair on :class:`~renyi_vi.distributions.Members`,
which hold the attributes the row reads with the bits of the Density and
build no ``log_pdf``: the start grid as one batch, in one call
(``closed_batch``), and every other evaluation (the line searches, a grid
member the batch leaves to the scalar path, the final score) as one
member. The row is the same function either way, so each member gets the
same bits, and each still counts as one evaluation. A quadrature pair
builds the member's Density, as does ``FitResult.density``. An infinite
objective region (dominance failure or a divergent integral) is skipped
by the grid and reported as an error only when the whole initial grid is
infinite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable

import numpy as np

from .distributions import (
    Density,
    Members,
    _variance,
    gaussian_members,
    laplace_members,
    make_gamma,
    make_gaussian,
    make_laplace,
    make_logistic,
)
from .divergence import (
    DivergenceEstimate,
    _check_alpha,
    _closed_row,
    closed_batch,
    kl_forward,
    renyi,
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
    is its number of locations. ``unpack_members``, where a family has it,
    builds members as :class:`~renyi_vi.distributions.Members`, with the
    bits of ``unpack``'s Densities and no Density built: one from a (k,)
    vector of parameters, or a batch from the rows of an (m, k) array,
    which a fit scores in one call (``divergence.closed_batch``) where the
    pair has a closed form. It raises ``unpack``'s ``ValueError`` where
    ``unpack`` refuses one (the first, over a batch).
    """

    name: str
    param_names: tuple[str, ...]
    param_roles: tuple[str, ...]
    unpack: Callable[[np.ndarray], Density]
    init_from: Callable[[Density], np.ndarray]
    unpack_members: Callable[[np.ndarray], Members] | None = None

    @property
    def dim(self) -> int:
        return sum(role != "scale" for role in self.param_roles)

    def natural(self, z: np.ndarray) -> np.ndarray:
        """Parameters from optimizer coordinates: one point's from a (k,)
        vector, or a batch's from the rows of an (m, k) array, each
        non-location entry by ``math.exp``."""
        out = np.array(z, dtype=float)
        for i, role in enumerate(self.param_roles):
            if role == "location":
                continue
            if out.ndim == 1:
                out[i] = math.exp(out[i])
            else:
                out[:, i] = list(map(math.exp, out[:, i].tolist()))
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


def _location_scale(name, param_names, make, start_scale, unpack_members=None,
                    location="location") -> VariationalFamily:
    """The family of members ``make(*locations, scale)``, each called on
    Python floats: d = len(param_names) - 1 locations of the role
    ``location`` ("positive" for one that must stay above 0, such as a Gamma
    mean), then one scale, with ``unpack_members`` as its field. Every
    family is built here, the 1-D ones and the 2-D isotropic Gaussian alike.
    A fit starts at the target's first d mean coordinates and at the scale
    ``start_scale(sd)`` that matches sd = sqrt(trace(cov) / d), which at
    d = 1 is the target's own sd, bit for bit."""
    d = len(param_names) - 1

    def init_from(t):
        locations = [float(v) for v in np.atleast_1d(t.mean)[:d]]
        sd = math.sqrt(float(np.trace(np.atleast_2d(t.cov))) / d)
        return np.array(locations + [start_scale(sd)])

    return VariationalFamily(
        name=name,
        param_names=param_names,
        param_roles=(location,) * d + ("scale",),
        unpack=lambda p: make(*p.tolist()),
        init_from=init_from,
        unpack_members=unpack_members,
    )


def _columns(p: np.ndarray):
    """One member's parameters as Python floats, from a (k,) vector, or a
    batch's, column by column, from the rows of an (m, k) array."""
    return p.tolist() if p.ndim == 1 else p.T


def _isotropic_gaussian(*p) -> Density:
    """N(mean, sd ** 2 I) for the parameters (*mean, sd), the variance
    squared as :func:`_isotropic_members` squares it."""
    *mean, sd = p
    return make_gaussian(mean, [_variance(sd)] * len(mean))


def _isotropic_members(p: np.ndarray) -> Members:
    """The Gaussians N(mean, sd ** 2 I) whose parameters are the mean's
    coordinates and then the sd: one for a (k,) vector, a batch for the
    rows of an (m, k) array."""
    *mean, sd = _columns(p)
    return gaussian_members(mean, sd)


def gaussian_family() -> VariationalFamily:
    return _location_scale("gaussian", ("mean", "sd"), _isotropic_gaussian,
                           lambda sd: sd, _isotropic_members)


def laplace_family() -> VariationalFamily:
    return _location_scale("laplace", ("loc", "scale"), make_laplace,
                           lambda sd: sd / math.sqrt(2.0), lambda p: laplace_members(*_columns(p)))


def logistic_family() -> VariationalFamily:
    return _location_scale("logistic", ("loc", "scale"), make_logistic,
                           lambda sd: sd * math.sqrt(3.0) / math.pi)


def gamma_family() -> VariationalFamily:
    # parameterized by (mean, sd); shape = (m/s)^2, rate = m/s^2
    return _location_scale("gamma", ("mean", "sd"),
                           lambda m, s: make_gamma((m / s) ** 2, m / s**2),
                           lambda sd: sd, location="positive")


def isotropic_gaussian_family() -> VariationalFamily:
    return _location_scale("isotropic-gaussian-2d", ("mean_x", "mean_y", "sd"),
                           _isotropic_gaussian, lambda sd: sd, _isotropic_members)


FAMILY_BUILDERS: dict[str, Callable[[], VariationalFamily]] = {
    "gaussian": gaussian_family,
    "laplace": laplace_family,
    "logistic": logistic_family,
    "gamma": gamma_family,
    "isotropic-gaussian-2d": isotropic_gaussian_family,
}


def _divergence(kind: str, alpha) -> tuple[bool, float | None]:
    """The divergence that an objective kind minimises over members q, as
    ``(swap, alpha)``: D_alpha(target || q), or KL(target || q) where alpha
    is None, with the pair swapped to (q, target) where ``swap``: the
    reverse KL. The one place that reads an objective kind."""
    if kind not in OBJECTIVE_KINDS:
        raise ValueError(f"unknown objective kind {kind!r}; choose from {OBJECTIVE_KINDS}")
    if kind == "renyi-alpha":
        return False, _check_alpha(alpha)
    return kind == "kl-reverse", None


def _key(z: list[float]) -> tuple:
    # np.round(z, 14)'s arithmetic (rint of z * 1e14, over 1e14) on Python
    # floats: the same keys at a fraction of the cost
    return tuple(round(v * 1e14) / 1e14 for v in z)


def _keys(zs: np.ndarray) -> list[tuple]:
    """:func:`_key` of each row of ``zs``, in one numpy pass: the same
    values, except that a value rounded to zero keeps its sign here, and
    -0.0 equals 0.0 as a key."""
    return [tuple(row) for row in (np.rint(zs * 1e14) / 1e14).tolist()]


class _Objective:
    """One fit's objective: the divergence its kind names
    (:func:`_divergence`, read here once, as ``swap`` and ``alpha``),
    scored at a member's parameters (:meth:`score`) or at a batch of
    internal coordinates (:meth:`batch`), and called at internal
    coordinates with a cache and a budget.

    A family with member records scores Members where the pair has a
    closed-form row: a family's members are all of one kind, so that is
    decided once, from the member at ``x0``. Elsewhere a member is its
    Density, whose log_pdf quadrature reads.

    Keeps the best ``(z, value)`` it has scored, so a fit stopped by the
    budget in the middle of a line search still returns its best point. A
    caller may pass z's key, and z's value where it has one that is not
    NaN (:meth:`batch`): that counts as an evaluation, unscored.
    """

    def __init__(self, target: Density, family: VariationalFamily, kind: str, alpha,
                 quad_tol: float, budget: int, x0: np.ndarray):
        self.swap, self.alpha = _divergence(kind, alpha)
        self.target, self.family = target, family
        self.quad_tol, self.budget = quad_tol, budget
        self.members = (family.unpack_members is not None and
                        _closed_row(*self.pair(family.unpack_members(x0)), self.alpha) is not None)
        self.n_evals = 0
        self._cache: dict[tuple, float] = {}
        self.best_z: np.ndarray | None = None
        self.best_val = math.inf

    def pair(self, q) -> tuple:
        """(p, q) as the divergence reads them, for the member q."""
        return (q, self.target) if self.swap else (self.target, q)

    def score(self, params: np.ndarray) -> DivergenceEstimate:
        """The objective at one member's parameters, uncounted and uncached."""
        family = self.family
        p, q = self.pair(family.unpack_members(params) if self.members else family.unpack(params))
        if self.alpha is None:
            return kl_forward(p, q, rel_tol=self.quad_tol)
        return renyi(p, q, self.alpha, rel_tol=self.quad_tol)

    def batch(self, zs: np.ndarray) -> list[float]:
        """The objective at each row of ``zs`` (internal coords) in one
        call (``closed_batch``), with the bits :meth:`score` gives each; NaN
        for a member the scalar path raises on. Empty where a member is its
        Density or one is refused: the scalar path meets it itself."""
        if not self.members:
            return []
        try:
            members = self.family.unpack_members(self.family.natural(zs))
        except ValueError:
            return []
        return closed_batch(*self.pair(members), self.alpha).tolist()

    def __call__(self, z: np.ndarray, key: tuple | None = None, val: float = math.nan) -> float:
        if key is None:
            key = _key(np.asarray(z, dtype=float).tolist())
        if key in self._cache:
            return self._cache[key]
        if self.n_evals >= self.budget:
            raise _BudgetExhausted
        self.n_evals += 1
        if math.isnan(val):
            val = float(self.score(self.family.natural(np.asarray(z, dtype=float))).value)
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
    The scale axis of the grid widens with the objective's alpha, as
    :class:`_Objective` resolves it: not at all for a KL, which has none.
    ``FitResult.config`` echoes ``alpha`` as given.
    """
    target = _target_density(target, family)
    x0 = family.init_from(target)
    sd = np.sqrt(np.diag(np.atleast_2d(target.cov)))
    for i, role in enumerate(family.param_roles):
        if role != "location" and x0[i] <= 0.0:
            # positive coordinate started out of range (e.g. a
            # positive-support family aimed at a zero-mean target)
            x0[i] = max(1e-8, 0.1 * float(sd[min(i, sd.size - 1)]))
    z0 = family.internal(x0)
    obj = _Objective(target, family, objective_kind, alpha, quad_tol, budget, x0)

    # keep the coarse grid to a minority of the budget so refinement runs
    small = budget < 300 or len(family.param_roles) >= 3
    loc_offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) if small else np.array(
        [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    )
    n_scale = 9 if small else 13
    amax = 1.0 if obj.alpha is None else math.sqrt(obj.alpha)
    scale_offsets = np.linspace(math.log(0.2), math.log(4.0 * amax), n_scale)

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
    keys = _keys(grid)
    # the grid in one call where the pair has a closed form, by position;
    # each member still counts as one evaluation, in grid order
    values = chain(obj.batch(grid[:budget]), repeat(math.nan))

    trace: list[dict] = []

    def improved(z, val):
        trace.append({"step": obj.n_evals, "params": family.natural(z).tolist(),
                      "objective": val})

    best_val = np.inf
    best_z = None
    try:
        for zrow, key, value in zip(grid, keys, values):
            v = obj(zrow, key, value)
            if v < best_val:
                best_val = v
                best_z = np.array(zrow)
                improved(best_z, best_val)
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
                    improved(best_z, best_val)
            steps = steps * 0.35
            if sweep_start - best_val < 1e-8:
                converged = True
                break
    except _BudgetExhausted:
        converged = False
        if obj.best_val < best_val:
            # the budget ran out inside a line search that had improved
            best_val, best_z = obj.best_val, obj.best_z
            improved(best_z, best_val)

    params = family.natural(best_z)
    final = obj.score(params)
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
    or the model's exact posterior. Its dimension must be the family's, and
    it must declare the mean and covariance that a fit starts from."""
    if isinstance(target, tuple) and len(target) == 2 and isinstance(target[0], BayesModel):
        model, data = target
        target = model.exact_posterior(np.asarray(data, dtype=float))
    elif not isinstance(target, Density):
        raise TypeError("target must be a Density or a (BayesModel, data) pair")
    if target.dim != family.dim:
        raise ValueError(f"family dim {family.dim} != target dim {target.dim}")
    missing = [m for m, v in (("mean", target.mean), ("covariance", target.cov)) if v is None]
    if missing:
        raise ValueError(f"the target declares no {' and no '.join(missing)}; "
                         "a fit starts from its mean and covariance")
    return target
