"""Deterministic divergence minimization over families."""

import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from renyi_vi import divergence, varfit
from renyi_vi.distributions import Density, gaussian_members, make_gaussian, make_mixture
from renyi_vi.models import exponential_model, gaussian_mean_model
from renyi_vi.varfit import (
    DominanceError,
    FAMILY_BUILDERS,
    _brent_1d,
    fit,
    gamma_family,
    gaussian_family,
    isotropic_gaussian_family,
    laplace_family,
)

ANISO = make_gaussian([0.0, 0.0], [[1.0, 0.9], [0.9, 1.0]])


def iso_renyi_optimum(alpha, lams=(1.9, 0.1)):
    """Dense-grid oracle for the isotropic-variance optimum, written directly
    from the same-mean divergence in terms of target eigenvalues."""
    l1, l2 = lams
    lo = (alpha - 1.0) * max(lams) / alpha + 1e-9
    s2 = np.linspace(lo, 5.0, 200001)
    v1 = alpha * s2 + (1 - alpha) * l1
    v2 = alpha * s2 + (1 - alpha) * l2
    d = -(np.log(v1) + np.log(v2) - (1 - alpha) * (np.log(l1) + np.log(l2))
          - 2.0 * alpha * np.log(s2)) / (2.0 * (alpha - 1.0))
    return float(s2[int(np.argmin(d))])


class TestConjugateRecovery:
    @pytest.mark.parametrize("kind,alpha", [("renyi-alpha", 2.0),
                                            ("kl-forward", None),
                                            ("kl-reverse", None)])
    def test_family_containing_target_recovers_it(self, kind, alpha):
        post = make_gaussian(0.75, 0.25)
        res = fit(post, gaussian_family(), kind, alpha=alpha)
        assert abs(res.params[0] - 0.75) <= 1e-6
        assert 1 - 1e-4 <= res.params[1] ** 2 / 0.25 <= 1 + 1e-4
        assert res.objective.value <= 1e-8
        assert res.converged


class TestIsotropicFits:
    def test_forward_kl_moment_matches(self):
        res = fit(ANISO, isotropic_gaussian_family(), "kl-forward", budget=700)
        assert abs(res.params[2] ** 2 - 1.0) <= 0.01

    def test_reverse_kl_collapses(self):
        res = fit(ANISO, isotropic_gaussian_family(), "kl-reverse", budget=700)
        assert abs(res.params[2] ** 2 - 0.19) <= 0.01

    def test_renyi_matches_grid_search_oracle(self):
        for alpha in (2.0, 5.0):
            res = fit(ANISO, isotropic_gaussian_family(), "renyi-alpha",
                      alpha=alpha, budget=700)
            assert abs(res.params[2] ** 2 - iso_renyi_optimum(alpha)) <= 0.01

    def test_spread_ordering_chain(self):
        s2 = {}
        for key, kind, a in [("rev", "kl-reverse", None), ("fwd", "kl-forward", None),
                             ("a2", "renyi-alpha", 2.0), ("a5", "renyi-alpha", 5.0)]:
            res = fit(ANISO, isotropic_gaussian_family(), kind, alpha=a, budget=700)
            s2[key] = float(res.params[2] ** 2)
        assert s2["rev"] < s2["fwd"] <= s2["a2"] + 1e-9
        assert s2["a2"] <= s2["a5"] + 1e-9
        assert s2["a5"] <= 1.9 + 0.05


class TestBrentLineSearch:
    def test_quadratic_minimiser_in_few_evaluations(self):
        calls = []

        def f(x):
            calls.append(x)
            return (x - 0.3) ** 2 + 1.0

        x, fx = _brent_1d(f, -1.0, 1.0, 0.0)
        assert len(calls) <= 10
        assert abs(x - 0.3) <= 1e-8
        assert fx == (x - 0.3) ** 2 + 1.0

    @pytest.mark.parametrize("infinite", [lambda x: x < 0.0, lambda x: x > 0.8],
                             ids=["left", "right"])
    def test_infinite_part_of_bracket(self, infinite):
        # numpy scalars on purpose: inf - inf on them would warn
        def f(x):
            return np.float64(np.inf) if infinite(x) else np.float64((x - 0.5) ** 2)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, fx = _brent_1d(f, np.float64(-1.5), np.float64(1.5), np.float64(0.2))
        assert np.isfinite(fx)
        assert abs(x - 0.5) <= 1e-7

    def test_start_point_is_returned_when_nothing_beats_it(self):
        assert _brent_1d(lambda x: abs(x - 0.25), 0.0, 0.5, 0.25) == (0.25, 0.0)


# (target, family, objective, alpha, budget): the figure1 fits, the 1-D
# Gaussian family under each objective and the Laplace family under both
# KLs, each also with a budget that ends inside its start grid (100 of the
# 225 members, 30 of the 45).
BATCHED_FITS = [
    (ANISO, "isotropic-gaussian-2d", kind, alpha, budget)
    for kind, alpha in (("kl-reverse", None), ("kl-forward", None), ("renyi-alpha", 5.0))
    for budget in (700, 100)
] + [
    (make_gaussian(0.3, 0.04), "gaussian", kind, alpha, budget)
    for kind, alpha in (("kl-reverse", None), ("kl-forward", None), ("renyi-alpha", 2.0))
    for budget in (400, 260, 30)
] + [
    (make_gaussian(0.3, 0.04), "laplace", kind, None, budget)
    for kind in ("kl-reverse", "kl-forward") for budget in (260, 30)
]


@pytest.mark.parametrize("target,family,kind,alpha,budget", BATCHED_FITS)
def test_batched_start_grid_leaves_the_fit_as_it_was(monkeypatch, target, family, kind,
                                                     alpha, budget):
    batched = []

    def recording(*args):
        batched.append(divergence.closed_batch(*args))
        return batched[-1]

    monkeypatch.setattr(varfit, "closed_batch", recording)
    res = fit(target, FAMILY_BUILDERS[family](), kind, alpha=alpha, budget=budget)
    assert len(batched) == 1 and batched[0] is not None
    # the reference scores every grid member alone, on Members of one
    monkeypatch.setattr(varfit._Objective, "batch", lambda self, zs: [])
    ref = fit(target, FAMILY_BUILDERS[family](), kind, alpha=alpha, budget=budget)
    assert len(batched) == 1
    assert res.params.tobytes() == ref.params.tobytes()
    assert res.objective == ref.objective
    assert (res.n_evals, res.converged) == (ref.n_evals, ref.converged)
    assert repr(res.trace) == repr(ref.trace)
    assert res.n_evals <= budget


@pytest.mark.parametrize("family", ["gaussian", "laplace", "isotropic-gaussian-2d"])
def test_member_holds_the_bits_of_the_density(family):
    fam = FAMILY_BUILDERS[family]()
    rng = np.random.default_rng(3)
    k = len(fam.param_names)
    params = np.column_stack([rng.normal(0.0, 3.0, (4000, k - 1)),
                              np.exp(rng.uniform(-8.0, 8.0, 4000))])
    # a scale whose square is not s * s: the members square as unpack does
    assert any(s * s != s ** 2 for s in params[:, -1].tolist())
    batch = fam.unpack_members(params)
    for i, p in enumerate(params):
        m, d = fam.unpack_members(p), fam.unpack(p)
        assert (m.kind, m.dim, m.entropy, m.chol, m.log_det) == (
            d.kind, d.dim, d.entropy, d.chol, d.log_det)
        assert m.mean == tuple(d.mean.tolist())
        assert m.cov == tuple(tuple(row[:i + 1]) for i, row in enumerate(d.cov.tolist()))
        if d.kind == "laplace":
            assert m.params == d.params
        # the batch holds the same bits, member by member, in its arrays
        assert repr(member_of(batch, i)) == repr(m)
    bad_rows = [[math.nan, 1.0], [0.0, 0.0], [0.0, math.nan], [0.0, math.inf]]
    if family != "laplace":  # a variance that overflows; make_laplace takes the scale
        bad_rows.append([0.0, 1e200])
    for bad in bad_rows:
        p = np.array([0.0] * (k - 2) + bad)
        with pytest.raises(ValueError) as refused:
            fam.unpack(p)
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            fam.unpack_members(p)
        # a batch raises for its first refused member
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            fam.unpack_members(np.vstack([params[:3], p, params[3:5]]))


@pytest.mark.parametrize("sd", [1e200, np.float64(1e200), np.array([1.0, 1e200])])
def test_member_whose_variance_overflows_is_refused_by_name(sd):
    # Python's ** 2 raises OverflowError: the members refuse the infinite
    # variance as make_gaussian does
    with pytest.raises(ValueError) as refused:
        make_gaussian(0.0, math.inf)
    mean = (np.zeros(np.shape(sd)),) if np.ndim(sd) else (0.0,)
    with pytest.raises(ValueError, match=re.escape(str(refused.value))):
        gaussian_members(mean, sd)


def test_start_grid_member_that_overflows_is_left_to_the_scalar_path():
    fam, target = FAMILY_BUILDERS["gaussian"](), make_gaussian(0.0, 1.0)
    obj = varfit._Objective(target, fam, "renyi-alpha", 2.0, 1e-8, 10, np.array([0.0, 1.0]))
    zs = np.array([[0.5, 0.0], [1e200, 0.0]])
    values = obj.batch(zs)
    assert values[0] == obj.score(fam.natural(zs[0])).value and math.isnan(values[1])
    assert obj.n_evals == 0
    assert obj(zs[0], None, values[0]) == values[0]
    # the scalar path scores the NaN member, and refuses it by name
    with pytest.raises(ValueError, match="overflows at alpha = 2"):
        obj(zs[1], None, values[1])
    assert obj.n_evals == 2


def test_batch_value_counts_once_and_a_repeated_key_hits_the_cache():
    scored = []

    def score(params):
        scored.append(params)
        return divergence.DivergenceEstimate(9.0, "closed-form", 0.0)

    obj = varfit._Objective(make_gaussian(0.0, 1.0), FAMILY_BUILDERS["gaussian"](),
                            "kl-forward", None, 1e-8, 3, np.array([0.0, 1.0]))
    obj.score = score
    z = [np.array([float(i), 0.0]) for i in range(4)]
    assert obj(z[0], None, 1.0) == 1.0
    assert obj(z[0], None, 2.0) == 1.0  # the first value, not counted again
    assert obj(z[1], None, math.nan) == 9.0  # NaN: scored
    assert obj(z[2], None, 3.0) == 3.0
    assert (obj.n_evals, len(scored), obj.best_val) == (3, 1, 1.0)
    with pytest.raises(varfit._BudgetExhausted):
        obj(z[3], None, 4.0)


def member_of(batch, i):
    """Member i of a batch of Members, as Members of one: each array entry
    replaced by its i-th element as a Python float."""
    def pick(v):
        if isinstance(v, np.ndarray):
            return v[i].item()
        if isinstance(v, tuple):
            return tuple(pick(u) for u in v)
        if isinstance(v, dict):
            return {key: pick(u) for key, u in v.items()}
        return v

    return type(batch)(*(pick(v) for v in batch))


# BATCHED_FITS, plus budgets that end inside a line search (240 evaluations
# after a start grid of 225, 55 after one of 45), plus a 2-D target that
# swapping the coordinates changes.
SKEWED = make_gaussian([0.3, -0.2], [[1.0, 0.5], [0.5, 2.0]])
MEMBER_FITS = BATCHED_FITS + [
    (target, "isotropic-gaussian-2d", kind, alpha, budget)
    for target, budget in ((ANISO, 240), (SKEWED, 700))
    for kind, alpha in (("kl-reverse", None), ("kl-forward", None), ("renyi-alpha", 5.0))
] + [
    (make_gaussian(0.3, 0.04), family, kind, alpha, 55)
    for family, kinds in (("gaussian", (("kl-reverse", None), ("kl-forward", None),
                                        ("renyi-alpha", 2.0))),
                          ("laplace", (("kl-reverse", None), ("kl-forward", None))))
    for kind, alpha in kinds
]


@pytest.mark.parametrize("target,family,kind,alpha,budget", MEMBER_FITS)
def test_member_records_leave_the_fit_as_it_was(target, family, kind, alpha, budget):
    fam = FAMILY_BUILDERS[family]()
    built = []

    def unpack(p):
        built.append(p)
        return fam.unpack(p)

    res = fit(target, dataclasses.replace(fam, unpack=unpack), kind, alpha=alpha,
              budget=budget)
    # a closed-form pair builds one Density per fit: FitResult.density
    assert len(built) == 1 and isinstance(res.density, Density)
    ref = fit(target, dataclasses.replace(fam, unpack_members=None), kind, alpha=alpha,
              budget=budget)
    assert res.params.tobytes() == ref.params.tobytes()
    assert res.objective == ref.objective
    assert (res.n_evals, res.converged) == (ref.n_evals, ref.converged)
    assert repr(res.trace) == repr(ref.trace)
    if budget in (240, 55):  # stopped inside a line search
        assert res.n_evals == budget and not res.converged


@pytest.mark.parametrize("model,theta0,family", [
    (gaussian_mean_model(0.0, 1.0), 0.5, "laplace"),
    (exponential_model(), 2.0, "gamma"),
    (exponential_model(), 2.0, "gaussian"),  # a family with members, no closed form
], ids=["laplace", "gamma", "gaussian-on-truncated-gamma"])
def test_quadrature_pairs_score_densities(monkeypatch, model, theta0, family):
    # one renyi_quadrature call per evaluation, plus the final score, each
    # on two Densities: the benchmark counts these calls against n_evals
    target = (model, model.simulate(theta0, 200, 3))
    fam = FAMILY_BUILDERS[family]()
    members = []
    if fam.unpack_members is not None:
        build = fam.unpack_members

        def unpack_members(p):
            members.append(p)
            return build(p)

        fam = dataclasses.replace(fam, unpack_members=unpack_members)
    pairs = []
    quadrature = divergence.renyi_quadrature

    def recording(p, q, *args, **kwargs):
        pairs.append((type(p), type(q)))
        return quadrature(p, q, *args, **kwargs)

    monkeypatch.setattr(divergence, "renyi_quadrature", recording)
    res = fit(target, fam, "renyi-alpha", alpha=2.0, budget=120, quad_tol=1e-7)
    assert len(pairs) == res.n_evals + 1
    assert set(pairs) == {(Density, Density)}
    # one batch, for the start grid, and Members of one at most, which tell
    # the scorer that the pair has no closed form
    assert sum(np.ndim(p) == 1 for p in members) <= 1
    assert sum(np.ndim(p) == 2 for p in members) <= 1


@pytest.mark.parametrize("family", ["gaussian", "laplace"])
@pytest.mark.parametrize("kind", ["kl-forward", "kl-reverse"])
def test_kl_fit_ignores_alpha(kind, family):
    # neither KL has an alpha: the start grid is sized from the resolved
    # objective, so an alpha given with a KL moves nothing but the echo
    target = make_gaussian(0.3, 0.04)
    ref = fit(target, FAMILY_BUILDERS[family](), kind)
    for alpha in (2.0, 5.0):
        res = fit(target, FAMILY_BUILDERS[family](), kind, alpha=alpha)
        assert res.params.tobytes() == ref.params.tobytes()
        assert res.objective == ref.objective
        assert (res.n_evals, res.converged) == (ref.n_evals, ref.converged)
        assert repr(res.trace) == repr(ref.trace)
        assert res.config["alpha"] == alpha and ref.config["alpha"] is None


@pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
def test_natural_maps_a_batch_as_it_maps_each_row(family):
    fam = FAMILY_BUILDERS[family]()
    k = len(fam.param_roles)
    zs = np.random.default_rng(5).normal(0.0, 4.0, (300, k))
    batch = fam.natural(zs)
    assert batch.shape == zs.shape
    assert batch.tobytes() == np.array([fam.natural(z) for z in zs]).tobytes()
    # each non-location coordinate is math.exp of its entry
    ref = [[v if role == "location" else math.exp(v) for v, role in zip(z, fam.param_roles)]
           for z in zs.tolist()]
    assert batch.tobytes() == np.array(ref).tobytes()


class TestFitMechanics:
    def test_trace_objective_nonincreasing(self):
        post = make_gaussian(0.2, 0.04)
        res = fit(post, laplace_family(), "renyi-alpha", alpha=2.0, quad_tol=1e-7)
        objs = [t["objective"] for t in res.trace]
        assert all(objs[i + 1] <= objs[i] for i in range(len(objs) - 1))

    def test_laplace_fit_evaluation_count(self):
        # the benchmark's budget: a 5 x 9 start grid, then line searches;
        # fixed 30-step golden sections took 173 evaluations here
        post = make_gaussian(0.2, 0.04)
        res = fit(post, laplace_family(), "renyi-alpha", alpha=2.0, budget=260,
                  quad_tol=1e-7)
        assert res.converged
        assert res.n_evals <= 80
        objs = [t["objective"] for t in res.trace]
        assert all(objs[i + 1] <= objs[i] for i in range(len(objs) - 1))

    def test_budget_stop_returns_best_scored_point(self, monkeypatch):
        post = make_gaussian(0.2, 0.04)
        # the scorer reaches the quadrature through the divergence dispatcher
        quadrature = divergence.renyi_quadrature
        for budget in range(46, 101, 3):
            scored = []

            def recording(*args, **kwargs):
                est = quadrature(*args, **kwargs)
                scored.append(est.value)
                return est

            monkeypatch.setattr(divergence, "renyi_quadrature", recording)
            res = fit(post, laplace_family(), "renyi-alpha", alpha=2.0, budget=budget)
            assert res.objective.value == min(scored), budget
            assert res.trace[-1]["objective"] == min(scored), budget

    def test_dominance_error(self):
        with pytest.raises(DominanceError, match="dominate"):
            fit(make_gaussian(0.0, 1.0), gamma_family(), "renyi-alpha", alpha=2.0)

    def test_budget_limits_evaluations(self):
        post = make_gaussian(0.0, 1.0)
        res = fit(post, laplace_family(), "renyi-alpha", alpha=2.0, budget=60,
                  quad_tol=1e-6)
        assert res.n_evals <= 60

    def test_alpha_required_for_renyi(self):
        with pytest.raises(ValueError, match="alpha"):
            fit(make_gaussian(0, 1), gaussian_family(), "renyi-alpha")

    def test_infinite_alpha_rejected_by_name(self):
        with pytest.raises(ValueError, match="alpha must be finite"):
            fit(make_gaussian(0, 1), laplace_family(), "renyi-alpha", alpha=math.inf)

    @pytest.mark.parametrize("mean, cov, missing", [
        ([0.2], None, "no covariance"),
        (None, None, "no mean and no covariance"),
        (None, [[0.04]], "no mean;"),
    ], ids=["mean-only", "neither", "cov-only"])
    def test_target_without_moments_refused_by_name(self, mean, cov, missing):
        # a fit starts from the target's mean and covariance
        g = make_gaussian(0.2, 0.04)
        target = Density(1, g.support, g.log_pdf,
                         mean=None if mean is None else np.array(mean),
                         cov=None if cov is None else np.array(cov))
        for family in (gaussian_family(), laplace_family()):
            with pytest.raises(ValueError, match=f"declares {missing}"):
                fit(target, family, "renyi-alpha", alpha=2.0)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            fit(make_gaussian(0, 1), gaussian_family(), "hellinger")

    def test_result_serializes_to_json(self):
        res = fit(make_gaussian(0.3, 0.5), gaussian_family(), "kl-forward")
        blob = res.to_json()
        parsed = json.loads(blob)
        assert parsed["objective_kind"] == "kl-forward"
        assert len(parsed["params"]) == 2
        assert parsed["converged"] is True

    def test_model_data_target_form(self):
        m = gaussian_mean_model(0.0, 1.0)
        data = m.simulate(0.5, 30, seed=1)
        res = fit((m, data), gaussian_family(), "renyi-alpha", alpha=2.0)
        post = m.exact_posterior(data)
        assert abs(res.params[0] - float(post.mean[0])) <= 1e-6

    def test_gamma_family_on_exponential_posterior(self):
        m = exponential_model()
        data = m.simulate(2.0, 150, seed=5)
        res = fit((m, data), gamma_family(), "renyi-alpha", alpha=2.0,
                  budget=200, quad_tol=1e-7)
        assert res.converged
        post = m.exact_posterior(data)
        assert abs(res.params[0] - float(post.mean[0])) <= 0.01
        assert res.objective.value <= 1e-3  # posterior is Gamma up to truncation


def test_family_registry_complete():
    assert set(FAMILY_BUILDERS) == {
        "gaussian", "laplace", "logistic", "gamma", "isotropic-gaussian-2d"
    }
    for name, builder in FAMILY_BUILDERS.items():
        fam = builder()
        assert fam.name == name
        assert len(fam.param_names) == len(fam.param_roles)
        assert set(fam.param_roles) <= {"location", "positive", "scale"}


def _posterior(model, theta0):
    return model.exact_posterior(model.simulate(theta0, 100, 0))


# Each family's start point (init_from) on each target of its dimension, as
# float.hex: the target's first mean coordinates, then the scale that
# matches sqrt(trace(cov) / d). The 1-D values are the target's own sd.
START_TARGETS = {
    "gaussian-mean-posterior": lambda: _posterior(gaussian_mean_model(0.0, 1.0), 0.5),
    "truncated-gamma-posterior": lambda: _posterior(exponential_model(), 2.0),
    "gaussian-mixture": lambda: make_mixture(
        [0.3, 0.7], [make_gaussian(-1.0, 0.5), make_gaussian(2.0, 1.5)]),
    "anisotropic-2d": lambda: ANISO,
    "skewed-2d": lambda: SKEWED,
}
START_PINS = {
    ("gaussian-mean-posterior", "gaussian"): ("0x1.26936452ec696p-1", "0x1.9791363068b54p-4"),
    ("gaussian-mean-posterior", "laplace"): ("0x1.26936452ec696p-1", "0x1.20318cc6a8f5dp-4"),
    ("gaussian-mean-posterior", "logistic"): ("0x1.26936452ec696p-1", "0x1.c1683d44b4af1p-5"),
    ("gaussian-mean-posterior", "gamma"): ("0x1.26936452ec696p-1", "0x1.9791363068b54p-4"),
    ("truncated-gamma-posterior", "gaussian"): ("0x1.b5ffb6060e9c5p+0", "0x1.5ca8fe783f131p-3"),
    ("truncated-gamma-posterior", "laplace"): ("0x1.b5ffb6060e9c5p+0", "0x1.ed14739463ff1p-4"),
    ("truncated-gamma-posterior", "logistic"): ("0x1.b5ffb6060e9c5p+0", "0x1.8073eb7b06c29p-4"),
    ("truncated-gamma-posterior", "gamma"): ("0x1.b5ffb6060e9c5p+0", "0x1.5ca8fe783f131p-3"),
    ("gaussian-mixture", "gaussian"): ("0x1.1999999999999p+0", "0x1.c201c6612284ap+0"),
    ("gaussian-mixture", "laplace"): ("0x1.1999999999999p+0", "0x1.3e33f4ccd3cfbp+0"),
    ("gaussian-mixture", "logistic"): ("0x1.1999999999999p+0", "0x1.f034227762961p-1"),
    ("gaussian-mixture", "gamma"): ("0x1.1999999999999p+0", "0x1.c201c6612284ap+0"),
    ("anisotropic-2d", "isotropic-gaussian-2d"): ("0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"),
    ("skewed-2d", "isotropic-gaussian-2d"): (
        "0x1.3333333333333p-2", "-0x1.999999999999ap-3", "0x1.3988e1409212ep+0"),
}


@pytest.mark.parametrize("target,family", sorted(START_PINS))
def test_start_points_pinned(target, family):
    t = START_TARGETS[target]()
    fam = FAMILY_BUILDERS[family]()
    assert fam.dim == t.dim
    x0 = fam.init_from(t)
    assert x0.dtype == np.float64
    assert tuple(v.hex() for v in x0.tolist()) == START_PINS[target, family]


def test_every_family_is_pinned_on_every_target_of_its_dimension():
    pairs = {(target, family) for target, build in START_TARGETS.items()
             for family, fam in FAMILY_BUILDERS.items() if fam().dim == build().dim}
    assert pairs == set(START_PINS)
