"""Deterministic divergence minimization over families."""

import json
import math
import warnings

import numpy as np
import pytest

from renyi_vi import divergence
from renyi_vi.distributions import make_gaussian
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
    score_batch = divergence._score_batch

    def recording(*args):
        batched.append(score_batch(*args))
        return batched[-1]

    monkeypatch.setattr(divergence, "_score_batch", recording)
    res = fit(target, FAMILY_BUILDERS[family](), kind, alpha=alpha, budget=budget)
    assert len(batched) == 1 and batched[0] is not None
    for table in ("_RENYI_CLOSED", "_KL_CLOSED"):
        monkeypatch.setattr(divergence, table, {pair: (row[0], None) for pair, row
                                                in getattr(divergence, table).items()})
    ref = fit(target, FAMILY_BUILDERS[family](), kind, alpha=alpha, budget=budget)
    assert batched[1:] == [None]
    assert res.params.tobytes() == ref.params.tobytes()
    assert res.objective == ref.objective
    assert (res.n_evals, res.converged) == (ref.n_evals, ref.converged)
    assert repr(res.trace) == repr(ref.trace)
    assert res.n_evals <= budget


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
