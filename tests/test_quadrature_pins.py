"""Bit-identity pins for 1-D quadrature.

Each case is one seeded call to ``renyi_quadrature``, ``kl_forward`` (or,
for a pair that ``kl_forward`` scores in closed form, the ``_kl_quadrature``
path behind it), ``interval_mass`` or bare ``integrate``; its value, error
estimate, panel count and convergence flag are pinned as ``float.hex``. A
change meant to leave 1-D quadrature numerically alone must keep every pin.
A change that moves them on purpose regenerates ``EXPECTED`` (``python
tests/test_quadrature_pins.py`` prints the table) and records the move in
CHANGES.md.
"""

import dataclasses
import math
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renyi_vi.distributions import (
    Density,
    dominates,
    interval_mass,
    make_gamma,
    make_gaussian,
    make_laplace,
    make_logistic,
    make_mixture,
    make_uniform,
)
from renyi_vi import divergence, numerics, varfit
from renyi_vi.divergence import (
    DOMINANCE,
    QUADRATURE,
    DivergenceEstimate,
    kl_forward,
    renyi_quadrature,
)
from renyi_vi.models import exponential_model, gaussian_mean_model
from renyi_vi.numerics import QuadratureSpec, integrate

GAUSS = make_gaussian(0.51, 1.0 / 1001.0)
LAPLACE = make_laplace(0.512, 0.027)
GAUSS_WIDE = make_gaussian(-0.3, 0.04)
LOGISTIC = make_logistic(-0.28, 0.15)
GAMMA_P = make_gamma(30.0, 15.0)
GAMMA_Q = make_gamma(28.0, 14.5)
EXP_MODEL = exponential_model()
EXP_POST = EXP_MODEL.exact_posterior(EXP_MODEL.simulate(2.0, 200, seed=3))
EXP_GAMMA = make_gamma(201.0, 101.0)
GM_MODEL = gaussian_mean_model()


def _renyi(p, q, alpha):
    return lambda: renyi_quadrature(p, q, alpha)


def _kl(p, q):
    return lambda: kl_forward(p, q)


def _kl_quadrature(p, q):
    return lambda: divergence._kl_quadrature(p, q, 1e-9)


def _integrate(f, *args, **kwargs):
    return lambda: integrate(f, QuadratureSpec(*args, **kwargs))


def _with_refinement_cap(cap, run):
    """``run()`` with the quadrature's cap on panel splits set to ``cap``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_MAX_REFINEMENTS", cap)
        return run()


CASES = {
    **{f"renyi-gauss-laplace-{a}": _renyi(GAUSS, LAPLACE, a) for a in (1.5, 2.0, 5.0, 20.0)},
    **{f"renyi-gauss-logistic-{a}": _renyi(GAUSS_WIDE, LOGISTIC, a) for a in (1.5, 2.0, 5.0, 20.0)},
    **{f"renyi-gauss-gauss-{a}": _renyi(make_gaussian(1.0, 0.5), make_gaussian(1.2, 0.8), a)
       for a in (2.0, 5.0)},
    **{f"renyi-gamma-gamma-{a}": _renyi(GAMMA_P, GAMMA_Q, a) for a in (1.5, 2.0, 5.0)},
    **{f"renyi-exp-posterior-gamma-{a}": _renyi(EXP_POST, EXP_GAMMA, a) for a in (2.0, 20.0)},
    "renyi-laplace-logistic-2.0": _renyi(make_laplace(0.0, 0.5), make_logistic(0.1, 0.6), 2.0),
    "renyi-inf-tail": _renyi(make_gaussian(0.0, 1.0), make_gaussian(0.0, 0.25), 2.0),
    "renyi-inf-dominance": _renyi(make_gaussian(0.0, 1.0), make_gamma(2.0, 1.0), 2.0),
    "renyi-bounded-uniform": _renyi(make_uniform(0.0, 1.0), make_gaussian(0.5, 1.0), 5.0),
    "renyi-mixture-gauss": _renyi(
        make_mixture([0.3, 0.7], [make_gaussian(-1.0, 0.3), make_gaussian(1.0, 0.4)]),
        make_laplace(0.2, 1.5), 1.5),
    "kl-gauss-laplace": _kl_quadrature(GAUSS, LAPLACE),
    "kl-laplace-gauss": _kl_quadrature(LAPLACE, GAUSS),
    "kl-gauss-logistic": _kl(GAUSS_WIDE, LOGISTIC),
    "kl-gamma-gamma": _kl(GAMMA_P, GAMMA_Q),
    "kl-exp-posterior-gamma": _kl(EXP_POST, EXP_GAMMA),
    "kl-bounded-uniform": _kl(make_uniform(-1.0, 2.0), make_logistic(0.5, 1.0)),
    "kl-inf-dominance": _kl(make_gaussian(0.0, 1.0), make_gamma(2.0, 1.0)),
    "mass-gauss": lambda: interval_mass(GAUSS, 0.49, 0.6),
    "mass-laplace": lambda: interval_mass(LAPLACE, -np.inf, 0.5),
    "mass-logistic": lambda: interval_mass(LOGISTIC, -0.5, np.inf),
    "mass-gamma": lambda: interval_mass(GAMMA_P, 1.5, 2.5),
    "mass-exp-posterior": lambda: interval_mass(EXP_POST, 1.8, 2.2),
    # sd of a few ulps of the mean: rounding merges two bulk points
    "mass-gauss-merged-bulk-points": lambda: interval_mass(make_gaussian(1e4, 1e-22),
                                                           9e3, 1.1e4),
    "integrate-normal-line": _integrate(lambda x: np.exp(-0.5 * x * x), -np.inf, np.inf),
    "integrate-half-line-bps": _integrate(lambda x: x**3 * np.exp(-x), 0.0, np.inf,
                                          breakpoints=(1.0, 3.0, 5.0, 1e9)),
    "integrate-left-tail": _integrate(lambda x: np.exp(x - 0.1 * x * x), -np.inf, 2.0,
                                      rel_tol=1e-10),
    "integrate-finite-bps": _integrate(np.cos, -3.0, 5.0, rel_tol=1e-9,
                                       breakpoints=(-3.0, 0.0, 0.0, 1.0 + 1e-16, 7.0)),
    "integrate-narrow-bump": _integrate(lambda x: np.exp(-0.5 * ((x - 3.7) / 1e-4) ** 2),
                                        -np.inf, np.inf, breakpoints=(3.7 - 1e-4, 3.7, 3.7 + 1e-4)),
    "integrate-unconverged": lambda: _with_refinement_cap(
        5, _integrate(lambda x: np.abs(np.sin(40.0 * x)), 0.0, 10.0, rel_tol=1e-10)),
    "integrate-kink": _integrate(lambda x: np.abs(x - 0.3), -1.0, 1.0),
}


def _pin(result):
    """(value, error, panels, converged) with the floats as float.hex; an
    interval mass is a bare float."""
    if isinstance(result, float):
        return (result.hex(),)
    return (float(result.value).hex(), float(result.error).hex(),
            int(result.panels), bool(result.converged))


EXPECTED = {
    'renyi-gauss-laplace-1.5': ('0x1.16fe2f0bd1ec0p-4', '0x1.6430d1840b023p-57', 40, True),
    'renyi-gauss-laplace-2.0': ('0x1.4eb4d059db5c0p-4', '0x1.c6d6cd63bce4dp-54', 40, True),
    'renyi-gauss-laplace-5.0': ('0x1.25acd74a6eac0p-3', '0x1.dff7dd1680149p-56', 40, True),
    'renyi-gauss-laplace-20.0': ('0x1.1046fddfb5d82p-2', '0x1.902c0dcf02670p-48', 40, True),
    'renyi-gauss-logistic-1.5': ('0x1.32faae7a73b90p-4', '0x1.2bde4bbce36fep-62', 39, True),
    'renyi-gauss-logistic-2.0': ('0x1.5d12770d06170p-4', '0x1.41ea9e1285004p-63', 39, True),
    'renyi-gauss-logistic-5.0': ('0x1.e54fe6e0f989ap-4', '0x1.273b15e1fcc49p-63', 39, True),
    'renyi-gauss-logistic-20.0': ('0x1.4c0c15712036dp-3', '0x1.8dad14980b056p-60', 39, True),
    'renyi-gauss-gauss-2.0': ('0x1.cb51d450798a0p-4', '0x1.92f7767241b61p-54', 40, True),
    'renyi-gauss-gauss-5.0': ('0x1.5d1d0081d1cdep-3', '0x1.0d5b442acea27p-52', 40, True),
    'renyi-gamma-gamma-1.5': ('0x1.bfa13479be6c0p-6', '0x1.a303dae2d07fap-30', 36, True),
    'renyi-gamma-gamma-2.0': ('0x1.241285473d7d0p-5', '0x1.6477ddb2094f5p-31', 36, True),
    'renyi-gamma-gamma-5.0': ('0x1.43f055106523cp-4', '0x1.6b0cbecbe582bp-37', 36, True),
    'renyi-exp-posterior-gamma-2.0': ('0x1.401acf0fa3fcdp+1', '0x1.01c42d1699f24p-44', 40, True),
    'renyi-exp-posterior-gamma-20.0': ('0x1.75cdf81f079b7p+3', '0x1.be68469fc9498p-47', 47, True),
    'renyi-laplace-logistic-2.0': ('0x1.28c0dbaf6d776p-2', '0x1.46f70a34918d6p-63', 39, True),
    'renyi-inf-tail': ('inf', '0x0.0p+0', 0, True),
    'renyi-inf-dominance': ('inf', '0x0.0p+0', 0, True),
    'renyi-bounded-uniform': ('0x1.ed4b71d508a8fp-1', '0x1.d7b186ead8987p-65', 8, True),
    'renyi-mixture-gauss': ('0x1.86f4a4cbe1564p-2', '0x1.437664674b0a3p-58', 59, True),
    'kl-gauss-laplace': ('0x1.ae99c1f36c712p-5', '0x1.a0203bfe380e6p-56', 40, True),
    'kl-laplace-gauss': ('0x1.d74cb1cbc98adp-4', '0x1.af1a153810c38p-38', 42, True),
    'kl-gauss-logistic': ('0x1.f4eb678205ef1p-5', '0x1.68526a09b358dp-63', 39, True),
    'kl-gamma-gamma': ('0x1.310f4e9747328p-6', '0x1.52d5f6b2e30d0p-46', 37, True),
    'kl-exp-posterior-gamma': ('0x1.57dd321b1738cp+0', '0x1.90b72170031e2p-50', 40, True),
    'kl-bounded-uniform': ('0x1.dccf46f5ed59ap-2', '0x1.1506ad7f08e30p-64', 12, True),
    'kl-inf-dominance': ('inf', '0x0.0p+0', 0, True),
    'mass-gauss': ('0x1.77fd68996066dp-1',),
    'mass-laplace': ('0x1.4848cbbe49547p-2',),
    'mass-logistic': ('0x1.a00694aae1f37p-1',),
    'mass-gamma': ('0x1.aaadb1c0ec609p-1',),
    'mass-exp-posterior': ('0x1.9196a808785fcp-2',),
    'mass-gauss-merged-bulk-points': ('0x1.ffffffed768fcp-1',),
    'integrate-normal-line': ('0x1.40d931ff6b6a3p+1', '0x1.2b10789f40037p-25', 8, True),
    'integrate-half-line-bps': ('0x1.80000000081c1p+2', '0x1.09fa7720255f0p-19', 6, True),
    'integrate-left-tail': ('0x1.88ae38a78978bp+2', '0x1.df5db8270155cp-38', 7, True),
    'integrate-finite-bps': ('-0x1.a2b73da72e3c8p-1', '0x1.9fc391a66dc17p-40', 3, True),
    'integrate-narrow-bump': ('0x1.66dff83287c32p-13', '0x1.a24ab8411462ap-69', 5, True),
    'integrate-unconverged': ('0x1.93c78d4d1c6f7p+2', '0x1.d7f64b0989c20p-2', 4, False),
    'integrate-kink': ('0x1.170a3ab5470cep+0', '0x1.916ba24b9e9b1p-21', 8, True),
}


def test_cases_all_pinned():
    assert sorted(EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_bit_identical(name):
    assert _pin(CASES[name]()) == EXPECTED[name]


# The 1-D Renyi pass takes its shift from the anchors in the same call of the
# log-integrand as its first nodes. The reference below takes it as it was
# taken before: from a separate evaluation at the anchors, ahead of the pass.

def _two_evaluation_pass(log_integrand, support, anchors, shift, rel_tol):
    """The shifted pass over p's support, seeded at the anchors, with the
    shift already set: (quadrature or None, whether q vanished)."""
    state = {"over": False, "vanished": False}

    def f(x):
        if state["over"]:
            return np.zeros(np.shape(x))
        lv = log_integrand(x) - shift
        top = lv.max(initial=-np.inf)
        if top > divergence.OVERFLOW_NATS:
            state["over"], state["vanished"] = True, top == np.inf
            return np.zeros(lv.shape)
        return np.exp(lv)

    res = integrate(f, QuadratureSpec(*support, rel_tol=rel_tol, breakpoints=anchors))
    if state["over"] or not math.isfinite(res.value):
        return None, state["vanished"]
    return res, False


def two_evaluation_renyi(p, q, alpha, rel_tol=1e-8):
    """1-D ``renyi_quadrature`` with the shift from its own evaluation of the
    log-integrand at the anchors, the pass evaluating it again on its nodes."""
    alpha = float(alpha)
    if not dominates(p, q):
        return DivergenceEstimate(np.inf, QUADRATURE, 0.0, alpha, reason=DOMINANCE)
    tails = divergence._tail_verdict(p, q, alpha)
    if tails != divergence._FINITE:
        return DivergenceEstimate(np.inf, QUADRATURE, 0.0, alpha, reason=tails)

    def log_integrand(x):
        lp, lq = p.log_pdf(x), q.log_pdf(x)
        if lp.min(initial=np.inf) > -np.inf:
            return alpha * lp + (1.0 - alpha) * lq
        out = np.full(lp.shape, -np.inf)
        ok = lp > -np.inf
        out[ok] = alpha * lp[ok] + (1.0 - alpha) * lq[ok]
        return out

    anchors = divergence._anchor_points_1d(p, q)
    with np.errstate(over="ignore", invalid="ignore") if alpha - 1.0 == alpha else nullcontext():
        shift = float(log_integrand(anchors).max(initial=-np.inf))
    if shift == -np.inf:
        raise ValueError("integrand vanishes on every anchor point")
    if math.isnan(shift):
        raise ValueError(f"the Renyi integrand overflows at alpha = {alpha:g}")
    support = p.support[0]
    res, vanished = _two_evaluation_pass(log_integrand, support, anchors, shift, rel_tol)
    if (res is None or res.value <= 0.0) and not vanished:
        peak = divergence._peak_anchors_1d(log_integrand, anchors, support)
        if peak is not None:
            shift, anchors = peak
            res, vanished = _two_evaluation_pass(log_integrand, support, anchors, shift, rel_tol)
    if vanished:
        return DivergenceEstimate(np.inf, QUADRATURE, 0.0, alpha, reason=DOMINANCE)
    if res is None:
        raise ArithmeticError("Renyi integral overflowed its shift although "
                              "the tails make it finite")
    if res.value <= 0.0:
        raise ArithmeticError("Renyi integral evaluated to a non-positive value")
    value = (shift + np.log(res.value)) / (alpha - 1.0)
    err = res.error / (res.value * (alpha - 1.0))
    return DivergenceEstimate(float(value), QUADRATURE, float(err), alpha,
                              res.converged, res.panels)


def _outcome(renyi_fn, p, q, alpha, rel_tol):
    """The bits of a 1-D Renyi evaluation: value and error as float.hex,
    converged, panels and reason; or the type and message it raised."""
    try:
        est = renyi_fn(p, q, alpha, rel_tol)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    return (float(est.value).hex(), float(est.error).hex(), est.converged, est.panels,
            est.reason)


def assert_matches_two_evaluation(p, q, alpha, rel_tol=1e-8):
    got = _outcome(renyi_quadrature, p, q, alpha, rel_tol)
    assert got == _outcome(two_evaluation_renyi, p, q, alpha, rel_tol)
    return got


@st.composite
def one_d_pairs(draw):
    """(p, q, alpha, rel_tol): p a Gaussian, Laplace, logistic, Gamma,
    truncated-Gamma posterior or two-component mixture; q a Gaussian,
    Laplace or (for p on the half-line) Gamma member near p's bulk, at a
    scale from half to four times p's."""
    kind = draw(st.sampled_from(["gaussian", "laplace", "logistic", "gamma",
                                 "truncated-gamma", "mixture"]))
    loc, scale = draw(st.floats(-3.0, 3.0)), draw(st.floats(0.02, 3.0))
    if kind == "gaussian":
        p = make_gaussian(loc, scale * scale)
    elif kind == "laplace":
        p = make_laplace(loc, scale)
    elif kind == "logistic":
        p = make_logistic(loc, scale)
    elif kind == "gamma":
        p = make_gamma(draw(st.floats(0.5, 60.0)), draw(st.floats(0.2, 20.0)))
    elif kind == "truncated-gamma":
        n = draw(st.sampled_from([1, 10, 100, 1000]))
        p = EXP_MODEL.exact_posterior(np.full(n, 1.0 / draw(st.floats(0.2, 5.0))))
    else:
        shift = draw(st.floats(0.0, 4.0))
        p = make_mixture([0.4, 0.6], [make_gaussian(loc - shift, scale * scale),
                                      make_laplace(loc + shift, scale)])
    centre = float(p.mean[0]) + draw(st.floats(-1.0, 1.0)) * p.sd
    width = p.sd * draw(st.floats(0.5, 4.0))
    # a Gamma q dominates only a p on the half-line
    q_kind = draw(st.sampled_from(["gaussian", "laplace"] + ["gamma"] * (p.support[0][0] == 0.0)))
    if q_kind == "gaussian":
        q = make_gaussian(centre, width * width)
    elif q_kind == "laplace":
        q = make_laplace(centre, width / math.sqrt(2.0))
    else:
        centre = abs(centre) + 1e-3
        q = make_gamma((centre / width) ** 2, centre / width**2)
    alpha = draw(st.one_of(st.floats(1.001, 30.0), st.sampled_from([1e3, 1e6])))
    return p, q, alpha, draw(st.sampled_from([1e-7, 1e-8]))


class TestOneEvaluationPerPass:
    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(one_d_pairs())
    def test_bits_match_the_two_evaluation_shift(self, pair):
        assert_matches_two_evaluation(*pair)

    def test_shift_at_the_last_anchor_matches(self):
        # the largest log-integrand value among the anchors is at the last
        # one, q's largest bulk point, 0.43 nats above the rest
        got = assert_matches_two_evaluation(make_gaussian(1.15, 0.72), make_laplace(0.62, 0.19),
                                            5.0)
        assert got[2] is True and got[4] is None

    def test_reseeded_pass_matches(self):
        # N(0, 1) against Laplace(1, 1): from alpha 1e10 the first pass sums
        # to 0 and is taken again from the located peak
        got = assert_matches_two_evaluation(make_gaussian(0.0, 1.0), make_laplace(1.0, 1.0),
                                            1e10)
        assert got[2] is True and got[3] > 40

    @pytest.mark.parametrize("alpha", [2.0 ** 53, 1e20, 1e308])
    def test_alpha_past_2_53_matches(self, alpha):
        # the errstate path; 1e20 overflows its re-seeded shift, 1e308 to NaN
        assert_matches_two_evaluation(make_gaussian(0.0, 1.0), make_laplace(1.0, 1.0), alpha)

    def test_vanishing_integrand_raises_the_same(self):
        # p keeps a Gaussian's moments and tails but vanishes on |x| <= 2e3,
        # where every anchor lies
        p = dataclasses.replace(
            make_gaussian(0.0, 1.0),
            log_pdf=lambda x: np.where(np.abs(x) > 2e3, -np.abs(x), -np.inf))
        got = assert_matches_two_evaluation(p, make_laplace(2.5, 1.5), 2.0)
        assert got == ("ValueError", "integrand vanishes on every anchor point")

    def test_one_log_pdf_call_per_density_per_pass(self):
        # pairs whose first pass meets the tolerance: one call each, for the
        # anchors and the nodes together. The second is a truncated-Gamma
        # posterior, whose finite support, integrated in x itself, q's
        # Gamma support does not lie in.
        calls = {"p": 0, "q": 0}

        def counted(d, name):
            def log_pdf(x):
                calls[name] += 1
                return d.log_pdf(x)
            return dataclasses.replace(d, log_pdf=log_pdf)

        for p, q, panels in [(make_gaussian(0.3, 1.44), make_laplace(0.0, 1.0), 38),
                             (EXP_POST, EXP_GAMMA, 40)]:
            calls.update(p=0, q=0)
            est = renyi_quadrature(counted(p, "p"), counted(q, "q"), 2.0)
            assert est.converged and est.panels == panels
            assert calls == {"p": 1, "q": 1}


# The box sums, first-pass edges and axis maps as they stood before the 1-D
# path through ``numerics`` was trimmed, in their general form for 1-D and
# 2-D alike, frozen here: the trimmed path must give the same bits.

def _ref_identity_fwd(t):
    return t, 1.0


def _ref_double_infinite_fwd(t):
    tt = t * t
    u = np.maximum(1.0 - tt, 1e-150)
    return t / u, (1.0 + tt) / (u * u)


def _ref_double_infinite_inv(x):
    x = np.minimum(np.maximum(np.asarray(x, dtype=float), -1e150), 1e150)
    return np.divide(np.sqrt(1.0 + 4.0 * x * x) - 1.0, 2.0 * x,
                     out=np.zeros(x.shape), where=x != 0.0)


def _ref_half_infinite_map(a, rising):
    sign = 1.0 if rising else -1.0

    def fwd(t):
        u = np.maximum(1.0 - t, 1e-150)
        return a + sign * t / u, 1.0 / (u * u)

    def inv(x):
        u = sign * (np.asarray(x, dtype=float) - a)
        u = np.clip(u, 0.0, 1e150)
        return u / (1.0 + u)

    return fwd, inv, 0.0, 1.0


def ref_make_map(lower, upper):
    if math.isfinite(lower) and math.isfinite(upper):
        return _ref_identity_fwd, lambda x: x, lower, upper
    if not math.isfinite(lower) and not math.isfinite(upper):
        return _ref_double_infinite_fwd, _ref_double_infinite_inv, -1.0, 1.0
    if math.isfinite(lower):
        return _ref_half_infinite_map(lower, rising=True)
    return _ref_half_infinite_map(upper, rising=False)


def ref_chunk_sums(f, maps, lo, hi):
    m, d = lo.shape
    w_kronrod, gauss, w_gauss = numerics._RULES[d]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs, ws = [], []
    for j, (fwd, *_) in enumerate(maps):
        t = (mid[:, j, None] + half[:, j, None] * numerics._NODES).reshape(
            (m,) + (1,) * j + (15,) + (1,) * (d - 1 - j))
        x, w = fwd(t)
        xs.append(x)
        if fwd is not _ref_identity_fwd:
            ws.append(w)
    if d == 1:
        pts = xs[0].reshape(-1)
    else:
        pts = np.empty((m,) + (15,) * d + (d,))
        for j, x in enumerate(xs):
            pts[..., j] = x
        pts = pts.reshape(-1, d)
    vals = np.asarray(f(pts), dtype=float).reshape((m,) + (15,) * d)
    for w in ws:
        vals = vals * w
    vals = vals.reshape(m, -1)
    volume = half[:, 0]
    for j in range(1, d):
        volume = volume * half[:, j]
    k15 = (vals * w_kronrod).sum(axis=1) * volume
    g7 = ((vals[:, 1::2] if d == 1 else vals[:, gauss]) * w_gauss).sum(axis=1) * volume
    diff = np.abs(k15 - g7)
    err = np.where(diff < 0.005,
                   np.minimum(diff, np.power(200.0 * np.minimum(diff, 0.005), 1.5)), diff)
    return k15, err


def ref_initial_edges(spec, inv, a, b):
    edges = [a, 0.5 * (a + b), b]
    if len(spec.breakpoints):
        bps = inv(np.asarray(spec.breakpoints, dtype=float))
        pad = 1e-12 * (b - a)
        edges = np.concatenate([edges, bps[(bps > a + pad) & (bps < b - pad)]])
    edges = np.sort(edges)
    keep = np.empty(edges.size, dtype=bool)
    keep[0] = True
    np.greater(edges[1:] - edges[:-1], 1e-14 * (b - a), out=keep[1:])
    return edges[keep]


_MAP_KINDS = ["identity", "rising", "falling", "line"]


def _bounds(draw, kind):
    """An interval of the map ``kind``: finite, half-infinite either way, or
    the whole line."""
    a = draw(st.floats(-1e3, 1e3))
    if kind == "identity":
        return a, a + draw(st.sampled_from([1e-9, 1e-3, 1.0, 50.0, 1e4]))
    return {"rising": (a, np.inf), "falling": (-np.inf, a), "line": (-np.inf, np.inf)}[kind]


@st.composite
def box_batches(draw):
    """(bounds, lo, hi, f): m boxes of the transformed variable of an
    interval, as (m, 1) corners inside its range, some narrow, and an
    integrand whose scale puts QUADPACK's error estimate on either side of
    its 0.005 switch."""
    bounds = _bounds(draw, draw(st.sampled_from(_MAP_KINDS)))
    _, _, ta, tb = numerics._make_map(*bounds)
    m = draw(st.integers(1, 40))
    u = np.sort(np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=2 * m,
                                       max_size=2 * m))).reshape(m, 2), axis=1)
    corners = ta + (tb - ta) * u
    lo, hi = corners[:, :1], corners[:, 1:]
    c, s = draw(st.floats(-10.0, 10.0)), draw(st.floats(0.1, 10.0))
    amp = draw(st.sampled_from([1e-3, 1.0, 1e6]))
    f = draw(st.sampled_from([
        lambda x: amp * np.exp(-np.abs(x - c) / s),
        lambda x: amp / (1.0 + ((x - c) / s) ** 2),
        lambda x: amp * np.cos(x / s) * np.exp(-np.abs(x) / s),
    ]))
    return bounds, lo, hi, f


@st.composite
def breakpoint_specs(draw):
    """(bounds, spec): an interval of one of the maps and a spec whose
    breakpoints, if any, fall inside, at or beyond its ends, repeat, sit a
    rounding apart, or are not finite."""
    bounds = _bounds(draw, draw(st.sampled_from(_MAP_KINDS)))
    lo, hi = bounds
    near = [v for v in (lo, hi) if math.isfinite(v)]
    inside = st.floats(-1e4, 1e4) if not near else st.floats(min(near) - 10.0, max(near) + 10.0)
    # 5e-324 maps to +-0.0 on the line, beside its midpoint 0.0
    point = st.one_of(inside, st.sampled_from(near + [0.0, -0.0, 5e-324, -5e-324, 1e15, -1e15,
                                                       1e300, np.nan, np.inf, -np.inf]))
    bps = draw(st.lists(point, max_size=45))
    if bps:  # and some a rounding above another
        bps += [np.nextafter(v, np.inf) for v in draw(st.lists(st.sampled_from(bps), max_size=3))]
    return bounds, QuadratureSpec(lo, hi, breakpoints=tuple(bps))


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


# The 1-D Renyi score as it stood before its set-up was trimmed, frozen here
# on top of the box sums and first edges above: the member a fit builds, its
# bulk points, the pass and the adaptive loop. The trimmed path must build the
# same member and give the same bits.

def _ref_density(**fields):
    """A Density set field by field, as a frozen dataclass's own __init__ sets it."""
    d = object.__new__(Density)
    for f in dataclasses.fields(Density):
        if f.name in fields:
            value = fields[f.name]
        else:
            value = f.default_factory() if f.default is dataclasses.MISSING else f.default
        object.__setattr__(d, f.name, value)
    return d


def ref_laplace(loc, scale):
    k, b = float(loc), float(scale)
    log_2b = float(np.log(2.0 * b))
    const = -log_2b
    return _ref_density(
        dim=1, support=((-np.inf, np.inf),),
        log_pdf=lambda x: const - np.abs(np.asarray(x, dtype=float).reshape(-1) - k) / b,
        mean=np.array([k]), cov=np.array([[2.0 * b * b]]),
        sample_rng=lambda rng, n: rng.laplace(k, b, size=n), kind="laplace",
        params={"loc": k, "scale": b}, entropy=1.0 + log_2b)


def ref_logistic(loc, scale):
    m, s = float(loc), float(scale)

    def log_pdf(x):
        z = (np.asarray(x, dtype=float).reshape(-1) - m) / (2.0 * s)
        log_cosh = np.abs(z) + np.log1p(np.exp(-2.0 * np.abs(z))) - np.log(2.0)
        return -np.log(4.0 * s) - 2.0 * log_cosh

    return _ref_density(
        dim=1, support=((-np.inf, np.inf),), log_pdf=log_pdf, mean=np.array([m]),
        cov=np.array([[s * s * np.pi**2 / 3.0]]),
        sample_rng=lambda rng, n: rng.logistic(m, s, size=n), kind="logistic",
        params={"loc": m, "scale": s}, entropy=float(np.log(s)) + 2.0)


def ref_gamma(mean, sd):
    from scipy.special import digamma, gammaln

    k, beta = float((mean / sd) ** 2), float(mean / sd**2)
    log_beta, log_gamma_k = np.log(beta), gammaln(k)
    const = k * log_beta - log_gamma_k

    def log_pdf(x):
        pts = np.asarray(x, dtype=float).reshape(-1)
        if pts.min(initial=np.inf) > 0.0:
            return const + (k - 1.0) * np.log(pts) - beta * pts
        out = np.full(pts.shape, -np.inf)
        pos = pts > 0.0
        out[pos] = const + (k - 1.0) * np.log(pts[pos]) - beta * pts[pos]
        return out

    entropy = k - log_beta + log_gamma_k + (1.0 - k) * digamma(k)
    return _ref_density(
        dim=1, support=((0.0, np.inf),), log_pdf=log_pdf, mean=np.array([k / beta]),
        cov=np.array([[k / beta**2]]), sample_rng=lambda rng, n: rng.gamma(k, 1.0 / beta, size=n),
        kind="gamma", params={"shape": k, "rate": beta}, entropy=float(entropy))


REF_MEMBERS = {"laplace": ref_laplace, "logistic": ref_logistic, "gamma": ref_gamma}


def ref_log_pdf(d):
    """A 1-D Gaussian's log_pdf as make_gaussian wrote it, on Python floats;
    any other kind's own."""
    if d.kind != "gaussian":
        return d.log_pdf
    loc, scale = float(d.mean[0]), d.chol[0][0]
    const = -0.5 * (float(np.log(2.0 * np.pi)) + d.log_det)

    def log_pdf(x):
        z = (np.asarray(x, dtype=float).reshape(-1) - loc) / scale
        return const - 0.5 * z * z

    return log_pdf


_REF_MULT = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0])
_REF_BULK = np.concatenate([-_REF_MULT[:0:-1], _REF_MULT])


def ref_bulk_points(d):
    lo, hi = d.support[0]
    c, var = d.mean.item(0), d.cov.item(0)
    s = math.sqrt(var) if 0.0 <= var < math.inf else math.nan
    pts = c + s * _REF_BULK
    if not (pts.size and pts[0] > lo and pts[-1] < hi):
        pts = pts[(pts > lo) & (pts < hi)]
    repeat = pts[1:] == pts[:-1]
    return np.delete(pts, np.flatnonzero(repeat) + 1) if np.count_nonzero(repeat) else pts


def ref_anchor_points(p, q):
    lo, hi = p.support[0]
    pts = ref_bulk_points(q)
    if pts.size and not (pts[0] > lo and pts[-1] < hi):
        pts = pts[(pts > lo) & (pts < hi)]
    return np.concatenate([ref_bulk_points(p), pts])


def ref_box_sums(f, axis, lo, hi):
    step = numerics._CHUNK_NODES // 15
    parts = [ref_chunk_sums(f, (axis,), lo[i:i + step], hi[i:i + step])
             for i in range(0, lo.shape[0], step)]
    return np.concatenate([k15 for k15, _ in parts]), np.concatenate([e for _, e in parts])


def ref_integrate(f, spec):
    """1-D ``integrate`` as it stood: (value, error, converged, panels)."""
    axis = ref_make_map(spec.lower, spec.upper)
    edges = ref_initial_edges(spec, *axis[1:])
    lo, hi = edges[:-1, None], edges[1:, None]
    vals, errs = ref_box_sums(f, axis, lo, hi)
    splits_used, converged = 0, False
    for _ in range(numerics._MAX_WAVES):
        total, total_err = float(vals.sum()), float(errs.sum())
        tol = spec.rel_tol * max(abs(total), 1e-300)
        if total_err <= tol:
            converged = True
            break
        if math.isnan(total) or math.isnan(total_err):
            break
        bad = errs > tol / (2.0 * vals.size)
        n_bad = np.count_nonzero(bad)
        if n_bad == 0:
            bad = errs == errs.max()
            n_bad = np.count_nonzero(bad)
        if splits_used + n_bad > numerics._MAX_REFINEMENTS:
            break
        splits_used += n_bad
        blo, bhi = lo[bad], hi[bad]
        mid = 0.5 * (blo + bhi)
        new_lo, new_hi = np.concatenate([blo, mid]), np.concatenate([mid, bhi])
        new_v, new_e = ref_box_sums(f, axis, new_lo, new_hi)
        keep = ~bad
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        vals, errs = np.concatenate([vals[keep], new_v]), np.concatenate([errs[keep], new_e])
    else:
        total, total_err = float(vals.sum()), float(errs.sum())
    return total, total_err, converged, int(vals.size)


def ref_renyi_quadrature(p, q, alpha, rel_tol):
    """1-D ``renyi_quadrature`` as it stood, on the frozen pieces above; the
    dominance and tail verdicts and the peak re-seed, which the trim left
    alone, are the library's."""
    alpha = float(alpha)
    if not dominates(p, q):
        return DivergenceEstimate(np.inf, QUADRATURE, 0.0, alpha, reason=DOMINANCE)
    tails = divergence._tail_verdict(p, q, alpha)
    if tails != divergence._FINITE:
        return DivergenceEstimate(np.inf, QUADRATURE, 0.0, alpha, reason=tails)
    p_log_pdf, q_log_pdf = ref_log_pdf(p), ref_log_pdf(q)

    def log_integrand(x):
        lp, lq = p_log_pdf(x), q_log_pdf(x)
        if lp.min(initial=np.inf) > -np.inf:
            return alpha * lp + (1.0 - alpha) * lq
        out = np.full(lp.shape, -np.inf)
        ok = lp > -np.inf
        out[ok] = alpha * lp[ok] + (1.0 - alpha) * lq[ok]
        return out

    def run_pass(shift, anchors):
        """(shift, quadrature or None, whether q vanished) of one pass."""
        g = {"shift": shift, "void": False, "vanished": False}

        def f(x):
            if g["void"]:
                return np.zeros(len(x))
            if g["shift"] is None:
                k = anchors.size
                lm = log_integrand(np.concatenate([anchors, x]))
                g["shift"] = float(lm[:k].max(initial=-np.inf))
                if g["shift"] == -np.inf:
                    raise ValueError("integrand vanishes on every anchor point")
                lv = lm[k:]
            else:
                lv = log_integrand(x)
            if not g["shift"] < math.inf:
                g["void"], g["vanished"] = True, g["shift"] == math.inf
                return np.zeros(lv.size)
            lv -= g["shift"]
            top = lv.max(initial=-np.inf)
            if top > divergence.OVERFLOW_NATS:
                g["void"], g["vanished"] = True, top == np.inf
                return np.zeros(lv.size)
            return np.exp(lv)

        res = ref_integrate(f, QuadratureSpec(*p.support[0], rel_tol, anchors))
        return g["shift"], None if g["void"] or not math.isfinite(res[0]) else res, g["vanished"]

    anchors = ref_anchor_points(p, q)
    with np.errstate(over="ignore", invalid="ignore") if alpha - 1.0 == alpha else nullcontext():
        shift, res, vanished = run_pass(None, anchors)
    if math.isnan(shift):
        raise ValueError(f"the Renyi integrand overflows at alpha = {alpha:g}")
    if (res is None or res[0] <= 0.0) and not vanished:
        peak = divergence._peak_anchors_1d(log_integrand, anchors, p.support[0])
        if peak is not None:
            shift, res, vanished = run_pass(*peak)
    if vanished:
        return DivergenceEstimate(np.inf, QUADRATURE, 0.0, alpha, reason=DOMINANCE)
    if res is None:
        raise ArithmeticError("Renyi integral overflowed its shift although "
                              "the tails make it finite")
    if res[0] <= 0.0:
        raise ArithmeticError("Renyi integral evaluated to a non-positive value")
    value = (shift + np.log(res[0])) / (alpha - 1.0)
    err = res[1] / (res[0] * (alpha - 1.0))
    return DivergenceEstimate(float(value), QUADRATURE, float(err), alpha, res[2], res[3])


_PROBES = np.array([-1e100, -40.0, -3.0, -0.5, 0.0, 1e-300, 0.25, 0.9, 2.0, 7.5, 60.0, 1e100])


def member_bits(d):
    """Each field of a Density, by type and bytes; its log_pdf by its values
    at fixed points, and its sampler by four draws at a fixed seed."""
    out = {}
    for f in dataclasses.fields(Density):
        v = getattr(d, f.name)
        if f.name == "log_pdf":
            v = _bits(v(_PROBES))
        elif f.name == "sample_rng":
            v = _bits(v(np.random.default_rng(5), 4))
        elif f.name == "params":
            v = {key: float(x).hex() for key, x in v.items()}
        elif isinstance(v, np.ndarray):
            v = (v.shape, _bits(v))
        elif isinstance(v, float):
            v = v.hex()
        out[f.name] = (type(getattr(d, f.name)).__name__, v)
    return out


def assert_matches_the_frozen_path(p, name, params, alpha, rel_tol):
    """The member of ``params`` that a fit of the family ``name`` builds, then
    its Renyi score of the posterior p, against the frozen path's."""
    q = varfit.FAMILY_BUILDERS[name]().unpack(params)
    ref_q = REF_MEMBERS[name](*params.tolist())
    assert set(vars(q)) == {f.name for f in dataclasses.fields(Density)}
    assert member_bits(q) == member_bits(ref_q)
    assert _bits(p.log_pdf(_PROBES)) == _bits(ref_log_pdf(p)(_PROBES))
    got = _outcome(renyi_quadrature, p, q, alpha, rel_tol)
    assert got == _outcome(ref_renyi_quadrature, p, ref_q, alpha, rel_tol)
    return got


@st.composite
def posterior_members(draw):
    """(posterior, family name, member parameters, alpha, rel_tol): a
    Gaussian-mean or truncated-Gamma (exponential model) posterior and a
    Laplace, logistic or Gamma member near its bulk, at a scale from 0.3 to
    4 times its sd."""
    n = draw(st.sampled_from([1, 10, 100, 1000, 10**5]))
    if draw(st.booleans()):
        p = GM_MODEL.exact_posterior(np.full(n, draw(st.floats(-3.0, 3.0))))
    else:
        p = EXP_MODEL.exact_posterior(np.full(n, 1.0 / draw(st.floats(0.2, 5.0))))
    name = draw(st.sampled_from(sorted(REF_MEMBERS)))
    centre = float(p.mean[0]) + draw(st.floats(-1.0, 1.0)) * p.sd
    width = p.sd * draw(st.floats(0.3, 4.0))
    params = np.array([abs(centre) + 1e-3 if name == "gamma" else centre, width])
    alpha = draw(st.one_of(st.floats(1.001, 30.0), st.sampled_from([1e3, 1e6])))
    return p, name, params, alpha, draw(st.sampled_from([1e-7, 1e-8]))


class TestTrimmedOneDimensionalPath:
    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(box_batches())
    def test_box_sums_match_the_general_form(self, batch):
        bounds, lo, hi, f = batch
        k15, err = numerics._chunk_sums(f, (numerics._make_map(*bounds),), lo, hi)
        ref_k15, ref_err = ref_chunk_sums(f, (ref_make_map(*bounds),), lo, hi)
        assert _bits(k15) == _bits(ref_k15) and _bits(err) == _bits(ref_err)

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(breakpoint_specs())
    def test_first_edges_match_the_general_form(self, case):
        bounds, spec = case
        _, inv, a, b = numerics._make_map(*bounds)
        _, ref_inv, ref_a, ref_b = ref_make_map(*bounds)
        got = numerics._initial_edges(spec, inv, a, b)
        assert _bits(got) == _bits(ref_initial_edges(spec, ref_inv, ref_a, ref_b))

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(posterior_members())
    def test_score_matches_the_frozen_path(self, case):
        assert_matches_the_frozen_path(*case)

    @pytest.mark.parametrize("p, name, params, alpha, expected", [
        # a Gamma member far narrower than the posterior, which starts at 0
        (EXP_MODEL.exact_posterior(np.full(10, 0.5)), "gamma", np.array([2.0, 0.1]), 5.0,
         "divergent tail at 0"),
        (GM_MODEL.exact_posterior(np.full(10, 0.5)), "gamma", np.array([0.5, 0.3]), 2.0,
         "dominance"),
        # N(0, 1) against Laplace(1, 1): the first pass sums to 0 and is
        # taken again from the located peak, which at 1e20 overflows its shift
        (GM_MODEL.exact_posterior(np.empty(0)), "laplace", np.array([1.0, 1.0]), 1e10, None),
        (GM_MODEL.exact_posterior(np.empty(0)), "laplace", np.array([1.0, 1.0]), 1e20,
         "ArithmeticError"),
    ], ids=["inf-tail", "dominance", "reseeded", "overflow-raises"])
    def test_hard_cases_match_the_frozen_path(self, monkeypatch, p, name, params, alpha,
                                              expected):
        seeds, peak_anchors = [], divergence._peak_anchors_1d
        monkeypatch.setattr(divergence, "_peak_anchors_1d",
                            lambda *args: seeds.append(args) or peak_anchors(*args))
        got = assert_matches_the_frozen_path(p, name, params, alpha, 1e-8)
        if expected == "ArithmeticError":
            assert got[0] == expected and "overflowed its shift" in got[1]
        else:
            assert got[4] == expected and (got[0] == "inf") == (expected is not None)
        # the library's path and the frozen one each re-seed exactly where a
        # first pass fails
        assert len(seeds) == (2 if alpha >= 1e10 else 0)


if __name__ == "__main__":
    print("EXPECTED = {")
    for name in CASES:
        print(f"    {name!r}: {_pin(CASES[name]())!r},")
    print("}")
