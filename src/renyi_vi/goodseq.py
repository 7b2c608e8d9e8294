"""Construction and numerical audit of good sequences: variational-family
members that track the posterior at the parametric rate, are centered at the
sample estimate, bound the posterior density ratio outside a compact set,
and are log-concave.

Four constructors are shipped (mean-field Gaussian, Laplace, Logistic for
the Gaussian-mean model; Gamma for the exponential model), each with the
scale the corresponding worked example prescribes; one function builds a
member together with the variance scale M_bar that its constants imply. All
are 1-D: the audit's ratio scan, log-concavity check and entropy bound are
written for one parameter, so a constructor refuses any other model by name,
the 2-D mvn-mean model included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .distributions import Density, make_gamma, make_gaussian, make_laplace, make_logistic
from .divergence import _check_alpha
from .models import BayesModel

__all__ = [
    "FAMILIES",
    "GoodSequenceSpec",
    "GoodSequenceAudit",
    "AUDIT_COLUMNS",
    "alpha_factor",
    "build_good_sequence",
    "default_variance_scale",
    "cited_ratio_bound",
    "audit",
]

FAMILIES = ("gaussian-meanfield", "laplace", "logistic", "gamma")

# z-score of the 1 - 1e-10 Gaussian quantile, sqrt(2) erfcinv(2e-10); outer
# edge of the ratio scan.
_Z_TAIL = 6.361340902404057
# grid points per tail of the ratio scan
_TAIL_POINTS = 1000


def alpha_factor(alpha: float) -> float:
    """alpha^(1/(alpha-1)); appears in every good-sequence scale."""
    alpha = _check_alpha(alpha)
    return float(alpha ** (1.0 / (alpha - 1.0)))


@dataclass(frozen=True)
class GoodSequenceSpec:
    """Which family to build, at which alpha, with an optional variance
    scale target M_bar (E|theta - center|^2 <= M_bar / n)."""

    family: str
    alpha: float
    variance_scale: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        _check_alpha(self.alpha)
        if self.variance_scale is not None and not self.variance_scale > 0:
            raise ValueError("variance_scale must be positive")


@dataclass(frozen=True)
class GoodSequenceAudit:
    """Per-n verdicts for the good-sequence properties.

    ``ratio_sup`` is the supremum of posterior/member density over the
    complement of the compact set K (the region the tail condition
    constrains); ``ratio_sup_global`` additionally scans inside K and is
    informational. ``entropy_ok`` is vacuously true when the variance cap
    does not bind.
    """

    n: int
    family: str
    alpha: float
    mean: float
    mean_gap: float
    mean_is_mle: bool
    variance: float
    m_bar: float
    rate_ok: bool
    k_set: tuple[float, float]
    ratio_sup: float
    ratio_sup_global: float
    ratio_bound: float | None
    ratio_bound_ok: bool | None
    logconcave_ok: bool
    entropy: float
    entropy_bound: float
    entropy_ok: bool


# The goodseq-audit report columns: the audit's fields but the compact set.
AUDIT_COLUMNS = tuple(f.name for f in fields(GoodSequenceAudit) if f.name != "k_set")


def _member(spec: GoodSequenceSpec, model: BayesModel, data) -> tuple[Density, float]:
    """The good-sequence member for ``data`` and its variance scale M_bar
    (variance <= M_bar / n): the spec's ``variance_scale`` where it sets
    one, else the scale the member's own constants imply. The one place
    that reads the family, for both values."""
    paired = "exponential" if spec.family == "gamma" else "gaussian-mean"
    if model.name != paired:
        raise ValueError(f"family {spec.family!r} pairs with the {paired} model, "
                         f"not {model.name!r}")
    x = np.asarray(data, dtype=float)
    n = x.shape[0]
    if n == 0:
        raise ValueError("good sequences are indexed by sample size; data is empty")
    A = alpha_factor(spec.alpha)
    scale = spec.variance_scale
    if spec.family == "gamma":
        q, own = make_gamma(n + 1.0, float(x.sum())), 2.0 * float(model.mle(x)[0]) ** 2
    else:
        center = float(np.atleast_1d(model.exact_posterior(x).mean)[0])
        sigma2 = float(np.atleast_2d(model.prior.cov)[0, 0])
        if spec.family == "gaussian-meanfield":
            own = sigma2 if scale is None else scale
            q = make_gaussian(center, own / n)
        elif spec.family == "laplace":
            own = math.pi * A * sigma2
            q = make_laplace(center, math.sqrt(own / (2.0 * n)))
        else:  # logistic
            own = 2.0 * math.pi**3 * A * sigma2 / 3.0
            q = make_logistic(center, math.sqrt(2.0 * math.pi * A * sigma2 / (n + 1.0)))
    return q, float(own if scale is None else scale)


def build_good_sequence(spec: GoodSequenceSpec, model: BayesModel, data) -> Density:
    """The n-th element of the good sequence for ``model`` given ``data``.

    Centers follow the worked examples (posterior mean for the location
    families, shape n+1 / rate sum(x) for the Gamma family); scales shrink
    at the parametric rate with the alpha-dependent constants. The
    mean-field Gaussian, Laplace and logistic pair with the Gaussian-mean
    model and the Gamma with the exponential model; any other model, and
    empty data, are refused with a ValueError.
    """
    return _member(spec, model, data)[0]


def default_variance_scale(spec: GoodSequenceSpec, model: BayesModel, data) -> float:
    """M_bar implied by the constructor's own scale (so variance <= M_bar/n),
    or the spec's ``variance_scale`` where it sets one; refuses what
    :func:`build_good_sequence` refuses, from the same one branch per family."""
    return _member(spec, model, data)[1]


def cited_ratio_bound(family: str, alpha: float) -> float | None:
    """The worked examples' tail-ratio constants M_r (None where the bound
    is model-dependent rather than a pure alpha constant)."""
    A = alpha_factor(alpha)
    if family == "laplace":
        return math.sqrt(2.0 / A) * math.exp(0.5)
    if family == "logistic":
        return 2.0 * math.exp(1.0 / 16.0) / math.sqrt(A)
    return None


def _ratio_scan(post: Density, qbar: Density, k_lo, k_hi):
    """Sup of posterior/member over the tails, grid plus endpoint slopes."""
    lo, hi = post.support[0]
    pc = float(np.atleast_1d(post.mean)[0])
    ps = post.sd
    outer_hi = min(hi, max(pc + _Z_TAIL * ps, k_hi + 10.0 * qbar.sd))
    outer_lo = max(lo, min(pc - _Z_TAIL * ps, k_lo - 10.0 * qbar.sd))

    def log_ratio_on(g):
        lp = post.log_pdf(g)
        lq = qbar.log_pdf(g)
        out = np.full(lp.shape, -np.inf)
        ok = lp > -np.inf
        out[ok] = lp[ok] - lq[ok]  # +inf where the member misses posterior mass
        return out

    def sup_on(a, b, outward_is_right):
        if not a < b:
            return 0.0, False
        g = np.linspace(a, b, _TAIL_POINTS)
        lr = log_ratio_on(g)
        sup = float(np.exp(np.max(lr)))
        if outward_is_right:
            rising = bool(lr[-1] > lr[-2] + 1e-12)
        else:
            rising = bool(lr[0] > lr[1] + 1e-12)
        return sup, rising

    sup_right, rising_right = sup_on(k_hi, outer_hi, True)
    sup_left, rising_left = sup_on(outer_lo, k_lo, False)
    sup = max(sup_right, sup_left)
    if rising_right or rising_left:
        sup = np.inf
    inside = np.linspace(max(lo, k_lo), min(hi, k_hi), 2001)
    sup_global = max(sup, float(np.exp(np.max(log_ratio_on(inside)))))
    return sup, sup_global


def _compact_set(model: BayesModel, center: float) -> tuple[float, float]:
    """The compact set K of the tail condition: center +- 5/sqrt(I(center)),
    clipped to the parameter support."""
    half = 5.0 / math.sqrt(float(model.fisher_info(center)))
    lo, hi = model.param_support[0]
    return max(lo, center - half), min(hi, center + half)


def audit(
    spec: GoodSequenceSpec,
    model: BayesModel,
    data,
    K: tuple[float, float] | None = None,
) -> GoodSequenceAudit:
    """Check every good-sequence property for one sample size.

    K defaults to :func:`_compact_set` centered on the MLE. The tail-ratio
    supremum scans 1000 points per tail out to the 1-1e-10 posterior
    quantile (or 10 member scales past K, whichever is farther) and inspects
    the endpoint slopes, reporting inf when the ratio is still rising at the
    edge.
    """
    x = np.asarray(data, dtype=float).reshape(-1)
    n = x.size
    qbar, m_bar = _member(spec, model, x)
    post = model.exact_posterior(x)
    mle = float(model.mle(x)[0])
    mean = float(np.atleast_1d(qbar.mean)[0])
    gap = abs(mean - mle)
    variance = qbar.var
    cap = m_bar / n
    rate_ok = variance <= cap * (1.0 + 1e-9)

    if K is None:
        K = _compact_set(model, mle)
    k_lo, k_hi = float(K[0]), float(K[1])
    if not k_lo < k_hi:
        raise ValueError(f"K must be a nondegenerate interval, got {K}")

    ratio_sup, ratio_sup_global = _ratio_scan(post, qbar, k_lo, k_hi)

    # log-concavity: nonpositive second differences of log q on a bulk grid
    c = mean
    s = qbar.sd
    glo = max(qbar.support[0][0] + 1e-12, c - 12.0 * s)
    ghi = min(qbar.support[0][1], c + 12.0 * s)
    grid = np.linspace(glo, ghi, 2001)
    lq = qbar.log_pdf(grid)
    second = lq[2:] - 2.0 * lq[1:-1] + lq[:-2]
    logconcave_ok = bool(np.max(second) <= 1e-9)

    entropy = qbar.entropy
    entropy_bound = 0.5 * math.log(2.0 * math.pi * math.e * cap)
    entropy_ok = (not rate_ok) or entropy <= entropy_bound + 1e-9

    bound = cited_ratio_bound(spec.family, spec.alpha)
    return GoodSequenceAudit(
        n=n,
        family=spec.family,
        alpha=spec.alpha,
        mean=mean,
        mean_gap=gap,
        mean_is_mle=bool(gap <= 1e-8),
        variance=variance,
        m_bar=m_bar,
        rate_ok=bool(rate_ok),
        k_set=(k_lo, k_hi),
        ratio_sup=float(ratio_sup),
        ratio_sup_global=float(ratio_sup_global),
        ratio_bound=bound,
        ratio_bound_ok=None if bound is None else bool(ratio_sup <= bound),
        logconcave_ok=logconcave_ok,
        entropy=entropy,
        entropy_bound=entropy_bound,
        entropy_ok=bool(entropy_ok),
    )
