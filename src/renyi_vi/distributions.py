"""The density zoo: Gaussian (univariate and 2-D), Laplace, Logistic, Gamma,
uniform, finite mixtures, and narrow Gaussian spikes standing in for point
masses.

A :class:`Density` bundles a vectorized log-density, per-coordinate support
intervals, exact moments where available, and a seeded sampler. Densities
are immutable after construction and sampling takes an explicit seed, so
concurrent use is race-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .numerics import QuadratureSpec, cholesky_rows, integrate

__all__ = [
    "Density",
    "Members",
    "make_gaussian",
    "gaussian_members",
    "make_laplace",
    "laplace_members",
    "make_logistic",
    "make_gamma",
    "make_uniform",
    "make_spike",
    "make_mixture",
    "dominates",
    "bulk_points",
    "interval_mass",
]

Interval = tuple[float, float]


@dataclass(frozen=True)
class Density:
    """An evaluable probability density on R^dim with metadata.

    ``log_pdf`` accepts an (m,) array for dim 1 or an (m, dim) array for
    dim > 1 and returns (m,) log-density values (-inf outside support).
    ``sample_rng`` draws using a caller-provided Generator; ``sample`` is
    the seeded convenience wrapper.

    A Gaussian also holds its covariance's factor, computed once when it is
    made: ``chol``, the rows of the lower Cholesky factor L (row i holds
    L[i, 0..i] as Python floats), and ``log_det``, log det cov. Its
    ``log_pdf`` walks those rows, and the closed-form divergences read both.
    They are None for every other kind.

    Two things are derived on first use and kept: :func:`bulk_points`, where
    the density carries its mass, and :attr:`tails`, the leading term of its
    log-density at each end of its support, from which the Renyi quadrature
    decides whether its integral is finite. Making a density computes
    neither.
    """

    dim: int
    support: tuple[Interval, ...]
    log_pdf: Callable[[np.ndarray], np.ndarray]
    mean: np.ndarray | None = None
    cov: np.ndarray | None = None
    sample_rng: Callable[[np.random.Generator, int], np.ndarray] | None = None
    kind: str = "custom"
    params: Mapping[str, Any] = field(default_factory=dict)
    entropy: float | None = None
    chol: tuple[tuple[float, ...], ...] | None = None
    log_det: float | None = None

    def sample(self, n: int, seed: int) -> np.ndarray:
        if self.sample_rng is None:
            raise ValueError(f"density kind={self.kind!r} has no sampler")
        return self.sample_rng(np.random.default_rng(seed), n)

    @property
    def var(self) -> float:
        """Scalar variance; only meaningful for dim == 1."""
        if self.cov is None:
            raise ValueError("density has no declared covariance")
        return float(np.atleast_2d(self.cov)[0, 0])

    @property
    def sd(self) -> float:
        return float(np.sqrt(self.var))

    @property
    def tails(self) -> tuple | None:
        """The leading term of the log-density at each end of its support,
        computed on first use; None for a kind that declares none.

        In 1-D, ``(lower, upper)``, each a triple ``(k, c, m)``:

        - at an infinite end, log p(x) = -c |x|^k + m log |x| + smaller
          terms, with k > 0 and c > 0. The smaller terms are bounded when
          k = 1 (Laplace, logistic, the Gamma at +inf) and linear in x for
          a Gaussian (k = 2);
        - at a finite end e, log p(x) = m log |x - e| + O(1), and k = c = 0.
          m = 0 where the density stays finite and positive up to its end.

        A mixture takes, at each end, its slowest component among those
        that reach it. In 2-D, where tails differ by direction, a tuple of
        precision matrices as rows of Python floats: one for a Gaussian, one
        per component for a mixture of Gaussians.
        """
        # cached by hand: a cached_property's lock costs more than the tails
        cache = self.__dict__
        if "_tails" not in cache:
            declare = _TAILS.get(self.kind)
            cache["_tails"] = None if declare is None else declare(self)
        return cache["_tails"]


_LOG_2PI = float(np.log(2.0 * np.pi))


def _as_mean_cov(mu, cov, name: str):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 0:
        cov = cov.reshape(1, 1)
    elif cov.ndim == 1:
        cov = np.diag(cov)
    if mu.ndim != 1 or cov.shape != (mu.size, mu.size):
        raise ValueError(f"{name}: mean/cov shapes are inconsistent")
    return mu, cov


def _gaussian_factor(mu: list[float], cov) -> tuple:
    """The factor rows, log-determinant and entropy that ``make_gaussian``
    holds for the mean ``mu`` and the covariance ``cov``, both of Python
    floats (only cov's lower triangle is read); raises ``ValueError`` where
    it refuses them."""
    if not all(map(math.isfinite, mu)):
        raise ValueError(f"mean must be finite, got {list(mu)}")
    rows, ok = cholesky_rows(cov)
    if not ok:
        raise ValueError("covariance must be finite and symmetric positive definite")
    # numpy's log, not math.log: the two differ in the last bit on a few
    # inputs in 1e4, and the 1-D constant and entropy keep their bits
    log_det = 2.0 * float(np.log(math.prod(row[i] for i, row in enumerate(rows))))
    # a NaN or infinite entry of the lower triangle that fails no pivot
    # leaves a NaN or infinite one, and so a log-determinant that is not finite
    if not math.isfinite(log_det):
        raise ValueError("covariance must be finite, with a finite log-determinant")
    return rows, log_det, 0.5 * len(mu) * (1.0 + _LOG_2PI) + 0.5 * log_det


def make_gaussian(mean, cov) -> Density:
    """Gaussian density; ``cov`` may be a scalar variance, a diagonal, or a
    full SPD matrix, of which the lower triangle is read. Every entry read
    must be finite."""
    mu, cov = _as_mean_cov(mean, cov, "make_gaussian")
    d = mu.size
    rows, log_det, entropy = _gaussian_factor(mu.tolist(), cov.tolist())
    const = -0.5 * (d * _LOG_2PI + log_det)

    if d == 1:
        loc, scale = float(mu[0]), rows[0][0]

        def log_pdf(x):
            z = (np.asarray(x, dtype=float).reshape(-1) - loc) / scale
            return const - 0.5 * z * z
    else:
        # z = inv(L) (x - mu) by forward substitution, one coordinate at a
        # time, with L's entries as Python floats: no factorisation and no
        # transposed copy of the points per call. Updates are in place, so a
        # call allocates few arrays; const + (-0.5 q) equals const - 0.5 q.
        loc = mu.tolist()

        def log_pdf(x):
            pts = np.asarray(x, dtype=float).reshape(-1, d)
            zs = []
            for i, row in enumerate(rows):
                z = pts[:, i] - loc[i]
                for j in range(i):
                    z -= row[j] * zs[j]
                z /= row[i]
                zs.append(z)
            quad = zs[0] * zs[0]
            for z in zs[1:]:
                z *= z
                quad += z
            quad *= -0.5
            quad += const
            return quad

    def sample_rng(rng, n):
        z = rng.standard_normal((n, d))
        lower = np.array([row + (0.0,) * (d - len(row)) for row in rows])
        out = mu + z @ lower.T
        return out[:, 0] if d == 1 else out

    return Density(
        dim=d,
        support=((-np.inf, np.inf),) * d,
        log_pdf=log_pdf,
        mean=mu,
        cov=cov,
        sample_rng=sample_rng,
        kind="gaussian",
        entropy=entropy,
        chol=rows,
        log_det=log_det,
    )


class Members(NamedTuple):
    """Densities of one kind as the closed forms of
    :mod:`~renyi_vi.divergence` read them: for each member, the attributes
    of the :class:`Density` that ``make_gaussian`` or ``make_laplace``
    builds for it, with the same bits, and no ``log_pdf``. One member holds
    Python floats; a batch holds arrays over its members, with a float
    where an entry is the same for every member. Cheaper to make than a
    Density, so a fit scores these where a closed form lists the pair: its
    start grid as one batch, and each point of its line searches as one
    member.

    ``mean`` holds one entry per coordinate. ``cov`` and ``chol`` hold the
    rows of the lower triangles of the covariance and of its Cholesky
    factor, as :attr:`Density.chol` does; ``chol`` and ``log_det`` are None
    for a Laplace, whose ``params`` hold ``loc`` and ``scale``.
    """

    kind: str
    dim: int
    mean: tuple
    cov: tuple
    chol: tuple | None
    log_det: float | np.ndarray | None
    entropy: float | np.ndarray
    params: Mapping[str, Any]


def _variance(sd):
    """sd ** 2 as Python squares a float (not always sd * sd), element by
    element over a batch, with inf where that overflows: a variance that
    make_gaussian refuses."""
    if isinstance(sd, np.ndarray):
        try:
            return np.array([s ** 2 for s in sd.tolist()])
        except OverflowError:
            return np.array([_variance(s) for s in sd.tolist()])
    try:
        return float(sd) ** 2
    except OverflowError:
        return math.inf


def _diagonal(v, d: int) -> tuple:
    """The rows of the lower triangle of v I_d."""
    return tuple([(0.0,) * i + (v,) for i in range(d)])


def gaussian_members(mean, sd) -> Members:
    """The Gaussians N(mean, sd ** 2 I) as ``make_gaussian`` makes them:
    one, for a mean of one Python float per coordinate and a float sd, or a
    batch, for one array per coordinate and an array of sds. Raises
    make_gaussian's ``ValueError`` where it refuses one (the first, over a
    batch).

    Each variance is squared as Python squares a float (:func:`_variance`).
    For var I, :func:`cholesky_rows` gives sqrt(var) on the diagonal and
    0.0 below it, and make_gaussian's log-determinant is the numpy log of
    the product of d such pivots, so each member gets its Density's bits
    without a factorisation.
    """
    mean, var = tuple(mean), _variance(sd)
    d = len(mean)
    if isinstance(var, np.ndarray):
        with np.errstate(all="ignore"):  # a refused member's pivot and log
            pivot = np.sqrt(var)
            log_det = 2.0 * np.log(math.prod([pivot] * d))
        ok = np.all(np.isfinite(mean), axis=0) & (var > 0.0) & np.isfinite(log_det)
        if not ok.all():  # make_gaussian refuses the first refused member
            i = int(np.argmin(ok))
            make_gaussian([m[i] for m in mean], [var[i]] * d)
    else:
        ok = var > 0.0 and all(map(math.isfinite, mean))
        pivot = math.sqrt(var) if ok else math.nan
        log_det = 2.0 * float(np.log(math.prod([pivot] * d)))
        if not (ok and math.isfinite(log_det)):
            make_gaussian(mean, [var] * d)  # which refuses it
    return Members("gaussian", d, mean, _diagonal(var, d), _diagonal(pivot, d), log_det,
                   0.5 * d * (1.0 + _LOG_2PI) + 0.5 * log_det, {})


def _loc_scale(loc, scale) -> tuple[float, float]:
    """A Laplace's or a logistic's location and scale as Python floats;
    raises ``ValueError`` where either is not finite or the scale is not
    positive."""
    k, b = float(loc), float(scale)
    if not (math.isfinite(k) and math.isfinite(b)):
        raise ValueError(f"loc and scale must be finite, got {k}, {b}")
    if b <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return k, b


def _laplace_parts(loc, scale) -> tuple[float, float, float]:
    """Location, scale and log(2 scale) of the Laplace ``make_laplace``
    makes, as Python floats: its entropy is 1 + log(2 scale), and its
    log-density's constant -log(2 scale). Raises ``ValueError`` where it
    refuses them."""
    k, b = _loc_scale(loc, scale)
    return k, b, float(np.log(2.0 * b))


def make_laplace(loc: float, scale: float) -> Density:
    """Laplace density with location k = loc and scale b; variance 2 b^2."""
    k, b, log_2b = _laplace_parts(loc, scale)
    const = -log_2b

    def log_pdf(x):
        return const - np.abs(np.asarray(x, dtype=float).reshape(-1) - k) / b

    return Density(
        dim=1,
        support=((-np.inf, np.inf),),
        log_pdf=log_pdf,
        mean=np.array([k]),
        cov=np.array([[2.0 * b * b]]),
        sample_rng=lambda rng, n: rng.laplace(k, b, size=n),
        kind="laplace",
        params={"loc": k, "scale": b},
        entropy=1.0 + log_2b,
    )


def laplace_members(loc, scale) -> Members:
    """The Laplace densities (loc, scale) as ``make_laplace`` makes them:
    one, for floats, or a batch, for arrays. Raises make_laplace's
    ``ValueError`` where it refuses one (the first, over a batch)."""
    if isinstance(scale, np.ndarray):
        k, b = np.asarray(loc, dtype=float), np.asarray(scale, dtype=float)
        ok = np.isfinite(k) & np.isfinite(b) & (b > 0.0)
        if not ok.all():  # the first refused member raises, as make_laplace would
            i = int(np.argmin(ok))
            _laplace_parts(k[i], b[i])
        with np.errstate(over="ignore"):  # as Python's floats overflow
            entropy, var = 1.0 + np.log(2.0 * b), 2.0 * b * b
    else:
        k, b, log_2b = _laplace_parts(loc, scale)
        entropy, var = 1.0 + log_2b, 2.0 * b * b
    return Members("laplace", 1, (k,), ((var,),), None, None, entropy, {"loc": k, "scale": b})


def make_logistic(loc: float, scale: float) -> Density:
    """Logistic density with mean m = loc and scale s; variance s^2 pi^2 / 3."""
    m, s = _loc_scale(loc, scale)

    def log_pdf(x):
        z = (np.asarray(x, dtype=float).reshape(-1) - m) / (2.0 * s)
        # pdf = 1 / (4 s cosh^2 z); log cosh written overflow-free
        log_cosh = np.abs(z) + np.log1p(np.exp(-2.0 * np.abs(z))) - np.log(2.0)
        return -np.log(4.0 * s) - 2.0 * log_cosh

    return Density(
        dim=1,
        support=((-np.inf, np.inf),),
        log_pdf=log_pdf,
        mean=np.array([m]),
        cov=np.array([[s * s * np.pi**2 / 3.0]]),
        sample_rng=lambda rng, n: rng.logistic(m, s, size=n),
        kind="logistic",
        params={"loc": m, "scale": s},
        entropy=float(np.log(s)) + 2.0,
    )


def make_gamma(shape: float, rate: float) -> Density:
    """Gamma density with shape k and rate beta; mean k/beta, var k/beta^2."""
    # scipy.special costs about 0.3 s of start-up, and only Gamma code needs it
    from scipy.special import digamma, gammaln

    k, beta = float(shape), float(rate)
    if not (math.isfinite(k) and math.isfinite(beta)):
        raise ValueError(f"shape and rate must be finite, got {k}, {beta}")
    if k <= 0 or beta <= 0:
        raise ValueError(f"shape and rate must be positive, got {shape}, {rate}")
    beta_sq = beta**2
    if not (beta_sq > 0.0 and math.isfinite(k / beta_sq)):
        raise ValueError(f"the variance shape / rate^2 must be finite, got shape {k}, rate {beta}")
    log_beta, log_gamma_k = np.log(beta), gammaln(k)
    const = k * log_beta - log_gamma_k

    def log_pdf(x):
        pts = np.asarray(x, dtype=float).reshape(-1)
        if pts.min(initial=np.inf) > 0.0:  # the usual case: no masked copies
            return const + (k - 1.0) * np.log(pts) - beta * pts
        out = np.full(pts.shape, -np.inf)
        pos = pts > 0.0
        out[pos] = const + (k - 1.0) * np.log(pts[pos]) - beta * pts[pos]
        return out

    entropy = k - log_beta + log_gamma_k + (1.0 - k) * digamma(k)
    return Density(
        dim=1,
        support=((0.0, np.inf),),
        log_pdf=log_pdf,
        mean=np.array([k / beta]),
        cov=np.array([[k / beta_sq]]),
        sample_rng=lambda rng, n: rng.gamma(k, 1.0 / beta, size=n),
        kind="gamma",
        params={"shape": k, "rate": beta},
        entropy=float(entropy),
    )


def make_uniform(lo: float, hi: float) -> Density:
    """Uniform density on the bounded interval [lo, hi]."""
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"lo and hi must be finite, got {lo}, {hi}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    const = -np.log(hi - lo)

    def log_pdf(x):
        pts = np.asarray(x, dtype=float).reshape(-1)
        return np.where((pts >= lo) & (pts <= hi), const, -np.inf)

    return Density(
        dim=1,
        support=((lo, hi),),
        log_pdf=log_pdf,
        mean=np.array([0.5 * (lo + hi)]),
        cov=np.array([[(hi - lo) ** 2 / 12.0]]),
        sample_rng=lambda rng, n: rng.uniform(lo, hi, size=n),
        kind="uniform",
        params={"lo": lo, "hi": hi},
        entropy=float(np.log(hi - lo)),
    )


def make_spike(center: float, width: float) -> Density:
    """Narrow Gaussian surrogate for a point mass at ``center``.

    Point-mass statements in the limit are probed numerically with these;
    ``width`` is the standard deviation and should be small relative to the
    scales being compared against.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return make_gaussian(center, width**2)


def make_mixture(weights: Sequence[float], components: Sequence[Density]) -> Density:
    """Finite mixture with weights in (0,1) summing to 1."""
    w = np.asarray(weights, dtype=float)
    comps = tuple(components)
    if w.size != len(comps) or w.size == 0:
        raise ValueError("weights and components must be non-empty and aligned")
    if not np.all((w > 0.0) & (w < 1.0)):  # also false for a NaN weight
        raise ValueError(f"mixture weights must be finite and inside (0, 1), got {w.tolist()}")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise ValueError(f"mixture weights must sum to 1, got {w.sum()!r}")
    dims = {c.dim for c in comps}
    if len(dims) != 1:
        raise ValueError("mixture components must share a dimension")
    d = comps[0].dim
    log_w = np.log(w)

    def log_pdf(x):
        stacked = np.stack([c.log_pdf(x) for c in comps], axis=0)
        stacked = stacked + log_w[:, None]
        m = np.max(stacked, axis=0)
        void = m == -np.inf  # every component vanishes: -inf - -inf is NaN
        if not void.any():
            return m + np.log(np.sum(np.exp(stacked - m), axis=0))
        out = np.full(m.shape, -np.inf)
        keep = ~void
        out[keep] = m[keep] + np.log(np.sum(np.exp(stacked[:, keep] - m[keep]), axis=0))
        return out

    support = tuple(
        (min(c.support[j][0] for c in comps), max(c.support[j][1] for c in comps))
        for j in range(d)
    )
    mean = None
    cov = None
    if all(c.mean is not None for c in comps) and all(c.cov is not None for c in comps):
        mean = np.sum([wi * c.mean for wi, c in zip(w, comps)], axis=0)
        second = np.sum(
            [wi * (c.cov + np.outer(c.mean, c.mean)) for wi, c in zip(w, comps)],
            axis=0,
        )
        cov = second - np.outer(mean, mean)

    def sample_rng(rng, n):
        counts = rng.multinomial(n, w)
        parts = [c.sample_rng(rng, int(k)) for c, k in zip(comps, counts) if k > 0]
        out = np.concatenate(parts, axis=0)
        rng.shuffle(out, axis=0)
        return out

    return Density(
        dim=d,
        support=support,
        log_pdf=log_pdf,
        mean=mean,
        cov=cov,
        sample_rng=sample_rng,
        kind="mixture",
        params={"weights": w, "components": comps},
    )


def dominates(p: Density, q: Density) -> bool:
    """True iff supp(p) is contained in supp(q), coordinate-interval-wise."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return all(
        ql <= pl and ph <= qh
        for (pl, ph), (ql, qh) in zip(p.support, q.support)
    )


_BULK_MULT = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0])
# -12 ... 12 in ascending order: c + s * m is then sorted for s >= 0, and
# c + s * (-m) equals c - m * s exactly, since IEEE negation is exact.
_BULK_SIGNED = np.concatenate([-_BULK_MULT[:0:-1], _BULK_MULT])


def bulk_points(d: Density, coord: int = 0) -> np.ndarray:
    """Sorted, distinct abscissae straddling where the density carries its
    mass, strictly inside its support along ``coord``.

    With declared moments: the mean, and 0.25 to 12 standard deviations
    either side of it, built in ascending order (19 points, fewer where
    rounding makes two equal). A uniform gives the interior points of a
    nine-point equispaced grid and a mixture its components' points; a
    density without moments gives none.

    Used to seed quadrature panels, so narrow densities and the kink at a
    Laplace or logistic centre are seen by an adaptive first pass. The 1-D
    Renyi quadrature also sets its log-integrand shift from them. The 2-D
    quadratures do not take them: their peak frame seeds a shorter ladder
    of its own at each maximum of the integrand (of p, for the KL), in the
    sds of a Gaussian fitted there.

    Computed for every coordinate on a density's first call, kept on the
    density and read-only, so a density used in many divergences sets them
    up once. Kept by hand, as :attr:`Density.tails` is: a fit makes a fresh
    member for each quadrature evaluation, and a cached_property's lock
    would cost each of them more than its bulk points.
    """
    bulk = d.__dict__.get("_bulk")
    if bulk is None:
        bulk = d.__dict__["_bulk"] = tuple(_bulk_points(d, i) for i in range(d.dim))
        for pts in bulk:
            pts.setflags(write=False)
    return bulk[coord]


def _bulk_points(d: Density, coord: int) -> np.ndarray:
    lo, hi = d.support[coord]
    if d.kind == "mixture":
        pts = np.sort(np.concatenate([bulk_points(c, coord) for c in d.params["components"]]))
    elif d.kind == "uniform":
        pts = np.linspace(lo, hi, 9)
    elif d.mean is not None and d.cov is not None:
        # Python floats, by flat index (the diagonal of a (dim, dim) cov, or
        # a 0-d array's one entry): math.sqrt rounds correctly, as np.sqrt
        # does, and a variance that is NaN, negative or infinite (whose sd
        # times the centre's 0 is NaN, with a warning) gives no points
        c, var = d.mean.item(coord), d.cov.item(coord * (d.dim + 1))
        s = math.sqrt(var) if 0.0 <= var < math.inf else math.nan
        pts = c + s * _BULK_SIGNED
    else:
        return np.empty(0)
    # sorted already, so the ends tell whether all lie inside; the
    # comparisons also drop nan and +-inf, and a mask is needed only where
    # rounding has made neighbours equal
    if not (pts.size and pts[0] > lo and pts[-1] < hi):
        pts = pts[(pts > lo) & (pts < hi)]
    repeat = pts[1:] == pts[:-1]
    return np.delete(pts, np.flatnonzero(repeat) + 1) if np.count_nonzero(repeat) else pts


def _gaussian_tails(d: Density) -> tuple | None:
    if d.dim == 1:
        s = d.chol[0][0]
        end = (2, 0.5 / (s * s), 0.0)
        return end, end
    if d.dim != 2:
        return None
    # inv(L) from L's rows, then the precision inv(L)' inv(L)
    (l00,), (l10, l11) = d.chol
    a, b, c = 1.0 / l00, -l10 / (l00 * l11), 1.0 / l11
    return ((a * a + b * b, b * c), (b * c, c * c)),


def _exponential_tails(d: Density) -> tuple:
    end = (1, 1.0 / d.params["scale"], 0.0)
    return end, end


def _gamma_tails(d: Density) -> tuple:
    m = d.params["shape"] - 1.0
    return (0, 0.0, m), (1, d.params["rate"], m)


def _truncated_gamma_tails(d: Density) -> tuple:
    """Gamma(shape, rate) cut to [lo, hi], 0 <= lo < hi < inf: the Gamma's
    power at 0 when the cut starts there, else a finite positive density."""
    params = d.params
    return (0, 0.0, params["shape"] - 1.0 if params["lo"] == 0.0 else 0.0), (0, 0.0, 0.0)


def _mixture_tails(d: Density) -> tuple | None:
    comps = d.params["components"]
    if any(c.tails is None for c in comps):
        return None
    if d.dim == 2:  # every component's precision
        return tuple(t for c in comps for t in c.tails)
    # the slowest decay among the components that reach the end: at an
    # infinite end the smallest k, then the smallest c, then the largest
    # m; at a finite one the smallest m
    return tuple(
        min((c.tails[side] for c in comps if c.support[0][side] == end),
            key=(lambda t: (t[0], t[1], -t[2])) if math.isinf(end) else (lambda t: t[2]))
        for side, end in enumerate(d.support[0]))


# Density.tails by kind; a kind missing here declares none.
_TAILS = {
    "gaussian": _gaussian_tails,
    "laplace": _exponential_tails,
    "logistic": _exponential_tails,
    "gamma": _gamma_tails,
    "truncated-gamma": _truncated_gamma_tails,
    "uniform": lambda d: ((0, 0.0, 0.0), (0, 0.0, 0.0)),
    "mixture": _mixture_tails,
}


def interval_mass(d: Density, lo: float, hi: float, rel_tol: float = 1e-9) -> float:
    """Probability d assigns to [lo, hi] (dim 1), by quadrature."""
    if d.dim != 1:
        raise ValueError("interval_mass is for univariate densities")
    slo, shi = d.support[0]
    lo = max(lo, slo)
    hi = min(hi, shi)
    if not lo < hi:
        return 0.0
    spec = QuadratureSpec(
        lower=lo,
        upper=hi,
        rel_tol=rel_tol,
        breakpoints=tuple(p for p in bulk_points(d) if lo < p < hi),
    )
    res = integrate(lambda x: np.exp(d.log_pdf(x)), spec)
    return min(max(res.value, 0.0), 1.0)
