"""Bit-for-bit pins of the optimizer's results.

Each case runs one fit: every registered family under each objective, on
the Gaussian-mean and exponential posteriors (given as a ``(model, data)``
pair) or the anisotropic 2-D Gaussian, and the Gaussian family on a Laplace
target, whose KL fits score the member on the Gaussian side of the
Gaussian/Laplace closed forms. A pin holds the parameters and the
objective value as ``float.hex``, with ``n_evals``, ``converged`` and the
trace length; a fit that raises :class:`DominanceError` is pinned as such.

A pin moves only when a change to the optimizer, a family or a scorer is
meant to move a fit's bits. Regenerate with ``python tests/test_fit_pins.py``
and paste its output over ``PINS``.
"""

from functools import partial

import pytest

from renyi_vi.distributions import make_gaussian, make_laplace
from renyi_vi.models import exponential_model, gaussian_mean_model
from renyi_vi.varfit import FAMILY_BUILDERS, DominanceError, fit

GM = gaussian_mean_model(0.0, 1.0)
EM = exponential_model()
TARGETS_1D = {
    "gaussian-mean": (GM, GM.simulate(0.5, 200, 3)),
    "exponential": (EM, EM.simulate(2.0, 200, 3)),
}
ANISO = make_gaussian([0.0, 0.0], [[1.0, 0.9], [0.9, 1.0]])
LAPLACE = make_laplace(0.3, 0.2)


def _cases() -> dict:
    cases = {}
    for name, build in FAMILY_BUILDERS.items():
        targets = TARGETS_1D if build().dim == 1 else {"aniso-2d": ANISO}
        if name == "gaussian":
            targets = {**targets, "laplace": LAPLACE}
        for tname, target in targets.items():
            for kind in ("renyi-alpha", "kl-forward", "kl-reverse"):
                cases[f"{name}/{tname}/{kind}"] = partial(
                    fit, target, build(), kind,
                    alpha=2.0 if kind == "renyi-alpha" else None)
    return cases


CASES = _cases()


def outcome(case):
    try:
        res = case()
    except DominanceError:
        return "DominanceError"
    return ([float(v).hex() for v in res.params], float(res.objective.value).hex(),
            res.n_evals, res.converged, len(res.trace))


PINS = {
    'gamma/exponential/kl-forward': (['0x1.c4d070a61f946p+0', '0x1.ff0654b2958d0p-4'], '0x1.ebcba84b80000p-41', 170, True, 22),
    'gamma/exponential/kl-reverse': 'DominanceError',
    'gamma/exponential/renyi-alpha': (['0x1.c4d0741b05acbp+0', '0x1.ff0661caa4a02p-4'], '0x1.6800000000000p-46', 172, True, 19),
    'gamma/gaussian-mean/kl-forward': 'DominanceError',
    'gamma/gaussian-mean/kl-reverse': (['0x1.1764c9a47f0ecp-1', '0x1.1f4d019d2a4e6p-4'], '0x1.6c8634fa3171ap-8', 145, True, 23),
    'gamma/gaussian-mean/renyi-alpha': 'DominanceError',
    'gaussian/exponential/kl-forward': (['0x1.c4d073942f5b7p+0', '0x1.ff065fa662b2dp-4'], '0x1.b346298fe1ef2p-10', 112, True, 18),
    'gaussian/exponential/kl-reverse': 'DominanceError',
    'gaussian/exponential/renyi-alpha': (['0x1.c3c403405dc46p+0', '0x1.63f784e3980c8p-2'], '0x1.6d2af4fb900acp-1', 208, True, 19),
    'gaussian/gaussian-mean/kl-forward': (['0x1.1757844ad3ecdp-1', '0x1.20e8d9a918a16p-4'], '0x1.0000000000000p-51', 113, True, 18),
    'gaussian/gaussian-mean/kl-reverse': (['0x1.1757844ad3ecdp-1', '0x1.20e8d924823fep-4'], '0x0.0p+0', 112, True, 20),
    'gaussian/gaussian-mean/renyi-alpha': (['0x1.1757844ad3ecdp-1', '0x1.20e8d9478ae63p-4'], '0x0.0p+0', 114, True, 11),
    'gaussian/laplace/kl-forward': (['0x1.3333333333333p-2', '0x1.21a18530d031bp-2'], '0x1.28682473d0decp-4', 112, True, 18),
    'gaussian/laplace/kl-reverse': (['0x1.3333333333333p-2', '0x1.00adc19901c65p-2'], '0x1.8ca26d2af6770p-5', 112, True, 23),
    'gaussian/laplace/renyi-alpha': 'DominanceError',
    'isotropic-gaussian-2d/aniso-2d/kl-forward': (['0x0.0p+0', '0x0.0p+0', '0x1.ffffffc933c00p-1'], '0x1.a925ae2cbedfep-1', 346, True, 16),
    'isotropic-gaussian-2d/aniso-2d/kl-reverse': (['0x0.0p+0', '0x0.0p+0', '0x1.be59eba41dde0p-2'], '0x1.a925ae2cbedffp-1', 255, True, 9),
    'isotropic-gaussian-2d/aniso-2d/renyi-alpha': (['0x0.0p+0', '0x0.0p+0', '0x1.328810faebfcdp+0'], '0x1.0ef9dd172adcbp+0', 334, True, 10),
    'laplace/exponential/kl-forward': (['0x1.c41044ca261f7p+0', '0x1.977508c97e4eep-4'], '0x1.949336043e95ap-5', 116, True, 23),
    'laplace/exponential/kl-reverse': 'DominanceError',
    'laplace/exponential/renyi-alpha': (['0x1.c3d77813cf12cp+0', '0x1.ae2914c9a17cep-4'], '0x1.423a6ec29cda0p-4', 134, True, 25),
    'laplace/gaussian-mean/kl-forward': (['0x1.1757844ad3ecdp-1', '0x1.cd08702d21df9p-5'], '0x1.8ca26d2af6770p-5', 112, True, 22),
    'laplace/gaussian-mean/kl-reverse': (['0x1.1757844ad3ecdp-1', '0x1.98946f43c168ap-5'], '0x1.28682473d0de0p-4', 112, True, 20),
    'laplace/gaussian-mean/renyi-alpha': (['0x1.1757844ad3ecdp-1', '0x1.e672e15d9053cp-5'], '0x1.3e0e8763eebc0p-4', 112, True, 20),
    'logistic/exponential/kl-forward': (['0x1.c4686b3583984p+0', '0x1.2402edb16a59ep-4'], '0x1.5dcfc779158f5p-7', 128, True, 23),
    'logistic/exponential/kl-reverse': 'DominanceError',
    'logistic/exponential/renyi-alpha': (['0x1.c43df77f33917p+0', '0x1.2962a10a81d88p-4'], '0x1.112db548b5600p-6', 131, True, 22),
    'logistic/gaussian-mean/kl-forward': (['0x1.1757844ad3ecdp-1', '0x1.4a68a5e267d4fp-5'], '0x1.37ad39e36ca1fp-7', 111, True, 20),
    'logistic/gaussian-mean/kl-reverse': (['0x1.1757844ad3ecdp-1', '0x1.3e9181686efebp-5'], '0x1.d69f7e1bfc97ep-7', 112, True, 20),
    'logistic/gaussian-mean/renyi-alpha': (['0x1.1757844ad3ecdp-1', '0x1.501d7f3c0c991p-5'], '0x1.efc5cc1abcd80p-7', 112, True, 18),
}


def test_every_case_pinned():
    assert set(CASES) == set(PINS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fit_pinned(name):
    assert outcome(CASES[name]) == PINS[name]


if __name__ == "__main__":
    print("PINS = {")
    for name in sorted(CASES):
        print(f"    {name!r}: {outcome(CASES[name])!r},")
    print("}")
