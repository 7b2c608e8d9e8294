"""Builders that turn plain-dict specifications into models, densities and
families, and the one type check of every configuration value. Shared by the
experiment harness (whose reports echo these dicts) and the command-line
interface. A spec's keys are the parameters of the function it names; unknown
and missing keys and values of the wrong JSON type are rejected by name.
"""

from __future__ import annotations

import inspect
import json
import sys
from typing import Any, Mapping

from . import distributions, models
from .distributions import Density
from .models import BayesModel
from .varfit import FAMILY_BUILDERS, VariationalFamily

__all__ = ["ConfigError", "DENSITIES", "MODELS", "build_model", "build_density",
           "build_family", "check_keys", "check_type"]


class ConfigError(ValueError):
    """A configuration dict is malformed (unknown key, bad value, ...)."""


# Density kind -> constructor and model name -> factory. Each function's
# signature gives its spec's keys, their defaults and their types. A spec is
# built by the attribute of that name on the function's module, looked up at
# call time, so it runs whatever that attribute holds then.
DENSITIES = {kind: getattr(distributions, f"make_{kind}") for kind in (
    "gaussian", "laplace", "logistic", "gamma", "uniform", "spike", "mixture")}
MODELS = {"gaussian-mean": models.gaussian_mean_model,
          "mvn-mean": models.mvn_mean_model, "exponential": models.exponential_model}

# The type of a required parameter not annotated ``float``: a number or a
# list of them, nested (a mean, a covariance, mixture weights).
ARRAY = object()


def check_keys(d: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_type(where: str, key: str, value, default) -> None:
    """Reject a configuration value whose JSON type does not fit its key's
    default: a list for a tuple or list, each entry checked against the
    default's first; an object for a dict; a string for a str; a whole number
    for an int (``1e4`` is one, ``1.5`` is not); a number or null for None;
    a number for a float; and a number or a list of them for ``ARRAY``."""
    listed = isinstance(default, (list, tuple))
    if isinstance(value, (list, tuple)) and (listed or default is ARRAY):
        for i, v in enumerate(value):
            check_type(where, f"{key}[{i}]", v, default[0] if listed else ARRAY)
        return
    if listed:
        kind, ok = "a list", False
    elif isinstance(default, dict):
        kind, ok = "an object", isinstance(value, dict)
    elif isinstance(default, str):
        kind, ok = "a string", isinstance(value, str)
    elif default is None:
        kind, ok = "a number or null", value is None or _is_number(value)
    elif isinstance(default, int):
        kind = "a whole number"
        ok = _is_number(value) and (isinstance(value, int) or value.is_integer())
    else:
        kind = "a number or a list of numbers" if default is ARRAY else "a number"
        ok = _is_number(value)
    if not ok:
        got = json.dumps(value, default=repr)
        raise ConfigError(f"{where}: {key!r} must be {kind}, got {got}")


def _build(spec, tag: str, table: dict, where: str):
    """Call the function ``table[spec[tag]]`` with the spec's other keys,
    each checked against the function's parameter of that name."""
    if not isinstance(spec, dict):
        got = json.dumps(spec, default=repr)
        raise ConfigError(f"a {where} is a JSON object, got {got}")
    if tag not in spec:
        raise ConfigError(f"{where} needs a {tag!r}")
    name = spec[tag]
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"{where}: unknown {tag} {name!r}; valid: {', '.join(table)}")
    factory = table[name]
    params = inspect.signature(factory).parameters
    where = f"{where} ({name})"
    check_keys(spec, {tag, *params}, where)
    kwargs = {}
    for key, param in params.items():
        default = param.default
        if key not in spec:
            if default is param.empty:
                raise ConfigError(f"{where} needs {key!r}")
        elif key == "prior":
            kwargs[key] = build_density(spec[key])
        elif key == "components":
            check_type(where, key, spec[key], ({},))
            kwargs[key] = [build_density(c) for c in spec[key]]
        else:
            if default is param.empty:
                # a required parameter is typed by its annotation, which
                # postponed evaluation leaves a string
                default = 0.0 if param.annotation == "float" else ARRAY
            check_type(where, key, spec[key], default)
            kwargs[key] = spec[key]
    return getattr(sys.modules[factory.__module__], factory.__name__)(**kwargs)


def build_model(spec: Mapping[str, Any]) -> BayesModel:
    """Model spec: {"name": <a key of MODELS>, <that factory's parameters>},
    e.g. {"name": "gaussian-mean", "mu0": 0.0, "sigma": 1.0}."""
    return _build(spec, "name", MODELS, "model spec")


def build_density(spec: Mapping[str, Any]) -> Density:
    """Density spec: {"kind": <a key of DENSITIES>, <that constructor's
    parameters>}, e.g. {"kind": "laplace", "loc": 0.0, "scale": 1.0}."""
    return _build(spec, "kind", DENSITIES, "density spec")


def build_family(name: str) -> VariationalFamily:
    if not isinstance(name, str) or name not in FAMILY_BUILDERS:
        raise ConfigError(
            f"unknown family {name!r}; valid: {sorted(FAMILY_BUILDERS)}"
        )
    return FAMILY_BUILDERS[name]()
