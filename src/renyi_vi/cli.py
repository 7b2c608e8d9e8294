"""Command-line interface: fits, good-sequence audits, experiments, and
ad-hoc divergence evaluation.

Configuration is a single JSON file per run (``divergence`` takes flags
only: --p, --q and one of --alpha or --kl). Seed precedence is ``--seed``
flag > config value. Exit codes: 0 success/criteria pass, 1 usage or config
error, 2 ran but failed (non-convergence, dominance failure, or failed
verdicts; outputs are still written).

Each subcommand's ``--help`` lists its config keys; fit's objective is one of
renyi-alpha, kl-forward or kl-reverse. An experiment's keys and
their defaults are its runner's parameters (experiment_keys), with ``seeds``
also given by ``n_seeds``; a model or density spec's keys are the parameters
of the function its "name" or "kind" selects (renyi_vi.config). Every value's
JSON type is checked against its key's default; a key whose default is an
int, and seed, take whole numbers.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import textwrap
import time
from pathlib import Path

from . import experiments
from .config import (ConfigError, build_density, build_family, build_model,
                     check_keys, check_type)
from .divergence import kl_forward, kl_reverse, renyi
from .experiments import write_report
from .goodseq import AUDIT_COLUMNS
from .models import load_data_csv
from .varfit import DominanceError, _divergence, fit

# Experiment name -> runner. Each runner's signature gives the experiment's
# config keys and their defaults. The CLI calls the runner by name, as an
# attribute of renyi_vi.experiments looked up at call time, so it runs
# whatever that attribute holds then; this table serves the signatures.
EXPERIMENTS = {
    "consistency": experiments.run_consistency,
    "ubfin": experiments.run_ubfin,
    "ndegen": experiments.run_ndegen,
    "mixture": experiments.run_mixture_bound,
    "rate-violation": experiments.run_rate_violation,
    "ep": experiments.run_ep_consistency,
    "figure1": experiments.run_figure1,
    "goodseq-audit": experiments.run_goodseq_audit,
}

# Runner parameters that are not config keys: seed and jobs are filled from
# the keys every experiment accepts (COMMON_KEYS), and objective_kind is fixed
# by the choice of runner.
_NOT_KEYS = {"seed", "jobs", "objective_kind"}
COMMON_KEYS = ("experiment", "seed", "outdir", "jobs")


class _CliError(Exception):
    """Usage/config error; maps to exit code 1."""


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise _CliError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}")
    if not isinstance(config, dict):
        raise _CliError(f"{path}: a config is a JSON object, got {json.dumps(config)[:40]}")
    return config


def _resolve_seed(args, config: dict, where: str):
    """--seed, else the config's seed (type-checked in any case)."""
    seed = config.get("seed")
    if seed is not None:
        check_type(where, "seed", seed, 0)
        seed = int(seed)
    return args.seed if getattr(args, "seed", None) is not None else seed


def _outdir(args, config: dict, tag: str) -> Path:
    """Where a command writes: --outdir, else the config's outdir, else a
    stamped directory under runs/. It is made where a file is written."""
    if getattr(args, "outdir", None):
        return Path(args.outdir)
    if config.get("outdir"):
        return Path(config["outdir"])
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return Path(f"runs/{tag}-{stamp}-seed{config.get('seed', 0)}")


def _fit_json(out: Path) -> Path:
    """The path of fit.json in ``out``, made only now, so that a refused
    config leaves no empty run directory."""
    out.mkdir(parents=True, exist_ok=True)
    return out / "fit.json"


# The keys of a generated-data spec, each with its default; "n" is required.
_DATA_KEYS = {"theta0": 0.5, "n": 0, "seed": 0}


def _resolve_data(config: dict, model, seed):
    data_spec = config.get("data")
    if data_spec is None:
        raise _CliError("fit config needs a 'data' entry (or a 'target' density)")
    defaults = {"csv": ""} if "csv" in data_spec else _DATA_KEYS
    check_keys(data_spec, set(defaults), "data spec")
    for key, value in data_spec.items():
        check_type("data spec", key, value, defaults[key])
    if "csv" in data_spec:
        return load_data_csv(data_spec["csv"])
    if "n" not in data_spec:
        raise _CliError("generated data spec needs 'n'")
    spec = {**_DATA_KEYS, **data_spec}
    seed = spec["seed"] if seed is None else seed
    return model.simulate(float(spec["theta0"]), int(spec["n"]), int(seed))


# Numeric fit settings: each is a parameter of fit, whose signature gives its
# type and its default.
_FIT_NUMBERS = ("budget", "quad_tol")
# The fit config's other plain values, each with a default of its type.
_FIT_VALUES = {"data": {}, "family": "", "objective": "", "alpha": None, "outdir": ""}


def cmd_fit(args) -> int:
    config = _load_config(args.config)
    params = inspect.signature(fit).parameters
    typed = {**_FIT_VALUES, **{key: params[key].default for key in _FIT_NUMBERS}}
    check_keys(config, {"model", "target", "seed", *typed}, "fit config")
    for key, default in typed.items():
        if key in config:
            check_type("fit config", key, config[key], default)
    seed = _resolve_seed(args, config, "fit config")
    if "family" not in config or "objective" not in config:
        raise _CliError("fit config needs 'family' and 'objective'")
    objective, alpha = config["objective"], config.get("alpha")
    # an unknown kind or a bad alpha is refused, as fit refuses it, before any work
    _divergence(objective, alpha)
    # the numeric settings, cast to their defaults' types
    numbers = {key: type(typed[key])(config[key]) for key in _FIT_NUMBERS if key in config}
    family = build_family(config["family"])
    if "target" in config:
        target = build_density(config["target"])
    elif "model" in config:
        model = build_model(config["model"])
        data = _resolve_data(config, model, seed)
        target = (model, data)
    else:
        raise _CliError("fit config needs either 'target' or 'model'")

    out = _outdir(args, config, "fit")
    try:
        result = fit(
            target, family, objective,
            alpha=None if alpha is None else float(alpha),
            seed=seed, **numbers,
        )
    except DominanceError as exc:
        payload = {"error": "dominance", "message": str(exc), "config": config}
        with open(_fit_json(out), "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"dominance failure: {exc}", file=sys.stderr)
        print(f"wrote {out / 'fit.json'}")
        return 2

    payload = result.to_json_dict()
    payload["config_echo"] = config
    with open(_fit_json(out), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out / 'fit.json'}  objective={result.objective.value:.6g} "
          f"converged={result.converged}")
    return 0 if result.converged else 2


def experiment_keys(name: str) -> dict:
    """The config keys of experiment ``name``, each with its default: its
    runner's parameters, with ``seeds`` also given by ``n_seeds``."""
    keys = {}
    for key, param in inspect.signature(EXPERIMENTS[name]).parameters.items():
        if key not in _NOT_KEYS:
            keys[key] = param.default
            if key == "seeds":
                keys["n_seeds"] = len(param.default)
    return keys


def _runner_kwargs(name: str, keys: dict, config: dict, seed, jobs: int) -> dict:
    """The runner's arguments: the config's own values, uncast (the runner
    casts them), plus the ones the CLI fills."""
    params = inspect.signature(EXPERIMENTS[name]).parameters
    kwargs = {k: config[k] for k in params if k in keys and k in config}
    if "seed" in params and seed is not None:
        kwargs["seed"] = seed
    if "jobs" in params:
        kwargs["jobs"] = jobs
    if "seeds" in params and "seeds" not in config:
        base = seed if seed is not None else 0
        n = int(config.get("n_seeds", keys["n_seeds"]))
        kwargs["seeds"] = [base + i for i in range(n)]
    return kwargs


def cmd_experiment(args) -> int:
    config = _load_config(args.config)
    # the audit subcommand fixes the experiment and takes neither key
    name = args.experiment or config.get("experiment")
    if name is None:
        raise _CliError("experiment config needs an 'experiment' key")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise _CliError(
            f"unknown experiment {name!r}; valid names: {', '.join(EXPERIMENTS)}"
        )
    where = "audit config" if args.experiment else f"experiment config ({name})"
    common = {"seed", "outdir"} if args.experiment else set(COMMON_KEYS)
    keys = experiment_keys(name)
    check_keys(config, set(keys) | common, where)
    for key, default in {**keys, "jobs": 1, "outdir": ""}.items():
        if key in config:
            check_type(where, key, config[key], default)
    seed = _resolve_seed(args, config, where)
    jobs = args.jobs if args.jobs is not None else int(config.get("jobs", 1))
    runner = getattr(experiments, EXPERIMENTS[name].__name__)
    report = runner(**_runner_kwargs(name, keys, config, seed, jobs))
    out = _outdir(args, config, name)
    paths = write_report(report, out)
    for v in report.verdicts:
        mark = "PASS" if v["passed"] else "FAIL"
        print(f"[{mark}] {report.name}.{v['criterion']}: measured={v['measured']} "
              f"threshold={v['threshold']}")
    print(f"wrote {paths['json']}")
    return 0 if report.passed else 2


def cmd_divergence(args) -> int:
    p, q = build_density(args.p), build_density(args.q)
    if args.kl is None:
        est = renyi(p, q, args.alpha)
    else:
        est = (kl_forward if args.kl == "forward" else kl_reverse)(p, q)
    print(json.dumps({
        "value": est.value, "method": est.method, "error": est.error,
        "alpha": est.alpha, "reason": est.reason, "converged": est.converged,
        "panels": est.panels,
    }))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renyi-vi",
        description=(
            "Mass-covering variational inference: fits, good-sequence audits, "
            "experiments and ad-hoc divergences. Configs are JSON files; seed "
            "precedence is --seed > config."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser(
        "fit", help="minimize a divergence over a family",
        description="Config keys: model|target (a spec), "
        + ", ".join([*_FIT_VALUES, *_FIT_NUMBERS, "seed"]) + ". data is {"
        + ", ".join(_DATA_KEYS) + "} or {csv}; n, seed and the settings whose "
        "default is an int take whole numbers.")
    p_fit.add_argument("config", help="JSON config file")
    p_fit.add_argument("--seed", type=int)
    p_fit.add_argument("--outdir")
    p_fit.set_defaults(func=cmd_fit)

    listing = "\n".join(
        textwrap.fill(f"{name}: {', '.join(experiment_keys(name))}",
                      initial_indent="  ", subsequent_indent="      ")
        for name in EXPERIMENTS)
    p_exp = sub.add_parser(
        "experiment",
        help="run a named experiment and write report.json/report.csv",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Runs the experiment that the config's 'experiment' key "
        "names. Exit 0 iff all\nverdicts pass; reports are always written. CSV "
        "columns are fixed per experiment\nand versioned by the '# schema=1' "
        "header line.\n\nExperiments and their config keys, besides "
        + ", ".join(COMMON_KEYS) + ":\n" + listing,
    )
    p_exp.add_argument("config", help="JSON config file")
    p_exp.add_argument("--seed", type=int)
    p_exp.add_argument("--outdir")
    p_exp.add_argument("--jobs", type=int, default=None,
                       help="worker processes for per-cell fan-out (default 1)")
    p_exp.set_defaults(func=cmd_experiment, experiment=None)

    p_aud = sub.add_parser(
        "audit",
        help="audit a good-sequence constructor over an n-grid",
        description="The goodseq-audit experiment. Config keys: "
                    + ", ".join(experiment_keys("goodseq-audit"))
                    + ", seed, outdir. CSV columns: "
                    + ", ".join(AUDIT_COLUMNS) + ".",
    )
    p_aud.add_argument("config", help="JSON config file")
    p_aud.add_argument("--seed", type=int)
    p_aud.add_argument("--outdir")
    p_aud.set_defaults(func=cmd_experiment, experiment="goodseq-audit", jobs=None)

    p_div = sub.add_parser(
        "divergence",
        help="evaluate a Renyi or KL divergence between two described densities",
    )
    p_div.add_argument("--p", required=True, type=json.loads,
                       help="density spec as inline JSON")
    p_div.add_argument("--q", required=True, type=json.loads,
                       help="density spec as inline JSON")
    mode = p_div.add_mutually_exclusive_group(required=True)
    mode.add_argument("--alpha", type=float)
    mode.add_argument("--kl", choices=("forward", "reverse"))
    p_div.set_defaults(func=cmd_divergence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract here is 1
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (_CliError, ConfigError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
