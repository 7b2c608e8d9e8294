"""Command-line interface: fits, good-sequence audits, experiments, and
ad-hoc divergence evaluation.

Configuration is a single JSON file per run. Seed precedence is
``--seed`` flag > ``RENYI_VI_SEED`` environment variable > config value.
Exit codes: 0 success/criteria pass, 1 usage or config error, 2 ran but
failed (non-convergence, dominance failure, or failed verdicts; outputs are
still written).

Config keys by subcommand
-------------------------
fit:        model | target, data ({"theta0","n","seed"} or {"csv": path}),
            family, objective (renyi-alpha|kl-forward|kl-reverse|
            mc-upper-bound), alpha, budget, steps, batch_size, seed, outdir
experiment: experiment (consistency|ubfin|ndegen|mixture|rate-violation|
            ep|figure1|goodseq-audit) plus that experiment's keys (see
            EXPERIMENT_KEYS below), seed, outdir, jobs
audit:      model, family, alpha, audit_grid, rate_grid, M_bar, seed, outdir
divergence: p, q (density specs), alpha or kl (forward|reverse), outdir
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path


from .config import ConfigError, build_density, build_family, build_model, check_keys
from .divergence import kl_forward, kl_reverse, renyi_quadrature
from .experiments import (
    RateViolationSpec,
    run_consistency,
    run_ep_consistency,
    run_figure1,
    run_goodseq_audit,
    run_mixture_bound,
    run_ndegen,
    run_rate_violation,
    run_ubfin,
    write_report,
)
from .models import load_data_csv
from .varfit import DominanceError, fit, fit_stochastic

EXPERIMENT_NAMES = (
    "consistency",
    "ubfin",
    "ndegen",
    "mixture",
    "rate-violation",
    "ep",
    "figure1",
    "goodseq-audit",
)

EXPERIMENT_KEYS = {
    "consistency": {"model", "family", "alpha", "n_grid", "seeds", "n_seeds",
                    "theta0", "quad_tol", "budget", "slope_range", "cover_min"},
    "ep": {"model", "family", "alpha", "n_grid", "seeds", "n_seeds", "theta0",
           "quad_tol", "budget", "slope_range", "cover_min"},
    "ubfin": {"model", "alpha", "M_bar", "n_grid", "theta0"},
    "ndegen": {"model", "alpha", "q_fixed", "n_grid", "theta0", "slope_range"},
    "mixture": {"model", "alpha", "w", "theta1", "spike_width", "n_grid",
                "theta0", "slack"},
    "rate-violation": {"kappa", "alpha", "sigma", "B", "n_max", "expected_n0"},
    "figure1": {"rho", "alphas", "budget", "grid_extent", "grid_points"},
    "goodseq-audit": {"model", "family", "alpha", "audit_grid", "rate_grid",
                      "M_bar", "theta0", "rate_tol"},
}


class _CliError(Exception):
    """Usage/config error; maps to exit code 1."""


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise _CliError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}")


def _resolve_seed(args, config: dict, key: str = "seed"):
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("RENYI_VI_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _CliError(f"RENYI_VI_SEED must be an integer, got {env!r}")
    return config.get(key)


def _outdir(args, config: dict, tag: str) -> Path:
    if getattr(args, "outdir", None):
        out = Path(args.outdir)
    elif config.get("outdir"):
        out = Path(config["outdir"])
    else:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        seed = config.get("seed", 0)
        out = Path(f"runs/{tag}-{stamp}-seed{seed}")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_data(config: dict, model, seed):
    data_spec = config.get("data")
    if data_spec is None:
        raise _CliError("fit config needs a 'data' entry (or a 'target' density)")
    if "csv" in data_spec:
        check_keys(data_spec, {"csv"}, "data spec")
        return load_data_csv(data_spec["csv"])
    check_keys(data_spec, {"theta0", "n", "seed"}, "data spec")
    if "n" not in data_spec:
        raise _CliError("generated data spec needs 'n'")
    theta0 = float(data_spec.get("theta0", 0.5))
    use_seed = seed if seed is not None else data_spec.get("seed", 0)
    return model.simulate(theta0, int(data_spec["n"]), int(use_seed))


def cmd_fit(args) -> int:
    config = _load_config(args.config)
    check_keys(
        config,
        {"model", "target", "data", "family", "objective", "alpha", "budget",
         "steps", "batch_size", "seed", "outdir", "quad_tol"},
        "fit config",
    )
    seed = _resolve_seed(args, config)
    if "family" not in config or "objective" not in config:
        raise _CliError("fit config needs 'family' and 'objective'")
    objective = config["objective"]
    alpha = config.get("alpha")
    if objective in ("renyi-alpha", "mc-upper-bound") and alpha is None:
        raise _CliError(f"objective {objective!r} requires 'alpha'")
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
        if objective == "mc-upper-bound":
            result = fit_stochastic(
                target, family, float(alpha),
                steps=int(config.get("steps", 2000)),
                batch_size=int(config.get("batch_size", 256)),
                seed=int(seed if seed is not None else 0),
            )
        else:
            result = fit(
                target, family, objective,
                alpha=None if alpha is None else float(alpha),
                budget=int(config.get("budget", 400)),
                seed=seed,
                quad_tol=float(config.get("quad_tol", 1e-8)),
            )
    except DominanceError as exc:
        payload = {"error": "dominance", "message": str(exc), "config": config}
        with open(out / "fit.json", "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"dominance failure: {exc}", file=sys.stderr)
        print(f"wrote {out / 'fit.json'}")
        return 2

    payload = result.to_json_dict()
    payload["config_echo"] = config
    with open(out / "fit.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out / 'fit.json'}  objective={result.objective.value:.6g} "
          f"converged={result.converged}")
    return 0 if result.converged else 2


def _experiment_report(name: str, config: dict, seed, jobs: int):
    def seeds_list(default_n=10):
        if "seeds" in config:
            return [int(s) for s in config["seeds"]]
        n = int(config.get("n_seeds", default_n))
        base = int(seed if seed is not None else 0)
        return [base + i for i in range(n)]

    model = config.get("model", {"name": "gaussian-mean", "mu0": 0.0, "sigma": 1.0})
    if name in ("consistency", "ep"):
        kw = dict(
            model_spec=model,
            family_name=config.get("family", "laplace"),
            n_grid=config.get("n_grid", [100, 1000, 10**4, 10**5]),
            seeds=seeds_list(),
            theta0=config.get("theta0"),
            quad_tol=float(config.get("quad_tol", 1e-7)),
            budget=int(config.get("budget", 260)),
            jobs=jobs,
            cover_min=float(config.get("cover_min", 0.95)),
        )
        if "slope_range" in config:
            kw["slope_range"] = tuple(config["slope_range"])
        if name == "ep":
            return run_ep_consistency(alpha=float(config.get("alpha", 2.0)), **kw)
        return run_consistency(alpha=float(config.get("alpha", 2.0)), **kw)
    if name == "ubfin":
        return run_ubfin(
            model, float(config.get("alpha", 2.0)), float(config["M_bar"]),
            n_grid=config.get("n_grid", [10**4, 10**5, 10**6]),
            theta0=config.get("theta0"),
        )
    if name == "ndegen":
        return run_ndegen(
            model, float(config.get("alpha", 2.0)),
            config.get("q_fixed", {"kind": "gaussian", "mean": 0.5, "cov": 1.0}),
            n_grid=config.get("n_grid", [100, 1000, 10**4, 10**5, 10**6]),
            seed=int(seed if seed is not None else 0),
            theta0=config.get("theta0"),
            slope_range=tuple(config.get("slope_range", (0.45, 0.55))),
        )
    if name == "mixture":
        return run_mixture_bound(
            model, float(config.get("alpha", 2.0)), float(config.get("w", 0.5)),
            float(config.get("theta1", 1.5)),
            spike_width=float(config.get("spike_width", 1e-3)),
            n_grid=config.get("n_grid", [100, 1000, 10**4, 10**5]),
            seed=int(seed if seed is not None else 0),
            theta0=config.get("theta0"),
            slack=float(config.get("slack", 0.1)),
        )
    if name == "rate-violation":
        spec = RateViolationSpec(
            kappa=float(config.get("kappa", 0.75)),
            alpha=float(config.get("alpha", 2.0)),
            sigma=float(config.get("sigma", 1.0)),
            B=float(config.get("B", 1.0)),
        )
        return run_rate_violation(
            spec, n_max=int(config.get("n_max", 10**4)),
            expected_n0=config.get("expected_n0"),
        )
    if name == "figure1":
        return run_figure1(
            rho=float(config.get("rho", 0.9)),
            alphas=tuple(float(a) for a in config.get("alphas", (2, 5, 20))),
            budget=int(config.get("budget", 700)),
            grid_extent=float(config.get("grid_extent", 3.0)),
            grid_points=int(config.get("grid_points", 61)),
        )
    if name == "goodseq-audit":
        return run_goodseq_audit(
            model, config.get("family", "laplace"),
            alpha=float(config.get("alpha", 2.0)),
            audit_grid=config.get("audit_grid", (10, 100, 1000)),
            rate_grid=config.get("rate_grid", (100, 1000, 10**4, 10**5)),
            seed=int(seed if seed is not None else 0),
            theta0=config.get("theta0"),
            M_bar=config.get("M_bar"),
            rate_tol=float(config.get("rate_tol", 0.01)),
        )
    raise _CliError(
        f"unknown experiment {name!r}; valid names: {', '.join(EXPERIMENT_NAMES)}"
    )


def cmd_experiment(args) -> int:
    config = _load_config(args.config)
    name = config.get("experiment")
    if name is None:
        raise _CliError("experiment config needs an 'experiment' key")
    if name not in EXPERIMENT_NAMES:
        raise _CliError(
            f"unknown experiment {name!r}; valid names: {', '.join(EXPERIMENT_NAMES)}"
        )
    allowed = EXPERIMENT_KEYS[name] | {"experiment", "seed", "outdir", "jobs"}
    check_keys(config, allowed, f"experiment config ({name})")
    seed = _resolve_seed(args, config)
    jobs = args.jobs if args.jobs is not None else int(config.get("jobs", 1))
    report = _experiment_report(name, config, seed, jobs)
    out = _outdir(args, config, name)
    paths = write_report(report, out)
    for v in report.verdicts:
        mark = "PASS" if v["passed"] else "FAIL"
        print(f"[{mark}] {report.name}.{v['criterion']}: measured={v['measured']} "
              f"threshold={v['threshold']}")
    print(f"wrote {paths['json']}")
    return 0 if report.passed else 2


def cmd_audit(args) -> int:
    config = _load_config(args.config)
    check_keys(
        config,
        EXPERIMENT_KEYS["goodseq-audit"] | {"seed", "outdir"},
        "audit config",
    )
    config = dict(config)
    config["experiment"] = "goodseq-audit"
    seed = _resolve_seed(args, config)
    report = _experiment_report("goodseq-audit", config, seed, 1)
    out = _outdir(args, config, "goodseq-audit")
    paths = write_report(report, out)
    for v in report.verdicts:
        mark = "PASS" if v["passed"] else "FAIL"
        print(f"[{mark}] {v['criterion']}: measured={v['measured']}")
    print(f"wrote {paths['csv']}")
    return 0 if report.passed else 2


def cmd_divergence(args) -> int:
    if args.config:
        config = _load_config(args.config)
        check_keys(config, {"p", "q", "alpha", "kl", "outdir"}, "divergence config")
    else:
        config = {}
    try:
        p_spec = json.loads(args.p) if args.p else config.get("p")
        q_spec = json.loads(args.q) if args.q else config.get("q")
    except json.JSONDecodeError as exc:
        raise _CliError(f"bad density JSON: {exc.msg}")
    if p_spec is None or q_spec is None:
        raise _CliError("divergence needs densities 'p' and 'q'")
    p = build_density(p_spec)
    q = build_density(q_spec)
    kl = args.kl or config.get("kl")
    alpha = args.alpha if args.alpha is not None else config.get("alpha")
    if kl is not None:
        est = kl_forward(p, q) if kl == "forward" else kl_reverse(p, q)
    elif alpha is not None:
        est = renyi_quadrature(p, q, float(alpha))
    else:
        raise _CliError("divergence needs --alpha or --kl")
    print(json.dumps({
        "value": est.value, "method": est.method, "error": est.error,
        "alpha": est.alpha,
    }))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renyi-vi",
        description=(
            "Mass-covering variational inference: fits, good-sequence audits, "
            "experiments and ad-hoc divergences. Configs are JSON files; seed "
            "precedence is --seed > RENYI_VI_SEED > config."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="minimize a divergence over a family",
                           description="Config keys: model|target, data, family, "
                                       "objective, alpha, budget, steps, batch_size, "
                                       "seed, outdir, quad_tol.")
    p_fit.add_argument("config", help="JSON config file")
    p_fit.add_argument("--seed", type=int)
    p_fit.add_argument("--outdir")
    p_fit.set_defaults(func=cmd_fit)

    p_exp = sub.add_parser(
        "experiment",
        help="run a named experiment and write report.json/report.csv",
        description="Experiments: " + ", ".join(EXPERIMENT_NAMES)
        + ". Exit 0 iff all verdicts pass; reports are always written. "
        "CSV columns are fixed per experiment and versioned by the "
        "'# schema=1' header line.",
    )
    p_exp.add_argument("config", help="JSON config file")
    p_exp.add_argument("--seed", type=int)
    p_exp.add_argument("--outdir")
    p_exp.add_argument("--jobs", type=int, default=None,
                       help="worker processes for per-cell fan-out (default 1)")
    p_exp.set_defaults(func=cmd_experiment)

    p_aud = sub.add_parser(
        "audit",
        help="audit a good-sequence constructor over an n-grid",
        description="CSV columns: n, family, alpha, mean, mean_gap, mean_is_mle, "
                    "variance, m_bar, rate_ok, ratio_sup, ratio_sup_global, "
                    "ratio_bound, ratio_bound_ok, logconcave_ok, entropy, "
                    "entropy_bound, entropy_ok.",
    )
    p_aud.add_argument("config", help="JSON config file")
    p_aud.add_argument("--seed", type=int)
    p_aud.add_argument("--outdir")
    p_aud.set_defaults(func=cmd_audit)

    p_div = sub.add_parser(
        "divergence",
        help="evaluate a Renyi or KL divergence between two described densities",
    )
    p_div.add_argument("--config", default=None)
    p_div.add_argument("--p", help="density spec as inline JSON")
    p_div.add_argument("--q", help="density spec as inline JSON")
    p_div.add_argument("--alpha", type=float)
    p_div.add_argument("--kl", choices=("forward", "reverse"))
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
    except (_CliError, ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
