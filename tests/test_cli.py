"""Command-line interface: exit codes, config validation, seed precedence,
output files."""

import functools
import inspect
import json
import math
import subprocess
import sys

import pytest

from renyi_vi import cli, divergence, experiments, varfit
from renyi_vi.cli import EXPERIMENTS, experiment_keys, main


def run_cli(args):
    """Invoke the entry point in-process, capturing the exit code."""
    return main(args)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


GM = {"name": "gaussian-mean", "mu0": 0.0, "sigma": 1.0}
# the 2-D model, for renyi-vi fit only: every experiment refuses it
MVN = {"name": "mvn-mean"}


class TestFitCommand:
    def test_conjugate_fit_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "fit.json", {
            "model": GM, "data": {"theta0": 0.5, "n": 50}, "seed": 3,
            "family": "gaussian", "objective": "renyi-alpha", "alpha": 2.0,
            "outdir": str(tmp_path / "out"),
        })
        assert run_cli(["fit", cfg]) == 0
        payload = json.loads((tmp_path / "out" / "fit.json").read_text())
        assert payload["objective"]["value"] <= 1e-8
        assert payload["converged"] is True

    def test_dominance_failure_exits_two_with_diagnostic(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "fit.json", {
            "model": GM, "data": {"theta0": 0.5, "n": 20},
            "family": "gamma", "objective": "renyi-alpha", "alpha": 2.0,
            "outdir": str(tmp_path / "out"),
        })
        assert run_cli(["fit", cfg]) == 2
        err = capsys.readouterr().err
        assert "dominance" in err
        payload = json.loads((tmp_path / "out" / "fit.json").read_text())
        assert payload["error"] == "dominance"

    def test_missing_alpha_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, "fit.json", {
            "model": GM, "data": {"n": 20}, "family": "gaussian",
            "objective": "renyi-alpha",
        })
        assert run_cli(["fit", cfg]) == 1

    def test_infinite_alpha_exits_one_naming_it(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "fit.json", {
            "model": GM, "data": {"n": 20}, "family": "laplace",
            "objective": "renyi-alpha", "alpha": math.inf,
        })
        assert run_cli(["fit", cfg]) == 1
        assert "alpha must be finite" in capsys.readouterr().err
        # a refused fit leaves no run directory behind
        assert not (tmp_path / "runs").exists()

    def test_default_outdir_is_made_for_fit_json(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "fit.json", {
            "model": GM, "data": {"n": 20}, "family": "gaussian",
            "objective": "kl-forward", "seed": 4,
        })
        assert run_cli(["fit", cfg]) == 0
        written = list((tmp_path / "runs").glob("fit-*-seed4/fit.json"))
        assert len(written) == 1

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "fit.json", {
            "model": GM, "data": {"n": 20}, "family": "gaussian",
            "objective": "kl-forward", "bogus_key": 1,
        })
        assert run_cli(["fit", cfg]) == 1
        assert "bogus_key" in capsys.readouterr().err

    def test_malformed_json_exits_one_with_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"model": \n  nope}')
        assert run_cli(["fit", str(path)]) == 1
        err = capsys.readouterr().err
        assert ":2:" in err  # line-anchored message

    def test_csv_data_loading(self, tmp_path):
        data_path = tmp_path / "obs.csv"
        data_path.write_text("0.4\n0.6\n0.5\n0.7\n")
        cfg = write_config(tmp_path, "fit.json", {
            "model": GM, "data": {"csv": str(data_path)}, "family": "gaussian",
            "objective": "kl-forward", "outdir": str(tmp_path / "out"),
        })
        assert run_cli(["fit", cfg]) == 0
        payload = json.loads((tmp_path / "out" / "fit.json").read_text())
        # posterior mean (mu0 + sum x)/(n+1) = 2.2/5
        assert abs(payload["params"][0] - 0.44) <= 1e-6

    @pytest.mark.parametrize("alpha", [None, math.inf], ids=["missing", "inf"])
    def test_bad_alpha_exits_one_before_any_work(self, tmp_path, capsys, alpha):
        # the data file is never read: alpha is refused first
        cfg = {"model": GM, "data": {"csv": str(tmp_path / "absent.csv")},
               "family": "gaussian", "objective": "renyi-alpha",
               "outdir": str(tmp_path / "out")}
        if alpha is not None:
            cfg["alpha"] = alpha
        assert run_cli(["fit", write_config(tmp_path, "fit.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert "alpha" in err and "absent.csv" not in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("objective", ["mc-upper-bound", "bogus"])
    def test_unknown_objective_exits_one_before_any_work(self, tmp_path, capsys,
                                                         objective):
        cfg = write_config(tmp_path, "fit.json", {
            "model": GM, "data": {"theta0": 0.5, "n": 20},
            "family": "gaussian", "objective": objective, "alpha": 2.0,
            "outdir": str(tmp_path / "out"),
        })
        assert run_cli(["fit", cfg]) == 1
        err = capsys.readouterr().err
        assert all(kind in err for kind in varfit.OBJECTIVE_KINDS)
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change, named", [
        ({"target": {"kind": "laplace", "loc": 0.0, "scale": 1.0}},
         "it takes no ['data', 'model']"),
        ({"target": {"kind": "laplace", "loc": 0.0, "scale": 1.0},
          "model": {"name": "exponential"}, "data": {"n": 5}},
         "it takes no ['data', 'model']"),
        ({"target": {"kind": "laplace", "loc": 0.0, "scale": 1.0}, "model": None},
         "it takes no ['data']"),
        # the run's seed draws the data: the data spec has none of its own
        ({"data": {"theta0": 0.5, "n": 20, "seed": 2}}, "unknown key(s) ['seed']"),
    ], ids=["target-with-model-and-data", "target-with-other-model", "target-with-data",
            "data-seed"])
    def test_refused_before_any_fit(self, tmp_path, capsys, monkeypatch, change, named):
        fits = []
        # wrapped, so that the CLI reads fit's own signature through it
        monkeypatch.setattr(cli, "fit", functools.wraps(varfit.fit)(
            lambda *args, **kwargs: fits.append(args)))
        payload = {"model": GM, "data": {"n": 20}, "family": "gaussian",
                   "objective": "kl-forward", "outdir": str(tmp_path / "out"), **change}
        payload = {k: v for k, v in payload.items() if v is not None}
        assert run_cli(["fit", write_config(tmp_path, "fit.json", payload)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()
        assert not fits

    @pytest.mark.parametrize("key", ["steps", "batch_size"])
    def test_stochastic_settings_are_unknown_keys(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, "fit.json", {
            "model": GM, "data": {"n": 20}, "family": "gaussian",
            "objective": "renyi-alpha", "alpha": 2.0, key: 64,
        })
        assert run_cli(["fit", cfg]) == 1
        err = capsys.readouterr().err
        assert f"unknown key(s) [{key!r}]" in err

    @pytest.mark.parametrize("objective, key", [
        ("kl-forward", "budget"), ("renyi-alpha", "quad_tol"),
        ("kl-forward", "alpha"), ("kl-forward", "seed"),
    ])
    def test_wrongly_typed_value_exits_one_naming_it(self, tmp_path, capsys,
                                                      objective, key):
        cfg = write_config(tmp_path, "fit.json", {
            "model": GM, "data": {"n": 20}, "family": "gaussian",
            "objective": objective, "alpha": 2.0, key: [1],
        })
        assert run_cli(["fit", cfg]) == 1
        err = capsys.readouterr().err
        assert repr(key) in err and "Traceback" not in err

    def test_fit_scores_at_quad_tol(self, tmp_path, monkeypatch):
        tols = []

        def recording(*args, rel_tol, **kwargs):
            tols.append(rel_tol)
            return divergence.renyi(*args, rel_tol=rel_tol, **kwargs)

        monkeypatch.setattr(varfit, "renyi", recording)
        cfg = write_config(tmp_path, "fit.json", {
            "model": GM, "data": {"theta0": 0.5, "n": 10}, "seed": 1,
            "family": "laplace", "objective": "renyi-alpha", "alpha": 2.0,
            "quad_tol": 1e-3, "outdir": str(tmp_path / "out"),
        })
        assert run_cli(["fit", cfg]) == 0
        assert tols and all(tol == 1e-3 for tol in tols)
        payload = json.loads((tmp_path / "out" / "fit.json").read_text())
        assert payload["config"]["quad_tol"] == 1e-3


class TestExperimentCommand:
    def test_rate_violation_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "exp.json", {
            "experiment": "rate-violation", "kappa": 0.75, "alpha": 2.0,
            "expected_n0": 6, "outdir": str(tmp_path / "rv"),
        })
        assert run_cli(["experiment", cfg]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "onset_matches_expected" in out
        assert (tmp_path / "rv" / "report.json").exists()
        assert (tmp_path / "rv" / "report.csv").exists()

    def test_rate_violation_integers_give_the_same_report(self, tmp_path):
        # the runner casts its own arguments
        for tag, kappa, alpha in (("int", 1, 3), ("float", 1.0, 3.0)):
            cfg = write_config(tmp_path, f"{tag}.json", {
                "experiment": "rate-violation", "kappa": kappa, "alpha": alpha,
                "outdir": str(tmp_path / tag),
            })
            assert run_cli(["experiment", cfg]) == 0
        assert ((tmp_path / "int" / "report.csv").read_bytes()
                == (tmp_path / "float" / "report.csv").read_bytes())

    def test_unknown_experiment_lists_names(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "exp.json", {"experiment": "nope"})
        assert run_cli(["experiment", cfg]) == 1
        err = capsys.readouterr().err
        for name in ("consistency", "figure1", "goodseq-audit"):
            assert name in err

    def test_unknown_key_for_experiment(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "exp.json", {
            "experiment": "rate-violation", "kapa": 0.75,
        })
        assert run_cli(["experiment", cfg]) == 1
        assert "kapa" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [
        ("experiment", {"experiment": "goodseq-audit"}),
        ("audit", {}),
    ], ids=["experiment", "audit"])
    def test_unread_ratio_claim_key_rejected(self, tmp_path, capsys, command, extra):
        # the audit always uses the cited tail-ratio constant, so a claimed
        # one would be silently ignored
        cfg = write_config(tmp_path, "exp.json", {
            **extra, "model": GM, "family": "laplace", "M_r_claim": 1.5,
            "outdir": str(tmp_path / "out"),
        })
        assert run_cli([command, cfg]) == 1
        assert "M_r_claim" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [
        ("experiment", {"experiment": "goodseq-audit"}),
        ("audit", {}),
    ], ids=["experiment", "audit"])
    def test_retired_rate_tolerance_is_an_unknown_key(self, tmp_path, capsys,
                                                      command, extra):
        cfg = write_config(tmp_path, "exp.json", {
            **extra, "model": {"name": "exponential"}, "family": "gamma",
            "rate_tol": 0.1, "outdir": str(tmp_path / "out"),
        })
        assert run_cli([command, cfg]) == 1
        assert "unknown key(s) ['rate_tol']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, payload, named", [
        ("experiment", {"experiment": "consistency", "n_grid": [100]}, "n_grid"),
        ("experiment", {"experiment": "ep", "n_grid": [1000, 1000]}, "n_grid"),
        ("audit", {"rate_grid": [1000, 1000, 1000, 1000]}, "rate_grid"),
        ("audit", {"rate_grid": []}, "rate_grid"),
        ("audit", {"audit_grid": []}, "audit_grid"),
        ("experiment", {"experiment": "ubfin", "M_bar": 1.0, "n_grid": []}, "n_grid"),
        ("experiment", {"experiment": "mixture", "n_grid": []}, "n_grid"),
    ], ids=["one-consistency-size", "one-ep-size", "repeated-rate-size",
            "empty-rate-grid", "empty-audit-grid", "empty-ubfin-grid",
            "empty-mixture-grid"])
    def test_grid_too_short_exits_one_before_any_work(self, tmp_path, capsys,
                                                      command, payload, named):
        cfg = write_config(tmp_path, "exp.json",
                           {**payload, "outdir": str(tmp_path / "out")})
        assert run_cli([command, cfg]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, payload, named", [
        ("audit", {"model": MVN, "family": "gaussian-meanfield"}, "'mvn-mean'"),
        ("experiment", {"experiment": "consistency", "model": MVN,
                        "family": "isotropic-gaussian-2d"}, "'mvn-mean'"),
        ("experiment", {"experiment": "ndegen", "model": MVN}, "'mvn-mean'"),
        ("experiment", {"experiment": "mixture", "model": MVN}, "'mvn-mean'"),
        ("experiment", {"experiment": "consistency", "family": "gaussian",
                        "model": {"name": "mvn-mean", "mu0": [0.0], "Sigma": [[1.0]]},
                        "n_grid": [100, 1000], "n_seeds": 1}, "'mvn-mean'"),
        ("experiment", {"experiment": "consistency", "n_grid": [0, 1000], "n_seeds": 1},
         "n_grid"),
        ("experiment", {"experiment": "ndegen", "n_grid": [0, 100, 1000, 10000]}, "n_grid"),
        ("experiment", {"experiment": "ubfin", "M_bar": 1.0, "n_grid": [0, 10000]},
         "n_grid"),
        ("experiment", {"experiment": "mixture", "n_grid": [0, 100]}, "n_grid"),
        ("experiment", {"experiment": "consistency", "n_seeds": 0}, "n_seeds"),
        ("experiment", {"experiment": "ep", "seeds": []}, "unknown key(s) ['seeds']"),
        ("experiment", {"experiment": "figure1", "alphas": []}, "alphas"),
        ("experiment", {"experiment": "figure1", "grid_points": 1},
         "unknown key(s) ['grid_points']"),
        ("experiment", {"experiment": "rate-violation", "n_max": 0}, "n_max"),
        # JSON's NaN and Infinity, which Python's parser reads as floats
        ("experiment", {"experiment": "rate-violation", "kappa": math.nan}, "kappa"),
        ("experiment", {"experiment": "rate-violation", "kappa": math.inf}, "kappa"),
        ("experiment", {"experiment": "ubfin", "M_bar": 1.0, "alpha": 1.0}, "alpha"),
        # settings retired as constants, or as moving nothing, are unknown keys
        ("experiment", {"experiment": "rate-violation", "B": 1.0}, "unknown key(s) ['B']"),
        ("experiment", {"experiment": "figure1", "grid_extent": 3.0},
         "unknown key(s) ['grid_extent']"),
        ("experiment", {"experiment": "ubfin", "M_bar": 1.0, "theta0": 0.5},
         "unknown key(s) ['theta0']"),
        ("experiment", {"experiment": "figure1", "budget": 700}, "unknown key(s) ['budget']"),
        ("experiment", {"experiment": "consistency", "seeds": [0, 1], "n_seeds": 5},
         "unknown key(s) ['seeds']"),
        ("experiment", {"experiment": "consistency", "jobs": 0}, "jobs"),
        ("experiment", {"experiment": "ep", "jobs": -3}, "jobs"),
    ], ids=["2d-audit", "2d-consistency", "2d-ndegen", "2d-mixture", "1d-mvn-mean",
            "zero-consistency-size", "zero-ndegen-size", "zero-ubfin-size",
            "zero-mixture-size", "no-seeds", "empty-seeds", "no-alphas", "one-grid-point",
            "zero-n-max", "nan-kappa", "inf-kappa", "ubfin-alpha-one", "retired-B",
            "retired-grid-extent", "retired-ubfin-theta0", "retired-figure1-budget",
            "retired-seeds-with-n_seeds", "zero-jobs", "negative-jobs"])
    def test_refused_before_any_fit(self, tmp_path, capsys, monkeypatch,
                                    command, payload, named):
        fits = []

        def recording(*args, **kwargs):
            fits.append(args)
            return varfit.fit(*args, **kwargs)

        monkeypatch.setattr(experiments, "fit", recording)
        cfg = write_config(tmp_path, "exp.json",
                           {**payload, "outdir": str(tmp_path / "out")})
        assert run_cli([command, cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()
        assert not fits

    def test_zero_jobs_flag_refused_before_any_fit(self, tmp_path, capsys, monkeypatch):
        fits = []
        monkeypatch.setattr(experiments, "fit", lambda *args, **kwargs: fits.append(args))
        cfg = write_config(tmp_path, "exp.json", {"experiment": "consistency", **LAPLACE_CELL,
                                                  "outdir": str(tmp_path / "out")})
        assert run_cli(["experiment", cfg, "--jobs", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "jobs" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()
        assert not fits

    def test_byte_identical_report_csv(self, tmp_path):
        base = {
            "experiment": "consistency", "model": GM, "family": "laplace",
            "alpha": 2.0, "n_grid": [100, 1000], "n_seeds": 2,
        }
        cfg1 = write_config(tmp_path, "e1.json", {**base, "outdir": str(tmp_path / "r1")})
        cfg2 = write_config(tmp_path, "e2.json", {**base, "outdir": str(tmp_path / "r2")})
        assert run_cli(["experiment", cfg1]) == 0
        assert run_cli(["experiment", cfg2]) == 0
        b1 = (tmp_path / "r1" / "report.csv").read_bytes()
        b2 = (tmp_path / "r2" / "report.csv").read_bytes()
        assert b1 == b2

    def test_goodseq_audit_criteria(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "exp.json", {
            "experiment": "goodseq-audit", "model": GM, "family": "laplace",
            "alpha": 2.0, "outdir": str(tmp_path / "gs"),
        })
        assert run_cli(["experiment", cfg]) == 0
        lines = (tmp_path / "gs" / "report.csv").read_text().splitlines()
        header = lines[1].split(",")
        assert "ratio_sup" in header and "entropy_bound" in header
        ratio_col = header.index("ratio_sup")
        for line in lines[2:]:
            assert float(line.split(",")[ratio_col]) <= 1.64872


    @pytest.mark.parametrize("payload, named", [
        ({"experiment": "ubfin"}, "M_bar"),
        ({"experiment": "figure1", "alphas": 2}, "alphas"),
        ({"experiment": "rate-violation", "kappa": [0.75]}, "kappa"),
        ([{"experiment": "figure1"}], "JSON object"),
        ({"experiment": "rate-violation", "jobs": [2]}, "jobs"),
        ({"experiment": "rate-violation", "seed": "x"}, "seed"),
        ({"experiment": "ndegen", "seed": "x"}, "seed"),
        ({"experiment": "consistency", "seeds": [0, "x"]}, "seeds"),
        ({"experiment": "ndegen", "n_grid": [100, 1000, 10000]}, "n_grid"),
    ], ids=["missing-required", "scalar-for-list", "list-for-number", "not-an-object",
            "list-for-jobs", "string-for-unread-seed", "string-for-seed",
            "string-in-seeds", "short-ndegen-grid"])
    def test_config_error_exits_one_naming_it(self, tmp_path, capsys, payload, named):
        cfg = write_config(tmp_path, "exp.json", payload)
        assert run_cli(["experiment", cfg]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err


class TestValuesTypedByTheirFunction:
    """Each value of a config or spec is checked against the default or the
    annotation of the parameter it fills, and a wrong one exits 1 by name."""

    @pytest.mark.parametrize("change, named", [
        ({"data": {"n": [1]}}, "'n'"),
        ({"data": {"n": 20.7}}, "'n'"),
        ({"model": {**GM, "sigma": "2"}}, "'sigma'"),
        ({"family": ["gaussian"]}, "'family'"),
    ], ids=["list-for-n", "fraction-for-n", "string-for-sigma", "list-for-family"])
    def test_fit_value(self, tmp_path, capsys, change, named):
        cfg = write_config(tmp_path, "fit.json", {
            "model": GM, "data": {"theta0": 0.5, "n": 20},
            "family": "gaussian", "objective": "kl-forward",
            "outdir": str(tmp_path / "out"), **change,
        })
        assert run_cli(["fit", cfg]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("payload, named", [
        ({"experiment": "ndegen", "q_fixed": {"kind": "laplace", "loc": 0.5}},
         "'scale'"),
        ({"experiment": "rate-violation", "seed": 1.5}, "'seed'"),
        ({"experiment": "consistency", "n_grid": [100, 1000], "n_seeds": 2.7},
         "'n_seeds'"),
        ({"experiment": "consistency", "family": "gamma", "n_grid": [100], "n_seeds": 1,
          "model": {"name": "exponential", "prior": {
              "kind": "mixture", "weights": [0.5, 0.5],
              "components": [{"kind": "uniform", "lo": 0, "hi": 10},
                             {"kind": "uniform", "lo": 5, "hi": 50}]}}},
         "bounded"),
    ], ids=["missing-scale-in-q_fixed", "fraction-for-seed", "fraction-for-n_seeds",
            "mixture-prior"])
    def test_experiment_value(self, tmp_path, capsys, payload, named):
        cfg = write_config(tmp_path, "exp.json",
                           {**payload, "outdir": str(tmp_path / "out")})
        assert run_cli(["experiment", cfg]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("extra, named", [
        (["--p", '{"kind":"laplace","loc":0}', "--alpha", "2"], "'scale'"),
        (["--p", '{"kind":"laplace","loc":"0","scale":1}', "--alpha", "2"], "'loc'"),
        (["--p", '{"kind":"mixture","weights":[1],"components":[5]}', "--alpha", "2"],
         "'components[0]'"),
        (["--p", '{"kind":"gaussian","mean":0,"cov":1}', "--alpha", "2",
          "--kl", "forward"], "--alpha"),
        (["--p", '{"kind":"gaussian","mean":0,"cov":NaN}', "--alpha", "2"], "finite"),
        (["--p", '{"kind":"logistic","loc":NaN,"scale":1}', "--alpha", "2"], "finite"),
        (["--p", '{"kind":"gamma","shape":1,"rate":1e-200}', "--alpha", "2"],
         "variance shape / rate^2 must be finite"),
    ], ids=["missing-scale-in-p", "string-for-loc", "number-for-component",
            "alpha-with-kl", "nan-cov", "nan-logistic-loc", "gamma-rate-underflow"])
    def test_divergence_value(self, capsys, extra, named):
        code = run_cli(["divergence", "--q", '{"kind":"gaussian","mean":1,"cov":1}',
                        *extra])
        assert code == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    def test_whole_float_for_an_int_key_is_the_int(self, tmp_path):
        for tag, n_max in (("float", 1e4), ("int", 10000)):
            cfg = write_config(tmp_path, f"{tag}.json", {
                "experiment": "rate-violation", "n_max": n_max,
                "outdir": str(tmp_path / tag),
            })
            assert run_cli(["experiment", cfg]) == 0
        assert ((tmp_path / "float" / "report.csv").read_bytes()
                == (tmp_path / "int" / "report.csv").read_bytes())


# The per-experiment config keys as the CLI listed them by hand, before they
# were derived from the runners' signatures, less the ones since retired.
KEYS_BEFORE = {
    "consistency": {"model", "family", "alpha", "n_grid", "n_seeds", "theta0",
                    "quad_tol", "budget"},
    "ep": {"model", "family", "alpha", "n_grid", "n_seeds", "theta0", "quad_tol",
           "budget"},
    "ubfin": {"model", "alpha", "M_bar", "n_grid"},
    "ndegen": {"model", "alpha", "q_fixed", "n_grid", "theta0"},
    "mixture": {"model", "alpha", "w", "theta1", "spike_width", "n_grid",
                "theta0"},
    "rate-violation": {"kappa", "alpha", "sigma", "n_max", "expected_n0"},
    "figure1": {"rho", "alphas"},
    "goodseq-audit": {"model", "family", "alpha", "audit_grid", "rate_grid",
                      "M_bar", "theta0"},
}

# What each runner was called with for a config naming only the experiment
# (plus M_bar, which ubfin requires), after the runner's defaults.
RENYI = {"model": GM, "family": "laplace", "alpha": 2.0,
         "n_grid": [100, 1000, 10**4, 10**5], "n_seeds": 10, "seed": 0,
         "theta0": None, "quad_tol": 1e-7, "budget": 260, "jobs": 1}
BOUND_BEFORE = {
    "consistency": {**RENYI, "objective_kind": "renyi-alpha"},
    "ep": RENYI,
    "ubfin": {"model": GM, "alpha": 2.0, "M_bar": 1.0,
              "n_grid": [10**4, 10**5, 10**6]},
    "ndegen": {"model": GM, "alpha": 2.0,
               "q_fixed": {"kind": "gaussian", "mean": 0.5, "cov": 1.0},
               "n_grid": [100, 1000, 10**4, 10**5, 10**6], "seed": 0,
               "theta0": None},
    "mixture": {"model": GM, "alpha": 2.0, "w": 0.5, "theta1": 1.5,
                "spike_width": 1e-3, "n_grid": [100, 1000, 10**4, 10**5],
                "seed": 0, "theta0": None},
    "rate-violation": {"kappa": 0.75, "alpha": 2.0, "sigma": 1.0,
                       "n_max": 10**4, "expected_n0": None},
    "figure1": {"rho": 0.9, "alphas": [2.0, 5.0, 20.0]},
    "goodseq-audit": {"model": GM, "family": "laplace", "alpha": 2.0,
                      "audit_grid": [10, 100, 1000],
                      "rate_grid": [100, 1000, 10**4, 10**5], "seed": 0,
                      "theta0": None, "M_bar": None},
}


class TestExperimentRegistry:
    @pytest.mark.parametrize("name", sorted(KEYS_BEFORE))
    def test_accepted_keys_pinned(self, name):
        assert set(experiment_keys(name)) == KEYS_BEFORE[name]

    def test_every_experiment_pinned(self):
        assert set(EXPERIMENTS) == set(KEYS_BEFORE) == set(BOUND_BEFORE)

    @pytest.mark.parametrize("command, name", [
        *(("experiment", name) for name in sorted(BOUND_BEFORE)),
        ("audit", "goodseq-audit"),
    ])
    def test_bound_arguments_pinned(self, tmp_path, monkeypatch, command, name):
        runner = EXPERIMENTS[name]
        calls = []

        def capture(*args, **kwargs):
            bound = inspect.signature(runner).bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(bound.arguments)
            return experiments.ExperimentReport(name, {}, [], [], 0.0)

        # the CLI must look the runner up on the module when it runs
        monkeypatch.setattr(experiments, runner.__name__, capture)
        payload = {"experiment": name} if command == "experiment" else {}
        if name == "ubfin":
            payload["M_bar"] = 1.0
        payload["outdir"] = str(tmp_path / "out")
        assert run_cli([command, write_config(tmp_path, "exp.json", payload)]) == 0
        [got] = calls
        plain = json.loads(json.dumps(got))
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            BOUND_BEFORE[name], sort_keys=True)


class TestAuditCommand:
    def test_direct_audit(self, tmp_path):
        cfg = write_config(tmp_path, "audit.json", {
            "model": GM, "family": "logistic", "alpha": 2.0,
            "audit_grid": [10, 100], "outdir": str(tmp_path / "aud"),
        })
        assert run_cli(["audit", cfg]) == 0
        assert (tmp_path / "aud" / "report.csv").exists()


class TestDivergenceCommand:
    def test_renyi_between_described_densities(self, capsys):
        code = run_cli([
            "divergence",
            "--p", '{"kind":"gaussian","mean":0,"cov":1}',
            "--q", '{"kind":"gaussian","mean":1,"cov":1}',
            "--alpha", "2",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["value"] - 1.0) <= 1e-6

    def test_kl_mode(self, capsys):
        code = run_cli([
            "divergence",
            "--p", '{"kind":"gaussian","mean":0,"cov":1}',
            "--q", '{"kind":"gaussian","mean":0,"cov":4}',
            "--kl", "forward",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["value"] - 0.3181471805599453) <= 1e-9

    def test_gauss_laplace_kl_is_closed_form(self, capsys):
        code = run_cli([
            "divergence",
            "--p", '{"kind":"gaussian","mean":0,"cov":1}',
            "--q", '{"kind":"laplace","loc":0,"scale":1}',
            "--kl", "forward",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        expect = math.log(2.0) + math.sqrt(2.0 / math.pi) - 0.5 * math.log(2.0 * math.pi * math.e)
        assert payload["method"] == "closed-form"
        assert abs(payload["value"] - expect) <= 1e-12

    def test_infinite_value_says_why(self, capsys):
        code = run_cli([
            "divergence",
            "--p", '{"kind":"laplace","loc":0,"scale":1}',
            "--q", '{"kind":"gaussian","mean":1,"cov":1}',
            "--alpha", "2",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == math.inf
        assert payload["reason"] == "divergent tail at -inf"

    def test_finite_value_has_no_reason(self, capsys):
        code = run_cli([
            "divergence",
            "--p", '{"kind":"gaussian","mean":0,"cov":1}',
            "--q", '{"kind":"laplace","loc":0,"scale":1}',
            "--alpha", "2",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert math.isfinite(payload["value"]) and payload["reason"] is None

    @pytest.mark.parametrize("q,method,has_panels", [
        ('{"kind":"laplace","loc":0,"scale":1}', "quadrature", True),
        ('{"kind":"gaussian","mean":1,"cov":2}', "closed-form", False),
    ])
    def test_prints_convergence_and_panels(self, capsys, q, method, has_panels):
        code = run_cli(["divergence", "--p", '{"kind":"gaussian","mean":0,"cov":1}',
                        "--q", q, "--alpha", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == method and payload["converged"] is True
        assert (payload["panels"] > 0) == has_panels

    @pytest.mark.parametrize("q", ['{"kind":"gaussian","mean":1,"cov":2}',
                                   '{"kind":"laplace","loc":1,"scale":1}'])
    @pytest.mark.parametrize("alpha,named", [("inf", "alpha must be finite"),
                                             ("1e308", "overflows at alpha = 1e+308")])
    def test_unusable_alpha_exits_one_naming_it(self, capsys, q, alpha, named):
        code = run_cli([
            "divergence", "--p", '{"kind":"gaussian","mean":0,"cov":1}',
            "--q", q, "--alpha", alpha,
        ])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert named in err

    def test_cancelling_alpha_exits_one_without_traceback(self, capsys):
        # at alpha 1e20 the first pass sums to 0, and the pass re-seeded at
        # the peak overflows its shift: alpha log p is about 1e20 nats
        # there, and its float64 rounding, about 1e4 nats, passes 700
        code = run_cli([
            "divergence", "--p", '{"kind":"gaussian","mean":0,"cov":1}',
            "--q", '{"kind":"laplace","loc":1,"scale":1}', "--alpha", "1e20",
        ])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "overflowed its shift" in err

    def test_mixture_q_in_2d_exits_one_naming_the_kinds(self, capsys):
        # no closed form lists the pair, and quadrature is 1-D only
        g = '{"kind":"gaussian","mean":[0,0],"cov":[[1,0],[0,1]]}'
        code = run_cli([
            "divergence", "--p", '{"kind":"gaussian","mean":[0,0],"cov":[[4,0],[0,4]]}',
            "--q", f'{{"kind":"mixture","weights":[0.5,0.5],"components":[{g},{g}]}}',
            "--alpha", "2",
        ])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "q (kind='mixture')" in err
        assert "quadrature is 1-D only" in err and "Traceback" not in err

    @pytest.mark.parametrize("mode", [["--alpha", "2"], ["--kl", "forward"]])
    def test_mixture_p_in_2d_exits_one_naming_both_kinds(self, capsys, mode):
        # figure1's target as a twin mixture against its alpha-2 fit: the
        # same density as a Gaussian pair, but no closed form lists its kinds
        g = '{"kind":"gaussian","mean":[0,0],"cov":[[1,0.9],[0.9,1]]}'
        code = run_cli([
            "divergence",
            "--p", f'{{"kind":"mixture","weights":[0.5,0.5],"components":[{g},{g}]}}',
            "--q", '{"kind":"gaussian","mean":[0,0],"cov":[[1.4337,0],[0,1.4337]]}',
            *mode,
        ])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert "p (kind='mixture') and q (kind='gaussian')" in err

    def test_missing_mode_exits_one(self, capsys):
        code = run_cli([
            "divergence",
            "--p", '{"kind":"gaussian","mean":0,"cov":1}',
            "--q", '{"kind":"gaussian","mean":1,"cov":1}',
        ])
        assert code == 1


def stub_runner(monkeypatch, name, calls):
    """Replace experiment ``name``'s runner by one that records its
    arguments in ``calls`` and returns an empty report."""
    runner = EXPERIMENTS[name]

    def capture(*args, **kwargs):
        calls.append(inspect.signature(runner).bind(*args, **kwargs).arguments)
        return experiments.ExperimentReport(name, {}, [], [], 0.0)

    monkeypatch.setattr(experiments, runner.__name__, capture)


class TestFilledKeys:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    @pytest.mark.parametrize("key, value", [("seed", 3), ("jobs", 2)])
    def test_keys_only_of_runners_that_take_them(self, tmp_path, capsys, monkeypatch,
                                                 name, key, value):
        # a seed or jobs that the runner takes reaches it; any other is
        # refused, not dropped without a word
        calls = []
        stub_runner(monkeypatch, name, calls)
        payload = {"experiment": name, key: value, "outdir": str(tmp_path / "out")}
        code = run_cli(["experiment", write_config(tmp_path, "exp.json", payload)])
        err = capsys.readouterr().err
        if key in inspect.signature(EXPERIMENTS[name]).parameters:
            assert code == 0 and calls[0][key] == value
        else:
            assert code == 1 and not calls and not (tmp_path / "out").exists()
            assert f"unknown key(s) ['{key}']" in err and "Traceback" not in err

    @pytest.mark.parametrize("name, argv, suffix", [
        ("ndegen", ["--seed", "5"], "-seed5"),
        ("ndegen", [], "-seed0"),
        ("figure1", ["--seed", "5"], None),
    ])
    def test_default_outdir_names_the_seed_the_run_used(self, tmp_path, monkeypatch,
                                                        name, argv, suffix):
        # a runner without a seed used none, so its directory names none
        monkeypatch.chdir(tmp_path)
        calls = []
        stub_runner(monkeypatch, name, calls)
        cfg = write_config(tmp_path, "exp.json", {"experiment": name})
        assert run_cli(["experiment", cfg, *argv]) == 0
        [written] = (tmp_path / "runs").iterdir()
        assert written.name.startswith(f"{name}-") and len(calls) == 1
        if suffix is None:
            assert "seed" not in written.name
        else:
            assert written.name.endswith(suffix)


class TestSeedPrecedence:
    def _fit_cfg(self, tmp_path, outdir, seed=None):
        payload = {
            "model": GM, "data": {"theta0": 0.5, "n": 30},
            "family": "gaussian", "objective": "kl-forward",
            "outdir": str(tmp_path / outdir),
        }
        if seed is not None:
            payload["seed"] = seed
        return write_config(tmp_path, f"{outdir}.json", payload)

    def _fitted_mean(self, tmp_path, outdir):
        return json.loads((tmp_path / outdir / "fit.json").read_text())["params"][0]

    def test_env_seed_is_not_read(self, tmp_path, monkeypatch):
        # the seed comes from --seed or the config only
        monkeypatch.setenv("RENYI_VI_SEED", "7")
        cfg_a = self._fit_cfg(tmp_path, "a", seed=1)
        cfg_b = self._fit_cfg(tmp_path, "b", seed=2)
        assert run_cli(["fit", cfg_a]) == 0
        assert run_cli(["fit", cfg_b]) == 0
        assert self._fitted_mean(tmp_path, "a") != self._fitted_mean(tmp_path, "b")

    def test_flag_overrides_config(self, tmp_path):
        cfg_a = self._fit_cfg(tmp_path, "a", seed=1)
        cfg_b = self._fit_cfg(tmp_path, "b", seed=2)
        assert run_cli(["fit", cfg_a, "--seed", "3"]) == 0
        assert run_cli(["fit", cfg_b, "--seed", "3"]) == 0
        assert self._fitted_mean(tmp_path, "a") == self._fitted_mean(tmp_path, "b")


LAPLACE_CELL = {"model": GM, "family": "laplace", "n_grid": [100, 1000], "n_seeds": 1}

# A quick run of each experiment: its defaults, but fewer consistency cells,
# and ubfin's required M_bar.
SMALL = {"consistency": LAPLACE_CELL, "ep": LAPLACE_CELL, "ubfin": {"M_bar": 1.0}}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_report_echoes_every_key(tmp_path, name):
    # n_seeds comes back as the seeds it gave
    cfg = write_config(tmp_path, "exp.json", {"experiment": name, **SMALL.get(name, {}),
                                              "outdir": str(tmp_path / "out")})
    run_cli(["experiment", cfg])
    echo = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
    if "seeds" in echo:
        echo["n_seeds"] = len(echo["seeds"])
    assert set(experiment_keys(name)) <= set(echo)


class TestImport:
    # scipy.special adds about 0.3 s and scipy.optimize about 0.28 s to every
    # start-up; only Gamma code loads scipy
    @pytest.mark.parametrize("config, argv", [
        (None, None),
        ({"experiment": "consistency", **LAPLACE_CELL}, ["experiment"]),
        ({"experiment": "ep", **LAPLACE_CELL}, ["experiment"]),
        ({"experiment": "figure1", "rho": 0.5}, ["experiment"]),
        (None, ["divergence", "--p", '{"kind":"gaussian","mean":0,"cov":1}',
                "--q", '{"kind":"laplace","loc":0,"scale":1}', "--alpha", "2"]),
    ], ids=["import", "consistency", "ep", "figure1", "divergence"])
    def test_scipy_stays_unloaded(self, tmp_path, config, argv):
        script = "import sys, renyi_vi.cli\n"
        if config is not None:
            argv = [*argv, write_config(tmp_path, "cfg.json", config),
                    "--outdir", str(tmp_path / "out")]
        if argv is not None:
            script += f"assert renyi_vi.cli.main({argv!r}) == 0\n"
        script += "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        # nor the process pool's (multiprocessing and about 25 more), which
        # only jobs > 1 uses
        script += ("print(sorted(m for m in sys.modules if m.partition('.')[0] == "
                   "'multiprocessing' or m.startswith('concurrent.futures')))")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]


class TestHelp:
    def test_help_lists_every_subcommand(self):
        proc = subprocess.run(
            [sys.executable, "-m", "renyi_vi.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for name in ("fit", "experiment", "audit", "divergence"):
            assert name in proc.stdout

    def test_experiment_help_documents_names(self):
        proc = subprocess.run(
            [sys.executable, "-m", "renyi_vi.cli", "experiment", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "rate-violation" in proc.stdout

    def test_experiment_help_lists_each_experiments_keys(self):
        proc = subprocess.run(
            [sys.executable, "-m", "renyi_vi.cli", "experiment", "--help"],
            capture_output=True, text=True,
        )
        text = " ".join(proc.stdout.split())
        for name in EXPERIMENTS:
            assert f"{name}: {', '.join(experiment_keys(name))}" in text
