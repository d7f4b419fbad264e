"""End-to-end CLI runs: exit codes, report files, manifests, determinism."""

import ast
import copy
import importlib
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

from driftlab import cli, montecarlo, pde, sanov
from driftlab.cli import main
from driftlab.report import format_float


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def trace_of(out, solver):
    """The records of one solver in the trace of the run written to ``out``."""
    trace = json.loads((out / "manifest.json").read_text())["trace"]
    return [r for r in trace if r["solver"] == solver]


PDE_SWEEP = {
    "kind": "pde-sweep",
    "generator": {"variant": "quadratic", "c": 1.0},
    "terminal": {"kind": "gaussian_bump", "center": 1.0},
    "grid": {"x_min": -6.0, "x_max": 6.0, "nx": 601},
    "n_list": [1, 2, 4, 8, 16, 32, 64],
    "y_step": 1e-4,
}

MC_CONFIG = {
    "kind": "mc-estimate",
    "estimator": "log-mean-exp",
    "functional": {"kind": "terminal", "f": {"kind": "gaussian_bump", "center": 1.0},
                   "bounds": [0.0, 1.0]},
    "n": 1,
    "paths": 50_000,
    "steps": 8,
    "seed": 11,
}

SMALL_PDE_SWEEP = dict(PDE_SWEEP, grid={"x_min": -4.0, "x_max": 4.0, "nx": 41},
                       n_list=[1, 4], y_step=1e-3)

SMALL_SANOV = {
    "kind": "sanov-iterate", "generator": {"variant": "quadratic", "c": 1.0},
    "phi": "tanh", "Phi": "negative_square", "phi_bounds": [-1.0, 1.0],
    "grid": {"x_min": -4.0, "x_max": 4.0, "nx": 33},
    "n_list": [1, 2], "lambda_points": 31, "s_points": 17,
}

SMALL_TRANSPORT = {
    "kind": "schrodinger-sweep", "generator": {"variant": "quadratic", "c": 1.0},
    "mu": {"atoms": [0.0], "weights": [1.0]}, "nu": {"atoms": [1.0], "weights": [1.0]},
    "eps_list": [0.1],
}

SMALL_SCHILDER = {
    "kind": "schilder", "generator": {"variant": "quadratic", "c": 1.0},
    "functional": {"kind": "terminal", "f": {"kind": "gaussian_bump", "center": 1.0},
                   "bounds": [0.0, 1.0]},
    "knots": 5, "restarts": 2, "max_iter": 100, "seed": 5,
}

SMALL_BRIDGE = {"kind": "bridge-check", "seed": 3, "paths": 2_000, "steps": 64,
                "r": 1.5, "epsilon": 0.01}

SMALL_GIRSANOV = dict(MC_CONFIG, estimator="girsanov", paths=2_000,
                      generator={"variant": "quadratic", "c": 1.0},
                      control={"kind": "pull_toward", "center": 1.0, "bound": 1.2})

SMALL_ORACLE = {"generator": {"variant": "quadratic", "c": 1.0},
                "terminal": {"kind": "gaussian_bump", "center": 1.0},
                "grid": {"x_min": -4.0, "x_max": 4.0, "nx": 41}}

MODULATED = {"variant": "modulated", "base": {"variant": "quadratic"}, "weights": [1.0, 2.0]}

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(args, timeout=120, env=None):
    """Run a new interpreter with ``src`` on the path; a hang fails the test.

    ``env`` updates the child's environment; a None value removes the variable.
    """
    child = dict(os.environ)
    child["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), child.get("PYTHONPATH")) if p)
    for key, value in (env or {}).items():
        if value is None:
            child.pop(key, None)
        else:
            child[key] = value
    return subprocess.run([sys.executable, *args], env=child,
                          capture_output=True, text=True, timeout=timeout)


LSMC_CONFIG = {
    "kind": "bsde-lsmc",
    "generator": {"variant": "quadratic", "c": 1.0},
    "functional": {"kind": "terminal", "f": {"kind": "gaussian_bump", "center": 1.0},
                   "bounds": [0.0, 1.0]},
    "n_list": [1],
    "steps": 4,
    "paths": 1_000,
    "seed": 5,
}


class TestRun:
    def test_pde_sweep_produces_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.yaml", PDE_SWEEP)
        out = tmp_path / "out"
        code = main(["run", "--config", cfg, "--output-dir", str(out)])
        assert code == 0
        lines = (out / "report.csv").read_text().strip().splitlines()
        assert lines[0].startswith("n,u_n,limit,gap")
        assert len(lines) == 1 + 7
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kind"] == "pde-sweep"
        assert "config_sha256" in manifest

    def test_missing_seed_exits_2_naming_seed(self, tmp_path, capsys):
        payload = dict(MC_CONFIG)
        payload.pop("seed")
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        code = main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_unknown_kind_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.yaml", {"kind": "nope"})
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.yaml")
        assert main(["run", "--config", missing, "--output-dir", str(tmp_path / "o")]) == 2
        assert "absent.yaml" in capsys.readouterr().err

    def test_malformed_yaml_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("kind: pde-sweep\ngrid: {x_min: -6, x_max: [\n")
        assert main(["run", "--config", str(path), "--output-dir", str(tmp_path / "o")]) == 2
        # the parser's own message, with the place it stopped, is kept
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "expected the node content, but found '<stream end>'" in err
        assert "line 3, column 1" in err

    def test_reversed_grid_exits_2_naming_grid(self, tmp_path, capsys):
        payload = dict(PDE_SWEEP, grid={"x_min": 6.0, "x_max": -6.0, "nx": 601})
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "grid" in err and "x_min < x_max" in err
        assert not (out / "report.csv").exists()

    def test_solver_value_error_exits_2(self, tmp_path, capsys):
        # weights that do not sum to one are rejected inside the measure type
        payload = {
            "kind": "schrodinger-sweep",
            "generator": {"variant": "quadratic", "c": 1.0},
            "mu": {"atoms": [0.0], "weights": [0.5]},
            "nu": {"atoms": [1.0], "weights": [1.0]},
            "eps_list": [0.1],
        }
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("generator, named", [
        ("quadratic", "mapping"),
        ({"variant": "tabulated", "csv": "absent.csv"}, "absent.csv"),
        ({"variant": "tabulated", "csv": "one_column.csv"}, "line 2 needs two columns"),
        ({"variant": "modulated", "base": {"variant": "quadratic"}, "weights": 3}, "'weights'"),
        ({"variant": "tabulated", "q": None, "g": [0.0, 1.0]}, "'q'"),
        ({"variant": "modulated", "base": "quadratic", "weights": [1.0, 2.0]}, "generator.base"),
        ({"kind": "quadratic"}, "missing required key 'variant'"),
    ], ids=["string", "missing-csv", "one-column-csv", "scalar-weights", "null-q",
            "string-base", "no-variant"])
    def test_bad_generator_section_exits_2(self, tmp_path, capsys, generator, named):
        (tmp_path / "one_column.csv").write_text("-1.0,1.0\n0.0\n1.0,1.0\n")
        if isinstance(generator, dict) and "csv" in generator:
            generator = dict(generator, csv=str(tmp_path / generator["csv"]))
        cfg = write_config(tmp_path, "cfg.yaml", {"kind": "ti-check", "generator": generator})
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "generator" in err and named in err

    @pytest.mark.parametrize("name, named", [
        ("absent.csv", "absent.csv"),
        ("one_column.csv", "two columns"),
    ], ids=["missing-csv", "one-column-csv"])
    def test_bad_measure_csv_exits_2(self, tmp_path, capsys, name, named):
        (tmp_path / "one_column.csv").write_text("0.0\n1.0\n")
        payload = {
            "kind": "schrodinger-sweep",
            "generator": {"variant": "quadratic", "c": 1.0},
            "mu": {"csv": str(tmp_path / name)},
            "nu": {"atoms": [1.0], "weights": [1.0]},
            "eps_list": [0.1],
        }
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "mu.csv" in err and named in err

    @pytest.mark.parametrize("mu, key", [
        ({"atoms": [0.0, 1.0], "weights": [math.nan, 1.0]}, "mu.weights"),
        ({"atoms": [0.0, math.inf], "weights": [0.5, 0.5]}, "mu.atoms"),
        ({"csv": "nan.csv"}, "mu.csv"),
    ], ids=["nan-weight", "inf-atom", "nan-csv"])
    def test_non_finite_measure_exits_2_naming_key(self, tmp_path, mu, key):
        # run apart, so that a solver looping on NaN masses fails on the timeout
        (tmp_path / "nan.csv").write_text("0.0,nan\n1.0,1.0\n")
        if "csv" in mu:
            mu = {"csv": str(tmp_path / mu["csv"])}
        payload = {
            "kind": "schrodinger-sweep",
            "generator": {"variant": "quadratic", "c": 1.0},
            "mu": mu,
            "nu": {"atoms": [1.0], "weights": [1.0]},
            "eps_list": [0.1],
        }
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        done = run_python(["-m", "driftlab.cli", "run", "--config", cfg,
                           "--output-dir", str(tmp_path / "o")], timeout=60)
        assert done.returncode == 2, done.stderr
        assert key in done.stderr and "finite" in done.stderr

    def test_failed_regression_exits_3(self, tmp_path, capsys, monkeypatch):
        # numpy's LinAlgError is a ValueError; it must not read as bad input.
        # At step 1 a running-max functional's running max is max(0, state),
        # so its regression is rank-deficient and always takes the solver's
        # eigendecomposition fallback, which fails from the second n on
        solved = []
        eigh, lsmc = np.linalg.eigh, cli.lsmc_bsde

        def fail_after_the_first_solve(*args, **kwargs):
            if solved:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(*args, **kwargs)

        def counted(*args, **kwargs):
            sol = lsmc(*args, **kwargs)
            solved.append(sol)
            return sol

        # an earlier run leaves its report and path in the same directory
        out = tmp_path / "o"
        earlier = write_config(tmp_path, "earlier.yaml", SMALL_SCHILDER)
        assert main(["run", "--config", earlier, "--output-dir", str(out)]) == 0
        assert (out / "report.csv").exists() and (out / "path.csv").exists()
        monkeypatch.setattr(np.linalg, "eigh", fail_after_the_first_solve)
        monkeypatch.setattr(cli, "lsmc_bsde", counted)
        payload = dict(LSMC_CONFIG, functional={"kind": "running_max", "bounds": [0.0, 1.0]},
                       n_list=[1, 4])
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "Eigenvalues did not converge" in err
        # the manifest keeps what the failed run did before the failure, and
        # no report, this run's or the earlier one's, stands beside it
        assert not (out / "report.csv").exists() and not (out / "path.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == 3
        assert manifest["error"].startswith("numerical failure: ")
        assert "Eigenvalues did not converge" in manifest["error"]
        assert [r["n"] for r in trace_of(out, "lsmc_bsde")] == [1]

    def test_non_finite_hat_regression_exits_3(self, tmp_path, capsys, monkeypatch):
        # the hat basis solves its normal equations directly, which would
        # carry a NaN target into the coefficients without complaint
        evaluate = montecarlo.evaluate_functional

        def nan_terminal(F, times, paths):
            values = np.array(evaluate(F, times, paths), dtype=float)
            values[0] = np.nan
            return values

        monkeypatch.setattr(montecarlo, "evaluate_functional", nan_terminal)
        cfg = write_config(tmp_path, "cfg.yaml", LSMC_CONFIG)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "non-finite" in err

    @pytest.mark.parametrize("config, key", [
        (dict(LSMC_CONFIG, n_list=[0]), "n_list"),
        (dict(LSMC_CONFIG, n_list=[-1]), "n_list"),
        (dict(MC_CONFIG, n=0), "'n'"),
        (dict(MC_CONFIG, estimator="cramer", n=0.5), "'n'"),
        (dict(LSMC_CONFIG, basis_size=-3), "basis_size"),
        (dict(LSMC_CONFIG, basis_size=0), "basis_size"),
        (dict(LSMC_CONFIG, basis_size=1.5), "basis_size"),
        (dict(LSMC_CONFIG, steps=2.5), "steps"),
        (dict(MC_CONFIG, paths=0), "paths"),
        (dict(MC_CONFIG, seed=1.5), "'seed'"),
        (dict(MC_CONFIG, seed=-1), "'seed'"),
        (dict(SMALL_SCHILDER, knots="abc"), "'knots'"),
        (dict(SMALL_SCHILDER, restarts=0), "'restarts'"),
        (dict(SMALL_SCHILDER, max_iter=0), "'max_iter'"),
        (dict(SMALL_BRIDGE, epsilon=-1), "'epsilon'"),
        (dict(SMALL_BRIDGE, delta=0), "'delta'"),
        (dict(SMALL_BRIDGE, x="abc"), "'x'"),
        (dict(SMALL_BRIDGE, y="abc"), "'y'"),
        (dict(SMALL_BRIDGE, r="abc"), "'r'"),
        (dict(SMALL_GIRSANOV, control={"kind": "pull_toward", "bound": -1}), "'bound'"),
        (dict(SMALL_GIRSANOV, control={"kind": "pull_toward", "center": "abc"}), "'center'"),
        (dict(SMALL_GIRSANOV, control={"kind": "constant", "value": "abc"}), "'value'"),
        (dict(MC_CONFIG, paths=2_000, oracle=dict(SMALL_ORACLE, viscosity="abc")),
         "'viscosity'"),
        (dict(MC_CONFIG, functional={"kind": "finite_marginals", "f": "identity",
                                     "times": [2.0]}), "'times'"),
        (dict(MC_CONFIG, functional={"kind": "finite_marginals", "f": "identity",
                                     "times": []}), "'times'"),
        (dict(MC_CONFIG, functional=dict(MC_CONFIG["functional"], bounds=[1.0, 0.0])),
         "'bounds'"),
        (dict(LSMC_CONFIG, n_list=[]), "'n_list'"),
    ], ids=["lsmc-n-zero", "lsmc-n-negative", "mc-n-zero", "cramer-n-fraction",
            "basis-negative", "basis-zero", "basis-fraction", "steps-fraction", "paths-zero",
            "seed-fraction", "seed-negative", "knots-string", "restarts-zero", "max-iter-zero",
            "epsilon-negative", "delta-zero", "x-string", "y-string", "r-string",
            "bound-negative", "center-string", "value-string", "viscosity-string",
            "times-outside-unit-interval", "times-empty", "bounds-reversed", "lsmc-n-list-empty"])
    def test_bad_monte_carlo_input_exits_2_naming_key(self, tmp_path, capsys, config, key):
        cfg = write_config(tmp_path, "cfg.yaml", config)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and key in err

    @pytest.mark.parametrize("config, key", [
        (dict(SMALL_TRANSPORT, mu={"atoms": 0.0, "weights": [1.0]}), "'atoms'"),
        (dict(SMALL_TRANSPORT, mu={"atoms": [0.0], "weights": 1.0}), "'weights'"),
        (dict(SMALL_TRANSPORT, mu=5), "mu"),
        (dict(SMALL_PDE_SWEEP, grid=5), "grid"),
        (dict(SMALL_PDE_SWEEP, terminal=5), "terminal"),
        (dict(MC_CONFIG, functional=5), "functional"),
        (dict(SMALL_TRANSPORT, eps_list=0.1), "eps_list"),
        (dict(SMALL_SANOV, phi_bounds=1.0), "phi_bounds"),
        (dict(SMALL_PDE_SWEEP, n_list=4), "n_list"),
        (dict(SMALL_SANOV, n_list=4), "n_list"),
    ], ids=["scalar-atoms", "scalar-weights", "scalar-mu", "scalar-grid", "scalar-terminal",
            "scalar-functional", "scalar-eps-list", "scalar-phi-bounds", "pde-scalar-n-list",
            "sanov-scalar-n-list"])
    def test_scalar_where_a_list_or_section_belongs_exits_2(self, tmp_path, capsys, config,
                                                             key):
        cfg = write_config(tmp_path, "cfg.yaml", config)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and key in err

    @pytest.mark.parametrize("config, key", [
        (dict(SMALL_SANOV, phi_bounds=[-1.0, 1.0, 2.0]), "'phi_bounds'"),
        (dict(SMALL_SANOV, phi_bounds=[1.0]), "'phi_bounds'"),
        (dict(MC_CONFIG, functional=dict(MC_CONFIG["functional"], bounds=[0.0, 1.0, 2.0])),
         "'bounds'"),
    ], ids=["phi-bounds-three", "phi-bounds-one", "mc-bounds-three"])
    def test_wrong_length_bounds_exits_2_naming_key(self, tmp_path, capsys, config, key):
        cfg = write_config(tmp_path, "cfg.yaml", config)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and key in err and "two numbers" in err

    @pytest.mark.parametrize("config, key", [
        (dict(SMALL_TRANSPORT, n_time=0), "n_time"),
        (dict(SMALL_TRANSPORT, n_time=-3), "n_time"),
        (dict(SMALL_TRANSPORT, n_time=2.5), "n_time"),
        (dict(SMALL_TRANSPORT, eps_list=[-0.1], mollified=False), "eps_list"),
        (dict(SMALL_TRANSPORT, eps_list=[0.0]), "eps_list"),
        (dict(SMALL_TRANSPORT, mollified="false"), "mollified"),
        (dict(SMALL_PDE_SWEEP, y_step=0), "y_step"),
        (dict(SMALL_PDE_SWEEP, y_step=-1e-3), "y_step"),
        (dict(SMALL_PDE_SWEEP, y_step=1e-9), "y_step"),
        (dict(SMALL_PDE_SWEEP, grid=dict(SMALL_PDE_SWEEP["grid"], nx=41.7)), "'nx'"),
        (dict(SMALL_PDE_SWEEP, grid=dict(SMALL_PDE_SWEEP["grid"], nt=0)), "'nt'"),
        (dict(SMALL_PDE_SWEEP, grid=dict(SMALL_PDE_SWEEP["grid"], x_min="abc")), "'x_min'"),
        (dict(SMALL_PDE_SWEEP, grid=dict(SMALL_PDE_SWEEP["grid"], x_max="abc")), "'x_max'"),
        (dict(SMALL_PDE_SWEEP, terminal={"kind": "gaussian_bump", "width": "abc"}), "'width'"),
        (dict(SMALL_PDE_SWEEP, n_list=[0]), "'n_list'"),
        (dict(SMALL_SANOV, lambda_points=0), "'lambda_points'"),
        (dict(SMALL_SANOV, lambda_min="abc"), "'lambda_min'"),
        (dict(SMALL_SANOV, lambda_max="abc"), "'lambda_max'"),
        (dict(SMALL_SANOV, c_points=0), "'c_points'"),
        (dict(SMALL_SANOV, s_points="abc"), "'s_points'"),
        # the fourth-order node slopes need five nodes
        (dict(SMALL_SANOV, s_points=2), "'s_points'"),
        (dict(SMALL_SANOV, s_points=3), "'s_points'"),
        (dict(SMALL_SANOV, s_points=4), "'s_points'"),
        (dict(SMALL_SANOV, n_list=[1.5]), "'n_list'"),
        (dict(SMALL_TRANSPORT, eps_list=[]), "'eps_list'"),
        (dict(SMALL_PDE_SWEEP, n_list=[]), "'n_list'"),
        (dict(SMALL_SANOV, n_list=[]), "'n_list'"),
        (dict(SMALL_SANOV, phi_bounds=[1.0, -1.0]), "'phi_bounds'"),
        (dict(SMALL_SANOV, phi_bounds=[-0.2, 0.2]), "phi_bounds"),
        (dict(SMALL_PDE_SWEEP, generator=MODULATED), "'generator' in pde-sweep"),
        (dict(SMALL_TRANSPORT, generator=MODULATED), "'generator' in schrodinger-sweep"),
        (dict(SMALL_PDE_SWEEP, grid=dict(SMALL_PDE_SWEEP["grid"], x_min=1.0, x_max=5.0)),
         "'x_min' in grid"),
        (dict(SMALL_SANOV, grid=dict(SMALL_SANOV["grid"], x_min=1.0)), "'x_min' in grid"),
        (dict(MC_CONFIG, paths=2_000, oracle=dict(SMALL_ORACLE, grid=dict(
            SMALL_ORACLE["grid"], x_min=2.0, x_max=6.0))), "'x_min' in oracle.grid"),
        (dict(SMALL_SANOV, lambda_min=1.0, lambda_max=1.0), "'lambda_min' in sanov-iterate"),
        (dict(SMALL_SANOV, lambda_min=0.5, lambda_max=0.6), "'lambda_min' in sanov-iterate"),
        (dict(SMALL_SANOV, lambda_min=-1.0, lambda_max=0.0), "'lambda_max' in sanov-iterate"),
    ], ids=["n-time-zero", "n-time-negative", "n-time-fraction", "eps-negative",
            "eps-zero-mollified", "mollified-string", "y-step-zero", "y-step-negative",
            "y-step-tiny", "nx-fraction", "nt-zero", "x-min-string", "x-max-string",
            "width-string", "pde-n-zero", "lambda-points-zero", "lambda-min-string",
            "lambda-max-string", "c-points-zero", "s-points-string",
            "s-points-2", "s-points-3", "s-points-4", "sanov-n-fraction", "eps-list-empty", "pde-n-list-empty", "sanov-n-list-empty",
            "phi-bounds-reversed", "phi-bounds-miss-phi", "pde-modulated",
            "transport-modulated", "pde-grid-off-origin", "sanov-grid-off-origin",
            "oracle-grid-off-origin", "lambda-window-at-one", "lambda-window-positive",
            "lambda-window-negative"])
    def test_bad_sweep_input_exits_2_naming_key(self, tmp_path, capsys, config, key):
        cfg = write_config(tmp_path, "cfg.yaml", config)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and key in err

    def test_zero_eps_accepted_unmollified(self, tmp_path):
        payload = dict(SMALL_TRANSPORT, generator={"variant": "power", "r": 1.5, "a": 1.0},
                       eps_list=[0.3, 0.0], mollified=False, n_time=4)
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 0

    def test_atoms_sharing_a_nearest_node_run(self, tmp_path):
        # 1e-4 apart, both atoms of mu snap to one node of the state grid
        payload = dict(SMALL_TRANSPORT, generator={"variant": "power", "r": 1.5},
                       mu={"atoms": [0.0, 1.0e-4], "weights": [0.5, 0.5]},
                       mollified=False, n_time=4)
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 0

    def test_lsmc_manifest_records_each_solve(self, tmp_path):
        payload = dict(LSMC_CONFIG, n_list=[1, 4], basis_size=9)
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
        solves = trace_of(out, "lsmc_bsde")
        assert [s["n"] for s in solves] == [1.0, 4.0]
        for record in solves:
            assert record["basis"] == "hat"
            assert 2 <= record["knots_min"] <= record["knots_max"] <= 9
            # every step but the first regresses; t = 0 is a plain mean
            assert record["regression_steps"] == payload["steps"] - 1
            assert record["fallbacks"] == 0
            assert record["wall_s"] > 0.0
        assert (out / "report.csv").read_text().startswith(
            "n,y0,terminal_residual,basis_fallbacks\n")

    def test_unmollified_infeasible_exits_4(self, tmp_path):
        payload = {
            "kind": "schrodinger-sweep",
            "generator": {"variant": "quadratic", "c": 1.0},
            "mu": {"atoms": [0.0], "weights": [1.0]},
            "nu": {"atoms": [1.0], "weights": [1.0]},
            "eps_list": [0.1, 0.01],
            "mollified": False,
        }
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        out = tmp_path / "out"
        code = main(["run", "--config", cfg, "--output-dir", str(out)])
        assert code == 4
        body = (out / "report.csv").read_text()
        assert body.splitlines()[0] == "eps,value,ot,gap,feasible"
        for line in body.strip().splitlines()[1:]:
            assert line.endswith(",0")

    @pytest.mark.parametrize("payload, sampling, normals", [
        (MC_CONFIG, "terminal", 50_000),
        (dict(MC_CONFIG, functional={"kind": "finite_marginals", "times": [1.0],
                                     "f": {"kind": "gaussian_bump", "center": 1.0}}),
         "paths", 400_000),
        (dict(MC_CONFIG, estimator="cramer", n=4), "terminal", 50_000),
        # the Cramer average draws paths of steps / n = 2 steps
        (dict(MC_CONFIG, estimator="cramer", n=4,
              functional={"kind": "finite_marginals", "times": [1.0],
                          "f": {"kind": "gaussian_bump", "center": 1.0}}),
         "paths", 100_000),
        (dict(MC_CONFIG, estimator="girsanov", generator={"variant": "quadratic", "c": 1.0},
              control={"kind": "constant", "value": 0.0}), "paths", 400_000),
    ])
    def test_mc_estimate_manifest_records_the_sampling(self, tmp_path, payload, sampling,
                                                       normals):
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
        trace = json.loads((out / "manifest.json").read_text())["trace"]
        # 50 000 paths fill four blocks of 2^14
        (sampled,) = trace
        assert {k: sampled[k] for k in ("sampling", "blocks", "normals")} == {
            "sampling": sampling, "blocks": 4, "normals": normals}

    @pytest.mark.parametrize("generator, mollified, route, keys", [
        ({"variant": "power", "r": 1.5, "a": 1.0}, False, "drift-field",
         {"evaluations", "al_rounds", "penalty_weight", "pre_repair_terminal_l1",
          "repair_cost", "lagrangian_grad_max", "feasible", "kernel_flushed"}),
        ({"variant": "quadratic", "c": 1.0}, True, "sinkhorn",
         {"iterations", "backtracks", "marginal_error", "converged"}),
    ])
    def test_schrodinger_manifest_records_each_solve(self, tmp_path, generator, mollified,
                                                     route, keys):
        payload = {
            "kind": "schrodinger-sweep", "generator": generator,
            "mu": {"atoms": [0.0], "weights": [1.0]},
            "nu": {"atoms": [0.5, 1.0], "weights": [0.5, 0.5]},
            "eps_list": [0.3, 0.2], "mollified": mollified, "n_time": 4,
        }
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
        solves = json.loads((out / "manifest.json").read_text())["trace"]
        assert [s["eps"] for s in solves] == [0.3, 0.2]
        for record in solves:
            assert record["route"] == route
            assert keys <= set(record)
        assert (out / "report.csv").read_text().startswith("eps,value,ot,gap,feasible\n")

    def test_schrodinger_small_eps_ladder_converges(self, tmp_path):
        # the Sinkhorn loop this route used to run stopped at its cap at
        # eps 0.03 and 0.01 and exited 4
        payload = {
            "kind": "schrodinger-sweep", "generator": {"variant": "quadratic", "c": 1.0},
            "mu": {"atoms": [0.0, 2.0], "weights": [0.5, 0.5]},
            "nu": {"atoms": [1.0, 3.0], "weights": [0.5, 0.5]},
            "eps_list": [0.3, 0.1, 0.03, 0.01],
        }
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
        solves = trace_of(out, "sinkhorn_bridge")
        assert len(solves) == 4
        assert all(s["converged"] and s["marginal_error"] < 1e-9 for s in solves)

    def test_unconverged_newton_solve_exits_4(self, tmp_path):
        # sources 50 apart feeding targets 0.1 apart at small eps: whole rows
        # of the coupling underflow and the solve ends unconverged, not raising
        payload = {
            "kind": "schrodinger-sweep", "generator": {"variant": "quadratic", "c": 1.0},
            "mu": {"atoms": [-50.0, 0.0, 50.0], "weights": [0.25, 0.25, 0.5]},
            "nu": {"atoms": [0.0, 0.1, 0.2], "weights": [0.25, 0.25, 0.5]},
            "eps_list": [1e-3],
        }
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 4
        (record,) = json.loads((out / "manifest.json").read_text())["trace"]
        assert record["route"] == "sinkhorn"
        assert record["converged"] is False
        assert 1e-9 <= record["marginal_error"] < 1.0
        assert (out / "report.csv").read_text().strip().endswith(",0")

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.yaml", MC_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--output-dir", str(out_a)]) == 0
        assert main(["run", "--config", cfg, "--output-dir", str(out_b)]) == 0
        assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()

    def test_manifest_hash_tracks_config_changes(self, tmp_path):
        cfg_a = write_config(tmp_path, "a.yaml", MC_CONFIG)
        payload = dict(MC_CONFIG)
        payload["seed"] = 12
        cfg_b = write_config(tmp_path, "b.yaml", payload)
        out_a, out_b, out_c = tmp_path / "ma", tmp_path / "mb", tmp_path / "mc"
        main(["run", "--config", cfg_a, "--output-dir", str(out_a)])
        main(["run", "--config", cfg_b, "--output-dir", str(out_b)])
        main(["run", "--config", cfg_a, "--output-dir", str(out_c)])
        h = lambda p: json.loads((p / "manifest.json").read_text())["config_sha256"]
        assert h(out_a) != h(out_b)
        assert h(out_a) == h(out_c)

    def test_ti_check_runs(self, tmp_path):
        payload = {"kind": "ti-check", "generator": {"variant": "indicator", "K": 2.0}}
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
        body = (out / "report.csv").read_text()
        assert "coercivity" in body

    def test_bridge_check_runs(self, tmp_path):
        payload = {"kind": "bridge-check", "seed": 3, "paths": 20_000, "steps": 256,
                   "r": 1.5, "epsilon": 0.01}
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
        assert (out / "report.csv").read_text().strip().splitlines()[1].endswith(",1")

    def test_measures_load_from_two_column_csv(self, tmp_path):
        (tmp_path / "mu.csv").write_text("0.0,1.0\n")
        (tmp_path / "nu.csv").write_text("1.0,0.5\n3.0,0.5\n")
        payload = {
            "kind": "schrodinger-sweep",
            "generator": {"variant": "power", "r": 1.5, "a": 1.0},
            "mu": {"csv": str(tmp_path / "mu.csv")},
            "nu": {"csv": str(tmp_path / "nu.csv")},
            "eps_list": [0.1],
            "mollified": True,
            "n_time": 16,
        }
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
        assert (out / "report.csv").read_text().startswith("eps,value,ot,gap,feasible")

    def test_error_message_carries_config_path(self, tmp_path, capsys):
        payload = dict(MC_CONFIG)
        payload.pop("seed")
        cfg = write_config(tmp_path, "no_seed.yaml", payload)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
        assert "no_seed.yaml" in capsys.readouterr().err

    def test_schilder_writes_path_and_value(self, tmp_path):
        # the bump of the path's end as a one-time marginal, so the ascent runs
        payload = {
            "kind": "schilder",
            "generator": {"variant": "quadratic", "c": 1.0},
            "functional": {"kind": "finite_marginals", "times": [1.0],
                           "f": {"kind": "gaussian_bump", "center": 1.0},
                           "bounds": [0.0, 1.0]},
            "knots": 9,
            "restarts": 4,
            "seed": 5,
        }
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
        (result,) = trace_of(out, "optimize_tail")
        assert result["route"] == "ascent"
        assert 0.5 < result["value"] < 0.8
        path_lines = (out / "path.csv").read_text().strip().splitlines()
        assert path_lines[0] == "t,value"
        assert len(path_lines) == 1 + 9
        # one record per restart, the best one carrying the reported value
        runs = result["runs"]
        assert len(runs) == result["restarts"] == 4
        assert all(set(run) == {"value", "iterations", "points", "converged"} for run in runs)
        best = runs[result["best_restart"]]
        assert (best["value"], best["converged"]) == (result["value"], result["converged"])
        assert all(run["points"] >= run["iterations"] >= 1 for run in runs)
        assert not (out / "result.json").exists()
        assert (out / "report.csv").read_text().splitlines()[0] == "quantity,value"

    def test_terminal_schilder_writes_the_best_straight_line(self, tmp_path):
        payload = dict(SMALL_SCHILDER, knots=9, restarts=4)
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
        (result,) = trace_of(out, "optimize_tail")
        assert (result["route"], result["restarts"], result["runs"]) == ("straight-line", 0, [])
        # the grid's points below the box's upper end 16, and 16 itself
        below = np.count_nonzero(np.arange(-16.0, 16.0 + 1e-3, 1e-3) < 16.0)
        assert result["converged"] and result["grid_points"] == below + 1
        assert 0 < result["golden_iterations"] < 80 and result["bracket_width"] < 1e-8
        assert 0.5 < result["value"] < 0.8
        report = (out / "report.csv").read_text().splitlines()
        assert report == ["quantity,value", f"best_value,{format_float(result['value'])}"]
        rows = [[float(v) for v in line.split(",")]
                for line in (out / "path.csv").read_text().splitlines()[1:]]
        t, values = np.array(rows).T
        assert t.tolist() == np.linspace(0.0, 1.0, 9).tolist()
        np.testing.assert_allclose(values, values[-1] * t, rtol=0, atol=1e-15)
        # the config's restarts, seed and max_iter are still read and echoed
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["restarts"], config["seed"], config["max_iter"]) == (4, 5, 100)

    @pytest.mark.parametrize("functional", [
        {"kind": "terminal", "f": {"kind": "gaussian_bump"}},
        {"kind": "running_max", "transform": {"kind": "gaussian_bump"}},
    ], ids=["terminal-bump-at-0", "running-max-bump-at-0"])
    def test_straight_line_optimum_at_0_converges(self, tmp_path, functional):
        # the best end point is the start 0, where floats are finer than the
        # search's capped bracket: the search still converges, and exits 0
        payload = dict(SMALL_SCHILDER, functional=functional)
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
        (result,) = trace_of(out, "optimize_tail")
        assert (result["route"], result["converged"]) == ("straight-line", True)
        assert result["bracket_width"] < 1e-12
        assert result["value"] == pytest.approx(1.0, abs=1e-12)
        end = float((out / "path.csv").read_text().splitlines()[-1].split(",")[1])
        assert abs(end) < 1e-6


    @pytest.mark.parametrize("config, key", [
        (dict(SMALL_PDE_SWEEP, y_stpe=1e-3), "'y_stpe'"),
        (dict(SMALL_PDE_SWEEP, seed=3), "'seed'"),
        (dict(SMALL_SANOV, c_points=41, lambda_pts=9, cap=16),
         "'c_points', 'cap', 'lambda_pts'"),
        (dict(SMALL_PDE_SWEEP, grid=dict(SMALL_PDE_SWEEP["grid"], n_t=400)), "'grid.n_t'"),
        (dict(SMALL_GIRSANOV, control={"kind": "constant", "value": 0.5, "center": 1.0}),
         "'control.center'"),
    ], ids=["misspelt", "seed-in-pde-sweep", "two-stale-sanov-keys", "misspelt-in-grid",
            "center-on-constant-control"])
    def test_unread_key_exits_2_naming_it(self, tmp_path, capsys, no_solver, config, key):
        cfg = write_config(tmp_path, "cfg.yaml", config)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        SMALL_PDE_SWEEP, SMALL_SANOV, SMALL_TRANSPORT,
        {"kind": "ti-check", "generator": {"variant": "quadratic"}},
    ], ids=["pde-sweep", "sanov-iterate", "schrodinger-sweep", "ti-check"])
    def test_seed_option_runs_kinds_that_draw_no_numbers(self, tmp_path, config):
        cfg = write_config(tmp_path, "cfg.yaml", config)
        runs = {}
        for name, extra in (("plain", []), ("seeded", ["--seed", "7"])):
            out = tmp_path / name
            assert main(["run", "--config", cfg, "--output-dir", str(out), *extra]) == 0
            runs[name] = json.loads((out / "manifest.json").read_text())
        # the unread seed leaves the echo, so both runs hash alike
        assert "seed" not in runs["seeded"]["config"]
        assert runs["seeded"]["config_sha256"] == runs["plain"]["config_sha256"]

    def test_seed_option_reaches_kinds_that_read_it(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.yaml", dict(MC_CONFIG, paths=2_000))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--output-dir", str(out), "--seed", "12"]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 12

    def test_sanov_manifest_records_the_limit_diagnostics(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.yaml", SMALL_SANOV)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
        trace = json.loads((out / "manifest.json").read_text())["trace"]
        # the limit's lambda march, then the limit
        march, limit = trace[:2]
        assert march["solver"] == "march_backward" and march["rows"] == 31
        assert march["nt"] >= 1
        assert limit["solver"] == "mean_field_limit"
        assert limit["lambda_star"] == 0.0 and limit["at_edge"] is False
        lo, hi = limit["c_range"]
        assert -1.0 <= lo < 0.0 < hi <= 1.0
        assert limit["limit"] == pytest.approx(0.0, abs=1e-12)

    def test_sanov_manifest_records_the_stage_marches(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.yaml", {k: v for k, v in SMALL_SANOV.items()
                                                  if k != "s_points"})
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["s_points"] == 33
        # after the limit, each n's stage marches and then its pass
        stages, marches = [], []
        for record in manifest["trace"][2:]:
            if record["solver"] == "march_backward":
                marches.append(record["nt"])
            else:
                assert record["solver"] == "iterate_L"
                stages.append((record["n"], record["s_points"], marches))
                marches = []
        assert [(n, s_points, len(nts)) for n, s_points, nts in stages] == [(1, 33, 1),
                                                                           (2, 33, 2)]
        assert not marches
        assert all(nt >= 1 for *_, nts in stages for nt in nts)


@pytest.mark.parametrize("function", [
    {"kind": "gaussian_bump", "center": 1.0}, {"kind": "gaussian_bump", "width": 0.7},
    "square", "negative_square",
], ids=["bump", "narrow-bump", "square", "negative-square"])
def test_config_function_of_one_point_is_its_batch_value(function):
    # a path evaluated alone and the same path in a batch give the same F
    from driftlab.config import build_scalar_function

    f = build_scalar_function({"f": function}, "f")
    x = np.random.default_rng(3).normal(scale=2.0, size=100_000)
    alone = np.array([f(v) for v in x])
    assert alone.tobytes() == f(x).tobytes()


class TestManifestEcho:
    """The manifest echoes the run's copy of the config, into which each
    reader writes the default it applies."""

    BARE = {"kind": "pde-sweep", "generator": {"variant": "quadratic"},
            "terminal": "gaussian_bump", "grid": {"x_min": -4.0, "x_max": 4.0, "nx": 41},
            "n_list": [1, 4], "y_step": 1e-3}
    SPELLED = dict(BARE, generator={"variant": "quadratic", "c": 1.0},
                   terminal={"kind": "gaussian_bump", "center": 0.0, "width": 1.0},
                   grid=dict(BARE["grid"], nt=1, boundary="clampToTerminal"))

    @staticmethod
    def run(tmp_path, name, payload):
        """(manifest, report body) of one CLI run."""
        out = tmp_path / name
        cfg = write_config(tmp_path, f"{name}.yaml", payload)
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text()), (out / "report.csv").read_text()

    def test_nested_defaults_are_echoed(self, tmp_path):
        echo = self.run(tmp_path, "bare", self.BARE)[0]["config"]
        assert echo["grid"]["nt"] == 1
        assert echo["grid"]["boundary"] == "clampToTerminal"
        assert echo["generator"]["c"] == 1.0
        assert echo["terminal"] == {"kind": "gaussian_bump", "center": 0.0, "width": 1.0}

    def test_omitted_and_spelled_out_defaults_hash_alike(self, tmp_path):
        bare, bare_body = self.run(tmp_path, "bare", self.BARE)
        spelled, spelled_body = self.run(tmp_path, "spelled", self.SPELLED)
        assert bare["config"] == spelled["config"]
        assert bare["config_sha256"] == spelled["config_sha256"]
        assert bare_body == spelled_body

    def test_run_leaves_the_callers_config_unchanged(self, tmp_path):
        cfg = copy.deepcopy(self.BARE)
        assert cli.run(cfg, tmp_path / "o") == 0
        assert cfg == self.BARE

    @pytest.mark.parametrize("payload, null", [
        (dict(MC_CONFIG, paths=2_000), {"oracle": None}),
        (SMALL_SANOV, {"s_points": None}),
        (dict(MC_CONFIG, paths=2_000), {"functional": dict(MC_CONFIG["functional"],
                                                           bounds=None)}),
    ], ids=["oracle", "s-points", "functional-bounds"])
    def test_explicit_null_hashes_like_absent(self, tmp_path, payload, null):
        (key, value), = null.items()
        absent = copy.deepcopy(payload)
        if key == "functional":
            absent[key].pop("bounds")
        else:
            absent.pop(key, None)
        without, without_body = self.run(tmp_path, "absent", absent)
        spelled, spelled_body = self.run(tmp_path, "null", dict(payload, **null))
        assert spelled["config"] == without["config"]
        assert spelled["config_sha256"] == without["config_sha256"]
        assert spelled_body == without_body


# the scipy subpackages a fresh interpreter has loaded, for TestImportGraph
HEAVY_MODULES = """
import sys

def heavy_modules():
    names = {m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}
    return sorted(n for n in names if not n.startswith("_") and n != "version")
"""


class TestImportGraph:
    """Start-up cost: a run imports only the scipy subpackages its route calls.

    Checked in a fresh interpreter, since the test modules themselves load
    scipy.stats, scipy.optimize and scipy.integrate.  Only the PDE, transport
    and ascent routes load scipy subpackages: the PDE routes load
    ``scipy.linalg`` alone, and the Monte Carlo routes, ``bridge-check`` and
    a ``schilder`` run that takes the straight-line search load none.  The
    quadrature nodes are built on first use: ``import driftlab.cli`` loads
    no ``numpy.polynomial``, and the PDE routes build no nodes.  Only
    scipy.linalg's array-API shim, which imports all of numpy, pulls in
    ``numpy.polynomial``.  ``yaml`` loads only when a config file is read.
    """

    def test_import_loads_no_yaml(self):
        done = run_python(["-c", "import sys, driftlab.cli; print('yaml' in sys.modules)"])
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_monte_carlo_routes_load_no_scipy_subpackage(self, tmp_path):
        # a hat basis and a polynomial basis for bsde-lsmc, each estimator
        # of mc-estimate without an oracle, and the bridge check
        configs = {
            "bsde-lsmc-hat": LSMC_CONFIG,
            "bsde-lsmc-running-max": dict(LSMC_CONFIG, functional={"kind": "running_max",
                                                                   "bounds": [0.0, 1.0]}),
            "log-mean-exp": dict(MC_CONFIG, paths=2_000),
            "cramer": dict(MC_CONFIG, estimator="cramer", n=2, paths=2_000),
            "girsanov": SMALL_GIRSANOV,
            "bridge-check": SMALL_BRIDGE,
        }
        code = f"""
            import json
            from driftlab import cli

            seen = {{}}
            for kind, cfg in json.loads({json.dumps(configs)!r}).items():
                exit_code = cli.run(cfg, {str(tmp_path)!r} + "/" + kind)
                seen[kind] = [exit_code, heavy_modules()
                              + ["numpy.polynomial"] * ("numpy.polynomial" in sys.modules)]
            print(json.dumps(seen))
        """
        done = run_python(["-c", HEAVY_MODULES + textwrap.dedent(code)])
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {kind: [0, []] for kind in configs}

    def test_pde_routes_load_no_heavy_scipy(self, tmp_path):
        configs = {"pde-sweep": SMALL_PDE_SWEEP, "sanov-iterate": SMALL_SANOV}
        code = f"""
            import json
            from driftlab import cli, sanov, variational

            def quadrature_nodes():
                return [name for name, build in (("gauss-hermite", sanov._gauss_hermite),
                                                 ("gauss-legendre", variational._gauss_legendre))
                        if build.cache_info().currsize]

            loaded = {{"import driftlab.cli": heavy_modules()
                       + ["numpy.polynomial"] * ("numpy.polynomial" in sys.modules)}}
            for kind, cfg in json.loads({json.dumps(configs)!r}).items():
                assert cli.run(cfg, {str(tmp_path)!r} + "/" + kind) == 0, kind
                loaded[kind] = heavy_modules() + quadrature_nodes()
            print(json.dumps(loaded))
        """
        done = run_python(["-c", HEAVY_MODULES + textwrap.dedent(code)])
        assert done.returncode == 0, done.stderr
        for stage, names in json.loads(done.stdout).items():
            assert set(names) <= {"linalg"}, (stage, names)

    def test_straight_line_schilder_runs_load_no_scipy_optimize(self, tmp_path):
        # a running max and a terminal functional under a quadratic cost take
        # the straight-line search; a time integral still runs the ascent
        configs = {
            "running-max": dict(SMALL_SCHILDER, functional={"kind": "running_max"}),
            "terminal": SMALL_SCHILDER,
            "time-integral": dict(SMALL_SCHILDER, functional={"kind": "time_integral",
                                                              "h": "tanh"}),
        }
        code = f"""
            import json, sys
            from driftlab import cli

            seen = {{}}
            for name, cfg in json.loads({json.dumps(configs)!r}).items():
                out = {str(tmp_path)!r} + "/" + name
                code = cli.run(cfg, out)
                with open(out + "/manifest.json") as fh:
                    routes = [r["route"] for r in json.load(fh)["trace"]]
                seen[name] = [code, routes, "scipy.optimize" in sys.modules]
            print(json.dumps(seen))
        """
        done = run_python(["-c", textwrap.dedent(code)])
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {
            "running-max": [0, ["straight-line"], False],
            "terminal": [0, ["straight-line"], False],
            "time-integral": [0, ["ascent"], True],
        }


class TestBlasThreads:
    """``import driftlab`` defaults OpenBLAS to one thread, and a user's
    setting wins.  Each case runs in a fresh interpreter without the variable
    unless it sets it, since this process has imported driftlab already."""

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")], ids=["unset", "2"])
    def test_import_sets_a_default_and_keeps_a_preset(self, preset, expected):
        code = "import driftlab, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
        done = run_python(["-c", code], env={"OPENBLAS_NUM_THREADS": preset})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == expected

    def test_import_loads_no_numpy(self):
        # OpenBLAS reads the variable when numpy or scipy loads it, so the
        # default holds only if it is set first
        code = ("import driftlab, sys; "
                "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'scipy'))))")
        done = run_python(["-c", code], env={"OPENBLAS_NUM_THREADS": None})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")], ids=["unset", "2"])
    def test_manifest_records_the_setting(self, tmp_path, preset, expected):
        cfg = write_config(tmp_path, "cfg.yaml", SMALL_PDE_SWEEP)
        out = tmp_path / "o"
        done = run_python(["-m", "driftlab.cli", "run", "--config", cfg, "--output-dir", str(out)],
                          env={"OPENBLAS_NUM_THREADS": preset})
        assert done.returncode == 0, done.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["OPENBLAS_NUM_THREADS"] == expected


class TestTracedNames:
    """The benchmark tracer wraps driftlab functions by name; each must exist."""

    def test_required_spans_resolve_to_public_functions(self):
        # read the tuple from the tracer's source without importing it
        source = (SRC.parent / "perfbench" / "tracing.py").read_text()
        required = next(
            ast.literal_eval(node.value) for node in ast.parse(source).body
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "REQUIRED" for t in node.targets))
        assert required
        for name in required:
            modname, _, attr = name.partition(".")
            module = importlib.import_module(f"driftlab.{modname}")
            fn = getattr(module, attr, None)
            assert inspect.isfunction(fn), name
            assert not attr.startswith("_") and fn.__module__ == module.__name__, name


def _load_perfbench(monkeypatch, name):
    """Load ``perfbench/<name>.py`` by path, registered in ``sys.modules``
    under ``name`` (as the benchmark imports it) until the test ends."""
    spec = importlib.util.spec_from_file_location(name, SRC.parent / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


BENCHMARK_WORKLOADS = [w["name"] for w in
                       json.loads((SRC.parent / "BENCHMARK.json").read_text())["workloads"]]


class TestTracedBenchmarkPass:
    """One traced pass of each benchmark workload on its seed-1 configs, as
    the benchmark's traced run makes it.  That run fails when an expected
    span never fires or a span's count extractor raises, and counts a report
    that fails its workload's check as a failed experiment."""

    @pytest.mark.parametrize("name", BENCHMARK_WORKLOADS)
    def test_spans_fire_and_reports_pass_their_checks(self, tmp_path, monkeypatch, name):
        tracing = _load_perfbench(monkeypatch, "tracing")
        workloads = _load_perfbench(monkeypatch, "workloads")
        _load_perfbench(monkeypatch, "oracles")  # the checks import it
        workload = workloads.WORKLOADS[name]
        codes = {}

        def run_pass():
            for label, cfg in workload.configs(1):
                tracer.experiment = label
                codes[label] = cli.run(copy.deepcopy(cfg), tmp_path / label, source=label)

        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, root = tracer.root("bench.pass", run_pass)
        finally:
            tracer.uninstall()
        never_fired = set(workload.spans) - {s.name for s in tracer.spans}
        assert not never_fired, never_fired
        assert tracing.layer_metrics(tracer.spans, root)["cli.run_s"] > 0
        checks = workload.checks(1)
        for label, code in codes.items():
            assert code == 0, label
            problems, _, rows = checks[label]((tmp_path / label / "report.csv").read_text())
            assert not problems and rows, (label, problems)


def test_sanov_chain_marches_once_per_stage_and_once_for_the_limit(tmp_path, monkeypatch):
    """On the benchmark's sanov-chain config, iterate_L for n marches n times
    and mean_field_limit once: a second march path fails here before it
    reaches the benchmark."""
    workloads = _load_perfbench(monkeypatch, "workloads")
    (label, cfg), = workloads.WORKLOADS["sanov-chain"].configs(1)
    marches = []
    march = pde.march_backward

    def counted_march(*args, **kwargs):
        marches.append(1)
        return march(*args, **kwargs)

    monkeypatch.setattr(pde, "march_backward", counted_march)
    monkeypatch.setattr(sanov, "march_backward", counted_march)
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            before = len(marches)
            out = fn(*args, **kwargs)
            calls.append((fn.__name__, len(marches) - before))
            return out
        return wrapper

    monkeypatch.setattr(cli, "iterate_L", counted(sanov.iterate_L))
    monkeypatch.setattr(cli, "mean_field_limit", counted(sanov.mean_field_limit))
    assert cli.run(copy.deepcopy(cfg), tmp_path / label, source=label) == 0
    assert calls == [("mean_field_limit", 1)] + [("iterate_L", n) for n in workloads.SC_N]


@pytest.mark.parametrize("config", [
    SMALL_PDE_SWEEP, SMALL_SANOV, dict(MC_CONFIG, paths=2_000, oracle=SMALL_ORACLE),
], ids=["pde-sweep", "sanov-iterate", "mc-estimate-oracle"])
def test_trace_holds_one_record_per_march(tmp_path, monkeypatch, config):
    """Each march_backward call, the mc-estimate oracle's included, leaves
    exactly one march record, with its step data, in the run's trace."""
    calls = []
    march = pde.march_backward

    def counted_march(*args, **kwargs):
        calls.append(1)
        return march(*args, **kwargs)

    monkeypatch.setattr(pde, "march_backward", counted_march)
    monkeypatch.setattr(sanov, "march_backward", counted_march)
    out = tmp_path / "o"
    assert cli.run(copy.deepcopy(config), out) == 0
    marches = trace_of(out, "march_backward")
    assert calls and len(marches) == len(calls)
    assert all(set(m) == {"solver", "at_s", "rows", "nt", "dt", "dx", "lipschitz",
                          "minimal_nt", "diffusion_number"} for m in marches)


def _driftlab_object(node, aliases):
    """(module, attribute chain) of a driftlab object an expression names:
    a bound import, or an entry of ``sys.modules``; None for anything else."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.insert(0, node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in aliases:
        module, attrs = aliases[node.id]
        return module, attrs + tuple(chain)
    if (isinstance(node, ast.Subscript) and ast.unparse(node.value) == "sys.modules"
            and isinstance(node.slice, ast.Constant)):
        return node.slice.value, tuple(chain)
    return None


def perfbench_references():
    """(file, module, attribute chain) for every driftlab module that a
    ``perfbench/*.py`` file imports or names, and every name it takes from
    one; read with ``ast``, so nothing in perfbench is imported."""
    refs = []
    for path in sorted((SRC.parent / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        consts = {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                  for t in node.targets if isinstance(t, ast.Name)}
        loops = {node.target.id: node.iter.id for node in ast.walk(tree)
                 if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                 and isinstance(node.iter, ast.Name)}
        aliases, found = {}, []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "driftlab":
                        found.append((a.name, ()))
                        # ``import driftlab.cli`` binds driftlab, ``... as cli`` the module
                        bound = (a.name, ()) if a.asname else ("driftlab", ())
                        aliases[a.asname or "driftlab"] = bound
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("driftlab"):
                for a in node.names:
                    found.append((node.module, (a.name,)))
                    aliases[a.asname or a.name] = (node.module, (a.name,))
            elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                target = _driftlab_object(node.value, aliases)
                if target is not None:
                    aliases[node.targets[0].id] = target
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"driftlab(\.\w+)+", node.value):
                    found.append((node.value, ()))
            elif isinstance(node, ast.JoinedStr) and [type(v) for v in node.values] == [
                    ast.Constant, ast.FormattedValue] and node.values[0].value == "driftlab.":
                # f"driftlab.{layer}" inside ``for layer in LAYERS``
                names = ast.literal_eval(consts[loops[node.values[1].value.id]])
                assert names, path.name
                found.extend((f"driftlab.{name}", ()) for name in names)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Attribute, ast.Subscript)):
                target = _driftlab_object(node, aliases)
                if target is not None:
                    found.append(target)
        refs.extend((path.name, module, chain) for module, chain in found)
    return refs


class TestBenchmarkImports:
    """The frozen benchmark imports driftlab modules and takes names from
    them in every run (``child.py``'s ``worker_count``, the tracer's
    ``sys.modules`` reads); a deletion outside a benchmark change must fail
    here, not in every benchmark run."""

    def test_every_module_and_name_exists(self):
        refs = perfbench_references()
        assert {module for _, module, _ in refs} >= {"driftlab.cli", "driftlab.montecarlo"}
        for filename, module, chain in refs:
            obj = importlib.import_module(module)
            for i, name in enumerate(chain):
                assert hasattr(obj, name), (filename, module, ".".join(chain[:i + 1]))
                obj = getattr(obj, name)


class TestCompare:
    def test_report_vs_itself_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.yaml", PDE_SWEEP)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--output-dir", str(out)])
        code = main(["compare", str(out / "report.csv"), str(out / "report.csv"),
                     "--tolerance", "0"])
        assert code == 0

    def test_two_seeds_within_tolerance(self, tmp_path):
        cfg_a = write_config(tmp_path, "a.yaml", MC_CONFIG)
        payload = dict(MC_CONFIG)
        payload["seed"] = 12
        cfg_b = write_config(tmp_path, "b.yaml", payload)
        out_a, out_b = tmp_path / "a_out", tmp_path / "b_out"
        main(["run", "--config", cfg_a, "--output-dir", str(out_a)])
        main(["run", "--config", cfg_b, "--output-dir", str(out_b)])
        # 6 standard errors of a 5e4-path estimate of a [0, 1]-bounded value
        assert main(["compare", str(out_a / "report.csv"), str(out_b / "report.csv"),
                     "--tolerance", "0.02"]) == 0

    def test_mismatched_schema_errors(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("n,prelimit,limit,gap\n1,0.5,0.4,0.1\n")
        b.write_text("n,prelimit,limit,gap\n1,0.5,0.4,0.1\n2,0.5,0.4,0.1\n")
        assert main(["compare", str(a), str(b), "--tolerance", "1"]) == 2

    def test_refined_gaps_dominate_coarse(self, tmp_path):
        coarse_cfg = dict(PDE_SWEEP)
        coarse_cfg["grid"] = {"x_min": -6.0, "x_max": 6.0, "nx": 301}
        coarse_cfg["n_list"] = [4, 16]
        fine_cfg = dict(coarse_cfg)
        fine_cfg["grid"] = {"x_min": -6.0, "x_max": 6.0, "nx": 601}
        ca = write_config(tmp_path, "c.yaml", coarse_cfg)
        fa = write_config(tmp_path, "f.yaml", fine_cfg)
        out_c, out_f = tmp_path / "c_out", tmp_path / "f_out"
        main(["run", "--config", ca, "--output-dir", str(out_c)])
        main(["run", "--config", fa, "--output-dir", str(out_f)])
        import csv

        def gaps(p):
            with open(p) as fh:
                return [float(row["gap"]) for row in csv.DictReader(fh)]

        for fine, coarse in zip(gaps(out_f / "report.csv"), gaps(out_c / "report.csv")):
            assert fine <= coarse + 5e-3
