"""End-to-end CLI runs: exit codes, report files, manifests, determinism."""

import ast
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

from driftlab import montecarlo
from driftlab.cli import main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


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
    "n_list": [1, 2], "c_points": 41, "lambda_points": 31, "s_points": 17,
}

SMALL_TRANSPORT = {
    "kind": "schrodinger-sweep", "generator": {"variant": "quadratic", "c": 1.0},
    "mu": {"atoms": [0.0], "weights": [1.0]}, "nu": {"atoms": [1.0], "weights": [1.0]},
    "eps_list": [0.1],
}

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(args, timeout=120):
    """Run a new interpreter with ``src`` on the path; a hang fails the test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
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
        assert "configuration error" in capsys.readouterr().err

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
    ], ids=["string", "missing-csv", "one-column-csv", "scalar-weights", "null-q",
            "string-base"])
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
        # A running-max functional regresses on two statistics, the basis
        # that is fitted by lstsq
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "lstsq", fail)
        payload = dict(LSMC_CONFIG, functional={"kind": "running_max", "bounds": [0.0, 1.0]})
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 3
        assert "numerical failure" in capsys.readouterr().err

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
    ], ids=["lsmc-n-zero", "lsmc-n-negative", "mc-n-zero", "cramer-n-fraction",
            "basis-negative", "basis-zero", "basis-fraction", "steps-fraction", "paths-zero"])
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

    def test_lsmc_manifest_records_each_solve(self, tmp_path):
        payload = dict(LSMC_CONFIG, n_list=[1, 4], basis_size=9)
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
        solves = json.loads((out / "manifest.json").read_text())["extras"]["solves"]
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

    @pytest.mark.parametrize("generator, mollified, route, keys", [
        ({"variant": "power", "r": 1.5, "a": 1.0}, False, "drift-field",
         {"evaluations", "al_rounds", "penalty_weight", "pre_repair_terminal_l1",
          "repair_cost", "kkt_residual", "feasible", "kernel_flushed"}),
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
        solves = json.loads((out / "manifest.json").read_text())["extras"]["solves"]
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
        solves = json.loads((out / "manifest.json").read_text())["extras"]["solves"]
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
        (record,) = json.loads((out / "manifest.json").read_text())["extras"]["solves"]
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

    def test_module_alias_subcommand(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.yaml", PDE_SWEEP)
        out = tmp_path / "out"
        assert main(["pde", "sweep", "--config", cfg, "--output-dir", str(out)]) == 0

    def test_alias_kind_mismatch_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.yaml", MC_CONFIG)
        code = main(["pde", "sweep", "--config", cfg, "--output-dir", str(tmp_path / "o")])
        assert code == 2

    def test_ti_check_runs(self, tmp_path):
        payload = {"kind": "ti-check", "generator": {"variant": "indicator", "K": 2.0}}
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        out = tmp_path / "out"
        assert main(["ti", "check", "--config", cfg, "--output-dir", str(out)]) == 0
        body = (out / "report.csv").read_text()
        assert "coercivity" in body

    def test_bridge_check_runs(self, tmp_path):
        payload = {"kind": "bridge-check", "seed": 3, "paths": 20_000, "steps": 256,
                   "r": 1.5, "epsilon": 0.01}
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        out = tmp_path / "out"
        assert main(["bridge", "check", "--config", cfg, "--output-dir", str(out)]) == 0
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
        assert main(["schrodinger", "sweep", "--config", cfg,
                     "--output-dir", str(out)]) == 0
        assert (out / "report.csv").read_text().startswith("eps,value,ot,gap,feasible")

    def test_error_message_carries_config_path(self, tmp_path, capsys):
        payload = dict(MC_CONFIG)
        payload.pop("seed")
        cfg = write_config(tmp_path, "no_seed.yaml", payload)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
        assert "no_seed.yaml" in capsys.readouterr().err

    def test_schilder_writes_path_and_value(self, tmp_path):
        payload = {
            "kind": "schilder",
            "generator": {"variant": "quadratic", "c": 1.0},
            "functional": {"kind": "terminal", "f": {"kind": "gaussian_bump", "center": 1.0},
                           "bounds": [0.0, 1.0]},
            "knots": 9,
            "restarts": 4,
            "seed": 5,
        }
        cfg = write_config(tmp_path, "cfg.yaml", payload)
        out = tmp_path / "out"
        assert main(["variational", "maximize", "--config", cfg,
                     "--output-dir", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert 0.5 < result["value"] < 0.8
        path_lines = (out / "path.csv").read_text().strip().splitlines()
        assert path_lines[0] == "t,value"
        assert len(path_lines) == 1 + 9


class TestImportGraph:
    """Start-up cost: a run imports only the scipy subpackages its route calls.

    Checked in a fresh interpreter, since the test modules themselves load
    scipy.stats, scipy.optimize and scipy.integrate.  Of the heavy ones
    (stats, special, optimize, integrate) the PDE routes need none.
    """

    def test_pde_routes_load_no_heavy_scipy(self, tmp_path):
        configs = {"pde-sweep": SMALL_PDE_SWEEP, "sanov-iterate": SMALL_SANOV}
        code = f"""
            import json, sys
            from driftlab import cli

            def scipy_subpackages():
                names = {{m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}}
                return sorted(n for n in names if not n.startswith("_") and n != "version")

            loaded = {{"import driftlab.cli": scipy_subpackages()}}
            for kind, cfg in json.loads({json.dumps(configs)!r}).items():
                assert cli.run(cfg, {str(tmp_path)!r} + "/" + kind) == 0, kind
                loaded[kind] = scipy_subpackages()
            print(json.dumps(loaded))
        """
        done = run_python(["-c", textwrap.dedent(code)])
        assert done.returncode == 0, done.stderr
        for stage, names in json.loads(done.stdout).items():
            assert set(names) <= {"linalg"}, (stage, names)


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
