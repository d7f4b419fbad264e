"""Command-line entry point: wire config files to experiments, emit report
CSVs plus a JSON manifest that echoes every resolved setting.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(non-convergence), 4 declared infeasibility.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy
import yaml

from . import __version__
from . import generators as gen
from .config import (
    ConfigError,
    boolean,
    build_functional,
    build_generator,
    build_grid,
    build_measure,
    build_scalar_function,
    choice,
    integer_at_least,
    integer_list,
    load_config,
    number,
    number_at_least,
    number_pair,
    positive_list,
    positive_number,
    require,
    time_independent_generator,
)
from .montecarlo import (
    FeedbackControl,
    PathBatch,
    bridge_moment_check,
    cramer_average,
    girsanov_lower_bound,
    log_mean_exp,
    lsmc_bsde,
)
from .pde import solve_semilinear, vanishing_viscosity_sweep
from .report import compare_csv_texts, csv_body, format_float
from .sanov import MeanFieldFunctional, iterate_L, mean_field_limit
from .schrodinger import small_noise_sweep
from .variational import maximize_schilder

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INFEASIBLE = 4


def _resolve(cfg: dict, defaults: dict) -> dict:
    out = dict(defaults)
    out.update({k: v for k, v in cfg.items() if v is not None})
    return out


# ---------------------------------------------------------------------------
# Runners (config -> CSV text, manifest extras, exit code, aux files)
# ---------------------------------------------------------------------------

def _run_pde_sweep(cfg):
    resolved = _resolve(cfg, {"y_step": 1e-5, "n_list": [1, 2, 4, 8, 16, 32, 64]})
    g = time_independent_generator(resolved, "generator", "pde-sweep")
    f = build_scalar_function(require(resolved, "terminal", "pde-sweep"), "terminal")
    grid = build_grid(require(resolved, "grid", "pde-sweep"))
    report = vanishing_viscosity_sweep(
        f, g, integer_list(resolved, "n_list", 1, "pde-sweep"), grid,
        y_step=positive_number(resolved, "y_step", "pde-sweep")
    )
    csv_text = report.to_csv(header_names=("n", "u_n", "limit", "gap"))
    return resolved, csv_text, report.meta, EXIT_OK, {}


def _run_schilder(cfg):
    resolved = _resolve(cfg, {"knots": 17, "restarts": 8, "max_iter": 400})
    seed = integer_at_least(resolved, "seed", 0, "schilder")
    g = build_generator(require(resolved, "generator", "schilder"))
    F = build_functional(require(resolved, "functional", "schilder"))
    res = maximize_schilder(
        F, g, m=integer_at_least(resolved, "knots", 2, "schilder"),
        restarts=integer_at_least(resolved, "restarts", 1, "schilder"), seed=seed,
        max_iter=integer_at_least(resolved, "max_iter", 1, "schilder"),
    )
    path_csv = csv_body(("t", "value"), list(zip(res.path.times, res.path.values)))
    result = {
        "value": res.value,
        "converged": res.converged,
        "restarts": res.restarts,
        "best_restart": res.best_restart,
    }
    csv_text = csv_body(("quantity", "value"), [("best_value", res.value)])
    code = EXIT_OK if res.converged else EXIT_NUMERICAL
    return resolved, csv_text, result, code, {"path.csv": path_csv,
                                              "result.json": json.dumps(result, indent=2)}


def _run_sanov_iterate(cfg):
    resolved = _resolve(cfg, {
        "n_list": [1, 2, 4, 8],
        "c_points": 401,
        "lambda_min": -6.0, "lambda_max": 6.0, "lambda_points": 241,
        "s_points": None, "cap": 16,
    })
    g = build_generator(require(resolved, "generator", "sanov-iterate"))
    phi = build_scalar_function(require(resolved, "phi", "sanov-iterate"), "phi")
    Phi = build_scalar_function(require(resolved, "Phi", "sanov-iterate"), "Phi")
    lo, hi = number_pair(resolved, "phi_bounds", "sanov-iterate")
    F = MeanFieldFunctional(phi=phi, Phi=Phi, phi_bounds=(lo, hi))
    grid = build_grid(require(resolved, "grid", "sanov-iterate"))
    c_grid = np.linspace(lo, hi, integer_at_least(resolved, "c_points", 2, "sanov-iterate"))
    lam_grid = np.linspace(number(resolved, "lambda_min", "sanov-iterate"),
                           number(resolved, "lambda_max", "sanov-iterate"),
                           integer_at_least(resolved, "lambda_points", 2, "sanov-iterate"))
    n_list = integer_list(resolved, "n_list", 1, "sanov-iterate")
    s_points = (None if resolved["s_points"] is None
                else integer_at_least(resolved, "s_points", 2, "sanov-iterate"))
    cap = integer_at_least(resolved, "cap", 1, "sanov-iterate")
    if max(n_list) > cap:
        raise ConfigError(f"key 'n_list' in sanov-iterate must have no entry above key "
                          f"'cap' ({cap}), got n={max(n_list)}")
    limit = mean_field_limit(F, g, c_grid, lam_grid, grid)
    rows = []
    for n in n_list:
        val = iterate_L(F, g, n, grid, s_points=s_points, cap=cap)
        rows.append((n, val, limit, abs(val - limit)))
    csv_text = csv_body(("n", "prelimit", "limit", "gap"), rows)
    return resolved, csv_text, {"limit": limit}, EXIT_OK, {}


def _run_schrodinger_sweep(cfg):
    resolved = _resolve(cfg, {"mollified": True, "n_time": 32})
    g = time_independent_generator(resolved, "generator", "schrodinger-sweep")
    mu = build_measure(require(resolved, "mu", "schrodinger-sweep"), "mu")
    nu = build_measure(require(resolved, "nu", "schrodinger-sweep"), "nu")
    mollified = boolean(resolved, "mollified", "schrodinger-sweep")
    # an unmollified sweep may reach eps = 0, the transport problem itself
    eps_list = positive_list(resolved, "eps_list", "schrodinger-sweep", allow_zero=not mollified)
    report = small_noise_sweep(mu, nu, g, eps_list, mollified=mollified,
                               n_time=integer_at_least(resolved, "n_time", 1,
                                                       "schrodinger-sweep"))
    csv_text = report.to_csv(("eps", "value", "ot", "gap"))
    infeasible = any(r.aux.get("feasible", 1.0) == 0.0 for r in report.rows)
    return resolved, csv_text, report.meta, EXIT_INFEASIBLE if infeasible else EXIT_OK, {}


def _build_control(section):
    kind = choice(section, "kind", ("constant", "pull_toward"), "control")
    if kind == "constant":
        return FeedbackControl.constant(number(section, "value", "control"))
    center = number(section, "center", "control", default=0.0)
    bound = positive_number(section, "bound", "control", default=3.0)
    return FeedbackControl.state_feedback(
        lambda t, x: center - x, bound=bound, label=f"pull_toward({center:g})"
    )


def _oracle(section):
    """The PDE value at the origin that an ``oracle`` section describes, as a
    function to call once the estimate is in."""
    g = build_generator(require(section, "generator", "oracle"), "oracle.generator")
    f = build_scalar_function(require(section, "terminal", "oracle"), "oracle.terminal")
    grid = build_grid(require(section, "grid", "oracle"), "oracle.grid")
    viscosity = positive_number(section, "viscosity", "oracle", default=1.0)
    return lambda: solve_semilinear(f, g, viscosity, grid).initial_value_at_origin


def _path_batch(resolved, seed, context):
    return PathBatch(n_steps=integer_at_least(resolved, "steps", 1, context),
                     n_paths=integer_at_least(resolved, "paths", 1, context), seed=seed)


def _run_mc_estimate(cfg):
    resolved = _resolve(cfg, {"n": 1, "paths": 1_000_000, "steps": 8, "oracle": None})
    seed = integer_at_least(resolved, "seed", 0, "mc-estimate")
    estimator = choice(resolved, "estimator", ("log-mean-exp", "cramer", "girsanov"),
                       "mc-estimate")
    F = build_functional(require(resolved, "functional", "mc-estimate"))
    n = positive_number(resolved, "n", "mc-estimate")
    batch = _path_batch(resolved, seed, "mc-estimate")
    oracle = _oracle(resolved["oracle"]) if resolved["oracle"] else None
    if estimator == "log-mean-exp":
        est, se = log_mean_exp(F, n, batch)
    elif estimator == "cramer":
        est, se = cramer_average(F, integer_at_least(resolved, "n", 1, "mc-estimate"), batch)
    else:
        g = build_generator(require(resolved, "generator", "mc-estimate"))
        control = _build_control(require(resolved, "control", "mc-estimate"))
        est, se = girsanov_lower_bound(F, g, control, batch)
    value = gap = float("nan")
    if oracle is not None:
        value = oracle()
        gap = abs(est - value)
    rows = [(estimator, n, est, se, value, gap)]
    csv_text = csv_body(("estimator", "n", "estimate", "se", "oracle", "gap"), rows)
    return resolved, csv_text, {}, EXIT_OK, {}


def _run_bsde_lsmc(cfg):
    """One row per n; ``extras["solves"]`` records each regression ladder."""
    resolved = _resolve(cfg, {"n_list": [1], "steps": 50, "paths": 100_000,
                              "basis_size": 35})
    seed = integer_at_least(resolved, "seed", 0, "bsde-lsmc")
    g = build_generator(require(resolved, "generator", "bsde-lsmc"))
    F = build_functional(require(resolved, "functional", "bsde-lsmc"))
    n_list = positive_list(resolved, "n_list", "bsde-lsmc")
    basis_size = integer_at_least(resolved, "basis_size", 2, "bsde-lsmc")
    batch = _path_batch(resolved, seed, "bsde-lsmc")
    rows, solves = [], []
    for n in n_list:
        started = time.perf_counter()
        # each n draws its paths from the seed offset by n's integer part
        sol = lsmc_bsde(F, g, n, replace(batch, seed=seed + math.floor(n)),
                        basis_size=basis_size)
        knots = sol.basis_sizes if sol.basis == "hat" else ()
        solves.append({
            "n": n, "basis": sol.basis,
            "knots_min": min(knots) if knots else None,
            "knots_max": max(knots) if knots else None,
            "regression_steps": len(sol.basis_sizes),
            "fallbacks": sol.degree_fallbacks,
            "wall_s": time.perf_counter() - started,
        })
        rows.append((n, sol.y0, sol.terminal_residual, float(sol.degree_fallbacks)))
    csv_text = csv_body(("n", "y0", "terminal_residual", "basis_fallbacks"), rows)
    return resolved, csv_text, {"solves": solves}, EXIT_OK, {}


def _run_ti_check(cfg):
    resolved = dict(cfg)
    g = build_generator(require(resolved, "generator", "ti-check"))
    report = gen.check_ti(g)
    rows = [
        (name, float(ok), detail.replace(",", ";"))
        for name, (ok, detail) in report.clauses.items()
    ]
    csv_text = csv_body(("clause", "passed", "detail"), rows)
    return resolved, csv_text, {"all_passed": report.passed}, EXIT_OK, {}


def _run_bridge_check(cfg):
    resolved = _resolve(cfg, {"x": 0.0, "y": 1.0, "epsilon": 0.01, "delta": 1.0,
                              "r": 1.5, "steps": 512, "paths": 100_000})
    seed = integer_at_least(resolved, "seed", 0, "bridge-check")
    batch = _path_batch(resolved, seed, "bridge-check")
    r = number(resolved, "r", "bridge-check")
    chk = bridge_moment_check(
        number(resolved, "x", "bridge-check"), number(resolved, "y", "bridge-check"),
        number_at_least(resolved, "epsilon", 0.0, "bridge-check"),
        positive_number(resolved, "delta", "bridge-check"), r, batch,
    )
    rows = [(r, chk.empirical, chk.standard_error, chk.bound,
             chk.constant, float(chk.empirical <= chk.bound))]
    csv_text = csv_body(("r", "empirical", "se", "bound", "constant", "within_bound"), rows)
    code = EXIT_OK if chk.empirical <= chk.bound else EXIT_NUMERICAL
    return resolved, csv_text, {}, code, {}


_RUNNERS = {
    "pde-sweep": _run_pde_sweep,
    "schilder": _run_schilder,
    "sanov-iterate": _run_sanov_iterate,
    "schrodinger-sweep": _run_schrodinger_sweep,
    "mc-estimate": _run_mc_estimate,
    "bsde-lsmc": _run_bsde_lsmc,
    "ti-check": _run_ti_check,
    "bridge-check": _run_bridge_check,
}


def run(cfg: dict, out_dir, source: str = "<config>") -> int:
    """Execute one experiment config; write report.csv and manifest.json."""
    started = time.time()
    out = Path(out_dir)
    try:
        kind = choice(cfg, "kind", _RUNNERS)
        resolved, csv_text, extras, code, aux = _RUNNERS[kind](cfg)
    except ValueError as err:  # a ConfigError, or a solver rejecting its input
        print(f"{source}: configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as err:
        print(f"{source}: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL

    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(csv_text)
    for name, text in aux.items():
        (out / name).write_text(text)
    canonical = json.dumps(resolved, sort_keys=True, default=str)
    manifest = {
        "kind": kind,
        "config": resolved,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "versions": {
            "driftlab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "wall_time_s": time.time() - started,
        # the BLAS thread setting this run saw (driftlab/__init__.py sets a
        # default of 1); it decides what cpu time against wall time means
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "extras": extras,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str))
    return code


def compare(path_a, path_b, tolerance: float) -> int:
    """Row-aligned value comparison of two report CSVs."""
    try:
        worst, rows = compare_csv_texts(
            Path(path_a).read_text(), Path(path_b).read_text()
        )
    except ValueError as err:
        print(f"schema mismatch: {err}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"max |difference| = {format_float(worst)} over {rows} rows")
    return EXIT_OK if worst <= tolerance else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="driftlab")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--output-dir", default="out")
    run_p.add_argument("--seed", type=int, default=None)

    cmp_p = sub.add_parser("compare", help="compare two report CSVs")
    cmp_p.add_argument("report_a")
    cmp_p.add_argument("report_b")
    cmp_p.add_argument("--tolerance", type=float, default=0.0)

    # per-module sugar: `driftlab pde sweep --config ...` etc.
    aliases = {
        "pde": ("sweep", "pde-sweep"),
        "variational": ("maximize", "schilder"),
        "sanov": ("iterate", "sanov-iterate"),
        "schrodinger": ("sweep", "schrodinger-sweep"),
        "mc": ("estimate", "mc-estimate"),
        "bsde": ("lsmc", "bsde-lsmc"),
        "ti": ("check", "ti-check"),
        "bridge": ("check", "bridge-check"),
    }
    for name, (action, kind) in aliases.items():
        p = sub.add_parser(name)
        p.add_argument("action", choices=[action])
        p.add_argument("--config", required=True)
        p.add_argument("--output-dir", default="out")
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(alias_kind=kind)

    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.report_a, args.report_b, args.tolerance)

    try:
        cfg = load_config(args.config)
    except (OSError, ConfigError, yaml.YAMLError) as err:
        print(f"{args.config}: configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        cfg["seed"] = args.seed
    expected = getattr(args, "alias_kind", None)
    if expected is not None:
        declared = cfg.get("kind", expected)
        if declared != expected:
            print(
                f"{args.config}: configuration error: config kind '{declared}' does "
                f"not match subcommand (expects '{expected}')",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        cfg["kind"] = expected
    return run(cfg, args.output_dir, source=str(args.config))


if __name__ == "__main__":
    sys.exit(main())
