"""Command-line entry point: wire config files to experiments, emit report
CSVs plus a JSON manifest that echoes every value a run used, the defaults
the config readers applied included, and carries the run's trace: one
record per solver call, in call order, that each solver writes itself
(:func:`driftlab.report.record`).

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(non-convergence), 4 declared infeasibility.
"""

from __future__ import annotations

import argparse
import copy
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

from . import __version__
from . import generators as gen
from .config import (
    ConfigError,
    ReadRecorder,
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
    optional,
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
from .report import compare_csv_texts, csv_body, format_float, recording
from .sanov import MeanFieldFunctional, iterate_L, mean_field_limit
from .schrodinger import small_noise_sweep
from .variational import maximize_schilder

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INFEASIBLE = 4


# ---------------------------------------------------------------------------
# Runners: each reads and checks its whole config, then returns the solve, a
# call of no arguments giving (CSV text, exit code, aux files)
# ---------------------------------------------------------------------------

# every aux file name a solve may write beside report.csv
_AUX_FILES = ("path.csv",)


def _run_pde_sweep(cfg):
    g = time_independent_generator(cfg, "generator", "pde-sweep")
    f = build_scalar_function(cfg, "terminal", "pde-sweep")
    grid = build_grid(require(cfg, "grid", "pde-sweep"))
    n_list = integer_list(cfg, "n_list", 1, "pde-sweep", default=[1, 2, 4, 8, 16, 32, 64])
    y_step = positive_number(cfg, "y_step", "pde-sweep", default=1e-3)

    def solve():
        rows = vanishing_viscosity_sweep(f, g, n_list, grid, y_step=y_step)
        return csv_body(("n", "u_n", "limit", "gap"), rows), EXIT_OK, {}
    return solve


def _run_schilder(cfg):
    seed = integer_at_least(cfg, "seed", 0, "schilder")
    g = build_generator(require(cfg, "generator", "schilder"))
    F = build_functional(require(cfg, "functional", "schilder"))
    m = integer_at_least(cfg, "knots", 2, "schilder", default=17)
    restarts = integer_at_least(cfg, "restarts", 1, "schilder", default=8)
    max_iter = integer_at_least(cfg, "max_iter", 1, "schilder", default=400)

    def solve():
        res = maximize_schilder(F, g, m=m, restarts=restarts, seed=seed, max_iter=max_iter)
        path_csv = csv_body(("t", "value"), list(zip(res.path.times, res.path.values)))
        csv_text = csv_body(("quantity", "value"), [("best_value", res.value)])
        code = EXIT_OK if res.converged else EXIT_NUMERICAL
        return csv_text, code, {"path.csv": path_csv}
    return solve


def _run_sanov_iterate(cfg):
    g = build_generator(require(cfg, "generator", "sanov-iterate"))
    phi = build_scalar_function(cfg, "phi", "sanov-iterate")
    Phi = build_scalar_function(cfg, "Phi", "sanov-iterate")
    lo, hi = number_pair(cfg, "phi_bounds", "sanov-iterate")
    F = MeanFieldFunctional(phi=phi, Phi=Phi, phi_bounds=(lo, hi))
    grid = build_grid(require(cfg, "grid", "sanov-iterate"))
    lam_min = number(cfg, "lambda_min", "sanov-iterate", default=-6.0)
    lam_max = number(cfg, "lambda_max", "sanov-iterate", default=6.0)
    # a window without lambda = 0 misses the free statistic, where C(c) = 0
    if not lam_min < 0.0 < lam_max:
        key = "lambda_min" if lam_min >= 0.0 else "lambda_max"
        raise ConfigError(f"key '{key}' in sanov-iterate must leave 0 inside the window "
                          f"(lambda_min < 0 < lambda_max), got [{lam_min:g}, {lam_max:g}]")
    # the rows of the limit's one march
    lam_grid = np.linspace(lam_min, lam_max, integer_at_least(
        cfg, "lambda_points", 5, "sanov-iterate", default=33))
    n_list = integer_list(cfg, "n_list", 1, "sanov-iterate", default=[1, 2, 4, 8])
    # the nodes of each interpolated stage; its node slopes need 5
    s_points = integer_at_least(cfg, "s_points", 5, "sanov-iterate", default=33)

    def solve():
        limit = mean_field_limit(F, g, lam_grid, grid)
        rows = []
        for n in n_list:
            val = iterate_L(F, g, n, grid, s_points=s_points)
            rows.append((n, val, limit, abs(val - limit)))
        return csv_body(("n", "prelimit", "limit", "gap"), rows), EXIT_OK, {}
    return solve


def _run_schrodinger_sweep(cfg):
    g = time_independent_generator(cfg, "generator", "schrodinger-sweep")
    mu = build_measure(require(cfg, "mu", "schrodinger-sweep"), "mu")
    nu = build_measure(require(cfg, "nu", "schrodinger-sweep"), "nu")
    mollified = boolean(cfg, "mollified", "schrodinger-sweep", default=True)
    # an unmollified sweep may reach eps = 0, the transport problem itself
    eps_list = positive_list(cfg, "eps_list", "schrodinger-sweep", allow_zero=not mollified)
    n_time = integer_at_least(cfg, "n_time", 1, "schrodinger-sweep", default=32)

    def solve():
        rows = small_noise_sweep(mu, nu, g, eps_list, mollified=mollified, n_time=n_time)
        csv_text = csv_body(("eps", "value", "ot", "gap", "feasible"), rows)
        infeasible = any(feasible == 0.0 for *_, feasible in rows)
        return csv_text, EXIT_INFEASIBLE if infeasible else EXIT_OK, {}
    return solve


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
    f = build_scalar_function(section, "terminal", "oracle")
    grid = build_grid(require(section, "grid", "oracle"), "oracle.grid")
    viscosity = positive_number(section, "viscosity", "oracle", default=1.0)
    return lambda: solve_semilinear(f, g, viscosity, grid).initial_value_at_origin


def _run_mc_estimate(cfg):
    seed = integer_at_least(cfg, "seed", 0, "mc-estimate")
    estimator = choice(cfg, "estimator", ("log-mean-exp", "cramer", "girsanov"),
                       "mc-estimate")
    F = build_functional(require(cfg, "functional", "mc-estimate"))
    # the Cramer average runs over n independent copies
    n = (integer_at_least(cfg, "n", 1, "mc-estimate", default=1) if estimator == "cramer"
         else positive_number(cfg, "n", "mc-estimate", default=1))
    batch = PathBatch(n_steps=integer_at_least(cfg, "steps", 1, "mc-estimate", default=8),
                      n_paths=integer_at_least(cfg, "paths", 1, "mc-estimate",
                                               default=1_000_000), seed=seed)
    section = optional(cfg, "oracle")
    oracle = None if section is None else _oracle(section)
    if estimator == "girsanov":
        g = build_generator(require(cfg, "generator", "mc-estimate"))
        control = _build_control(require(cfg, "control", "mc-estimate"))
        estimate = lambda: girsanov_lower_bound(F, g, control, batch)
    else:
        estimate = lambda: (cramer_average if estimator == "cramer" else log_mean_exp)(F, n, batch)

    def solve():
        est, se = estimate()
        value = float("nan") if oracle is None else oracle()
        return csv_body(("estimator", "n", "estimate", "se", "oracle", "gap"),
                        [(estimator, n, est, se, value, abs(est - value))]), EXIT_OK, {}
    return solve


def _run_bsde_lsmc(cfg):
    seed = integer_at_least(cfg, "seed", 0, "bsde-lsmc")
    g = build_generator(require(cfg, "generator", "bsde-lsmc"))
    F = build_functional(require(cfg, "functional", "bsde-lsmc"))
    n_list = positive_list(cfg, "n_list", "bsde-lsmc", default=[1])
    basis_size = integer_at_least(cfg, "basis_size", 2, "bsde-lsmc", default=35)
    batch = PathBatch(n_steps=integer_at_least(cfg, "steps", 1, "bsde-lsmc", default=50),
                      n_paths=integer_at_least(cfg, "paths", 1, "bsde-lsmc", default=100_000),
                      seed=seed)

    def solve():
        rows = []
        for n in n_list:
            # each n draws its paths from the seed offset by n's integer part
            sol = lsmc_bsde(F, g, n, replace(batch, seed=seed + math.floor(n)),
                            basis_size=basis_size)
            rows.append((n, sol.y0, sol.terminal_residual, float(sol.degree_fallbacks)))
        csv_text = csv_body(("n", "y0", "terminal_residual", "basis_fallbacks"), rows)
        return csv_text, EXIT_OK, {}
    return solve


def _run_ti_check(cfg):
    g = build_generator(require(cfg, "generator", "ti-check"))

    def solve():
        report = gen.check_ti(g)
        rows = [(name, float(ok), detail.replace(",", ";"))
                for name, (ok, detail) in report.clauses.items()]
        return csv_body(("clause", "passed", "detail"), rows), EXIT_OK, {}
    return solve


def _run_bridge_check(cfg):
    seed = integer_at_least(cfg, "seed", 0, "bridge-check")
    batch = PathBatch(n_steps=integer_at_least(cfg, "steps", 1, "bridge-check", default=512),
                      n_paths=integer_at_least(cfg, "paths", 1, "bridge-check",
                                               default=100_000), seed=seed)
    r = number(cfg, "r", "bridge-check", default=1.5)
    args = (number(cfg, "x", "bridge-check", default=0.0),
            number(cfg, "y", "bridge-check", default=1.0),
            number_at_least(cfg, "epsilon", 0.0, "bridge-check", default=0.01),
            positive_number(cfg, "delta", "bridge-check", default=1.0), r, batch)

    def solve():
        chk = bridge_moment_check(*args)
        within = chk.empirical <= chk.bound
        rows = [(r, chk.empirical, chk.standard_error, chk.bound, chk.constant, float(within))]
        csv_text = csv_body(("r", "empirical", "se", "bound", "constant", "within_bound"), rows)
        return csv_text, EXIT_OK if within else EXIT_NUMERICAL, {}
    return solve


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


def run(cfg: dict, out_dir, source: str = "<config>", *, ignorable=()) -> int:
    """Execute one experiment config; write report.csv and manifest.json.
    Read, check, then solve: the kind's runner reads a deep copy of ``cfg``,
    into which the config readers write each default they apply, and returns
    its solve.  Before that runs, a key no reader read exits 2 naming it, a
    key inside a section by its dotted path (``grid.n_t``), unless it is a
    top-level key in ``ignorable``, which is dropped from the echo (the
    CLI's ``--seed`` reaches kinds that draw no random numbers).  The
    manifest echoes and hashes the copy, and holds in ``trace`` every
    record the solve's solvers made, in call order, and the exit code.  A
    solve that raises writes no report, and removes any report and aux
    file an earlier run left in ``out_dir``; it writes only the manifest,
    with the trace made before the failure and the message under
    ``error``.  A config error found before the solve writes nothing."""
    started = time.time()
    out = Path(out_dir)
    cfg = ReadRecorder(copy.deepcopy(cfg))
    try:
        kind = choice(cfg, "kind", _RUNNERS)
        solve = _RUNNERS[kind](cfg)
        for key in cfg.unread() & set(ignorable):
            del cfg[key]
        if cfg.unread():
            names = ", ".join(sorted(repr(key) for key in cfg.unread()))
            raise ConfigError(f"unknown key {names} in {kind}: no reader of {kind} reads it")
    except ValueError as err:  # a ConfigError, or a reader rejecting its input
        print(f"{source}: configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    error = None
    with recording() as trace:
        try:
            csv_text, code, aux = solve()
        except ValueError as err:  # a solver rejecting its input
            code, error = EXIT_CONFIG, f"configuration error: {err}"
        except RuntimeError as err:
            code, error = EXIT_NUMERICAL, f"numerical failure: {err}"

    out.mkdir(parents=True, exist_ok=True)
    if error is None:
        (out / "report.csv").write_text(csv_text)
        for name, text in aux.items():
            (out / name).write_text(text)
    else:
        # an earlier run's report must not stand beside this run's manifest
        for name in ("report.csv", *_AUX_FILES):
            (out / name).unlink(missing_ok=True)
        print(f"{source}: {error}", file=sys.stderr)
    canonical = json.dumps(cfg, sort_keys=True, default=str)
    manifest = {
        "kind": kind,
        "config": cfg,
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
        "exit_code": code,
        # a failed solve's message; the trace then ends where it failed
        **({} if error is None else {"error": error}),
        "trace": trace,
    }
    # every trace value must be JSON-native: a leaked numpy array raises here
    # instead of reaching the manifest as its repr
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
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

    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.report_a, args.report_b, args.tolerance)

    try:
        cfg = load_config(args.config)
    except (OSError, ConfigError) as err:
        print(f"{args.config}: configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        cfg["seed"] = args.seed
    return run(cfg, args.output_dir, source=str(args.config),
               ignorable=() if args.seed is None else ("seed",))


if __name__ == "__main__":
    sys.exit(main())
