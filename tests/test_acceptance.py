"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single `[criterion N] PASS/FAIL` line (visible under
`pytest -s`); the assertions carry the same tolerances.
"""

import functools
import time

import numpy as np
import pytest
import yaml

from driftlab.cli import main as cli_main
from driftlab.generators import IndicatorInterval, PowerLaw, Quadratic
from driftlab.montecarlo import (
    FeedbackControl,
    PathBatch,
    bridge_moment_check,
    girsanov_lower_bound,
    log_mean_exp,
    lsmc_bsde,
    simulate_bridge,
    truncated_quadratic_moment,
)
from driftlab.pde import GridSpec, solve_semilinear, vanishing_viscosity_sweep
from driftlab.sanov import (
    MeanFieldFunctional,
    conditional_sanov_limit,
    gauss_mean,
    iterate_L,
    mean_field_limit,
)
from driftlab.schrodinger import DiscreteMeasure, small_noise_sweep
from driftlab.variational import PathPolyline, RunningMax, TerminalValue, action, maximize_schilder

QUAD = Quadratic(1.0)


def gaussian_bump(x):
    return np.exp(-((np.asarray(x, dtype=float) - 1.0) ** 2))


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:>2}] FAIL  {label}")
                raise
            print(f"[criterion {number:>2}] PASS  {label}")

        return run

    return wrap


@pytest.fixture(scope="module")
def sanov_pieces():
    grid = GridSpec(-6.0, 6.0, 241, 1)
    F_sq = MeanFieldFunctional(phi=np.tanh, Phi=lambda c: np.asarray(c) ** 2,
                               phi_bounds=(-1.0, 1.0))
    lam_grid = np.linspace(-6.0, 6.0, 241)
    limit = mean_field_limit(F_sq, QUAD, lam_grid, grid)
    return grid, F_sq, lam_grid, limit


@criterion(1, "vanishing viscosity gaps shrink to the Hopf-Lax value")
def test_criterion_01_vanishing_viscosity():
    started = time.time()
    grid = GridSpec(-6.0, 6.0, 1201, 1)
    rows, _ = vanishing_viscosity_sweep(gaussian_bump, QUAD, [4, 8, 16, 32, 64], grid)
    gaps = {n: gap for n, _, _, gap in rows}
    tail = [gaps[n] for n in (4, 8, 16, 32, 64)]
    assert all(a >= b for a, b in zip(tail, tail[1:])), f"gaps not non-increasing: {tail}"
    assert gaps[64] <= 5e-2, f"gap at n=64 is {gaps[64]:.4f}"
    # pointwise supremum oracle on a 1e-5 grid
    y = np.arange(-6.0, 6.0 + 1e-5, 1e-5)
    oracle = float(np.max(gaussian_bump(y) - 0.5 * y * y))
    assert abs(rows[0][2] - oracle) <= 1e-6
    assert time.time() - started <= 120.0


@criterion(2, "quadratic case: PDE and log-mean-exp agree within 3 SE")
def test_criterion_02_quadratic_cross_validation():
    started = time.time()
    grid = GridSpec(-8.0, 8.0, 2401, 1)
    cases = {
        "bump": gaussian_bump,
        "clipped_linear": lambda x: np.clip(0.7 * np.asarray(x, dtype=float), -1.0, 1.0),
        "constant": lambda x: np.full(np.shape(x), 3.0),
    }
    for name, f in cases.items():
        fld = solve_semilinear(f, QUAD, 1.0, grid)
        est, se = log_mean_exp(
            TerminalValue(f), 1.0, PathBatch(n_steps=8, n_paths=1_000_000, seed=202)
        )
        assert abs(fld.initial_value_at_origin - est) <= 3 * se + 1e-12, (
            f"{name}: pde={fld.initial_value_at_origin:.6f} mc={est:.6f} se={se:.2g}"
        )
    assert time.time() - started <= 60.0


@criterion(3, "interval-constrained Hamiltonian converges to the constrained sup")
def test_criterion_03_constrained_hamiltonian():
    grid = GridSpec(-6.0, 6.0, 1201, 1)
    rows, _ = vanishing_viscosity_sweep(
        gaussian_bump, IndicatorInterval(1.0), [4, 16, 64, 128], grid
    )
    y = np.arange(-1.0, 1.0 + 1e-6, 1e-6)
    constrained_sup = float(gaussian_bump(y).max())
    n, _, limit, gap = rows[-1]
    assert n == 128
    assert abs(limit - constrained_sup) <= 1e-2
    assert gap <= 1e-2


@criterion(4, "linear empirical functionals telescope through the iterated pass")
def test_criterion_04_sanov_telescoping(sanov_pieces):
    grid, _, _, _ = sanov_pieces
    F_lin = MeanFieldFunctional(phi=np.tanh, Phi=lambda c: c, phi_bounds=(-1.0, 1.0))
    fld = solve_semilinear(lambda x: np.tanh(np.asarray(x)), QUAD, 1.0, grid)
    single = fld.initial_value_at_origin
    values = [iterate_L(F_lin, QUAD, n, grid) for n in (1, 2, 4, 8)]
    assert max(values) - min(values) <= 1e-3, f"values spread: {values}"
    for v in values:
        assert abs(v - single) <= 1e-3


@criterion(5, "nonlinear empirical functional converges to the scalarized limit")
def test_criterion_05_nonlinear_sanov(sanov_pieces):
    grid, F_sq, lam_grid, limit = sanov_pieces
    gaps = [abs(iterate_L(F_sq, QUAD, n, grid) - limit) for n in (2, 4, 8, 16)]
    assert all(a > b for a, b in zip(gaps, gaps[1:])), f"gaps not decreasing: {gaps}"
    assert gaps[-1] <= 5e-2, f"final gap {gaps[-1]:.4f}"
    # the limit dominates every constant-drift lower bound
    batch = PathBatch(n_steps=16, n_paths=100_000, seed=505)
    for a in (-1.2, -0.5, 0.0, 0.5, 1.2):
        est, se = girsanov_lower_bound(
            TerminalValue(lambda x: np.tanh(np.asarray(x)), bounds=(-1, 1)),
            QUAD, FeedbackControl.constant(a), batch,
        )
        mean_stat = est + a * a / 2.0
        lower = mean_stat ** 2 - a * a / 2.0
        assert limit >= lower - 3 * se * 2 * abs(mean_stat) - 1e-4


@criterion(6, "conditional limits: continuous ladder and LSMC trend to the path oracle")
def test_criterion_06_conditional_limits(sanov_pieces):
    grid, F_sq, lam_grid, limit = sanov_pieces
    ladder = conditional_sanov_limit((0.0, 0.25, 0.5, 0.75, 1.0), F_sq, QUAD, lam_grid, grid)
    assert ladder[0] == pytest.approx(limit, abs=1e-12)
    m_p = gauss_mean(np.tanh)
    assert ladder[-1] == pytest.approx(float(m_p ** 2), abs=1e-12)
    assert np.max(np.abs(np.diff(ladder))) <= 0.05, f"ladder jumps: {ladder}"

    # LSMC for min(1, running max) walks monotonically toward the
    # deterministic path-space optimum
    F = RunningMax(lambda m: np.minimum(1.0, m), bounds=(0.0, 1.0))
    oracle = maximize_schilder(F, QUAD, m=17, restarts=8, seed=606).value
    assert oracle == pytest.approx(0.5, abs=1e-6)
    gaps = []
    for n, steps in ((1, 64), (4, 256), (16, 256)):
        sol = lsmc_bsde(F, QUAD, float(n),
                        PathBatch(n_steps=steps, n_paths=50_000, seed=600 + n))
        gaps.append(abs(sol.y0 - oracle))
    assert gaps[0] > gaps[1] > gaps[2], f"LSMC gaps not monotone: {gaps}"


@criterion(7, "mollified bridges converge to transport; raw atomic target infeasible")
def test_criterion_07_schrodinger_mollified():
    mu, nu = DiscreteMeasure.point(0.0), DiscreteMeasure.point(1.0)
    rows, _ = small_noise_sweep(mu, nu, QUAD, [0.1, 0.01, 1e-3], mollified=True)
    eps, _, ot, gap, _ = rows[0]
    assert eps == 1e-3
    assert ot == pytest.approx(0.5, abs=1e-12)
    assert gap <= 2e-2, f"gap {gap:.4f}"
    raw, _ = small_noise_sweep(mu, nu, QUAD, [0.1, 0.01, 1e-3], mollified=False)
    for _, value, _, _, feasible in raw:
        assert feasible == 0.0
        assert value == np.inf


@criterion(8, "subquadratic raw-target gaps decrease strictly along the noise ladder")
def test_criterion_08_subquadratic_unmollified():
    mu = DiscreteMeasure(support=(0.0, 2.0), weights=(0.5, 0.5))
    nu = DiscreteMeasure(support=(1.0, 3.0), weights=(0.5, 0.5))
    rows, _ = small_noise_sweep(mu, nu, PowerLaw(r=1.5, a=1.0),
                                [0.1, 0.03, 0.01], mollified=False)
    gap_at = {eps: gap for eps, _, _, gap, _ in rows}
    gaps = [gap_at[e] for e in (0.1, 0.03, 0.01)]
    assert gaps[0] > gaps[1] > gaps[2] > 0, f"gaps: {gaps}"
    assert all(feasible == 1.0 for *_, feasible in rows)


@criterion(9, "bridge drift moments obey the analytic bound; quadratic moment diverges")
def test_criterion_09_bridge_bound():
    chk = bridge_moment_check(0.0, 1.0, 0.01, 1.0, 1.5,
                              PathBatch(n_steps=512, n_paths=100_000, seed=909))
    assert chk.empirical <= chk.bound, f"{chk.empirical} > {chk.bound}"

    # conditional-Gaussian marginals
    grid = np.linspace(0.0, 1.0, 65)
    w = simulate_bridge(0.0, 1.0, 0.01, 1.0, 200_000, 910, grid)
    t = grid[32]
    se_mean = np.sqrt(0.01 * t * (1 - t) / w.shape[0])
    assert abs(w[:, 32].mean() - t) <= 3 * se_mean
    var_target = 0.01 * t * (1 - t)
    se_var = var_target * np.sqrt(2.0 / w.shape[0])
    assert abs(w[:, 32].var() - var_target) <= 3 * se_var

    # square-integrability failure of the drift
    vals = truncated_quadratic_moment(0.0, 2.0, 1.0, 1.0,
                                      [1e-1, 1e-2, 1e-3, 1e-4], 50_000, 911)
    ordered = [vals[e] for e in (1e-1, 1e-2, 1e-3, 1e-4)]
    assert all(a < b for a, b in zip(ordered, ordered[1:]))
    assert vals[1e-4] > 10.0


@criterion(10, "singular-drift action matches its closed form and stays below 16")
def test_criterion_10_singular_drift_action():
    g = PowerLaw(r=1.25, a=1.0)
    for n in (16, 256):
        t = np.linspace(0.0, 1.0, 4097)
        vals = np.where(
            t >= 1.0 / n,
            4.0 * (np.maximum(t, 1.0 / n) ** 0.25 - (1.0 / n) ** 0.25),
            0.0,
        )
        path = PathPolyline(times=t, values=vals)
        val = action(path, g)
        target = 16.0 * (1.0 - n ** (-1.0 / 16.0))
        assert abs(val - target) <= 1e-2, f"n={n}: {val} vs {target}"
        assert val <= 16.0


@criterion(11, "every feedback-drift lower bound stays below the PDE value")
def test_criterion_11_control_bounds_sound():
    fld = solve_semilinear(gaussian_bump, QUAD, 1.0, GridSpec(-8.0, 8.0, 1601, 1))
    rho = fld.initial_value_at_origin
    F = TerminalValue(gaussian_bump, bounds=(0.0, 1.0))
    batch = PathBatch(n_steps=32, n_paths=100_000, seed=1111)
    controls = [
        FeedbackControl.constant(0.0),
        FeedbackControl.constant(0.5),
        FeedbackControl.constant(1.0),
        FeedbackControl.state_feedback(lambda t, x: 1.0 - x, bound=3.0, label="pull(1)"),
        FeedbackControl.state_feedback(
            lambda t, x: 2.0 * (1.0 - x) * np.exp(-((x - 1.0) ** 2)), bound=2.0,
            label="bump_gradient",
        ),
    ]
    for ctrl in controls:
        est, se = girsanov_lower_bound(F, QUAD, ctrl, batch)
        assert est <= rho + 3 * se, f"{ctrl.label}: {est} > {rho} + 3*{se}"


@criterion(12, "identical seeds reproduce byte-identical report bodies")
def test_criterion_12_determinism(tmp_path):
    payload = {
        "kind": "mc-estimate",
        "estimator": "log-mean-exp",
        "functional": {"kind": "terminal", "f": {"kind": "gaussian_bump", "center": 1.0},
                       "bounds": [0.0, 1.0]},
        "n": 4,
        "paths": 200_000,
        "steps": 16,
        "seed": 1212,
    }
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(payload))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--config", str(cfg), "--output-dir", str(out_a)]) == 0
    assert cli_main(["run", "--config", str(cfg), "--output-dir", str(out_b)]) == 0
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()

    sweep = {
        "kind": "pde-sweep",
        "generator": {"variant": "quadratic", "c": 1.0},
        "terminal": {"kind": "gaussian_bump", "center": 1.0},
        "grid": {"x_min": -6.0, "x_max": 6.0, "nx": 601},
        "n_list": [4, 16],
        "y_step": 1e-4,
    }
    cfg2 = tmp_path / "cfg2.yaml"
    cfg2.write_text(yaml.safe_dump(sweep))
    out_c, out_d = tmp_path / "c", tmp_path / "d"
    assert cli_main(["run", "--config", str(cfg2), "--output-dir", str(out_c)]) == 0
    assert cli_main(["run", "--config", str(cfg2), "--output-dir", str(out_d)]) == 0
    assert (out_c / "report.csv").read_bytes() == (out_d / "report.csv").read_bytes()
