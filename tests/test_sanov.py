"""Collapsed iterated-PDE passes, scalarized limits, conditional variant."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from driftlab import sanov
from driftlab.generators import PowerLaw, Quadratic
from driftlab.montecarlo import FeedbackControl, PathBatch, girsanov_lower_bound
from driftlab.pde import GridSpec, solve_semilinear
from driftlab.report import recording
from driftlab.sanov import (
    MeanFieldFunctional,
    apply_L,
    conditional_sanov_limit,
    gauss_mean,
    iterate_L,
    iterate_L_partial,
    mean_field_limit,
    scalar_transport_cost,
)
from driftlab.variational import TerminalValue

QUAD = Quadratic(1.0)
GRID = GridSpec(-6.0, 6.0, 241, 1)
LAM_GRID = np.linspace(-6.0, 6.0, 241)

F_LINEAR = MeanFieldFunctional(phi=np.tanh, Phi=lambda c: c, phi_bounds=(-1.0, 1.0))
F_SQUARE = MeanFieldFunctional(
    phi=np.tanh, Phi=lambda c: np.asarray(c) ** 2, phi_bounds=(-1.0, 1.0)
)


def rho_of_tanh():
    fld = solve_semilinear(lambda x: np.tanh(np.asarray(x)), QUAD, 1.0, GRID)
    return fld.initial_value_at_origin


def _count_marches(monkeypatch):
    """Route sanov's marches through a counter; returns the list of their
    stacked row counts."""
    rows = []
    march = sanov.march_backward

    def counted_march(terminal, *args, **kwargs):
        rows.append(np.shape(terminal)[0])
        return march(terminal, *args, **kwargs)

    monkeypatch.setattr(sanov, "march_backward", counted_march)
    return rows


class TestApplyL:
    def test_state_independent_slice_passes_through(self):
        s_grid = np.linspace(-2.0, 2.0, 21)
        out = apply_L(lambda x, s: np.broadcast_to(s, np.broadcast_shapes(np.shape(x), np.shape(s))),
                      QUAD, GRID, s_grid)
        np.testing.assert_allclose(out, s_grid, atol=1e-9)

    def test_accumulator_independent_slice_is_single_pde(self):
        s_grid = np.linspace(-2.0, 2.0, 5)
        out = apply_L(lambda x, s: np.tanh(x) + 0.0 * s, QUAD, GRID, s_grid)
        np.testing.assert_allclose(out, rho_of_tanh(), atol=1e-9)

    def test_single_block_terminal_reproduces_iterate(self):
        # applying one pass to the one-block terminal Phi(s + phi(x)) at
        # s = 0 is the definition of the n = 1 value
        out = apply_L(
            lambda x, s: np.asarray(F_SQUARE.Phi(s + F_SQUARE.phi(x))),
            QUAD, GRID, np.array([0.0]),
        )
        assert float(out[0]) == pytest.approx(iterate_L(F_SQUARE, QUAD, 1, GRID), abs=1e-12)


class TestIterateL:
    def test_constant_outer_function(self):
        F = MeanFieldFunctional(phi=np.tanh, Phi=lambda c: np.full(np.shape(c), 0.7),
                                phi_bounds=(-1.0, 1.0))
        for n in (1, 3):
            assert iterate_L(F, QUAD, n, GRID) == pytest.approx(0.7, abs=1e-9)

    def test_linear_outer_telescopes(self):
        target = rho_of_tanh()
        for n in (1, 2, 4, 8):
            val = iterate_L(F_LINEAR, QUAD, n, GRID)
            assert val == pytest.approx(target, abs=1e-3)

    def test_square_outer_decreases_toward_limit(self):
        limit = mean_field_limit(F_SQUARE, QUAD, LAM_GRID, GRID)
        gaps = []
        for n in (2, 4, 8):
            gaps.append(abs(iterate_L(F_SQUARE, QUAD, n, GRID) - limit))
        assert gaps[0] > gaps[1] > gaps[2]


def _gauss_hermite_prelimit():
    """``sanov_prelimit`` of ``perfbench/oracles.py`` (numpy only), loaded by
    path and not registered anywhere."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("_sanov_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.sanov_prelimit


def linear_prelimit(F, n, grid):
    """The stage recursion on 64 n nodes per stage, read by ``np.interp``."""
    lo, hi = F.phi_bounds
    pad = 1e-9 * max(1.0, hi - lo)
    stage = lambda x, s: n * np.asarray(F.Phi((s + F.phi(x)) / n))
    for k in range(n - 1, -1, -1):
        s_grid = np.zeros(1) if k == 0 else np.linspace(k * lo - pad, k * hi + pad, 64 * n)
        vals = apply_L(stage, QUAD, grid, s_grid)
        stage = lambda x, s, s_grid=s_grid, vals=vals: np.interp(s + F.phi(x), s_grid, vals)
    return float(vals[0]) / n


F_SIN = MeanFieldFunctional(phi=np.tanh, Phi=lambda c: np.sin(4.0 * np.asarray(c)),
                            phi_bounds=(-1.0, 1.0))


class TestCubicStages:
    """Stages k < n on 33 uniform s nodes, read by cubic Hermite."""

    @pytest.mark.parametrize("F", [F_SQUARE, F_SIN], ids=["square", "sin4c"])
    @pytest.mark.parametrize("n", [2, 4])
    def test_agrees_with_the_linear_64n_recursion(self, F, n):
        cubic = iterate_L(F, QUAD, n, GRID)
        linear = linear_prelimit(F, n, GRID)
        assert cubic == pytest.approx(linear, abs=3e-5)
        # both carry the same PDE grid error against Gauss-Hermite
        ref = _gauss_hermite_prelimit()(n, 1.0, F.phi, F.Phi, F.phi_bounds)
        assert abs(cubic - ref) <= abs(linear - ref) + 3e-5

    def test_n16_marches_15_stacks_of_33_rows_and_one_row(self, monkeypatch):
        grid = GridSpec(-4.0, 4.0, 33, 1)
        rows = _count_marches(monkeypatch)
        with recording() as trace:
            iterate_L(F_SQUARE, QUAD, 16, grid)
        assert rows == [33] * 15 + [1]
        *marches, record = trace
        assert (record["solver"], record["n"], record["s_points"]) == ("iterate_L", 16, 33)
        assert [m["rows"] for m in marches] == rows
        assert all(isinstance(m["nt"], int) and m["nt"] >= 1 for m in marches)

    @pytest.mark.parametrize("s_points", [2, 3, 4])
    def test_fewer_than_five_nodes_rejected(self, s_points):
        with pytest.raises(ValueError, match="s_points"):
            iterate_L(F_SQUARE, QUAD, 2, GRID, s_points=s_points)

    def test_read_reproduces_a_cubic_and_clamps_outside(self):
        nodes = np.linspace(-1.0, 2.0, 7)
        cubic = lambda s: 0.5 * s ** 3 - s ** 2 + 3.0 * s - 1.0
        read = sanov._cubic_read(nodes, cubic(nodes))
        s = np.linspace(-1.0, 2.0, 101)
        np.testing.assert_allclose(read(s), cubic(s), atol=1e-12)
        assert read(np.array([-3.0]))[0] == cubic(-1.0)
        assert read(np.array([5.0]))[0] == cubic(2.0)


class TestPhiBounds:
    @pytest.mark.parametrize("solve", [
        lambda F: iterate_L(F, QUAD, 2, GRID),
        lambda F: mean_field_limit(F, QUAD, LAM_GRID, GRID),
        lambda F: conditional_sanov_limit([0.5, 1.0], F, QUAD, LAM_GRID, GRID),
    ], ids=["iterate", "limit", "conditional"])
    def test_bounds_missing_phi_values_rejected_before_any_march(self, monkeypatch, solve):
        # tanh reaches 0.99998 on GRID; interpolation would clamp it to 0.2
        F = MeanFieldFunctional(phi=np.tanh, Phi=F_SQUARE.Phi, phi_bounds=(-0.2, 0.2))

        def no_march(*args, **kwargs):
            raise AssertionError("marched")

        monkeypatch.setattr(sanov, "march_backward", no_march)
        with pytest.raises(ValueError, match="phi_bounds"):
            solve(F)


class TestMeanFieldLimit:
    def test_identity_outer_collapses_to_single_pde(self):
        val = mean_field_limit(F_LINEAR, QUAD, LAM_GRID, GRID)
        assert val == pytest.approx(rho_of_tanh(), abs=5e-3)

    def test_constant_outer(self):
        F = MeanFieldFunctional(phi=np.tanh, Phi=lambda c: np.full(np.shape(c), 0.25),
                                phi_bounds=(-1.0, 1.0))
        assert mean_field_limit(F, QUAD, LAM_GRID, GRID) == pytest.approx(0.25, abs=1e-9)

    def test_scalar_cost_convex(self):
        # rho is convex, so c = rho'(lambda) runs up the curve
        curve = scalar_transport_cost(QUAD, np.tanh, LAM_GRID, GRID)
        assert np.diff(curve.c).min() >= 0.0
        assert np.diff(curve.lam).min() > 0.0

    def test_dominates_constant_drift_bounds(self):
        limit = mean_field_limit(F_SQUARE, QUAD, LAM_GRID, GRID)
        batch = PathBatch(n_steps=16, n_paths=100_000, seed=51)
        for a in (-1.0, -0.3, 0.0, 0.4, 1.2):
            # F(law of W + a t) - cost(a), estimated by Monte Carlo through
            # the scalar statistic
            est, se = girsanov_lower_bound(
                TerminalValue(lambda x: np.tanh(np.asarray(x)), bounds=(-1, 1)),
                QUAD, FeedbackControl.constant(a), batch,
            )
            mean_stat = est + a * a / 2.0  # recover E tanh(W1 + a)
            lower = mean_stat ** 2 - a * a / 2.0
            assert limit >= lower - 3 * se * 2 * abs(mean_stat) - 1e-4


def brute_force_limit(Phi, lam, rho, c):
    """sup over the c nodes of Phi(c) - max over the lambda nodes of
    (lambda c - rho(lambda)): the grid conjugate, in chunks of c."""
    best = -np.inf
    for chunk in np.array_split(c, 16):
        cost = np.max(chunk[:, None] * lam[None, :] - rho[None, :], axis=1)
        best = max(best, float(np.max(Phi(chunk) - cost)))
    return best


class TestLambdaParametrisedLimit:
    SMALL = GridSpec(-6.0, 6.0, 81, 1)
    OUTER = {"c": lambda c: c, "c^2": lambda c: c * c, "sin 4c": lambda c: np.sin(4.0 * c),
             "-c^2": lambda c: -c * c}

    @pytest.mark.parametrize("g", [QUAD, PowerLaw(r=1.5, a=1.0)], ids=["quadratic", "power"])
    def test_agrees_with_brute_force_conjugate_of_the_same_rho(self, g):
        # the 33 rows are every 50th row of the fine stack, which marches
        # the same number of steps, so both conjugate one rho
        fine = np.linspace(-6.0, 6.0, 1601)
        rho = apply_L(lambda x, s: s * np.tanh(x), g, self.SMALL, fine)
        c = np.linspace(-1.0, 1.0, 8001)
        for name, Phi in self.OUTER.items():
            F = MeanFieldFunctional(phi=np.tanh, Phi=Phi, phi_bounds=(-1.0, 1.0))
            limit = mean_field_limit(F, g, np.linspace(-6.0, 6.0, 33), self.SMALL)
            assert limit == pytest.approx(brute_force_limit(Phi, fine, rho, c), abs=5e-5), name

    @pytest.mark.parametrize("rows", [33, 241])
    def test_criterion_5_limit_is_zero(self, rows):
        # C(c) > c^2 away from the free statistic c = 0, where both vanish
        with recording() as trace:
            limit = mean_field_limit(F_SQUARE, QUAD, np.linspace(-6.0, 6.0, rows), GRID)
        _, record = trace
        assert record["limit"] == limit == pytest.approx(0.0, abs=1e-12)
        assert record["lambda_star"] == 0.0 and not record["at_edge"]
        assert record["c_range"][0] < 0.0 < record["c_range"][1]

    def test_at_edge_when_the_max_leaves_the_window(self):
        # 3 c^2 outgrows C(c) ~ c^2 / 0.79, so the sup lies past lambda = +-1
        F = MeanFieldFunctional(phi=np.tanh, Phi=lambda c: 3.0 * np.asarray(c) ** 2,
                                phi_bounds=(-1.0, 1.0))
        with recording() as trace:
            mean_field_limit(F, QUAD, np.linspace(-1.0, 1.0, 9), GRID)
        march, record = trace
        assert record["at_edge"]
        assert abs(record["lambda_star"]) == 1.0
        assert march["rows"] == 9 and march["nt"] >= GRID.nt

    def test_rejects_a_grid_without_five_uniform_nodes(self):
        for lam in (np.linspace(-1.0, 1.0, 4), np.array([-1.0, -0.5, 0.0, 0.2, 1.0])):
            with pytest.raises(ValueError, match="uniform lambda grid"):
                scalar_transport_cost(QUAD, np.tanh, lam, GRID)


class TestConditionalLimit:
    def test_endpoints(self):
        limit = mean_field_limit(F_SQUARE, QUAD, LAM_GRID, GRID)
        at_zero, at_one = conditional_sanov_limit([0.0, 1.0], F_SQUARE, QUAD, LAM_GRID, GRID)
        assert at_zero == pytest.approx(limit, abs=1e-12)
        m_p = gauss_mean(np.tanh)
        assert at_one == pytest.approx(float(m_p ** 2), abs=1e-12)

    def test_continuity_on_ladder(self):
        vals = conditional_sanov_limit((0.0, 0.25, 0.5, 0.75, 1.0), F_SQUARE, QUAD,
                                       LAM_GRID, GRID)
        jumps = np.abs(np.diff(vals))
        assert jumps.max() <= 0.05

    def test_five_point_ladder_marches_once(self, monkeypatch):
        rows = _count_marches(monkeypatch)
        vals = conditional_sanov_limit((0.0, 0.25, 0.5, 0.75, 1.0), F_SQUARE, QUAD,
                                       LAM_GRID, GRID)
        assert rows == [LAM_GRID.size]
        assert len(vals) == 5

    def test_ladder_of_only_t_one_makes_no_march(self, monkeypatch):
        rows = _count_marches(monkeypatch)
        vals = conditional_sanov_limit([1.0, 1.0], F_SQUARE, QUAD, LAM_GRID, GRID)
        assert rows == []
        assert vals == [float(gauss_mean(np.tanh) ** 2)] * 2

    @pytest.mark.parametrize("ts", [[0.5, -0.1], [1.5]])
    def test_rejects_a_share_outside_the_unit_interval(self, ts):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            conditional_sanov_limit(ts, F_SQUARE, QUAD, LAM_GRID, GRID)

    def test_midpoint_against_partial_pass_monte_carlo(self):
        # pre-limit oracle: stage values of the n = 8 pass frozen at its
        # fourth block, averaged over simulated first-half statistics
        n, k = 8, 4
        s_grid, stage_vals = iterate_L_partial(F_SQUARE, QUAD, n, k, GRID)
        rng = np.random.default_rng(123)
        z = rng.standard_normal((20_000, k))
        s_samples = np.tanh(z).sum(axis=1)
        mc = float(np.mean(np.interp(s_samples, s_grid, stage_vals))) / n
        [limit] = conditional_sanov_limit([0.5], F_SQUARE, QUAD, LAM_GRID, GRID)
        # n = 8 still carries its pre-limit fluctuation premium
        assert mc == pytest.approx(limit, abs=0.1)
        assert mc >= limit - 1e-9


class TestGaussMean:
    def test_odd_function_vanishes(self):
        assert gauss_mean(np.tanh) == pytest.approx(0.0, abs=1e-15)

    def test_square(self):
        assert gauss_mean(lambda z: z * z) == pytest.approx(1.0, abs=1e-10)
