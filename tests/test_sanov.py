"""Collapsed iterated-PDE passes, scalarized limits, conditional variant."""

import numpy as np
import pytest

from driftlab import sanov
from driftlab.generators import Quadratic
from driftlab.montecarlo import FeedbackControl, PathBatch, girsanov_lower_bound
from driftlab.pde import GridSpec, solve_semilinear
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
C_GRID = np.linspace(-1.0, 1.0, 401)
LAM_GRID = np.linspace(-6.0, 6.0, 241)

F_LINEAR = MeanFieldFunctional(phi=np.tanh, Phi=lambda c: c, phi_bounds=(-1.0, 1.0))
F_SQUARE = MeanFieldFunctional(
    phi=np.tanh, Phi=lambda c: np.asarray(c) ** 2, phi_bounds=(-1.0, 1.0)
)


def rho_of_tanh():
    fld = solve_semilinear(lambda x: np.tanh(np.asarray(x)), QUAD, 1.0, GRID)
    return fld.initial_value_at_origin


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

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            iterate_L(F_LINEAR, QUAD, 32, GRID)

    def test_square_outer_decreases_toward_limit(self):
        limit = mean_field_limit(F_SQUARE, QUAD, C_GRID, LAM_GRID, GRID)
        gaps = []
        for n in (2, 4, 8):
            gaps.append(abs(iterate_L(F_SQUARE, QUAD, n, GRID) - limit))
        assert gaps[0] > gaps[1] > gaps[2]


class TestPhiBounds:
    @pytest.mark.parametrize("solve", [
        lambda F: iterate_L(F, QUAD, 2, GRID),
        lambda F: mean_field_limit(F, QUAD, C_GRID, LAM_GRID, GRID),
    ], ids=["iterate", "limit"])
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
        val = mean_field_limit(F_LINEAR, QUAD, C_GRID, LAM_GRID, GRID)
        assert val == pytest.approx(rho_of_tanh(), abs=5e-3)

    def test_constant_outer(self):
        F = MeanFieldFunctional(phi=np.tanh, Phi=lambda c: np.full(np.shape(c), 0.25),
                                phi_bounds=(-1.0, 1.0))
        assert mean_field_limit(F, QUAD, C_GRID, LAM_GRID, GRID) == pytest.approx(0.25, abs=1e-9)

    def test_scalar_cost_convex(self):
        cost = scalar_transport_cost(QUAD, np.tanh, C_GRID, LAM_GRID, GRID)
        second = np.diff(cost, 2)
        assert second.min() >= -1e-8

    def test_dominates_constant_drift_bounds(self):
        limit = mean_field_limit(F_SQUARE, QUAD, C_GRID, LAM_GRID, GRID)
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


class TestConditionalLimit:
    def test_endpoints(self):
        limit = mean_field_limit(F_SQUARE, QUAD, C_GRID, LAM_GRID, GRID)
        at_zero = conditional_sanov_limit(0.0, F_SQUARE, QUAD, C_GRID, LAM_GRID, GRID)
        at_one = conditional_sanov_limit(1.0, F_SQUARE, QUAD, C_GRID, LAM_GRID, GRID)
        assert at_zero == pytest.approx(limit, abs=1e-12)
        m_p = gauss_mean(np.tanh)
        assert at_one == pytest.approx(float(m_p ** 2), abs=1e-12)

    def test_continuity_on_ladder(self):
        vals = [
            conditional_sanov_limit(t, F_SQUARE, QUAD, C_GRID, LAM_GRID, GRID)
            for t in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        jumps = np.abs(np.diff(vals))
        assert jumps.max() <= 0.05

    def test_midpoint_against_partial_pass_monte_carlo(self):
        # pre-limit oracle: stage values of the n = 8 pass frozen at its
        # fourth block, averaged over simulated first-half statistics
        n, k = 8, 4
        s_grid, stage_vals = iterate_L_partial(F_SQUARE, QUAD, n, k, GRID)
        rng = np.random.default_rng(123)
        z = rng.standard_normal((20_000, k))
        s_samples = np.tanh(z).sum(axis=1)
        mc = float(np.mean(np.interp(s_samples, s_grid, stage_vals))) / n
        limit = conditional_sanov_limit(0.5, F_SQUARE, QUAD, C_GRID, LAM_GRID, GRID)
        # n = 8 still carries its pre-limit fluctuation premium
        assert mc == pytest.approx(limit, abs=0.1)
        assert mc >= limit - 1e-9


class TestGaussMean:
    def test_odd_function_vanishes(self):
        assert gauss_mean(np.tanh) == pytest.approx(0.0, abs=1e-15)

    def test_square(self):
        assert gauss_mean(lambda z: z * z) == pytest.approx(1.0, abs=1e-10)
