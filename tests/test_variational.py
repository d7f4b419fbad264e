"""Path polylines, drift actions, and the multistart path maximizer."""

import numpy as np
import pytest

from driftlab.generators import IndicatorInterval, PowerLaw, Quadratic, TimeModulated
from driftlab.pde import hopf_lax
from driftlab.variational import (
    PathPolyline,
    RunningMax,
    TerminalValue,
    TimeIntegral,
    action,
    conditional_value,
    evaluate_functional,
    maximize_schilder,
)

QUAD = Quadratic(1.0)


def gaussian_bump(x):
    return np.exp(-((np.asarray(x, dtype=float) - 1.0) ** 2))


def truncated_singular_drift_path(n, knots=4097):
    """Polyline with slope t^(-3/4) cut off below 1/n, started at 0."""
    t = np.linspace(0.0, 1.0, knots)
    vals = np.where(
        t >= 1.0 / n,
        4.0 * (np.maximum(t, 1.0 / n) ** 0.25 - (1.0 / n) ** 0.25),
        0.0,
    )
    return PathPolyline(times=t, values=vals)


class TestPathPolyline:
    def test_validation(self):
        with pytest.raises(ValueError, match="start at 0"):
            PathPolyline(times=np.array([0.1, 1.0]), values=np.zeros(2))
        with pytest.raises(ValueError, match="increasing"):
            PathPolyline(times=np.array([0.0, 0.5, 0.5]), values=np.zeros(3))

    def test_interpolation(self):
        p = PathPolyline.straight(2.0, knots=3)
        assert p.at(0.25) == pytest.approx(0.5)
        np.testing.assert_allclose(p.slopes(), 2.0)


class TestAction:
    def test_straight_line_quadratic(self):
        p = PathPolyline.straight(2.0)
        assert action(p, QUAD) == pytest.approx(2.0)

    def test_indicator_domain_violation(self):
        p = PathPolyline(times=np.array([0.0, 0.5, 1.0]), values=np.array([0.0, 0.75, 0.5]))
        assert action(p, IndicatorInterval(1.0)) == np.inf
        p_ok = PathPolyline(times=np.array([0.0, 0.5, 1.0]), values=np.array([0.0, 0.4, 0.5]))
        assert action(p_ok, IndicatorInterval(1.0)) == 0.0

    def test_singular_drift_action_closed_form(self):
        # slope t^(-3/4) truncated at 1/16 under g = |q|^(5/4): the action is
        # the integral of t^(-15/16) over (1/16, 1], namely 16 (1 - 16^(-1/16))
        path = truncated_singular_drift_path(16)
        val = action(path, PowerLaw(r=1.25, a=1.0))
        assert val == pytest.approx(16.0 * (1.0 - 16.0 ** (-1.0 / 16.0)), abs=1e-2)
        assert val <= 16.0

    def test_time_modulated_quadrature(self):
        # w(t) = 1 + t, slope 2: integral of (1+t) * 2 dt = 3 -> times slope^2/2
        g = TimeModulated(base=QUAD, weights=(1.0, 2.0))
        p = PathPolyline.straight(2.0)
        assert action(p, g) == pytest.approx(2.0 * 1.5)


class TestEvaluateFunctional:
    def test_terminal_batch(self):
        F = TerminalValue(lambda x: x * x)
        times = np.linspace(0, 1, 5)
        vals = np.arange(10.0).reshape(2, 5)
        np.testing.assert_allclose(evaluate_functional(F, times, vals), [16.0, 81.0])

    def test_running_max(self):
        F = RunningMax(lambda m: np.minimum(1.0, m))
        times = np.linspace(0, 1, 3)
        assert evaluate_functional(F, times, np.array([0.0, 2.0, -1.0])) == 1.0

    def test_time_integral_exact_on_linear_path(self):
        # h(t, x) = x on the straight line to 1: integral = 1/2
        F = TimeIntegral(lambda t, x: x)
        p = PathPolyline.straight(1.0, knots=9)
        assert evaluate_functional(F, p.times, p.values) == pytest.approx(0.5, abs=1e-12)


class TestMaximize:
    def test_terminal_matches_hopf_lax(self):
        res = maximize_schilder(TerminalValue(gaussian_bump, bounds=(0, 1)), QUAD,
                                m=17, restarts=8, seed=1)
        y = np.arange(-6.0, 6.0, 1e-5)
        target = hopf_lax(gaussian_bump, QUAD, 0.0, 0.0, y)
        assert res.value == pytest.approx(target, abs=1e-3)

    def test_negative_quadratic_integral_optimum_zero(self):
        F = TimeIntegral(lambda t, x: -(x * x), bounds=(-100, 0))
        res = maximize_schilder(F, QUAD, m=9, restarts=4, seed=2)
        assert res.value == pytest.approx(0.0, abs=1e-6)
        np.testing.assert_allclose(res.path.values, 0.0, atol=1e-4)

    def test_terminal_reduction_to_pointwise_sup(self):
        # for terminal F and time-independent g the optimum is
        # sup_x (h(x) - g(x)); independent 1-D grid search oracle
        h = lambda x: np.tanh(np.asarray(x, dtype=float))
        x = np.arange(-8.0, 8.0, 1e-4)
        target = float(np.max(h(x) - 0.5 * x * x))
        res = maximize_schilder(TerminalValue(h, bounds=(-1, 1)), QUAD,
                                m=9, restarts=6, seed=3)
        assert res.value == pytest.approx(target, abs=1e-3)

    def test_lower_bound_soundness(self):
        res = maximize_schilder(TerminalValue(gaussian_bump, bounds=(0, 1)), QUAD,
                                m=9, restarts=4, seed=5)
        recomputed = float(
            evaluate_functional(TerminalValue(gaussian_bump), res.path.times, res.path.values)
        ) - action(res.path, QUAD)
        assert res.value == pytest.approx(recomputed, abs=1e-12)

    def test_refinement_monotonicity(self):
        F = TerminalValue(gaussian_bump, bounds=(0, 1))
        coarse = maximize_schilder(F, QUAD, m=5, restarts=4, seed=7)
        fine = maximize_schilder(F, QUAD, m=9, restarts=4, seed=7)
        assert fine.value >= coarse.value - 1e-8

    def test_indicator_projects_slopes(self):
        F = TerminalValue(lambda x: np.asarray(x, dtype=float), bounds=(-5, 5))
        res = maximize_schilder(F, IndicatorInterval(1.0), m=9, restarts=4, seed=8)
        assert np.all(np.abs(res.path.slopes()) <= 1.0 + 1e-9)
        # best reachable endpoint is 1 at zero cost
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_rejects_too_few_knots_or_restarts(self):
        F = TerminalValue(gaussian_bump, bounds=(0, 1))
        with pytest.raises(ValueError, match="knots"):
            maximize_schilder(F, QUAD, m=1)
        # zero restarts left no result to pick and raised an IndexError
        with pytest.raises(ValueError, match="restart"):
            maximize_schilder(F, QUAD, restarts=0)
        with pytest.raises(ValueError, match="restart"):
            conditional_value(F, QUAD, 0.5, restarts=0)

    def test_running_max_clipped(self):
        F = RunningMax(lambda m: np.minimum(1.0, m), bounds=(0, 1))
        res = maximize_schilder(F, QUAD, m=17, restarts=8, seed=4)
        assert res.value == pytest.approx(0.5, abs=1e-6)


class TestConditionalValue:
    def test_t_zero_equals_maximize(self):
        F = TerminalValue(gaussian_bump, bounds=(0, 1))
        res = maximize_schilder(F, QUAD, m=17, restarts=8, seed=1)
        val = conditional_value(F, QUAD, 0.0, m=17, restarts=8, seed=1)
        assert val == res.value

    def test_t_one_returns_prefix_value(self):
        prefix = PathPolyline(times=np.array([0.0, 1.0]), values=np.array([0.0, 0.9]))
        val = conditional_value(TerminalValue(gaussian_bump), QUAD, 1.0, prefix)
        assert val == pytest.approx(float(gaussian_bump(0.9)))

    def test_midpoint_matches_hopf_lax(self):
        F = TerminalValue(gaussian_bump, bounds=(0, 1))
        val = conditional_value(F, QUAD, 0.5, m=9, restarts=6, seed=3)
        y = np.arange(-6.0, 6.0, 1e-5)
        target = hopf_lax(gaussian_bump, QUAD, 0.5, 0.0, y)
        assert val == pytest.approx(target, abs=1e-3)

    def test_nonzero_prefix_shifts_start(self):
        prefix = PathPolyline(times=np.array([0.0, 0.5]), values=np.array([0.0, 0.8]))
        F = TerminalValue(gaussian_bump, bounds=(0, 1))
        val = conditional_value(F, QUAD, 0.5, prefix, m=9, restarts=6, seed=3)
        y = np.arange(-6.0, 6.0, 1e-5)
        target = hopf_lax(gaussian_bump, QUAD, 0.5, 0.8, y)
        assert val == pytest.approx(target, abs=1e-3)
