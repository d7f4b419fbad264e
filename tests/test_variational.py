"""Path polylines, drift actions, and the multistart path maximizer."""

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.optimize._numdiff import approx_derivative

from driftlab import variational
from driftlab.config import build_functional
from driftlab.generators import (
    IndicatorInterval,
    PowerLaw,
    Quadratic,
    Tabulated,
    TimeModulated,
    is_time_dependent,
)
from driftlab.pde import hopf_lax
from driftlab.variational import (
    PathPolyline,
    RunningMax,
    TerminalValue,
    TimeIntegral,
    _forward_steps,
    _optimize_tail,
    _Tail,
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

    def test_one_point_prefix_at_zero_keeps_its_value(self):
        # the tail starts where the prefix stands: staying at 0.5 costs nothing
        # and earns F = 0, where a restart from 0 reaches only -1/8
        F = TerminalValue(lambda x: -np.abs(np.asarray(x, dtype=float) - 0.5))
        prefix = PathPolyline(times=np.array([0.0]), values=np.array([0.5]))
        val = conditional_value(F, QUAD, 0.0, prefix, m=9, restarts=4, seed=1)
        assert val == pytest.approx(0.0, abs=1e-9)
        assert conditional_value(F, QUAD, 0.0, m=9, restarts=4, seed=1) == pytest.approx(
            -0.125, abs=1e-9)


# ---------------------------------------------------------------------------
# Batched objective and forward-difference gradient
# ---------------------------------------------------------------------------

_Q41 = np.linspace(-3.0, 3.0, 41)
TABLE = Tabulated(q=tuple(_Q41), g=tuple(0.5 * _Q41 ** 2 + 0.1 * np.abs(_Q41) ** 3))

COSTS = {
    "quadratic": QUAD,
    "power": PowerLaw(r=1.5, a=0.7),
    "indicator": IndicatorInterval(1.0),
    "tabulated": TABLE,
    "modulated": TimeModulated(base=QUAD, weights=(1.0, 2.0, 0.5)),
    "modulated-tabulated": TimeModulated(base=TABLE, weights=(0.8, 1.3)),
}


def product_bump(x):
    # z * z rather than z ** 2: numpy rounds a float64 scalar's ``**`` through
    # libm pow, which can differ in the last bit from its array loop, so a
    # scalar evaluation and a batch row agree only for F without ``**``
    z = np.asarray(x, dtype=float) - 1.0
    return np.exp(-(z * z))


def _marginals(k):
    return build_functional({"kind": "finite_marginals", "f": "tanh",
                             "times": [float(t) for t in np.linspace(0.1, 1.0, k)]})


# name -> (functional, knots); the time integral is Gauss-Legendre below 65
# path knots and the trapezoid rule from 65 on
FUNCTIONALS = {
    "terminal": (TerminalValue(product_bump, bounds=(0, 1)), 9),
    "running-max": (RunningMax(lambda m: np.minimum(1.0, m), bounds=(0, 1)), 9),
    "time-integral": (TimeIntegral(lambda t, x: np.sin(x) - 0.3 * t * x), 9),
    "time-integral-trapezoid": (TimeIntegral(lambda t, x: np.sin(x) - 0.3 * t * x), 70),
    "marginals-3": (_marginals(3), 9),
    "marginals-9": (_marginals(9), 9),
}

PREFIX = PathPolyline(times=np.array([0.0, 0.2, 0.4]), values=np.array([0.0, 0.3, 0.1]))
ZERO = PathPolyline.zero(end_time=0.0)


def _tail(functional, cost, prefixed):
    F, m = FUNCTIONALS[functional]
    if prefixed:
        return _Tail(F, COSTS[cost], PREFIX, 0.4, m)
    return _Tail(F, COSTS[cost], ZERO, 0.0, m)


def scalar_value(tail, increments):
    """F minus the tail action of one increment row, evaluated as one 1-D path
    with the action summed segment by segment: the reference for a batch row."""
    v = tail.start_value + np.concatenate([[0.0], np.cumsum(increments)])
    if tail.spliced:
        v = np.concatenate([tail.prefix.values, v[1:]])
    fval = float(evaluate_functional(tail.F, tail.times, v))
    slopes = increments / tail.seg
    if not is_time_dependent(tail.g):
        return fval - float(np.sum(tail.seg * tail.g.cost(0.0, slopes)))
    total = 0.0
    half = 0.5 * tail.seg
    mid = tail.tail_times[:-1] + half
    for xi, wi in zip(*np.polynomial.legendre.leggauss(8)):
        total += float(np.sum(wi * half * tail.g.cost(mid + xi * half, slopes)))
    return fval - total


def reference_ascent(tail, x0, max_iter, maxfun=15000):
    """L-BFGS-B on the scalar objective with scipy's own forward differences."""
    return minimize(lambda x: -scalar_value(tail, x), x0, method="L-BFGS-B",
                    bounds=list(zip(tail.lower, tail.upper)),
                    options={"maxiter": max_iter, "maxfun": maxfun, "ftol": 1e-14,
                             "gtol": 1e-12})


def reference_tail(F, g, prefix, t0, m, restarts, seed, max_iter):
    """The multistart ascent with one scalar objective call per point: the
    endpoint scan one target at a time and scipy's finite differences.
    Returns (best value, best path values, converged, each restart's value)."""
    tail = _Tail(F, g, prefix, t0, m)
    n, s0 = tail.n, tail.start_value
    targets = np.linspace(s0 + tail.box[0] * tail.horizon, s0 + tail.box[1] * tail.horizon, 257)
    scored = sorted(((scalar_value(tail, np.full(n, (b - s0) / n)), b) for b in targets),
                    key=lambda p: -p[0])
    seeds = [b for _, b in scored[: max(1, (restarts + 1) // 2)]]
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x5EED)))
    results = []
    for i in range(restarts):
        inc = np.full(n, (seeds[i % len(seeds)] - s0) / n)
        if i >= len(seeds):
            inc = inc + rng.normal(scale=0.3 * tail.horizon / np.sqrt(n), size=n)
        res = reference_ascent(tail, np.clip(inc, tail.lower, tail.upper), max_iter)
        results.append((scalar_value(tail, res.x), i, res.x, res.status != 1))
    values = [r[0] for r in results]
    value, _, x, converged = sorted(results, key=lambda r: (-r[0], r[1]))[0]
    return value, tail.assemble(x[None])[0], converged, values


class TestBatchedObjective:
    @pytest.mark.parametrize("prefixed", [False, True], ids=["from-zero", "prefix"])
    @pytest.mark.parametrize("cost", list(COSTS))
    @pytest.mark.parametrize("functional", list(FUNCTIONALS))
    def test_rows_equal_scalar_evaluations(self, functional, cost, prefixed):
        tail = _tail(functional, cost, prefixed)
        rng = np.random.default_rng(11)
        rows = rng.uniform(tail.lower, tail.upper, (9, tail.n))
        rows[0], rows[1], rows[2] = tail.lower, tail.upper, 0.0
        batched = tail.values(rows)
        assert batched.shape == (9,)
        np.testing.assert_array_equal(batched, [scalar_value(tail, r) for r in rows])

    @pytest.mark.parametrize("F", [
        TerminalValue(gaussian_bump),
        TerminalValue(lambda x: np.abs(np.asarray(x, dtype=float)) ** 1.5),
        build_functional({"kind": "finite_marginals", "times": [0.3, 0.6, 1.0],
                          "f": {"kind": "gaussian_bump", "center": 1.0}}),
    ], ids=["square", "power-1.5", "config-bump-marginals"])
    def test_rows_with_scalar_power_agree_to_rounding(self, F):
        # numpy rounds a float64 scalar's ``**`` through libm pow and an
        # array's through its own loop: a row may differ from the path
        # evaluated alone by a last-bit rounding of F, never more
        tail = _Tail(F, QUAD, ZERO, 0.0, 9)
        rows = np.random.default_rng(2).uniform(tail.lower, tail.upper, (2000, tail.n)) * 0.2
        scalar = np.array([scalar_value(tail, r) for r in rows])
        np.testing.assert_allclose(tail.values(rows), scalar, rtol=0.0,
                                   atol=4 * np.finfo(float).eps)

    def test_marginal_mean_of_a_batch_row_is_the_path_mean(self):
        # 9 marginals average in the same order for a batch row as for a path
        F = build_functional({"kind": "finite_marginals", "f": "identity",
                              "times": [float(t) for t in np.linspace(0.1, 1.0, 9)]})
        times = np.linspace(0.0, 1.0, 11)
        paths = np.random.default_rng(3).normal(size=(64, 11)).cumsum(axis=1)
        np.testing.assert_array_equal(evaluate_functional(F, times, paths),
                                      [evaluate_functional(F, times, p) for p in paths])


class TestForwardDifferences:
    @staticmethod
    def scipy_probes(x, lower, upper):
        """The points scipy's 2-point rule evaluates, x + h_i in entry i."""
        seen = []
        approx_derivative(lambda z: seen.append(z.copy()) or 0.0, x, method="2-point",
                          abs_step=1e-8, bounds=(lower, upper), f0=0.0)
        return np.array([z[i] for i, z in enumerate(seen)])

    @pytest.mark.parametrize("case", ["interior", "near-bound", "on-bound", "narrow-box",
                                      "huge-entries", "unbounded"])
    def test_steps_are_scipys(self, case):
        lower, upper = np.full(6, -1.0), np.full(6, 2.0)
        x = np.array([0.3, -0.7, 1.1, 0.0, -0.0, 1.9])
        if case == "near-bound":
            x = np.array([2.0 - 5e-9, -1.0 + 3e-9, 2.0 - 1e-8, -1.0 + 1e-8, 0.5, 2.0 - 2e-8])
        elif case == "on-bound":
            x = np.array([2.0, -1.0, 2.0, -1.0, 0.0, 2.0])
        elif case == "narrow-box":
            # the step fits on neither side: scipy steps to the farther
            # bound, and forward at the centre
            lower, upper = np.full(6, -4e-9), np.full(6, 4e-9)
            x = np.array([-4e-9, 4e-9, 0.0, 1e-9, -1e-9, -0.0])
        elif case == "huge-entries":
            # x + 1e-8 == x: the relative step sqrt(eps) max(1, |x|) instead
            lower, upper = np.full(6, -1e12), np.full(6, 1e12)
            x = np.array([3e9, -3e9, 1e12, -1e12, 0.5, 7e8])
        elif case == "unbounded":
            lower, upper = np.full(6, -np.inf), np.full(6, np.inf)
        probes = x + _forward_steps(x, lower, upper)
        np.testing.assert_array_equal(probes, self.scipy_probes(x, lower, upper))

    @pytest.mark.parametrize("where", ["interior", "near-bound", "on-bound"])
    @pytest.mark.parametrize("cost", ["quadratic", "tabulated", "modulated", "indicator"])
    @pytest.mark.parametrize("functional", ["terminal", "time-integral", "marginals-9"])
    def test_gradient_is_scipys(self, functional, cost, where):
        tail = _tail(functional, cost, prefixed=functional == "time-integral")
        x = np.random.default_rng(5).uniform(tail.lower, tail.upper) * 0.5
        if where == "near-bound":
            x[::2] = tail.upper[::2] - 4e-9
            x[1::2] = tail.lower[1::2] + 1e-8
        elif where == "on-bound":
            x[::2] = tail.upper[::2]
            x[1::2] = tail.lower[1::2]
        loss, grad = tail.loss_and_grad(x)
        assert loss == -scalar_value(tail, x)
        expected = approx_derivative(lambda z: -scalar_value(tail, z), x, method="2-point",
                                     abs_step=1e-8, bounds=(tail.lower, tail.upper))
        np.testing.assert_array_equal(grad, expected)


class TestBatchedAscent:
    @pytest.mark.parametrize("cap", [40, 100, 173])
    def test_point_cap_stops_where_the_evaluation_cap_did(self, cap):
        # scipy counts n + 1 evaluations a point with its own differences and
        # one with a handed-in gradient: cap // (n + 1) points stop at the
        # same point as cap evaluations
        tail = _tail("terminal", "quadratic", prefixed=False)
        x0 = np.full(tail.n, 0.05)
        ref = reference_ascent(tail, x0, max_iter=400, maxfun=cap)
        res = minimize(tail.loss_and_grad, x0, jac=True, method="L-BFGS-B",
                       bounds=list(zip(tail.lower, tail.upper)),
                       options={"maxiter": 400, "maxfun": cap // (tail.n + 1),
                                "ftol": 1e-14, "gtol": 1e-12})
        assert res.x.tobytes() == ref.x.tobytes()
        assert (res.status, res.nit) == (ref.status, ref.nit)
        assert ref.nfev == res.nfev * (tail.n + 1)

    def test_ascent_caps_points_at_the_default_evaluation_cap(self, monkeypatch):
        import scipy.optimize

        seen = []
        inner = scipy.optimize.minimize

        def recorded(*args, **kwargs):
            seen.append(kwargs)
            return inner(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", recorded)
        maximize_schilder(TerminalValue(product_bump), QUAD, m=17, restarts=2, seed=1,
                          max_iter=7)
        assert [kw["options"]["maxfun"] for kw in seen] == [15000 // 17] * 2
        assert all(kw["jac"] is True and kw["options"]["maxiter"] == 7 for kw in seen)

    @pytest.mark.parametrize("functional, cost, prefixed, max_iter", [
        ("terminal", "quadratic", False, 400),
        ("running-max", "tabulated", False, 400),
        ("time-integral", "modulated", True, 400),
        ("marginals-9", "power", False, 400),
        ("marginals-3", "indicator", True, 400),
        ("terminal", "modulated-tabulated", True, 3),
    ], ids=["terminal-quadratic", "running-max-tabulated", "integral-modulated-prefix",
            "marginals9-power", "marginals3-indicator-prefix", "stopped-by-max-iter"])
    def test_run_matches_scalar_finite_difference_run(self, functional, cost, prefixed,
                                                      max_iter):
        F, m = FUNCTIONALS[functional]
        prefix, t0 = (PREFIX, 0.4) if prefixed else (ZERO, 0.0)
        res = _optimize_tail(F, COSTS[cost], prefix, t0, m, 3, 4, max_iter)
        value, path, converged, values = reference_tail(F, COSTS[cost], prefix, t0, m, 3, 4,
                                                        max_iter)
        assert res.value == value
        assert res.path.values.tobytes() == path.tobytes()
        assert res.converged == converged
        assert [run.value for run in res.runs] == values
        if max_iter == 3:
            assert not converged and all(run.iterations == 3 for run in res.runs)

    def test_restart_records(self):
        res = maximize_schilder(TerminalValue(product_bump, bounds=(0, 1)), QUAD, m=9,
                                restarts=5, seed=2, max_iter=400)
        assert len(res.runs) == res.restarts == 5
        best = res.runs[res.best_restart]
        assert (best.value, best.converged) == (res.value, res.converged)
        assert all(run.value <= res.value for run in res.runs)
        assert all(run.points >= run.iterations >= 1 and run.converged for run in res.runs)

    def test_one_evaluation_per_point(self, monkeypatch):
        # the benchmark's schilder config: the endpoint scan, one call per
        # L-BFGS-B point (its gradient included) and one per restart's value
        calls = []
        inner = variational.evaluate_functional

        def counted(F, times, values):
            calls.append(np.shape(values))
            return inner(F, times, values)

        monkeypatch.setattr(variational, "evaluate_functional", counted)
        F = build_functional({"kind": "running_max"})
        res = maximize_schilder(F, QUAD, m=17, restarts=8, seed=1)
        points = sum(run.points for run in res.runs)
        assert len(calls) == 1 + points + 8
        assert calls[0] == (257, 17)
        assert calls.count((17, 17)) == points
        assert calls.count((1, 17)) == 8
