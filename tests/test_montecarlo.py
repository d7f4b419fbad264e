"""Path batches, closed-form estimators, LSMC regression, bridge moments."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import lapack
from scipy.special import beta as beta_fn

from driftlab import montecarlo
from driftlab.generators import Quadratic
from driftlab.montecarlo import (
    BLOCK_PATHS,
    FeedbackControl,
    PathBatch,
    bridge_constant,
    bridge_moment_check,
    cramer_average,
    girsanov_lower_bound,
    log_mean_exp,
    lsmc_bsde,
    simulate_bridge,
    truncated_quadratic_moment,
)
from driftlab.pde import GridSpec, solve_semilinear
from driftlab.report import recording
from driftlab.variational import (
    FiniteMarginals,
    RunningMax,
    TerminalValue,
    TimeIntegral,
    evaluate_functional,
)

QUAD = Quadratic(1.0)


def all_paths(batch):
    """Every path of the batch, its blocks stacked."""
    return np.concatenate(list(batch.iter_paths()), axis=0)


def gaussian_bump(x):
    return np.exp(-((np.asarray(x, dtype=float) - 1.0) ** 2))


class TestPathBatch:
    def test_reproducible_bit_exact(self):
        a = all_paths(PathBatch(n_steps=16, n_paths=40_000, seed=5))
        b = all_paths(PathBatch(n_steps=16, n_paths=40_000, seed=5))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n_paths", [1_000, BLOCK_PATHS + 1_000])
    def test_paths_and_increments_are_the_block_draws(self, n_paths):
        # one block or two: the paths are the cumulated sqrt(dt)-scaled draws
        # of each block's (seed, block index) generator, bit for bit
        batch = PathBatch(n_steps=8, n_paths=n_paths, seed=4)
        draws = [rng.standard_normal((size, 8)) * math.sqrt(batch.dt)
                 for size, rng in batch.iter_blocks()]
        for inc, draw in zip(batch.iter_increments(), draws, strict=True):
            np.testing.assert_array_equal(inc, draw)
        expected = np.concatenate(draws, axis=0).cumsum(axis=1)
        paths = all_paths(batch)
        np.testing.assert_array_equal(paths[:, 0], 0.0)
        np.testing.assert_array_equal(paths[:, 1:], expected)
        # the LSMC walk is the same sums without the origin
        np.testing.assert_array_equal(montecarlo._walk(batch), expected)

    def test_increment_moments(self):
        batch = PathBatch(n_steps=4, n_paths=400_000, seed=2)
        inc = np.concatenate(list(batch.iter_increments()), axis=0)
        se = 1.0 / math.sqrt(inc.size)
        assert abs(inc.mean()) <= 3 * se * math.sqrt(batch.dt)
        assert inc.var() == pytest.approx(batch.dt, rel=0.01)


class TestLogMeanExp:
    def test_constant_exact(self):
        F = TerminalValue(lambda x: np.full(np.shape(x), 1.3))
        for n in (1.0, 8.0):
            est, se = log_mean_exp(F, n, PathBatch(n_steps=4, n_paths=10_000, seed=7))
            assert est == 1.3
            assert se == 0.0

    def test_gaussian_mgf(self):
        F = TerminalValue(lambda x: 0.7 * np.asarray(x, dtype=float))
        est, se = log_mean_exp(F, 1.0, PathBatch(n_steps=8, n_paths=400_000, seed=8))
        assert abs(est - 0.245) <= 3 * se

    def test_matches_pde(self):
        est, se = log_mean_exp(
            TerminalValue(gaussian_bump), 1.0, PathBatch(n_steps=8, n_paths=400_000, seed=9)
        )
        fld = solve_semilinear(gaussian_bump, QUAD, 1.0, GridSpec(-8.0, 8.0, 801, 1))
        assert abs(est - fld.initial_value_at_origin) <= 3 * se + 2e-3

    def test_cash_invariance(self):
        batch = PathBatch(n_steps=8, n_paths=50_000, seed=10)
        base, _ = log_mean_exp(TerminalValue(lambda x: 0.4 * np.asarray(x)), 2.0, batch)
        shifted, _ = log_mean_exp(
            TerminalValue(lambda x: 0.4 * np.asarray(x) + 2.0), 2.0, batch
        )
        assert shifted - base == pytest.approx(2.0, abs=1e-12)

    def test_identical_seed_bit_identical(self):
        F = TerminalValue(gaussian_bump)
        a = log_mean_exp(F, 4.0, PathBatch(n_steps=16, n_paths=100_000, seed=11))
        b = log_mean_exp(F, 4.0, PathBatch(n_steps=16, n_paths=100_000, seed=11))
        assert a == b


    def test_terminal_estimate_does_not_depend_on_steps(self):
        F = TerminalValue(gaussian_bump)
        coarse = log_mean_exp(F, 4.0, PathBatch(n_steps=4, n_paths=40_000, seed=19))
        fine = log_mean_exp(F, 4.0, PathBatch(n_steps=16, n_paths=40_000, seed=19))
        assert coarse == fine

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_effective_sample_size_collapses_at_large_n(self, seed):
        # the weights exp(n F) crowd onto the few paths nearest the bump's
        # peak as n grows: about 88 000 of 100 000 paths carry the n = 1
        # estimate, and 1.5 to 2.8 the n = 64 one at these seeds
        ess = {}
        for n in (1.0, 64.0):
            with recording() as trace:
                log_mean_exp(TerminalValue(gaussian_bump), n,
                             PathBatch(n_steps=8, n_paths=100_000, seed=seed))
            (record,) = trace
            ess[n] = record["ess"]
        assert ess[1.0] >= 0.5 * 100_000
        assert ess[64.0] <= 10.0

    @pytest.mark.xfail(strict=True, reason=(
        "the delta-method se misses the heavy tail of the weights exp(n F) at "
        "large n, and the estimate is biased low: at n 64 several of these seeds "
        "lie beyond 3 se of the quadrature"))
    def test_standard_error_covers_the_error_at_n_64(self):
        # (1/n) log E exp(n f(Z / sqrt(n))) as (1/n) log of
        # sqrt(n / 2 pi) * integral exp(n (f(x) - x^2 / 2)) dx, max-shifted, on
        # a grid that resolves the peak near x = 0.64 many times over
        n = 64.0
        x = np.linspace(-3.0, 5.0, 400_001)
        expo = n * (gaussian_bump(x) - 0.5 * x * x)
        top = expo.max()
        reference = (top + math.log(np.trapezoid(np.exp(expo - top), x))
                     + 0.5 * math.log(n / (2.0 * math.pi))) / n
        z = []
        for seed in range(20):
            est, se = log_mean_exp(TerminalValue(gaussian_bump), n,
                                   PathBatch(n_steps=1, n_paths=500_000, seed=seed))
            z.append((est - reference) / se)
        assert max(abs(v) for v in z) <= 3.0, np.round(z, 1)

    def test_terminal_route_agrees_with_the_path_route(self):
        # FiniteMarginals reads the same W(1) off whole paths
        batch = PathBatch(n_steps=8, n_paths=100_000, seed=20)
        terminal, se_t = log_mean_exp(TerminalValue(gaussian_bump), 2.0, batch)
        paths, se_p = log_mean_exp(FiniteMarginals((1.0,), gaussian_bump), 2.0, batch)
        assert terminal != paths
        assert abs(terminal - paths) <= 3 * math.hypot(se_t, se_p)


class TestGirsanovLowerBound:
    def test_zero_control_is_plain_mean(self):
        F = TerminalValue(gaussian_bump)
        batch = PathBatch(n_steps=16, n_paths=100_000, seed=12)
        est, se = girsanov_lower_bound(F, QUAD, FeedbackControl.constant(0.0), batch)
        ends = np.concatenate([p[:, -1] for p in batch.iter_paths()])
        assert est == pytest.approx(float(np.mean(gaussian_bump(ends))), abs=1e-9)

    def test_optimal_constant_drift_attains_value(self):
        # F = a x with quadratic cost: drift a attains a^2/2 exactly
        a = 0.7
        F = TerminalValue(lambda x: a * np.asarray(x, dtype=float))
        batch = PathBatch(n_steps=32, n_paths=200_000, seed=13)
        est, se = girsanov_lower_bound(F, QUAD, FeedbackControl.constant(a), batch)
        assert abs(est - a * a / 2.0) <= 3 * se

    def test_never_exceeds_pde_value(self):
        fld = solve_semilinear(gaussian_bump, QUAD, 1.0, GridSpec(-8.0, 8.0, 801, 1))
        rho = fld.initial_value_at_origin
        batch = PathBatch(n_steps=32, n_paths=100_000, seed=14)
        controls = [
            FeedbackControl.constant(0.0),
            FeedbackControl.constant(0.8),
            FeedbackControl.state_feedback(lambda t, x: 1.0 - x, bound=3.0),
        ]
        for ctrl in controls:
            est, se = girsanov_lower_bound(TerminalValue(gaussian_bump), QUAD, ctrl, batch)
            assert est <= rho + 3 * se + 2e-3

    def test_control_outside_domain_rejected(self):
        from driftlab.generators import IndicatorInterval

        batch = PathBatch(n_steps=8, n_paths=100, seed=15)
        ctrl = FeedbackControl.constant(2.0)
        with pytest.raises(ValueError, match="domain"):
            girsanov_lower_bound(TerminalValue(gaussian_bump), IndicatorInterval(1.0), ctrl, batch)


class TestLsmc:
    def test_constant_terminal(self):
        F = TerminalValue(lambda x: np.full(np.shape(x), 2.0), bounds=(2.0, 2.0))
        sol = lsmc_bsde(F, QUAD, 1.0, PathBatch(n_steps=25, n_paths=20_000, seed=16))
        assert sol.y0 == pytest.approx(2.0, abs=1e-3)

    def test_matches_log_mean_exp(self):
        F = TerminalValue(gaussian_bump, bounds=(0.0, 1.0))
        sol = lsmc_bsde(F, QUAD, 1.0, PathBatch(n_steps=50, n_paths=100_000, seed=17))
        ref, se = log_mean_exp(
            TerminalValue(gaussian_bump), 1.0, PathBatch(n_steps=8, n_paths=100_000, seed=18)
        )
        assert abs(sol.y0 - ref) <= 3 * se

    def test_running_max_trend_toward_path_oracle(self):
        # the path-space optimum of min(1, max) - action is 1/2
        F = RunningMax(lambda m: np.minimum(1.0, m), bounds=(0.0, 1.0))
        gaps = []
        for n, steps in ((1, 64), (4, 256), (16, 256)):
            sol = lsmc_bsde(F, QUAD, float(n),
                            PathBatch(n_steps=steps, n_paths=50_000, seed=19 + n))
            gaps.append(abs(sol.y0 - 0.5))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_time_integral_matches_gaussian_value(self):
        # the integral of W is N(0, 1/3), so under the quadratic cost the
        # value (1/n) log E exp(n F(W / sqrt(n))) is 1/6 at every n; the
        # fit regresses on the state and the running integral
        F = TimeIntegral(lambda t, x: x)
        for n in (1.0, 4.0):
            sol = lsmc_bsde(F, QUAD, n, PathBatch(n_steps=32, n_paths=20_000, seed=44))
            assert sol.basis == "polynomial"
            assert sol.y0 == pytest.approx(1.0 / 6.0, abs=5e-3)

    @pytest.mark.parametrize("n", [1.0, 16.0])
    @pytest.mark.parametrize("basis, functional", [
        ("hat", lambda c: TerminalValue(lambda x: gaussian_bump(x) + c, bounds=(c, 1.0 + c))),
        ("polynomial", lambda c: RunningMax(lambda m: np.minimum(1.0, m) + c,
                                            bounds=(c, 1.0 + c))),
    ], ids=["hat", "polynomial"])
    def test_y0_is_cash_additive(self, basis, functional, n):
        # adding c to F adds c to the value; a time-0 gradient read off the
        # uncentred y added c * mean(W(t_1)) / dt to z0, and moved y0 by more
        c = 0.3
        batch = PathBatch(n_steps=16, n_paths=10_000, seed=0)
        base, shifted = (lsmc_bsde(functional(shift), QUAD, n, batch) for shift in (0.0, c))
        assert base.basis == shifted.basis == basis
        assert shifted.y0 - base.y0 == pytest.approx(c, rel=0.0, abs=1e-12)

    def test_ladder_monotone_structure(self):
        F = TerminalValue(gaussian_bump, bounds=(0.0, 1.0))
        sol = lsmc_bsde(F, QUAD, 1.0, PathBatch(n_steps=25, n_paths=50_000, seed=20))
        assert sol.times.size == sol.y_ladder.size
        assert sol.terminal_residual < 0.2

    def test_terminal_solve_holds_one_path_array(self):
        # two full blocks and one path on 64 steps: the walk, drawn block by
        # block into its rows, is the one path-sized array; holding the
        # increments, the paths and their scaled copy peaked above twice it
        walk_bytes = (2 * BLOCK_PATHS + 1) * 64 * 8
        F = TerminalValue(gaussian_bump, bounds=(0.0, 1.0))
        tracemalloc.start()
        try:
            sol = lsmc_bsde(F, QUAD, 1.0, PathBatch(n_steps=64, n_paths=2 * BLOCK_PATHS + 1,
                                                    seed=21))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < sol.y0 < 1.0
        assert peak < 1.5 * walk_bytes


def reference_hat_fit(x, n_knots, y):
    """The dense construction the hat basis replaces: the (samples x knots)
    feature matrix and an SVD least-squares solve.  Returns coefficients,
    rank, fitted values and the feature matrix."""
    knots = np.unique(np.quantile(x, np.linspace(0.0, 1.0, n_knots)))
    if knots.size < 2:
        features = np.ones((x.size, 1))
    else:
        idx = np.clip(np.searchsorted(knots, x) - 1, 0, knots.size - 2)
        t = np.clip((x - knots[idx]) / (knots[idx + 1] - knots[idx]), 0.0, 1.0)
        rows = np.arange(x.size)
        features = np.zeros((x.size, knots.size))
        features[rows, idx] = 1.0 - t
        features[rows, idx + 1] = t
    coef, _, rank, _ = np.linalg.lstsq(features, y, rcond=1e-10)
    return coef, rank, features @ coef, features


_RNG = np.random.default_rng(71)
HAT_INPUTS = {
    "gaussian": (_RNG.standard_normal(5000), 35),
    # four tied values: tied quantiles merge 35 knots into 7.  With 86
    # samples the quantile positions step by 2.5 sorted ranks, so the
    # knots at half ranks 12.5, 42.5 and 72.5 fall strictly between two
    # tied values, and their hats weigh no sample
    "heavy-ties": (np.repeat([-1.0, 0.0, 0.5, 2.0], [13, 30, 30, 13]), 35),
    "single-value": (np.full(40, 0.3), 9),
    "more-knots-than-paths": (_RNG.standard_normal(20), 50),
    # singular too, but Cholesky runs through it with a rounding-level pivot
    "rounding-level-pivot": (np.random.default_rng(1).standard_normal(10), 12),
}

# the samples at -0.0 sit on the first knot, which the quantile lerp makes
# +0.0, so their weight t is -0.0 (x - knot), kept only by a clip that
# returns its input where it equals the bound
SIGNED_HAT_INPUTS = dict(HAT_INPUTS, **{"negative-zero-minimum": (
    np.random.default_rng(76).permutation(np.repeat([-0.0, 0.5, 1.0, 3.0], [20, 30, 30, 20])),
    9)})


class TestHatBasis:
    @pytest.mark.parametrize("name", sorted(HAT_INPUTS))
    def test_matches_dense_least_squares(self, name):
        x, n_knots = HAT_INPUTS[name]
        y = np.sin(2.0 * x) + 0.1 * np.random.default_rng(72).standard_normal(x.size)
        ref_coef, ref_rank, ref_fit, features = reference_hat_fit(x, n_knots, y)
        basis = montecarlo._HatBasis(x, n_knots)
        coef = basis.fit(y)
        rank = basis.solver.rank
        assert rank == ref_rank
        # lstsq leaves rounding-level values on an all-zero column; the
        # minimum-norm answer there is exactly 0
        massless = ~features.any(axis=0)
        assert np.all(coef[massless] == 0.0)
        assert np.all(np.abs(ref_coef[massless]) <= 1e-14)
        np.testing.assert_allclose(coef[~massless], ref_coef[~massless], rtol=1e-10)
        np.testing.assert_allclose(basis(coef), ref_fit, rtol=1e-10)
        if name == "heavy-ties":
            assert basis.size < n_knots and massless.any()
        if name == "single-value":
            assert basis.size == 1
        if name in ("more-knots-than-paths", "rounding-level-pivot"):
            assert rank == x.size < basis.size
        if name == "rounding-level-pivot":
            # the fallback is reached through the pivot test, not through a
            # failed factorisation
            gram = features.T @ features
            _, info = lapack.dpotrf(gram)
            pivots = np.linalg.cholesky(gram).diagonal()
            assert info == 0 and basis.solver.pinv is not None
            assert np.min(pivots ** 2 / gram.diagonal()) <= montecarlo._RANK_TOL

    @pytest.mark.parametrize("name", sorted(HAT_INPUTS))
    def test_reproduces_piecewise_linear_functions(self, name):
        x, n_knots = HAT_INPUTS[name]
        basis = montecarlo._HatBasis(x, n_knots)
        knots = np.unique(np.quantile(x, np.linspace(0.0, 1.0, n_knots)))
        values = np.cos(3.0 * knots) + knots
        y = np.interp(x, knots, values)
        coef = basis.fit(y)
        np.testing.assert_allclose(basis(coef), y, rtol=1e-12, atol=1e-12)
        if basis.solver.pinv is None:
            np.testing.assert_allclose(coef, values, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(HAT_INPUTS))
    def test_cells_match_searchsorted(self, name):
        # samples that sit exactly on a knot (ties) take the cell below it
        x, n_knots = HAT_INPUTS[name]
        basis = montecarlo._HatBasis(x, n_knots)
        knots = np.unique(np.quantile(x, np.linspace(0.0, 1.0, n_knots)))
        cells = np.clip(np.searchsorted(knots, x) - 1, 0, max(knots.size - 2, 0))
        np.testing.assert_array_equal(basis.idx, cells)

    def test_non_finite_target_raises(self):
        x, n_knots = HAT_INPUTS["gaussian"]
        y = np.sin(x)
        y[3] = np.nan
        with pytest.raises(RuntimeError, match="least-squares regression failed"):
            montecarlo._HatBasis(x, n_knots).fit(y)

    @pytest.mark.parametrize("name", sorted(SIGNED_HAT_INPUTS))
    def test_matches_quantile_and_clip_construction(self, name):
        # knots read off the sort and in-place clips change no bit of the
        # cells, the weights, the rank or either fit of a regression step
        x, n_knots = SIGNED_HAT_INPUTS[name]
        basis = montecarlo._HatBasis(x, n_knots)
        ref = quantile_hat_basis(x, n_knots)
        assert basis.size == ref.size
        assert basis.solver.rank == ref.solver.rank
        np.testing.assert_array_equal(basis.idx, ref.idx)
        assert_same_bits(basis.t, ref.t)
        y = np.sin(2.0 * x) + 0.1 * np.random.default_rng(73).standard_normal(x.size)
        value = ref(ref.fit(y))
        gradient_target = (y - value) * np.random.default_rng(74).standard_normal(x.size)
        for target in (y, gradient_target):
            coef = basis.fit(target)
            assert_same_bits(coef, ref.fit(target))
            assert_same_bits(basis(coef), ref(ref.fit(target)))


def assert_same_bits(actual, expected):
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def quantile_hat_basis(x, n_knots):
    """The hat basis built as before its knots were read off the sort:
    ``np.quantile`` knots and out-of-place ``np.clip`` cells and weights."""
    basis = object.__new__(montecarlo._HatBasis)
    order = np.argsort(x)
    xs = x[order]
    knots = np.unique(np.quantile(xs, np.linspace(0.0, 1.0, n_knots)))
    basis.size = knots.size
    if knots.size < 2:
        basis.idx = np.zeros(x.size, dtype=np.intp)
        basis.t = np.zeros(x.size)
    else:
        first = np.searchsorted(xs, knots, side="right")
        below = np.empty(x.size, dtype=np.intp)
        below[order] = np.cumsum(np.bincount(first, minlength=x.size + 1)[:x.size])
        basis.idx = np.clip(below - 1, 0, knots.size - 2)
        basis.t = np.clip((x - knots[basis.idx]) / (knots[basis.idx + 1] - knots[basis.idx]),
                          0.0, 1.0)
    basis.hi = basis.idx + 1
    basis.s = 1.0 - basis.t
    off = np.diag(np.bincount(basis.idx, basis.s * basis.t, minlength=basis.size)[:-1], 1)
    basis.solver = montecarlo._NormalEquations(
        np.diag(basis._sums(basis.s * basis.s, basis.t * basis.t)) + off + off.T)
    return basis


def _quantile_sample(kind, n):
    rng = np.random.default_rng(n)
    if kind == "gaussian":
        return rng.standard_normal(n)
    if kind == "tied":
        return rng.integers(-2, 3, n).astype(float)
    if kind == "constant":
        return np.full(n, 0.7)
    if kind == "negative-zero":
        return rng.choice([-1.5, -0.0, 2.0], n)
    return np.full(n, -0.0)  # "constant-negative-zero"


class TestSortedQuantiles:
    @pytest.mark.parametrize("kind", ["gaussian", "tied", "constant", "negative-zero",
                                      "constant-negative-zero"])
    @pytest.mark.parametrize("n_points", [2, 3, 35, 50])
    @pytest.mark.parametrize("n", [1, 2, 3, 35, 36, 10_000])
    def test_equals_numpy_linear_quantile(self, n, n_points, kind):
        xs = np.sort(_quantile_sample(kind, n))
        assert_same_bits(montecarlo._sorted_quantiles(xs, n_points),
                         np.quantile(xs, np.linspace(0.0, 1.0, n_points)))

    def test_mixed_signed_zeros_match_in_value(self):
        # numpy partitions a copy, so which of the tied -0.0 and +0.0 it
        # reads is its partition's choice; the values still agree
        xs = np.sort(np.random.default_rng(75).choice([-1.0, -0.0, 0.0, 1.0], 10_000))
        for n_points in (2, 3, 35, 50):
            np.testing.assert_array_equal(montecarlo._sorted_quantiles(xs, n_points),
                                          np.quantile(xs, np.linspace(0.0, 1.0, n_points)))


def reference_polynomial_fit(first, second, y):
    """The construction the polynomial basis replaces: the ten columns
    a^(d-i) b^i of the standardized statistics, column-stacked, and an SVD
    least-squares solve.  Returns the rank and the fitted values."""
    standardized = []
    for s in (first, second):
        sd = float(np.std(s))
        standardized.append((s - float(np.mean(s))) / (sd if sd > 1e-12 else 1.0))
    a, b = standardized
    features = np.column_stack([np.ones_like(a)] + [a ** (d - i) * b ** i
                                                    for d in range(1, 4) for i in range(d + 1)])
    coef, _, rank, _ = np.linalg.lstsq(features, y, rcond=1e-10)
    return rank, features @ coef


def _running_max_sample(k):
    # state and running max at step k; at step 1 the running max is
    # max(0, state), so three of the ten columns are dependent
    paths = all_paths(PathBatch(n_steps=4, n_paths=5000, seed=5))
    return paths[:, k], np.maximum.accumulate(paths, axis=1)[:, k]


_GAUSS = np.random.default_rng(73).standard_normal((2, 5000))
POLYNOMIAL_INPUTS = {
    "correlated-gaussians": ((_GAUSS[0], 0.5 * _GAUSS[0] + _GAUSS[1]), 10),
    "running-max-step-1": (_running_max_sample(1), 7),
    "running-max-step-2": (_running_max_sample(2), 10),
}


class TestPolynomialBasis:
    @pytest.mark.parametrize("name", sorted(POLYNOMIAL_INPUTS))
    def test_matches_dense_least_squares(self, name):
        (first, second), rank = POLYNOMIAL_INPUTS[name]
        y = (np.sin(2.0 * first) + np.minimum(1.0, second)
             + 0.1 * np.random.default_rng(74).standard_normal(first.size))
        ref_rank, ref_fit = reference_polynomial_fit(first, second, y)
        basis = montecarlo._PolynomialBasis(first, second)
        fit = basis(basis.fit(y))
        assert basis.solver.rank == ref_rank == rank
        # the rank-7 sample goes through the eigendecomposition
        assert (basis.solver.pinv is None) == (rank == 10)
        np.testing.assert_allclose(fit, ref_fit, rtol=0, atol=1e-10 * np.max(np.abs(ref_fit)))


def chopped_average(F, n, batch):
    """(1/n) log mean exp(n F) on the average of the n chopped subpaths of
    each batch path, with its delta-method standard error: subpath k
    follows sqrt(n) times the increments of the path over [(k-1)/n, k/n]."""
    m = batch.n_steps // n
    values = []
    for paths in batch.iter_paths():
        inc = np.diff(paths, axis=1).reshape(paths.shape[0], n, m)
        sub = np.zeros((paths.shape[0], n, m + 1))
        np.cumsum(inc, axis=-1, out=sub[..., 1:])
        sub *= math.sqrt(n)
        values.append(n * evaluate_functional(F, np.linspace(0.0, 1.0, m + 1), sub.mean(axis=1)))
    x = np.concatenate(values)
    e = np.exp(x - x.max())
    return (x.max() + math.log(e.mean())) / n, e.std() / math.sqrt(x.size) / e.mean() / n


CRAMER_FUNCTIONALS = {
    "terminal": TerminalValue(gaussian_bump),
    "running-max": RunningMax(lambda x: np.minimum(1.0, x)),
    "time-integral": TimeIntegral(lambda t, x: np.sin(x)),
}


class TestCramerAverage:
    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("name", sorted(CRAMER_FUNCTIONALS))
    def test_matches_the_chopped_path_average(self, name, n):
        # the average of n independent Brownian paths is W / sqrt(n) in law
        F = CRAMER_FUNCTIONALS[name]
        est_c, se_c = chopped_average(F, n, PathBatch(n_steps=16 * n, n_paths=100_000, seed=24))
        est, se = cramer_average(F, n, PathBatch(n_steps=16 * n, n_paths=100_000, seed=25))
        assert abs(est - est_c) <= 3 * math.hypot(se, se_c)

    def test_terminal_estimate_does_not_depend_on_steps(self):
        F = TerminalValue(gaussian_bump)
        first = cramer_average(F, 4, PathBatch(n_steps=4, n_paths=40_000, seed=26))
        for steps in (8, 12, 64):
            assert cramer_average(F, 4, PathBatch(n_steps=steps, n_paths=40_000,
                                                  seed=26)) == first

    def test_constant(self):
        F = TerminalValue(lambda x: np.full(np.shape(x), 0.9))
        est, se = cramer_average(F, 4, PathBatch(n_steps=32, n_paths=10_000, seed=21))
        assert est == 0.9 and se == 0.0

    def test_terminal_value_same_law_as_scaled_path(self):
        # endpoints of the averaged chopped path and of W/sqrt(n) share a law
        F = TerminalValue(gaussian_bump)
        n = 4
        est_c, se_c = cramer_average(F, n, PathBatch(n_steps=64, n_paths=200_000, seed=22))
        est_l, se_l = log_mean_exp(F, n, PathBatch(n_steps=64, n_paths=200_000, seed=23))
        assert abs(est_c - est_l) <= 3 * math.hypot(se_c, se_l)

    def test_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            cramer_average(TerminalValue(gaussian_bump), 3, PathBatch(n_steps=32, n_paths=10, seed=1))

    def test_time_integral_near_variational_limit(self):
        # sup over paths of (integral of the path) - action: attained by the
        # drift 1 - t with value 1/6; the quadratic-case estimator shares
        # that value at every block count by the Gaussian mgf
        from driftlab.variational import TimeIntegral, maximize_schilder

        F = TimeIntegral(lambda t, x: x, bounds=(-6.0, 6.0))
        oracle = maximize_schilder(F, QUAD, m=17, restarts=6, seed=41).value
        assert oracle == pytest.approx(1.0 / 6.0, abs=1e-3)
        for n in (1, 4):
            est, se = cramer_average(F, n, PathBatch(n_steps=64, n_paths=200_000, seed=42))
            assert abs(est - oracle) <= 3 * se + 5e-3


class TestBridge:
    def test_mean_and_variance_match_conditioning(self):
        x, y, eps, delta = 0.0, 1.0, 0.01, 1.0
        grid = np.linspace(0.0, delta, 65)
        w = simulate_bridge(x, y, eps, delta, 200_000, 33, grid)
        i = 32
        t = grid[i]
        mean_target = x + (t / delta) * (y - x)
        var_target = eps * t * (delta - t) / delta
        se_mean = math.sqrt(var_target / w.shape[0])
        assert abs(w[:, i].mean() - mean_target) <= 3 * se_mean
        se_var = var_target * math.sqrt(2.0 / w.shape[0])
        assert abs(w[:, i].var() - var_target) <= 3 * se_var

    def test_endpoint_pinned(self):
        grid = np.linspace(0.0, 0.5, 33)
        w = simulate_bridge(-1.0, 2.0, 0.1, 0.5, 100, 34, grid)
        np.testing.assert_allclose(w[:, -1], 2.0, atol=1e-12)

    def test_moment_below_analytic_bound(self):
        chk = bridge_moment_check(0.0, 1.0, 0.01, 1.0, 1.5,
                                  PathBatch(n_steps=512, n_paths=100_000, seed=35))
        assert chk.empirical + 3 * chk.standard_error <= chk.bound

    def test_moment_blocks_not_shared_between_seeds(self, monkeypatch):
        # blocks come from the batch's (seed, block) streams, so block 1 of
        # seed s is not block 0 of seed s + 1
        drawn = []
        bridge_paths = montecarlo._bridge_paths

        def recording(*args):
            w = bridge_paths(*args)
            drawn.append(w)
            return w

        monkeypatch.setattr(montecarlo, "_bridge_paths", recording)
        blocks = {}
        for seed in (40, 41):
            drawn.clear()
            bridge_moment_check(0.0, 1.0, 0.01, 1.0, 1.5,
                                PathBatch(n_steps=4, n_paths=2 * BLOCK_PATHS, seed=seed))
            blocks[seed] = list(drawn)
        assert len(blocks[40]) == len(blocks[41]) == 2
        for a in blocks[40]:
            for b in blocks[41]:
                assert not np.array_equal(a, b)

    @pytest.mark.parametrize("epsilon, delta", [(-1.0, 1.0), (0.01, 0.0), (0.01, -1.0)])
    def test_moment_check_rejects_bad_noise_or_horizon(self, epsilon, delta):
        # a negative epsilon made the bound complex; delta = 0 divided by zero
        with pytest.raises(ValueError, match="epsilon" if epsilon < 0 else "delta"):
            bridge_moment_check(0.0, 1.0, epsilon, delta, 1.5,
                                PathBatch(n_steps=4, n_paths=10, seed=1))

    def test_constant_quadrature_matches_beta_closed_form(self):
        # the time integral in the constant is Beta(1 + r/2, 1 - r/2), which
        # the closed form keeps to rounding as r nears 2
        for r in (1.2, 1.5, 1.8, 1.99):
            a = r / 2.0
            closed = 2.0 ** (r - 1.0) * (2.0 ** a * math.gamma((r + 1) / 2) / math.sqrt(math.pi)) * beta_fn(1 + a, 1 - a)
            assert bridge_constant(r) == pytest.approx(closed, rel=1e-13)

    def test_constant_unavailable_outside_range(self):
        with pytest.raises(ValueError, match="unavailable"):
            bridge_constant(2.0)
        with pytest.raises(ValueError, match="unavailable"):
            bridge_constant(0.9)

    def test_quadratic_moment_diverges_logarithmically(self):
        etas = [1e-1, 1e-2, 1e-3, 1e-4]
        vals = truncated_quadratic_moment(0.0, 2.0, 1.0, 1.0, etas, 50_000, 36)
        ordered = [vals[e] for e in sorted(etas, reverse=True)]
        assert all(a < b for a, b in zip(ordered, ordered[1:]))
        # analytic value 3 (1 - eta) + log(1 / eta)
        for eta in etas:
            analytic = 3.0 * (1.0 - eta) + math.log(1.0 / eta)
            assert vals[eta] == pytest.approx(analytic, rel=0.05)
        assert vals[1e-4] > 10.0

    def test_quadratic_moment_holds_one_block_at_a_time(self):
        # two full blocks and one path on the 321-point time grid; holding
        # every path and its squared drift at once peaked at 8 blocks' bytes
        block_bytes = BLOCK_PATHS * 321 * 8
        tracemalloc.start()
        try:
            vals = truncated_quadratic_moment(0.0, 2.0, 1.0, 1.0, [1e-1, 1e-4],
                                              2 * BLOCK_PATHS + 1, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vals[1e-1] < vals[1e-4]
        assert peak < 1.25 * block_bytes
