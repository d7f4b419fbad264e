"""Backward semilinear solver, Hopf-Lax form, and the viscosity sweep."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import pde
from driftlab.generators import (
    IndicatorInterval,
    PowerLaw,
    Quadratic,
    Tabulated,
    TimeModulated,
    eval_gstar_halfline,
)
from driftlab.pde import (
    GridSpec,
    hopf_lax,
    march_backward,
    solve_semilinear,
    stable_nt,
    vanishing_viscosity_sweep,
)
from driftlab.report import recording
from driftlab.sanov import gauss_mean

QUAD = Quadratic(1.0)


def gaussian_bump(x):
    return np.exp(-((np.asarray(x, dtype=float) - 1.0) ** 2))


def solve_traced(f, g, viscosity, grid):
    """solve_semilinear's field and the step data of its one march, read from
    the run's trace: nt, dt, dx, lipschitz, minimal_nt, diffusion_number."""
    with recording() as trace:
        fld = solve_semilinear(f, g, viscosity, grid)
    [march] = trace
    assert march["solver"] == "march_backward"
    return fld, {k: v for k, v in march.items() if k not in ("solver", "at_s", "rows")}


class TestGridRead:
    GRID = GridSpec(-3.0, 5.0, 41, 1)

    @pytest.mark.parametrize("point", [0.0, -3.0, 5.0, 0.3, 1.1e-3, 1.6])
    def test_stack_matches_per_row_interp(self, point):
        rows = np.random.default_rng(7).standard_normal((6, self.GRID.nx))
        got = self.GRID.read(rows, point)
        want = np.array([np.interp(point, self.GRID.x, row) for row in rows])
        assert got.shape == (6,)
        assert got.tobytes() == want.tobytes()

    def test_points_match_interp(self):
        rng = np.random.default_rng(8)
        values = rng.standard_normal(self.GRID.nx)
        points = np.concatenate([self.GRID.x, rng.uniform(-3.0, 5.0, 200)])
        got = self.GRID.read(values, points)
        assert got.tobytes() == np.interp(points, self.GRID.x, values).tobytes()

    @pytest.mark.parametrize("point", [-3.0 - 1e-9, 5.5, math.nan, [0.0, 6.0]],
                             ids=["below", "above", "nan", "one-of-two-above"])
    def test_point_outside_grid_raises(self, point):
        with pytest.raises(ValueError, match="outside the solver grid"):
            self.GRID.read(np.zeros((2, self.GRID.nx)), point)


class TestSolveSemilinear:
    def test_constant_terminal_is_invariant(self):
        grid = GridSpec(-8.0, 8.0, 321, 1)
        fld = solve_semilinear(lambda x: np.full(np.shape(x), 3.0), QUAD, 1.0, grid)
        assert fld.initial_value_at_origin == pytest.approx(3.0, abs=1e-9)
        np.testing.assert_allclose(fld.values, 3.0, atol=1e-9)

    def test_linear_terminal_matches_gaussian_mgf(self):
        # log E exp(a W(1)) = a^2 / 2 in the quadratic case
        a = 0.7
        grid = GridSpec(-8.0, 8.0, 801, 1)
        fld = solve_semilinear(lambda x: a * np.asarray(x, dtype=float), QUAD, 1.0, grid)
        assert fld.initial_value_at_origin == pytest.approx(a * a / 2.0, abs=2e-3)

    def test_clamped_boundary_nodes_equal_terminal(self):
        grid = GridSpec(-6.0, 6.0, 201, 1)
        fld = solve_semilinear(gaussian_bump, QUAD, 0.5, grid)
        assert fld.values.shape == (grid.nx,)
        np.testing.assert_array_equal(fld.values[[0, -1]], gaussian_bump(grid.x)[[0, -1]])

    def test_step_count_raised_to_stable_count_and_kept_above_it(self):
        _, raised = solve_traced(gaussian_bump, QUAD, 1.0, GridSpec(-8.0, 8.0, 321, 5))
        assert raised["nt"] == raised["minimal_nt"] > 5
        above = raised["minimal_nt"] + 7
        _, kept = solve_traced(gaussian_bump, QUAD, 1.0, GridSpec(-8.0, 8.0, 321, above))
        assert kept["nt"] == above and kept["minimal_nt"] == raised["minimal_nt"]

    def test_value_of_a_multi_row_field_names_the_rows(self):
        fld = solve_semilinear(gaussian_bump, QUAD, np.array([1.0, 0.5, 0.25]),
                               GridSpec(-4.0, 4.0, 41, 1))
        assert fld.values.shape == (3, 41)
        with pytest.raises(ValueError, match="3 rows"):
            fld.value(0.0)

    @pytest.mark.parametrize("viscosity", [0.0, -0.5, math.nan])
    def test_viscosity_not_positive_rejected(self, viscosity):
        with pytest.raises(ValueError, match="sigma2 must be positive"):
            solve_semilinear(gaussian_bump, QUAD, viscosity, GridSpec(-4.0, 4.0, 41, 1))

    def test_value_off_the_grid_raises(self):
        fld = solve_semilinear(gaussian_bump, QUAD, 1.0, GridSpec(1.0, 5.0, 41, 1))
        assert fld.value(1.0) == fld.values[0]
        with pytest.raises(ValueError, match="outside the solver grid"):
            fld.initial_value_at_origin

    def test_rejects_unbounded_terminal(self):
        grid = GridSpec(-2.0, 2.0, 51, 1)

        def bad(x):
            x = np.asarray(x, dtype=float)
            return np.where(x == 0.0, np.inf, x)

        with pytest.raises(ValueError, match="finite"):
            solve_semilinear(bad, QUAD, 1.0, grid)

    def test_comparison_monotonicity(self):
        grid = GridSpec(-8.0, 8.0, 321, 2000)
        f1 = lambda x: np.tanh(np.asarray(x, dtype=float))
        f2 = lambda x: np.tanh(np.asarray(x, dtype=float)) + 0.3 * np.exp(-np.asarray(x) ** 2)
        v1 = solve_semilinear(f1, QUAD, 1.0, grid)
        v2 = solve_semilinear(f2, QUAD, 1.0, grid)
        assert np.all(v1.values <= v2.values + 1e-12)

    def test_cash_invariance(self):
        grid = GridSpec(-8.0, 8.0, 321, 2000)
        base = solve_semilinear(gaussian_bump, QUAD, 1.0, grid)
        shifted = solve_semilinear(lambda x: gaussian_bump(x) + 2.5, QUAD, 1.0, grid)
        np.testing.assert_allclose(shifted.values, base.values + 2.5, atol=1e-12)

    def test_stable_nt_satisfies_hyperbolic_bound(self):
        grid = GridSpec(-4.0, 4.0, 201, 1)
        nt = stable_nt(grid, 1.3)
        assert 1.3 / nt / grid.dx <= 0.5 + 1e-12
        # the smallest such count: one step fewer breaks the bound
        assert 1.3 / (nt - 1) / grid.dx > 0.5

    def test_step_count_independent_of_viscosity(self):
        grid = GridSpec(-6.0, 6.0, 601, 1)
        counts = {solve_traced(gaussian_bump, QUAD, s2, grid)[1]["nt"]
                  for s2 in (1.0 / 64, 1.0, 64.0)}
        assert len(counts) == 1

    def test_step_count_grows_linearly_in_nx(self):
        nts = [solve_traced(gaussian_bump, QUAD, 1.0, GridSpec(-6.0, 6.0, nx, 1))[1]["nt"]
               for nx in (301, 601, 1201)]
        for coarse, fine in zip(nts, nts[1:]):
            assert 1.8 <= fine / coarse <= 2.2

    def test_comparison_principle_at_large_diffusion_number(self):
        # r = sigma^2 dt / (2 dx^2) far above the explicit limit 1/2
        grid = GridSpec(-8.0, 8.0, 801, 1)
        f1 = lambda x: np.tanh(np.asarray(x, dtype=float))
        f2 = lambda x: np.tanh(np.asarray(x, dtype=float)) + 0.3 * np.exp(-np.asarray(x) ** 2)
        v1, steps = solve_traced(f1, QUAD, 4.0, grid)
        v2 = solve_semilinear(f2, QUAD, 4.0, grid)
        assert steps["diffusion_number"] > 10
        assert np.all(v1.values <= v2.values + 1e-12)
        assert np.all(np.diff(v1.values) >= -1e-12)


def cole_hopf(f, sigma2, c=1.0):
    """v(0, 0) = c sigma^2 log E exp(f(sigma Z) / (c sigma^2)), in log-sum-exp form."""
    sigma, scale = math.sqrt(sigma2), c * sigma2
    top = float(np.max(f(sigma * np.linspace(-12.0, 12.0, 2401))))
    return top + scale * math.log(gauss_mean(lambda z: np.exp((f(sigma * z) - top) / scale)))


class TestColeHopf:
    """Grid error of the quadratic solve against its exact linearisation."""

    @pytest.mark.parametrize("sigma2", [1.0, 0.25, 1.0 / 64])
    def test_error_within_half_cell_and_falling(self, sigma2):
        exact = cole_hopf(gaussian_bump, sigma2)
        errors = []
        for nx in (241, 601, 1201):
            grid = GridSpec(-6.0, 6.0, nx, 1)
            fld = solve_semilinear(gaussian_bump, QUAD, sigma2, grid)
            errors.append(abs(fld.initial_value_at_origin - exact))
            assert errors[-1] <= grid.dx / 2
        assert errors[0] > errors[1] > errors[2]
        # nx 601 -> 1201 halves dx; the error is first order
        assert errors[2] <= 0.6 * errors[1]

    def test_quadratic_coefficient(self):
        c = 1.3
        grid = GridSpec(-6.0, 6.0, 601, 1)
        fld = solve_semilinear(gaussian_bump, Quadratic(c), 0.5, grid)
        assert abs(fld.initial_value_at_origin - cole_hopf(gaussian_bump, 0.5, c)) <= grid.dx / 2


def reference_march(terminal, g, sigma2, grid, nt):
    """The IMEX step written out plainly, one fresh array a step.

    rhs = v + dt H on the interior nodes, then a dense solve of
    (I - r D2) v_new = rhs with the boundary rules written into the matrix.
    """
    dx, dt = grid.dx, 1.0 / nt
    r = sigma2 * dt / (2.0 * dx**2)
    n = grid.nx - 2
    matrix = (1.0 + 2.0 * r) * np.eye(n) - r * np.eye(n, k=1) - r * np.eye(n, k=-1)
    clamp = grid.boundary == "clampToTerminal"
    if not clamp:
        # u_0 = 2 u_1 - u_2: no second difference at the end interior nodes
        matrix[0] = np.eye(n)[0]
        matrix[-1] = np.eye(n)[-1]
    out = np.empty(terminal.shape[:-1] + (nt + 1, grid.nx))
    out[..., nt, :] = terminal
    v = terminal.copy()
    for k in range(nt - 1, -1, -1):
        dminus = (v[..., 1:-1] - v[..., :-2]) / dx
        dplus = (v[..., 2:] - v[..., 1:-1]) / dx
        ham = np.maximum(eval_gstar_halfline(g, (k + 1) * dt, dplus, +1),
                         eval_gstar_halfline(g, (k + 1) * dt, dminus, -1))
        rhs = v[..., 1:-1] + dt * ham
        if clamp:
            rhs[..., 0] += r * terminal[..., 0]
            rhs[..., -1] += r * terminal[..., -1]
        nxt = np.empty_like(v)
        nxt[..., 1:-1] = np.linalg.solve(matrix, rhs[..., None])[..., 0]
        if clamp:
            nxt[..., 0] = terminal[..., 0]
            nxt[..., -1] = terminal[..., -1]
        else:
            nxt[..., 0] = 2.0 * nxt[..., 1] - nxt[..., 2]
            nxt[..., -1] = 2.0 * nxt[..., -2] - nxt[..., -3]
        v = nxt
        out[..., k, :] = v
    return out


class TestMarchBackward:
    Q = np.linspace(-3.0, 3.0, 241)

    @pytest.mark.parametrize("spec", [
        Quadratic(1.3),
        Tabulated(q=tuple(Q), g=tuple(0.5 * Q**2 + 0.2 * np.abs(Q))),
        PowerLaw(r=1.5, a=0.8),
        TimeModulated(base=Quadratic(1.3), weights=(1.0, 2.0, 1.5)),
    ], ids=["quadratic", "tabulated", "power", "modulated"])
    @pytest.mark.parametrize("boundary", ["clampToTerminal", "oneSidedExtrapolation"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["1d", "stacked"])
    def test_matches_reference_step_exactly(self, spec, boundary, stacked):
        grid = GridSpec(-3.0, 3.0, 61, 1, boundary)
        x = grid.x
        if stacked:
            terminal = np.stack([np.sin(a * x) + 0.1 * x for a in (0.5, 1.0, 1.5, 2.0)])
            terminal = terminal.reshape(2, 2, grid.nx)
        else:
            terminal = gaussian_bump(x)
        values, cfl = march_backward(terminal, spec, 4.0, grid)
        assert values.shape == terminal.shape
        assert cfl["diffusion_number"] > 0.5
        reference = reference_march(terminal, spec, 4.0, grid, cfl["nt"])
        # two different linear solvers: agreement to rounding, not bit identity
        np.testing.assert_allclose(values, reference[..., 0, :], rtol=1e-12, atol=1e-14)

    def test_terminal_argument_not_modified(self):
        grid = GridSpec(-3.0, 3.0, 61, 1)
        terminal = gaussian_bump(grid.x)
        kept = terminal.copy()
        march_backward(terminal, QUAD, 1.0, grid)
        np.testing.assert_array_equal(terminal, kept)

    @pytest.mark.parametrize("spec, calls_per_step", [
        (Quadratic(1.3), 1),
        (PowerLaw(r=1.5, a=0.8), 1),
        (IndicatorInterval(2.0), 1),
        (TimeModulated(base=Quadratic(1.3), weights=(1.0, 2.0, 1.5)), 1),
        (Tabulated(q=tuple(Q), g=tuple(0.5 * Q**2 + 0.2 * np.abs(Q))), 2),
        (TimeModulated(base=Tabulated(q=tuple(Q), g=tuple(0.5 * Q**2)), weights=(1.0, 2.0)), 2),
    ], ids=["quadratic", "power", "indicator", "modulated", "tabulated", "modulated-tabulated"])
    def test_conjugate_evaluations_per_step(self, spec, calls_per_step, monkeypatch):
        # an even cost takes one half-line a step (the Rouy-Tourin flux), a
        # table two; each goes through the module-level evaluator
        calls = []
        evaluate = pde.gen.eval_gstar_halfline

        def counted(*args, **kwargs):
            calls.append(args[3])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(pde.gen, "eval_gstar_halfline", counted)
        grid = GridSpec(-3.0, 3.0, 61, 1)
        terminal = np.stack([np.sin(a * grid.x) for a in (0.5, 1.0, 2.0)])
        _, cfl = march_backward(terminal, spec, 1.0, grid)
        assert len(calls) == calls_per_step * cfl["nt"]
        assert set(calls) == ({+1} if calls_per_step == 1 else {+1, -1})

    def test_memory_independent_of_step_count(self):
        # a stored space-time field would take nt + 1 (961 here) times the
        # terminal's bytes; the march keeps a few rows of scratch
        grid = GridSpec(-3.0, 3.0, 121, 1)
        terminal = np.stack([np.sin(a * grid.x) for a in np.linspace(0.5, 2.0, 64)])
        tracemalloc.start()
        try:
            _, cfl = march_backward(terminal, QUAD, 1.0, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cfl["nt"] > 100
        assert peak < 10 * terminal.nbytes


_STACK_Q = np.linspace(-3.0, 3.0, 61)
STACK_SPECS = {
    "quadratic": Quadratic(1.3),
    "tabulated": Tabulated(q=tuple(_STACK_Q), g=tuple(0.5 * _STACK_Q**2 + 0.2 * np.abs(_STACK_Q))),
    "modulated-tabulated": TimeModulated(
        base=Tabulated(q=tuple(_STACK_Q), g=tuple(0.5 * _STACK_Q**2)), weights=(1.0, 2.0, 1.5)),
}


def _per_row_marches(terminal, spec, sigma2, grid):
    """One single-row march per row, the oracle of a stacked march."""
    rows = [march_backward(t, spec, s, grid)
            for t, s in zip(terminal.reshape(-1, grid.nx), np.ravel(sigma2))]
    return np.reshape([v for v, _ in rows], terminal.shape), [cfl for _, cfl in rows]


class TestStackedViscosity:
    """A per-row ``sigma2`` marches every row in one system; each row is bit
    for bit its own single-row march."""

    SIGMA2 = np.array([[4.0, 1.0, 0.25], [1.0 / 64.0, 0.7, 2.5]])

    @pytest.mark.parametrize("name", sorted(STACK_SPECS))
    @pytest.mark.parametrize("boundary, nx", [
        ("clampToTerminal", 61), ("oneSidedExtrapolation", 61),
        # padded grids, where fewer than two nodes are free
        ("clampToTerminal", 3), ("oneSidedExtrapolation", 4), ("oneSidedExtrapolation", 5),
    ])
    def test_each_row_is_its_single_row_march(self, name, boundary, nx):
        spec = STACK_SPECS[name]
        grid = GridSpec(-3.0, 3.0, nx, 1, boundary)
        x = grid.x
        # rows with different terminals share the step count: grid.nt rules
        terminal = np.stack([np.sin(a * x) + 0.1 * x for a in (0.5, 1.0, 1.5, 2.0, 0.2, 0.9)])
        terminal = terminal.reshape(2, 3, nx)
        grid = GridSpec(-3.0, 3.0, nx, 3 * stable_nt(grid, spec.gstar_lipschitz(20.0)), boundary)
        values, cfl = march_backward(terminal, spec, self.SIGMA2, grid)
        expected, single = _per_row_marches(terminal, spec, self.SIGMA2, grid)
        assert {c["nt"] for c in single} == {cfl["nt"]} == {grid.nt}
        assert np.array_equal(values, expected)
        assert cfl["diffusion_number"].shape == self.SIGMA2.shape
        assert cfl["diffusion_number"].ravel().tolist() == [c["diffusion_number"] for c in single]

    @pytest.mark.parametrize("name", sorted(STACK_SPECS))
    def test_one_terminal_at_many_viscosities(self, name):
        # the sweep's shape: one terminal, a row per viscosity, the step
        # count from the terminal itself
        spec = STACK_SPECS[name]
        grid = GridSpec(-3.0, 3.0, 61, 1)
        sigma2 = 1.0 / np.array([1.0, 2.0, 4.0, 8.0, 64.0])
        terminal = np.broadcast_to(gaussian_bump(grid.x), sigma2.shape + (grid.nx,))
        values, cfl = march_backward(terminal, spec, sigma2, grid)
        expected, single = _per_row_marches(terminal, spec, sigma2, grid)
        assert {c["nt"] for c in single} == {cfl["nt"]}
        assert np.array_equal(values, expected)

    def test_scalar_equals_an_array_of_it(self):
        grid = GridSpec(-3.0, 3.0, 61, 1)
        terminal = np.stack([np.sin(a * grid.x) for a in (0.5, 1.0, 2.0)])
        values, cfl = march_backward(terminal, QUAD, 0.8, grid)
        per_row, _ = march_backward(terminal, QUAD, np.full(3, 0.8), grid)
        assert np.array_equal(values, per_row)
        assert type(cfl["diffusion_number"]) is float

    @settings(max_examples=25, deadline=None)
    @given(sigma2=st.lists(st.floats(1e-4, 1e3), min_size=1, max_size=6),
           boundary=st.sampled_from(["clampToTerminal", "oneSidedExtrapolation"]))
    def test_random_viscosities(self, sigma2, boundary):
        grid = GridSpec(-3.0, 3.0, 41, 1, boundary)
        sigma2 = np.array(sigma2)
        terminal = np.stack([np.sin((1.0 + 0.3 * i) * grid.x) for i in range(sigma2.size)])
        grid = GridSpec(-3.0, 3.0, 41, 200, boundary)
        values, _ = march_backward(terminal, STACK_SPECS["tabulated"], sigma2, grid)
        expected, _ = _per_row_marches(terminal, STACK_SPECS["tabulated"], sigma2, grid)
        assert np.array_equal(values, expected)

    @pytest.mark.parametrize("sigma2", [np.ones(3), np.ones((2, 1)), np.ones((1, 2))])
    def test_sigma2_of_another_shape_rejected(self, sigma2):
        grid = GridSpec(-3.0, 3.0, 21, 1)
        terminal = np.zeros((2, grid.nx))
        with pytest.raises(ValueError, match=r"sigma2 has shape \(.*\), not the terminal's"):
            march_backward(terminal, QUAD, sigma2, grid)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per-row"])
    def test_entry_not_positive_and_finite_rejected(self, bad, per_row):
        grid = GridSpec(-3.0, 3.0, 21, 1)
        terminal = np.zeros((3, grid.nx))
        sigma2 = np.array([1.0, bad, 2.0]) if per_row else bad
        with pytest.raises(ValueError, match="sigma2 must be positive"):
            march_backward(terminal, QUAD, sigma2, grid)

    def test_benchmark_table_steps_by_its_working_range(self):
        # 801 nodes of q^2/2 on [-4, 4]: the step bound comes from the
        # argmax nodes of the terminal's slope range, not from q = +-4
        q = [-4.0 + 8.0 * j / 800 for j in range(801)]
        table = Tabulated(q=tuple(q), g=tuple(0.5 * v * v for v in q))
        grid = GridSpec(-6.0, 6.0, 601, 1)
        terminal = np.exp(-((grid.x - 1.0) ** 2))
        _, tab = march_backward(terminal, table, 1.0, grid)
        _, quad = march_backward(terminal, Quadratic(1.0), 1.0, grid)
        assert (tab["nt"], quad["nt"]) == (173, 172)


def _slopes():
    """Difference quotients of any size and sign, with both zeros."""
    magnitude = st.one_of(
        st.just(0.0),
        st.floats(1e-161, 1e-159),
        st.floats(1e149, 1e151),
        st.floats(1e-3, 1e3),
        st.floats(0.0, 1e300),
    )
    signed = st.tuples(magnitude, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])
    return st.integers(2, 24).flatmap(
        lambda n: st.lists(signed, min_size=2 * n, max_size=2 * n)
    ).map(lambda vals: np.array(vals).reshape(2, -1))


FLUX_SPECS = {
    "quadratic-0.5": Quadratic(0.5),
    "quadratic-1": Quadratic(1.0),
    "quadratic-3": Quadratic(3.0),
    "power-1.5": PowerLaw(r=1.5),
    "power-3": PowerLaw(r=3.0, a=0.7),
    "indicator": IndicatorInterval(1.7),
    "modulated-quadratic": TimeModulated(base=Quadratic(1.3), weights=(1.0, 2.0, 1.5)),
    "modulated-power": TimeModulated(base=PowerLaw(r=1.5), weights=(0.7, 2.0)),
    "tabulated": Tabulated(q=tuple(TestMarchBackward.Q), g=tuple(
        0.5 * TestMarchBackward.Q**2 + 0.2 * np.abs(TestMarchBackward.Q))),
}


class TestHamiltonian:
    @pytest.mark.parametrize("name", sorted(FLUX_SPECS))
    @settings(max_examples=50, deadline=None)
    @given(slope=_slopes(), t=st.floats(0.0, 1.0))
    def test_flux_is_the_two_sided_upwind_maximum_bit_for_bit(self, name, slope, t):
        self.check_flux(FLUX_SPECS[name], slope, t)

    @pytest.mark.parametrize("name", sorted(FLUX_SPECS))
    def test_flux_bit_for_bit_on_a_wide_sample(self, name):
        # 200 000 slopes log-uniform over 330 decades, either sign, and zeros
        rng = np.random.default_rng(7)
        shape = (8, 25_001)
        slope = np.sign(rng.uniform(-1.0, 1.0, shape)) * 10.0 ** rng.uniform(-170, 160, shape)
        slope[:, ::97] = 0.0
        slope[:, 1::89] = -0.0
        self.check_flux(FLUX_SPECS[name], slope, 0.6)

    @staticmethod
    def check_flux(spec, slope, t):
        # the march's views: D-v and D+v overlap in one array of slopes
        dminus, dplus = slope[:, :-1], slope[:, 1:]
        kept = slope.copy()
        out, work = np.empty_like(dplus), np.empty_like(dplus)
        with np.errstate(over="ignore"):
            reference = np.maximum(eval_gstar_halfline(spec, t, dplus, +1),
                                   eval_gstar_halfline(spec, t, dminus, -1))
            flux = pde._hamiltonian(spec, t, dminus, dplus, out, work)
        assert flux is out
        assert flux.tobytes() == reference.tobytes()
        assert slope.tobytes() == kept.tobytes()


class TestHopfLax:
    def test_value_and_index_match_one_shot(self):
        y = np.linspace(-6.0, 6.0, 3001)
        # the bump's maximiser is inside the grid, the ramp's at the last node
        for f in (gaussian_bump, lambda s: 2.0 * s):
            for g in (QUAD, FLUX_SPECS["tabulated"], PowerLaw(r=1.5)):
                for t, x in ((0.0, 0.0), (0.25, 5.0)):
                    horizon = 1.0 - t
                    vals = f(y) - horizon * g.cost(t, (y - x) / horizon)
                    assert hopf_lax(f, g, t, x, y) == float(np.max(vals))
                    value, i = hopf_lax(f, g, t, x, y, return_index=True)
                    assert value == float(np.max(vals)) and i == int(np.argmax(vals))

    def test_nan_propagates_with_its_index(self):
        y = np.linspace(-6.0, 6.0, 1001)

        def f(s):
            vals = gaussian_bump(s)
            vals[s == y[-3]] = np.nan
            return vals

        assert math.isnan(hopf_lax(f, QUAD, 0.0, 0.0, y))
        value, i = hopf_lax(f, QUAD, 0.0, 0.0, y, return_index=True)
        assert math.isnan(value) and i == y.size - 3

    def test_constant_function(self):
        y = np.linspace(-5, 5, 1001)
        val = hopf_lax(lambda x: np.full(np.shape(x), 2.0), QUAD, 0.0, 0.0, y)
        assert val == pytest.approx(2.0)

    def test_terminal_time_returns_f(self):
        y = np.linspace(-5, 5, 101)
        val = hopf_lax(gaussian_bump, QUAD, 1.0, 0.3, y)
        assert val == pytest.approx(float(gaussian_bump(0.3)))
        with pytest.raises(ValueError, match="return_index"):
            hopf_lax(gaussian_bump, QUAD, 1.0, 0.3, y, return_index=True)

    def test_supremum_property_on_grid(self):
        y = np.linspace(-6, 6, 3001)
        val = hopf_lax(gaussian_bump, QUAD, 0.0, 0.0, y)
        cand = gaussian_bump(y) - 0.5 * y * y
        assert np.all(val >= cand - 1e-12)
        assert val == pytest.approx(float(cand.max()))

    def test_gaussian_bump_dense_oracle(self):
        # frozen from a 1e-5-step search of sup_y exp(-(y-1)^2) - y^2/2
        y = np.arange(-6.0, 6.0 + 1e-5, 1e-5)
        val = hopf_lax(gaussian_bump, QUAD, 0.0, 0.0, y)
        assert val == pytest.approx(0.6736590396860448, abs=1e-9)

    def test_rejects_time_dependent_cost(self):
        g = TimeModulated(base=Quadratic(1.0), weights=(1.0, 2.0))
        with pytest.raises(ValueError, match="time-independent"):
            hopf_lax(gaussian_bump, g, 0.0, 0.0, np.linspace(-1, 1, 11))

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            hopf_lax(gaussian_bump, QUAD, 0.0, 0.0, [])

    def test_indicator_restricts_search(self):
        y = np.arange(-3.0, 3.0 + 1e-4, 1e-4)
        val = hopf_lax(gaussian_bump, IndicatorInterval(0.5), 0.0, 0.0, y)
        # only |y| <= 0.5 reachable; best is y = 0.5 up to the grid step
        assert val == pytest.approx(float(gaussian_bump(0.5)), abs=2e-4)
        assert val <= float(gaussian_bump(0.5)) + 1e-12


def search_grid(grid, y_step):
    """The Hopf-Lax search grid: np.arange's points from x_min in steps of
    y_step that lie below x_max, then x_max itself."""
    y = np.arange(grid.x_min, grid.x_max + y_step, y_step)
    return np.append(y[y < grid.x_max], grid.x_max)


def traced_sweep(*args, **kwargs):
    """The sweep's rows and its two trace records: the Hopf-Lax search, then
    the one march of every n."""
    with recording() as trace:
        rows = vanishing_viscosity_sweep(*args, **kwargs)
    search, march = trace
    assert (search["solver"], march["solver"]) == ("vanishing_viscosity_sweep", "march_backward")
    return rows, search, march


class TestMaximizeOnLine:
    @staticmethod
    def first_max(f):
        def value(points):
            vals = f(np.asarray(points, dtype=float))
            i = int(np.argmax(vals))
            return float(vals[i]), i
        return value

    @pytest.mark.parametrize("peak", [0.0, 1e-9, 0.37, -2.5])
    def test_converges_wherever_the_peak_lies(self, peak):
        # near 0 floats are finer than the step cap's bracket, so the search
        # runs all 80 steps there; the bracket still sits at resolution
        res = pde.maximize_on_line(self.first_max(lambda y: -(y - peak) ** 2), -4.0, 4.0, 1e-3)
        assert res.converged and res.value <= 0.0
        assert res.bracket_width <= 1e-12 * max(1.0, abs(peak))
        assert abs(res.point - peak) < 1e-7

    def test_flat_top_at_0_converges(self):
        # every point within ~1e-8 of 0 ties; the search keeps the first
        res = pde.maximize_on_line(self.first_max(lambda y: np.exp(-y * y)), -1.0, 1.0, 1e-3)
        assert (res.value, res.converged) == (1.0, True)

    def test_nan_does_not_converge(self):
        res = pde.maximize_on_line(self.first_max(lambda y: np.where(y > 0.5, np.nan, -y * y)),
                                   -1.0, 1.0, 1e-3)
        assert math.isnan(res.value) and not res.converged


class TestViscositySweep:
    def test_constant_terminal_all_gaps_tiny(self):
        grid = GridSpec(-4.0, 4.0, 201, 1)
        rows = vanishing_viscosity_sweep(
            lambda x: np.zeros(np.shape(x)), QUAD, [1, 4, 16], grid, y_step=1e-3
        )
        for _, _, _, gap in rows:
            assert gap <= 1e-9

    @pytest.mark.parametrize("y_step", [0.0, -1e-3, 1e-9])
    def test_bad_search_step_rejected_before_allocating(self, y_step):
        # 1e-9 on a width-8 grid would ask np.arange for 8e9 points (60 GiB)
        grid = GridSpec(-4.0, 4.0, 41, 1)
        with pytest.raises(ValueError, match="y_step"):
            vanishing_viscosity_sweep(gaussian_bump, QUAD, [1], grid, y_step=y_step)

    def test_empty_n_list_rejected(self):
        with pytest.raises(ValueError, match="at least one n"):
            vanishing_viscosity_sweep(gaussian_bump, QUAD, [], GridSpec(-4.0, 4.0, 41, 1))

    SEARCH_GRID = GridSpec(-3.0, 3.0, 31, 1)
    # smooth costs: a y_step / 100 search is within 1e-9 of the sup for
    # bumps of width >= 0.1; the others have a kink or a wall at the max
    SEARCH_COSTS = {"quadratic": (QUAD, True), "power-3": (FLUX_SPECS["power-3"], True),
                    "power-1.5": (FLUX_SPECS["power-1.5"], False),
                    "indicator": (IndicatorInterval(1.5), False),
                    "tabulated": (FLUX_SPECS["tabulated"], False)}

    @settings(max_examples=60, deadline=None)
    @given(center=st.floats(-2.5, 2.5), width=st.floats(0.1, 2.0),
           cost=st.sampled_from(sorted(SEARCH_COSTS)), y_step=st.sampled_from([2.5e-4, 5e-4]))
    def test_limit_is_refined_grid_search(self, center, width, cost, y_step):
        g, smooth = self.SEARCH_COSTS[cost]

        def f(s):
            return np.exp(-(((np.asarray(s, dtype=float) - center) / width) ** 2))

        grid = self.SEARCH_GRID
        rows, search, _ = traced_sweep(f, g, [1], grid, y_step=y_step)
        limit = rows[0][2]
        y = search_grid(grid, y_step)
        vals = f(y) - g.cost(0.0, y)
        dense, i = float(np.max(vals)), int(np.argmax(vals))
        assert search["grid_points"] == y.size and search["grid_max"] == dense
        assert limit == max(dense, search["refined_max"]) and limit >= dense
        # the refinement brackets the two cells around the grid maximiser
        lo, hi = y[max(i - 1, 0)], y[min(i + 1, y.size - 1)]
        assert search["bracket"] == [lo, hi]
        assert 0.0 <= search["bracket_width"] <= 1e-12
        local = np.linspace(lo, hi, 201)
        local_max = float(np.max(f(local) - g.cost(0.0, local)))
        assert limit >= local_max - 1e-12
        if smooth:
            assert limit <= local_max + 1e-9

    def test_default_search_evaluates_grid_once_and_few_more_points(self):
        grid = GridSpec(-6.0, 6.0, 61, 1)
        calls = []

        def f(s):
            calls.append(np.size(s))
            return gaussian_bump(s)

        _, search, _ = traced_sweep(f, QUAD, [1, 4], grid)
        assert search["y_step"] == 1e-3
        # one call on the march's terminal row, one on the whole search grid
        assert sorted(calls)[-2:] == [grid.nx, search_grid(grid, 1e-3).size] == [61, 12_001]
        assert sum(calls) - grid.nx <= 12_001 + 200
        # then one call on each golden step's two interior points
        steps = search["golden_iterations"]
        assert sorted(calls)[:-2] == [2] * (1 + steps)

    @pytest.mark.parametrize("x_max, y_step", [(1.0, 1e-3), (6.0, 1e-3), (5.65, 1e-3),
                                               (3.0, 5e-4)])
    def test_search_stays_on_the_domain(self, x_max, y_step):
        # f - g peaks 0.4 y_step beyond x_max, where np.arange(x_min,
        # x_max + y_step, y_step) puts search points; on the domain f - g
        # rises to x_max, so the limit is its value there
        peak = x_max + 0.4 * y_step
        grid = GridSpec(-x_max, x_max, 41, 1)

        def f(s):
            return 50.0 * np.exp(-(((np.asarray(s, dtype=float) - peak) / 0.01) ** 2))

        seen = []

        def recorded(s):
            seen.append(np.array(s, dtype=float, copy=True))
            return f(s)

        rows, search, _ = traced_sweep(recorded, QUAD, [1], grid, y_step=y_step)
        edge = hopf_lax(f, QUAD, 0.0, 0.0, [x_max])
        assert rows[0][2] == pytest.approx(edge, rel=1e-14)
        assert hopf_lax(f, QUAD, 0.0, 0.0, [peak]) > edge + 1e-4
        searched = np.concatenate(seen)
        assert searched.max() == x_max and searched.min() >= -x_max
        assert search["bracket"][1] == x_max
        assert search["grid_points"] == search_grid(grid, y_step).size

    def test_nan_on_search_grid_propagates(self):
        grid = GridSpec(-4.0, 4.0, 41, 1)
        y = search_grid(grid, 1e-3)

        def f(s):
            vals = gaussian_bump(s)
            vals[s == y[2500]] = np.nan  # off the march's grid
            return vals

        rows, search, _ = traced_sweep(f, QUAD, [1, 4], grid, y_step=1e-3)
        assert all(math.isfinite(u) for _, u, _, _ in rows)
        assert all(math.isnan(limit) and math.isnan(gap) for _, _, limit, gap in rows)
        assert math.isnan(search["grid_max"])

    @pytest.mark.parametrize("spec", [QUAD, STACK_SPECS["tabulated"]],
                             ids=["quadratic", "tabulated"])
    def test_one_march_for_all_n_each_row_its_own_solve(self, spec, monkeypatch):
        calls = []
        march = pde.march_backward

        def counted(terminal, *args, **kwargs):
            calls.append(np.shape(terminal))
            return march(terminal, *args, **kwargs)

        monkeypatch.setattr(pde, "march_backward", counted)
        grid = GridSpec(-3.0, 3.0, 121, 1)
        n_list = [64, 1, 2, 4, 8, 16, 32]
        rows, search, record = traced_sweep(gaussian_bump, spec, n_list, grid, y_step=1e-3)
        assert calls == [(7, grid.nx)]
        monkeypatch.setattr(pde, "march_backward", march)
        assert list(record) == ["solver", "at_s", "rows", "nt", "dt", "dx", "lipschitz",
                                "minimal_nt", "diffusion_number"]
        # the march's rows follow the sweep's ascending n, one diffusion number each
        assert search["n_list"] == [n for n, *_ in rows] == sorted(n_list)
        assert record["rows"] == len(record["diffusion_number"]) == 7
        steps = {k: record[k] for k in ("nt", "dt", "dx", "lipschitz", "minimal_nt")}
        for (n, u, _, _), r in zip(rows, record["diffusion_number"], strict=True):
            single, single_steps = solve_traced(gaussian_bump, spec, 1.0 / n, grid)
            assert u == single.initial_value_at_origin
            assert single_steps == {**steps, "diffusion_number": r}
            assert type(r) is float
            assert r == 0.5 * (1.0 / n) * record["dt"] / record["dx"] ** 2

    def test_gaussian_bump_gaps_shrink(self):
        grid = GridSpec(-6.0, 6.0, 1201, 1)
        rows = vanishing_viscosity_sweep(gaussian_bump, QUAD, [1, 2, 4, 8, 16, 32, 64], grid)
        assert [row[0] for row in rows] == [1, 2, 4, 8, 16, 32, 64]
        gaps = {n: gap for n, _, _, gap in rows}
        assert gaps[64] <= 5e-2
        tail = [gaps[n] for n in (4, 8, 16, 32, 64)]
        assert all(a >= b for a, b in zip(tail, tail[1:]))

    def test_indicator_limit_is_constrained_sup(self):
        grid = GridSpec(-6.0, 6.0, 1201, 1)
        rows = vanishing_viscosity_sweep(gaussian_bump, IndicatorInterval(1.0), [64, 4, 16],
                                         grid)
        # independent constrained grid search
        y = np.arange(-1.0, 1.0 + 1e-6, 1e-6)
        target = float(gaussian_bump(y).max())
        assert [row[0] for row in rows] == [4, 16, 64]  # ascending n, whatever the input order
        _, _, limit, gap = rows[-1]
        assert limit == pytest.approx(target, abs=1e-9)
        assert gap <= 2e-2


class TestTerminalMixture:
    """An initial-law mixture of PDE values, sum_x mu(x) v(0, x), read off one
    solve at atoms away from the origin."""

    def test_weighted_sum_against_per_atom_monte_carlo(self):
        # per-atom oracle: log mean exp of f(x + W(1)) by direct simulation
        from driftlab.montecarlo import PathBatch, log_mean_exp
        from driftlab.variational import TerminalValue

        grid = GridSpec(-8.0, 8.0, 1601, 1)
        atoms, weights = (0.0, 0.5), (0.3, 0.7)
        fld = solve_semilinear(gaussian_bump, QUAD, 1.0, grid)
        val = sum(weight * fld.value(atom) for atom, weight in zip(atoms, weights))
        total = 0.0
        total_se = 0.0
        for atom, weight in zip(atoms, weights):
            F = TerminalValue(lambda x, a=atom: gaussian_bump(np.asarray(x) + a))
            est, se = log_mean_exp(F, 1.0, PathBatch(n_steps=8, n_paths=400_000, seed=71))
            total += weight * est
            total_se += weight * se
        assert abs(val - total) <= 3 * total_se + 1e-3
