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
from driftlab.sanov import gauss_mean

QUAD = Quadratic(1.0)


def gaussian_bump(x):
    return np.exp(-((np.asarray(x, dtype=float) - 1.0) ** 2))


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
        raised = solve_semilinear(gaussian_bump, QUAD, 1.0, GridSpec(-8.0, 8.0, 321, 5)).cfl
        assert raised["nt"] == raised["minimal_nt"] > 5
        above = raised["minimal_nt"] + 7
        kept = solve_semilinear(gaussian_bump, QUAD, 1.0, GridSpec(-8.0, 8.0, 321, above)).cfl
        assert kept["nt"] == above and kept["minimal_nt"] == raised["minimal_nt"]

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
        counts = {solve_semilinear(gaussian_bump, QUAD, s2, grid).cfl["nt"]
                  for s2 in (1.0 / 64, 1.0, 64.0)}
        assert len(counts) == 1

    def test_step_count_grows_linearly_in_nx(self):
        nts = [solve_semilinear(gaussian_bump, QUAD, 1.0, GridSpec(-6.0, 6.0, nx, 1)).cfl["nt"]
               for nx in (301, 601, 1201)]
        for coarse, fine in zip(nts, nts[1:]):
            assert 1.8 <= fine / coarse <= 2.2

    def test_comparison_principle_at_large_diffusion_number(self):
        # r = sigma^2 dt / (2 dx^2) far above the explicit limit 1/2
        grid = GridSpec(-8.0, 8.0, 801, 1)
        f1 = lambda x: np.tanh(np.asarray(x, dtype=float))
        f2 = lambda x: np.tanh(np.asarray(x, dtype=float)) + 0.3 * np.exp(-np.asarray(x) ** 2)
        v1 = solve_semilinear(f1, QUAD, 4.0, grid)
        v2 = solve_semilinear(f2, QUAD, 4.0, grid)
        assert v1.cfl["diffusion_number"] > 10
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
    def test_chunked_search_matches_one_shot(self):
        y = np.linspace(-6.0, 6.0, 3 * pde._HOPF_LAX_CHUNK + 17)
        # the bump's maximiser is in an inner chunk, the ramp's at the last node
        for f in (gaussian_bump, lambda s: 2.0 * s):
            for g in (QUAD, FLUX_SPECS["tabulated"], PowerLaw(r=1.5)):
                for t, x in ((0.0, 0.0), (0.25, 5.0)):
                    horizon = 1.0 - t
                    one_shot = float(np.max(f(y) - horizon * g.cost(t, (y - x) / horizon)))
                    assert hopf_lax(f, g, t, x, y) == one_shot

    def test_nan_in_a_later_chunk_propagates(self):
        y = np.linspace(-6.0, 6.0, 2 * pde._HOPF_LAX_CHUNK + 5)

        def f(s):
            vals = gaussian_bump(s)
            vals[s == y[-3]] = np.nan
            return vals

        assert math.isnan(hopf_lax(f, QUAD, 0.0, 0.0, y))

    def test_constant_function(self):
        y = np.linspace(-5, 5, 1001)
        val = hopf_lax(lambda x: np.full(np.shape(x), 2.0), QUAD, 0.0, 0.0, y)
        assert val == pytest.approx(2.0)

    def test_terminal_time_returns_f(self):
        y = np.linspace(-5, 5, 101)
        val = hopf_lax(gaussian_bump, QUAD, 1.0, 0.3, y)
        assert val == pytest.approx(float(gaussian_bump(0.3)))

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


class TestViscositySweep:
    def test_constant_terminal_all_gaps_tiny(self):
        grid = GridSpec(-4.0, 4.0, 201, 1)
        rows, _ = vanishing_viscosity_sweep(
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

    @pytest.mark.parametrize("x_min, x_max, y_step",
                             [(-6.0, 6.0, 1e-5), (-4.0, 4.0, 1e-3), (-4.0, 4.0, 1e-4)])
    def test_search_chunks_are_np_arange(self, x_min, x_max, y_step):
        chunks = list(pde._search_chunks(x_min, x_max, y_step))
        assert all(c.size == pde._HOPF_LAX_CHUNK for c in chunks[:-1])
        whole = np.arange(x_min, x_max + y_step, y_step)
        assert np.concatenate(chunks).tobytes() == whole.tobytes()

    def test_gaussian_bump_gaps_shrink(self):
        grid = GridSpec(-6.0, 6.0, 1201, 1)
        rows, _ = vanishing_viscosity_sweep(gaussian_bump, QUAD, [1, 2, 4, 8, 16, 32, 64], grid)
        assert [row[0] for row in rows] == [1, 2, 4, 8, 16, 32, 64]
        gaps = {n: gap for n, _, _, gap in rows}
        assert gaps[64] <= 5e-2
        tail = [gaps[n] for n in (4, 8, 16, 32, 64)]
        assert all(a >= b for a, b in zip(tail, tail[1:]))

    def test_indicator_limit_is_constrained_sup(self):
        grid = GridSpec(-6.0, 6.0, 1201, 1)
        rows, _ = vanishing_viscosity_sweep(gaussian_bump, IndicatorInterval(1.0), [64, 4, 16],
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
