"""Discrete measures, exact transport, Sinkhorn bridge, drift-field solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.stats import wasserstein_distance

from driftlab.generators import (
    IndicatorInterval,
    PowerLaw,
    Quadratic,
    Tabulated,
)
from driftlab.schrodinger import (
    DiscreteMeasure,
    TransportInstance,
    _lse,
    _march_kernel,
    _transport_objective,
    heat_kernel_matrix,
    log_heat_kernel_matrix,
    make_state_grid,
    mollify,
    ot_oracle,
    sinkhorn_bridge,
    small_noise_sweep,
    solve_transport,
)


def linprog_transport(a, b, cost):
    m, n = cost.shape
    rows = []
    for i in range(m):
        row = np.zeros((m, n))
        row[i, :] = 1
        rows.append(row.ravel())
    for j in range(n):
        row = np.zeros((m, n))
        row[:, j] = 1
        rows.append(row.ravel())
    res = linprog(cost.ravel(), A_eq=np.array(rows), b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    return res.fun


class TestDiscreteMeasure:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteMeasure(support=(0.0, 1.0), weights=(0.5, 0.6))

    @pytest.mark.parametrize("support, weights, match", [
        ((0.0, 1.0), (math.nan, 1.0), "weights must be finite"),
        ((0.0, 1.0), (math.inf, 0.0), "weights must be finite"),
        ((0.0, math.nan), (0.5, 0.5), "support must be finite"),
        ((-math.inf, 1.0), (0.5, 0.5), "support must be finite"),
    ])
    def test_non_finite_rejected(self, support, weights, match):
        with pytest.raises(ValueError, match=match):
            DiscreteMeasure(support=support, weights=weights)

    def test_moments(self):
        m = DiscreteMeasure(support=(0.0, 2.0), weights=(0.5, 0.5))
        assert m.mean() == 1.0
        assert m.variance() == 1.0


class TestMollify:
    def test_point_mass_becomes_gaussian(self):
        grid = make_state_grid(DiscreteMeasure.point(0.0), DiscreteMeasure.point(0.0), 0.04)
        out, loss = mollify(DiscreteMeasure.point(0.0), 0.04, grid)
        step = grid[1] - grid[0]
        assert abs(out.mean()) <= step
        assert out.variance() == pytest.approx(0.04, abs=2 * step * step)
        assert loss < 1e-6

    def test_two_atom_weights_preserved(self):
        nu = DiscreteMeasure(support=(-1.0, 1.0), weights=(0.3, 0.7))
        grid = make_state_grid(nu, nu, 0.01)
        out, _ = mollify(nu, 0.01, grid)
        left = sum(w for x, w in zip(out.support, out.weights) if x < 0)
        assert left == pytest.approx(0.3, abs=1e-12)

    def test_atoms_sharing_a_nearest_node_each_keep_one(self):
        # 1e-4 apart on a grid of step about 0.08, both atoms are nearest one node
        mu = DiscreteMeasure(support=(0.0, 1.0e-4), weights=(0.5, 0.5))
        grid = make_state_grid(mu, DiscreteMeasure.point(1.0), 0.1)
        assert {0.0, 1.0e-4, 1.0} <= set(grid.tolist())
        assert np.all(np.diff(grid) > 0)

    def test_w1_shrinks_monotonically(self):
        nu = DiscreteMeasure(support=(0.0, 1.0), weights=(0.4, 0.6))
        grid = make_state_grid(nu, nu, 0.1)
        dists = []
        for eps in (0.1, 0.05, 0.02, 0.01, 0.005):
            out, _ = mollify(nu, eps, grid)
            dists.append(
                wasserstein_distance(out.support, nu.support, out.weights, nu.weights)
            )
        assert all(a >= b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 0.06

    def test_narrow_grid_rejected(self):
        grid = np.linspace(-0.1, 0.1, 11)
        with pytest.raises(ValueError, match="narrow"):
            mollify(DiscreteMeasure.point(1.0), 0.01, grid)


ORACLE_ATOMS = [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]
_TABLE_Q = np.linspace(-4.0, 4.0, 9)
# every convex cost a transport instance accepts, the table covering every
# displacement between lattice atoms
ORACLE_COSTS = [
    Quadratic(1.0),
    PowerLaw(r=1.5, a=1.0),
    PowerLaw(r=3.0, a=1.0),
    Tabulated(q=tuple(_TABLE_Q), g=tuple(0.5 * _TABLE_Q ** 2 + 0.1 * np.abs(_TABLE_Q))),
]


class TestOtOracle:
    def test_single_pair(self):
        v, plan = ot_oracle(DiscreteMeasure.point(0.0), DiscreteMeasure.point(1.0), Quadratic(1.0))
        assert v == pytest.approx(0.5)

    def test_identity_coupling_zero_cost(self):
        m = DiscreteMeasure(support=(0.0, 1.0), weights=(0.5, 0.5))
        v, _ = ot_oracle(m, m, PowerLaw(r=1.5, a=1.0))
        assert v == pytest.approx(0.0, abs=1e-14)

    def test_two_atom_enumeration(self):
        # both permutation couplings evaluated by hand; monotone wins with 1
        mu = DiscreteMeasure(support=(0.0, 2.0), weights=(0.5, 0.5))
        nu = DiscreteMeasure(support=(1.0, 3.0), weights=(0.5, 0.5))
        g = PowerLaw(r=1.5, a=1.0)
        keep = 0.5 * 1.0 + 0.5 * 1.0
        swap = 0.5 * 3.0 ** 1.5 + 0.5 * 1.0
        v, _ = ot_oracle(mu, nu, g)
        assert v == pytest.approx(min(keep, swap))

    def test_infinite_cost_instance(self):
        mu = DiscreteMeasure.point(0.0)
        nu = DiscreteMeasure.point(3.0)
        v, _ = ot_oracle(mu, nu, IndicatorInterval(1.0))
        assert v == math.inf

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), g=st.sampled_from(ORACLE_COSTS))
    def test_matches_linprog_with_a_monotone_plan(self, data, g):
        # atoms on a coarse lattice, so the two sides share atoms; zero
        # weights are drawn as often as any other
        def measure():
            atoms = data.draw(st.lists(st.sampled_from(ORACLE_ATOMS), min_size=1, max_size=8))
            w = np.asarray(data.draw(st.lists(st.integers(0, 3), min_size=len(atoms),
                                              max_size=len(atoms))), dtype=float)
            w[data.draw(st.integers(0, len(atoms) - 1))] += 1.0
            return DiscreteMeasure.from_arrays(atoms, w, renormalize=True)

        mu, nu = measure(), measure()
        xs, ys = np.asarray(mu.support), np.asarray(nu.support)
        cost = g.cost(0.0, ys[None, :] - xs[:, None])
        v, plan = ot_oracle(mu, nu, g)
        assert v == pytest.approx(
            linprog_transport(np.asarray(mu.weights), np.asarray(nu.weights), cost), abs=1e-9)
        px, py, pm = (np.array(c) for c in zip(*plan))
        for side, atoms, weights in ((px, xs, mu.weights), (py, ys, nu.weights)):
            for atom in atoms:
                assert pm[side == atom].sum() == pytest.approx(
                    np.sum(np.asarray(weights)[atoms == atom]), abs=1e-12)
        assert np.all(np.diff(px) >= 0) and np.all(np.diff(py) >= 0)


class TestSinkhorn:
    TWO_ATOMS = DiscreteMeasure(support=(0.0, 2.0), weights=(0.5, 0.5))
    SHIFTED = DiscreteMeasure(support=(1.0, 3.0), weights=(0.5, 0.5))

    def test_stay_put_value_vanishes(self):
        for eps in (0.1, 0.01):
            inst = TransportInstance(
                mu=DiscreteMeasure.point(0.0), nu=DiscreteMeasure.point(0.0),
                g=Quadratic(1.0), epsilon=eps,
            )
            sol = sinkhorn_bridge(inst)
            assert sol.value <= eps * 1.0
            assert sol.value >= -1e-12

    def test_point_to_point_converges_to_half(self):
        for eps in (0.1, 0.01, 1e-3):
            inst = TransportInstance(
                mu=DiscreteMeasure.point(0.0), nu=DiscreteMeasure.point(1.0),
                g=Quadratic(1.0), epsilon=eps,
            )
            sol = sinkhorn_bridge(inst)
            assert sol.converged
            assert abs(sol.value - 0.5) <= 2e-2

    def test_marginal_feasibility(self):
        inst = TransportInstance(
            mu=DiscreteMeasure(support=(0.0, 0.5), weights=(0.3, 0.7)),
            nu=DiscreteMeasure.point(1.0), g=Quadratic(1.0), epsilon=0.05,
        )
        sol = sinkhorn_bridge(inst)
        pi = sol.coupling
        assert np.max(np.abs(pi.sum(axis=1) - inst.mu.weights)) < 1e-9
        assert np.max(np.abs(pi.sum(axis=0) - np.asarray(inst.target.weights))) < 1e-9

    def test_step_count_bounded_at_small_eps(self):
        mu = DiscreteMeasure(support=(0.0, 0.15), weights=(0.5, 0.5))
        nu = DiscreteMeasure(support=(0.9, 1.1), weights=(0.5, 0.5))
        inst = TransportInstance(mu=mu, nu=nu, g=Quadratic(1.0), epsilon=0.004)
        sol = sinkhorn_bridge(inst)
        assert sol.converged
        assert 1 <= sol.iterations <= 25

    @pytest.mark.parametrize("eps", [0.03, 0.01])
    def test_small_eps_converges(self, eps):
        # the Sinkhorn loop stopped at its 20000-iteration cap here with
        # marginal errors of 3.9e-5 and 7.1e-5
        inst = TransportInstance(mu=self.TWO_ATOMS, nu=self.SHIFTED, g=Quadratic(1.0),
                                 epsilon=eps)
        sol = sinkhorn_bridge(inst)
        assert sol.converged
        assert sol.marginal_error < 1e-9
        assert abs(sol.value - 0.5) <= 5e-3

    def test_step_cap_ends_unconverged(self):
        inst = TransportInstance(mu=self.TWO_ATOMS, nu=self.SHIFTED, g=Quadratic(1.0),
                                 epsilon=0.03)
        sol = sinkhorn_bridge(inst, max_iter=2)
        assert sol.iterations == 2
        assert not sol.converged and not sol.feasible
        assert 1e-9 <= sol.marginal_error < 1.0

    @pytest.mark.parametrize("mu, nu, eps", [
        # at u = 0 nearly every cell belongs wholly to one source, so the
        # gauged Hessian is tiny and the first step far too long
        (TWO_ATOMS, SHIFTED, 1e-6),
        # one Hessian entry is exactly zero, so only the shift makes the
        # system solvable; its long step overshoots both kinks of a plateau
        # of the semi-dual, and cutting on while F rises lands between them
        (DiscreteMeasure(support=(0.0, 1.0, 2.0), weights=(1 / 3, 1 / 3, 1 / 3)),
         DiscreteMeasure(support=(0.5, 40.0, 80.0), weights=(1 / 3, 1 / 3, 1 / 3)), 1e-3),
    ], ids=["near-singular-hessian", "plateau"])
    def test_underflowing_rows_converge(self, mu, nu, eps):
        inst = TransportInstance(mu=mu, nu=nu, g=Quadratic(1.0),
                                 epsilon=eps)
        sol = sinkhorn_bridge(inst)
        assert sol.converged and sol.marginal_error < 1e-9
        assert sol.backtracks > 0

    def test_multiscale_instance_ends_unconverged_without_raising(self):
        # sources 50 apart feeding targets 0.1 apart, mollified onto the
        # 1500-node state grid: the kernel's log gaps span 1e4 to 1e6, whole
        # rows of the coupling underflow and the Newton system is singular
        # but for its shift (the raw 3-atom target converges in 19 steps)
        inst = TransportInstance(
            mu=DiscreteMeasure(support=(-50.0, 0.0, 50.0), weights=(0.25, 0.25, 0.5)),
            nu=DiscreteMeasure(support=(0.0, 0.1, 0.2), weights=(0.25, 0.25, 0.5)),
            g=Quadratic(1.0), epsilon=1e-3, mollified=True)
        assert len(inst.target.support) == 1500
        sol = sinkhorn_bridge(inst)
        assert not sol.converged
        assert math.isfinite(sol.value)
        assert 1e-9 <= sol.marginal_error < 1.0

    def test_rejects_non_quadratic(self):
        inst = TransportInstance(
            mu=DiscreteMeasure.point(0.0), nu=DiscreteMeasure.point(1.0),
            g=PowerLaw(r=1.5, a=1.0), epsilon=0.1,
        )
        with pytest.raises(ValueError, match="quadratic"):
            sinkhorn_bridge(inst)


def reference_lse(arr, axis):
    m = np.max(arr, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(arr - m), axis=axis))


def reference_sinkhorn(instance, tol=1e-9, max_iter=20000):
    """The log-domain Sinkhorn iteration written out plainly, masks on every
    step; returns (value, coupling, iterations, marginal error, converged)."""
    eps = instance.epsilon
    mu, target = instance.mu, instance.target
    with np.errstate(divide="ignore"):
        log_k = log_heat_kernel_matrix(np.asarray(mu.support), np.asarray(target.support), eps)
        log_r = np.log(np.asarray(mu.weights))[:, None] + log_k
        log_a = np.log(np.asarray(mu.weights))
        log_b = np.log(np.asarray(target.weights))
    has_a = np.asarray(mu.weights) > 0
    has_b = np.asarray(target.weights) > 0
    u = np.where(has_a, 0.0, -np.inf)
    v = np.where(has_b, 0.0, -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            u = np.where(has_a, log_a - reference_lse(log_r + v[None, :], axis=1), -np.inf)
            v = np.where(has_b, log_b - reference_lse(log_r + u[:, None], axis=0), -np.inf)
            log_pi = log_r + u[:, None] + v[None, :]
            pi = np.exp(np.where(np.isnan(log_pi), -np.inf, log_pi))
            err = max(float(np.max(np.abs(pi.sum(axis=1) - mu.weights))),
                      float(np.max(np.abs(pi.sum(axis=0) - target.weights))))
            if err < tol:
                break
    mask = pi > 0
    entropy = float(np.sum(pi[mask] * (np.log(pi[mask]) - log_r[mask])))
    return instance.g.c * eps * entropy, pi, it, err, err < tol


def _many_source_atoms():
    rng = np.random.default_rng(5)
    w = rng.random(40)
    return DiscreteMeasure.from_arrays(np.sort(rng.uniform(-1.0, 1.0, 40)), w / w.sum())


class TestSinkhornAgreement:
    """The Newton solve against the plain Sinkhorn iteration as the oracle.

    The oracle runs to a marginal error of 1e-11, so its own value error
    (potentials times marginal error) stays well inside the 1e-8 bound."""

    MU = DiscreteMeasure(support=(0.0, 2.0), weights=(0.5, 0.5))

    @pytest.mark.parametrize("instance", [
        TransportInstance(
            mu=MU, nu=DiscreteMeasure(support=(1.0, 2.5), weights=(0.25, 0.75)),
            g=Quadratic(1.3), epsilon=0.1),
        # source 0 reaches the cell of target 3 with mass 1e-8 only, so the
        # oracle contracts slowly: about 40000 iterations
        TransportInstance(
            mu=MU, nu=DiscreteMeasure(support=(1.0, 2.0, 3.0), weights=(0.5, 0.0, 0.5)),
            g=Quadratic(1.0), epsilon=0.2, mollified=False),
        TransportInstance(
            mu=DiscreteMeasure(support=(0.0, 1.0, 2.0), weights=(0.5, 0.0, 0.5)),
            nu=DiscreteMeasure(support=(1.0, 3.0), weights=(0.5, 0.5)),
            g=Quadratic(1.0), epsilon=0.2, mollified=False),
        # 40 source atoms: a 39 x 39 Newton system
        TransportInstance(
            mu=_many_source_atoms(), nu=DiscreteMeasure(support=(0.0, 1.5), weights=(0.4, 0.6)),
            g=Quadratic(1.0), epsilon=0.05),
    ], ids=["mollified", "zero-target-atom", "zero-source-atom", "many-source-atoms"])
    def test_value_and_marginals_match_reference(self, instance):
        sol = sinkhorn_bridge(instance)
        value, pi, _, err, converged = reference_sinkhorn(instance, tol=1e-11, max_iter=50000)
        assert converged and err < 1e-9
        assert sol.converged and sol.marginal_error < 1e-9
        assert abs(sol.value - value) <= 1e-8
        a, b = np.asarray(instance.mu.weights), np.asarray(instance.target.weights)
        assert sol.coupling.shape == (a.size, b.size)
        assert np.max(np.abs(sol.coupling.sum(axis=1) - a)) < 1e-9
        assert np.max(np.abs(sol.coupling.sum(axis=0) - b)) < 1e-9
        # zero-weight atoms keep their rows and columns, all zero
        assert not sol.coupling[a == 0].any() and not sol.coupling[:, b == 0].any()
        np.testing.assert_allclose(sol.coupling, pi, rtol=0, atol=1e-7)

    def test_lse_matches_reference(self):
        rng = np.random.default_rng(3)
        arr = rng.normal(size=(4, 7)) * 50.0
        arr[1] = -np.inf
        arr[:, 2] = -np.inf
        for axis in (0, 1):
            with np.errstate(divide="ignore"):
                np.testing.assert_array_equal(_lse(arr, axis), reference_lse(arr, axis))


def reference_objective(q_field, grid, g, m0, nu_vec, kernel, lam, rho):
    """The forward and adjoint passes written out plainly, one step at a time,
    every per-step quantity recomputed where it is used."""
    n_t, nx = q_field.shape
    dt = 1.0 / n_t

    def diffuse(vec):
        return vec @ kernel if kernel is not None else vec

    def diffuse_adjoint(vec):
        return kernel @ vec if kernel is not None else vec

    def advect(vec, positions):
        idx = np.clip(np.searchsorted(grid, positions) - 1, 0, nx - 2)
        t = np.clip((positions - grid[idx]) / (grid[idx + 1] - grid[idx]), 0.0, 1.0)
        out = np.zeros(nx)
        np.add.at(out, idx, vec * (1.0 - t))
        np.add.at(out, idx + 1, vec * t)
        return out

    def interp_and_slope(values, positions):
        idx = np.clip(np.searchsorted(grid, positions) - 1, 0, nx - 2)
        h = grid[idx + 1] - grid[idx]
        t = np.clip((positions - grid[idx]) / h, 0.0, 1.0)
        return values[idx] * (1.0 - t) + values[idx + 1] * t, (values[idx + 1] - values[idx]) / h

    m = m0
    tilde = np.empty((n_t, nx))
    running = 0.0
    for k in range(n_t):
        mt = diffuse(m)
        tilde[k] = mt
        running += dt * float(np.dot(mt, g.cost(0.0, q_field[k])))
        m = advect(mt, grid + q_field[k] * dt)
    gap = m - nu_vec
    value = running + float(np.dot(lam, gap)) + 0.5 * rho * float(np.dot(gap, gap))
    w = lam + rho * gap
    grads = np.empty_like(q_field)
    for k in range(n_t - 1, -1, -1):
        w_val, w_slope = interp_and_slope(w, grid + q_field[k] * dt)
        grads[k] = tilde[k] * dt * (g.g_prime(0.0, q_field[k]) + w_slope)
        w = diffuse_adjoint(dt * g.cost(0.0, q_field[k]) + w_val)
    return value, grads


_TAB_Q = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


_OBJECTIVE_COSTS = [
    (Quadratic(1.3), 3.0),
    (PowerLaw(r=1.5, a=0.8), 3.0),
    (IndicatorInterval(1.5), 1.5),
    (Tabulated(q=tuple(_TAB_Q), g=tuple(0.5 * _TAB_Q**2 + 0.1 * np.abs(_TAB_Q))), 2.0),
]


class TestObjectiveBitIdentity:
    MEASURES = (DiscreteMeasure(support=(0.0, 1.0), weights=(0.4, 0.6)),
                DiscreteMeasure(support=(0.5, 2.0), weights=(0.5, 0.5)))

    @pytest.mark.parametrize("g, q_max", _OBJECTIVE_COSTS)
    @pytest.mark.parametrize("eps", [0.2, 0.0])
    def test_value_and_gradient_match_reference(self, g, q_max, eps):
        grid = make_state_grid(*self.MEASURES, 0.2)
        kernel = heat_kernel_matrix(grid, grid, eps / 6) if eps > 0 else None
        self.assert_matches_reference(g, q_max, grid, kernel)

    @pytest.mark.parametrize("g, q_max", _OBJECTIVE_COSTS)
    def test_flushed_march_kernel_matches_reference(self, g, q_max):
        # the flush changes nothing the march computes: the kernel with its
        # subnormal entries zeroed gives the objective of the reference pass
        # on the unflushed kernel, bit for bit
        grid = make_state_grid(*self.MEASURES, 0.2)
        kernel, flushed = _march_kernel(grid, 0.2 / 6)
        tiny = np.finfo(float).tiny
        assert flushed > 0
        assert not np.any((kernel > 0.0) & (kernel < tiny))
        full = heat_kernel_matrix(grid, grid, 0.2 / 6)
        assert np.count_nonzero((full > 0.0) & (full < tiny)) == flushed
        self.assert_matches_reference(g, q_max, grid, kernel, reference_kernel=full)

    @staticmethod
    def assert_matches_reference(g, q_max, grid, kernel, reference_kernel=None):
        if reference_kernel is None:
            reference_kernel = kernel
        rng = np.random.default_rng(11)
        n_t, nx = 6, grid.size  # dt = 1/6 rounds, so the order of products shows
        m0 = rng.random(nx)
        m0 /= m0.sum()
        nu_vec = rng.random(nx)
        nu_vec /= nu_vec.sum()
        lam = rng.normal(size=nx)
        for _ in range(3):
            # large drifts push some nodes off the grid, into the clipped cells
            q_field = rng.uniform(-q_max, q_max, size=(n_t, nx))
            value, grads = _transport_objective(q_field, grid, g, m0, nu_vec, kernel, lam, 32.0)
            ref_value, ref_grads = reference_objective(q_field, grid, g, m0, nu_vec,
                                                       reference_kernel, lam, 32.0)
            assert value == ref_value
            np.testing.assert_array_equal(grads, ref_grads)


class TestSolveTransport:
    def test_stay_put_cheap(self):
        inst = TransportInstance(
            mu=DiscreteMeasure.point(0.0), nu=DiscreteMeasure.point(0.0),
            g=PowerLaw(r=1.5, a=1.0), epsilon=0.01, n_time=32,
        )
        sol = solve_transport(inst)
        assert sol.feasible
        assert sol.value <= 1e-2

    def test_mass_conservation(self):
        inst = TransportInstance(
            mu=DiscreteMeasure.point(0.0), nu=DiscreteMeasure.point(1.0),
            g=PowerLaw(r=1.5, a=1.0), epsilon=0.05, n_time=16, mollified=False,
        )
        sol = solve_transport(inst)
        np.testing.assert_allclose(sol.marginals.sum(axis=1), 1.0, atol=1e-10)

    def test_quadratic_matches_sinkhorn(self):
        mu = DiscreteMeasure(support=(-0.5, 0.0, 0.6), weights=(0.3, 0.4, 0.3))
        nu = DiscreteMeasure(support=(0.2, 1.0), weights=(0.5, 0.5))
        inst = TransportInstance(mu=mu, nu=nu, g=Quadratic(1.0), epsilon=0.05,
                                 n_time=32)
        reference = sinkhorn_bridge(inst)
        sol = solve_transport(inst)
        assert abs(sol.value - reference.value) <= 2e-2

    def test_sandwich_above_ot(self):
        mu = DiscreteMeasure(support=(0.0, 2.0), weights=(0.5, 0.5))
        nu = DiscreteMeasure(support=(1.0, 3.0), weights=(0.5, 0.5))
        g = PowerLaw(r=1.5, a=1.0)
        ot_value, _ = ot_oracle(mu, nu, g)
        for eps in (0.1, 0.01):
            inst = TransportInstance(mu=mu, nu=nu, g=g, epsilon=eps, n_time=32,
                                     mollified=False)
            sol = solve_transport(inst)
            assert sol.value >= ot_value - 1e-6

    @pytest.mark.xfail(strict=True, reason="the leftover terminal mismatch is repaired in one "
                       "time step, which needs drifts outside a bounded cost domain")
    def test_bounded_domain_easy_instance_feasible(self):
        # drifts of size 1 reach the target, well inside q in [-2, 2]
        q = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
        g = Tabulated(q=q, g=tuple(0.5 * v * v + 0.1 * abs(v) for v in q))
        inst = TransportInstance(
            mu=DiscreteMeasure.point(0.0),
            nu=DiscreteMeasure(support=(0.5, 1.0), weights=(0.5, 0.5)),
            g=g, epsilon=0.3, n_time=8,
        )
        sol = solve_transport(inst)
        assert sol.feasible
        assert math.isfinite(sol.value)

    def test_quadratic_exact_target_infeasible_upfront(self):
        inst = TransportInstance(
            mu=DiscreteMeasure.point(0.0), nu=DiscreteMeasure.point(1.0),
            g=Quadratic(1.0), epsilon=0.01, mollified=False,
        )
        sol = solve_transport(inst)
        assert not sol.feasible
        assert sol.value == math.inf
        assert "unreachable" in sol.diagnostics["reason"]


class TestSmallNoiseSweep:
    def test_quadratic_mollified_converges(self):
        rows, _ = small_noise_sweep(
            DiscreteMeasure.point(0.0), DiscreteMeasure.point(1.0), Quadratic(1.0),
            [0.1, 0.01, 1e-3], mollified=True,
        )
        eps, _, ot, gap, _ = rows[0]
        assert eps == 1e-3 and gap <= 2e-2
        assert all(feasible == 1.0 for *_, feasible in rows)
        assert ot == pytest.approx(0.5)

    def test_quadratic_unmollified_flagged_infeasible(self):
        rows, _ = small_noise_sweep(
            DiscreteMeasure.point(0.0), DiscreteMeasure.point(1.0), Quadratic(1.0),
            [0.1, 0.01], mollified=False,
        )
        for _, value, _, _, feasible in rows:
            assert feasible == 0.0
            assert value == math.inf

    def test_subquadratic_unmollified_gaps_decrease(self):
        mu = DiscreteMeasure(support=(0.0, 2.0), weights=(0.5, 0.5))
        nu = DiscreteMeasure(support=(1.0, 3.0), weights=(0.5, 0.5))
        rows, meta = small_noise_sweep(mu, nu, PowerLaw(r=1.5, a=1.0),
                                       [0.1, 0.03, 0.01], mollified=False)
        assert [row[0] for row in rows] == [0.01, 0.03, 0.1]  # ascending eps
        assert [s["eps"] for s in meta["solves"]] == [0.1, 0.03, 0.01]  # solve order
        gaps = [row[3] for row in rows]
        assert gaps[0] < gaps[1] < gaps[2]
        assert all(feasible == 1.0 for *_, feasible in rows)

    @pytest.mark.parametrize("g, ot", [(PowerLaw(r=1.5, a=1.0), 1.0), (Quadratic(1.0), 0.5)],
                             ids=["power", "quadratic"])
    def test_zero_noise_row_is_the_ot_value(self, g, ot):
        # the drift-field solve at eps 0 read 0.896 (power, below OT) and inf
        # (quadratic, "unreachable at positive noise"); the limit is OT itself
        rows, meta = small_noise_sweep(DiscreteMeasure.point(0.0), DiscreteMeasure.point(1.0),
                                       g, [0.3, 0.0], mollified=False, n_time=4)
        assert rows[0] == (0.0, ot, ot, 0.0, 1.0)
        assert [s["route"] for s in meta["solves"]] == ["drift-field", "ot-oracle"]

    def test_rejects_non_decreasing_ladder(self):
        with pytest.raises(ValueError, match="decreasing"):
            small_noise_sweep(DiscreteMeasure.point(0.0), DiscreteMeasure.point(1.0),
                              Quadratic(1.0), [0.01, 0.1])


class TestHeatKernel:
    def test_rows_stochastic(self):
        grid = np.linspace(-2, 2, 101)
        k = heat_kernel_matrix(np.array([0.0, 1.0]), grid, 0.01)
        np.testing.assert_allclose(k.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("variance", [1e-4, 0.3])
    def test_log_kernel_matches_scipy_stats_formula(self, variance):
        # the kernel used to take its tails from scipy.stats.norm; log_ndtr is
        # the ufunc behind norm.logcdf and norm.logsf, so every bit must agree
        from scipy.special import ndtr
        from scipy.stats import norm

        from driftlab.schrodinger import _cell_edges, _lse, log_heat_kernel_matrix

        sources = np.array([-0.6, 0.0, 0.05, 0.9])
        grid = np.linspace(-25.0, 25.0, 301)
        edges = _cell_edges(grid)
        std = math.sqrt(variance)
        a = (edges[:-1][None, :] - sources[:, None]) / std
        b = (edges[1:][None, :] - sources[:, None]) / std
        # both deep tails (lower and upper branches) and the middle are taken
        assert np.abs(a[:, 1:]).max() >= 40.0 and np.abs(b[:, :-1]).max() >= 40.0
        assert np.any(b <= 0.0) and np.any(a >= 0.0) and np.any((a < 0.0) & (b > 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            lower = norm.logcdf(b) + np.log1p(
                -np.exp(np.minimum(norm.logcdf(a) - norm.logcdf(b), 0.0)))
            upper = norm.logsf(a) + np.log1p(
                -np.exp(np.minimum(norm.logsf(b) - norm.logsf(a), 0.0)))
            middle = np.log(ndtr(b) - ndtr(a))
        expected = np.where(b <= 0.0, lower, np.where(a >= 0.0, upper, middle))
        expected = expected - _lse(expected, axis=1)[:, None]
        np.testing.assert_array_equal(
            log_heat_kernel_matrix(sources, grid, variance), expected)

    def test_far_tail_stays_positive_in_log_space(self):
        from driftlab.schrodinger import log_heat_kernel_matrix

        grid = np.linspace(-0.5, 1.5, 201)
        log_k = log_heat_kernel_matrix(np.array([0.0]), grid, 1e-3)
        assert np.all(np.isfinite(log_k))
