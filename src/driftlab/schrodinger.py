"""Discrete-state stochastic transport toward a prescribed terminal law.

Routes implemented here:

* an exact Kantorovich oracle on finite atoms: the monotone quantile
  coupling, which is optimal for every convex displacement cost g(y - x),
  +inf values included, because such a cost array has the Monge property;
* the quadratic-case entropic bridge (the ``sinkhorn`` route), solved by
  Newton's method on the semi-dual in log domain: one potential per source
  atom, the target potential in closed form, a (k - 1) x (k - 1) system per
  step.  It is valued in the heat-kernel reference convention so the number
  is directly the expected drift cost of the bridge;
* a drift-field solver for general convex costs: explicit diffuse-advect
  marching of the state law with an exact terminal repair by monotone
  rearrangement.  An augmented-Lagrangian loop enforces the terminal law;
  each round minimizes over drift fields by L-BFGS-B, boxed to the cost's
  domain, with adjoint gradients.  Every objective evaluation tabulates the
  per-step deposit cells, hat weights, g and g' of its drift field once, and
  the forward and adjoint passes read those tables.  The march kernel has
  its subnormal entries zeroed once per solve;
* the mollifier of the target law and the small-noise sweep over both the
  mollified and raw-target modes, which returns plain-tuple report rows and
  one diagnostics record per noise level in ``meta["solves"]``.

Raw (un-mollified) atomic targets are reachable only when the cost grows
strictly slower than quadratically; for quadratic or faster growth the
continuum problem is infeasible for atomic targets at every positive noise
level, and the solver reports that upfront instead of burning iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import generators as gen
from .parallel import run_parallel

__all__ = [
    "DiscreteMeasure",
    "TransportInstance",
    "FlowSolution",
    "SinkhornSolution",
    "make_state_grid",
    "mollify",
    "monotone_coupling",
    "ot_oracle",
    "heat_kernel_matrix",
    "sinkhorn_bridge",
    "solve_transport",
    "small_noise_sweep",
]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many weighted atoms on the line, normalized to mass one."""

    support: tuple
    weights: tuple

    def __post_init__(self):
        s = np.asarray(self.support, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if s.ndim != 1 or s.shape != w.shape or s.size == 0:
            raise ValueError("need matching non-empty support and weights")
        if not np.all(np.isfinite(s)):
            raise ValueError("support must be finite")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < -1e-15):
            raise ValueError("weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 (got {total!r})")
        object.__setattr__(self, "support", tuple(float(x) for x in s))
        object.__setattr__(self, "weights", tuple(float(x) for x in w))

    @classmethod
    def point(cls, x):
        return cls(support=(float(x),), weights=(1.0,))

    @classmethod
    def from_arrays(cls, support, weights, renormalize=False):
        w = np.asarray(weights, dtype=float)
        if renormalize:
            w = w / w.sum()
        return cls(support=tuple(np.asarray(support, dtype=float)), weights=tuple(w))

    def mean(self):
        return float(np.dot(self.support, self.weights))

    def variance(self):
        m = self.mean()
        return float(np.dot((np.asarray(self.support) - m) ** 2, self.weights))

    def sorted(self):
        order = np.argsort(self.support)
        return DiscreteMeasure(
            support=tuple(np.asarray(self.support)[order]),
            weights=tuple(np.asarray(self.weights)[order]),
        )


# ---------------------------------------------------------------------------
# Grids and mollification
# ---------------------------------------------------------------------------

# State grid: diffusion slack in noise standard deviations beyond the atoms,
# and the bounds on the node count
_SLACK_STDS = 7.0
_MIN_POINTS = 101
_POINTS_CAP = 1500


def make_state_grid(mu: DiscreteMeasure, nu: DiscreteMeasure, epsilon):
    """Uniform grid covering both supports plus diffusion slack, with every
    atom snapped onto an exact node."""
    atoms = np.concatenate([np.asarray(mu.support), np.asarray(nu.support)])
    std = math.sqrt(max(epsilon, 1e-12))
    lo = atoms.min() - _SLACK_STDS * std - 0.05
    hi = atoms.max() + _SLACK_STDS * std + 0.05
    h = std / 4.0
    n = int(np.ceil((hi - lo) / h)) + 1
    n = int(np.clip(n, _MIN_POINTS, _POINTS_CAP))
    grid = np.linspace(lo, hi, n)
    for a in np.unique(atoms):
        grid[int(np.argmin(np.abs(grid - a)))] = a
    # atoms that share a nearest node each keep a node of their own
    return np.union1d(grid, atoms)


def _cell_edges(grid):
    mids = 0.5 * (grid[1:] + grid[:-1])
    return np.concatenate([[-np.inf], mids, [np.inf]])


def mollify(nu: DiscreteMeasure, epsilon, out_grid):
    """Convolve the target with a centered Gaussian of variance epsilon and
    project onto the grid by exact cell masses.

    Returns the renormalized measure and the truncation loss; a loss above
    1e-6 means the grid is too narrow and raises.
    """
    from scipy.special import ndtr

    if epsilon <= 0:
        raise ValueError("mollification needs epsilon > 0")
    grid = np.asarray(out_grid, dtype=float)
    std = math.sqrt(epsilon)
    cell_masses = heat_kernel_matrix(np.asarray(nu.support), grid, epsilon)
    w = np.asarray(nu.weights) @ cell_masses
    # outer edges stretch to +-inf, so the projection keeps all mass; the
    # truncation loss is what would have fallen beyond the grid body
    tail = ndtr((grid[0] - np.asarray(nu.support)) / std) + 1.0 - ndtr(
        (grid[-1] - np.asarray(nu.support)) / std
    )
    loss = float(np.dot(nu.weights, tail))
    if loss > 1e-6:
        raise ValueError(f"grid too narrow for mollification: boundary mass {loss:.3g}")
    w = np.maximum(w, 0.0)
    w /= w.sum()
    return DiscreteMeasure(support=tuple(grid), weights=tuple(w)), loss


# ---------------------------------------------------------------------------
# Exact optimal transport
# ---------------------------------------------------------------------------

def monotone_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Quantile (north-west on sorted atoms) coupling; optimal for costs
    c(x, y) = g(y - x) with convex g, including +inf values."""
    ms, ns = mu.sorted(), nu.sorted()
    a = list(zip(ms.support, ms.weights))
    b = list(zip(ns.support, ns.weights))
    plan = []
    i = j = 0
    ra, rb = a[0][1], b[0][1]
    while True:
        take = min(ra, rb)
        if take > 0 or not plan:
            plan.append((a[i][0], b[j][0], take))
        ra -= take
        rb -= take
        if ra <= 1e-15:
            i += 1
            if i == len(a):
                break
            ra = a[i][1]
        if rb <= 1e-15:
            j += 1
            if j == len(b):
                break
            rb = b[j][1]
    return plan


def _plan_cost(plan, g, dt=1.0):
    """Total cost of a coupling's (x, y, mass) entries, each moved in one
    step of length dt at cost dt * g((y - x) / dt); +inf if one of them is."""
    total = 0.0
    for x, y, m in plan:
        if m <= 0:
            continue
        c = dt * float(g.cost(0.0, (y - x) / dt))
        if math.isinf(c):
            return math.inf
        total += m * c
    return total


def ot_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure, g):
    """Exact optimal transport value for cost g(y - x), with its coupling.

    For convex g the cost array c(x_i, y_j) = g(y_j - x_i) on sorted atoms has
    the Monge property, so the north-west corner (monotone quantile) coupling
    is optimal (Hoffman 1963; Santambrogio 2015, Sec. 2.2), +inf values
    included.  Every cost a transport instance accepts is convex and
    time-independent.
    """
    plan = monotone_coupling(mu, nu)
    return _plan_cost(plan, g), plan


# ---------------------------------------------------------------------------
# Quadratic case: semi-dual Newton in the heat-kernel convention
# ---------------------------------------------------------------------------

def log_heat_kernel_matrix(sources, grid, variance):
    """Log of row-stochastic transition masses from sources into grid cells.

    Cell masses are assembled in log space (log-CDF differences on the side
    where the tail is deep), so entries stay finite instead of underflowing;
    that keeps the bridge's potentials finite on far cells.
    """
    from scipy.special import log_ndtr, ndtr

    sources = np.asarray(sources, dtype=float)
    grid = np.asarray(grid, dtype=float)
    edges = _cell_edges(grid)
    std = math.sqrt(variance)
    a = (edges[:-1][None, :] - sources[:, None]) / std
    b = (edges[1:][None, :] - sources[:, None]) / std
    log_cdf_a = log_ndtr(a)
    log_cdf_b = log_ndtr(b)
    log_sf_a = log_ndtr(-a)
    log_sf_b = log_ndtr(-b)
    with np.errstate(divide="ignore", invalid="ignore"):
        lower = log_cdf_b + np.log1p(-np.exp(np.minimum(log_cdf_a - log_cdf_b, 0.0)))
        upper = log_sf_a + np.log1p(-np.exp(np.minimum(log_sf_b - log_sf_a, 0.0)))
        middle = np.log(ndtr(b) - ndtr(a))
    out = np.where(b <= 0.0, lower, np.where(a >= 0.0, upper, middle))
    out = out - _lse(out, axis=1)[:, None]
    return out


def heat_kernel_matrix(sources, grid, variance):
    """Row-stochastic transition masses from source points into grid cells."""
    return np.exp(log_heat_kernel_matrix(sources, grid, variance))


@dataclass(frozen=True)
class SinkhornSolution:
    """Entropic bridge of the quadratic route: its value, the (len(mu),
    len(target)) coupling, and the Newton solve's step and backtrack counts,
    largest marginal error and convergence flag."""

    value: float
    coupling: np.ndarray
    iterations: int
    marginal_error: float
    backtracks: int
    converged: bool

    @property
    def feasible(self):
        return self.converged


# The Newton system is shifted by this multiple of the identity: negligible
# beside a healthy Hessian, it keeps the system solvable when whole rows or
# columns of the coupling underflow (tiny eps, far-apart atoms), where the
# step becomes a long gradient step that the halvings cut back.
_LEVENBERG = 1e-12
_MAX_HALVINGS = 64
# the largest row or column marginal error of a converged solve
_MARGINAL_TOL = 1e-9


def sinkhorn_bridge(instance: "TransportInstance", *, max_iter=200) -> SinkhornSolution:
    """Quadratic-cost stochastic transport by a Newton solve of the semi-dual.

    Minimizes the relative entropy of the coupling with respect to the
    initial law tensored with the unit-time heat kernel of variance epsilon;
    the reported value is curvature * epsilon * entropy, which under that
    reference convention equals the expected drift cost of the bridge (no
    additive constant is dropped).

    The kernel is built on the full supports, so its rows are normalised
    over every target cell; only then are the atoms of zero weight dropped.
    The unknowns are the potentials u of the remaining source atoms, gauged
    by u_0 = 0.  The target potential has the closed form
    v = log b - LSE(log r + u), so every column of the coupling sums to its
    target weight and the semi-dual F(u) = <a, u> - <b, LSE(log r + u)> is
    concave, with gradient a - (row sums) and negative Hessian
    J = diag(row sums) - (pi / b) pi^T.  Each step solves the gauged
    (k - 1) x (k - 1) Newton system and halves the step until it raises F or
    shrinks the largest row-marginal error by the Armijo fraction; a step
    that had to be cut is cut on while that raises F further.  A system
    that cannot be solved, a step that no halving keeps, or ``max_iter``
    Newton steps end the solve unconverged; it converges once both marginal
    errors are below ``_MARGINAL_TOL``.
    """
    if not isinstance(instance.g, gen.Quadratic):
        raise ValueError("Sinkhorn route needs a quadratic drift cost")
    eps = instance.epsilon
    if eps <= 0:
        raise ValueError("need epsilon > 0")
    target = instance.target
    a_full = np.asarray(instance.mu.weights)
    b_full = np.asarray(target.weights)
    rows = np.flatnonzero(a_full > 0)
    cols = np.flatnonzero(b_full > 0)
    log_k = log_heat_kernel_matrix(np.asarray(instance.mu.support), np.asarray(target.support),
                                   eps)
    a, b = a_full[rows], b_full[cols]
    log_r = np.log(a)[:, None] + log_k[np.ix_(rows, cols)]
    shift = _LEVENBERG * np.eye(a.size - 1)

    def state(u):
        """Coupling and semi-dual objective at the source potential u."""
        z = log_r + u[:, None]
        lse = _lse(z, axis=0)
        return np.exp(z - lse) * b, float(np.dot(a, u) - np.dot(b, lse))

    u = np.zeros(a.size)
    pi, obj = state(u)
    steps = backtracks = 0
    while True:
        row_sums = pi.sum(axis=1)
        grad = a - row_sums
        row_err = float(np.abs(grad).max())
        err = max(row_err, float(np.abs(pi.sum(axis=0) - b).max()))
        if err < _MARGINAL_TOL or steps == max_iter:
            break
        jac = np.diag(row_sums) - (pi / b) @ pi.T
        step = np.zeros(a.size)
        try:
            step[1:] = np.linalg.solve(jac[1:, 1:] + shift, grad[1:])
        except np.linalg.LinAlgError:
            break
        ascent = float(np.dot(grad, step))
        if not ascent > 0.0:  # also catches a non-finite system
            break
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            pi_t, obj_t = state(u + t * step)
            if (obj_t >= obj + 1e-4 * t * ascent
                    or np.abs(a - pi_t.sum(axis=1)).max() <= (1.0 - 1e-4 * t) * row_err):
                break
            t *= 0.5
            backtracks += 1
        else:
            break
        # F is concave along the step, so once a step had to be cut, cutting
        # on while that raises F walks toward the maximum along it
        while t < 1.0:
            pi_h, obj_h = state(u + 0.5 * t * step)
            if obj_h <= obj_t:
                break
            t *= 0.5
            backtracks += 1
            pi_t, obj_t = pi_h, obj_h
        u, pi, obj = u + t * step, pi_t, obj_t
        steps += 1
    mask = pi > 0
    entropy = float(np.sum(pi[mask] * (np.log(pi[mask]) - log_r[mask])))
    coupling = np.zeros((a_full.size, b_full.size))
    coupling[np.ix_(rows, cols)] = pi
    return SinkhornSolution(
        value=instance.g.c * eps * entropy,
        coupling=coupling,
        iterations=steps,
        marginal_error=err,
        backtracks=backtracks,
        converged=err < _MARGINAL_TOL,
    )


def _lse(arr, axis):
    m = arr.max(axis=axis, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    return m.squeeze(axis=axis) + np.log(np.exp(arr - m).sum(axis=axis))


# ---------------------------------------------------------------------------
# General convex costs: drift-field solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransportInstance:
    """Stochastic transport instance on a state grid.

    The terminal law to reach is ``target``.  When ``mollified`` (the
    default) it is ``nu`` convolved with the noise of variance ``epsilon``
    and projected on the state grid, which needs epsilon > 0; otherwise it
    is ``nu`` itself, the raw-target mode, which :func:`solve_transport`
    declares unreachable upfront for quadratic-or-faster cost growth.
    ``state_grid`` and ``target`` are built once, from the other fields.
    """

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    g: gen.GeneratorSpec
    epsilon: float
    n_time: int = 32
    mollified: bool = True
    state_grid: np.ndarray = field(init=False)
    target: DiscreteMeasure = field(init=False)

    def __post_init__(self):
        if gen.is_time_dependent(self.g):
            raise ValueError("transport instances need a time-independent cost")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        grid = make_state_grid(self.mu, self.nu, self.epsilon)
        object.__setattr__(self, "state_grid", grid)
        object.__setattr__(self, "target", mollify(self.nu, self.epsilon, grid)[0]
                           if self.mollified else self.nu)


@dataclass(frozen=True)
class FlowSolution:
    """Marginal flow and diagnostics of a transport solve."""

    value: float
    marginals: Optional[np.ndarray]
    feasible: bool
    kkt_residual: float
    iterations: int
    diagnostics: dict = field(default_factory=dict)


def _project_measure_on_grid(measure: DiscreteMeasure, grid):
    m = np.zeros(grid.size)
    for x, w in zip(measure.support, measure.weights):
        idx = int(np.argmin(np.abs(grid - x)))
        if abs(grid[idx] - x) > 1e-9:
            raise ValueError(f"atom {x!r} is not a grid node")
        m[idx] += w
    return m


def _repair_cost(grid, mass, target: DiscreteMeasure, g, dt):
    """Cost of the exact monotone transport of (grid, mass) onto the target
    atoms with the one-step cost dt * g(displacement / dt)."""
    keep = mass > 1e-15
    src = DiscreteMeasure.from_arrays(grid[keep], mass[keep], renormalize=True)
    return _plan_cost(monotone_coupling(src, target), g, dt) * float(mass.sum())


class _StepTables(NamedTuple):
    """What one drift field fixes at every step, one (n_t, ...) array each.

    Node x_j moves to x_j + q_j dt and its mass splits by hat weights between
    the two ends of the grid cell it lands in.  ``nodes[k]`` lists the left
    ends, then the right ends, of step k's cells; ``hats[k]`` holds the
    matching weights (1 - t, t) as two rows; ``width`` is the cell widths.
    The forward march deposits through these tables and the adjoint gathers
    through them.
    """

    nodes: np.ndarray
    hats: np.ndarray
    width: np.ndarray
    cost: np.ndarray
    slope: np.ndarray


def _step_tables(q_field, grid, g, dt):
    pos = grid + q_field * dt
    cell = np.searchsorted(grid, pos)
    cell -= 1
    np.clip(cell, 0, grid.size - 2, out=cell)
    left_node = grid[cell]
    width = grid[cell + 1] - left_node
    t = np.clip((pos - left_node) / width, 0.0, 1.0)
    return _StepTables(
        nodes=np.concatenate([cell, cell + 1], axis=1),
        hats=np.stack([1.0 - t, t], axis=1),
        width=width,
        cost=g.cost(0.0, q_field),
        slope=g.g_prime(0.0, q_field),
    )


def _march_law(q_field, grid, g, m0, kernel):
    """Forward pass: running cost, marginals (n_t + 1, nx), diffused states
    (n_t, nx) and the step tables of the drift field.

    Each step diffuses the law by ``kernel`` (exact Gaussian cell masses; no
    diffusion when it is None), charges dt * <law, g(q)> and advects by the
    hat weights.
    """
    n_t, nx = q_field.shape
    dt = 1.0 / n_t
    tables = _step_tables(q_field, grid, g, dt)
    masses = np.empty((n_t + 1, nx))
    masses[0] = m0
    tilde = np.empty((n_t, nx))
    split = np.empty((2, nx))
    split_flat = split.reshape(-1)
    nodes, hats, cost = tables.nodes, tables.hats, tables.cost
    running = 0.0
    m = m0
    for k in range(n_t):
        mt = m @ kernel if kernel is not None else m
        tilde[k] = mt
        running += dt * float(np.dot(mt, cost[k]))
        np.multiply(mt, hats[k], out=split)
        m = np.bincount(nodes[k], weights=split_flat, minlength=nx)
        masses[k + 1] = m
    return running, masses, tilde, tables


def _transport_objective(q_field, grid, g, m0, nu_vec, kernel, lam, rho):
    """Augmented-Lagrangian objective of a drift field and its gradient.

    The value is the running cost plus <lam, gap> + rho |gap|^2 / 2 for the
    terminal gap to ``nu_vec``; the gradient comes from the adjoint
    recursion, which walks the forward pass's step tables backwards.
    """
    n_t, nx = q_field.shape
    dt = 1.0 / n_t
    running, masses, tilde, tables = _march_law(q_field, grid, g, m0, kernel)
    gap = masses[-1] - nu_vec
    value = running + float(np.dot(lam, gap)) + 0.5 * rho * float(np.dot(gap, gap))
    step_cost = dt * tables.cost
    ends = np.empty((n_t, 2, nx))  # adjoint values at each step's cell ends
    ends_flat = ends.reshape(n_t, 2 * nx)
    nodes, hats = tables.nodes, tables.hats
    w = lam + rho * gap
    for k in range(n_t - 1, -1, -1):
        w.take(nodes[k], out=ends_flat[k])
        parts = ends[k] * hats[k]
        w_val = parts[0] + parts[1]
        w_val += step_cost[k]
        w = kernel @ w_val if kernel is not None else w_val
    w_slope = (ends[:, 1] - ends[:, 0]) / tables.width
    return value, tilde * dt * (tables.slope + w_slope)


def _march_kernel(grid, variance):
    """Heat kernel of one march step, with its subnormal entries set to zero;
    returns the kernel and the number of entries zeroed.

    Products with subnormal operands run several times slower, and every
    objective evaluation multiplies by this kernel twice per step.  An entry
    below the smallest normal float changes only sums below about 1e-308, so
    the march is unchanged in every result that matters.  ``mollify`` keeps
    the unflushed kernel: there a zeroed entry would make a zero-weight atom.
    """
    kernel = heat_kernel_matrix(grid, grid, variance)
    subnormal = (kernel > 0.0) & (kernel < np.finfo(float).tiny)
    kernel[subnormal] = 0.0
    return kernel, int(np.count_nonzero(subnormal))


# Augmented-Lagrangian loop: L-BFGS-B iterations per round, the terminal L1
# mismatch that ends the loop, and the number of rounds
_INNER_ITER = 400
_FEASIBILITY_TOL = 1e-6
_MAX_OUTER = 10


def solve_transport(instance: TransportInstance) -> FlowSolution:
    """Minimize the expected drift cost subject to the terminal-law constraint.

    The state law marches explicitly (exact Gaussian diffusion, then
    hat-function drift advection per step).  The endpoint constraint is
    enforced by an augmented-Lagrangian outer loop: each round minimizes the
    penalized objective by L-BFGS-B, boxed to the drift domain, with analytic
    adjoint gradients, then updates the multiplier and multiplies the
    penalty by 4.  Each objective evaluation builds the step tables of its
    drift field once (deposit cells, hat weights, g and g'), and both passes
    read them.  Whatever terminal mismatch survives the multiplier updates is
    removed by an exact monotone rearrangement onto the target, whose cost is
    charged to the objective, so the returned plan is feasible to machine
    precision and the value is the true cost of an explicit admissible plan.

    Raw atomic targets with quadratic-or-faster cost growth are declared
    infeasible upfront: such laws are never reachable at positive noise.

    At epsilon 0 the hat-weight deposit still diffuses the law numerically,
    acting as free noise, so the value is no bound on the OT cost (it can
    fall below it); ``small_noise_sweep`` reports the OT value there instead.
    """
    from scipy.optimize import Bounds, minimize

    g = instance.g
    eps = instance.epsilon
    grid = instance.state_grid
    target = instance.target
    if not instance.mollified:
        growth = g.growth()
        if growth is None or growth >= 2.0:
            return FlowSolution(
                value=math.inf,
                marginals=None,
                feasible=False,
                kkt_residual=math.inf,
                iterations=0,
                diagnostics={
                    "reason": "atomic target unreachable at positive noise for "
                    "quadratic-or-faster cost growth",
                },
            )
    n_t = instance.n_time
    dt = 1.0 / n_t
    nx = grid.size
    m0 = _project_measure_on_grid(instance.mu, grid)
    nu_vec = _project_measure_on_grid(target, grid)

    kernel, flushed = _march_kernel(grid, eps * dt) if eps > 0 else (None, 0)

    lo, hi = g.domain()
    span = grid[-1] - grid[0]
    q_lo = max(lo, -0.75 * span / max(dt * n_t, dt))
    q_hi = min(hi, 0.75 * span / max(dt * n_t, dt))

    # initial drift: interpolated monotone displacement of the atom couplings
    plan = monotone_coupling(instance.mu, instance.nu)
    src_atoms = sorted({x for x, _, _ in plan})
    disp = []
    for xa in src_atoms:
        pieces = [(y, m) for x, y, m in plan if x == xa and m > 0]
        tot = sum(m for _, m in pieces)
        disp.append(sum((y - xa) * m for y, m in pieces) / tot if tot else 0.0)
    init_disp = (
        np.full(nx, disp[0]) if len(src_atoms) == 1 else np.interp(grid, src_atoms, disp)
    )
    q0 = np.tile(np.clip(init_disp, q_lo, q_hi), (n_t, 1))

    lam = np.zeros(nx)
    rho = 32.0
    evaluations = 0

    def objective_and_grad(flat):
        nonlocal evaluations
        evaluations += 1
        value, grads = _transport_objective(flat.reshape(n_t, nx), grid, g, m0, nu_vec,
                                            kernel, lam, rho)
        return value, grads.ravel()

    bounds = Bounds(np.full(n_t * nx, q_lo), np.full(n_t * nx, q_hi))
    q = q0
    for rounds in range(1, _MAX_OUTER + 1):
        res = minimize(
            objective_and_grad,
            q.ravel(),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": _INNER_ITER, "ftol": 1e-14, "gtol": 1e-10},
        )
        q = res.x.reshape(n_t, nx)
        running, masses, _, _ = _march_law(q, grid, g, m0, kernel)
        gap = masses[-1] - nu_vec
        feas = float(np.abs(gap).sum())
        lam = lam + rho * gap
        if feas < _FEASIBILITY_TOL:
            break
        rho *= 4.0
    rounds_info = {"al_rounds": rounds, "penalty_weight": rho, "pre_repair_terminal_l1": feas,
                   "kernel_flushed": flushed}

    # certify feasibility exactly: monotone-rearrange the reached terminal
    # law onto the target and charge the (small) repair cost
    repair = _repair_cost(grid, masses[-1], target, g, dt)
    if math.isinf(repair):
        return FlowSolution(
            value=math.inf, marginals=masses, feasible=False,
            kkt_residual=math.inf, iterations=evaluations,
            diagnostics={"reason": "terminal repair outside the cost domain", **rounds_info},
        )
    masses[-1] = nu_vec
    return FlowSolution(
        value=float(running + repair),
        marginals=masses,
        feasible=True,
        kkt_residual=float(np.abs(np.asarray(objective_and_grad(q.ravel())[1])).max()),
        iterations=evaluations,
        diagnostics={"running_cost": running, "repair_cost": repair, **rounds_info},
    )


# ---------------------------------------------------------------------------
# Small-noise sweep
# ---------------------------------------------------------------------------

def _solve_record(eps, sol):
    """Manifest record of one noise level: the route taken and its counts,
    residuals and convergence flags."""
    if sol is None:
        return {"eps": eps, "route": "ot-oracle"}
    if isinstance(sol, SinkhornSolution):
        return {"eps": eps, "route": "sinkhorn", "iterations": sol.iterations,
                "backtracks": sol.backtracks, "marginal_error": sol.marginal_error,
                "converged": sol.converged}
    return {"eps": eps, "route": "drift-field", "feasible": sol.feasible,
            "evaluations": sol.iterations, "kkt_residual": sol.kkt_residual,
            **sol.diagnostics}


def small_noise_sweep(mu: DiscreteMeasure, nu: DiscreteMeasure, g, eps_list,
                      mollified: bool = True, *, n_time=32):
    """Per-noise-level transport values against the zero-noise oracle.

    Quadratic costs ride the semi-dual Newton (``sinkhorn``) route in
    mollified mode; everything else, and every raw-target run, goes through
    the drift-field solver.  Returns ``(rows, meta)``: one row
    ``(eps, value, ot, gap, feasible)`` per noise level, in ascending eps
    (the strictly decreasing ladder reversed), with ``feasible`` 1.0 or 0.0.
    Raw atomic targets under quadratic growth are infeasible at every noise
    level, which is the point of the mollification.  A zero noise level
    reports the zero-noise limit itself, the OT value (route ``ot-oracle``),
    without a solve.  ``meta["solves"]`` holds one record per noise level,
    in solve order, with the route and its solver diagnostics.
    """
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("noise ladder must be strictly decreasing")
    ot_value, _ = ot_oracle(mu, nu, g)

    def solve_one(eps):
        if eps == 0:
            return None
        instance = TransportInstance(mu=mu, nu=nu, g=g, epsilon=eps, n_time=n_time,
                                     mollified=mollified)
        if mollified and isinstance(g, gen.Quadratic):
            return sinkhorn_bridge(instance)
        return solve_transport(instance)

    solutions = run_parallel(solve_one, eps_list)
    rows = []
    for eps, sol in zip(eps_list, solutions):
        value = ot_value if sol is None else sol.value
        feasible = math.isfinite(value) if sol is None else sol.feasible
        gap = abs(value - ot_value) if math.isfinite(value) else math.inf
        rows.append((eps, value, ot_value, gap, float(feasible)))
    meta = {"solves": [_solve_record(eps, sol) for eps, sol in zip(eps_list, solutions)]}
    return rows[::-1], meta
