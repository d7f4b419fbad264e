"""One-dimensional backward finite-difference solver for the semilinear PDE

    dv/dt + (sigma^2 / 2) v_xx + g*(t, v_x) = 0,    v(1, x) = f(x),

together with the Hopf-Lax-Oleinik closed form of its inviscid limit and the
vanishing-viscosity sweep connecting the two.

The scheme is implicit-explicit (IMEX) and monotone: each step adds the
explicit Godunov upwind Hamiltonian, built from the one-sided conjugates of
the drift cost, and then solves a backward-Euler diffusion step, a
tridiagonal M-matrix factored once per march.  For an even cost the
Hamiltonian is one conjugate evaluation a step, at max(D+v, -D-v, 0) (the
Rouy-Tourin form of the same flux); a table takes its two half-lines.  Each
step writes into buffers allocated once per march.  Monotonicity gives the
discrete comparison principle that stands in for minimality of the viscosity
supersolution at desk scale (Barles-Souganidis convergence).  Diffusion sets
no step bound, so the step count grows as nx, not nx^2; the one bound left,
L dt / dx <= 1/2 on the Hamiltonian, with L the cost's bound on |d g*/dz|
over the terminal's working gradient range, is met by raising the grid's
step count to the smallest compliant one.  Stacked rows march together,
each with its own viscosity if need be: their tridiagonal blocks are laid
end to end in one factorisation and one solve a step.  The march keeps
only the current and the next time row and returns the initial row
v(0, .), the only one any caller reads; :meth:`GridSpec.read` interpolates
it at a point of the grid.  The vanishing-viscosity sweep marches every n
as one row of a single march; its Hopf-Lax limit is the maximum over a
search grid, refined by golden section on the two cells around the grid's
maximiser (:func:`maximize_on_line`, which the Schilder straight-tail
search shares).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import generators as gen
from .parallel import run_parallel
from .report import record

__all__ = [
    "GridSpec",
    "ScalarField",
    "stable_nt",
    "solve_semilinear",
    "march_backward",
    "hopf_lax",
    "vanishing_viscosity_sweep",
]
# maximize_on_line, shared with variational, stays out of __all__: the
# benchmark tracer spans every name listed here, and its callers' spans
# cover it


@dataclass(frozen=True)
class GridSpec:
    """Space-time grid: nx points on [x_min, x_max], nt steps on [0, 1]."""

    x_min: float
    x_max: float
    nx: int
    nt: int
    boundary: str = "clampToTerminal"

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("need x_min < x_max")
        if self.nx < 3:
            raise ValueError("need at least 3 space points")
        if self.nt < 1:
            raise ValueError("need at least 1 time step")
        if self.boundary not in ("clampToTerminal", "oneSidedExtrapolation"):
            raise ValueError(f"unknown boundary rule {self.boundary!r}")

    @property
    def x(self):
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def dx(self):
        return (self.x_max - self.x_min) / (self.nx - 1)

    def read(self, values, points):
        """``values`` (shape (..., nx), rows on the space nodes) at ``points``,
        linear in x along the last axis and exact on nodes: shape
        (...) + shape of ``points``, each row as ``np.interp`` reads it.
        A point outside [x_min, x_max] raises ValueError, where
        ``np.interp`` would return the end value."""
        points = np.asarray(points, dtype=float)
        if not (self.x_min <= points.min() and points.max() <= self.x_max):
            raise ValueError(f"point outside the solver grid [{self.x_min:g}, {self.x_max:g}]")
        values, x = np.asarray(values, dtype=float), self.x
        rows = [np.interp(points, x, row) for row in values.reshape(-1, self.nx)]
        return np.reshape(rows, values.shape[:-1] + points.shape)


@dataclass(frozen=True)
class ScalarField:
    """Initial row v(0, x_i) of a PDE solution on the grid's space nodes."""

    grid: GridSpec
    values: np.ndarray

    def value(self, x):
        """v(0, x), linear in x and exact on nodes; x must lie on the grid.
        A field of several rows has no single value: it raises ValueError,
        and :meth:`GridSpec.read` reads every row."""
        rows = np.size(self.values) // self.grid.nx
        if rows != 1:
            raise ValueError(f"value() reads a one-row field; this one has {rows} rows")
        return float(self.grid.read(self.values, x))

    @property
    def initial_value_at_origin(self):
        return self.value(0.0)


def _hamiltonian(g, t, dminus, dplus, out, work):
    """Godunov flux for the convex Hamiltonian z -> g*(t, z), written into ``out``.

    Non-decreasing in the forward difference and non-increasing in the
    backward one, which is what makes the explicit half of the step monotone.
    The flux is max(g*(max(D+, 0)), g*(min(D-, 0))).  For an even cost g* is
    even and non-decreasing on [0, inf), so that is g* at max(D+, -D-, 0):
    one conjugate evaluation in place of two (the Rouy-Tourin form), with
    the same bits.  ``work`` is scratch shaped like ``out``; the slopes are
    not modified.
    """
    if g.even:
        np.negative(dminus, out=work)
        np.maximum(work, dplus, out=work)
        return gen.eval_gstar_halfline(g, t, work, +1, out=out)
    gen.eval_gstar_halfline(g, t, dplus, +1, out=out)
    gen.eval_gstar_halfline(g, t, dminus, -1, out=work)
    return np.maximum(out, work, out=out)


def stable_nt(grid: GridSpec, lip):
    """Smallest nt with L dt / dx <= 1/2.

    L bounds |d g*/dz| over the working gradient range.  The bound keeps the
    explicit Hamiltonian half of the step non-decreasing in every stencil
    value; the implicit diffusion half is monotone at any step.
    """
    return max(1, int(np.ceil(2.0 * lip / grid.dx)))


def march_backward(terminal, g, sigma2, grid: GridSpec):
    """March a terminal array (or stack of them) back to time 0.

    ``terminal`` has shape (..., nx); all leading axes are independent
    problems sharing the grid and time step; ``g`` is the drift cost whose
    conjugate drives the Hamiltonian.  ``sigma2`` is the diffusion
    coefficient: a scalar for every row, or an array of the terminal's
    leading shape, one per row.  The step count is ``grid.nt``, raised to
    :func:`stable_nt` when that is larger.  Each step forms
    rhs = v + dt H(t, D-v, D+v) on the interior nodes and solves
    (I - r D2) v_new = rhs with r = sigma^2 dt / (2 dx^2) for all stacked
    rows at once: their tridiagonal blocks lie end to end in one system,
    each block coupled to the next by a zero, so every row is bit for bit
    its own single-row march.  Returns the initial row v(0, .), of the same
    shape as ``terminal``, and the step data (``cfl``), whose
    ``diffusion_number`` is r: a float for a scalar ``sigma2``, else an
    array of the leading shape.  The step data and the row count go to the
    run's trace (:func:`driftlab.report.record`), r as a list when it is an
    array.  Only two time rows are held at once, and every per-step array
    (slopes, flux, its scratch, the right-hand side) is allocated once per
    march; an even cost takes one conjugate evaluation a step, a table two.
    """
    from scipy.linalg import lapack

    terminal = np.asarray(terminal, dtype=float)
    if not np.all(np.isfinite(terminal)):
        raise ValueError("terminal datum must be finite on the grid")
    per_row = np.ndim(sigma2) > 0
    if per_row and np.shape(sigma2) != terminal.shape[:-1]:
        raise ValueError(f"sigma2 has shape {np.shape(sigma2)}, not the terminal's leading "
                         f"shape {terminal.shape[:-1]}")
    sigma2 = np.asarray(sigma2, dtype=float) if per_row else float(sigma2)
    if not np.all((sigma2 > 0) & (sigma2 < np.inf)):
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2!r}")
    nx, dx = grid.nx, grid.dx
    zmax = 2.0 * float(np.max(np.abs(np.diff(terminal, axis=-1)) / dx))
    lip = g.gstar_lipschitz(max(zmax, 1e-12))
    minimal = stable_nt(grid, lip)
    nt = max(grid.nt, minimal)
    dt = 1.0 / nt
    r = 0.5 * sigma2 * dt / dx**2
    clamp = grid.boundary == "clampToTerminal"
    # Nodes lo - 1 and nx - lo stay fixed through the solve: the boundary
    # nodes under the clamp rule; under u_0 = 2 u_1 - u_2 the end interior
    # nodes, whose second difference that rule makes vanish, so their rows
    # are identity rows.  Each fixed node moves to the right-hand side of
    # its free neighbour, which leaves the symmetric positive-definite
    # Toeplitz matrix I - r D2 on each row's free nodes.  The rows' blocks
    # are factored once, as one block-diagonal system (LDL^T; diagonally
    # dominant, so the factorisation cannot fail); a zero off-diagonal
    # leaves each block's factor and solve exactly those of the block alone.
    lo = 1 if clamp else 2
    free = slice(lo, nx - lo)
    m = max(nx - 2 * lo, 0)
    stack = terminal.reshape(-1, nx)
    rows = len(stack)
    r_rows = np.broadcast_to(r, terminal.shape[:-1]).reshape(rows)
    # dpttrf rejects a single row, so each block is padded with decoupled
    # identity rows, which also take the inflow when no node is free
    width = max(m, 2)
    diag = np.ones((rows, width))
    diag[:, :m] = 1.0 + 2.0 * r_rows[:, None]
    # a block's off-diagonal fills only its first m - 1 entries: the rest,
    # and the entry joining it to the next block, stay zero
    off = np.zeros((rows, width))
    off[:, :max(m - 1, 0)] = -r_rows[:, None]
    diag, off, _ = lapack.dpttrf(diag.ravel(), off.ravel()[:-1])
    v, nxt = stack.copy(), np.empty_like(stack)
    nxt[:, [0, -1]] = stack[:, [0, -1]]
    # one difference per cell: D-v at node i is slope[i - 1], D+v is slope[i]
    slope = np.empty((rows, nx - 1))
    # the flux on the interior nodes, and the scratch it is built in
    flux, work = np.empty((rows, nx - 2)), np.empty((rows, nx - 2))
    # C-ordered, so its flat view is the blocks' right-hand side end to
    # end, which LAPACK overwrites with the solution
    rhs = np.zeros((rows, width))
    for k in range(nt - 1, -1, -1):
        np.subtract(v[:, 1:], v[:, :-1], out=slope)
        np.divide(slope, dx, out=slope)
        _hamiltonian(g, (k + 1) * dt, slope[:, :-1], slope[:, 1:], flux, work)
        np.multiply(flux, dt, out=flux)
        # v + dt H, the free nodes' part straight into the right-hand side
        np.add(flux[:, lo - 1:nx - lo - 1], v[:, free], out=rhs[:, :m])
        if not clamp:
            # the identity rows' nodes 1 and nx - 2 take v + dt H as it is
            np.add(flux[:, 0], v[:, 1], out=nxt[:, 1])
            np.add(flux[:, -1], v[:, -2], out=nxt[:, -2])
        rhs[:, 0] += r_rows * nxt[:, lo - 1]
        rhs[:, m - 1] += r_rows * nxt[:, nx - lo]
        lapack.dpttrs(diag, off, rhs.reshape(-1), overwrite_b=1)
        nxt[:, free] = rhs[:, :m]
        if not clamp:
            nxt[:, 0] = 2.0 * nxt[:, 1] - nxt[:, 2]
            nxt[:, -1] = 2.0 * nxt[:, -2] - nxt[:, -3]
        v, nxt = nxt, v
    cfl = {"nt": nt, "dt": dt, "dx": dx, "lipschitz": lip, "minimal_nt": minimal}
    record("march_backward", rows=rows, **cfl, diffusion_number=np.asarray(r).tolist())
    return v.reshape(terminal.shape), {**cfl, "diffusion_number": r}


def solve_semilinear(
    f: Callable,
    g: gen.GeneratorSpec,
    viscosity,
    grid: GridSpec,
) -> ScalarField:
    """Solve the backward semilinear PDE with diffusion ``viscosity``.

    Parameters
    ----------
    f : callable
        Terminal datum, finite on the grid.
    g : GeneratorSpec
        Drift cost; its conjugate drives the Hamiltonian.
    viscosity : float or array
        sigma^2 > 0, coefficient of the half-Laplacian.  An array solves one
        row per entry, all in one march (:func:`march_backward`), each row
        bit for bit the solve at that entry alone.
    grid : GridSpec
        Space grid and requested step count.  The step count is raised
        automatically to the smallest value meeting the Hamiltonian bound
        L dt / dx <= 1/2; diffusion is implicit and sets no bound, so that
        count does not depend on ``viscosity``.

    Returns
    -------
    ScalarField
        Initial row v(0, .), or rows of shape ``viscosity.shape + (nx,)``;
        the drift-penalized value of f(W(1)) is ``field.value(0)`` for a
        scalar ``viscosity``, and ``grid.read(field.values, 0.0)`` reads
        every row.
    """
    terminal = np.asarray(f(grid.x), dtype=float)
    terminal = np.broadcast_to(terminal, np.shape(viscosity) + terminal.shape)
    values, _ = march_backward(terminal, g, viscosity, grid)
    return ScalarField(grid=grid, values=values)


# the most points the sweep's Hopf-Lax search grid may hold; the grid is
# evaluated in one pass, so this bounds each temporary at 32 MiB
_MAX_SEARCH_POINTS = 1 << 22
# golden-section ratio, and the refinement's step cap: 80 steps shrink the
# bracket 5e16-fold; it stops sooner once the bracket is a few ulps wide
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERATIONS = 80
# a line search has converged once its final bracket is this narrow,
# relative to the size of its end points (at least 1)
_BRACKET_RTOL = 1e-12


def hopf_lax(f: Callable, g: gen.GeneratorSpec, t: float, x: float, y_grid, *,
             return_index: bool = False):
    """Hopf-Lax-Oleinik value sup_y ( f(y) - (1-t) g((y-x)/(1-t)) ).

    The search runs over ``y_grid`` in one pass, so its temporaries are the
    size of ``y_grid``; a NaN value propagates.  Requires a time-independent
    cost; at t = 1 the terminal convention returns f(x).  With
    ``return_index`` (t < 1 only) it returns ``(value, i)``, i the first
    index of ``y_grid`` attaining the value, or of the first NaN.
    """
    if gen.is_time_dependent(g):
        raise ValueError("Hopf-Lax form needs a time-independent cost")
    y = np.asarray(y_grid, dtype=float).ravel()
    if y.size == 0:
        raise ValueError("empty search grid")
    if t >= 1.0:
        if return_index:
            raise ValueError("return_index needs a search, at t < 1")
        return float(f(np.asarray(x)))
    horizon = 1.0 - t
    vals = np.asarray(f(y), dtype=float) - horizon * g.cost(t, (y - x) / horizon)
    if return_index:
        i = int(np.argmax(vals))
        return float(vals[i]), i
    return float(np.max(vals))


def _golden_section(value, a, b):
    """Golden-section search for a maximum on [a, b] (Kiefer 1953).

    ``value(points)`` returns the maximum over ``points`` and the first index
    attaining it; each step evaluates its two interior points in one call.
    Returns every such maximum with the point attaining it, the step count
    and the final bracket.  It stops after ``_GOLDEN_ITERATIONS`` steps, or
    sooner once the interior points no longer fall in order strictly inside
    the bracket.
    """
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    best, i = value([c, d])
    seen, points = [best], [(c, d)[i]]
    steps = 0
    while steps < _GOLDEN_ITERATIONS and a < c < d < b:
        steps += 1
        if i == 0:  # keep [a, d]; c becomes its upper interior point
            b, d = d, c
            c = b - _GOLDEN * (b - a)
        else:  # keep [c, b]; d becomes its lower interior point
            a, c = c, d
            d = a + _GOLDEN * (b - a)
        best, i = value([c, d])
        seen.append(best)
        points.append((c, d)[i])
    return seen, points, steps, (a, b)


class LineMaximum(NamedTuple):
    """The result of :func:`maximize_on_line`: the maximum and where it was
    attained, each stage's maximum, the grid's size, the bracket refined,
    the refinement's step count, its final bracket width, and whether the
    search converged: the maximum is a number and the final bracket is at
    most ``_BRACKET_RTOL`` times max(1, |end|) wide."""

    value: float
    point: float
    grid_max: float
    refined_max: float
    grid_points: int
    bracket: tuple
    golden_iterations: int
    bracket_width: float
    converged: bool


def maximize_on_line(value, lo, hi, step):
    """Maximum of a function of one variable on [lo, hi].

    ``value(points)`` returns the maximum over ``points`` and the first index
    attaining it.  One call covers the points of
    ``np.arange(lo, hi + step, step)`` below ``hi`` and ``hi`` itself, so
    never a point off [lo, hi]; golden section (:func:`_golden_section`)
    then refines the two cells around the grid maximiser, mapped through
    :func:`run_parallel`.  The maximum is the largest value either stage
    evaluated, so never below the grid maximum, and a NaN from either stage
    propagates.
    """
    y = np.arange(lo, hi + step, step)
    # arange's last points can lie above hi
    y = np.append(y[y < hi], hi)
    grid_max, i = value(y)
    bracket = (float(y[max(i - 1, 0)]), float(y[min(i + 1, y.size - 1)]))
    [(seen, points, steps, (a, b))] = run_parallel(
        lambda ends: _golden_section(value, *ends), [bracket])
    j = int(np.argmax(seen))  # the first NaN, as np.max(seen) propagates it
    refined_max = float(seen[j])
    best = float(np.maximum(grid_max, refined_max))  # keeps a NaN from either stage
    point = float(y[i]) if grid_max >= refined_max else float(points[j])
    # the step cap does not decide: near 0 floats are finer than the capped
    # bracket, and a flat top can hold the search there
    converged = bool(np.isfinite(best)) and b - a <= _BRACKET_RTOL * max(1.0, abs(a), abs(b))
    return LineMaximum(value=best, point=point, grid_max=grid_max, refined_max=refined_max,
                       grid_points=int(y.size), bracket=bracket, golden_iterations=steps,
                       bracket_width=b - a, converged=converged)


def vanishing_viscosity_sweep(
    f: Callable,
    g: gen.GeneratorSpec,
    n_list,
    grid: GridSpec,
    *,
    y_step: float = 1e-3,
):
    """Solve with diffusion 1/n for each n and report gaps to the Hopf-Lax value.

    All n share one march, one row per n.  Returns one row
    ``(n, u_n, limit, gap)`` per n, in ascending n.  The limit is the
    Hopf-Lax form at (0, 0), maximised over y in [x_min, x_max] by
    :func:`maximize_on_line` on a grid of step ``y_step``, so never off the
    domain; a NaN on the grid propagates.  The search goes to the run's
    trace, before the march's own record.
    """
    n_list = sorted(int(n) for n in n_list)
    if not n_list:
        raise ValueError("need at least one n")
    if not y_step > 0 or (grid.x_max - grid.x_min) / y_step > _MAX_SEARCH_POINTS:
        raise ValueError(f"y_step must be positive and give a Hopf-Lax search grid of at "
                         f"most {_MAX_SEARCH_POINTS} points, got {y_step!r}")
    search = maximize_on_line(
        lambda points: hopf_lax(f, g, 0.0, 0.0, points, return_index=True),
        grid.x_min, grid.x_max, y_step)
    record("vanishing_viscosity_sweep", n_list=n_list,
           grid={"x_min": grid.x_min, "x_max": grid.x_max, "nx": grid.nx},
           y_step=y_step, grid_points=search.grid_points, bracket=list(search.bracket),
           golden_iterations=search.golden_iterations, bracket_width=search.bracket_width,
           grid_max=search.grid_max, refined_max=search.refined_max)
    limit = search.value
    # every n in one march, row i at diffusion 1 / n_i
    fld = solve_semilinear(f, g, 1.0 / np.array(n_list, dtype=float), grid)
    values = grid.read(fld.values, 0.0).tolist()
    return [(n, v, limit, abs(v - limit)) for n, v in zip(n_list, values)]
