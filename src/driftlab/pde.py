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
L dt / dx <= 1/2 on the Hamiltonian, is met by raising the grid's step count
to the smallest compliant one.  The march keeps only the current and the
next time row and returns the initial row v(0, .), the only one any caller
reads; :meth:`GridSpec.read` interpolates it at a point of the grid.  The
vanishing-viscosity sweep runs the Hopf-Lax search over its grid in
fixed-size chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import generators as gen
from .parallel import run_parallel

__all__ = [
    "GridSpec",
    "ScalarField",
    "stable_nt",
    "solve_semilinear",
    "march_backward",
    "hopf_lax",
    "vanishing_viscosity_sweep",
]


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
    cfl: dict = field(default_factory=dict)

    def value(self, x):
        """v(0, x), linear in x and exact on nodes; x must lie on the grid."""
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
    conjugate drives the Hamiltonian.  The step count is ``grid.nt``,
    raised to :func:`stable_nt` when that is larger.  Each step forms
    rhs = v + dt H(t, D-v, D+v) on the interior nodes and solves
    (I - r D2) v_new = rhs with r = sigma^2 dt / (2 dx^2) for all stacked
    rows at once.  Returns the initial row v(0, .), of the same shape as
    ``terminal``, and the step data (``cfl``), whose ``diffusion_number``
    is r.  Only two time rows are held at once, and every per-step array
    (slopes, flux, its scratch, the right-hand side) is allocated once per
    march; an even cost takes one conjugate evaluation a step, a table two.
    """
    from scipy.linalg import lapack

    terminal = np.asarray(terminal, dtype=float)
    if not np.all(np.isfinite(terminal)):
        raise ValueError("terminal datum must be finite on the grid")
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
    # Toeplitz matrix I - r D2 on the free nodes, factored once (LDL^T;
    # diagonally dominant, so the factorisation cannot fail).
    lo = 1 if clamp else 2
    free = slice(lo, nx - lo)
    m = max(nx - 2 * lo, 0)
    # dpttrf rejects a single row, so the system is padded with decoupled
    # identity rows, which also take the inflow when no node is free
    width = max(m, 2)
    diag = np.ones(width)
    diag[:m] = 1.0 + 2.0 * r
    off = np.zeros(width - 1)
    off[:m - 1] = -r
    diag, off, _ = lapack.dpttrf(diag, off)
    stack = terminal.reshape(-1, nx)
    rows = len(stack)
    v, nxt = stack.copy(), np.empty_like(stack)
    nxt[:, [0, -1]] = stack[:, [0, -1]]
    # one difference per cell: D-v at node i is slope[i - 1], D+v is slope[i]
    slope = np.empty((rows, nx - 1))
    # the flux on the interior nodes, and the scratch it is built in
    flux, work = np.empty((rows, nx - 2)), np.empty((rows, nx - 2))
    # C-ordered, so its transpose is the F-ordered right-hand side that
    # LAPACK overwrites with the solution
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
        rhs[:, 0] += r * nxt[:, lo - 1]
        rhs[:, m - 1] += r * nxt[:, nx - lo]
        lapack.dpttrs(diag, off, rhs.T, overwrite_b=1)
        nxt[:, free] = rhs[:, :m]
        if not clamp:
            nxt[:, 0] = 2.0 * nxt[:, 1] - nxt[:, 2]
            nxt[:, -1] = 2.0 * nxt[:, -2] - nxt[:, -3]
        v, nxt = nxt, v
    cfl = {"nt": nt, "dt": dt, "dx": dx, "lipschitz": lip, "minimal_nt": minimal,
           "diffusion_number": r}
    return v.reshape(terminal.shape), cfl


def solve_semilinear(
    f: Callable,
    g: gen.GeneratorSpec,
    viscosity: float,
    grid: GridSpec,
) -> ScalarField:
    """Solve the backward semilinear PDE with diffusion ``viscosity``.

    Parameters
    ----------
    f : callable
        Terminal datum, finite on the grid.
    g : GeneratorSpec
        Drift cost; its conjugate drives the Hamiltonian.
    viscosity : float
        sigma^2 > 0, coefficient of the half-Laplacian.
    grid : GridSpec
        Space grid and requested step count.  The step count is raised
        automatically to the smallest value meeting the Hamiltonian bound
        L dt / dx <= 1/2; diffusion is implicit and sets no bound, so that
        count does not depend on ``viscosity``.

    Returns
    -------
    ScalarField
        Initial row v(0, .); the drift-penalized value of f(W(1)) is
        ``field.value(0)``.
    """
    if viscosity <= 0:
        raise ValueError("viscosity must be positive")
    values, cfl = march_backward(np.asarray(f(grid.x), dtype=float), g, viscosity, grid)
    return ScalarField(grid=grid, values=values, cfl=cfl)


# grid points per chunk of the sweep's Hopf-Lax search, and the most that
# search may hold (14x the default's 1.2 M points).  A chunk's 64 kB
# temporaries are reused from the malloc heap; at 1 << 16 points glibc
# mapped and page-faulted each one afresh (5400 minor faults and about twice
# the time per 1.2 M-point search)
_HOPF_LAX_CHUNK = 1 << 13
_MAX_SEARCH_POINTS = 1 << 24


def hopf_lax(f: Callable, g: gen.GeneratorSpec, t: float, x: float, y_grid) -> float:
    """Hopf-Lax-Oleinik value sup_y ( f(y) - (1-t) g((y-x)/(1-t)) ).

    The search runs over ``y_grid`` in one pass, so its temporaries are the
    size of ``y_grid``; a NaN value propagates.  Requires a time-independent
    cost; at t = 1 the terminal convention returns f(x).
    """
    if gen.is_time_dependent(g):
        raise ValueError("Hopf-Lax form needs a time-independent cost")
    y = np.asarray(y_grid, dtype=float).ravel()
    if y.size == 0:
        raise ValueError("empty search grid")
    if t >= 1.0:
        return float(f(np.asarray(x)))
    horizon = 1.0 - t
    return float(np.max(np.asarray(f(y), dtype=float) - horizon * g.cost(t, (y - x) / horizon)))


def _search_chunks(x_min, x_max, y_step):
    """The points of ``np.arange(x_min, x_max + y_step, y_step)``, generated
    ``_HOPF_LAX_CHUNK`` at a time by numpy's own fill rule: x_min, then
    x_min + y_step, then x_min + i * ((x_min + y_step) - x_min)."""
    n = math.ceil((x_max + y_step - x_min) / y_step)
    delta = (x_min + y_step) - x_min
    for lo in range(0, n, _HOPF_LAX_CHUNK):
        y = np.arange(lo, min(lo + _HOPF_LAX_CHUNK, n), dtype=float)
        y *= delta
        y += x_min
        if lo == 0:
            y[:2] = [x_min, x_min + y_step][:y.size]
        yield y


def vanishing_viscosity_sweep(
    f: Callable,
    g: gen.GeneratorSpec,
    n_list,
    grid: GridSpec,
    *,
    y_step: float = 1e-5,
):
    """Solve with diffusion 1/n for each n and report gaps to the Hopf-Lax value.

    Returns ``(rows, meta)``: one row ``(n, u_n, limit, gap)`` per n, in
    ascending n, and the run facts for the manifest (grid, scheme, each
    march's step data, the search step).  The limit value is a dense grid
    search of the Hopf-Lax form over the grid domain with step ``y_step``;
    the search grid is generated one chunk at a time and never held whole.
    """
    n_list = sorted(int(n) for n in n_list)
    if not y_step > 0 or (grid.x_max - grid.x_min) / y_step > _MAX_SEARCH_POINTS:
        raise ValueError(f"y_step must be positive and give a Hopf-Lax search grid of at "
                         f"most {_MAX_SEARCH_POINTS} points, got {y_step!r}")
    # one chunk of the search grid at a time; np.max keeps a NaN chunk maximum
    limit = float(np.max([hopf_lax(f, g, 0.0, 0.0, y)
                          for y in _search_chunks(grid.x_min, grid.x_max, y_step)]))

    def solve_one(n):
        fld = solve_semilinear(f, g, 1.0 / n, grid)
        return fld.initial_value_at_origin, fld.cfl

    results = run_parallel(solve_one, n_list)
    rows = [(n, v, limit, abs(v - limit)) for n, (v, _) in zip(n_list, results)]
    meta = {
        "grid": {"x_min": grid.x_min, "x_max": grid.x_max, "nx": grid.nx},
        "scheme": "IMEX monotone: implicit centered diffusion, explicit upwind Hamiltonian",
        "cfl": {str(n): cfl for n, (_, cfl) in zip(n_list, results)},
        "hopf_lax_y_step": y_step,
    }
    return rows, meta
