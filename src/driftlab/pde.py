"""One-dimensional backward finite-difference solver for the semilinear PDE

    dv/dt + (sigma^2 / 2) v_xx + g*(t, v_x) = 0,    v(1, x) = f(x),

together with the Hopf-Lax-Oleinik closed form of its inviscid limit and the
vanishing-viscosity sweep connecting the two.

The scheme is explicit and monotone: a centered Laplacian plus a Godunov
upwind Hamiltonian built from the one-sided conjugates of the drift cost.
Monotonicity gives the discrete comparison principle that stands in for
minimality of the viscosity supersolution at desk scale, and it requires two
CFL conditions which are enforced programmatically (a violation raises
:class:`CflError` carrying the smallest compliant step count).  The march
keeps only the current and the next time row and returns the initial row
v(0, .), the only one any caller reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import generators as gen
from .parallel import run_parallel
from .report import ConvergenceReport, ReportRow

__all__ = [
    "GridSpec",
    "ScalarField",
    "CflError",
    "stable_nt",
    "solve_semilinear",
    "march_backward",
    "hopf_lax",
    "vanishing_viscosity_sweep",
    "rho_terminal_mixture",
]


class CflError(ValueError):
    """Raised when the requested time step violates the stability bounds."""

    def __init__(self, message, minimal_nt):
        super().__init__(message)
        self.minimal_nt = minimal_nt


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

    def with_nt(self, nt):
        return GridSpec(self.x_min, self.x_max, self.nx, int(nt), self.boundary)


@dataclass(frozen=True)
class ScalarField:
    """Initial row v(0, x_i) of a PDE solution on the grid's space nodes."""

    grid: GridSpec
    values: np.ndarray
    sigma2: float
    cfl: dict = field(default_factory=dict)
    discretization_estimate: Optional[float] = None

    def value(self, x):
        """Interpolate v(0, x) linearly in x; exact on nodes."""
        return float(np.interp(x, self.grid.x, self.values))

    @property
    def initial_value_at_origin(self):
        return self.value(0.0)


def _hamiltonian(g, t, dminus, dplus):
    """Godunov flux for the convex Hamiltonian z -> g*(t, z).

    Non-decreasing in the forward difference and non-increasing in the
    backward one, which is what makes the explicit update monotone.
    """
    plus = gen.eval_gstar_halfline(g, t, dplus, +1)
    minus = gen.eval_gstar_halfline(g, t, dminus, -1)
    return np.maximum(plus, minus, out=plus)


def stable_nt(grid: GridSpec, sigma2, lip):
    """Smallest nt satisfying both stability bounds.

    Diffusion: sigma^2 dt / dx^2 <= 1/2.  Hamiltonian: L dt / dx <= 1/2,
    with L a bound on |d g*/dz| over the working gradient range.  Jointly
    they keep the explicit update non-decreasing in every stencil value.
    """
    dx = grid.dx
    bound = 0.5 / (sigma2 / dx**2 + lip / dx + 1e-300)
    bound = min(bound, 0.5 * dx**2 / sigma2 if sigma2 > 0 else np.inf)
    bound = min(bound, 0.5 * dx / lip if lip > 0 else np.inf)
    return max(1, int(np.ceil(1.0 / bound)))


def march_backward(terminal, g, sigma2, grid: GridSpec, nt=None):
    """March a terminal array (or stack of them) back to time 0.

    ``terminal`` has shape (..., nx); all leading axes are independent
    problems sharing the grid and time step; ``g`` is the drift cost whose
    conjugate drives the Hamiltonian.  Returns the initial row
    v(0, .), of the same shape as ``terminal``, and the step data (``cfl``).
    Only two time rows are held at once.
    """
    terminal = np.asarray(terminal, dtype=float)
    if not np.all(np.isfinite(terminal)):
        raise ValueError("terminal datum must be finite on the grid")
    dx = grid.dx
    zmax = 2.0 * float(np.max(np.abs(np.diff(terminal, axis=-1)) / dx))
    lip = gen.gstar_lipschitz(g, max(zmax, 1e-12))
    minimal = stable_nt(grid, sigma2, lip)
    if nt is None:
        nt = max(grid.nt, minimal)
    if nt < minimal:
        raise CflError(
            f"nt={nt} violates the stability bounds (sigma^2={sigma2:g}, "
            f"L={lip:g}); smallest compliant nt is {minimal}",
            minimal,
        )
    dt = 1.0 / nt
    dx2 = dx**2
    half_sigma2 = 0.5 * sigma2
    v, nxt = terminal.copy(), np.empty_like(terminal)
    interior = terminal.shape[:-1] + (grid.nx - 2,)
    lap, dminus, dplus = np.empty(interior), np.empty(interior), np.empty(interior)
    clamp = grid.boundary == "clampToTerminal"
    # Each step writes row k into ``nxt`` from row k + 1 in ``v`` through
    # three reused buffers, then the two rows swap.  Keep the operation order
    # of v + dt * ((sigma^2 / 2) lap + ham) with
    # lap = ((v[2:] - 2 v[1:-1]) + v[:-2]) / dx^2: it keeps the values
    # bit-identical to that plain formula, which the tests check.
    for k in range(nt - 1, -1, -1):
        left, mid, right = v[..., :-2], v[..., 1:-1], v[..., 2:]
        np.multiply(mid, 2.0, out=lap)
        np.subtract(right, lap, out=lap)
        np.add(lap, left, out=lap)
        np.divide(lap, dx2, out=lap)
        np.subtract(mid, left, out=dminus)
        np.divide(dminus, dx, out=dminus)
        np.subtract(right, mid, out=dplus)
        np.divide(dplus, dx, out=dplus)
        np.multiply(lap, half_sigma2, out=lap)
        # not bound to a name, so no step's Hamiltonian outlives it
        np.add(lap, _hamiltonian(g, (k + 1) * dt, dminus, dplus), out=lap)
        np.multiply(lap, dt, out=lap)
        np.add(mid, lap, out=nxt[..., 1:-1])
        if clamp:
            nxt[..., 0] = terminal[..., 0]
            nxt[..., -1] = terminal[..., -1]
        else:
            nxt[..., 0] = 2.0 * nxt[..., 1] - nxt[..., 2]
            nxt[..., -1] = 2.0 * nxt[..., -2] - nxt[..., -3]
        v, nxt = nxt, v
    return v, {"nt": nt, "dt": dt, "dx": dx, "lipschitz": lip, "minimal_nt": minimal}


def solve_semilinear(
    f: Callable,
    g: gen.GeneratorSpec,
    viscosity: float,
    grid: GridSpec,
    *,
    strict_nt: bool = False,
    estimate_error: bool = False,
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
        Space grid and requested step count.  Unless ``strict_nt`` the step
        count is raised automatically to the smallest stable value.
    estimate_error : bool
        Attach a Richardson-style discretization estimate obtained from a
        companion solve at half resolution.

    Returns
    -------
    ScalarField
        Initial row v(0, .); the drift-penalized value of f(W(1)) is
        ``field.value(0)``.
    """
    if viscosity <= 0:
        raise ValueError("viscosity must be positive")
    terminal = np.asarray(f(grid.x), dtype=float)
    values, cfl = march_backward(terminal, g, viscosity, grid, nt=grid.nt if strict_nt else None)
    est = None
    if estimate_error:
        coarse = GridSpec(grid.x_min, grid.x_max, (grid.nx - 1) // 2 + 1, 1, grid.boundary)
        cvals, _ = march_backward(np.asarray(f(coarse.x), dtype=float), g, viscosity, coarse)
        v_fine = float(np.interp(0.0, grid.x, values))
        v_coarse = float(np.interp(0.0, coarse.x, cvals))
        est = abs(v_fine - v_coarse)
    return ScalarField(grid=grid.with_nt(cfl["nt"]), values=values, sigma2=viscosity, cfl=cfl,
                       discretization_estimate=est)


def hopf_lax(f: Callable, g: gen.GeneratorSpec, t: float, x: float, y_grid) -> float:
    """Hopf-Lax-Oleinik value sup_y ( f(y) - (1-t) g((y-x)/(1-t)) ).

    Requires a time-independent cost; at t = 1 the terminal convention
    returns f(x).
    """
    if gen.is_time_dependent(g):
        raise ValueError("Hopf-Lax form needs a time-independent cost")
    y = np.asarray(y_grid, dtype=float)
    if y.size == 0:
        raise ValueError("empty search grid")
    if t >= 1.0:
        return float(f(np.asarray(x)))
    horizon = 1.0 - t
    vals = np.asarray(f(y), dtype=float) - horizon * np.asarray(
        gen.eval_g(g, t, (y - x) / horizon)
    )
    return float(np.max(vals))


def vanishing_viscosity_sweep(
    f: Callable,
    g: gen.GeneratorSpec,
    n_list,
    grid: GridSpec,
    *,
    y_step: float = 1e-5,
) -> ConvergenceReport:
    """Solve with diffusion 1/n for each n and report gaps to the Hopf-Lax value.

    The limit value is a dense grid search of the Hopf-Lax form over the grid
    domain with step ``y_step``.
    """
    n_list = sorted(int(n) for n in n_list)
    y_grid = np.arange(grid.x_min, grid.x_max + y_step, y_step)
    limit = hopf_lax(f, g, 0.0, 0.0, y_grid)

    def solve_one(n):
        fld = solve_semilinear(f, g, 1.0 / n, grid)
        return fld.initial_value_at_origin, fld.cfl

    results = run_parallel(solve_one, n_list)
    rows = [
        ReportRow(index=n, prelimit=v, limit=limit, gap=abs(v - limit))
        for n, (v, _) in zip(n_list, results)
    ]
    meta = {
        "grid": {"x_min": grid.x_min, "x_max": grid.x_max, "nx": grid.nx},
        "scheme": "explicit monotone centered-diffusion upwind-Hamiltonian",
        "cfl": {str(n): cfl for n, (_, cfl) in zip(n_list, results)},
        "hopf_lax_y_step": y_step,
    }
    return ConvergenceReport(kind="pde-sweep", rows=rows, meta=meta)


def rho_terminal_mixture(
    f: Callable,
    g: gen.GeneratorSpec,
    mu,
    epsilon: float,
    grid: GridSpec,
) -> float:
    """Initial-law mixture of PDE values: sum_x mu(x) v(0, x).

    The PDE does not depend on the starting atom, so a single solve with
    diffusion ``epsilon`` is read at every atom location.
    """
    atoms = np.asarray(mu.support, dtype=float)
    weights = np.asarray(mu.weights, dtype=float)
    if np.any(atoms < grid.x_min) or np.any(atoms > grid.x_max):
        raise ValueError("initial atom outside the solver grid")
    fld = solve_semilinear(f, g, epsilon, grid)
    vals = np.interp(atoms, grid.x, fld.values)
    return float(np.dot(weights, vals))
