"""Iterated backward-PDE evaluation of empirical-measure functionals
F(m) = Phi(<phi, m>) over n unit-time blocks, the scalarized limit value,
and its conditional (partly frozen) variant.

Eliminating block coordinates one PDE pass at a time would cost a grid per
coordinate; because the functionals depend on the coordinates only through
the running sum of phi values, each pass collapses to one 1-D PDE per node
of an accumulator grid.  Stage k therefore produces a function of the
accumulated sum s, and the final stage yields the pre-limit scalar.  For a
linear outer function the passes telescope, which is the validation anchor
for the collapse.

The limit value scalarizes through duality over the scalar statistic
c = <phi, terminal law>: the cheapest transport cost compatible with a given
c is the conjugate of lambda -> value(lambda phi), all values one collapsed
pass over the slices lambda phi.  The reduction is exact because c is a
deterministic function of the candidate law.

:func:`apply_L` is the one place that marches and reads: every stage and the
dual's batch of solves is one stacked march, read at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import generators as gen
from .pde import GridSpec, march_backward

__all__ = [
    "MeanFieldFunctional",
    "apply_L",
    "iterate_L",
    "iterate_L_partial",
    "scalar_transport_cost",
    "mean_field_limit",
    "conditional_sanov_limit",
    "gauss_mean",
]

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(96)


@dataclass(frozen=True)
class MeanFieldFunctional:
    """F(m) = Phi(<phi, m>) for bounded phi and continuous Phi."""

    phi: Callable
    Phi: Callable
    phi_bounds: tuple

    def __post_init__(self):
        lo, hi = self.phi_bounds
        if not lo < hi:
            raise ValueError("need phi_bounds with lo < hi")


def gauss_mean(fn):
    """E fn(Z) for standard Gaussian Z by Gauss-Hermite quadrature."""
    return float(np.sum(_GH_WEIGHTS * fn(math.sqrt(2.0) * _GH_NODES)) / math.sqrt(math.pi))


def _check_phi_bounds(F: MeanFieldFunctional, grid: GridSpec):
    """Reject phi_bounds that miss a value of phi on the grid: the stage
    interpolation and the c grid would clamp it without a word."""
    lo, hi = F.phi_bounds
    vals = np.asarray(F.phi(grid.x), dtype=float)
    if not (lo <= vals.min() and vals.max() <= hi):
        raise ValueError(f"phi_bounds [{lo:g}, {hi:g}] do not contain the values of phi "
                         f"on the grid, [{vals.min():g}, {vals.max():g}]")


def apply_L(slice_fn: Callable, g: gen.GeneratorSpec, grid: GridSpec, s_grid):
    """One collapsed elimination pass: s -> PDE value of x -> slice(x, s).

    For each accumulator node s the unit-time backward PDE with terminal
    x -> slice_fn(x, s) is solved at viscosity 1 and read at (0, 0); all
    nodes share one march.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    terminals = np.asarray(slice_fn(grid.x[None, :], s_grid[:, None]), dtype=float)
    row0, _ = march_backward(terminals, g, 1.0, grid)
    return grid.read(row0, 0.0)


def _stage_functions(F: MeanFieldFunctional, g, n, grid, s_points, down_to):
    """Backward stage recursion; returns (s grid, values) of stage ``down_to``.

    Stage k holds the value given the first k blocks, as a function of the
    accumulated sum of phi over those blocks.  Stage n is the exact terminal
    n Phi(s / n); each earlier stage is one collapsed PDE pass over the slice
    x -> stage_{k+1}(s + phi(x)), which interpolates the stage before.
    """
    _check_phi_bounds(F, grid)
    lo, hi = F.phi_bounds
    phi = F.phi
    pad = 1e-9 * max(1.0, abs(hi - lo))

    def stage(x, s):  # the slice of the exact stage n
        return n * np.asarray(F.Phi((s + phi(x)) / n), dtype=float)

    for k in range(n - 1, down_to - 1, -1):
        s_grid = np.zeros(1) if k == 0 else np.linspace(k * lo - pad, k * hi + pad, s_points)
        vals = apply_L(stage, g, grid, s_grid)
        stage = lambda x, s, s_grid=s_grid, vals=vals: np.interp(s + phi(x), s_grid, vals)
    return s_grid, vals


def iterate_L_partial(F: MeanFieldFunctional, g, n: int, k: int, grid: GridSpec,
                      s_points=None):
    """Stage-k value function of the n-block pass (stages n down to k+1).

    Returns (s_grid, values): the value given the first k blocks as a
    function of their accumulated phi sum, before the final 1/n scaling.
    """
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    s_points = s_points or 64 * n
    return _stage_functions(F, g, n, grid, s_points, down_to=k)


def iterate_L(F: MeanFieldFunctional, g, n: int, grid: GridSpec, *,
              s_points=None, cap: int = 16) -> float:
    """Pre-limit value: (1/n) times the n-fold collapsed elimination pass."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > cap:
        raise ValueError(f"n={n} exceeds the configured cap {cap}")
    s_points = s_points or 64 * n
    _, vals = _stage_functions(F, g, n, grid, s_points, down_to=0)
    return float(vals[0]) / n


def scalar_transport_cost(g, phi: Callable, c_grid, lambda_grid, grid: GridSpec):
    """C(c): cheapest drift cost producing terminal statistic <phi, law> = c.

    Computed as the conjugate of lambda -> rho(lambda) = value(lambda phi),
    one collapsed pass over the slices x -> lambda phi(x).
    """
    lam = np.asarray(lambda_grid, dtype=float)
    c = np.asarray(c_grid, dtype=float)
    rho = apply_L(lambda x, s: s * np.asarray(phi(x), dtype=float), g, grid, lam)
    return np.max(lam[None, :] * c[:, None] - rho[None, :], axis=1)


def _trimmed_c_grid(F: MeanFieldFunctional, c_grid):
    lo, hi = F.phi_bounds
    c = np.asarray(c_grid, dtype=float)
    c = c[(c >= lo) & (c <= hi)]
    if c.size == 0:
        raise ValueError("c grid misses the reachable statistic range")
    return c


def _scalar_limit(F: MeanFieldFunctional, g, c_grid, lambda_grid, grid: GridSpec,
                  t=0.0, m=0.0) -> float:
    """sup_c Phi(t m + (1-t) c) - (1-t) C(c): the limit with a share t of
    the blocks frozen at statistic m."""
    _check_phi_bounds(F, grid)
    c = _trimmed_c_grid(F, c_grid)
    cost = scalar_transport_cost(g, F.phi, c, lambda_grid, grid)
    mixed = np.asarray(F.Phi(t * m + (1.0 - t) * c), dtype=float)
    return float(np.max(mixed - (1.0 - t) * cost))


def mean_field_limit(F: MeanFieldFunctional, g, c_grid, lambda_grid,
                     grid: GridSpec) -> float:
    """Limit value sup_c ( Phi(c) - C(c) ) of the n-block pre-limits."""
    return _scalar_limit(F, g, c_grid, lambda_grid, grid)


def conditional_sanov_limit(t: float, F: MeanFieldFunctional, g, c_grid,
                            lambda_grid, grid: GridSpec) -> float:
    """Limit of the partly frozen pass: sup_c Phi(t m + (1-t) c) - (1-t) C(c).

    ``m`` is the plain Gaussian mean of phi; at t = 1 the value degenerates
    to Phi(m), at t = 0 it is the unconditional limit.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    m_p = gauss_mean(F.phi)
    if t >= 1.0:
        return float(F.Phi(m_p))
    return _scalar_limit(F, g, c_grid, lambda_grid, grid, t, m_p)
