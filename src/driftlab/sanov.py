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
c is the conjugate of lambda -> value(lambda phi), each value being a single
PDE solve.  The reduction is exact because c is a deterministic function of
the candidate law.
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


def _march_initial_values(terminal_rows, g, grid):
    """Backward unit-viscosity PDE for a stack of terminals; values at (0, 0)."""
    row0, _ = march_backward(terminal_rows, g, 1.0, grid)
    return np.interp(0.0, grid.x, row0) if row0.ndim == 1 else np.array(
        [np.interp(0.0, grid.x, r) for r in row0]
    )


def apply_L(slice_fn: Callable, g: gen.GeneratorSpec, grid: GridSpec, s_grid):
    """One collapsed elimination pass: s -> PDE value of x -> slice(x, s).

    For each accumulator node s the unit-time backward PDE with terminal
    x -> slice_fn(x, s) is solved at viscosity 1 and read at (0, 0).
    """
    s_grid = np.asarray(s_grid, dtype=float)
    x = grid.x
    terminals = np.asarray(slice_fn(x[None, :], s_grid[:, None]), dtype=float)
    return _march_initial_values(terminals, g, grid)


def _stage_functions(F: MeanFieldFunctional, g, n, grid, s_points, down_to):
    """Backward stage recursion; returns (s grid, values) of stage ``down_to``.

    Stage k holds the value given the first k blocks, as a function of the
    accumulated sum of phi over those blocks.  Stage n is the exact terminal
    n Phi(s / n); each earlier stage is one collapsed PDE pass.
    """
    lo, hi = F.phi_bounds
    phi = F.phi

    def s_grid_for(k):
        if k == 0:
            return np.zeros(1)
        pad = 1e-9 * max(1.0, abs(hi - lo))
        return np.linspace(k * lo - pad, k * hi + pad, s_points)

    prev_grid = None
    prev_vals = None
    for k in range(n - 1, down_to - 1, -1):
        sk = s_grid_for(k)
        x = grid.x
        if prev_vals is None:
            # terminal stage: exact closed form n Phi((s + phi(x)) / n)
            terminals = n * np.asarray(F.Phi((sk[:, None] + phi(x)[None, :]) / n), dtype=float)
        else:
            args = sk[:, None] + phi(x)[None, :]
            terminals = np.interp(args, prev_grid, prev_vals)
        prev_vals = np.asarray(_march_initial_values(terminals, g, grid), dtype=float)
        prev_grid = sk
    return prev_grid, prev_vals


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

    Computed as the conjugate of lambda -> value(lambda phi), one batched
    unit-viscosity PDE solve for all lambda.
    """
    lam = np.asarray(lambda_grid, dtype=float)
    c = np.asarray(c_grid, dtype=float)
    x = grid.x
    terminals = lam[:, None] * np.asarray(phi(x), dtype=float)[None, :]
    rho = np.asarray(_march_initial_values(terminals, g, grid), dtype=float)
    return np.max(lam[None, :] * c[:, None] - rho[None, :], axis=1)


def _trimmed_c_grid(F: MeanFieldFunctional, c_grid):
    lo, hi = F.phi_bounds
    c = np.asarray(c_grid, dtype=float)
    c = c[(c >= lo) & (c <= hi)]
    if c.size == 0:
        raise ValueError("c grid misses the reachable statistic range")
    return c


def mean_field_limit(F: MeanFieldFunctional, g, c_grid, lambda_grid,
                     grid: GridSpec) -> float:
    """Limit value sup_c ( Phi(c) - C(c) ) of the n-block pre-limits."""
    c = _trimmed_c_grid(F, c_grid)
    cost = scalar_transport_cost(g, F.phi, c, lambda_grid, grid)
    return float(np.max(np.asarray(F.Phi(c), dtype=float) - cost))


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
    c = _trimmed_c_grid(F, c_grid)
    cost = scalar_transport_cost(g, F.phi, c, lambda_grid, grid)
    mixed = np.asarray(F.Phi(t * m_p + (1.0 - t) * c), dtype=float)
    return float(np.max(mixed - (1.0 - t) * cost))
