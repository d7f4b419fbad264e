"""Iterated backward-PDE evaluation of empirical-measure functionals
F(m) = Phi(<phi, m>) over n unit-time blocks, the scalarized limit value,
and its conditional (partly frozen) variant.

Eliminating block coordinates one PDE pass at a time would cost a grid per
coordinate; because the functionals depend on the coordinates only through
the running sum of phi values, each pass collapses to one 1-D PDE per node
of an accumulator grid.  Stage k therefore produces a function of the
accumulated sum s, and the final stage yields the pre-limit scalar.  For a
linear outer function the passes telescope, which is the validation anchor
for the collapse.  The exact terminal stage n is read in closed form; every
earlier stage except the last is a viscosity-1 PDE value, smooth in s, so it
is marched on a fixed number of uniform s nodes (``s_points``, default 33,
whatever n) and read between them by the cubic Hermite interpolant of its
node values and fourth-order node slopes, clamped to the end value outside
its range.  A pre-limit at n thus costs n - 1 marches of ``s_points`` rows
and one row at s = 0.

The limit value scalarizes through duality over the scalar statistic
c = <phi, terminal law>: the cheapest transport cost C(c) compatible with a
given c is the Legendre transform of the convex function
rho(lambda) = value(lambda phi).  The reduction is exact because c is a
deterministic function of the candidate law.  The transform is taken in its
lambda parametrisation: c = rho'(lambda) runs through the statistics the
window reaches, and C(rho'(lambda)) = lambda rho'(lambda) - rho(lambda)
exactly (Dembo and Zeitouni, Large Deviations Techniques and Applications,
section 2.2).  The limit is then a one-dimensional max over lambda.  One
march over a uniform lambda stack gives rho at the nodes; rho' comes from
fourth-order differences, and a cubic Hermite interpolant fills in the
curve between nodes.  The stages and the limit share that one interpolation
rule (:func:`_node_slopes` and :func:`_hermite`).

:func:`apply_L` is the one place that marches and reads: every stage and the
dual's lambda stack is one stacked march, read at the origin.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import generators as gen
from .pde import GridSpec, march_backward
from .report import record

__all__ = [
    "MeanFieldFunctional",
    "ScalarCurve",
    "apply_L",
    "iterate_L",
    "iterate_L_partial",
    "scalar_transport_cost",
    "mean_field_limit",
    "conditional_sanov_limit",
    "gauss_mean",
]


@functools.cache
def _gauss_hermite():
    # built on first use: numpy.polynomial and the nodes cost every process
    # that imports this module several ms, and only gauss_mean reads them
    return np.polynomial.hermite.hermgauss(96)


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
    nodes, weights = _gauss_hermite()
    return float(np.sum(weights * fn(math.sqrt(2.0) * nodes)) / math.sqrt(math.pi))


def _check_phi_bounds(F: MeanFieldFunctional, grid: GridSpec):
    """Reject phi_bounds that miss a value of phi on the grid: the stage
    interpolation would clamp it, and the limit drop statistics it reaches,
    without a word."""
    lo, hi = F.phi_bounds
    vals = np.asarray(F.phi(grid.x), dtype=float)
    if not (lo <= vals.min() and vals.max() <= hi):
        raise ValueError(f"phi_bounds [{lo:g}, {hi:g}] do not contain the values of phi "
                         f"on the grid, [{vals.min():g}, {vals.max():g}]")


def apply_L(slice_fn: Callable, g: gen.GeneratorSpec, grid: GridSpec, s_grid):
    """One collapsed elimination pass: s -> PDE value of x -> slice(x, s).

    For each accumulator node s the unit-time backward PDE with terminal
    x -> slice_fn(x, s) is solved at viscosity 1 and read at (0, 0); all
    nodes share one march, which records its step data in the run's trace.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    terminals = np.asarray(slice_fn(grid.x[None, :], s_grid[:, None]), dtype=float)
    row0, _ = march_backward(terminals, g, 1.0, grid)
    return grid.read(row0, 0.0)


def _node_slopes(values, h):
    """The derivative at the nodes of a uniform grid of step h, by
    fourth-order differences: central inside, one-sided at the two nodes at
    each end (at least 5 nodes)."""
    d = np.empty_like(values)
    d[2:-2] = (values[:-4] - 8.0 * values[1:-3] + 8.0 * values[3:-1] - values[4:]) / (12.0 * h)
    # the right end reads its five nodes backwards, a step of -h
    for r, out, twelve_h in ((values[:5], d[:5], 12.0 * h),
                             (values[:-6:-1], d[:-6:-1], -12.0 * h)):
        out[0] = (-25.0 * r[0] + 48.0 * r[1] - 36.0 * r[2] + 16.0 * r[3] - 3.0 * r[4]) / twelve_h
        out[1] = (-3.0 * r[0] - 10.0 * r[1] + 18.0 * r[2] - 6.0 * r[3] + r[4]) / twelve_h
    return d


def _hermite(values, slopes, h, i, t):
    """The cubic Hermite interpolant of node ``values`` and ``slopes`` on a
    uniform grid of step h, and its derivative, at the fraction t in [0, 1]
    of interval i (nodes i and i + 1); i and t broadcast."""
    t2, t3 = t * t, t * t * t
    r0, r1, d0, d1 = values[i], values[i + 1], slopes[i], slopes[i + 1]
    value = ((2.0 * t3 - 3.0 * t2 + 1.0) * r0 + (-2.0 * t3 + 3.0 * t2) * r1
             + h * ((t3 - 2.0 * t2 + t) * d0 + (t3 - t2) * d1))
    slope = ((6.0 * t2 - 6.0 * t) * (r0 - r1) / h
             + (3.0 * t2 - 4.0 * t + 1.0) * d0 + (3.0 * t2 - 2.0 * t) * d1)
    return value, slope


def _cubic_read(nodes, values):
    """s -> the cubic Hermite interpolant of ``values`` at the uniform
    ``nodes``, with slopes from :func:`_node_slopes`; a point outside the
    nodes reads the end value."""
    h = (nodes[-1] - nodes[0]) / (nodes.size - 1)
    slopes = _node_slopes(values, h)
    last = nodes.size - 1

    def read(s):
        u = np.clip((s - nodes[0]) / h, 0.0, last)
        i = np.minimum(u.astype(np.intp), last - 1)
        return _hermite(values, slopes, h, i, u - i)[0]
    return read


def _stage_functions(F: MeanFieldFunctional, g, n, grid, s_points, down_to):
    """Backward stage recursion; returns (s grid, values) of stage ``down_to``.

    Stage k holds the value given the first k blocks, as a function of the
    accumulated sum of phi over those blocks.  Stage n is the exact terminal
    n Phi(s / n); each earlier stage is one collapsed PDE pass over the slice
    x -> stage_{k+1}(s + phi(x)) at ``s_points`` uniform nodes (one node,
    s = 0, for k = 0), and the pass before it reads the stage through
    :func:`_cubic_read`.
    """
    if s_points < 5:
        raise ValueError(f"need s_points >= 5 for the node slopes, got {s_points}")
    _check_phi_bounds(F, grid)
    lo, hi = F.phi_bounds
    phi = F.phi
    pad = 1e-9 * max(1.0, abs(hi - lo))

    def stage(x, s):  # the slice of the exact stage n
        return n * np.asarray(F.Phi((s + phi(x)) / n), dtype=float)

    for k in range(n - 1, down_to - 1, -1):
        s_grid = np.zeros(1) if k == 0 else np.linspace(k * lo - pad, k * hi + pad, s_points)
        vals = apply_L(stage, g, grid, s_grid)
        if k > down_to:
            read = _cubic_read(s_grid, vals)
            stage = lambda x, s, read=read: read(s + phi(x))
    return s_grid, vals


def iterate_L_partial(F: MeanFieldFunctional, g, n: int, k: int, grid: GridSpec,
                      s_points: int = 33):
    """Stage-k value function of the n-block pass (stages n down to k+1).

    Returns (s_grid, values): the value given the first k blocks as a
    function of their accumulated phi sum, before the final 1/n scaling, at
    ``s_points`` uniform nodes over [k lo, k hi] (the single node s = 0 for
    k = 0).  Each stage between n and k is marched on that many nodes and
    read by the cubic Hermite interpolant of its node values and
    fourth-order node slopes.
    """
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    return _stage_functions(F, g, n, grid, s_points, down_to=k)


def iterate_L(F: MeanFieldFunctional, g, n: int, grid: GridSpec, *,
              s_points: int = 33) -> float:
    """Pre-limit value: (1/n) times the n-fold collapsed elimination pass.

    Its n stage marches (stage n - 1 first, stage 0 last) record their step
    data in the run's trace, and then the pass records ``n`` and
    ``s_points``.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    _, vals = _stage_functions(F, g, n, grid, s_points, down_to=0)
    record("iterate_L", n=n, s_points=s_points)
    return float(vals[0]) / n


# curve points per lambda interval: the sampled max of the limit lies below
# the max over the interpolated curve by at most kappa delta^2 / 8, for a
# point spacing delta and the objective's curvature kappa in lambda; about
# 1e-6 at 33 rows on [-6, 6] for outer functions such as sin 4c
_CURVE_POINTS = 256


@dataclass(frozen=True)
class ScalarCurve:
    """The transport cost of the statistic c, parametrised by lambda:
    c = rho'(lambda) and cost = C(c) = lambda c - rho(lambda), sampled along
    the lambda window."""

    lam: np.ndarray
    c: np.ndarray
    cost: np.ndarray


def scalar_transport_cost(g, phi: Callable, lambda_grid, grid: GridSpec) -> ScalarCurve:
    """C(c): cheapest drift cost producing terminal statistic <phi, law> = c,
    as the curve lambda -> (c, C(c)) with c = rho'(lambda).

    rho(lambda) = value(lambda phi) is one collapsed pass over the slices
    x -> lambda phi(x) at the nodes of the uniform ``lambda_grid`` (at least
    5).  rho' at a node comes from fourth-order differences in lambda;
    between nodes rho is the cubic Hermite interpolant of the node values
    and slopes, sampled at ``_CURVE_POINTS`` points per interval.  For the
    convex rho the Legendre transform is exact along the curve:
    C(rho'(lambda)) = lambda rho'(lambda) - rho(lambda).  Where the
    interpolant is not convex that value can fall below the Legendre bound
    lambda_k c - rho(lambda_k) of the interval's end nodes, and the cost is
    raised to it.
    """
    lam = np.asarray(lambda_grid, dtype=float)
    h = (lam[-1] - lam[0]) / max(lam.size - 1, 1)
    if lam.size < 5 or not h > 0 or not np.allclose(np.diff(lam), h, rtol=1e-9, atol=0.0):
        raise ValueError("need an increasing uniform lambda grid of at least 5 nodes")
    rho = apply_L(lambda x, s: s * np.asarray(phi(x), dtype=float), g, grid, lam)
    d = _node_slopes(rho, h)
    t = np.arange(_CURVE_POINTS) / _CURVE_POINTS
    values, slopes = _hermite(rho, d, h, np.arange(lam.size - 1)[:, None], t)
    lam_t = lam[:-1, None] + h * t
    # C(c) >= lambda c - rho(lambda) at every lambda, so also at the two end
    # nodes of a point's interval.  Where the interpolant bends the wrong
    # way, near a point at which rho'' vanishes (rho ~ |lambda|^3 at 0 for
    # a cost ~ |q|^1.5), its Legendre value falls below that bound, even
    # below C = 0 at the free statistic.
    cost = np.maximum(lam_t * slopes - values,
                      np.maximum(lam[:-1, None] * slopes - rho[:-1, None],
                                 lam[1:, None] * slopes - rho[1:, None]))
    return ScalarCurve(lam=np.append(lam_t.ravel(), lam[-1]), c=np.append(slopes.ravel(), d[-1]),
                       cost=np.append(cost.ravel(), lam[-1] * d[-1] - rho[-1]))


def _scalar_limit(F: MeanFieldFunctional, curve: ScalarCurve, t=0.0, m=0.0):
    """sup_c Phi(t m + (1-t) c) - (1-t) C(c): the limit with a share t of
    the blocks frozen at statistic m, over the points of ``curve`` whose c
    lies in ``phi_bounds``.  Returns the value and its diagnostics: the
    maximising lambda, the covered range [rho'(lambda_min),
    rho'(lambda_max)] and whether the max sits at an end of the window,
    where the sup may lie beyond it."""
    lo, hi = F.phi_bounds
    inside = (curve.c >= lo) & (curve.c <= hi)
    if not inside.any():
        raise ValueError("the lambda window reaches no statistic inside phi_bounds")
    mixed = np.asarray(F.Phi(t * m + (1.0 - t) * curve.c), dtype=float)
    objective = np.where(inside, mixed - (1.0 - t) * curve.cost, -np.inf)
    best = int(np.argmax(objective))
    return float(objective[best]), {
        "lambda_star": float(curve.lam[best]),
        "c_range": [float(curve.c[0]), float(curve.c[-1])],
        "at_edge": best in (0, curve.lam.size - 1),
    }


def mean_field_limit(F: MeanFieldFunctional, g, lambda_grid, grid: GridSpec) -> float:
    """Limit value sup_c ( Phi(c) - C(c) ) of the n-block pre-limits.

    After the lambda march's own record, the limit records its diagnostics
    in the run's trace: ``lambda_star``, ``c_range``, ``at_edge`` and the
    ``limit`` itself.
    """
    _check_phi_bounds(F, grid)
    value, diagnostics = _scalar_limit(F, scalar_transport_cost(g, F.phi, lambda_grid, grid))
    record("mean_field_limit", **diagnostics, limit=value)
    return value


def conditional_sanov_limit(ts, F: MeanFieldFunctional, g, lambda_grid,
                            grid: GridSpec) -> list:
    """Limits of the partly frozen pass along the ladder ``ts``, one per t:
    sup_c Phi(t m + (1-t) c) - (1-t) C(c).

    ``m`` is the plain Gaussian mean of phi; at t = 1 the value degenerates
    to Phi(m), at t = 0 it is the unconditional limit.  Every t below 1
    reads the one curve C of a single lambda march; a ladder of only t = 1
    makes no march.
    """
    ts = list(ts)
    if not all(0.0 <= t <= 1.0 for t in ts):
        raise ValueError("t must lie in [0, 1]")
    _check_phi_bounds(F, grid)
    m_p = gauss_mean(F.phi)
    frozen = float(F.Phi(m_p))
    if all(t >= 1.0 for t in ts):
        return [frozen] * len(ts)
    curve = scalar_transport_cost(g, F.phi, lambda_grid, grid)
    return [frozen if t >= 1.0 else _scalar_limit(F, curve, t, m_p)[0] for t in ts]
