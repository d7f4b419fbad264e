"""Deterministic path-space oracle: maximize F(path) - drift action over
piecewise-linear paths.

The action of a polyline is the time integral of the drift cost along its
slopes (exact segment sums for time-independent costs, Gauss-Legendre
quadrature otherwise, +inf as soon as a slope leaves the cost domain).
Maximization runs a multistart projected quasi-Newton ascent in increment
space, where box bounds realize the slope-domain projection; every returned
value is recomputed as F(path) - action(path) on the assembled path, so it
is a certified lower bound of the supremum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import generators as gen
from .parallel import run_parallel

__all__ = [
    "PathPolyline",
    "TerminalValue",
    "TimeIntegral",
    "RunningMax",
    "FiniteMarginals",
    "PathFunctional",
    "SchilderResult",
    "evaluate_functional",
    "action",
    "maximize_schilder",
    "conditional_value",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True, eq=False)
class PathPolyline:
    """Piecewise-linear path: values at strictly increasing knot times.

    Knot times start at 0; full paths end at 1, prefixes may end earlier.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 1:
            raise ValueError("times and values must be matching 1-D arrays")
        if t[0] != 0.0:
            raise ValueError("knot times must start at 0")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("knot times must be strictly increasing")
        if t[-1] > 1.0 + 1e-12:
            raise ValueError("knot times must stay inside [0, 1]")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @classmethod
    def zero(cls, end_time=1.0, knots=2):
        if end_time <= 0.0:
            return cls(times=np.array([0.0]), values=np.array([0.0]))
        t = np.linspace(0.0, end_time, knots)
        return cls(times=t, values=np.zeros_like(t))

    @classmethod
    def straight(cls, end_value, knots=2, start_value=0.0):
        t = np.linspace(0.0, 1.0, knots)
        return cls(times=t, values=start_value + (end_value - start_value) * t)

    @property
    def end_time(self):
        return float(self.times[-1])

    def slopes(self):
        return np.diff(self.values) / np.diff(self.times)

    def at(self, t):
        return np.interp(t, self.times, self.values)


# ---------------------------------------------------------------------------
# Bounded path functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TerminalValue:
    """F(path) = f(path(1))."""

    f: Callable
    bounds: tuple = (-np.inf, np.inf)


@dataclass(frozen=True)
class TimeIntegral:
    """F(path) = integral over [0, 1] of h(t, path(t)) dt."""

    h: Callable
    bounds: tuple = (-np.inf, np.inf)


@dataclass(frozen=True)
class RunningMax:
    """F(path) = transform(max over t of path(t))."""

    transform: Callable
    bounds: tuple = (-np.inf, np.inf)


@dataclass(frozen=True)
class FiniteMarginals:
    """F(path) = f(path(t_1), ..., path(t_k)) for fixed times."""

    times: tuple
    f: Callable
    bounds: tuple = (-np.inf, np.inf)


PathFunctional = Union[TerminalValue, TimeIntegral, RunningMax, FiniteMarginals]


def evaluate_functional(F: PathFunctional, times, values):
    """Evaluate a functional on sampled paths.

    ``values`` has shape (..., len(times)); leading axes are a batch.  Paths
    are linear between samples, which is exact for polylines and the usual
    discretization for simulated paths.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if isinstance(F, TerminalValue):
        return F.f(values[..., -1])
    if isinstance(F, RunningMax):
        return F.transform(values.max(axis=-1))
    if isinstance(F, FiniteMarginals):
        picked = [_interp_along_last(times, values, t) for t in F.times]
        return F.f(*picked)
    if isinstance(F, TimeIntegral):
        if times.size >= 65:
            return np.trapezoid(F.h(times, values), times, axis=-1)
        # per-segment Gauss-Legendre on linearly interpolated path values
        t0, t1 = times[:-1], times[1:]
        half = 0.5 * (t1 - t0)
        mid = 0.5 * (t0 + t1)
        total = 0.0
        for xi, wi in zip(_GL_NODES, _GL_WEIGHTS):
            tq = mid + xi * half
            frac = (tq - t0) / (t1 - t0)
            vq = values[..., :-1] + frac * np.diff(values, axis=-1)
            total = total + wi * np.sum(half * F.h(tq, vq), axis=-1)
        return total
    raise TypeError(f"unknown path functional {F!r}")


def _interp_along_last(times, values, t):
    if times.size == 1:
        return values[..., 0]
    idx = int(np.clip(np.searchsorted(times, t), 1, times.size - 1))
    t0, t1 = times[idx - 1], times[idx]
    w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
    return (1 - w) * values[..., idx - 1] + w * values[..., idx]


# ---------------------------------------------------------------------------
# Action
# ---------------------------------------------------------------------------

def _segment_action(g, seg_start_times, seg_lengths, slopes):
    if not gen.is_time_dependent(g):
        return float(np.sum(seg_lengths * g.cost(0.0, slopes)))
    total = 0.0
    half = 0.5 * seg_lengths
    mid = seg_start_times + half
    for xi, wi in zip(_GL_NODES, _GL_WEIGHTS):
        tq = mid + xi * half
        total += float(np.sum(wi * half * g.cost(tq, slopes)))
    return total


def action(path: PathPolyline, g: gen.GeneratorSpec):
    """Drift action of a polyline: integral of g(t, slope(t)) over its span.

    Exact for time-independent costs (segment length times cost of the
    slope); per-segment Gauss-Legendre quadrature otherwise.  Returns +inf
    as soon as a slope leaves the cost domain.
    """
    if path.times.size < 2:
        return 0.0
    return _segment_action(g, path.times[:-1], np.diff(path.times), path.slopes())


# ---------------------------------------------------------------------------
# Maximization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchilderResult:
    path: PathPolyline
    value: float
    converged: bool
    restarts: int
    best_restart: int


def _optimize_tail(F, g, prefix, t0, m, restarts, seed, max_iter):
    """Maximize F(prefix + tail) - action(tail on [t0, 1]) over tail knots."""
    from scipy.optimize import minimize

    horizon = 1.0 - t0
    tail_times = t0 + np.linspace(0.0, 1.0, m) * horizon
    seg = np.diff(tail_times)
    if prefix is None:
        prefix_t = np.array([0.0])
        prefix_v = np.array([0.0])
    else:
        prefix_t, prefix_v = prefix.times, prefix.values
        if not np.isclose(prefix_t[-1], t0):
            raise ValueError("prefix must end at the conditioning time")
    start_value = float(prefix_v[-1])

    def assemble(increments):
        tail_vals = start_value + np.concatenate([[0.0], np.cumsum(increments)])
        if prefix_t.size == 1 and t0 == 0.0:
            return tail_times, tail_vals
        t = np.concatenate([prefix_t, tail_times[1:]])
        v = np.concatenate([prefix_v, tail_vals[1:]])
        return t, v

    def objective(increments):
        t, v = assemble(increments)
        fval = float(evaluate_functional(F, t, v))
        return fval - _segment_action(g, tail_times[:-1], seg, increments / seg)

    lo, hi = g.domain()
    slope_cap = 16.0 / max(horizon, 1e-9)
    box = (max(lo, -slope_cap), min(hi, slope_cap))
    bounds = [(box[0] * s, box[1] * s) for s in seg]
    lower = np.array([b[0] for b in bounds])
    upper = np.array([b[1] for b in bounds])

    # straight-line starts toward the best grid-searched endpoints
    targets = np.linspace(start_value + box[0] * horizon, start_value + box[1] * horizon, 257)
    scored = []
    for b in targets:
        inc = np.full(m - 1, (b - start_value) / (m - 1))
        scored.append((objective(inc), b))
    scored.sort(key=lambda p: -p[0])
    endpoint_seeds = [b for _, b in scored[: max(1, (restarts + 1) // 2)]]

    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x5EED)))
    starts = []
    for i in range(restarts):
        b = endpoint_seeds[i % len(endpoint_seeds)]
        inc = np.full(m - 1, (b - start_value) / (m - 1))
        if i >= len(endpoint_seeds):
            inc = inc + rng.normal(scale=0.3 * horizon / np.sqrt(m - 1), size=m - 1)
        starts.append(np.clip(inc, lower, upper))

    def run_one(args):
        idx, x0 = args
        res = minimize(
            lambda x: -objective(x),
            x0,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": max_iter, "ftol": 1e-14, "gtol": 1e-12},
        )
        hit_cap = res.status == 1
        return idx, res.x, objective(res.x), not hit_cap

    results = run_parallel(run_one, list(enumerate(starts)))
    results.sort(key=lambda r: (-r[2], r[0]))
    best_idx, best_x, best_value, converged = results[0]
    t, v = assemble(best_x)
    return SchilderResult(
        path=PathPolyline(times=t, values=v),
        value=float(best_value),
        converged=converged,
        restarts=restarts,
        best_restart=best_idx,
    )


def maximize_schilder(
    F: PathFunctional,
    g: gen.GeneratorSpec,
    m: int = 17,
    restarts: int = 8,
    seed: int = 0,
    *,
    max_iter: int = 400,
) -> SchilderResult:
    """Maximize F(path) - action(path) over m-knot polylines started at 0.

    Multistart local ascent with straight lines toward grid-searched endpoint
    candidates plus seeded Gaussian perturbations; ties across restarts break
    deterministically toward the lowest restart index.  Non-convergence (an
    optimizer hitting its iteration cap) is reported on the result flag.
    """
    if m < 2:
        raise ValueError("need at least 2 knots")
    return _optimize_tail(F, g, None, 0.0, m, restarts, seed, max_iter)


def conditional_value(
    F: PathFunctional,
    g: gen.GeneratorSpec,
    t: float,
    prefix: Optional[PathPolyline] = None,
    m: int = 17,
    restarts: int = 8,
    seed: int = 0,
    *,
    max_iter: int = 400,
) -> float:
    """Best F(prefix spliced with a tail) minus the tail action from time t.

    At t = 1 the tail is empty and the value is F(prefix) exactly; at t = 0
    with a zero prefix this coincides with :func:`maximize_schilder` for the
    same seed and knot count.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("conditioning time must lie in [0, 1]")
    if prefix is None:
        prefix = PathPolyline.zero(end_time=t)
    if t >= 1.0:
        return float(evaluate_functional(F, prefix.times, prefix.values))
    if t == 0.0 and prefix.times.size == 1:
        prefix = None
    return _optimize_tail(F, g, prefix, t, m, restarts, seed, max_iter).value
