"""Deterministic path-space oracle: maximize F(path) - drift action over
piecewise-linear paths.

The action of a polyline is the time integral of the drift cost along its
slopes (exact segment sums for time-independent costs, Gauss-Legendre
quadrature otherwise, +inf as soon as a slope leaves the cost domain).
Where a straight tail is optimal (a time-independent cost under a terminal
functional, or under a running max when the cost is least at q = 0) the
maximization is a one-dimensional search over the end point, the viscosity
sweep's grid pass and golden-section refinement.  Every other input runs a
multistart projected quasi-Newton ascent (L-BFGS-B) in increment space,
where box bounds realize the slope-domain projection.  Its objective is
evaluated on stacks of increment rows: the gradient is scipy's forward
difference, and a point and its m - 1 difference points are one batched
evaluation, as are the endpoint scan and each restart's final value.
Every returned value is recomputed as F(path) - action(path) on the
assembled path, so it is a certified lower bound of the supremum.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from . import generators as gen
from .parallel import run_parallel
from .pde import maximize_on_line
from .report import record

__all__ = [
    "PathPolyline",
    "TerminalValue",
    "TimeIntegral",
    "RunningMax",
    "FiniteMarginals",
    "PathFunctional",
    "RestartRun",
    "SchilderResult",
    "evaluate_functional",
    "action",
    "maximize_schilder",
    "conditional_value",
]


@functools.cache
def _gauss_legendre():
    # built on first use, so that importing this module loads no
    # numpy.polynomial
    return np.polynomial.legendre.leggauss(8)


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
        for xi, wi in zip(*_gauss_legendre()):
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
    """Action of each row of ``slopes`` (shape (..., segments)), summed over
    its segments; the Gauss-Legendre nodes are added in order from 0."""
    if not gen.is_time_dependent(g):
        return np.sum(seg_lengths * g.cost(0.0, slopes), axis=-1)
    total = 0.0
    half = 0.5 * seg_lengths
    mid = seg_start_times + half
    for xi, wi in zip(*_gauss_legendre()):
        tq = mid + xi * half
        total = total + np.sum(wi * half * g.cost(tq, slopes), axis=-1)
    return total


def action(path: PathPolyline, g: gen.GeneratorSpec):
    """Drift action of a polyline: integral of g(t, slope(t)) over its span.

    Exact for time-independent costs (segment length times cost of the
    slope); per-segment Gauss-Legendre quadrature otherwise.  Returns +inf
    as soon as a slope leaves the cost domain.
    """
    if path.times.size < 2:
        return 0.0
    return float(_segment_action(g, path.times[:-1], np.diff(path.times), path.slopes()))


# ---------------------------------------------------------------------------
# Maximization
# ---------------------------------------------------------------------------

class RestartRun(NamedTuple):
    """One L-BFGS-B ascent: the value recomputed at its end point, its
    iterations, the points it evaluated (each with its forward-difference
    gradient) and whether it stopped short of its iteration and evaluation
    caps."""

    value: float
    iterations: int
    points: int
    converged: bool


@dataclass(frozen=True)
class SchilderResult:
    """The best path found and its value.  A straight-tail search has no
    restarts: ``restarts`` 0, ``best_restart`` None and no ``runs``."""

    path: PathPolyline
    value: float
    converged: bool
    restarts: int
    best_restart: Optional[int]
    runs: tuple  # one RestartRun per restart, in restart order


# scipy's absolute forward-difference step for L-BFGS-B (its ``eps``), and the
# relative step its 2-point rule falls back to where x + step == x
_FD_STEP = 1e-8
_FD_REL_STEP = np.finfo(np.float64).eps ** 0.5


def _forward_steps(x, lower, upper):
    """The steps of scipy's 2-point rule at x in the box [lower, upper].

    The absolute step, or the relative fallback where it vanishes against x;
    flipped inward where x + h leaves the box, or the distance to the farther
    bound where the step fits on neither side.
    """
    sign = (x >= 0).astype(float) * 2 - 1
    h = np.where((x + _FD_STEP) - x == 0, _FD_REL_STEP * sign * np.maximum(1.0, np.abs(x)),
                 _FD_STEP)
    lower_dist, upper_dist = x - lower, upper - x
    stepped = x + h
    fitting = np.abs(h) <= np.maximum(lower_dist, upper_dist)
    h = np.where(((stepped < lower) | (stepped > upper)) & fitting, -h, h)
    return np.where(fitting, h, np.where(upper_dist >= lower_dist, upper_dist, -lower_dist))


class _Tail:
    """The objective of a tail ascent on stacks of increment rows.

    A row holds the m - 1 increments of a tail on the uniform knots of
    [t0, 1]; its value is F(prefix spliced with the tail) minus the tail
    action.  Box bounds on the increments keep every slope inside the cost
    domain and below 16 / (1 - t0) in size.
    """

    def __init__(self, F, g, prefix, t0, m):
        if not np.isclose(prefix.end_time, t0):
            raise ValueError("prefix must end at the conditioning time")
        self.F, self.g, self.prefix = F, g, prefix
        self.n = m - 1
        self.horizon = 1.0 - t0
        self.tail_times = t0 + np.linspace(0.0, 1.0, m) * self.horizon
        self.seg = np.diff(self.tail_times)
        self.start_value = float(prefix.values[-1])
        # a one-knot prefix at t = 0 only sets the start value
        self.spliced = prefix.times.size > 1 or t0 != 0.0
        self.times = (np.concatenate([prefix.times, self.tail_times[1:]]) if self.spliced
                      else self.tail_times)
        lo, hi = g.domain()
        slope_cap = 16.0 / max(self.horizon, 1e-9)
        self.box = (max(lo, -slope_cap), min(hi, slope_cap))
        self.lower, self.upper = self.box[0] * self.seg, self.box[1] * self.seg
        # (box * seg) / seg can round past a finite domain end, where the
        # cost is +inf; such a bound steps inward one ulp at a time
        while np.any(out := self.lower / self.seg < lo):
            self.lower[out] = np.nextafter(self.lower[out], np.inf)
        while np.any(out := self.upper / self.seg > hi):
            self.upper[out] = np.nextafter(self.upper[out], -np.inf)

    def assemble(self, increments):
        """Path values at ``times`` of each row of ``increments``."""
        k = increments.shape[0]
        tail = self.start_value + np.concatenate(
            [np.zeros((k, 1)), np.cumsum(increments, axis=1)], axis=1)
        if not self.spliced:
            return tail
        head = np.broadcast_to(self.prefix.values, (k, self.prefix.values.size))
        return np.concatenate([head, tail[:, 1:]], axis=1)

    def values(self, increments):
        """F minus the tail action, one value per row of ``increments``."""
        fval = evaluate_functional(self.F, self.times, self.assemble(increments))
        return fval - _segment_action(self.g, self.tail_times[:-1], self.seg,
                                      increments / self.seg)

    def loss_and_grad(self, x):
        """-value at x and its forward-difference gradient, from one batch of
        x and the n points x + h_i e_i."""
        h = _forward_steps(x, self.lower, self.upper)
        rows = np.tile(x, (self.n + 1, 1))
        probes = np.arange(self.n)
        rows[probes + 1, probes] = x + h
        loss = -self.values(rows)
        return loss[0], (loss[1:] - loss[0]) / ((x + h) - x)


def _optimize_tail(F, g, prefix, t0, m, restarts, seed, max_iter):
    """Maximize F(prefix + tail) - action(tail on [t0, 1]) over tail knots.

    Where a straight tail is optimal (:func:`_straight_is_best`) that is one
    search over its end point (:func:`_straight_tail`); every other input
    runs the multistart ascent (:func:`_ascend_tail`).  The knot count and
    restart count are checked first, on either route.
    """
    if m < 2:
        raise ValueError("need at least 2 knots")
    if restarts < 1:
        raise ValueError("need at least 1 restart")
    if _straight_is_best(F, g):
        return _straight_tail(F, g, prefix, t0, m)
    return _ascend_tail(F, g, prefix, t0, m, restarts, seed, max_iter)


def _straight_is_best(F, g):
    """Whether a straight tail beats every other for F under g.

    For a time-independent convex cost, Jensen's inequality puts the action
    of any tail from x to y at or above h g((y - x) / h), the straight
    line's, with h the tail's span: so for a terminal functional a straight
    tail is optimal.  A running max M >= x costs at least as much to reach
    when g is least at q = 0: the climb costs at least s g((M - x) / s) over
    its span s, the rest at least (h - s) g(0), and by convexity the two
    together at least h g((M - x) / h), the straight line to M.  g is least
    at 0 exactly when g(0) = -g*(0) = min g.
    """
    if gen.is_time_dependent(g):
        return False
    if isinstance(F, TerminalValue):
        return True
    return isinstance(F, RunningMax) and float(g.cost(0.0, 0.0)) <= -float(g.gstar(0.0, 0.0))


# the straight tail's end-point search grid step, the sweep's Hopf-Lax default
_END_STEP = 1e-3


def _straight_tail(F, g, prefix, t0, m):
    """The best straight tail, from the prefix's end x over the ascent's box.

    One search (:func:`driftlab.pde.maximize_on_line`) over the end point y
    in [x + h box_lo, x + h box_hi], a point's value being that of the
    one-segment tail from x to y, scored by :meth:`_Tail.values`.  The
    result is the straight line to the best y on the tail's knots, its
    increments clipped to the box and its value recomputed as F minus the
    action of that path, so still a certified lower bound.  ``converged``
    says that the search's final bracket is at floating-point resolution;
    no restart runs.  The run's trace gets the value, the flag and the
    search's size.
    """
    tail = _Tail(F, g, prefix, t0, m)
    # the search scores one segment: summed over the m - 1 equal increments,
    # rounding of about 1e-16 moves the best end point on a flat top by
    # about 1e-8, where one segment finds it exactly
    line = _Tail(F, g, prefix, t0, 2)
    x, h, box = line.start_value, line.horizon, line.box

    def value(ends):
        vals = line.values((np.asarray(ends, dtype=float) - x)[:, None])
        i = int(np.argmax(vals))
        return float(vals[i]), i

    search = maximize_on_line(value, x + h * box[0], x + h * box[1], _END_STEP)
    increments = np.clip(np.full(tail.n, (search.point - x) / tail.n), tail.lower, tail.upper)
    best = float(tail.values(increments[None])[0])
    record("optimize_tail", route="straight-line", value=best, converged=search.converged,
           restarts=0, runs=[], grid_points=search.grid_points,
           golden_iterations=search.golden_iterations, bracket_width=search.bracket_width)
    path = PathPolyline(times=tail.times, values=tail.assemble(increments[None])[0])
    return SchilderResult(path=path, value=best, converged=search.converged, restarts=0,
                          best_restart=None, runs=())


def _ascend_tail(F, g, prefix, t0, m, restarts, seed, max_iter):
    """Multistart L-BFGS-B ascent over the tail's increments.

    Every evaluation is one batched call of :func:`evaluate_functional`: the
    endpoint scan, each L-BFGS-B point with its gradient, and each restart's
    final value.  The run's trace gets the best value, its convergence flag,
    the restart count, the best restart and every restart's run.
    """
    from scipy.optimize import minimize

    tail = _Tail(F, g, prefix, t0, m)
    n, horizon, start_value, box = tail.n, tail.horizon, tail.start_value, tail.box

    # straight-line starts toward the best grid-searched endpoints
    targets = np.linspace(start_value + box[0] * horizon, start_value + box[1] * horizon, 257)
    scan = tail.values(np.repeat(((targets - start_value) / n)[:, None], n, axis=1))
    ranked = sorted(range(targets.size), key=lambda i: -scan[i])
    endpoint_seeds = [targets[i] for i in ranked[: max(1, (restarts + 1) // 2)]]

    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x5EED)))
    starts = []
    for i in range(restarts):
        b = endpoint_seeds[i % len(endpoint_seeds)]
        inc = np.full(n, (b - start_value) / n)
        if i >= len(endpoint_seeds):
            inc = inc + rng.normal(scale=0.3 * horizon / np.sqrt(n), size=n)
        starts.append(np.clip(inc, tail.lower, tail.upper))

    # scipy counts one evaluation per point when it is handed the gradient, so
    # its default cap of 15000 scalar evaluations becomes 15000 // (n + 1) points
    options = {"maxiter": max_iter, "maxfun": 15000 // (n + 1), "ftol": 1e-14, "gtol": 1e-12}
    bounds = list(zip(tail.lower, tail.upper))

    def run_one(x0):
        res = minimize(tail.loss_and_grad, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                       options=options)
        run = RestartRun(value=float(tail.values(res.x[None])[0]), iterations=int(res.nit),
                         points=int(res.nfev), converged=res.status != 1)
        return run, res.x

    outcomes = run_parallel(run_one, starts)
    runs = tuple(run for run, _ in outcomes)
    best = sorted(range(restarts), key=lambda i: (-runs[i].value, i))[0]
    record("optimize_tail", route="ascent", value=runs[best].value,
           converged=runs[best].converged, restarts=restarts, best_restart=best,
           runs=[run._asdict() for run in runs])
    return SchilderResult(
        path=PathPolyline(times=tail.times, values=tail.assemble(outcomes[best][1][None])[0]),
        value=runs[best].value,
        converged=runs[best].converged,
        restarts=restarts,
        best_restart=best,
        runs=runs,
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

    Where a straight line is optimal (see the module docstring) it is the
    best straight line, found by a search over its end point, with
    ``restarts`` 0 on the result; ``converged`` then says that the search's
    final bracket is at floating-point resolution.  Otherwise a multistart L-BFGS-B
    ascent with straight lines toward grid-searched endpoint candidates plus
    seeded Gaussian perturbations; ties across restarts break
    deterministically toward the lowest restart index.  The gradient is
    scipy's forward difference, evaluated with its point in one batch.
    Non-convergence (an ascent hitting its iteration or evaluation cap) is
    reported on the result flag, and each restart on ``runs``.  ``m`` and
    ``restarts`` are checked on either route.
    """
    return _optimize_tail(F, g, PathPolyline.zero(end_time=0.0), 0.0, m, restarts, seed,
                          max_iter)


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
    the tail starts at the prefix's one value, and with a zero prefix this
    coincides with :func:`maximize_schilder` for the same seed and knot count.
    The tail takes :func:`maximize_schilder`'s route: the best straight tail
    from the prefix's end where one is optimal, else the ascent.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("conditioning time must lie in [0, 1]")
    if prefix is None:
        prefix = PathPolyline.zero(end_time=t)
    if t >= 1.0:
        return float(evaluate_functional(F, prefix.times, prefix.values))
    return _optimize_tail(F, g, prefix, t, m, restarts, seed, max_iter).value
