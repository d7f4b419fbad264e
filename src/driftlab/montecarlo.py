"""Brownian path simulation and the stochastic estimators built on it:
the quadratic-case closed-form estimator (1/n) log E exp(n F) and its
Cramer form on the average of n paths, drift-insertion lower bounds,
least-squares backward regression for the scaled BSDE, and Brownian-bridge
drift-moment checks.

Every path and bridge is generated in fixed-size blocks, each from a
generator seeded by (seed, block index), so every estimate is
bit-reproducible from (seed, n_steps, n_paths), and the streaming
estimators keep memory bounded for million-path batches.  A terminal
log-mean-exp estimate draws W(1) alone, one normal per path from the same
block generators, so it is reproducible from (seed, n_paths) and does not
depend on n_steps."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import generators as gen
from .variational import (
    PathFunctional,
    RunningMax,
    TerminalValue,
    TimeIntegral,
    evaluate_functional,
)

__all__ = [
    "PathBatch",
    "FeedbackControl",
    "LsmcSolution",
    "BridgeMomentCheck",
    "log_mean_exp",
    "terminal_route",
    "girsanov_lower_bound",
    "lsmc_bsde",
    "cramer_average",
    "simulate_bridge",
    "bridge_constant",
    "bridge_moment_check",
    "truncated_quadratic_moment",
]

BLOCK_PATHS = 1 << 14


@dataclass(frozen=True)
class PathBatch:
    """Simulation plan for n_paths Brownian paths on [0, 1] with n_steps steps.

    Increments are i.i.d. N(0, dt) and are produced block by block from
    seeds derived as (seed, block index).
    """

    n_steps: int
    n_paths: int
    seed: int

    def __post_init__(self):
        if self.n_steps < 1 or self.n_paths < 1:
            raise ValueError("need positive step and path counts")

    @property
    def dt(self):
        return 1.0 / self.n_steps

    @property
    def times(self):
        return np.linspace(0.0, 1.0, self.n_steps + 1)

    @property
    def n_blocks(self):
        return (self.n_paths + BLOCK_PATHS - 1) // BLOCK_PATHS

    def iter_blocks(self):
        """Yield (path count, generator seeded by (seed, block index)) per block."""
        for b in range(self.n_blocks):
            yield (min(BLOCK_PATHS, self.n_paths - b * BLOCK_PATHS),
                   np.random.default_rng(np.random.SeedSequence((int(self.seed), b))))

    def iter_increments(self):
        """Yield per-block increment arrays of shape (block, n_steps)."""
        for size, rng in self.iter_blocks():
            yield rng.standard_normal((size, self.n_steps)) * math.sqrt(self.dt)

    def iter_paths(self):
        """Yield per-block path arrays of shape (block, n_steps + 1)."""
        for inc in self.iter_increments():
            paths = np.empty((inc.shape[0], self.n_steps + 1))
            paths[:, 0] = 0.0
            np.cumsum(inc, axis=1, out=paths[:, 1:])
            yield paths

    def paths(self):
        """All paths materialized; intended for small-to-medium batches."""
        return np.concatenate(list(self.iter_paths()), axis=0)


# ---------------------------------------------------------------------------
# Streaming moments / log-sum-exp
# ---------------------------------------------------------------------------

class _StreamingLse:
    """Combine per-block (max, sum exp, sum exp^2) into global statistics."""

    def __init__(self):
        self.m = -np.inf
        self.s1 = 0.0
        self.s2 = 0.0
        self.count = 0

    def add(self, x):
        x = np.asarray(x, dtype=float)
        bm = float(x.max())
        m = max(self.m, bm)
        if m > self.m and self.count:
            shift = math.exp(self.m - m)
            self.s1 *= shift
            self.s2 *= shift * shift
        self.m = m
        e = np.exp(x - m)
        self.s1 += float(np.sum(e))
        self.s2 += float(np.sum(e * e))
        self.count += x.size

    def estimate(self, n_scale):
        mean = self.s1 / self.count
        var = max(self.s2 / self.count - mean * mean, 0.0)
        se = math.sqrt(var / self.count) / mean / n_scale
        value = (self.m + math.log(mean)) / n_scale
        return value, se


class _RunningMoments:
    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0

    def add(self, x):
        x = np.asarray(x, dtype=float)
        self.count += x.size
        self.total += float(np.sum(x))
        self.total_sq += float(np.sum(x * x))

    def mean_se(self):
        mean = self.total / self.count
        var = max(self.total_sq / self.count - mean * mean, 0.0)
        return mean, math.sqrt(var / self.count)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def terminal_route(F: PathFunctional):
    """Whether :func:`log_mean_exp` samples F from W(1) alone.

    True for a :class:`TerminalValue`, which reads the end of the path only;
    every other functional is sampled on whole paths.
    """
    return isinstance(F, TerminalValue)


def log_mean_exp(F: PathFunctional, n: float, batch: PathBatch):
    """(1/n) log mean exp(n F(W / sqrt(n))) with a delta-method standard error.

    Valid as a drift-penalized value only in the quadratic case, where the
    penalty functional is the scaled cumulant generator.  The running
    log-sum-exp is max-shifted, so large n degrades the standard error
    rather than overflowing.

    A terminal functional (:func:`terminal_route`) is read on W(1) alone:
    the sum of the increments is exactly N(0, 1) at any step count, so each
    block draws one normal per path from its (seed, block index) generator
    and the estimate does not depend on ``batch.n_steps``.  Every other
    functional is read on whole paths of the batch grid.
    """
    acc = _StreamingLse()
    scale = 1.0 / math.sqrt(n)
    if terminal_route(F):
        # one-sample paths at t = 1
        times = np.ones(1)
        blocks = (rng.standard_normal((size, 1)) for size, rng in batch.iter_blocks())
    else:
        times = batch.times
        blocks = batch.iter_paths()
    for values in blocks:
        values *= scale
        acc.add(n * np.asarray(evaluate_functional(F, times, values), dtype=float))
    return acc.estimate(n)


@dataclass(frozen=True)
class FeedbackControl:
    """Bounded feedback drift q(t, x) of the current state; progressively
    measurable because the rule only ever sees the simulated state at t."""

    rule: Callable
    bound: float
    label: str = ""

    @classmethod
    def constant(cls, value):
        v = float(value)
        return cls(rule=lambda t, x: np.full(x.shape, v), bound=abs(v),
                   label=f"constant({v:g})")

    @classmethod
    def state_feedback(cls, fn, bound, label="state_feedback"):
        """Markov rule q(t, x) of the current state, clipped to the bound."""
        b = float(bound)
        return cls(rule=lambda t, x: np.clip(fn(t, x), -b, b), bound=b, label=label)


def girsanov_lower_bound(
    F: PathFunctional,
    g: gen.GeneratorSpec,
    control: FeedbackControl,
    batch: PathBatch,
):
    """Monte Carlo mean of F(W + drift) - accumulated drift cost.

    Euler drift insertion on the batch grid; the result is a lower bound of
    the drift-penalized value of F up to Monte Carlo error.
    """
    dt = batch.dt
    times = batch.times
    acc = _RunningMoments()
    for inc in batch.iter_increments():
        size = inc.shape[0]
        x = np.zeros((size, batch.n_steps + 1))
        cost = np.zeros(size)
        for k in range(batch.n_steps):
            q = np.asarray(control.rule(times[k], x[:, k]), dtype=float)
            if np.any(np.abs(q) > control.bound + 1e-9):
                raise ValueError("control exceeded its declared bound")
            step_cost = g.cost(times[k], q)
            if not np.all(np.isfinite(step_cost)):
                raise ValueError("control drifted outside the cost domain")
            cost += step_cost * dt
            x[:, k + 1] = x[:, k] + q * dt + inc[:, k]
        vals = np.asarray(evaluate_functional(F, times, x), dtype=float) - cost
        acc.add(vals)
    return acc.mean_se()


def cramer_average(F: PathFunctional, n: int, batch: PathBatch):
    """(1/n) log mean exp(n F(average of the n chopped subpaths)).

    A path on n_steps = n m steps, cut into its n pieces and each piece
    rescaled to [0, 1], gives n independent Brownian paths on m steps, and
    their average is W / sqrt(n) in law on that grid.  So the estimate is
    :func:`log_mean_exp` on m steps (a terminal functional reads W(1)
    alone).  Requires the batch step count to be divisible by n.
    """
    steps = batch.n_steps
    if steps % n:
        raise ValueError(f"batch step count {steps} not divisible by n={n}")
    return log_mean_exp(F, n, replace(batch, n_steps=steps // n))


# ---------------------------------------------------------------------------
# Least-squares backward regression for the scaled BSDE
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LsmcSolution:
    """Backward-regression solution ladder.

    ``basis`` names the feature basis (``"hat"`` or ``"polynomial"``);
    ``y_ladder`` is the in-sample mean of the value process per time node.
    ``basis_sizes`` holds the number of basis functions (for hats, distinct
    knots) of each fitted regression step, from the last step back.
    """

    times: np.ndarray
    basis: str
    y0: float
    y_ladder: np.ndarray
    terminal_residual: float
    degree_fallbacks: int = 0
    basis_sizes: tuple = ()


# normal equations square the condition number, so a pivot or eigenvalue of
# X^T X this small relative to its diagonal or to the largest eigenvalue is
# within rounding of zero
_RANK_TOL = 1e-12


class _NormalEquations:
    """Minimum-norm least squares from the normal equations X^T X c = X^T y,
    with X^T X factored once (Cholesky) for every target on the same sample.

    A pivot L_ii^2 is the squared distance of column i from the span of the
    columns before it, so one at most ``_RANK_TOL`` times its diagonal entry
    marks a dependent column; then the eigendecomposition of X^T X gives the
    minimum-norm answer and the rank of X, counting eigenvalues at or below
    ``_RANK_TOL`` times the largest as zero.
    """

    def __init__(self, gram):
        from scipy.linalg import lapack

        self.pinv = None
        self.rank = gram.shape[0]
        self.factor, info = lapack.dpotrf(gram)
        if info or np.any(np.diag(self.factor) ** 2 <= _RANK_TOL * np.diag(gram)):
            # LinAlgError subclasses ValueError, which the CLI reads as bad
            # input; a failed eigendecomposition is a numerical failure
            try:
                w, v = np.linalg.eigh(gram)
            except np.linalg.LinAlgError as err:
                raise RuntimeError(f"least-squares regression failed: {err}") from err
            keep = w > _RANK_TOL * w.max()
            self.pinv = (v[:, keep] / w[keep]) @ v[:, keep].T
            self.rank = int(np.count_nonzero(keep))

    def solve(self, rhs):
        """Coefficients for the right-hand side X^T y."""
        from scipy.linalg import lapack

        if self.pinv is not None:
            coef = self.pinv @ rhs
        else:
            coef, _ = lapack.dpotrs(self.factor, rhs)
        if not np.all(np.isfinite(coef)):
            raise RuntimeError("least-squares regression failed: non-finite coefficients")
        return coef


class _HatBasis:
    """Piecewise-linear hats on quantile-spaced knots of one statistic.

    Local bases keep the conditional-expectation projection bias small and
    the normal equations well conditioned, which global polynomials do not
    once the driver squares the regressed gradient.  Each sample weighs at
    most two adjacent hats, ``idx`` and ``idx + 1`` with ``1 - t`` and
    ``t``, so X^T X is tridiagonal and X^T y has two terms per sample: both
    are summed by ``bincount``, and no (samples x knots) matrix is built.
    A single unique value leaves one knot, the constant basis.  A hat no
    sample weighs, or more hats than distinct samples touch them, makes
    X^T X singular, and the solver takes the minimum-norm answer.
    """

    def __init__(self, x, n_knots):
        # one sort serves both the quantile knots and the cell of each sample
        order = np.argsort(x)
        xs = x[order]
        knots = np.unique(np.quantile(xs, np.linspace(0.0, 1.0, n_knots)))
        self.size = knots.size
        if knots.size < 2:
            self.idx = np.zeros(x.size, dtype=np.intp)
            self.t = np.zeros(x.size)
        else:
            # np.searchsorted(knots, x), the count of knots strictly below
            # each sample, read off the sort: knot j is strictly below the
            # sorted samples from np.searchsorted(xs, knots[j], "right") on
            first = np.searchsorted(xs, knots, side="right")
            below = np.empty(x.size, dtype=np.intp)
            below[order] = np.cumsum(np.bincount(first, minlength=x.size + 1)[:x.size])
            self.idx = np.clip(below - 1, 0, knots.size - 2)
            self.t = np.clip((x - knots[self.idx]) / (knots[self.idx + 1] - knots[self.idx]),
                             0.0, 1.0)
        self.hi = self.idx + 1
        self.s = 1.0 - self.t
        off = np.diag(np.bincount(self.idx, self.s * self.t, minlength=self.size)[:-1], 1)
        self.solver = _NormalEquations(np.diag(self._sums(self.s * self.s, self.t * self.t))
                                       + off + off.T)

    def _sums(self, lower, upper):
        # per-hat sums of the low-side and high-side weights; the constant
        # basis has no hat idx + 1, and its high-side weight t is 0
        return (np.bincount(self.idx, lower, minlength=self.size)
                + np.bincount(self.hi, upper, minlength=self.size)[:self.size])

    def fit(self, y):
        """Least-squares coefficients (length ``size``) of y."""
        return self.solver.solve(self._sums(self.s * y, self.t * y))

    def __call__(self, coef):
        # clipping maps the constant basis's missing hat idx + 1 onto hat 0,
        # which its weight t = 0 cancels
        return self.s * coef[self.idx] + self.t * np.take(coef, self.hi, mode="clip")


class _PolynomialBasis:
    """Standardized total-degree-3 polynomials in two statistics.

    The few columns keep the gradient-regression variance (and with it the
    convexity bias of the driver) small.  The ten features are stored as
    rows, products of cached powers, so X^T X and X^T y are two products.
    """

    size = 10

    def __init__(self, first, second):
        a, b = _standardized(first), _standardized(second)
        a2, b2 = a * a, b * b
        self.features = np.stack([np.ones_like(a), a, b, a2, a * b, b2,
                                  a2 * a, a2 * b, a * b2, b2 * b])
        self.solver = _NormalEquations(self.features @ self.features.T)

    def fit(self, y):
        """Least-squares coefficients (length 10) of y."""
        return self.solver.solve(self.features @ y)

    def __call__(self, coef):
        return coef @ self.features


def _standardized(s):
    sd = float(np.std(s))
    return (s - float(np.mean(s))) / (sd if sd > 1e-12 else 1.0)


def _second_statistic(F, scaled, dt):
    """The running statistic of the scaled paths that a two-statistic
    functional depends on besides the state, built in place in ``scaled``;
    None for a functional of the state alone."""
    if isinstance(F, RunningMax):
        return np.maximum.accumulate(scaled, axis=1, out=scaled)
    if isinstance(F, TimeIntegral):
        # the trapezoid rule, step by step
        np.cumsum(0.5 * (scaled[:, 1:] + scaled[:, :-1]) * dt, axis=1, out=scaled[:, 1:])
        scaled[:, 0] = 0.0
        return scaled
    return None


def lsmc_bsde(
    F: PathFunctional,
    g: gen.GeneratorSpec,
    n: float,
    batch: PathBatch,
    basis_size: int = 35,
) -> LsmcSolution:
    """Backward least-squares scheme for the scaled BSDE value process.

    At each step the next value is regressed on features of the current
    state statistics: piecewise-linear hats on ``basis_size`` quantile knots
    of the state or, when the functional needs a second statistic (running
    max or time integral), standardized total-degree-3 polynomials in both.
    Either basis is fitted by its normal equations, factored once per step
    for both regressions.  The gradient proxy comes from the martingale
    increment regression, and the driver g*(t, sqrt(n) Z) dt is added.  A
    rank-deficient hat regression falls back to fewer knots, and
    zero-variance targets short-circuit to constants.  A failed
    least-squares solve or non-finite coefficients raise ``RuntimeError``.
    Besides the paths, only the scaled paths that the terminal evaluation
    reads are held; the second statistic is built in place in them, and the
    state and the increment are formed per step.
    """
    paths = batch.paths()
    times = batch.times
    dt = batch.dt
    sqrt_n = math.sqrt(n)
    m = batch.n_steps
    scaled = paths / sqrt_n
    y = np.asarray(evaluate_functional(F, times, scaled), dtype=float)
    second = _second_statistic(F, scaled, dt)
    del scaled

    # certified truncations from the boundedness certificate: with a
    # nonnegative cost the value process stays inside the bounds of F, and
    # the accumulated driver cannot exceed the value spread; clipping the
    # regressed quantities there blocks the outlier feedback loop that the
    # convex driver would otherwise amplify backward in time
    lo, hi = F.bounds
    if np.isfinite(lo) and np.isfinite(hi):
        spread = max(hi - lo, 1e-12)
        z_cap = math.sqrt(8.0 * spread) if isinstance(g, gen.Quadratic) else np.inf
    else:
        spread, z_cap = np.inf, np.inf

    y_ladder = np.empty(m + 1)
    y_ladder[m] = float(y.mean())
    fallbacks = 0
    basis_sizes = []
    terminal_residual = 0.0

    for k in range(m - 1, 0, -1):
        if float(np.std(y)) < 1e-14:
            e_k = np.full_like(y, y.mean())
            z_k = np.zeros_like(y)
        else:
            state = paths[:, k] / sqrt_n
            if second is not None:
                basis = _PolynomialBasis(state, second[:, k])
            else:
                size = basis_size
                basis = _HatBasis(state, size)
                while basis.solver.rank < max(3, basis.size // 4) and size > 3:
                    size = max(3, size // 2)
                    fallbacks += 1
                    basis = _HatBasis(state, size)
            e_k = basis(basis.fit(y))
            # centering the gradient target by the fitted conditional
            # mean is unbiased (the mean is measurable at time k) and
            # removes the O(1/dt) variance of the raw target
            z_k = basis(basis.fit((y - e_k) * (paths[:, k + 1] - paths[:, k]) / dt))
            basis_sizes.append(basis.size)
            if k == m - 1:
                terminal_residual = float(np.sqrt(np.mean((y - e_k) ** 2)))
        if np.isfinite(spread):
            e_k = np.clip(e_k, lo, hi)
            if np.isfinite(z_cap):
                z_k = np.clip(z_k, -z_cap / sqrt_n, z_cap / sqrt_n)
        y = e_k + dt * g.gstar(times[k], sqrt_n * z_k)
        y_ladder[k] = float(np.mean(y))
    # at time 0 every path is at the origin, so both regressions are means
    z0 = float(np.mean(y * (paths[:, 1] - paths[:, 0]))) / dt
    y_ladder[0] = float(np.mean(y)) + dt * g.gstar(times[0], np.full(1, sqrt_n * z0))[0]

    return LsmcSolution(
        times=times,
        basis="hat" if second is None else "polynomial",
        y0=float(y_ladder[0]),
        y_ladder=y_ladder,
        terminal_residual=terminal_residual,
        degree_fallbacks=fallbacks,
        basis_sizes=tuple(basis_sizes),
    )


# ---------------------------------------------------------------------------
# Brownian bridge drift moments
# ---------------------------------------------------------------------------

def simulate_bridge(x, y, epsilon, delta, n_paths, seed, time_grid):
    """Exact-marginal bridge simulation from x at 0 to y at delta.

    Sequential conditional-Gaussian transitions on an arbitrary increasing
    grid inside [0, delta]; no Euler bias in the marginals.  The paths are
    drawn block by block from the (seed, block index) generators of a
    :class:`PathBatch`, as in :func:`bridge_moment_check`.
    """
    t = np.asarray(time_grid, dtype=float)
    if t[0] != 0.0 or t[-1] > delta + 1e-15:
        raise ValueError("time grid must start at 0 and stay inside [0, delta]")
    batch = PathBatch(n_steps=t.size - 1, n_paths=n_paths, seed=seed)
    return np.concatenate(list(_bridge_blocks(x, y, epsilon, delta, batch, t)), axis=0)


def _bridge_blocks(x, y, epsilon, delta, batch, t):
    """Bridge paths on the checked grid ``t``, one array per block of ``batch``."""
    for size, rng in batch.iter_blocks():
        yield _bridge_paths(x, y, epsilon, delta, size, rng, t)


def _bridge_paths(x, y, epsilon, delta, n_paths, rng, t):
    """Bridge paths on the checked grid ``t``, drawing from ``rng``."""
    w = np.empty((n_paths, t.size))
    w[:, 0] = x
    for i in range(t.size - 1):
        gap = delta - t[i]
        step = t[i + 1] - t[i]
        mean = w[:, i] + (y - w[:, i]) * step / gap
        var = epsilon * step * (delta - t[i + 1]) / gap
        if var > 0:
            w[:, i + 1] = mean + math.sqrt(var) * rng.standard_normal(n_paths)
        else:
            w[:, i + 1] = mean
    return w


def bridge_constant(r):
    """Constant of the bridge drift-moment bound, by numerical quadrature.

    Finite exactly for 1 < r < 2: it multiplies the r-th absolute Gaussian
    moment by the integral of (t / (1 - t))^(r/2) over (0, 1).
    """
    from scipy.integrate import quad
    from scipy.special import gamma as gamma_fn

    if not 1.0 < r < 2.0:
        raise ValueError(f"bound unavailable: the constant diverges for r={r:g} outside (1, 2)")
    abs_moment = 2.0 ** (r / 2.0) * gamma_fn((r + 1.0) / 2.0) / math.sqrt(math.pi)
    integral, _ = quad(lambda t: (t / (1.0 - t)) ** (r / 2.0), 0.0, 1.0)
    return 2.0 ** (r - 1.0) * abs_moment * integral


@dataclass(frozen=True)
class BridgeMomentCheck:
    empirical: float
    standard_error: float
    bound: float
    constant: float


def bridge_moment_check(x, y, epsilon, delta, r, batch: PathBatch) -> BridgeMomentCheck:
    """Empirical bridge drift moment E int |q|^r dt against its analytic bound.

    The drift of the bridge at time t is (y - W(t)) / (delta - t); the bound
    is K_r |y-x|^r delta^(1-r) + K_r delta^(1-r/2) epsilon^(r/2).
    """
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon!r}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    k_r = bridge_constant(r)
    bound = (k_r * abs(y - x) ** r * delta ** (1.0 - r)
             + k_r * delta ** (1.0 - r / 2.0) * epsilon ** (r / 2.0))
    t = np.linspace(0.0, delta, batch.n_steps + 1)
    acc = _RunningMoments()
    for w in _bridge_blocks(x, y, epsilon, delta, batch, t):
        drift = (y - w[:, :-1]) / (delta - t[:-1])
        acc.add(np.sum(np.abs(drift) ** r, axis=1) * (t[1] - t[0]))
    empirical, se = acc.mean_se()
    return BridgeMomentCheck(empirical=empirical, standard_error=se, bound=bound, constant=k_r)


def truncated_quadratic_moment(x, y, epsilon, delta, eta_list, n_paths, seed):
    """E of the integral of |drift|^2 up to delta - eta, per truncation eta.

    The time grid refines geometrically toward delta so the smallest
    truncation is resolved; the values diverge logarithmically as eta drops,
    which is the square-integrability failure of bridge drifts.
    """
    etas = sorted(float(e) for e in eta_list)
    eta_min = etas[0]
    coarse = np.linspace(0.0, delta / 2.0, 65)
    tail = delta - np.geomspace(delta / 2.0, eta_min, 257)
    t = np.unique(np.concatenate([coarse, tail]))
    w = simulate_bridge(x, y, epsilon, delta, n_paths, seed, t)
    drift_sq = ((y - w[:, :-1]) / (delta - t[:-1])) ** 2
    dt = np.diff(t)
    out = {}
    for eta in etas:
        mask = t[:-1] + dt <= delta - eta + 1e-15
        out[eta] = float(np.mean(np.sum(drift_sq[:, mask] * dt[mask], axis=1)))
    return out
