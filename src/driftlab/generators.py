"""Convex drift-cost functions and their convex conjugates.

A cost function assigns to each time ``t`` in [0,1] and drift value ``q`` a
convex penalty ``g(t, q)``, possibly ``+inf`` outside an interval of
admissible drifts.  All downstream solvers (finite differences, path
optimization, Monte Carlo, transport) consume the small family of variants
defined here together with their conjugates ``g*(t, z) = sup_q (q z - g(t, q))``.

Each variant is a frozen dataclass that owns its math:

* ``cost(t, q)`` and ``g_prime(t, q)``: the cost and a subgradient (the
  value method is not called ``g`` because ``Tabulated.g`` holds samples);
* ``gstar(t, z)`` and ``gstar_halfline(t, z, side, out=None)``: the
  conjugate and its one-sided pieces (the sup over drifts of one sign),
  the latter written into ``out`` when one is given;
* ``even``: whether g is even in q, so that g* is even and non-decreasing
  on [0, inf) and the upwind flux needs one half-line, not two;
* ``gstar_lipschitz(zmax)``: a bound on |d g*/dz| over |z| <= zmax, the
  working gradient range, not over the whole line (for a table, the
  largest |q| at the argmax nodes of -zmax and zmax);
* ``domain()``, ``lower_bound()`` and ``growth()``: the effective-domain
  interval, a constant b with g >= -b, and the growth exponent.

Callers call these methods directly, on a float or a float array.  The one
module-level evaluator, :func:`eval_gstar_halfline`, is the input of the
PDE's Godunov flux: one call per time step for an even cost, two for a
table.

Extended-real convention: ``+inf`` is represented by IEEE ``math.inf`` /
``numpy.inf`` throughout, never by a large finite sentinel.  IEEE arithmetic
(``x + inf == inf``, ``max`` with ``-inf`` as identity) supplies the required
extended-real rules, so no wrapper type is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .report import format_float, record

__all__ = [
    "Quadratic",
    "PowerLaw",
    "IndicatorInterval",
    "TimeModulated",
    "Tabulated",
    "GeneratorSpec",
    "TiReport",
    "eval_gstar_halfline",
    "check_ti",
]


# ---------------------------------------------------------------------------
# Cost variants
# ---------------------------------------------------------------------------

def _buffer(z, out):
    """``out``, or a fresh float array shaped like ``z`` when it is None."""
    return np.empty_like(z, dtype=float) if out is None else out


class _Symmetric:
    """Shared methods of the costs even in q with minimum g(0) = 0.

    Their one-sided conjugate is g* at z clipped to the side's half-line.
    Each variant computes it as ``gstar`` does, in the same operation order,
    in one buffer: ``out`` when given (it may be ``z`` itself), else a fresh
    array.
    """

    even = True

    @staticmethod
    def _clip(z, side, out=None):
        return np.maximum(z, 0.0, out=out) if side > 0 else np.minimum(z, 0.0, out=out)

    def domain(self):
        return (-np.inf, np.inf)

    def lower_bound(self):
        return 0.0


@dataclass(frozen=True)
class Quadratic(_Symmetric):
    """g(t, q) = c q^2 / 2 with curvature c > 0; g*(z) = z^2 / (2 c)."""

    c: float = 1.0

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("curvature c must be positive")

    def cost(self, t, q):
        return 0.5 * self.c * q * q

    def g_prime(self, t, q):
        return self.c * q

    def gstar(self, t, z):
        return 0.5 * z * z / self.c

    def gstar_halfline(self, t, z, side, out=None):
        # the clipped copy is read twice, so it cannot live in ``out``
        zc = self._clip(z, side)
        out = np.multiply(zc, 0.5, out=_buffer(z, out))
        np.multiply(out, zc, out=out)
        return np.divide(out, self.c, out=out)

    def gstar_lipschitz(self, zmax):
        return zmax / self.c

    def growth(self):
        return 2.0


@dataclass(frozen=True)
class PowerLaw(_Symmetric):
    """g(t, q) = a |q|^r with exponent r > 1 and scale a > 0.

    The conjugate is g*(z) = b |z|^{r'} with the dual exponent r' of
    1/r + 1/r' = 1 and b = (a r)^{1 - r'} / r'.
    """

    r: float
    a: float = 1.0

    def __post_init__(self):
        if not self.r > 1:
            raise ValueError("exponent r must exceed 1 for coercivity")
        if not self.a > 0:
            raise ValueError("scale a must be positive")

    @property
    def rp(self):
        """Dual exponent r' = r / (r - 1)."""
        return self.r / (self.r - 1.0)

    def cost(self, t, q):
        return self.a * np.abs(q) ** self.r

    def g_prime(self, t, q):
        return self.a * self.r * np.sign(q) * np.abs(q) ** (self.r - 1.0)

    def gstar(self, t, z):
        rp = self.rp
        b = (self.a * self.r) ** (1.0 - rp) / rp
        return b * np.abs(z) ** rp

    def gstar_halfline(self, t, z, side, out=None):
        rp = self.rp
        b = (self.a * self.r) ** (1.0 - rp) / rp
        out = self._clip(z, side, _buffer(z, out))
        np.abs(out, out=out)
        np.power(out, rp, out=out)
        return np.multiply(b, out, out=out)

    def gstar_lipschitz(self, zmax):
        # maximizer |q| = (|z| / (a r))^{1/(r-1)}
        return (zmax / (self.a * self.r)) ** (1.0 / (self.r - 1.0))

    def growth(self):
        return self.r


@dataclass(frozen=True)
class IndicatorInterval(_Symmetric):
    """g(t, q) = 0 on [-K, K] and +inf outside (convex indicator).

    The conjugate is the support function g*(z) = K |z|.
    """

    K: float

    def __post_init__(self):
        if not self.K > 0:
            raise ValueError("half-width K must be positive")

    def cost(self, t, q):
        return np.where(np.abs(q) <= self.K, 0.0, np.inf)

    def g_prime(self, t, q):
        return np.zeros_like(q)

    def gstar(self, t, z):
        return self.K * np.abs(z)

    def gstar_halfline(self, t, z, side, out=None):
        out = self._clip(z, side, _buffer(z, out))
        np.abs(out, out=out)
        return np.multiply(self.K, out, out=out)

    def gstar_lipschitz(self, zmax):
        return self.K

    def domain(self):
        return (-self.K, self.K)

    def growth(self):
        return np.inf


@dataclass(frozen=True)
class TimeModulated:
    """g(t, q) = w(t) * base(q) for a positive weight sampled on a time grid.

    ``weights`` are samples of w on the uniform grid ``linspace(0, 1, len(weights))``
    and are interpolated linearly in between.  The conjugate is
    (w g)*(z) = w g*(z / w); domain and growth are the base's, the lower
    bound is max(w) times the base's and the Lipschitz bound of g* over
    |z| <= zmax is the base's over |z| <= zmax / min(w).
    """

    base: "GeneratorSpec"
    weights: tuple

    def __post_init__(self):
        if isinstance(self.base, TimeModulated):
            raise ValueError("nested time modulation is not supported")
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise ValueError("need at least two weight samples on [0, 1]")
        if not np.all(w > 0):
            raise ValueError("weights must be strictly positive")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))

    def weight_at(self, t):
        w = np.asarray(self.weights)
        return np.interp(t, np.linspace(0.0, 1.0, w.size), w)

    def cost(self, t, q):
        return self.weight_at(t) * self.base.cost(t, q)

    def g_prime(self, t, q):
        return self.weight_at(t) * self.base.g_prime(t, q)

    def gstar(self, t, z):
        w = self.weight_at(t)
        return w * self.base.gstar(t, z / w)

    @property
    def even(self):
        return self.base.even

    def gstar_halfline(self, t, z, side, out=None):
        # w * base(z / w, side) in the same order; ``z / w`` may share ``out``
        w = self.weight_at(t)
        out = self.base.gstar_halfline(t, np.divide(z, w, out=out), side, out=out)
        return np.multiply(w, out, out=out)

    def gstar_lipschitz(self, zmax):
        return self.base.gstar_lipschitz(zmax / min(self.weights))

    def domain(self):
        return self.base.domain()

    def lower_bound(self):
        return max(self.weights) * self.base.lower_bound()

    def growth(self):
        return self.base.growth()


@dataclass(frozen=True)
class Tabulated:
    """Convex samples (q_j, g_j) on a strictly increasing drift grid.

    The cost is the piecewise-linear interpolant of the samples inside
    [q_0, q_m] and +inf outside; convexity (non-decreasing chord slopes)
    is validated at construction.  The conjugate is the discrete Legendre
    transform of the samples.  Its chord tables, for the whole table and
    for each sign half, are built on first use and kept, so an evaluation
    is one O(log n) argmax search and a gather.  No growth class can be
    certified: the samples only witness a finite drift range.
    """

    q: tuple
    g: tuple

    even = False

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if q.size == 0 or q.size != g.size:
            raise ValueError("need matching, non-empty q and g samples")
        if q.size > 1 and not np.all(np.diff(q) > 0):
            raise ValueError("q samples must be strictly increasing")
        _validate_convex_samples(q, g)
        object.__setattr__(self, "q", tuple(float(x) for x in q))
        object.__setattr__(self, "g", tuple(float(x) for x in g))

    @cached_property
    def table(self):
        return _chord_table(np.asarray(self.q), np.asarray(self.g))

    @cached_property
    def halves(self):
        """(table on q <= 0, table on q >= 0), each with a node at q = 0."""
        q, g, _ = self.table
        return tuple(_chord_table(*_split_table(q, g, side)) for side in (-1, +1))

    def cost(self, t, q):
        qs, gs, _ = self.table
        out = np.interp(q, qs, gs)
        return np.where((q < qs[0]) | (q > qs[-1]), np.inf, out)

    def g_prime(self, t, q):
        """The right-chord slope."""
        qs, _, slopes = self.table
        if qs.size == 1:
            return np.zeros_like(q)
        idx = np.clip(np.searchsorted(qs, q, side="right") - 1, 0, slopes.size - 1)
        return slopes[idx]

    def gstar(self, t, z):
        return _table_conjugate_values(self.table, z)

    def gstar_halfline(self, t, z, side, out=None):
        return _table_conjugate_values(self.halves[int(side > 0)], z, out)

    def gstar_lipschitz(self, zmax):
        # d g*/dz is the argmax drift, non-decreasing in z: its largest
        # magnitude on [-zmax, zmax] is at an end, found as the conjugate does
        q, _, slopes = self.table
        return float(np.max(np.abs(q[np.searchsorted(slopes, (-zmax, zmax), side="left")])))

    def domain(self):
        return (self.q[0], self.q[-1])

    def lower_bound(self):
        return max(0.0, -min(self.g))

    def growth(self):
        return None


GeneratorSpec = Union[Quadratic, PowerLaw, IndicatorInterval, TimeModulated, Tabulated]


def _validate_convex_samples(q, g, tol=1e-10):
    if q.size < 3:
        return
    dq = np.diff(q)
    slopes = np.diff(g) / dq
    drop = np.diff(slopes)
    # a chord slope carries the rounding of its two g values divided by the
    # chord width, which is large for nearly coincident drifts
    noise = (np.abs(g[:-1]) + np.abs(g[1:])) / dq
    slack = 1.0 + np.abs(slopes[:-1]) + noise[:-1] + noise[1:]
    if np.any(drop < -tol * slack):
        raise ValueError("samples are not convex (chord slopes decrease)")


def _chord_table(q, g):
    """Sample arrays with their chord slopes, the input of the argmax search."""
    return q, g, np.diff(g) / np.diff(q)


def _table_conjugate_values(table, z, out=None):
    """max_j (q_j z - g_j) for a chord table via monotone-argmax slopes,
    written into ``out`` when given (it may be ``z`` itself)."""
    q, g, slopes = table
    if q.size == 1:
        return np.subtract(np.multiply(q[0], z, out=out), g[0], out=out)
    # searchsorted returns 0 .. len(slopes) = q.size - 1: always a valid node
    idx = np.searchsorted(slopes, z, side="left")
    return np.subtract(np.multiply(q[idx], z, out=out), g[idx], out=out)


def _split_table(q, g, side):
    """Restrict samples to sign(q) = side, inserting a node at q = 0."""
    mask = q >= 0 if side > 0 else q <= 0
    qs, gs = q[mask], g[mask]
    if qs.size == 0 or (0.0 not in qs and q[0] < 0 < q[-1]):
        g0 = np.interp(0.0, q, g)
        if side > 0:
            qs, gs = np.concatenate([[0.0], qs]), np.concatenate([[g0], gs])
        else:
            qs, gs = np.concatenate([qs, [0.0]]), np.concatenate([gs, [g0]])
    return qs, gs


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def is_time_dependent(spec: GeneratorSpec):
    return isinstance(spec, TimeModulated)


# Kept as a function: the Godunov flux's input, whose calls the benchmark
# tracer counts (one a march step for an even cost, two for a table).
def eval_gstar_halfline(spec: GeneratorSpec, t, z, side, out=None):
    """One-sided conjugate sup over drifts with sign(q) = side.

    These are the two monotone pieces used by upwind (Godunov) Hamiltonians:
    the value is non-decreasing in z for side=+1 and non-increasing for
    side=-1.  With ``out`` (a float array shaped like ``z``, possibly ``z``
    itself) the values are written there and ``out`` is returned; otherwise
    a float for a scalar ``z``, else a fresh array.
    """
    val = spec.gstar_halfline(t, np.asarray(z, dtype=float), side, out)
    return val if out is not None or val.ndim else float(val)


# ---------------------------------------------------------------------------
# Admissibility diagnostics
# ---------------------------------------------------------------------------

_COERCIVITY_LADDER = 2.0 ** np.arange(0, 21)


@dataclass(frozen=True)
class TiReport:
    """Pass/fail record per admissibility clause, with details."""

    clauses: dict

    @property
    def passed(self):
        return all(ok for ok, _ in self.clauses.values())

    def __str__(self):
        lines = []
        for name, (ok, detail) in self.clauses.items():
            lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        return "\n".join(lines)


def check_ti(spec: GeneratorSpec) -> TiReport:
    """Diagnostic report on the admissibility of a cost function.

    Clauses: lower bound, superlinear growth along a geometric drift ladder,
    midpoint convexity on sampled triples, zero in the domain interior, and
    time integrability of the bounded-drift supremum.  The growth clause
    samples |q| in {2^0, ..., 2^20} only, so it is a finite heuristic rather
    than a proof.  The run's trace gets ``all_passed``.
    """
    clauses = {}
    t_grid = np.linspace(0.0, 1.0, 33)
    lo, hi = spec.domain()

    # lower bound
    b = spec.lower_bound()
    qs = np.linspace(max(lo, -64.0), min(hi, 64.0), 513)
    vals = np.stack([spec.cost(t, qs) for t in t_grid[::8]])
    finite = vals[np.isfinite(vals)]
    ok = finite.size > 0 and float(finite.min()) >= -b - 1e-12
    clauses["lower_bound"] = (bool(ok), f"min sampled g = {finite.min():.6g}, bound -{b:g}")

    # superlinear growth (coercivity) along the ladder
    ladder = _COERCIVITY_LADDER
    in_dom = ladder <= min(abs(lo), abs(hi)) if np.isfinite(hi) else np.ones_like(ladder, bool)
    if spec.growth() == math.inf:
        clauses["coercivity"] = (True, "bounded effective domain forces +inf growth")
    else:
        pts = ladder[in_dom]
        if pts.size == 0:
            clauses["coercivity"] = (False, "no ladder point inside the domain")
        else:
            ratios = np.min([spec.cost(t, pts) / pts for t in t_grid[::16]], axis=0)
            grow = float(ratios[-1] / max(ratios[0], 1e-300))
            ok = bool(np.isinf(ratios[-1])) or grow >= 1.5
            clauses["coercivity"] = (
                ok,
                f"g/|q| ratio grows by factor {grow:.3g} over the ladder"
                + ("" if ok else " (needs >= 1.5; heuristic)"),
            )

    # midpoint convexity on sampled triples
    span = np.linspace(max(lo, -16.0), min(hi, 16.0), 65)
    worst = -np.inf
    for t in t_grid[::8]:
        v = spec.cost(t, span)
        fin = np.isfinite(v)
        q1, q2 = span[fin][:-2], span[fin][2:]
        gap = spec.cost(t, 0.5 * (q1 + q2)) - 0.5 * (v[fin][:-2] + v[fin][2:])
        if gap.size:
            worst = max(worst, float(np.max(gap)))
    ok = worst <= 1e-9
    clauses["convexity"] = (bool(ok), f"max midpoint excess {worst:.3g}")

    # zero in the relative interior of the domain
    ok = (lo < 0.0 < hi) or (lo == 0.0 == hi)
    clauses["zero_in_domain"] = (bool(ok), f"domain interval [{lo:g}, {hi:g}]")

    # time integrability of sup over a bounded drift range
    sups = []
    for r in (1.0, 4.0):
        edge_lo, edge_hi = max(lo, -r), min(hi, r)
        per_t = [
            max(float(spec.cost(t, edge_lo)), float(spec.cost(t, edge_hi)))
            for t in t_grid
        ]
        sups.append(np.trapezoid(per_t, t_grid))
    ok = all(np.isfinite(s) for s in sups)
    sums = ", ".join(format_float(s) for s in sups)
    clauses["time_integrability"] = (bool(ok), f"trapezoid of sup_|q|<=r g: [{sums}]")

    report = TiReport(clauses)
    record("check_ti", all_passed=report.passed)
    return report
