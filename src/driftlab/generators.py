"""Convex drift-cost functions and their convex conjugates.

A cost function assigns to each time ``t`` in [0,1] and drift value ``q`` a
convex penalty ``g(t, q)``, possibly ``+inf`` outside an interval of
admissible drifts.  All downstream solvers (finite differences, path
optimization, Monte Carlo, transport) consume the small family of variants
defined here together with their conjugates ``g*(t, z) = sup_q (q z - g(t, q))``.

Each variant is a frozen dataclass that owns its math:

* ``cost(t, q)`` and ``g_prime(t, q)``: the cost and a subgradient (the
  value method is not called ``g`` because ``Tabulated.g`` holds samples);
* ``gstar(t, z)`` and ``gstar_halfline(t, z, side)``: the conjugate and its
  one-sided pieces (the sup over drifts of one sign);
* ``gstar_lipschitz(zmax)``: a bound on |d g*/dz| over |z| <= zmax;
* ``domain()``, ``lower_bound()`` and ``growth()``: the effective-domain
  interval, a constant b with g >= -b, and the growth exponent;
* ``to_config()``: the key-value form read back by :func:`spec_from_config`.

The methods take float arrays.  The module-level ``eval_*`` functions and
their companions are the public entry points: each converts its argument,
calls the method and returns a float for a scalar argument.

Extended-real convention: ``+inf`` is represented by IEEE ``math.inf`` /
``numpy.inf`` throughout, never by a large finite sentinel.  IEEE arithmetic
(``x + inf == inf``, ``max`` with ``-inf`` as identity) supplies the required
extended-real rules, so no wrapper type is needed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .report import format_float

__all__ = [
    "Quadratic",
    "PowerLaw",
    "IndicatorInterval",
    "TimeModulated",
    "Tabulated",
    "GeneratorSpec",
    "TiReport",
    "eval_g",
    "eval_g_prime",
    "eval_gstar",
    "eval_gstar_halfline",
    "gstar_lipschitz",
    "discrete_legendre",
    "check_ti",
    "domain_interval",
    "lower_bound",
    "growth_exponent",
    "spec_to_config",
    "spec_from_config",
    "tabulated_from_csv",
]


# ---------------------------------------------------------------------------
# Cost variants
# ---------------------------------------------------------------------------

class _Symmetric:
    """Shared methods of the costs even in q with minimum g(0) = 0.

    Their one-sided conjugate is g* at z clipped to the side's half-line.
    """

    @staticmethod
    def _clip(z, side):
        return np.maximum(z, 0.0) if side > 0 else np.minimum(z, 0.0)

    def gstar_halfline(self, t, z, side):
        return self.gstar(t, self._clip(z, side))

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

    def gstar_halfline(self, t, z, side):
        zc = self._clip(z, side)
        # gstar's 0.5 * zc * zc / c in the same order, in one buffer
        out = np.multiply(zc, 0.5, out=np.empty_like(z))
        np.multiply(out, zc, out=out)
        np.divide(out, self.c, out=out)
        return out

    def gstar_lipschitz(self, zmax):
        return zmax / self.c

    def growth(self):
        return 2.0

    def to_config(self):
        return {"variant": "quadratic", "c": self.c}


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

    def gstar_lipschitz(self, zmax):
        # maximizer |q| = (|z| / (a r))^{1/(r-1)}
        return (zmax / (self.a * self.r)) ** (1.0 / (self.r - 1.0))

    def growth(self):
        return self.r

    def to_config(self):
        return {"variant": "power", "r": self.r, "a": self.a}


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

    def gstar_lipschitz(self, zmax):
        return self.K

    def domain(self):
        return (-self.K, self.K)

    def growth(self):
        return np.inf

    def to_config(self):
        return {"variant": "indicator", "K": self.K}


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

    def gstar_halfline(self, t, z, side):
        w = self.weight_at(t)
        return w * self.base.gstar_halfline(t, z / w, side)

    def gstar_lipschitz(self, zmax):
        return self.base.gstar_lipschitz(zmax / min(self.weights))

    def domain(self):
        return self.base.domain()

    def lower_bound(self):
        return max(self.weights) * self.base.lower_bound()

    def growth(self):
        return self.base.growth()

    def to_config(self):
        return {"variant": "modulated", "base": self.base.to_config(),
                "weights": list(self.weights)}


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

    def gstar_halfline(self, t, z, side):
        return _table_conjugate_values(self.halves[int(side > 0)], z)

    def gstar_lipschitz(self, zmax):
        return max(abs(self.q[0]), abs(self.q[-1]))

    def domain(self):
        return (self.q[0], self.q[-1])

    def lower_bound(self):
        return max(0.0, -min(self.g))

    def growth(self):
        return None

    def to_config(self):
        return {"variant": "tabulated", "q": list(self.q), "g": list(self.g)}


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


def _table_conjugate_values(table, z):
    """max_j (q_j z - g_j) for a chord table via monotone-argmax slopes."""
    q, g, slopes = table
    if q.size == 1:
        return q[0] * z - g[0]
    # searchsorted returns 0 .. len(slopes) = q.size - 1: always a valid node
    idx = np.searchsorted(slopes, z, side="left")
    return q[idx] * z - g[idx]


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

def _scalar_or_array(out):
    """The one return rule: a float for a scalar argument, else the array."""
    return out if out.ndim else float(out)


def eval_g(spec: GeneratorSpec, t, q):
    """Evaluate g(t, q); array-valued in ``q``.

    Total into the extended reals: +inf outside the effective domain, never
    raises for out-of-domain drifts.
    """
    return _scalar_or_array(spec.cost(t, np.asarray(q, dtype=float)))


def eval_g_prime(spec: GeneratorSpec, t, q):
    """A subgradient of g(t, .) at q (interior drifts only).

    For Tabulated costs the right-chord slope is returned; for the indicator
    the subgradient is 0 inside the interval.
    """
    return _scalar_or_array(spec.g_prime(t, np.asarray(q, dtype=float)))


def domain_interval(spec: GeneratorSpec):
    """Effective-domain interval (q_lo, q_hi), possibly infinite."""
    return spec.domain()


def lower_bound(spec: GeneratorSpec):
    """A constant b with g >= -b everywhere."""
    return spec.lower_bound()


def growth_exponent(spec: GeneratorSpec):
    """Growth class of g: the r with g(q) ~ |q|^r, or inf for bounded domains.

    Returns None when no growth class can be certified (Tabulated samples
    only witness a finite drift range).
    """
    return spec.growth()


def is_time_dependent(spec: GeneratorSpec):
    return isinstance(spec, TimeModulated)


def eval_gstar(spec: GeneratorSpec, t, z):
    """Evaluate the conjugate g*(t, z); array-valued in ``z``."""
    return _scalar_or_array(spec.gstar(t, np.asarray(z, dtype=float)))


def eval_gstar_halfline(spec: GeneratorSpec, t, z, side):
    """One-sided conjugate sup over drifts with sign(q) = side.

    These are the two monotone pieces used by upwind (Godunov) Hamiltonians:
    the value is non-decreasing in z for side=+1 and non-increasing for
    side=-1.
    """
    return _scalar_or_array(spec.gstar_halfline(t, np.asarray(z, dtype=float), side))


def gstar_lipschitz(spec: GeneratorSpec, zmax):
    """Bound on |d g*/dz| over |z| <= zmax (the maximizing drift size)."""
    return spec.gstar_lipschitz(float(abs(zmax)))


def discrete_legendre(samples, z_grid):
    """Exact discrete conjugate max_j (q_j z - g_j) for each z.

    An O(log n) search per dual point via the monotone-argmax property of
    convex samples: the maximizing node is the first whose right chord slope
    reaches z.

    Parameters
    ----------
    samples : sequence of (q_j, g_j)
        Strictly increasing q_j with convex g_j (non-decreasing chord slopes).
    z_grid : sequence of float
        Dual points; any order.

    Returns
    -------
    ndarray of g*(z) values aligned with ``z_grid``.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("empty sample sequence")
    z = np.asarray(z_grid, dtype=float)
    if z.size == 0:
        raise ValueError("empty z grid")
    q = np.asarray([s[0] for s in samples], dtype=float)
    g = np.asarray([s[1] for s in samples], dtype=float)
    if q.size > 1 and not np.all(np.diff(q) > 0):
        raise ValueError("q samples must be strictly increasing")
    _validate_convex_samples(q, g)
    return _table_conjugate_values(_chord_table(q, g), z)


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
    than a proof.
    """
    clauses = {}
    t_grid = np.linspace(0.0, 1.0, 33)
    lo, hi = domain_interval(spec)

    # lower bound
    b = lower_bound(spec)
    qs = np.linspace(max(lo, -64.0), min(hi, 64.0), 513)
    vals = np.stack([np.asarray(eval_g(spec, t, qs)) for t in t_grid[::8]])
    finite = vals[np.isfinite(vals)]
    ok = finite.size > 0 and float(finite.min()) >= -b - 1e-12
    clauses["lower_bound"] = (bool(ok), f"min sampled g = {finite.min():.6g}, bound -{b:g}")

    # superlinear growth (coercivity) along the ladder
    ladder = _COERCIVITY_LADDER
    in_dom = ladder <= min(abs(lo), abs(hi)) if np.isfinite(hi) else np.ones_like(ladder, bool)
    if growth_exponent(spec) == math.inf:
        clauses["coercivity"] = (True, "bounded effective domain forces +inf growth")
    else:
        pts = ladder[in_dom]
        if pts.size == 0:
            clauses["coercivity"] = (False, "no ladder point inside the domain")
        else:
            ratios = np.min([np.asarray(eval_g(spec, t, pts)) / pts for t in t_grid[::16]],
                            axis=0)
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
        v = np.asarray(eval_g(spec, t, span))
        fin = np.isfinite(v)
        q1, q2 = span[fin][:-2], span[fin][2:]
        mid = eval_g(spec, t, 0.5 * (q1 + q2))
        gap = np.asarray(mid) - 0.5 * (v[fin][:-2] + v[fin][2:])
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
            max(float(np.asarray(eval_g(spec, t, edge_lo))), float(np.asarray(eval_g(spec, t, edge_hi))))
            for t in t_grid
        ]
        sups.append(np.trapezoid(per_t, t_grid))
    ok = all(np.isfinite(s) for s in sups)
    sums = ", ".join(format_float(s) for s in sups)
    clauses["time_integrability"] = (bool(ok), f"trapezoid of sup_|q|<=r g: [{sums}]")

    return TiReport(clauses)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def spec_to_config(spec: GeneratorSpec) -> dict:
    """Key-value form of a cost function (inverse of :func:`spec_from_config`)."""
    return spec.to_config()


def _number(cfg, key, default=None):
    value = cfg[key] if default is None else cfg.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"key '{key}' must be a number, got {value!r}") from None


def _numbers(cfg, key):
    value = cfg[key]
    try:
        return tuple(float(v) for v in value)
    except (TypeError, ValueError):
        raise ValueError(f"key '{key}' must be a list of numbers, got {value!r}") from None


def spec_from_config(cfg: dict) -> GeneratorSpec:
    """Build a cost function from its key-value form."""
    variant = cfg.get("variant")
    if variant == "quadratic":
        return Quadratic(c=_number(cfg, "c", 1.0))
    if variant == "power":
        return PowerLaw(r=_number(cfg, "r"), a=_number(cfg, "a", 1.0))
    if variant == "indicator":
        return IndicatorInterval(K=_number(cfg, "K"))
    if variant == "modulated":
        return TimeModulated(base=spec_from_config(cfg["base"]), weights=_numbers(cfg, "weights"))
    if variant == "tabulated":
        if "csv" in cfg:
            return tabulated_from_csv(cfg["csv"])
        return Tabulated(q=_numbers(cfg, "q"), g=_numbers(cfg, "g"))
    raise ValueError(f"unknown generator variant {variant!r}")


def tabulated_from_csv(path) -> Tabulated:
    """Read a two-column (q, g) CSV into a Tabulated cost.

    An unreadable file or a row without two numbers raises ValueError
    naming the file (and the line).
    """
    qs, gs = [], []
    try:
        with open(path, newline="") as fh:
            for line, row in enumerate(csv.reader(fh), start=1):
                if not row or row[0].strip().startswith("#"):
                    continue
                if len(row) < 2:
                    raise ValueError(f"csv {path}: line {line} needs two columns (q, g)")
                qs.append(float(row[0]))
                gs.append(float(row[1]))
    except OSError as err:
        raise ValueError(f"csv {path} cannot be read: {err.strerror}") from err
    return Tabulated(q=tuple(qs), g=tuple(gs))
