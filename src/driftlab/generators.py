"""Convex drift-cost functions and their convex conjugates.

A cost function assigns to each time ``t`` in [0,1] and drift value ``q`` a
convex penalty ``g(t, q)``, possibly ``+inf`` outside an interval of
admissible drifts.  All downstream solvers (finite differences, path
optimization, Monte Carlo, transport) consume the small family of variants
defined here together with their conjugates ``g*(t, z) = sup_q (q z - g(t, q))``.

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

__all__ = [
    "Quadratic",
    "PowerLaw",
    "IndicatorInterval",
    "TimeModulated",
    "Tabulated",
    "GeneratorSpec",
    "ConjugateSpec",
    "TiReport",
    "eval_g",
    "eval_g_prime",
    "conjugate",
    "is_quadratic_conjugate",
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

@dataclass(frozen=True)
class Quadratic:
    """g(t, q) = c q^2 / 2 with curvature c > 0."""

    c: float = 1.0

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("curvature c must be positive")


@dataclass(frozen=True)
class PowerLaw:
    """g(t, q) = a |q|^r with exponent r > 1 and scale a > 0."""

    r: float
    a: float = 1.0

    def __post_init__(self):
        if not self.r > 1:
            raise ValueError("exponent r must exceed 1 for coercivity")
        if not self.a > 0:
            raise ValueError("scale a must be positive")


@dataclass(frozen=True)
class IndicatorInterval:
    """g(t, q) = 0 on [-K, K] and +inf outside (convex indicator)."""

    K: float

    def __post_init__(self):
        if not self.K > 0:
            raise ValueError("half-width K must be positive")


@dataclass(frozen=True)
class TimeModulated:
    """g(t, q) = w(t) * base(q) for a positive weight sampled on a time grid.

    ``weights`` are samples of w on the uniform grid ``linspace(0, 1, len(weights))``
    and are interpolated linearly in between.
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
        grid = np.linspace(0.0, 1.0, w.size)
        return np.interp(t, grid, w)


@dataclass(frozen=True)
class Tabulated:
    """Convex samples (q_j, g_j) on a strictly increasing drift grid.

    The cost is the piecewise-linear interpolant of the samples inside
    [q_0, q_m] and +inf outside; convexity (non-decreasing chord slopes)
    is validated at construction.
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


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def eval_g(spec: GeneratorSpec, t, q):
    """Evaluate g(t, q); array-valued in ``q``.

    Total into the extended reals: +inf outside the effective domain, never
    raises for out-of-domain drifts.
    """
    q = np.asarray(q, dtype=float)
    if isinstance(spec, Quadratic):
        out = 0.5 * spec.c * q * q
    elif isinstance(spec, PowerLaw):
        out = spec.a * np.abs(q) ** spec.r
    elif isinstance(spec, IndicatorInterval):
        out = np.where(np.abs(q) <= spec.K, 0.0, np.inf)
    elif isinstance(spec, TimeModulated):
        out = spec.weight_at(t) * eval_g(spec.base, t, q)
    elif isinstance(spec, Tabulated):
        qs = np.asarray(spec.q)
        gs = np.asarray(spec.g)
        out = np.interp(q, qs, gs)
        out = np.where((q < qs[0]) | (q > qs[-1]), np.inf, out)
    else:
        raise TypeError(f"unknown generator spec {spec!r}")
    return out if out.ndim else float(out)


def eval_g_prime(spec: GeneratorSpec, t, q):
    """A subgradient of g(t, .) at q (interior drifts only).

    For Tabulated costs the right-chord slope is returned; for the indicator
    the subgradient is 0 inside the interval.
    """
    q = np.asarray(q, dtype=float)
    if isinstance(spec, Quadratic):
        out = spec.c * q
    elif isinstance(spec, PowerLaw):
        out = spec.a * spec.r * np.sign(q) * np.abs(q) ** (spec.r - 1.0)
    elif isinstance(spec, IndicatorInterval):
        out = np.zeros_like(q)
    elif isinstance(spec, TimeModulated):
        out = spec.weight_at(t) * eval_g_prime(spec.base, t, q)
    elif isinstance(spec, Tabulated):
        qs = np.asarray(spec.q)
        gs = np.asarray(spec.g)
        if qs.size == 1:
            out = np.zeros_like(q)
        else:
            slopes = np.diff(gs) / np.diff(qs)
            idx = np.clip(np.searchsorted(qs, q, side="right") - 1, 0, slopes.size - 1)
            out = slopes[idx]
    else:
        raise TypeError(f"unknown generator spec {spec!r}")
    return out if out.ndim else float(out)


def domain_interval(spec: GeneratorSpec):
    """Effective-domain interval (q_lo, q_hi), possibly infinite."""
    if isinstance(spec, (Quadratic, PowerLaw)):
        return (-np.inf, np.inf)
    if isinstance(spec, IndicatorInterval):
        return (-spec.K, spec.K)
    if isinstance(spec, TimeModulated):
        return domain_interval(spec.base)
    if isinstance(spec, Tabulated):
        return (spec.q[0], spec.q[-1])
    raise TypeError(f"unknown generator spec {spec!r}")


def lower_bound(spec: GeneratorSpec):
    """A constant b with g >= -b everywhere."""
    if isinstance(spec, (Quadratic, PowerLaw, IndicatorInterval)):
        return 0.0
    if isinstance(spec, Tabulated):
        return max(0.0, -min(spec.g))
    if isinstance(spec, TimeModulated):
        return max(spec.weights) * lower_bound(spec.base)
    raise TypeError(f"unknown generator spec {spec!r}")


def growth_exponent(spec: GeneratorSpec):
    """Growth class of g: the r with g(q) ~ |q|^r, or inf for bounded domains.

    Returns None when no growth class can be certified (Tabulated samples
    only witness a finite drift range).
    """
    if isinstance(spec, Quadratic):
        return 2.0
    if isinstance(spec, PowerLaw):
        return spec.r
    if isinstance(spec, IndicatorInterval):
        return np.inf
    if isinstance(spec, TimeModulated):
        return growth_exponent(spec.base)
    return None


def is_time_dependent(spec: GeneratorSpec):
    return isinstance(spec, TimeModulated)


# ---------------------------------------------------------------------------
# Conjugates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _QuadraticConj:
    c: float


@dataclass(frozen=True)
class _PowerConj:
    # dual pair of PowerLaw(r, a): g*(z) = b |z|^{r'} with 1/r + 1/r' = 1
    rp: float
    b: float
    primal_r: float
    primal_a: float


@dataclass(frozen=True)
class _AbsConj:
    # support function of [-K, K]
    K: float


@dataclass(frozen=True)
class _TableConj:
    # conjugate of Tabulated samples.  The (q, g, chord slopes) arrays of the
    # whole table and of each sign half are built on first use and kept, so
    # an evaluation is one O(log n) argmax search and a gather.
    q: tuple
    g: tuple

    @cached_property
    def table(self):
        return _chord_table(np.asarray(self.q), np.asarray(self.g))

    @cached_property
    def halves(self):
        """(table on q <= 0, table on q >= 0), each with a node at q = 0."""
        q, g, _ = self.table
        return tuple(_chord_table(*_split_table(q, g, side)) for side in (-1, +1))


@dataclass(frozen=True)
class _ModulatedConj:
    base: "ConjugateSpec"
    weights: tuple

    def weight_at(self, t):
        w = np.asarray(self.weights)
        return np.interp(t, np.linspace(0.0, 1.0, w.size), w)


ConjugateKind = Union[_QuadraticConj, _PowerConj, _AbsConj, _TableConj, _ModulatedConj]


@dataclass(frozen=True)
class ConjugateSpec:
    """Conjugate cost z -> g*(t, z) with one-sided (half-line) evaluations.

    ``closed_form`` marks variants with an exact formula; the remaining ones
    evaluate a discrete Legendre transform of cached samples.
    """

    kind: ConjugateKind
    closed_form: bool


def is_quadratic_conjugate(conj: ConjugateSpec) -> bool:
    return isinstance(conj.kind, _QuadraticConj)


def conjugate(spec: GeneratorSpec) -> ConjugateSpec:
    """Convex conjugate of the cost in the drift variable.

    Closed forms where available: quadratic is self-dual up to curvature
    inversion, a power law maps to the dual exponent, an interval indicator
    maps to the support function K|z|.  Tabulated costs conjugate through
    the discrete Legendre transform of their samples; time modulation uses
    (w g)*(z) = w g*(z / w).
    """
    if isinstance(spec, Quadratic):
        return ConjugateSpec(_QuadraticConj(spec.c), True)
    if isinstance(spec, PowerLaw):
        rp = spec.r / (spec.r - 1.0)
        b = (spec.a * spec.r) ** (1.0 - rp) / rp
        return ConjugateSpec(_PowerConj(rp, b, spec.r, spec.a), True)
    if isinstance(spec, IndicatorInterval):
        return ConjugateSpec(_AbsConj(spec.K), True)
    if isinstance(spec, Tabulated):
        return ConjugateSpec(_TableConj(spec.q, spec.g), False)
    if isinstance(spec, TimeModulated):
        base = conjugate(spec.base)
        return ConjugateSpec(_ModulatedConj(base, spec.weights), base.closed_form)
    raise TypeError(f"unknown generator spec {spec!r}")


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
    if side > 0:
        mask = q >= 0
    else:
        mask = q <= 0
    qs, gs = q[mask], g[mask]
    if qs.size == 0 or (0.0 not in qs and q[0] < 0 < q[-1]):
        g0 = np.interp(0.0, q, g)
        if side > 0:
            qs, gs = np.concatenate([[0.0], qs]), np.concatenate([[g0], gs])
        else:
            qs, gs = np.concatenate([qs, [0.0]]), np.concatenate([gs, [g0]])
    return qs, gs


def eval_gstar(conj: ConjugateSpec, t, z):
    """Evaluate g*(t, z); array-valued in ``z``."""
    k = conj.kind
    z = np.asarray(z, dtype=float)
    if isinstance(k, _QuadraticConj):
        out = 0.5 * z * z / k.c
    elif isinstance(k, _PowerConj):
        out = k.b * np.abs(z) ** k.rp
    elif isinstance(k, _AbsConj):
        out = k.K * np.abs(z)
    elif isinstance(k, _TableConj):
        out = _table_conjugate_values(k.table, z)
    elif isinstance(k, _ModulatedConj):
        w = k.weight_at(t)
        out = w * eval_gstar(k.base, t, z / w)
    else:
        raise TypeError(f"unknown conjugate {k!r}")
    return out if out.ndim else float(out)


def eval_gstar_halfline(conj: ConjugateSpec, t, z, side):
    """One-sided conjugate sup over drifts with sign(q) = side.

    These are the two monotone pieces used by upwind (Godunov) Hamiltonians:
    the value is non-decreasing in z for side=+1 and non-increasing for
    side=-1.
    """
    k = conj.kind
    z = np.asarray(z, dtype=float)
    if isinstance(k, (_QuadraticConj, _PowerConj, _AbsConj)):
        # symmetric costs minimized at 0: clip z to the active half-line
        zc = np.maximum(z, 0.0) if side > 0 else np.minimum(z, 0.0)
        if isinstance(k, _QuadraticConj):
            # eval_gstar's 0.5 * zc * zc / c in the same order, in one buffer
            out = np.multiply(zc, 0.5, out=np.empty_like(z))
            np.multiply(out, zc, out=out)
            np.divide(out, k.c, out=out)
        else:
            out = eval_gstar(conj, t, zc)
    elif isinstance(k, _TableConj):
        out = _table_conjugate_values(k.halves[int(side > 0)], z)
    elif isinstance(k, _ModulatedConj):
        w = k.weight_at(t)
        out = w * eval_gstar_halfline(k.base, t, z / w, side)
    else:
        raise TypeError(f"unknown conjugate {k!r}")
    return out if np.ndim(out) else float(out)


def gstar_lipschitz(conj: ConjugateSpec, zmax):
    """Bound on |d g*/dz| over |z| <= zmax (the maximizing drift size)."""
    k = conj.kind
    zmax = float(abs(zmax))
    if isinstance(k, _QuadraticConj):
        return zmax / k.c
    if isinstance(k, _PowerConj):
        # maximizer |q| = (|z| / (a r))^{1/(r-1)}
        return (zmax / (k.primal_a * k.primal_r)) ** (1.0 / (k.primal_r - 1.0))
    if isinstance(k, _AbsConj):
        return k.K
    if isinstance(k, _TableConj):
        return max(abs(k.q[0]), abs(k.q[-1]))
    if isinstance(k, _ModulatedConj):
        wmin = min(k.weights)
        return gstar_lipschitz(k.base, zmax / wmin)
    raise TypeError(f"unknown conjugate {k!r}")


def discrete_legendre(samples, z_grid):
    """Exact discrete conjugate max_j (q_j z - g_j) for each z.

    Linear-time in len(samples) + len(z_grid) for sorted inputs via the
    monotone-argmax property of convex samples.

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

    order = np.argsort(z, kind="stable")
    out = np.empty_like(z)
    j = 0
    if q.size == 1:
        return q[0] * z - g[0]
    slopes = np.diff(g) / np.diff(q)
    for pos in order:
        zi = z[pos]
        while j < slopes.size and slopes[j] < zi:
            j += 1
        out[pos] = q[j] * zi - g[j]
    return out


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
    if isinstance(spec, IndicatorInterval) or (
        not isinstance(spec, Tabulated)
        and not (isinstance(spec, TimeModulated) and isinstance(spec.base, Tabulated))
        and np.isfinite(hi)
    ):
        clauses["coercivity"] = (True, "bounded effective domain forces +inf growth")
    else:
        pts = ladder[in_dom]
        if pts.size == 0:
            clauses["coercivity"] = (False, "no ladder point inside the domain")
        else:
            ratios = []
            for t in t_grid[::16]:
                r = np.asarray(eval_g(spec, t, pts)) / pts
                ratios.append(r)
            ratios = np.asarray(ratios).min(axis=0)
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
    clauses["time_integrability"] = (bool(ok), f"trapezoid of sup_|q|<=r g: {sups}")

    return TiReport(clauses)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def spec_to_config(spec: GeneratorSpec) -> dict:
    """Key-value form of a cost function (inverse of :func:`spec_from_config`)."""
    if isinstance(spec, Quadratic):
        return {"variant": "quadratic", "c": spec.c}
    if isinstance(spec, PowerLaw):
        return {"variant": "power", "r": spec.r, "a": spec.a}
    if isinstance(spec, IndicatorInterval):
        return {"variant": "indicator", "K": spec.K}
    if isinstance(spec, TimeModulated):
        return {
            "variant": "modulated",
            "base": spec_to_config(spec.base),
            "weights": list(spec.weights),
        }
    if isinstance(spec, Tabulated):
        return {"variant": "tabulated", "q": list(spec.q), "g": list(spec.g)}
    raise TypeError(f"unknown generator spec {spec!r}")


def spec_from_config(cfg: dict) -> GeneratorSpec:
    """Build a cost function from its key-value form."""
    variant = cfg.get("variant")
    if variant == "quadratic":
        return Quadratic(c=float(cfg.get("c", 1.0)))
    if variant == "power":
        return PowerLaw(r=float(cfg["r"]), a=float(cfg.get("a", 1.0)))
    if variant == "indicator":
        return IndicatorInterval(K=float(cfg["K"]))
    if variant == "modulated":
        return TimeModulated(
            base=spec_from_config(cfg["base"]),
            weights=tuple(float(w) for w in cfg["weights"]),
        )
    if variant == "tabulated":
        if "csv" in cfg:
            return tabulated_from_csv(cfg["csv"])
        return Tabulated(q=tuple(cfg["q"]), g=tuple(cfg["g"]))
    raise ValueError(f"unknown generator variant {variant!r}")


def tabulated_from_csv(path) -> Tabulated:
    """Read a two-column (q, g) CSV into a Tabulated cost."""
    qs, gs = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            qs.append(float(row[0]))
            gs.append(float(row[1]))
    return Tabulated(q=tuple(qs), g=tuple(gs))
