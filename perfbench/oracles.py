"""Independent references for the benchmark's output checks.

NumPy only: nothing here imports driftlab, so a defect in the program cannot
leak into the numbers it is checked against.

* Quadratic cost g = c q^2 / 2 linearises the value PDE (Cole-Hopf):
  v(0, 0) = c s2 log E exp(f(sqrt(s2) Z) / (c s2)), evaluated by
  Gauss-Hermite quadrature in log-sum-exp form.
* The quadratic Sanov pre-limit is a chain of such Gaussian expectations
  over an accumulator variable, evaluated stage by stage on a fine grid.
* The scalarised mean-field limit is sup_c Phi(c) - C(c), with C the
  Legendre transform of lambda -> c log E exp(lambda phi(Z) / c).
* Optimal transport of atoms under a convex displacement cost is the
  monotone (quantile) coupling.
* The inviscid limit of the quadratic PDE is the Hopf-Lax value
  max_y f(y) - c y^2 / 2.
"""

from __future__ import annotations

import math

import numpy as np

_GH_X, _GH_W = np.polynomial.hermite.hermgauss(200)
with np.errstate(divide="ignore"):
    # log weights of E h(Z) = sum_i w_i h(sqrt(2) x_i) / sqrt(pi); far-tail
    # weights underflow to 0 and become -inf, which log-sum-exp ignores
    _GH_LOGW = np.log(_GH_W) - 0.5 * math.log(math.pi)
_GH_Z = math.sqrt(2.0) * _GH_X


def _logsumexp(a, axis=-1):
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(a - m), axis=axis))


def gaussian_bump(center, width=1.0):
    return lambda x: np.exp(-(((np.asarray(x, dtype=float) - center) / width) ** 2))


def cole_hopf(f, sigma2, c=1.0):
    """Value at (0, 0) of the quadratic-cost PDE with diffusion sigma2."""
    a = np.asarray(f(math.sqrt(sigma2) * _GH_Z), dtype=float) / (c * sigma2)
    return float(c * sigma2 * _logsumexp(a + _GH_LOGW))


def hopf_lax_quadratic(f, c, lo, hi):
    """max over y in [lo, hi] of f(y) - c y^2 / 2, to about 1e-12."""
    y = np.linspace(lo, hi, 200_001)
    vals = f(y) - 0.5 * c * y * y
    i = int(np.argmax(vals))
    a, b = y[max(i - 1, 0)], y[min(i + 1, y.size - 1)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):  # golden section on the bracketing cell pair
        m1 = b - ratio * (b - a)
        m2 = a + ratio * (b - a)
        if f(m1) - 0.5 * c * m1 * m1 >= f(m2) - 0.5 * c * m2 * m2:
            b = m2
        else:
            a = m1
    m = 0.5 * (a + b)
    return float(max(vals[i], f(m) - 0.5 * c * m * m))


def sanov_prelimit(n, c, phi, Phi, bounds, points=8001):
    """(1/n) V_0(0) of the n-stage chain for quadratic cost c q^2 / 2.

    V_n(s) = n Phi(s / n) and V_k(s) = c log E exp(V_{k+1}(s + phi(Z)) / c),
    with V_k on a uniform grid over [k lo, k hi] and linear interpolation.
    """
    lo, hi = bounds
    t = np.asarray(phi(_GH_Z), dtype=float)
    s_next = v_next = None
    for k in range(n - 1, -1, -1):
        s = np.zeros(1) if k == 0 else np.linspace(k * lo, k * hi, points)
        args = s[:, None] + t[None, :]
        if v_next is None:
            vals = n * np.asarray(Phi(args / n), dtype=float)
        else:
            vals = np.interp(args, s_next, v_next)
        v = c * _logsumexp(vals / c + _GH_LOGW[None, :], axis=1)
        s_next, v_next = s, v
    return float(v_next[0]) / n


def sanov_limit(c, phi, Phi, bounds, lam_max=40.0):
    """sup over c in bounds of Phi(c) - C(c), C the transport cost of the
    scalar statistic <phi, law>."""
    lo, hi = bounds
    lam = np.linspace(-lam_max, lam_max, 8001)
    t = np.asarray(phi(_GH_Z), dtype=float)
    rho = c * _logsumexp(lam[:, None] * t[None, :] / c + _GH_LOGW[None, :], axis=1)
    best = -np.inf
    for cs in np.array_split(np.linspace(lo, hi, 4001), 8):
        cost = np.max(cs[:, None] * lam[None, :] - rho[None, :], axis=1)
        best = max(best, float(np.max(np.asarray(Phi(cs), dtype=float) - cost)))
    return best


def monotone_ot(mu, nu, cost):
    """Transport value of the quantile coupling of two atom lists.

    ``mu`` and ``nu`` are sequences of (location, weight); ``cost`` maps a
    displacement y - x to its cost.
    """
    a = sorted(mu)
    b = sorted(nu)
    i = j = 0
    ra, rb = a[0][1], b[0][1]
    total = 0.0
    while i < len(a) and j < len(b):
        take = min(ra, rb)
        total += take * cost(b[j][0] - a[i][0])
        ra -= take
        rb -= take
        if ra <= 1e-15:
            i += 1
            ra = a[i][1] if i < len(a) else 0.0
        if rb <= 1e-15:
            j += 1
            rb = b[j][1] if j < len(b) else 0.0
    return total
