"""Independent numerical oracles for auditing the closed-form machinery.

Everything here is built on adaptive quadrature (``scipy.integrate.quad``)
and Brent root bracketing only, deliberately avoiding the series /
continued-fraction / bisection code paths of the main modules, so the two
routes can be checked against each other. Each oracle returns
``(value, error_estimate)``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

__all__ = [
    "gamma_quad",
    "laplace_quad",
    "invert_quad",
    "q_quad",
    "ranking_share_quad",
]


def _tail_quad(z: float, p: float) -> tuple[float, float]:
    """Gamma(z, p) = p^(z-1) e^-p integral_0^inf e^-u (1 + u/p)^(z-1) du, p >= 1.

    Over the offset u = x - p the integrand starts at 1 for any p, so quad's
    absolute tolerance acts as a relative one. Integrated over x itself,
    the tail is about 1e-5 off from p = 10 on, far past quad's estimate.
    """
    v, e = quad(lambda u: math.exp(-u) * (1.0 + u / p) ** (z - 1.0), 0.0, np.inf, limit=400)
    scale = math.exp((z - 1.0) * math.log(p) - p)
    return scale * v, scale * e


def gamma_quad(z: float, p: float) -> tuple[float, float]:
    """Gamma(z, p) by adaptive quadrature of exp(-x) x^(z-1).

    For p < 1 the inner stretch is integrated in log-x coordinates, which
    absorbs the x^(z-1) steepness near the lower endpoint for negative z.
    """
    if not p > 0.0:
        raise ValueError("p must be positive")
    if p >= 1.0:
        return _tail_quad(z, p)
    # x = e^u turns the integrand into exp(-e^u + z u), smooth on [log p, 0]
    v1, e1 = quad(lambda u: math.exp(-math.exp(u) + z * u), math.log(p), 0.0, limit=400)
    v2, e2 = _tail_quad(z, 1.0)
    return v1 + v2, e1 + e2


def _cutoff_upper(a: float, b: float, gamma: float) -> float:
    if not (0.0 < a < math.inf and 0.0 < b < math.inf and 0.0 <= gamma < math.inf):
        raise ValueError("the law needs finite a > 0, b > 0 and gamma >= 0")
    if gamma == 0.0:
        return math.inf
    return a * (1.0 + 1.0 / gamma) ** (1.0 / b)


def laplace_quad(a: float, b: float, t: float, gamma: float = 0.0) -> tuple[float, float]:
    """L(t) of the power law by quadrature in the scaled variable x = w t.

    The substitution maps the transform onto b (a t)^b Gamma(-b, w t)
    differences, which :func:`gamma_quad` resolves across the whole t
    range (a naive integral over w misses the spike at the support edge
    when t is large, and the edge singularity when t is small).
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and non-negative")
    factor = 1.0 + gamma
    w_hi = _cutoff_upper(a, b, gamma)
    if t == 0.0:
        return 1.0, 0.0
    scale = b * (a * t) ** b * factor
    v, e = gamma_quad(-b, a * t)
    if not math.isinf(w_hi):
        v2, e2 = gamma_quad(-b, w_hi * t)
        v, e = v - v2, e + e2
    return scale * v, scale * e


def invert_quad(a: float, b: float, y: float, gamma: float = 0.0) -> float:
    """t0 with 1 - L(t0) = y, via Brent's method on the quadrature curve."""
    if y == 0.0:
        return 0.0
    if not 0.0 < y < 1.0:
        raise ValueError("y must lie in [0, 1)")

    def f(t: float) -> float:
        return (1.0 - laplace_quad(a, b, t, gamma)[0]) - y

    hi = 1.0 / a
    while f(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e30 / a:
            raise RuntimeError("failed to bracket the inverse")
    return brentq(f, 0.0, hi, xtol=1e-300, rtol=1e-15, maxiter=500)


def q_quad(b: float, r: float, gamma: float = 0.0) -> float:
    """Dimensionless inverse q(r) = a t0(r) from the quadrature route."""
    return invert_quad(1.0, b, r, gamma)


def ranking_share_quad(a: float, b: float, r1: float, r2: float,
                       gamma: float = 0.0) -> tuple[float, float]:
    """Ranking-band share by quadrature of w (e^(-w t1) - e^(-w t2))
    against the power-law density, with the band times from the
    quadrature inverse."""
    if not 0.0 <= r1 < r2 <= 1.0:
        raise ValueError("need 0 <= r1 < r2 <= 1")
    t1 = invert_quad(a, b, r1, gamma) if r1 > 0.0 else 0.0
    t2 = invert_quad(a, b, r2, gamma) if r2 < 1.0 else math.inf
    factor = 1.0 + gamma
    w_hi = _cutoff_upper(a, b, gamma)
    if r1 == 0.0 and b < 1.0 and gamma == 0.0:
        raise ValueError("head share diverges for b < 1 without a cutoff")

    def integrand(w: float) -> float:
        e1 = math.exp(-w * t1)
        e2 = math.exp(-w * t2) if not math.isinf(t2) else 0.0
        return w * (e1 - e2) * factor * b * a ** b * w ** (-b - 1.0)

    pieces = [a]
    if t2 > 0.0 and not math.isinf(t2) and t2 > 1e-300:
        pieces.append(max(a, 60.0 / t2))
    if t1 > 0.0:
        pieces.append(max(a, 60.0 / t1))
    pieces.append(w_hi)
    pieces = sorted(set(min(p, w_hi) for p in pieces))
    total_v = total_e = 0.0
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        v, e = quad(integrand, lo, hi, limit=400)
        total_v += v
        total_e += e
    if math.isinf(w_hi) and pieces[-1] != w_hi:
        v, e = quad(integrand, pieces[-1], np.inf, limit=400)
        total_v += v
        total_e += e
    return total_v, total_e
