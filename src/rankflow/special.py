"""Upper incomplete gamma function for the small negative and fractional
orders that the ranking limit curves require.

Standard library routines cover only positive order, so this module
implements the unregularized Gamma(z, p) = integral_p^inf exp(-x) x^(z-1) dx
directly:

* a stable power series for |z| < 1 and small p,
* a modified-Lentz continued fraction for moderate and large p,
* the integration-by-parts recursion to move z into the series range,
* exponential integrals (scipy ``expn``/``exp1``, imported on first use) at
  non-positive integer z, where the recursion would divide by zero.

Scalar entry points validate the supported domain; the ``_grid`` variant is
the vectorized inner loop used by the curve evaluations and the share
functionals.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["upper_incomplete_gamma", "gamma_recursion_shift"]

# Above this point exp(-p) underflows far past any representable tail mass.
UNDERFLOW_P = 700.0

# Switch between the power series and the continued fraction.
_SERIES_CF_SPLIT = 1.5

_EPS = 2.22e-16
_FPMIN = 1e-300
_MAX_CF_ITER = 10_000
_MAX_SERIES_ITER = 500


def _expn(n: int, p):
    """Exponential integral E_n(p), n >= 1. scipy.special is imported here on
    first use: only integer orders need it, and its import costs about 0.3 s."""
    from scipy.special import exp1, expn
    return exp1(p) if n == 1 else expn(n, p)


def _series_base(z: float, p: float) -> float:
    """Gamma(z, p) for z in (-1, 1], z != 0, by the alternating power series.

    Uses Gamma(z) - p^z/z = -Gamma(z+1) expm1(z log p - lgamma(z+1)) / z,
    which stays finite as z -> 0, then subtracts the n >= 1 series terms.
    Accurate for p below ~2; cancellation grows with p.
    """
    logp = math.log(p)
    head = -math.gamma(z + 1.0) * math.expm1(z * logp - math.lgamma(z + 1.0)) / z
    # sum_{n>=1} (-p)^n / (n! (z+n)), scaled by p^z
    term = 1.0
    total = 0.0
    for n in range(1, _MAX_SERIES_ITER):
        term *= -p / n
        contrib = term / (z + n)
        total += contrib
        if abs(contrib) <= _EPS * max(abs(total), 1e-30):
            return head - math.exp(z * logp) * total
    raise RuntimeError("incomplete gamma series did not converge")


def _cf_base(z: float, p: float) -> float:
    """Gamma(z, p) by modified-Lentz continued fraction; needs p >= ~1."""
    b = p + 1.0 - z
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_CF_ITER):
        an = -i * (i - z)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            expo = z * math.log(p) - p
            if expo < -745.0:
                return 0.0
            return math.exp(expo) * h
    raise RuntimeError("incomplete gamma continued fraction did not converge")


def _gamma_upper(z: float, p: float) -> float:
    """Unregularized Gamma(z, p) for z in about [-4, 5], p > 0.

    Non-positive integer z is routed through the exponential integrals.
    Accuracy degrades within ~1e-6 of negative non-integer poles of
    Gamma(z), where every known representation cancels.
    """
    if p > UNDERFLOW_P:
        return 0.0
    if z <= 0.0 and z == round(z):
        n = int(-z)
        if n == 0:
            return float(_expn(1, p))
        return p ** z * float(_expn(n + 1, p))
    if z > 1.0:
        # build upward from the series/CF range: Gamma(w+1,p) = p^w e^-p + w Gamma(w,p)
        k = math.ceil(z - 1.0)
        g = _gamma_upper(z - k, p)
        for j in range(k):
            w = z - k + j
            g = math.exp(w * math.log(p) - p) + w * g
        return g
    if p >= _SERIES_CF_SPLIT:
        return _cf_base(z, p)
    if z > -1.0:
        return _series_base(z, p)
    # lift z into (-1, 0) where the series applies:
    # Gamma(z,p) = (Gamma(z+1,p) - p^z e^-p) / z
    k = math.ceil(-z) - 1
    g = _series_base(z + k, p)
    for j in range(k - 1, -1, -1):
        zj = z + j
        g = (g - math.exp(zj * math.log(p) - p)) / zj
    return g


def _gamma_upper_grid(z: float, p: np.ndarray) -> np.ndarray:
    """Vectorized Gamma(z, p) over an array of p > 0, for z in [-1, 1]; when
    every p >= 1.5, for any z <= 1.

    This is the hot path for curve evaluation and the share functionals, so
    the series and the Lentz recurrence of the scalar kernel run lane-parallel
    with convergence masks. The series takes z in (-1, 1] and p < 1.5; z = 0
    and z = -1 are exponential integrals.
    """
    p = np.asarray(p, dtype=float)
    out = np.zeros(p.shape)
    live = p <= UNDERFLOW_P
    if z == 0.0:
        out[live] = _expn(1, p[live])
        return out
    if z == -1.0:
        out[live] = p[live] ** z * _expn(2, p[live])
        return out

    small = live & (p < _SERIES_CF_SPLIT)
    if np.any(small):
        ps = p[small]
        logp = np.log(ps)
        head = -math.gamma(z + 1.0) * np.expm1(z * logp - math.lgamma(z + 1.0)) / z
        term = np.ones_like(ps)
        total = np.zeros_like(ps)
        for n in range(1, _MAX_SERIES_ITER):
            term *= -ps / n
            contrib = term / (z + n)
            total += contrib
            if np.all(np.abs(contrib) <= _EPS * np.maximum(np.abs(total), 1e-30)):
                break
        else:
            raise RuntimeError("incomplete gamma series did not converge")
        out[small] = head - np.exp(z * logp) * total

    large = live & (p >= _SERIES_CF_SPLIT)
    if np.any(large):
        pl = p[large]
        b = pl + 1.0 - z
        c = np.full_like(pl, 1.0 / _FPMIN)
        d = 1.0 / b
        h = d.copy()
        done = np.zeros(pl.shape, dtype=bool)
        for i in range(1, _MAX_CF_ITER):
            an = -i * (i - z)
            b = b + 2.0
            d = an * d + b
            np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
            c = b + an / c
            np.copyto(c, _FPMIN, where=np.abs(c) < _FPMIN)
            d = 1.0 / d
            delta = d * c
            h = np.where(done, h, h * delta)
            done |= np.abs(delta - 1.0) <= _EPS
            if done.all():
                break
        else:
            raise RuntimeError("incomplete gamma continued fraction did not converge")
        expo = z * np.log(pl) - pl
        out[large] = np.where(expo < -745.0, 0.0, np.exp(np.maximum(expo, -745.0)) * h)

    return out


def _validate_order(z: float) -> None:
    if not -3.0 <= z <= 3.0:
        raise ValueError(f"order z={z} outside supported range [-3, 3]")
    if z <= 0.0 and abs(z - round(z)) < 1e-9:
        raise ValueError(f"order z={z} is a non-positive integer (pole of the recursion)")


def upper_incomplete_gamma(z: float, p: float) -> float:
    """Gamma(z, p) = integral_p^inf exp(-x) x^(z-1) dx.

    Supports z in [-3, 3] away from non-positive integers and p > 0.
    Returns 0.0 for p > 700, where the result underflows double precision.
    """
    z = float(z)
    p = float(p)
    _validate_order(z)
    if not p > 0.0:
        raise ValueError(f"p={p} must be positive")
    return _gamma_upper(z, p)


def gamma_recursion_shift(z: float, p: float) -> float:
    """Gamma(z, p) evaluated through one integration-by-parts step,
    Gamma(z, p) = (Gamma(z+1, p) - p^z exp(-p)) / z.

    Same domain as :func:`upper_incomplete_gamma`; exposed so the shift
    identity can be exercised directly.
    """
    z = float(z)
    p = float(p)
    _validate_order(z)
    if not p > 0.0:
        raise ValueError(f"p={p} must be positive")
    if p > UNDERFLOW_P:
        return 0.0
    return (_gamma_upper(z + 1.0, p) - math.exp(z * math.log(p) - p)) / z
