"""Upper incomplete gamma function for the small negative and fractional
orders that the ranking limit curves require.

Standard library routines cover only positive order, so this module
implements the unregularized Gamma(z, p) = integral_p^inf exp(-x) x^(z-1) dx
directly:

* a stable power series for |z| < 1 and small p,
* a continued fraction for moderate and large p,
* the integration-by-parts recursion to move z into the series range,
* exponential integrals (scipy ``expn``/``exp1``, imported on first use) at
  non-positive integer z, where the recursion would divide by zero.

Scalar entry points validate the supported domain and run the series and a
modified-Lentz (forward, adaptive) continued fraction to convergence. The
``_grid`` variant is the vectorized inner loop of the curve evaluations and
the share functionals. It runs a fixed number of terms per call, so no lane
tests for convergence: a Horner sum of the series, and the same continued
fraction evaluated backward. The two paths share only the series head, and
the tests use the scalar one as the grid's reference.
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

# The grid kernel's series stops at the smallest M with p^(M+1)/(M+1)! below
# _SERIES_TAIL, for the largest p of the call. Below z = _SERIES_LIFT_Z it
# sums at order z + 1 and takes one recursion step down (see the kernel).
_SERIES_TAIL = 1e-18
_SERIES_LIFT_Z = -0.5

# The grid kernel's continued fraction runs n = ceil(12 + 90/p) terms for the
# smallest p of the call. Its truncation error after n terms falls like
# exp(-4 sqrt(n p)): from 40 to 50 terms at p = 1.5 it fell from 2.1e-12 to
# 5.9e-14, a factor e^3.6 against the model's e^3.7. An error of
# eps = 2^-55 then takes ln(1/eps)^2 / (16 p) = 90/p terms; the prefactor
# and the order z add about a dozen. Measured worst case over z in
# [-0.99, 1] in steps of 0.01: the terms needed to come within 3.2e-15 of
# 40-digit mpmath, against the count.
#   p      1.5  1.6  2   3   5   10  20
#   need   60   57   47  33  22  14  9
#   count  72   69   57  42  30  21  17
# At p = 1.5 the worst error is 4.3e-16 with 72 terms and 1.6e-14 with 54.
_CF_TERMS_BASE = 12.0
_CF_TERMS_SCALE = 90.0

# (zeta(n) - 1)/n for n = 2..27, the coefficients of
#   ln Gamma(1 + w) = -log1p(w) + (1 - euler) w + sum_n (zeta(n) - 1)/n (-w)^n
# (Abramowitz & Stegun 6.1.33; DLMF 5.7.3 before the -log1p(w) is split off).
# For |w| <= 1/2 the first omitted term is below 4^-28/28 = 5e-19.
_LGAMMA_COEF = (
    0.3224670334241132, 0.0673523010531981, 0.020580808427784546,
    0.007385551028673986, 0.0028905103307415234, 0.001192753911703261,
    0.0005096695247430425, 0.00022315475845357939, 9.945751278180853e-05,
    4.492623673813314e-05, 2.050721277567069e-05, 9.439488275268397e-06,
    4.374866789907488e-06, 2.039215753801366e-06, 9.55141213040742e-07,
    4.492469198764566e-07, 2.1207184805554665e-07, 1.0043224823968099e-07,
    4.7698101693639804e-08, 2.2711094608943164e-08, 1.0838659214896955e-08,
    5.183475041970047e-09, 2.4836745438024785e-09, 1.1921401405860912e-09,
    5.731367241678862e-10, 2.7595228851242334e-10)
_ONE_MINUS_EULER = 0.42278433509846713


def _expn(n: int, p):
    """Exponential integral E_n(p), n >= 1. scipy.special is imported here on
    first use: only integer orders need it, and its import costs about 0.3 s."""
    from scipy.special import exp1, expn
    return exp1(p) if n == 1 else expn(n, p)


def _lgamma1p(z: float) -> float:
    """ln Gamma(1 + z) for z in (-1, 1], to a few ulps of the result also
    near its zeros z = 0 and 1.

    lgamma(1 + z) is only accurate in absolute terms there (up to 9e-16 off
    over this range), and the series head divides that by about |z|.
    """
    if z > 0.5:
        return math.log(z) + _lgamma1p(z - 1.0)
    if z < -0.5:
        return _lgamma1p(z + 1.0) - math.log1p(z)
    s = 0.0
    for c in reversed(_LGAMMA_COEF):
        s = s * -z + c
    return z * (z * s + _ONE_MINUS_EULER) - math.log1p(z)


def _series_base(z: float, p: float) -> float:
    """Gamma(z, p) for z in (-1, 1], z != 0, by the alternating power series.

    Uses Gamma(z) - p^z/z = -Gamma(z+1) expm1(z log p - lgamma(z+1)) / z,
    which stays finite as z -> 0, then subtracts the n >= 1 series terms.
    Accurate for p below ~2; cancellation grows with p.
    """
    logp = math.log(p)
    head = -math.gamma(1.0 + z) * math.expm1(z * logp - _lgamma1p(z)) / z
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
    """Vectorized Gamma(z, p) over an array of p > 0, for z in [-1, 1].

    This is the hot path for curve evaluation and the share functionals. At
    a few hundred lanes each numpy call costs more in overhead than in
    arithmetic, so each method runs a term count fixed per call, with no
    convergence test (see _CF_TERMS_SCALE). Lanes with p < 1.5 sum the series
    by Horner's rule, with the count set by their largest p; lanes with
    p >= 1.5 evaluate the continued fraction backward (Numerical Recipes,
    3rd ed., 5.2), with the count set by their smallest p. z = 0 and z = -1
    are exponential integrals.
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
        # toward z = -1 the head Gamma(z) ~ 1/(z+1) cancels against the sum
        # (4e-13 off at z = -0.99, 9e-14 at -0.89); the step down from z + 1,
        # Gamma(z, p) = (Gamma(z+1, p) - p^z e^-p) / z, stays within 2e-14
        lift = z < _SERIES_LIFT_Z
        zs = z + 1.0 if lift else z
        p_max = float(ps.max())
        m = 1
        while p_max ** (m + 1) / math.factorial(m + 1) >= _SERIES_TAIL:
            m += 1
        # sum_{n=1..m} x^n / (n! (zs+n)) with x = -p, by Horner's rule
        x = -ps
        total = np.full_like(ps, 1.0 / (math.factorial(m) * (zs + m)))
        for n in range(m - 1, 0, -1):
            total *= x
            total += 1.0 / (math.factorial(n) * (zs + n))
        total *= x
        logp = np.log(ps)
        head = -math.gamma(1.0 + zs) * np.expm1(zs * logp - _lgamma1p(zs)) / zs
        gs = head - np.exp(zs * logp) * total
        if lift:
            gs = (gs - np.exp(z * logp - ps)) / z
        out[small] = gs

    large = live & (p >= _SERIES_CF_SPLIT)
    if np.any(large):
        pl = p[large]
        n = math.ceil(_CF_TERMS_BASE + _CF_TERMS_SCALE / float(pl.min()))
        # f = b_{i-1} + a_i / f from i = n down to 1, with a_i = -i (i - z) and
        # b_i = p + 1 - z + 2i; then Gamma(z, p) = p^z e^-p / f
        f = pl + (1.0 - z + 2.0 * n)
        for i in range(n, 0, -1):
            np.divide(-i * (i - z), f, out=f)
            f += pl
            f += 1.0 - z + 2.0 * (i - 1)
        out[large] = np.exp(z * np.log(pl) - pl) / f

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
