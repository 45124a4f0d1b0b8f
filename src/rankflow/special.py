"""Upper incomplete gamma function for the small negative and fractional
orders that the ranking limit curves require.

Every closed form rests on P(q) = q^b Gamma(1 - b, q) with b in (0, 2], so
only orders z in [-1, 1] are needed, and standard library routines cover
only positive order. One kernel, ``_gamma_upper_grid``, evaluates the
unregularized Gamma(z, p) = integral_p^inf exp(-x) x^(z-1) dx over an
array of p, for one order or one order per row:

* a power series, summed by Horner's rule, for p < 1.5,
* a continued fraction, evaluated backward, for p >= 1.5.

Each runs a term count fixed per call, so no lane tests for convergence.
There is no recursion to other orders and no public scalar entry point;
``rankflow oracle gamma`` gives Gamma(z, p) at any order by quadrature.
The tests check the kernel against 40-digit mpmath.
"""

from __future__ import annotations

import math

import numpy as np

__all__: list[str] = []

# Above this point exp(-p) underflows far past any representable tail mass.
UNDERFLOW_P = 700.0

# Switch between the power series and the continued fraction.
_SERIES_CF_SPLIT = 1.5

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
_EULER = 0.5772156649015329
# n! as doubles, rounded as in the Python product n! * float
_FACTORIALS = np.array([float(math.factorial(n)) for n in range(40)])


def _tail_crossings() -> np.ndarray:
    """For M = 1..38, the smallest double p with p^(M+1)/(M+1)! >= _SERIES_TAIL
    in Python's float arithmetic. Each term rises with p and, for p < 1.5,
    falls with M, so the crossings rise with M."""
    out = []
    for m in range(1, 39):
        fact = math.factorial(m + 1)
        v = (_SERIES_TAIL * fact) ** (1.0 / (m + 1))
        while v ** (m + 1) / fact >= _SERIES_TAIL:
            v = math.nextafter(v, 0.0)
        while v ** (m + 1) / fact < _SERIES_TAIL:
            v = math.nextafter(v, math.inf)
        out.append(v)
    return np.array(out)


_TAIL_CROSSINGS = _tail_crossings()


def _series_terms(p_max) -> list[int]:
    """The series term count M of each largest p: the smallest M >= 1 with
    p^(M+1)/(M+1)! below _SERIES_TAIL, one search over the crossings."""
    return (np.searchsorted(_TAIL_CROSSINGS, p_max, side="right") + 1).tolist()


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


def _gamma_upper(z: float, p: float) -> float:
    """Gamma(z, p) for z in [-1, 1] and p > 0: one lane of _gamma_upper_grid."""
    return float(_gamma_upper_grid(z, np.array([p]))[0])


def _gamma_upper_grid(z, p: np.ndarray) -> np.ndarray:
    """Vectorized Gamma(z, p) over an array of p > 0, for z in [-1, 1].

    This is the hot path for curve evaluation and the share functionals. At
    a few hundred lanes each numpy call costs more in overhead than in
    arithmetic, so each method runs a term count fixed per call, with no
    convergence test (see _CF_TERMS_SCALE). Lanes with p < 1.5 sum the series
    by Horner's rule, with the count set by their largest p; lanes with
    p >= 1.5 evaluate the continued fraction backward (Numerical Recipes,
    3rd ed., 5.2), with the count set by their smallest p.

    A scalar z is one row holding all of p, of any shape. A z of shape (k,)
    with p of shape (k, n) gives each row at its own order, bit for bit the
    call with that row alone: its own term counts, lift and head.
    """
    p = np.asarray(p, dtype=float)
    zr = np.asarray(z, dtype=float).ravel().tolist()  # one order per row
    shape, p = p.shape, p.reshape(len(zr), -1 if p.size else 0)  # zr may be empty

    def col(v):  # a per-row constant: a float for one row, else a column
        return v[0] if len(v) == 1 else np.array(v)[:, None]

    out = np.zeros(p.shape)
    live = p <= UNDERFLOW_P
    small = live & (p < _SERIES_CF_SPLIT)
    if small.any():
        ps = np.where(small, p, 1.0)  # p = 1 stands in for the lanes outside the series
        m = _series_terms(np.where(small, p, 0.0).max(axis=1))
        top = max(m)
        # toward z = -1 the head Gamma(z) ~ 1/(z+1) cancels against the sum
        # (4e-13 off at z = -0.99, 9e-14 at -0.89); the step down from z + 1,
        # Gamma(z, p) = (Gamma(z+1, p) - p^z e^-p) / z, stays within 2e-14
        lift = [v < _SERIES_LIFT_Z for v in zr]
        zs = [v + 1.0 if up else v for v, up in zip(zr, lift)]
        # sum_{n=1..m} x^n / (n! (zs+n)) with x = -p, by Horner's rule; zeros
        # above a row's m start its sum exactly at its own top coefficient
        terms = np.arange(1.0, top + 1.0)
        coef = 1.0 / (_FACTORIALS[1:top + 1] * (col(zs) + terms))
        if min(m) < top:
            coef[terms > col(m)] = 0.0
        coef = coef.T[:, :, None] if len(zr) > 1 else coef  # a column per term
        x = -ps
        total = np.full_like(ps, coef[top - 1])
        for n in range(top - 1, 0, -1):
            total *= x
            total += coef[n - 1]
        total *= x
        # the head Gamma(z) - p^z/z as -Gamma(1+z) expm1(z ln p - ln Gamma(1+z))/z,
        # accurate as z -> 0; at z = 0 it is the limit -euler - ln p
        logp = np.log(ps)
        g, lg, d = (col(c) for c in zip(*[(-math.gamma(1.0 + v), _lgamma1p(v), v) if v
                                          else (0.0, 0.0, 1.0) for v in zs]))
        zlogp = col(zs) * logp
        gs = g * np.expm1(zlogp - lg) / d
        gs = np.where(col([v == 0.0 for v in zs]), -_EULER - logp, gs) if 0.0 in zs else gs
        gs -= np.exp(zlogp) * total
        if any(lift):
            # rows without the lift subtract 0 and divide by 1, exactly
            gs = (gs - col(lift) * np.exp(col(zr) * logp - ps)) / col(
                [v if up else 1.0 for v, up in zip(zr, lift)])
        out[small] = gs[small]

    large = live & (p >= _SERIES_CF_SPLIT)
    if large.any():
        pl = p[large]
        at = np.nonzero(large)[0]  # each lane's row
        p_min = np.where(large, p, np.inf).min(axis=1).tolist()
        n = np.array([math.ceil(_CF_TERMS_BASE + _CF_TERMS_SCALE / v) if v < math.inf else 0
                      for v in p_min])
        lanes_n, top, low = n[at], int(n.max()), int(n[n > 0].min())
        # f = b_{i-1} + a_i / f from i = n down to 1, with a_i = -i (i - z) and
        # b_i = p + 1 - z + 2i; then Gamma(z, p) = p^z e^-p / f. Above a lane's
        # own n each step resets it to its start value. One row keeps z a
        # float: a per-lane array slows each of the up to 72 steps.
        zl = zr[0] if len(zr) == 1 else np.array(zr)[at]
        c = 1.0 - zl
        f = pl + (c + 2.0 * top)
        for i in range(top, 0, -1):
            np.divide(-i * (i - zl), f, out=f)
            f += pl
            f += c + 2.0 * (i - 1)
            if i > low:
                np.copyto(f, pl + (c + 2.0 * (i - 1)), where=lanes_n < i)
        out[large] = np.exp(zl * np.log(pl) - pl) / f

    return out.reshape(shape)
