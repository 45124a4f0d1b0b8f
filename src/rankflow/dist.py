"""Sales-rate distributions and their Laplace transforms.

A catalog of N items is summarized by the distribution of per-item sales
rates w (sales per hour). Two kinds are supported:

* ``pareto``: the power law with survival (a/w)^b for w >= a. With a cutoff
  ratio gamma = n0/N > 0 its head is truncated so that the mean rate stays
  finite for b < 1; gamma = 0 is the plain power law.
* ``empirical``: a finite list of observed rates.

The Laplace transform L(t) of the rate distribution is the central object:
the limiting scaled ranking curve is 1 - L(t). For the power law, L, the
curve, the sales flow and the band transforms all come from one closed form,
P(q) = q^b Gamma(1-b, q) (see :func:`_pareto_p`), on both sides of b = 1,
taken at the ends of a rate band by :func:`_pareto_band`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._csvio import open_csv, read_columns, write_rows
from .special import UNDERFLOW_P, _gamma_upper_grid
from .special import _gamma_upper  # noqa: F401 (perfbench hooks the scalar)

__all__ = [
    "SalesRateDistribution",
    "laplace_transform",
    "discrete_rates",
    "load_rates_csv",
    "save_rates_csv",
]

# exclusion band around b = 1, where S_pot, the mean rate and the totals
# carry a 1/(b-1) factor
_B_GUARD = 1e-6


@dataclass(frozen=True)
class SalesRateDistribution:
    """Immutable description of a sales-rate law.

    Build instances through :meth:`pareto`, :meth:`pareto_cutoff`, or
    :meth:`empirical`; the constructor validates the parameter ranges.
    The power law is one kind, ``"pareto"``, whose cutoff ratio gamma is 0
    when its head is not cut off.
    """

    kind: str
    a: float | None = None
    b: float | None = None
    gamma: float = 0.0
    rates: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind == "pareto":
            if self.a is None or not 0.0 < self.a < math.inf:
                raise ValueError("minimum sales rate a must be positive and finite")
            if self.b is None or not 0.0 < self.b <= 2.0:
                raise ValueError("exponent b must lie in (0, 2]")
            if abs(self.b - 1.0) < _B_GUARD:
                raise ValueError(f"exponent b must stay outside 1 +/- {_B_GUARD}")
            if not 0.0 <= self.gamma < math.inf:
                raise ValueError("cutoff ratio gamma must be finite and non-negative")
            if self.gamma > 0.0 and not self._cutoff_in_range():
                raise ValueError("cutoff rate a*(1 + 1/gamma)^(1/b) or the mean rate "
                                 "exceeds the double range; raise b, or move gamma towards 1")
        elif self.kind == "empirical":
            rates = np.asarray(self.rates, dtype=float)
            if rates.ndim != 1 or rates.size == 0:
                raise ValueError("empirical distribution needs a non-empty 1-d rate list")
            if not np.all((rates > 0.0) & np.isfinite(rates)):
                raise ValueError("all empirical rates must be finite and strictly positive; "
                                 "drop zero-rate items before loading")
            object.__setattr__(self, "rates", rates)
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    @classmethod
    def pareto(cls, a: float, b: float) -> "SalesRateDistribution":
        return cls.pareto_cutoff(a, b, 0.0)

    @classmethod
    def pareto_cutoff(cls, a: float, b: float, gamma: float) -> "SalesRateDistribution":
        return cls(kind="pareto", a=float(a), b=float(b), gamma=float(gamma))

    @classmethod
    def empirical(cls, rates) -> "SalesRateDistribution":
        return cls(kind="empirical", rates=np.asarray(rates, dtype=float))

    def support(self) -> tuple[float, float]:
        """Smallest and largest rate carrying mass; the power law's largest
        is the cutoff a (1 + 1/gamma)^(1/b), infinite at gamma = 0."""
        if self.kind == "empirical":
            return float(self.rates.min()), float(self.rates.max())
        return self.a, (self.a * (1.0 + 1.0 / self.gamma) ** (1.0 / self.b)
                        if self.gamma > 0.0 else math.inf)

    def _cutoff_in_range(self) -> bool:
        # log(a) + log1p(1/gamma)/b past ~709.78 overflows w_hi; a < 1 can
        # still overflow the power, and small gamma with b < 1 the mean
        # rate's (gamma/(1 + gamma))^((b-1)/b)
        try:
            return math.isfinite(self.support()[1]) and math.isfinite(self.mean_rate())
        except (OverflowError, ValueError):
            return False

    def mean_rate(self) -> float:
        """Mean of w; infinite for the power law with b < 1 and gamma = 0."""
        if self.kind == "empirical":
            return float(self.rates.mean())
        return self._potential_flow(0.0, 1.0)

    def _potential_flow(self, r1: float, r2: float) -> float:
        """Power-law sales flow of the items ranked by true rate between
        fractions r1 and r2: the integral over r of the rate
        a ((1 + gamma)/(r + gamma))^(1/b). Infinite for the uncut head
        (r1 = gamma = 0) when b < 1."""
        a, b, g = self.a, self.b, self.gamma
        scale = a * b / (b - 1.0)
        e = (b - 1.0) / b
        if r1 + g == 0.0:
            return scale * r2 ** e if b > 1.0 else math.inf
        # (1 + g)^(1/b) ((r2 + g)^e - (r1 + g)^e), with (1 + g)^(1/b) folded
        # into one power of a ratio <= 1 so that large gamma with small b
        # cannot overflow it alone, and an expm1 for the difference, whose
        # terms are both near 1 near b = 1
        try:
            return (scale * (1.0 + g) * ((r1 + g) / (1.0 + g)) ** e
                    * math.expm1(e * math.log1p((r2 - r1) / (r1 + g))))
        except OverflowError:
            raise ValueError(f"the sales flow of band [{r1:g}, {r2:g}] exceeds the double "
                             f"range at b = {b:g}; raise r1 or b") from None


def _pareto_p(b, q: np.ndarray) -> np.ndarray:
    """P(q) = q^b Gamma(1-b, q) on an array of q >= 0, for any b in (0, 2].

    Every power-law quantity is built from P on the dimensionless q = a t:
    the unit-scale transform is L = e^-q - P and the curve y = -expm1(-q) + P.
    The order 1 - b lies in [-1, 1), the grid kernel's range, on both sides
    of b = 1. P -> 0 as q -> 0 (like q^b Gamma(1-b) below b = 1 and q/(b-1)
    above), so y, a sum of two non-negative terms, keeps its relative
    accuracy at small q; L cancels by a factor of about q/b at large q, where
    L ~ b e^-q / q. Beyond UNDERFLOW_P, where Gamma underflows and q^b could
    overflow, P takes its large-q limit e^-q, so L is exactly 0 and y exactly
    1 there.
    """
    q = np.asarray(q, dtype=float)
    bq = np.asarray(b)[:, None] if np.ndim(b) else b  # k b's: one per row of a (k, n) q
    live = (q > 0.0) & (q <= UNDERFLOW_P)
    # lanes outside (0, UNDERFLOW_P] get q^b = 1 and Gamma = 0 (the kernel skips p = inf)
    g = _gamma_upper_grid(1.0 - b, np.where(live, q, np.inf))
    p = np.exp(bq * np.log(np.where(live, q, 1.0))) * g
    return np.where(q > UNDERFLOW_P, np.exp(-q), p)


def _pareto_laplace(b: float, q: np.ndarray) -> np.ndarray:
    """L for a unit-scale pareto law on the grid q = a t."""
    return np.exp(-q) - _pareto_p(b, q)


def _pareto_band(dist: SalesRateDistribution, f, t: np.ndarray,
                 w_lo: float = 0.0, w_hi: float = math.inf) -> np.ndarray:
    """The part carried by rates in [w_lo, w_hi] of a quantity linear in the
    power-law density, given as f(b, q) for the unit-scale law on q = a t.

    Beyond a rate w of the support [a, w_cut], the law is (1 + gamma)(a/w)^b
    times the unit-scale law with minimum rate w, less gamma times the one
    with minimum rate w_cut. So the band is the tail difference
    sum +-(1 + gamma)(a/w)^b f(b, w t) over its ends clamped to the support,
    where the gamma terms cancel. The weight is exactly 1 + gamma at a, and
    it is set to exactly gamma at the cutoff; an infinite end carries no tail.
    """
    a, w_cut = dist.support()
    b, g = dist.b, dist.gamma
    lo, hi = max(w_lo, a), min(w_hi, w_cut)
    out = np.zeros(np.shape(t))
    if lo >= hi:
        return out
    for w, sign in ((lo, 1.0), (hi, -1.0)):
        if w < math.inf:
            weight = g if w == w_cut else (1.0 + g) * (a / w) ** b
            out += sign * weight * f(b, w * t)
    return out


def laplace_transform(dist: SalesRateDistribution, t):
    """L(t) = integral exp(-w t) over the rate distribution.

    Accepts a scalar or array of times t >= 0 and returns matching shape.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr >= 0.0):
        raise ValueError("time t must be non-negative (and not NaN)")
    t = np.atleast_1d(t_arr)
    if dist.kind == "empirical":
        out = np.exp(-np.multiply.outer(t, dist.rates)).mean(axis=-1)
    else:
        out = np.clip(_pareto_band(dist, _pareto_laplace, t), 0.0, 1.0)
        out[t == 0.0] = 1.0  # the cutoff's two unit terms cancel only to an ulp
    if t_arr.ndim == 0:
        return float(out[0])
    return out.reshape(t_arr.shape)


def band_mass(dist: SalesRateDistribution, w_lo: float, w_hi: float) -> float:
    """Probability that a rate falls in [w_lo, w_hi]."""
    return band_laplace(dist, w_lo, w_hi, 0.0)


def band_laplace(dist: SalesRateDistribution, w_lo: float, w_hi: float, t: float) -> float:
    """integral of exp(-w t) over rates restricted to [w_lo, w_hi]."""
    if not 0.0 < w_lo <= w_hi:
        raise ValueError("need 0 < w_lo <= w_hi")
    if not t >= 0.0:
        raise ValueError("time t must be non-negative (and not NaN)")
    if dist.kind == "empirical":
        sel = (dist.rates >= w_lo) & (dist.rates <= w_hi)
        return float(np.sum(np.exp(-dist.rates[sel] * t)) / dist.rates.size)
    return float(_pareto_band(dist, _pareto_laplace, np.array([float(t)]), w_lo, w_hi)[0])


def discrete_rates(n_items: int, a: float, b: float, gamma: float = 0.0) -> np.ndarray:
    """Per-item rates of the rank-indexed power law, head-capped when gamma > 0.

    Item i (1-based) gets w_i = a ((N + n0) / (i + n0))^(1/b) with n0 = gamma N;
    gamma = 0 gives the plain w_i = a (N / i)^(1/b).
    """
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError("rate scale a and exponent b must be finite and positive")
    if not 0.0 <= gamma < math.inf:
        raise ValueError("cutoff ratio gamma must be finite and non-negative")
    n0 = gamma * n_items
    if not n0 < math.inf:
        raise ValueError(f"head size n0 = gamma * n_items = {gamma:g} * {n_items} "
                         "exceeds the double range; lower gamma or n_items")
    rates = np.arange(1, n_items + 1, dtype=float)  # i, then w_i in place
    rates += n0
    np.divide(n_items + n0, rates, out=rates)
    with np.errstate(over="ignore"):  # reported below, without a numpy warning
        rates **= 1.0 / b
        rates *= a
    if not rates[0] < math.inf:
        raise ValueError("top rate a ((N + n0)/(1 + n0))^(1/b) exceeds the double range; "
                         "raise b")
    return rates


def _rate(text: str) -> float:
    w = float(text)
    if not 0.0 < w < math.inf:
        raise ValueError(f"rate must be finite and positive, got {w}")
    return w


def load_rates_csv(path) -> SalesRateDistribution:
    """Read an empirical distribution from a one-column CSV with header ``w``."""
    (rates,) = read_columns(path, ["w"], (_rate,))
    if not rates:
        raise ValueError(f"{path}: no rates found")
    return SalesRateDistribution.empirical(rates)


def save_rates_csv(path, rates) -> None:
    with open_csv(path, ["w"]) as fh:
        write_rows(fh, "%.12g", np.asarray(rates, dtype=float))
