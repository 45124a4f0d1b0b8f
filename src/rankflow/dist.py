"""Sales-rate distributions and their Laplace transforms.

A catalog of N items is summarized by the distribution of per-item sales
rates w (sales per hour). Three families are supported:

* ``pareto``: survival (a/w)^b for w >= a,
* ``pareto_cutoff``: the same power law truncated at the head so that the
  mean rate stays finite for b < 1 (cutoff ratio gamma = n0/N),
* ``empirical``: a finite list of observed rates.

The Laplace transform L(t) of the rate distribution is the central object:
the limiting scaled ranking curve is 1 - L(t). For the power laws, L, the
curve, the sales flow and the band transforms all come from one closed form,
P(q) = q^b Gamma(1-b, q) (see :func:`_pareto_p`), on both sides of b = 1.
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
    "upper_incomplete_gamma",
    "gamma_recursion_shift",
]

# re-export: the incomplete gamma operations live with the distributions
from .special import gamma_recursion_shift, upper_incomplete_gamma  # noqa: E402,F401

# exclusion band around b = 1, where S_pot, the mean rate and the totals
# carry a 1/(b-1) factor
_B_GUARD = 1e-6


@dataclass(frozen=True)
class SalesRateDistribution:
    """Immutable description of a sales-rate law.

    Build instances through :meth:`pareto`, :meth:`pareto_cutoff`, or
    :meth:`empirical`; the constructor validates the parameter ranges.
    """

    kind: str
    a: float | None = None
    b: float | None = None
    gamma: float = 0.0
    rates: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind in ("pareto", "pareto_cutoff"):
            if self.a is None or not 0.0 < self.a < math.inf:
                raise ValueError("minimum sales rate a must be positive and finite")
            if self.b is None or not 0.0 < self.b <= 2.0:
                raise ValueError("exponent b must lie in (0, 2]")
            if abs(self.b - 1.0) < _B_GUARD:
                raise ValueError(f"exponent b must stay outside 1 +/- {_B_GUARD}")
            if self.kind == "pareto_cutoff":
                if not 0.0 <= self.gamma < math.inf:
                    raise ValueError("cutoff ratio gamma must be finite and non-negative")
            elif self.gamma != 0.0:
                raise ValueError("plain pareto takes no cutoff parameter")
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
        return cls(kind="pareto", a=float(a), b=float(b))

    @classmethod
    def pareto_cutoff(cls, a: float, b: float, gamma: float) -> "SalesRateDistribution":
        return cls(kind="pareto_cutoff", a=float(a), b=float(b), gamma=float(gamma))

    @classmethod
    def empirical(cls, rates) -> "SalesRateDistribution":
        return cls(kind="empirical", rates=np.asarray(rates, dtype=float))

    @property
    def n_rates(self) -> int:
        if self.kind != "empirical":
            raise ValueError("n_rates only applies to empirical distributions")
        return int(self.rates.size)

    def support(self) -> tuple[float, float]:
        """Smallest and largest rate carrying mass."""
        if self.kind == "pareto":
            return self.a, math.inf
        if self.kind == "pareto_cutoff":
            return self.a, self._cutoff_upper()
        return float(self.rates.min()), float(self.rates.max())

    def _cutoff_upper(self) -> float:
        if self.gamma == 0.0:
            return math.inf
        return self.a * (1.0 + 1.0 / self.gamma) ** (1.0 / self.b)

    def mean_rate(self) -> float:
        """Mean of w; infinite for plain pareto with b <= 1."""
        if self.kind == "empirical":
            return float(self.rates.mean())
        a, b, g = self.a, self.b, self.gamma
        if g == 0.0:
            return a * b / (b - 1.0) if b > 1.0 else math.inf
        # (w_hi/a)^(1-b) - 1 with w_hi/a = (1 + 1/g)^(1/b); the power is near 1 near b = 1
        return (a * b / (1.0 - b)) * (1.0 + g) * math.expm1((1.0 - b) / b * math.log1p(1.0 / g))


def _pareto_p(b: float, q: np.ndarray) -> np.ndarray:
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
    out = np.where(q > UNDERFLOW_P, np.exp(-q), 0.0)
    live = (q > 0.0) & (q <= UNDERFLOW_P)
    ql = q[live]
    out[live] = np.exp(b * np.log(ql)) * _gamma_upper_grid(1.0 - b, ql)
    return out


def _pareto_laplace(b: float, q: np.ndarray) -> np.ndarray:
    """L for a unit-scale pareto law on the grid q = a t."""
    return np.exp(-q) - _pareto_p(b, q)


def _pareto_mix(dist: SalesRateDistribution, f, t: np.ndarray) -> np.ndarray:
    """A quantity linear in the rate density, given as f(b, q) for the
    unit-scale law, for either power law: f(b, a t) without cutoff, and
    (1 + gamma) f(b, a t) - gamma f(b, w_hi t) with it, since the truncated
    head has mass (a/w_hi)^b = gamma/(1 + gamma)."""
    out = f(dist.b, dist.a * t)
    g = dist.gamma
    if g == 0.0:
        return out
    return (1.0 + g) * out - g * f(dist.b, dist._cutoff_upper() * t)


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
        out = np.clip(_pareto_mix(dist, _pareto_laplace, t), 0.0, 1.0)
        out[t == 0.0] = 1.0  # the cutoff's two unit terms cancel only to an ulp
    if t_arr.ndim == 0:
        return float(out[0])
    return out.reshape(t_arr.shape)


def band_mass(dist: SalesRateDistribution, w_lo: float, w_hi: float) -> float:
    """Probability that a rate falls in [w_lo, w_hi]."""
    if not 0.0 < w_lo <= w_hi:
        raise ValueError("need 0 < w_lo <= w_hi")
    if dist.kind == "empirical":
        return float(np.mean((dist.rates >= w_lo) & (dist.rates <= w_hi)))

    def survival(w: float) -> float:
        if w <= dist.a:
            return 1.0
        s = (dist.a / w) ** dist.b
        if dist.kind == "pareto_cutoff" and dist.gamma > 0.0:
            s = (1.0 + dist.gamma) * s - dist.gamma
        return min(max(s, 0.0), 1.0)

    return survival(w_lo) - survival(w_hi)


def band_laplace(dist: SalesRateDistribution, w_lo: float, w_hi: float, t: float) -> float:
    """integral of exp(-w t) over rates restricted to [w_lo, w_hi]."""
    if not 0.0 < w_lo <= w_hi:
        raise ValueError("need 0 < w_lo <= w_hi")
    if t < 0.0:
        raise ValueError("time t must be non-negative")
    if t == 0.0:
        return band_mass(dist, w_lo, w_hi)
    if dist.kind == "empirical":
        sel = (dist.rates >= w_lo) & (dist.rates <= w_hi)
        return float(np.sum(np.exp(-dist.rates[sel] * t)) / dist.rates.size)

    a, b = dist.a, dist.b
    lo, hi = max(w_lo, a), w_hi
    factor = 1.0
    if dist.kind == "pareto_cutoff" and dist.gamma > 0.0:
        hi = min(hi, dist._cutoff_upper())
        factor = 1.0 + dist.gamma
    if lo >= hi:
        return 0.0
    # the tail integral_w^inf exp(-x t) b a^b x^(-b-1) dx is (a/w)^b times the
    # transform of the unit-scale law with minimum rate w, at w t
    w = np.array([lo, hi])
    tail = (a / w) ** b * _pareto_laplace(b, w * t)
    return factor * float(tail[0] - tail[1])


def discrete_rates(n_items: int, a: float, b: float, gamma: float = 0.0) -> np.ndarray:
    """Per-item rates of the rank-indexed power law, head-capped when gamma > 0.

    Item i (1-based) gets w_i = a ((N + n0) / (i + n0))^(1/b) with n0 = gamma N;
    gamma = 0 gives the plain w_i = a (N / i)^(1/b).
    """
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    i = np.arange(1, n_items + 1, dtype=float)
    n0 = gamma * n_items
    return a * ((n_items + n0) / (i + n0)) ** (1.0 / b)


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
