"""Sales-rate distributions and their Laplace transforms.

A catalog of N items is summarized by the distribution of per-item sales
rates w (sales per hour). Three families are supported:

* ``pareto``: survival (a/w)^b for w >= a,
* ``pareto_cutoff``: the same power law truncated at the head so that the
  mean rate stays finite for b < 1 (cutoff ratio gamma = n0/N),
* ``empirical``: a finite list of observed rates.

The Laplace transform L(t) of the rate distribution is the central object:
the limiting scaled ranking curve is 1 - L(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._csvio import open_csv, read_columns, write_rows
from .special import UNDERFLOW_P, _gamma_upper, _gamma_upper_grid

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

_B_GUARD = 1e-6  # exclusion band around b = 1, where the closed forms switch


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

    def _cutoff_upper(self, n_items: int | None = None) -> float:
        if self.gamma == 0.0:
            return math.inf
        w = self.a * (1.0 + 1.0 / self.gamma) ** (1.0 / self.b)
        if n_items is not None:
            w *= n_items ** (1.0 / self.b)
        return w

    def mean_rate(self) -> float:
        """Mean of w; infinite for plain pareto with b <= 1."""
        if self.kind == "empirical":
            return float(self.rates.mean())
        a, b = self.a, self.b
        if self.kind == "pareto":
            return a * b / (b - 1.0) if b > 1.0 else math.inf
        w_hi = self._cutoff_upper()
        if math.isinf(w_hi):
            return a * b / (b - 1.0) if b > 1.0 else math.inf
        return (a * b / (1.0 - b)) * (1.0 + self.gamma) * ((w_hi / a) ** (1.0 - b) - 1.0)


def _pareto_laplace_grid(b: float, q: np.ndarray) -> np.ndarray:
    """L(t) for a unit-scale pareto law, on the dimensionless grid q = a t.

    Uses the integration-by-parts forms whose gamma order lies in [0, 1),
    which stay finite as q -> 0 (the direct order -b form diverges there).
    Beyond UNDERFLOW_P, where Gamma is exactly 0, L is 0 to double precision
    and q^b could overflow, so those lanes skip the formula.
    """
    q = np.asarray(q, dtype=float)
    out = np.where(q > UNDERFLOW_P, 0.0, 1.0)
    pos = (q > 0.0) & (q <= UNDERFLOW_P)
    qp = q[pos]
    if b < 1.0:
        out[pos] = np.exp(-qp) - np.exp(b * np.log(qp)) * _gamma_upper_grid(1.0 - b, qp)
    else:
        out[pos] = (1.0 - qp / (b - 1.0)) * np.exp(-qp) \
            + np.exp(b * np.log(qp)) * _gamma_upper_grid(2.0 - b, qp) / (b - 1.0)
    return np.clip(out, 0.0, 1.0)


def _laplace_grid(dist: SalesRateDistribution, t: np.ndarray,
                  n_items: int | None = None) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if dist.kind == "empirical":
        return np.exp(-np.multiply.outer(t, dist.rates)).mean(axis=-1)
    q = dist.a * t
    base = _pareto_laplace_grid(dist.b, q)
    if dist.kind == "pareto" or dist.gamma == 0.0:
        return base
    w_hi = dist._cutoff_upper(n_items)
    head_mass = (dist.a / w_hi) ** dist.b  # survival of the law at the truncation point
    out = (1.0 + dist.gamma) * (base - head_mass * _pareto_laplace_grid(dist.b, w_hi * t))
    if n_items is None:
        # normalized truncation: total mass is exactly 1
        out[t == 0.0] = 1.0
        return np.clip(out, 0.0, 1.0)
    # finite-catalog probe form; carries total mass 1 + gamma - gamma/N
    return np.clip(out, 0.0, 1.0 + dist.gamma)


def laplace_transform(dist: SalesRateDistribution, t, n_items: int | None = None):
    """L(t) = integral exp(-w t) over the rate distribution.

    Accepts a scalar or array of times t >= 0 and returns matching shape.
    ``n_items`` optionally re-inserts the finite-catalog factor in the
    cutoff support limit; by default the infinite-catalog limit is used.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr >= 0.0):
        raise ValueError("time t must be non-negative (and not NaN)")
    out = _laplace_grid(dist, np.atleast_1d(t_arr), n_items=n_items)
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

    def tail(w: float) -> float:
        # integral_w^inf exp(-x t) b a^b x^(-b-1) dx = b (a t)^b Gamma(-b, w t)
        if math.isinf(w):
            return 0.0
        return b * math.exp(b * math.log(a * t)) * _gamma_upper(-b, w * t)

    return factor * (tail(lo) - tail(hi))


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
