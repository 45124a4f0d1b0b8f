"""Infinite-catalog limit curves, their inverses, and sales-share functionals.

Between two of its own sales, an item's scaled rank climbs along the
deterministic curve y(t) = 1 - L(t), where L is the Laplace transform of
the sales-rate distribution. Inverting that curve converts an observed
rank fraction back into elapsed time, which in turn prices how much of the
total sales flow sits in any ranking band: the lucky low-rate items near
the head and unlucky hits in the tail make the ranking-band share S_rank
differ from the potential-ordered share S_pot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csvio import open_csv, read_columns, write_rows
from .dist import SalesRateDistribution, band_laplace, band_mass, laplace_transform
from .special import _gamma_upper, _gamma_upper_grid

__all__ = [
    "DivergenceError",
    "SalesShareReport",
    "y_c",
    "y_c_short_time",
    "x_c",
    "invert_y_c",
    "q_of_r",
    "sales_share_potential",
    "sales_share_ranking",
    "stationary_joint_cdf",
    "nonstationary_joint_cdf",
    "build_share_report",
]

_BISECT_MAX_ITER = 200
_BISECT_WIDTH = 1e-14
_BRACKET_CAP = 2.0 ** 80


class DivergenceError(ValueError):
    """Requested quantity is infinite (head of a heavy-tailed law)."""


def y_c(dist: SalesRateDistribution, t):
    """Scaled limiting rank at elapsed time t since the item's own sale.

    Equals 1 - L(t); accepts scalar or array t >= 0 and lies in [0, 1).
    """
    return 1.0 - laplace_transform(dist, t)


def _pareto_y_grid(a: float, b: float, t: np.ndarray) -> np.ndarray:
    """Unvalidated fast path for the power-law curve, used by the fitter."""
    t = np.asarray(t, dtype=float)
    q = a * t
    out = np.zeros(q.shape)
    pos = q > 0.0
    qp = q[pos]
    if b < 1.0:
        out[pos] = -np.expm1(-qp) + np.exp(b * np.log(qp)) * _gamma_upper_grid(1.0 - b, qp)
    else:
        out[pos] = 1.0 - (1.0 - qp / (b - 1.0)) * np.exp(-qp) \
            - np.exp(b * np.log(qp)) * _gamma_upper_grid(2.0 - b, qp) / (b - 1.0)
    return np.clip(out, 0.0, 1.0)


def y_c_short_time(dist: SalesRateDistribution, t):
    """Leading small-t behavior (a t)^b Gamma(1-b) of the curve, b < 1 only.

    The t^b rise is what makes observed trajectories start tangent to the
    ranking axis in the great-hits regime.
    """
    if dist.kind not in ("pareto", "pareto_cutoff"):
        raise ValueError("short-time form applies to power-law distributions")
    if dist.b >= 1.0:
        raise ValueError("short-time t^b form requires b < 1 (b > 1 rises linearly)")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("time t must be non-negative")
    out = (dist.a * t_arr) ** dist.b * math.gamma(1.0 - dist.b)
    return float(out) if t_arr.ndim == 0 else out


def x_c(dist: SalesRateDistribution, t, n_titles: int):
    """Expected ranking number: n_titles times the scaled curve."""
    if n_titles < 1:
        raise ValueError("n_titles must be >= 1")
    return n_titles * y_c(dist, t)


def invert_y_c(dist: SalesRateDistribution, y: float) -> float:
    """Elapsed time t0 with y_c(t0) = y, for y in [0, 1).

    Bracketed bisection on the monotone curve: the bracket end doubles until
    it encloses y, then halves for up to 200 iterations. Derivative-based
    steps are avoided because the curve is stiff near t = 0 for b < 1.
    """
    y = float(y)
    if y < 0.0 or y >= 1.0:
        raise ValueError("y must lie in [0, 1); the inverse diverges at 1")
    if y == 0.0:
        return 0.0
    hi = 1.0
    while y_c(dist, hi) <= y:
        hi *= 2.0
        if hi > _BRACKET_CAP:
            raise RuntimeError(f"could not bracket y={y}; curve saturates below it")
    lo = 0.0
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if y_c(dist, mid) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECT_WIDTH:
            break
    return 0.5 * (lo + hi)


def q_of_r(dist: SalesRateDistribution, r: float) -> float:
    """Dimensionless inverse q(r) = a * t0(r) of the rank-fraction curve.

    Returns exactly 0.0 at r = 0 and math.inf at r = 1 (the inverse
    diverges there); intermediate values solve the closed-form curve
    equation by bisection.
    """
    if dist.kind not in ("pareto", "pareto_cutoff"):
        raise ValueError("q(r) is defined for power-law distributions")
    r = float(r)
    if r < 0.0 or r > 1.0:
        raise ValueError("r must lie in [0, 1]")
    if r == 0.0:
        return 0.0
    if r == 1.0:
        return math.inf
    return dist.a * invert_y_c(dist, r)


def _check_band(r1: float, r2: float) -> tuple[float, float]:
    r1, r2 = float(r1), float(r2)
    if not 0.0 <= r1 < r2 <= 1.0:
        raise ValueError("need 0 <= r1 < r2 <= 1")
    return r1, r2


def sales_share_potential(dist: SalesRateDistribution, r1: float, r2: float) -> float:
    """Per-item sales flow of the items ranked by true rate between
    fractions r1 and r2 of the catalog.

    For the plain power law with b < 1 the head diverges, so r1 = 0 raises
    :class:`DivergenceError`; the cutoff law keeps it finite.
    """
    r1, r2 = _check_band(r1, r2)
    if dist.kind == "empirical":
        w = np.sort(dist.rates)[::-1]
        n = w.size
        i1, i2 = round(r1 * n), round(r2 * n)
        return float(w[i1:i2].sum() / n)
    a, b = dist.a, dist.b
    g = dist.gamma if dist.kind == "pareto_cutoff" else 0.0
    if g == 0.0:
        if r1 == 0.0 and b < 1.0:
            raise DivergenceError("head share is infinite for b < 1 without a cutoff")
        e = (b - 1.0) / b
        return a * b / (b - 1.0) * (r2 ** e - r1 ** e)
    e = (b - 1.0) / b
    return a * b / (b - 1.0) * (1.0 + g) ** (1.0 / b) * ((r2 + g) ** e - (r1 + g) ** e)


def _ranking_tail_term(b: float, q: float) -> float:
    """One endpoint of the ranking-band share in units of a*b.

    b < 1: Gamma(1-b, q) q^(b-1), diverging as q -> 0.
    b > 1: (e^-q - Gamma(2-b, q) q^(b-1)) / (b-1), with the q -> 0 limit
    1/(b-1) taken analytically.
    """
    if math.isinf(q):
        return 0.0
    if b < 1.0:
        if q == 0.0:
            raise DivergenceError("ranking head share is infinite for b < 1")
        return _gamma_upper(1.0 - b, q) * q ** (b - 1.0)
    if q == 0.0:
        return 1.0 / (b - 1.0)
    return (math.exp(-q) - _gamma_upper(2.0 - b, q) * q ** (b - 1.0)) / (b - 1.0)


def sales_share_ranking(dist: SalesRateDistribution, r1: float, r2: float) -> float:
    """Per-item sales flow of the items sitting in ranking band
    [r1 N, r2 N] at a stationary instant.

    Exceeds the potential-ordered share of the same band whenever the band
    excludes the head, because move-to-front mixes lucky high-rate items
    into every band.
    """
    r1, r2 = _check_band(r1, r2)
    if dist.kind == "empirical":
        t1 = invert_y_c(dist, r1) if r1 > 0.0 else 0.0
        e1 = np.exp(-dist.rates * t1)
        e2 = np.exp(-dist.rates * invert_y_c(dist, r2)) if r2 < 1.0 else 0.0
        return float(np.mean(dist.rates * (e1 - e2)))
    a, b = dist.a, dist.b
    if dist.kind == "pareto_cutoff" and dist.gamma > 0.0:
        return _ranking_share_cutoff(dist, r1, r2)
    q1, q2 = q_of_r(dist, r1), q_of_r(dist, r2)
    return a * b * (_ranking_tail_term(b, q1) - _ranking_tail_term(b, q2))


def _ranking_share_cutoff(dist: SalesRateDistribution, r1: float, r2: float) -> float:
    """Closed form of the ranking-band share under the truncated law."""
    a, b, g = dist.a, dist.b, dist.gamma
    w_hi = dist._cutoff_upper()

    def flow(r: float) -> float:
        # integral of w exp(-w t0(r)) over the truncated law
        if r == 1.0:
            return 0.0
        if r == 0.0:
            return dist.mean_rate()
        t = invert_y_c(dist, r)
        return (1.0 + g) * a * b * (
            _gamma_upper(1.0 - b, a * t) * (a * t) ** (b - 1.0)
            - (a / w_hi) ** (b - 1.0)
            * _gamma_upper(1.0 - b, w_hi * t) * (w_hi * t) ** (b - 1.0)
        )

    return flow(r1) - flow(r2)


def stationary_joint_cdf(dist: SalesRateDistribution, y: float,
                         w_lo: float, w_hi: float) -> float:
    """Fraction of items with rate in [w_lo, w_hi] and scaled rank in [0, y],
    long after launch (rank fraction y must already have been swept).
    """
    y = float(y)
    if y < 0.0 or y >= 1.0:
        raise ValueError("y must lie in [0, 1)")
    if not 0.0 < w_lo <= w_hi:
        raise ValueError("need 0 < w_lo <= w_hi")
    if y == 0.0:
        return 0.0
    lo_s, hi_s = dist.support()
    if w_lo <= lo_s and w_hi >= hi_s:
        return y  # rank marginal is uniform, whatever the rate law
    t0 = invert_y_c(dist, y)
    return band_mass(dist, w_lo, w_hi) - band_laplace(dist, w_lo, w_hi, t0)


def nonstationary_joint_cdf(dist: SalesRateDistribution, y: float,
                            w_lo: float, w_hi: float, t: float) -> float:
    """Joint rank/rate mass beyond the swept boundary, at elapsed time t
    since launch, for the product-form start (initial ranks independent
    of rates).

    Valid only for y > y_c(t); below the boundary use
    :func:`stationary_joint_cdf`.
    """
    y = float(y)
    if y < 0.0 or y >= 1.0:
        raise ValueError("y must lie in [0, 1)")
    if not 0.0 < w_lo <= w_hi:
        raise ValueError("need 0 < w_lo <= w_hi")
    if t < 0.0:
        raise ValueError("time t must be non-negative")
    lt = laplace_transform(dist, t)
    if y <= 1.0 - lt:
        raise ValueError("y is below the swept boundary; use the stationary branch")
    y_hat = 1.0 - (1.0 - y) / lt
    lo_s, hi_s = dist.support()
    if w_lo <= lo_s and w_hi >= hi_s:
        return y
    mass = band_mass(dist, w_lo, w_hi)
    bl = band_laplace(dist, w_lo, w_hi, t)
    return (mass - bl) + bl * y_hat


@dataclass
class SalesShareReport:
    """Tail shares S_pot(r, 1), S_rank(r, 1) and their ratio over an r grid."""

    r: np.ndarray
    q: np.ndarray
    s_potential: np.ndarray
    s_ranking: np.ndarray
    ratio: np.ndarray

    CSV_HEADER = ["r", "q", "S_potential", "S_ranking", "ratio"]

    def to_csv(self, path) -> None:
        with open_csv(path, self.CSV_HEADER) as fh:
            write_rows(fh, ",".join(["%.12g"] * 5), self.r, self.q,
                       self.s_potential, self.s_ranking, self.ratio)

    @classmethod
    def from_csv(cls, path) -> "SalesShareReport":
        cols = read_columns(path, cls.CSV_HEADER, [float] * 5)
        return cls(*(np.array(c, dtype=float) for c in cols))


def build_share_report(dist: SalesRateDistribution, r_grid) -> SalesShareReport:
    """Tabulate the tail-share functionals over a grid of r in (0, 1)."""
    r_grid = np.asarray(r_grid, dtype=float)
    if np.any((r_grid <= 0.0) | (r_grid >= 1.0)):
        raise ValueError("report grid must lie strictly inside (0, 1)")
    q = np.array([q_of_r(dist, r) for r in r_grid])
    s_pot = np.array([sales_share_potential(dist, r, 1.0) for r in r_grid])
    s_rank = np.array([sales_share_ranking(dist, r, 1.0) for r in r_grid])
    return SalesShareReport(r_grid, q, s_pot, s_rank, s_rank / s_pot)
