"""Infinite-catalog limit curves, their inverses, and sales-share functionals.

Between two of its own sales, an item's scaled rank climbs along the
deterministic curve y(t) = 1 - L(t), where L is the Laplace transform of
the sales-rate distribution. Inverting that curve converts an observed
rank fraction back into elapsed time, which in turn prices how much of the
total sales flow sits in any ranking band: the lucky low-rate items near
the head and unlucky hits in the tail make the ranking-band share S_rank
differ from the potential-ordered share S_pot. For the power law the
curve, the fitter's fast path and the sales flow all come from one closed
form, dist's P(q) = q^b Gamma(1-b, q), with no switch at b = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csvio import finite_float, open_csv, read_columns, write_rows
from .dist import (SalesRateDistribution, _pareto_band, _pareto_p, band_laplace, band_mass,
                   laplace_transform)
from .special import _gamma_upper, _gamma_upper_grid  # noqa: F401 (perfbench hooks both)

__all__ = [
    "DivergenceError",
    "SalesShareReport",
    "y_c",
    "invert_y_c",
    "sales_share_potential",
    "sales_share_ranking",
    "stationary_joint_cdf",
    "nonstationary_joint_cdf",
    "build_share_report",
]

_BISECT_RTOL = 4.0 * np.finfo(float).eps  # bracket width relative to t
_BRACKET_CAP = 2.0 ** 80


class DivergenceError(ValueError):
    """Requested quantity is infinite (head of a heavy-tailed law)."""


def y_c(dist: SalesRateDistribution, t):
    """Scaled limiting rank at elapsed time t since the item's own sale.

    Equals 1 - L(t); accepts scalar or array t >= 0 and lies in [0, 1).
    """
    return 1.0 - laplace_transform(dist, t)


def _pareto_y_grid(a, b, t: np.ndarray) -> np.ndarray:
    """Unvalidated fast path for the power-law curve, used by the fitter.

    y = -expm1(-q) + P(q) with q = a t: a sum of two non-negative terms, so
    it keeps its relative accuracy at small q, and it is exactly 1 past the
    Gamma underflow. k values of a and b give k rows, each bit for bit its own curve.
    """
    q = np.multiply.outer(a, np.asarray(t, dtype=float))
    return -np.expm1(-q) + _pareto_p(b, q)


def invert_y_c(dist: SalesRateDistribution, y):
    """Elapsed time t0 with y_c(t0) = y, for a level or an array of levels
    in [0, 1).

    All levels are solved together, one curve call per step over the lanes
    still open. Each lane's t doubles or halves from 1/a until a factor-2
    bracket encloses its level, which is then bisected to a width of a few
    ulps of t: a relative tolerance, so large t converge as fast as small.
    At subnormal t that width is below the spacing of doubles, so a lane
    also closes once its midpoint rounds onto an end of the bracket.
    Derivative-based steps are avoided because the curve is stiff near
    t = 0 for b < 1.
    """
    y_arr = np.asarray(y, dtype=float)
    if not np.all((y_arr >= 0.0) & (y_arr < 1.0)):
        raise ValueError("y must lie in [0, 1); the inverse diverges at 1")
    y = y_arr.ravel()
    lo = np.zeros(y.shape)
    hi = np.where(y > 0.0, np.inf, 0.0)
    t = np.full(y.shape, 1.0 / (dist.a if dist.a is not None else dist.rates.mean()))
    act = np.flatnonzero(y > 0.0)
    while act.size:
        below = y_c(dist, t[act]) < y[act]
        lo[act[below]] = t[act[below]]
        hi[act[~below]] = t[act[~below]]
        act = act[(hi[act] == np.inf) | (hi[act] - lo[act] > _BISECT_RTOL * hi[act])]
        # no upper end yet: double; otherwise bisect, which halves while lo = 0
        t[act] = np.where(hi[act] == np.inf, 2.0 * lo[act], 0.5 * (lo[act] + hi[act]))
        bad = (t[act] > _BRACKET_CAP) | (t[act] == 0.0)
        if np.any(bad):
            raise RuntimeError(f"could not bracket y={y[act][bad][0]}; "
                               "the curve does not resolve it")
        act = act[(lo[act] < t[act]) & (t[act] < hi[act])]
    t0 = (0.5 * (lo + hi)).reshape(y_arr.shape)
    return float(t0) if y_arr.ndim == 0 else t0


def _check_band(r1: float, r2: float) -> tuple[float, float]:
    r1, r2 = float(r1), float(r2)
    if not 0.0 <= r1 < r2 <= 1.0:
        raise ValueError("need 0 <= r1 < r2 <= 1")
    return r1, r2


def sales_share_potential(dist: SalesRateDistribution, r1: float, r2: float) -> float:
    """Per-item sales flow of the items ranked by true rate between
    fractions r1 and r2 of the catalog.

    For the power law with b < 1 and gamma = 0 the head diverges, so r1 = 0
    raises :class:`DivergenceError`; a cutoff gamma > 0 keeps it finite.
    """
    r1, r2 = _check_band(r1, r2)
    if dist.kind == "empirical":
        w = np.sort(dist.rates)[::-1]
        n = w.size
        i1, i2 = round(r1 * n), round(r2 * n)
        return float(w[i1:i2].sum() / n)
    flow = dist._potential_flow(r1, r2)
    if math.isinf(flow):
        raise DivergenceError("head share is infinite for b < 1 without a cutoff")
    return flow


def _sales_flow(dist: SalesRateDistribution, t) -> np.ndarray:
    """Sales flow E[w exp(-w t)] = dy_c/dt of the items last sold t ago,
    on an array of t in [0, inf].

    The ranking-band share is the flow difference between the band's end
    times; the flow is the mean rate S_pot(0, 1) at t = 0 and vanishes at
    t = inf. For the power law it is b P(a t) / t, from dL/dq = -b P(q)/q,
    taken over the support by dist's band primitive.
    """
    t = np.asarray(t, dtype=float)
    if dist.kind == "empirical":
        return (dist.rates * np.exp(-np.multiply.outer(t, dist.rates))).mean(axis=-1)
    out = np.zeros(t.shape)
    if np.any(t == 0.0):
        out[t == 0.0] = sales_share_potential(dist, 0.0, 1.0)
    pos = t > 0.0
    out[pos] = dist.b * _pareto_band(dist, _pareto_p, t[pos]) / t[pos]
    return out


def sales_share_ranking(dist: SalesRateDistribution, r1: float, r2: float) -> float:
    """Per-item sales flow of the items sitting in ranking band
    [r1 N, r2 N] at a stationary instant.

    Exceeds the potential-ordered share of the same band whenever the band
    excludes the head, because move-to-front mixes lucky high-rate items
    into every band.
    """
    r1, r2 = _check_band(r1, r2)
    ends = np.array([r1, r2])
    t = np.full(2, math.inf)
    t[ends < 1.0] = invert_y_c(dist, ends[ends < 1.0])
    flow = _sales_flow(dist, t)
    return float(flow[0] - flow[1])


def _check_joint(dist: SalesRateDistribution, y: float, w_lo: float,
                 w_hi: float) -> tuple[float, bool]:
    """Validated rank fraction y, and whether [w_lo, w_hi] covers the support."""
    y = float(y)
    if not 0.0 <= y < 1.0:
        raise ValueError("y must lie in [0, 1)")
    if not 0.0 < w_lo <= w_hi:
        raise ValueError("need 0 < w_lo <= w_hi")
    lo_s, hi_s = dist.support()
    return y, w_lo <= lo_s and w_hi >= hi_s


def stationary_joint_cdf(dist: SalesRateDistribution, y: float,
                         w_lo: float, w_hi: float) -> float:
    """Fraction of items with rate in [w_lo, w_hi] and scaled rank in [0, y],
    long after launch (rank fraction y must already have been swept).
    """
    y, full = _check_joint(dist, y, w_lo, w_hi)
    if y == 0.0 or full:
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
    y, full = _check_joint(dist, y, w_lo, w_hi)
    if not t >= 0.0:
        raise ValueError("time t must be non-negative (and not NaN)")
    lt = laplace_transform(dist, t)
    if y <= 1.0 - lt:
        raise ValueError("y is below the swept boundary; use the stationary branch")
    if full:
        return y
    y_hat = 1.0 - (1.0 - y) / lt
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
        cols = read_columns(path, cls.CSV_HEADER, [finite_float] * 5)
        return cls(*(np.array(c, dtype=float) for c in cols))


def build_share_report(dist: SalesRateDistribution, r_grid) -> SalesShareReport:
    """Tabulate the tail-share functionals over a grid of r in (0, 1).

    The whole grid is inverted in one lane-parallel solve, and q and S_rank
    both come from that one array of times.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if not np.all((r_grid > 0.0) & (r_grid < 1.0)):
        raise ValueError("report grid must lie strictly inside (0, 1)")
    if dist.kind != "pareto":
        raise ValueError("q(r) is defined for power-law distributions")
    t = invert_y_c(dist, r_grid)
    s_pot = np.array([sales_share_potential(dist, r, 1.0) for r in r_grid])
    s_rank = _sales_flow(dist, t)
    return SalesShareReport(r_grid, dist.a * t, s_pot, s_rank, s_rank / s_pot)
