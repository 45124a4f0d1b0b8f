"""Least-squares recovery of (N, a, b) from an observed ranking trajectory.

The model is rank(t) = N * y(t; a, b) with y the closed-form limit curve of
the power-law rate distribution. The rank is linear in N, so for each (a, b)
the best N has a closed form and is projected out of the objective
(variable projection; Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973). The
descent runs in (log a, b) with a derivative-free Nelder-Mead simplex,
restarted from a coarse grid of data-scaled initial guesses; the curve's
t^b rise near zero for b < 1 makes gradient steps unreliable there. The
simplex is implemented here, so fitting imports no scipy.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from ._csvio import open_csv, read_columns, write_rows
from .dist import _B_GUARD
from .limit import _pareto_y_grid

__all__ = [
    "RankingTrajectory",
    "FitOptions",
    "FitResult",
    "Descent",
    "Regime",
    "RegimeReport",
    "chi2",
    "fit_pareto",
    "classify_regime",
]

TRAJECTORY_HEADER = ["t_hours", "rank"]
_STARTS_PER_SIDE = 3    # descents from the best grid points on each side of b = 1
_XATOL = 1e-9           # simplex diameter in (log a, b)


@dataclass
class RankingTrajectory:
    """Observed (time, rank) points for one item between its own sales.

    Times are in hours with t = 0 at a sale of the observed item; ranks may
    be fractional (averaged observations) but never below 1.
    """

    times: np.ndarray
    ranks: np.ndarray
    meta: str = ""

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.ranks = np.asarray(self.ranks, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.ranks.shape:
            raise ValueError("times and ranks must be matching 1-d arrays")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.ranks))):
            raise ValueError("times and ranks must be finite")
        if self.times.size and self.times[0] < 0.0:
            raise ValueError("times must be non-negative")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if np.any(self.ranks < 1.0):
            raise ValueError("ranks must be >= 1")

    @property
    def n_d(self) -> int:
        return int(self.times.size)

    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.times.tolist(), self.ranks.tolist()))

    def to_csv(self, path) -> None:
        with open_csv(path, TRAJECTORY_HEADER) as fh:
            write_rows(fh, "%.12g,%.12g", self.times, self.ranks)

    @classmethod
    def from_csv(cls, path, meta: str = "") -> "RankingTrajectory":
        times, ranks = read_columns(path, TRAJECTORY_HEADER, (float, float))
        if not times:
            raise ValueError(f"{path}: no observations found")
        return cls(np.array(times), np.array(ranks), meta=meta or str(path))


@dataclass
class FitOptions:
    max_iter: int = 2000
    workers: int = 1  # the benchmark's fit.pool_speedup pins the pool (ROADMAP item 4)
    weights: np.ndarray | None = None
    # (a0, b0) starting guesses; N needs none, it is projected out at every point
    extra_starts: list[tuple[float, float]] = field(default_factory=list)


class Descent(NamedTuple):
    """One simplex descent: its start and end in (log a, b), the projected
    chi^2 at the end, its objective evaluations, and whether the simplex met
    its stopping test within the iteration budget."""

    x0: tuple[float, float]
    x: tuple[float, float]
    chi2: float
    nfev: int
    success: bool


@dataclass
class FitResult:
    n_star: float
    a_star: float
    b_star: float
    chi2: float
    delta_y_c: float
    converged: bool
    starts_tried: int
    # every descent in the order run, the polish last; not part of the JSON
    starts: list[Descent] = field(default_factory=list, compare=False)

    def to_json(self) -> str:
        return json.dumps({
            "n_star": self.n_star,
            "a_star": self.a_star,
            "b_star": self.b_star,
            "chi2": self.chi2,
            "delta_y_c": self.delta_y_c,
            "converged": self.converged,
            "starts_tried": self.starts_tried,
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FitResult":
        d = json.loads(text)
        return cls(d["n_star"], d["a_star"], d["b_star"], d["chi2"],
                   d["delta_y_c"], d["converged"], d["starts_tried"])


def chi2(traj: RankingTrajectory, n: float, a: float, b: float,
         weights: np.ndarray | None = None) -> float:
    """Sum of squared rank residuals against the curve n * y(t; a, b)."""
    if not (n > 0.0 and a > 0.0 and 0.0 < b <= 2.0):
        raise ValueError("need n > 0, a > 0, b in (0, 2]")
    if abs(b - 1.0) < _B_GUARD:
        raise ValueError(f"b must stay outside 1 +/- {_B_GUARD}")
    resid = traj.ranks - n * _pareto_y_grid(a, b, traj.times)
    if weights is not None:
        resid = resid * np.asarray(weights, dtype=float)
    return float(resid @ resid)


def _projected(x, times: np.ndarray, ranks: np.ndarray,
               weights: np.ndarray | None) -> tuple[float, float]:
    """(chi^2, N) at x = (log a, b), with N = (y.W^2 r)/(y.W^2 y) the exact
    least-squares scale of the curve y; chi^2 is 1e300 outside the domain."""
    ln_a, b = x
    if not (_B_GUARD < b < 2.0) or abs(b - 1.0) < _B_GUARD or not -700.0 < ln_a < 700.0:
        return 1e300, math.nan
    y = _pareto_y_grid(math.exp(ln_a), b, times)
    if weights is not None:
        y, ranks = y * weights, ranks * weights
    yy = float(y @ y)
    n = float(y @ ranks) / yy if yy > 0.0 else math.nan
    if not 0.0 < n < math.inf:
        return 1e300, n
    resid = ranks - n * y
    return float(resid @ resid), n


def _objective(x, times: np.ndarray, ranks: np.ndarray,
               weights: np.ndarray | None) -> float:
    return _projected(x, times, ranks, weights)[0]


class _BudgetSpent(Exception):
    """The objective was called once more after maxfev evaluations."""


def minimize(fun, x0, args=(), *, maxiter: int, maxfev: int, xatol: float,
             fatol: float) -> SimpleNamespace:
    """Nelder-Mead minimum of ``fun(x, *args)`` from ``x0``.

    Step for step the non-adaptive method of ``scipy.optimize.minimize(
    method="Nelder-Mead")``: the same initial simplex, coefficients, vertex
    order, stopping test and budget flags, so both give the same x, fun and
    nfev. Returns a namespace with ``x``, ``fun``, ``success`` (the xatol and
    fatol test passed before maxiter or maxfev ran out) and ``nfev``.
    """
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return fun(x, *args)

    x0 = np.asarray(x0, dtype=float).ravel()
    dim = x0.size
    sim = np.tile(x0, (dim + 1, 1))
    for k in range(dim):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0.0 else 0.00025
    fsim = np.full(dim + 1, np.inf)
    # coefficients: reflection 1, expansion 2, contraction 1/2, shrink 1/2;
    # the stable sort keeps scipy's vertex order on ties
    try:
        for k in range(dim + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    order = np.argsort(fsim, kind="stable")
    sim, fsim = sim[order], fsim[order]
    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        try:
            xbar = np.add.reduce(sim[:-1], 0) / dim
            xr = 2.0 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3.0 * xbar - 2.0 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc < fsim[-1]
                if shrink:
                    for j in range(1, dim + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
                else:
                    sim[-1], fsim[-1] = xc, fxc
            iterations += 1
        except _BudgetSpent:
            pass
        order = np.argsort(fsim, kind="stable")
        sim, fsim = sim[order], fsim[order]
    success = nfev < maxfev and iterations < maxiter
    return SimpleNamespace(x=sim[0], fun=np.min(fsim), success=success, nfev=nfev)


def _descend(args) -> Descent:
    x0, times, ranks, weights, max_iter = args
    f0 = _objective(x0, times, ranks, weights)
    res = minimize(_objective, x0, args=(times, ranks, weights), maxiter=max_iter,
                   maxfev=4 * max_iter, xatol=_XATOL, fatol=1e-12 * (1.0 + abs(f0)))
    return Descent(tuple(map(float, x0)), tuple(map(float, res.x)), float(res.fun),
                   int(res.nfev), bool(res.success))


def _start_grid(traj: RankingTrajectory) -> list[np.ndarray]:
    t_span = float(traj.times[-1] - traj.times[0]) or float(traj.times[-1])
    return [np.array([math.log(a_mult / t_span), b0])
            for a_mult in (0.3, 1.0, 3.0, 10.0)
            for b0 in (0.3, 0.5, 0.7, 0.9, 1.2, 1.5)]


def fit_pareto(traj: RankingTrajectory, options: FitOptions | None = None) -> FitResult:
    """Best mean-square (N, a, b) for the observed trajectory.

    Screens a coarse data-scaled (a, b) grid by residual, then runs simplex
    descents from the most promising points on each side of b = 1 and keeps
    the overall best; N is the exact least-squares scale at every point.
    Non-convergence is reported through the result flag, not raised.
    """
    opts = options or FitOptions()
    if traj.n_d < 6:
        raise ValueError(f"insufficient observations: need at least 6, got {traj.n_d}")
    if traj.times[-1] <= traj.times[0]:
        raise ValueError("trajectory has no time span")
    if float(traj.ranks.max()) == float(traj.ranks.min()):
        raise ValueError("degenerate data: all ranks equal")

    weights = None
    if opts.weights is not None:
        weights = np.asarray(opts.weights, dtype=float)
        if weights.shape != traj.times.shape:
            raise ValueError("weights must match the number of observations")

    grid = _start_grid(traj)
    scores = np.array([_objective(x, traj.times, traj.ranks, weights) for x in grid])
    order = np.argsort(scores)
    low_side = [grid[i] for i in order if grid[i][1] < 1.0][:_STARTS_PER_SIDE]
    high_side = [grid[i] for i in order if grid[i][1] > 1.0][:_STARTS_PER_SIDE]
    starts = low_side + high_side
    for a0, b0 in opts.extra_starts:
        starts.append(np.array([math.log(a0), float(b0)]))

    jobs = [(x0, traj.times, traj.ranks, weights, opts.max_iter) for x0 in starts]
    if opts.workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # costs start-up time

        with ProcessPoolExecutor(max_workers=opts.workers) as pool:
            outcomes = list(pool.map(_descend, jobs))
    else:
        outcomes = [_descend(j) for j in jobs]

    best = min(outcomes, key=lambda o: o.chi2)
    # polish from the winner; also settles ties between nearby basins
    polish = _descend((best.x, traj.times, traj.ranks, weights, opts.max_iter))
    final = best if polish.chi2 > best.chi2 else polish  # its flag is the one reported

    _, n_star = _projected(final.x, traj.times, traj.ranks, weights)
    return FitResult(
        n_star=n_star, a_star=math.exp(final.x[0]), b_star=final.x[1], chi2=final.chi2,
        delta_y_c=math.sqrt(final.chi2 / traj.n_d) / n_star,
        converged=final.success, starts_tried=len(starts), starts=outcomes + [polish],
    )


class Regime(enum.Enum):
    GREAT_HITS = "great_hits"    # b < 1: top items dominate total sales
    LONG_TAIL = "long_tail"      # b > 1: the aggregate of slow sellers dominates
    INDETERMINATE = "indeterminate"


@dataclass
class RegimeReport:
    regime: Regime
    short_time_shape: str        # early trajectory shape implied by b


def classify_regime(result: FitResult, guard: float = 0.02) -> RegimeReport:
    """Which side of b = 1 the fitted exponent falls on.

    Within ``guard`` of 1 the call is indeterminate. The short-time shape
    notes whether the trajectory should leave t = 0 tangent to the ranking
    axis (like t^b, b < 1) or linearly (b > 1).
    """
    if not result.converged:
        raise ValueError("regime classification needs a converged fit")
    b = result.b_star
    if abs(b - 1.0) < guard:
        return RegimeReport(Regime.INDETERMINATE, "indeterminate")
    if b < 1.0:
        return RegimeReport(Regime.GREAT_HITS, f"concave, rises like t^{b:.4g}")
    return RegimeReport(Regime.LONG_TAIL, "linear")
