"""Least-squares recovery of (N, a, b) from an observed ranking trajectory.

The model is rank(t) = N * y(t; a, b) with y the closed-form limit curve of
the power-law rate distribution. The rank is linear in N, so for each (a, b)
the best N has a closed form and is projected out of the objective
(variable projection; Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973). The
descent runs in (log a, b) by Levenberg-Marquardt (Marquardt, J. SIAM 11,
1963), from the best points of a coarse grid of data-scaled initial guesses.
Both derivatives are cheap: dy/d(log a) = b P(q) with P = y + expm1(-q)
comes with the curve, and dy/db is a difference over two more curve rows of
the same batched call. Fitting imports no scipy.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._csvio import finite_float, open_csv, read_columns, write_rows
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
_XATOL = 1e-9           # a converged step's size in (log a, b)
_DB = 1e-5              # the b step of the dy/db difference
# accepted steps divide the LM damping by 10 down to this floor; far below it, a
# step that overshoots costs one rejected round per decade to raise it again
_LAM_FLOOR = 1e-12
# a step that would take b out of the domain (_B_GUARD, 2) stops on its edge
_B_LO, _B_HI = math.nextafter(_B_GUARD, 2.0), math.nextafter(2.0, 0.0)


def _is_integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


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
        times, ranks = read_columns(path, TRAJECTORY_HEADER, (finite_float, finite_float))
        if not times:
            raise ValueError(f"{path}: no observations found")
        return cls(np.array(times), np.array(ranks), meta=meta or str(path))


@dataclass
class FitOptions:
    max_iter: int = 2000
    workers: int = 1  # > 1: the starts split into this many lockstep groups, a process each
    weights: np.ndarray | None = None
    # (a0, b0) starting guesses; N needs none, it is projected out at every point
    extra_starts: list[tuple[float, float]] = field(default_factory=list)


class Descent(NamedTuple):
    """One descent: its start and end in (log a, b), the projected chi^2 at
    the end, the rounds it took part in (one curve call each), whether it
    met the stopping rule within max_iter rounds (an accepted step that
    lowered chi^2 by at most the start's fatol and moved at most _XATOL in
    each coordinate, or a rejected step of at most _XATOL), and the projected
    N at the end."""

    x0: tuple[float, float]
    x: tuple[float, float]
    chi2: float
    nfev: int
    success: bool
    n: float


@dataclass
class FitResult:
    n_star: float
    a_star: float
    b_star: float
    chi2: float
    delta_y_c: float
    converged: bool
    starts_tried: int
    # every descent in the order run, one per start; not part of the JSON
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


def _inside(ln_a: float, b: float) -> bool:
    return _B_GUARD < b < 2.0 and abs(b - 1.0) >= _B_GUARD and -700.0 < ln_a < 700.0


def _scored(curves: np.ndarray, ranks: np.ndarray) -> list[tuple[float, float]]:
    """(chi^2, N) of each (weighted) curve row, with N = (y.r)/(y.y) the exact
    least-squares scale of y; chi^2 is 1e300 unless N is positive and finite."""
    out = []
    for y in curves:  # row by row, each as a 1-d product
        yy = float(y @ y)
        n = float(y @ ranks) / yy if yy > 0.0 else math.nan
        resid = ranks - n * y if 0.0 < n < math.inf else None
        out.append((1e300, n) if resid is None else (float(resid @ resid), n))
    return out


def _projected_all(xs, times: np.ndarray, ranks: np.ndarray,
                   weights: np.ndarray | None) -> list[tuple[float, float]]:
    """(chi^2, N) at each x = (log a, b), from one curve call, with N = (y.W^2 r)/
    (y.W^2 y) the exact least-squares scale of y; chi^2 is 1e300 outside the domain."""
    out = [(1e300, math.nan)] * len(xs)
    inside = [j for j, x in enumerate(xs) if _inside(*x)]
    curves = _pareto_y_grid(np.array([math.exp(xs[j][0]) for j in inside]),
                            np.array([float(xs[j][1]) for j in inside]), times)
    if weights is not None:
        curves, ranks = curves * weights, ranks * weights
    for j, score in zip(inside, _scored(curves, ranks)):
        out[j] = score
    return out


def _lm_step(x, system, lam: float) -> tuple[float, float]:
    """The damped Gauss-Newton step from x in Marquardt's scaling, cut to at most
    1 in log a and in b (steps from far starts can leap). A b that would leave
    the domain stops on its edge, and log a solves with that b step held."""
    aa, ab, bb, ga, gb = system
    daa, dbb = aa * (1.0 + lam) or 1.0, bb * (1.0 + lam) or 1.0  # a zero column stays put
    det = daa * dbb - ab * ab
    db = (gb * daa - ga * ab) / det
    b = min(max(x[1] + db, _B_LO), _B_HI)
    da = (ga * dbb - gb * ab) / det if b == x[1] + db else (ga - ab * (b - x[1])) / daa
    cut = max(abs(da), abs(b - x[1]), 1.0)
    return x[0] + da / cut, x[1] + (b - x[1]) / cut


def minimize(starts, fatols, times, ranks, weights, max_iter: int) -> list[Descent]:
    """One Levenberg-Marquardt descent from each start, all in lockstep: each
    round evaluates every live descent's trial point and the two rows of its
    dy/db difference in one curve call. Each curve row is bit for bit a
    one-row call, so a descent's path does not depend on who shares its calls."""
    k, w = len(starts), 1.0 if weights is None else weights
    rw = ranks * w
    x = [tuple(map(float, x0)) for x0 in starts]
    trial, f, n_at, lam = list(x), [1e300] * k, [math.nan] * k, [1.0] * k
    system, nfev, success = [None] * k, [0] * k, [None] * k
    while live := [j for j in range(k) if success[j] is None]:
        ev = [j for j in live if _inside(*trial[j])]
        a = np.array([math.exp(trial[j][0]) for j in ev])
        b = np.array([trial[j][1] for j in ev])
        # dy/db from rows at b + h1 and b + h2: central, or one-sided within _DB of an edge
        h1 = np.where(b + _DB > _B_HI, -_DB, _DB)
        h2 = np.where((b - _DB < _B_LO) | (b + _DB > _B_HI), 2.0 * h1, -h1)
        y0, y1, y2 = np.split(_pareto_y_grid(np.tile(a, 3), np.concatenate([b, b + h1, b + h2]),
                                             times), 3)
        y, bp = y0 * w, b[:, None] * (y0 + np.expm1(-np.multiply.outer(a, times))) * w
        dyb = ((-(h1 + h2) / (h1 * h2))[:, None] * y0 + (h2 / (h1 * (h2 - h1)))[:, None] * y1
               + (h1 / (h2 * (h1 - h2)))[:, None] * y2) * w
        scores = dict(zip(ev, enumerate(_scored(y, rw))))
        for j in live:
            nfev[j] += 1
            i, (c, n) = scores.get(j, (0, (1e300, math.nan)))
            moved = max(abs(trial[j][0] - x[j][0]), abs(trial[j][1] - x[j][1]))
            if c < f[j]:
                # the Jacobian of N y in (N, log a, b) is [y, N b P, N dy/db]; with N
                # projected out, (log a, b) solve on its part orthogonal to y
                cols = np.array([y[i], n * bp[i], n * dyb[i], rw - n * y[i]])
                (yy, ya, yb, yr), (_, aa, ab, ar), (_, _, bb, br), _ = (cols @ cols.T).tolist()
                system[j] = (aa - ya * ya / yy, ab - ya * yb / yy, bb - yb * yb / yy,
                             ar - ya * yr / yy, br - yb * yr / yy)
                if f[j] - c <= fatols[j] and moved <= _XATOL:
                    success[j] = True
                x[j], f[j], n_at[j], lam[j] = trial[j], c, n, max(lam[j] / 10.0, _LAM_FLOOR)
            elif system[j] is None or moved <= _XATOL:  # a start outside the domain fails
                success[j] = system[j] is not None
                if system[j] is None:  # a failed start keeps its own N
                    n_at[j] = n
            else:
                lam[j] *= 10.0
            if success[j] is None:
                trial[j] = _lm_step(x[j], system[j], lam[j])
                if nfev[j] >= max_iter:
                    success[j] = False
    return [Descent(tuple(map(float, x0)), x[j], f[j], nfev[j], success[j], n_at[j])
            for j, x0 in enumerate(starts)]


def _start_grid(traj: RankingTrajectory) -> list[np.ndarray]:
    t_span = float(traj.times[-1] - traj.times[0])
    return [np.array([math.log(a_mult / t_span), b0])
            for a_mult in (0.3, 1.0, 3.0, 10.0)
            for b0 in (0.3, 0.5, 0.7, 0.9, 1.2, 1.5)]


def fit_pareto(traj: RankingTrajectory, options: FitOptions | None = None) -> FitResult:
    """Best mean-square (N, a, b) for the observed trajectory.

    Screens a coarse data-scaled (a, b) grid by residual, then runs
    Levenberg-Marquardt descents from the most promising points on each side
    of b = 1 and keeps the overall best; N is the exact least-squares scale at
    every point.
    Non-convergence is reported through the result flag, not raised.
    """
    opts = options or FitOptions()
    if traj.n_d < 6:
        raise ValueError(f"insufficient observations: need at least 6, got {traj.n_d}")
    if traj.times[-1] <= traj.times[0]:
        raise ValueError("trajectory has no time span")
    if float(traj.ranks.max()) == float(traj.ranks.min()):
        raise ValueError("degenerate data: all ranks equal")

    if not _is_integer(opts.max_iter) or opts.max_iter < 1:
        raise ValueError(f"max_iter must be a positive integer, got {opts.max_iter!r}")
    if not _is_integer(opts.workers) or opts.workers < 1:
        raise ValueError(f"workers must be a positive integer, got {opts.workers!r}")
    for a0, b0 in opts.extra_starts:
        if not (0.0 < a0 < math.inf and _inside(math.log(a0), b0)):
            raise ValueError(f"extra start needs a0 in (e^-700, e^700) and b0 in "
                             f"({_B_GUARD}, 2) outside 1 +/- {_B_GUARD}, got ({a0!r}, {b0!r})")
    weights = None
    if opts.weights is not None:
        weights = np.asarray(opts.weights, dtype=float)
        if weights.shape != traj.times.shape:
            raise ValueError("weights must match the number of observations")
        if not (np.all(np.isfinite(weights) & (weights >= 0.0)) and np.count_nonzero(weights) >= 6):
            raise ValueError("weights must be finite and non-negative, at least 6 of them positive")

    grid = _start_grid(traj)
    points = grid + [np.array([math.log(a0), float(b0)]) for a0, b0 in opts.extra_starts]
    # every start's fatol is set by its score here, not by a re-evaluation
    scores = [chi2 for chi2, _ in _projected_all(points, traj.times, traj.ranks, weights)]
    order = np.argsort(scores[:len(grid)])
    picked = ([i for i in order if grid[i][1] < 1.0][:_STARTS_PER_SIDE]
              + [i for i in order if grid[i][1] > 1.0][:_STARTS_PER_SIDE]
              + list(range(len(grid), len(points))))  # the extra starts
    starts, fatols = [points[i] for i in picked], [1e-12 * (1.0 + abs(scores[i])) for i in picked]

    data = (traj.times, traj.ranks, weights, opts.max_iter)
    if opts.workers > 1 and len(starts) > 1:
        from concurrent.futures import ProcessPoolExecutor  # costs start-up time

        size = -(-len(starts) // opts.workers)
        groups = [(starts[i:i + size], fatols[i:i + size], *data)
                  for i in range(0, len(starts), size)]
        with ProcessPoolExecutor(max_workers=opts.workers) as pool:
            outcomes = [d for group in pool.map(minimize, *zip(*groups)) for d in group]
    else:
        outcomes = minimize(starts, fatols, *data)

    best = min(outcomes, key=lambda o: o.chi2)
    return FitResult(
        n_star=best.n, a_star=math.exp(best.x[0]), b_star=best.x[1], chi2=best.chi2,
        delta_y_c=math.sqrt(best.chi2 / traj.n_d) / best.n,
        converged=best.success, starts_tried=len(starts), starts=outcomes,
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
