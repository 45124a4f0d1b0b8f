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
        times, ranks = read_columns(path, TRAJECTORY_HEADER, (float, float))
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


def _projected_all(xs, times: np.ndarray, ranks: np.ndarray,
                   weights: np.ndarray | None) -> list[tuple[float, float]]:
    """(chi^2, N) at each x = (log a, b), from one curve call, with N = (y.W^2 r)/
    (y.W^2 y) the exact least-squares scale of y; chi^2 is 1e300 outside the domain."""
    out = [(1e300, math.nan)] * len(xs)
    inside = [j for j, (ln_a, b) in enumerate(xs) if _B_GUARD < b < 2.0
              and abs(b - 1.0) >= _B_GUARD and -700.0 < ln_a < 700.0]
    curves = _pareto_y_grid(np.array([math.exp(xs[j][0]) for j in inside]),
                            np.array([float(xs[j][1]) for j in inside]), times)
    if weights is not None:
        curves, ranks = curves * weights, ranks * weights
    for j, y in zip(inside, curves):  # row by row, each as a 1-d product
        yy = float(y @ y)
        n = float(y @ ranks) / yy if yy > 0.0 else math.nan
        resid = ranks - n * y if 0.0 < n < math.inf else None
        out[j] = (1e300, n) if resid is None else (float(resid @ resid), n)
    return out


def _objective(x, times: np.ndarray, ranks: np.ndarray,
               weights: np.ndarray | None) -> float:
    return _projected_all([x], times, ranks, weights)[0][0]


class _BudgetSpent(Exception):
    """The objective was asked for once more after maxfev evaluations."""


def _simplex(x0, *, maxiter: int, maxfev: int, xatol: float, fatol: float):
    """Nelder-Mead from ``x0`` as a generator that yields each point and is sent
    its value: step for step scipy's non-adaptive ``minimize(method="Nelder-Mead")``
    (the same simplex, coefficients, vertex order, stopping test and budget flags).
    Returns ``x``, ``fun``, ``nfev`` and ``success`` (xatol and fatol met in budget).
    """
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return (yield x)

    # vertices are lists of floats: the same IEEE arithmetic as numpy 2-vectors,
    # at a fraction of the overhead per step
    x0 = np.asarray(x0, dtype=float).ravel().tolist()
    dim = len(x0)
    sim = [x0] + [[(1.05 * v if v != 0.0 else 0.00025) if j == k else v
                   for j, v in enumerate(x0)] for k in range(dim)]
    fsim = [math.inf] * (dim + 1)
    # coefficients: reflection 1, expansion 2, contraction 1/2, shrink 1/2;
    # the stable sort keeps scipy's vertex order on ties, NaN last as in numpy
    try:
        for k in range(dim + 1):
            fsim[k] = yield from f(sim[k])
    except _BudgetSpent:
        pass
    order = sorted(range(dim + 1), key=lambda j: (fsim[j] != fsim[j], fsim[j]))
    sim, fsim = [sim[j] for j in order], [fsim[j] for j in order]
    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        if (all(abs(v - b) <= xatol for x in sim[1:] for v, b in zip(x, sim[0]))
                and all(abs(fsim[0] - v) <= fatol for v in fsim[1:])):
            break
        try:
            xbar = sim[0]  # summed in numpy's order: row 0, then 1, ...
            for x in sim[1:-1]:
                xbar = [c + v for c, v in zip(xbar, x)]
            xbar = [c / dim for c in xbar]
            xr = [2.0 * c - w for c, w in zip(xbar, sim[-1])]
            fxr = yield from f(xr)
            if fxr < fsim[0]:
                xe = [3.0 * c - 2.0 * w for c, w in zip(xbar, sim[-1])]
                fxe = yield from f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = [1.5 * c - 0.5 * w for c, w in zip(xbar, sim[-1])]
                    fxc = yield from f(xc)
                    shrink = not fxc <= fxr
                else:
                    xc = [0.5 * c + 0.5 * w for c, w in zip(xbar, sim[-1])]
                    fxc = yield from f(xc)
                    shrink = not fxc < fsim[-1]
                if shrink:
                    for j in range(1, dim + 1):
                        sim[j] = [b + 0.5 * (v - b) for b, v in zip(sim[0], sim[j])]
                        fsim[j] = yield from f(sim[j])
                else:
                    sim[-1], fsim[-1] = xc, fxc
            iterations += 1
        except _BudgetSpent:
            pass
        order = sorted(range(dim + 1), key=lambda j: (fsim[j] != fsim[j], fsim[j]))
        sim, fsim = [sim[j] for j in order], [fsim[j] for j in order]
    success = nfev < maxfev and iterations < maxiter
    return SimpleNamespace(x=np.array(sim[0]), fun=np.min(fsim), success=success, nfev=nfev)


def _lockstep(runs, evaluate) -> list:
    """Drive :func:`_simplex` generators together to their results: each round
    sends every live run its value and ``evaluate`` takes all their next points."""
    ends, sent = {}, dict.fromkeys(range(len(runs)))  # None starts each generator
    while sent:
        pending = {}
        for j, value in sent.items():
            try:
                pending[j] = runs[j].send(value)
            except StopIteration as stop:
                ends[j] = stop.value
        sent = dict(zip(pending, evaluate(list(pending.values())))) if pending else {}
    return [ends[j] for j in range(len(runs))]


def minimize(fun, x0, args=(), **options) -> SimpleNamespace:
    """Nelder-Mead minimum of ``fun(x, *args)`` from ``x0``: one :func:`_simplex` run."""
    return _lockstep([_simplex(x0, **options)],
                     lambda xs: [fun(np.array(x), *args) for x in xs])[0]


def _descend_all(starts, fatols, times, ranks, weights, max_iter: int) -> list[Descent]:
    """One simplex descent from each start, all run in lockstep: each round
    evaluates the pending point of every live descent in one curve call."""
    runs = [_simplex(x0, maxiter=max_iter, maxfev=4 * max_iter, xatol=_XATOL, fatol=fatol)
            for x0, fatol in zip(starts, fatols)]
    ends = _lockstep(runs, lambda xs: [c for c, _ in _projected_all(xs, times, ranks, weights)])
    return [Descent(tuple(map(float, x0)), tuple(map(float, e.x)), float(e.fun), int(e.nfev),
                    bool(e.success)) for x0, e in zip(starts, ends)]


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

    if not _is_integer(opts.max_iter) or opts.max_iter < 1:
        raise ValueError(f"max_iter must be a positive integer, got {opts.max_iter!r}")
    if not _is_integer(opts.workers) or opts.workers < 1:
        raise ValueError(f"workers must be a positive integer, got {opts.workers!r}")
    for a0, b0 in opts.extra_starts:
        if not (0.0 < a0 < math.inf and 0.0 < b0 <= 2.0):
            raise ValueError(f"extra start needs finite a0 > 0 and b0 in (0, 2], "
                             f"got ({a0!r}, {b0!r})")
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
            outcomes = [d for group in pool.map(_descend_all, *zip(*groups)) for d in group]
    else:
        outcomes = _descend_all(starts, fatols, *data)

    best = min(outcomes, key=lambda o: o.chi2)
    n_star = _projected_all([best.x], traj.times, traj.ranks, weights)[0][1]
    return FitResult(
        n_star=n_star, a_star=math.exp(best.x[0]), b_star=best.x[1], chi2=best.chi2,
        delta_y_c=math.sqrt(best.chi2 / traj.n_d) / n_star,
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
