"""Exact event-driven simulation of the finite-catalog ranking process.

Sales form a superposition of independent exponential clocks: the next
event arrives after Exp(sum of rates) and belongs to item i with
probability w_i / W (alias-table draw, O(1) per event). Rankings are never
shifted per event; move-to-front order is recovered on demand because at
any instant the queue reads "items in reverse order of last sale, then the
never-sold in index order". That keeps a run at O(events) plus
O(N + S log S) per observation, S the items sold so far, instead of
O(events * N).

Runs are the Monte-Carlo oracle for the closed-form limit curves: the
scaled count of ever-sold items converges on the limit curve, and the
joint (rate, scaled rank) histogram converges on the limiting measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._csvio import finite_float, read_columns
from .dist import SalesRateDistribution
from .fit import RankingTrajectory, _is_integer
from .limit import y_c

__all__ = [
    "CapacityError",
    "SimulationConfig",
    "SimulationRun",
    "run_simulation",
    "empirical_joint_measure",
    "synthesize_noisy_trajectory",
    "load_events_csv",
    "load_snapshot_csv",
]

_CHUNK = 1 << 19
_SUB = 1 << 15  # coins drawn at once by _draw_chunk


class CapacityError(RuntimeError):
    """Expected event count exceeds the configured cap."""


@dataclass
class SimulationConfig:
    """Inputs of one run; identical configs give bit-identical runs.

    ``rates`` are per-item sales rates (1/hour). Item i starts at rank
    i + 1, except that a ``track_item`` starts at rank 1, as if it had sold
    at t = 0, with the others in index order below it. For a start order
    that does not depend on the rates, shuffle ``rates``. ``observe_times``
    is the sorted grid where the boundary, the tracked item, and a snapshot
    sink's full rankings are recorded.
    """

    rates: np.ndarray
    horizon: float
    seed: int
    observe_times: np.ndarray = field(default_factory=lambda: np.array([]))
    track_item: int | None = None
    max_events: float = 1e8

    def __post_init__(self):
        self.rates = np.asarray(self.rates, dtype=float)
        if self.rates.ndim != 1 or self.rates.size == 0:
            raise ValueError("rates must be a non-empty 1-d array")
        if not np.all((self.rates > 0.0) & np.isfinite(self.rates)):
            raise ValueError("all rates must be finite and strictly positive")
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        if not 0.0 < self.max_events < math.inf:  # NaN fails too
            raise ValueError("max_events must be positive and finite")
        obs = self.observe_times = np.asarray(self.observe_times, dtype=float)
        if obs.ndim != 1:
            raise ValueError(f"observe_times must be a 1-d array, got shape {obs.shape}")
        if not np.all(np.isfinite(obs)) or np.any(np.diff(obs) < 0.0):
            raise ValueError("observe_times must be finite and sorted")
        if obs.size and (obs[0] < 0.0 or obs[-1] > self.horizon):
            raise ValueError("observe_times must lie within [0, horizon]")
        if self.track_item is not None and np.any(np.diff(obs) == 0.0):
            raise ValueError("observe_times must not repeat when an item is tracked")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.track_item is not None and not _is_integer(self.track_item):
            raise ValueError(f"track_item must be an integer, got {self.track_item!r}")
        if self.track_item is not None and not 0 <= self.track_item < self.rates.size:
            raise ValueError("track_item out of range")

    @property
    def n_items(self) -> int:
        return int(self.rates.size)


@dataclass
class SimulationRun:
    """Event log (empty when a sink took it), per-item sale summaries, and
    observation data."""

    config: SimulationConfig
    total_events: int
    first_sale: np.ndarray            # time of first sale per item, inf if never
    last_sale: np.ndarray             # time of latest sale per item, nan if never
    event_times: np.ndarray
    event_items: np.ndarray
    observe_times: np.ndarray
    boundary_counts: np.ndarray       # ever-sold count at each observe time
    tracked_trajectory: RankingTrajectory | None

    @property
    def n_items(self) -> int:
        return self.config.n_items

    def y_c_boundary(self) -> np.ndarray:
        """Scaled ever-sold boundary at the observation grid."""
        return self.boundary_counts / self.config.n_items


def _build_alias(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias table (IEEE TSE 17, 1991): accept[i] threshold, alias[i] fallback.

    Small items (scaled weight < 1) borrow their deficit from large items
    (scaled weight > 1) in index order; a large item whose excess runs dry
    becomes small and borrows its shortfall from the next large item. Items at
    exactly 1 keep themselves. With D and E the running sums of deficits and
    excesses (both non-decreasing), every hand-over follows from one merge:
    where each E_k falls among the D.
    """
    n = weights.size
    accept = weights * (n / weights.sum())  # the scaled weights, clipped to 1 below
    alias = np.arange(n, dtype=np.int64)
    small, large = np.flatnonzero(accept < 1.0), np.flatnonzero(accept > 1.0)
    d_cum = accept.take(small)
    np.subtract(1.0, d_cum, out=d_cum)
    np.cumsum(d_cum, out=d_cum)
    e_cum = accept.take(large)
    e_cum -= 1.0
    np.cumsum(e_cum, out=e_cum)
    np.minimum(accept, 1.0, out=accept)
    if not large.size:
        return accept, alias
    # j[k] = #{D < E_k}: small i + 1 borrows from the first large k with
    # E_k > D_i, that is from large k for j[k-1] <= i < j[k], and small 0 from
    # large 0. Rounding can leave a tail past the last large item, and those
    # keep themselves as alias (mass 1, off by rounding only)
    j = np.searchsorted(d_cum, e_cum, side="left")
    given = np.repeat(large, np.diff(j, prepend=0))[:small.size - 1]
    alias[small[1:given.size + 1]] = given
    alias[small[:1]] = large[0]
    # large k runs dry at the first D_j >= E_k (small j straddles E_k, so it
    # was given to k or an earlier large item) and borrows D_j - E_k from k + 1
    dry = np.flatnonzero(j[:-1] < small.size)
    accept[large[dry]] = np.clip(1.0 - (d_cum[j[dry]] - e_cum[dry]), 0.0, 1.0)
    alias[large[dry]] = large[dry + 1]
    return accept, alias


def _draw_chunk(rng, total_rate: float, t_cursor: float, horizon: float,
                accept: np.ndarray, alias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The next events after t_cursor, up to _CHUNK of them and none past the
    horizon: their times and items.

    Each seed's run is fixed by the order of a full chunk's draws: _CHUNK
    gaps, then _CHUNK slots, then _CHUNK coins. Only the k events up to the
    horizon are kept, so only their k slots and k coins are drawn; the
    _CHUNK - k slots of the events past the horizon are skipped by advancing
    the generator, not drawn. PCG64 spends exactly one 64-bit output per
    uniform double, so every kept slot and coin is the draw a full chunk
    would have made, and a chunk with k < _CHUNK ends the run, so no draw
    follows its coins. That final chunk's times are copied out of the gap
    buffer, which is freed before the run's last observations.

    Each item is written over its slot, so the gaps and the slots are the
    only chunk-sized arrays: the coins are drawn _SUB at a time, in stream
    order, and only the events whose coin fails read ``alias``.
    """
    n = accept.size
    times = rng.exponential(1.0 / total_rate, _CHUNK)
    np.cumsum(times, out=times)
    times += t_cursor
    k = int(np.searchsorted(times, horizon, side="right"))
    slots = rng.random(k)
    rng.bit_generator.advance(_CHUNK - k)
    slots *= n
    items = slots.view(np.int64)  # each slot's index, written over its draw
    np.copyto(items, slots, casting="unsafe")  # truncates; a ufunc would copy
    np.minimum(items, n - 1, out=items)
    for start in range(0, k, _SUB):
        j = items[start:start + _SUB]
        fail = np.flatnonzero(rng.random(j.size) >= accept.take(j))
        j[fail] = alias.take(j.take(fail))
    return (times if k == _CHUNK else times[:k].copy()), items


_NEVER, _PRE_RUN = -2, -1  # last_seq of an unsold item, and of the tracked one


class _State:
    """Mutable per-run arrays updated block by block. Sequence numbers and
    event times never decrease along the run, so an item's latest sale holds
    both its largest sequence number and its largest time.

    The run's sales are numbered 0, 1, ...; the tracked item starts with a
    pre-run sale, numbered below all of them and above the never-sold, so it
    starts at rank 1 and its rank needs no other case. That sale is no sale
    of the run: the boundary and the sale times count sequence numbers >= 0.
    """

    def __init__(self, cfg: SimulationConfig, snapshot_sink):
        n = cfg.n_items
        self.cfg = cfg
        self.first_time = np.full(n, np.inf)
        self.last_time = np.full(n, -np.inf)
        self.last_seq = np.full(n, _NEVER, dtype=np.int64)
        if cfg.track_item is not None:
            self.last_seq[cfg.track_item] = _PRE_RUN
        self.boundary: list[int] = []
        self.tracked_ranks: list[float] = []
        self.snapshot_sink = snapshot_sink

    def apply(self, items: np.ndarray, times: np.ndarray, seq0: int) -> None:
        np.maximum.at(self.last_seq, items, np.arange(seq0, seq0 + items.size))
        np.maximum.at(self.last_time, items, times)
        np.minimum.at(self.first_time, items, times)

    def observe(self, theta: float) -> None:
        self.boundary.append(int(np.count_nonzero(self.last_seq >= 0)))
        ti = self.cfg.track_item
        if ti is not None:
            self.tracked_ranks.append(
                float(1 + np.count_nonzero(self.last_seq > self.last_seq[ti])))
        if self.snapshot_sink is not None:
            self.snapshot_sink(theta, self._all_ranks())

    def _all_ranks(self) -> np.ndarray:
        # the S items with a sale, the pre-run one included, take ranks 1..S,
        # latest sale first; never-sold item i takes S + the never-sold count
        # among items 0..i, counted in the returned array itself
        sold = np.flatnonzero(self.last_seq > _NEVER)
        ranks = np.empty(self.last_seq.size, dtype=np.int64)
        np.less(self.last_seq, _PRE_RUN, out=ranks)
        np.cumsum(ranks, out=ranks)
        ranks += sold.size
        ranks[sold.take(np.argsort(self.last_seq.take(sold)))] = np.arange(sold.size, 0, -1)
        return ranks


def run_simulation(config: SimulationConfig, sink=None,
                   snapshot_sink=None) -> SimulationRun:
    """Run the process to the horizon; deterministic in the seed.

    ``sink(times, items)``, when given, receives each chunk of events after
    the chunk is applied, so a caller can stream the log instead of keeping
    it: the run's ``event_times`` and ``event_items`` are then empty.
    ``snapshot_sink(theta, ranks)``, when given, receives the full ranking
    at every observation time, in order and repeated times included, as a
    new array that it may keep (``ranks[i]`` is item i's 1-based rank);
    without it no ranking is taken. Neither sink changes the draws.

    A ranking is one running count of the never-sold items, plus the sold
    items placed by their latest sale; the start order is never built.
    """
    rates = config.rates
    total_rate = float(rates.sum())
    expected = total_rate * config.horizon
    if expected > config.max_events:
        raise CapacityError(
            f"expected {expected:.3g} events exceeds cap {config.max_events:.3g}; "
            "raise max_events or shorten the horizon")

    rng = np.random.default_rng(config.seed)
    accept, alias = _build_alias(rates)
    if alias.size < 2 ** 31:
        alias = alias.astype(np.int32)  # half the bytes; items stay int64
    state = _State(config, snapshot_sink)
    obs = config.observe_times
    obs_idx = 0
    # the seeds keep a zero-event log's dtypes through the concatenation
    ev_times, ev_items = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    if sink is None:
        def sink(times, items):
            ev_times.append(times.copy())
            ev_items.append(items.copy())
    t_cursor = 0.0
    seq_base = 0
    done = False

    while not done:
        times, items = _draw_chunk(rng, total_rate, t_cursor, config.horizon,
                                   accept, alias)
        n_valid = times.size
        done = n_valid < _CHUNK
        if done:  # no draw follows: the last rankings run without the alias table
            del accept, alias
        applied = 0
        # on the final chunk every remaining observation is reachable
        limit = config.horizon if done else float(times[-1])
        while obs_idx < obs.size and obs[obs_idx] <= limit:
            theta = obs[obs_idx]
            cut = int(np.searchsorted(times, theta, side="right"))
            if cut > applied:
                state.apply(items[applied:cut], times[applied:cut], seq_base + applied)
                applied = cut
            state.observe(theta)
            obs_idx += 1
        if applied < n_valid:
            state.apply(items[applied:], times[applied:], seq_base + applied)
        if n_valid:
            sink(times, items)
        seq_base += n_valid
        if not done:
            t_cursor = float(times[-1])
        del times, items  # the next chunk is drawn without this one alive

    tracked = None
    if config.track_item is not None and obs.size:
        tracked = RankingTrajectory(
            times=obs.copy(), ranks=np.array(state.tracked_ranks),
            meta=f"simulated item {config.track_item}, seed {config.seed}")

    last_sale = state.last_time
    last_sale[state.last_seq < 0] = np.nan
    return SimulationRun(
        config=config,
        total_events=seq_base,
        first_sale=state.first_time,
        last_sale=last_sale,
        event_times=np.concatenate(ev_times),
        event_items=np.concatenate(ev_items),
        observe_times=obs.copy(),
        boundary_counts=np.array(state.boundary, dtype=np.int64),
        tracked_trajectory=tracked,
    )


def empirical_joint_measure(rates, ranks, y_bins,
                            w_bins) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint (rate, scaled rank) histogram of one ranking, as a snapshot sink gets it.

    Returns (H, w_edges, y_edges) with H[i, j] the item fraction whose rate
    falls in w-bin i and scaled rank (X - 1)/N in y-bin j; total mass 1
    when the bins cover everything.
    """
    n = len(rates)
    scaled = (np.asarray(ranks) - 1.0) / n
    h, w_edges, y_edges = np.histogram2d(rates, scaled,
                                         bins=[np.asarray(w_bins), np.asarray(y_bins)])
    return h / n, w_edges, y_edges


def load_events_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read an event-log CSV with header ``t,item``."""
    times, items = read_columns(path, ["t", "item"], (finite_float, int))
    return np.array(times, dtype=float), np.array(items, dtype=np.int64)


def load_snapshot_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a snapshot CSV with header ``item,w,rank``."""
    items, rates, ranks = read_columns(path, ["item", "w", "rank"], (int, finite_float, int))
    return (np.array(items, dtype=np.int64), np.array(rates, dtype=float),
            np.array(ranks, dtype=np.int64))


def synthesize_noisy_trajectory(dist: SalesRateDistribution, n_titles: int,
                                observe_times, noise_sigma: float,
                                seed: int) -> RankingTrajectory:
    """Fit-test fixture: closed-form curve samples plus Gaussian rank noise,
    clamped to the valid rank range [1, n_titles]."""
    if not 0.0 <= noise_sigma < math.inf:  # NaN fails too
        raise ValueError(f"noise_sigma must be finite and non-negative, got {noise_sigma}")
    ts = np.asarray(observe_times, dtype=float)
    ranks = n_titles * y_c(dist, ts)
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        ranks = ranks + rng.normal(0.0, noise_sigma, ts.shape)
    ranks = np.clip(ranks, 1.0, float(n_titles))
    return RankingTrajectory(ts, ranks,
                             meta=f"synthetic n={n_titles} sigma={noise_sigma} seed={seed}")
