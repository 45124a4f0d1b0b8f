"""Finite-N simulator: exactness of the dynamics and convergence to the limit."""

import dataclasses
import hashlib
import math
import platform
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import rankflow.sim as sim_module
from rankflow.dist import SalesRateDistribution, discrete_rates
from rankflow.limit import stationary_joint_cdf, y_c
from rankflow.sim import (
    CapacityError,
    _build_alias,
    SimulationConfig,
    empirical_joint_measure,
    load_events_csv,
    load_snapshot_csv,
    run_simulation,
    synthesize_noisy_trajectory,
)

LOW_A, LOW_B = 3.939e-4, 0.6312


def with_rankings(cfg):
    """A run and the (time, ranks) pairs that its snapshot sink received."""
    taken = []
    return run_simulation(cfg, snapshot_sink=lambda t, r: taken.append((t, r))), taken


def sale_times(run):
    """Each item's first and latest sale time, reduced from the run's event
    log: inf and NaN for an item that never sold."""
    first, last = np.full(run.n_items, np.inf), np.full(run.n_items, -np.inf)
    np.minimum.at(first, run.event_items, run.event_times)
    np.maximum.at(last, run.event_items, run.event_times)
    last[last == -np.inf] = np.nan
    return first, last


def small_run(**overrides):
    kwargs = dict(rates=discrete_rates(300, 0.05, 0.8), horizon=30.0, seed=11,
                  observe_times=np.linspace(0.0, 30.0, 16), track_item=123)
    kwargs.update(overrides)
    return with_rankings(SimulationConfig(**kwargs))


def test_single_item_always_rank_one():
    cfg = SimulationConfig(rates=np.array([2.0]), horizon=5.0, seed=1,
                           observe_times=np.linspace(0.0, 5.0, 6), track_item=0)
    run = run_simulation(cfg)
    assert np.all(run.tracked_trajectory.ranks == 1.0)


def test_two_symmetric_items_split_the_top():
    cfg = SimulationConfig(rates=np.array([1.0, 1.0]), horizon=5e4, seed=7,
                           observe_times=np.arange(1.0, 5e4, 1.0), track_item=0)
    run = run_simulation(cfg)
    frac = float(np.mean(run.tracked_trajectory.ranks == 1.0))
    # 3 sigma binomial window around 1/2 (samples are weakly correlated,
    # but the run covers ~5e4 renewal cycles)
    assert abs(frac - 0.5) <= 3.0 * 0.5 / math.sqrt(run.tracked_trajectory.n_d) * 3.0


def test_determinism_bit_identical():
    mk = lambda: SimulationConfig(rates=np.array([1.0, 2.0, 0.5]), horizon=200.0,
                                  seed=42, observe_times=np.array([100.0]))
    r1, r2 = run_simulation(mk()), run_simulation(mk())
    assert np.array_equal(r1.event_times, r2.event_times)
    assert np.array_equal(r1.event_items, r2.event_items)
    assert r1.total_events == r2.total_events


def test_snapshots_are_permutations():
    run, taken = small_run()
    assert len(taken) == run.observe_times.size
    for _, ranks in taken:
        assert np.array_equal(np.sort(ranks), np.arange(1, run.n_items + 1))


def test_boundary_separates_sold_from_never_sold():
    run, taken = small_run()
    first, _ = sale_times(run)
    for (theta, ranks), count in zip(taken, run.boundary_counts):
        sold = first <= theta
        assert int(sold.sum()) == count
        if sold.any():
            assert ranks[sold].max() == count
        if (~sold).any():
            assert ranks[~sold].min() == count + 1


def test_tracked_rank_agrees_with_snapshots():
    run, taken = small_run()
    from_snapshots = [float(ranks[123]) for _, ranks in taken]
    np.testing.assert_allclose(run.tracked_trajectory.ranks, from_snapshots)


def test_tracked_rank_resets_and_climbs():
    run, _ = small_run(track_item=0, horizon=60.0,
                       observe_times=np.linspace(0.0, 60.0, 400))
    traj = run.tracked_trajectory.ranks
    own_sales = run.event_times[run.event_items == 0]
    assert own_sales.size > 0
    # between consecutive own sales the rank never decreases
    for lo, hi in zip(own_sales[:-1], own_sales[1:]):
        seg = traj[(run.observe_times > lo) & (run.observe_times < hi)]
        assert np.all(np.diff(seg) >= 0.0)
    # observation right after an own sale shows rank 1
    after = np.searchsorted(run.observe_times, own_sales[0])
    if after < run.observe_times.size:
        next_other = run.event_times[(run.event_times > own_sales[0])
                                     & (run.event_items != 0)]
        if next_other.size and run.observe_times[after] < next_other[0]:
            assert traj[after] == 1.0


def test_tracked_item_starts_at_rank_one_as_if_just_sold():
    # the tracked item starts ahead of every other item, which keep their
    # index order; its start is no sale of the run, so the events and the
    # sale bookkeeping are those of the same run untracked
    k = 123
    cfg = SimulationConfig(rates=discrete_rates(300, 0.05, 0.8), horizon=30.0, seed=11,
                           observe_times=np.r_[0.0, np.linspace(0.5, 30.0, 15)],
                           track_item=k)
    run, taken = with_rankings(cfg)
    assert run.event_times[0] > 0.0
    assert run.tracked_trajectory.ranks[0] == 1.0
    want = np.r_[np.arange(2, k + 2), 1, np.arange(k + 2, 301)]
    np.testing.assert_array_equal(taken[0][1], want)
    untracked = run_simulation(dataclasses.replace(cfg, track_item=None))
    np.testing.assert_array_equal(run.event_times, untracked.event_times)
    np.testing.assert_array_equal(run.event_items, untracked.event_items)
    np.testing.assert_array_equal(run.boundary_counts, untracked.boundary_counts)
    for got, want in zip(sale_times(run), sale_times(untracked), strict=True):
        np.testing.assert_array_equal(got, want)
    assert run.boundary_counts[0] == 0


def test_capacity_error():
    cfg = SimulationConfig(rates=np.full(100, 10.0), horizon=1e6, seed=0,
                           max_events=1e6)
    with pytest.raises(CapacityError):
        run_simulation(cfg)


def test_boundary_converges_to_limit_curve():
    a, b = LOW_A, LOW_B
    d = SalesRateDistribution.pareto(a, b)
    obs = np.linspace(4.0, 200.0, 25)
    for n in (10 ** 3, 10 ** 4):
        cfg = SimulationConfig(rates=discrete_rates(n, a, b), horizon=200.0,
                               seed=5, observe_times=obs)
        run = run_simulation(cfg)
        dev = np.abs(run.y_c_boundary() - y_c(d, obs))
        assert dev.max() <= 3.0 / math.sqrt(n)
        assert dev.max() * math.sqrt(n) <= 5.0


def test_joint_measure_rank_marginal_is_uniform():
    run, taken = small_run(horizon=50.0, observe_times=np.array([40.0]), track_item=None)
    y_edges = np.linspace(0.0, 1.0, 6)
    h, _, _ = empirical_joint_measure(run.config.rates, taken[0][1], y_edges,
                                      np.array([0.0, np.inf]))
    np.testing.assert_allclose(h.sum(), 1.0)
    np.testing.assert_allclose(h[0], 0.2, atol=2.0 / 300)


def test_joint_measure_product_form_at_time_zero():
    # with a rate-independent initial order (rates shuffled over the
    # identity start) the t = 0 measure factorizes
    n = 2000
    rng = np.random.default_rng(8)
    rates = rng.permutation(discrete_rates(n, 1.0, 1.5))
    cfg = SimulationConfig(rates=rates, horizon=1.0, seed=1,
                           observe_times=np.array([0.0]))
    _, taken = with_rankings(cfg)
    w_edges = np.array([1.0, 2.0, np.inf])
    y_edges = np.array([0.0, 0.5, 1.0])
    h, _, _ = empirical_joint_measure(rates, taken[0][1], y_edges, w_edges)
    w_marg = h.sum(axis=1)
    y_marg = h.sum(axis=0)
    for i in range(2):
        for j in range(2):
            assert h[i, j] == pytest.approx(w_marg[i] * y_marg[j], abs=4.0 / math.sqrt(n))


def test_joint_measure_matches_nonstationary_formula():
    # early snapshot with rate-independent initial ranks (rates shuffled over
    # the identity start): beyond the swept boundary the product-form branch
    # applies
    from rankflow.limit import nonstationary_joint_cdf
    n = 10 ** 5
    d = SalesRateDistribution.pareto(1.0, 1.5)
    t_snap = 0.5
    rng = np.random.default_rng(17)
    cfg = SimulationConfig(rates=rng.permutation(discrete_rates(n, 1.0, 1.5)),
                           horizon=t_snap, seed=31, observe_times=np.array([t_snap]))
    _, taken = with_rankings(cfg)
    ranks = taken[0][1]
    scaled = (ranks - 1.0) / n
    y_probe = 0.9
    assert y_probe > y_c(d, t_snap)
    in_band = (cfg.rates >= 1.0) & (cfg.rates <= 2.0)
    empirical = float(np.mean(in_band & (scaled <= y_probe)))
    predicted = nonstationary_joint_cdf(d, y_probe, 1.0, 2.0, t_snap)
    assert empirical == pytest.approx(predicted, abs=4.0 / math.sqrt(n))


def test_joint_measure_matches_stationary_formula_mid_scale():
    n = 20000
    d = SalesRateDistribution.pareto(1.0, 1.5)
    t_snap = 5.0
    cfg = SimulationConfig(rates=discrete_rates(n, 1.0, 1.5), horizon=t_snap,
                           seed=12, observe_times=np.array([t_snap]))
    _, taken = with_rankings(cfg)
    w_bins = np.array([1.0, 2.0, np.inf])
    y_bins = np.array([0.0, 0.3, 0.7])
    h, _, _ = empirical_joint_measure(cfg.rates, taken[0][1], y_bins, w_bins)
    for i in range(2):
        for j in range(2):
            hi = stationary_joint_cdf(d, y_bins[j + 1], w_bins[i], w_bins[i + 1])
            lo = stationary_joint_cdf(d, y_bins[j], w_bins[i], w_bins[i + 1]) \
                if y_bins[j] > 0.0 else 0.0
            assert h[i, j] == pytest.approx(hi - lo, abs=4.0 / math.sqrt(n))


def test_synthesize_noiseless_is_exact_curve():
    d = SalesRateDistribution.pareto(LOW_A, LOW_B)
    ts = np.linspace(10.0, 1900.0, 20)
    traj = synthesize_noisy_trajectory(d, 857000, ts, 0.0, seed=0)
    np.testing.assert_allclose(traj.ranks, 857000 * y_c(d, ts), rtol=1e-12)


def test_synthesize_noise_scale_and_seed_variation():
    d = SalesRateDistribution.pareto(LOW_A, LOW_B)
    ts = np.linspace(10.0, 1900.0, 77)
    sigma = math.sqrt(1.599e10 / 77)
    t1 = synthesize_noisy_trajectory(d, 857000, ts, sigma, seed=1)
    t2 = synthesize_noisy_trajectory(d, 857000, ts, sigma, seed=2)
    assert not np.array_equal(t1.ranks, t2.ranks)
    resid = t1.ranks - 857000 * y_c(d, ts)
    assert sigma / 3.0 <= resid.std() <= sigma * 3.0
    with pytest.raises(ValueError):
        synthesize_noisy_trajectory(d, 100, ts, -1.0, seed=0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_synthesize_rejects_a_noise_sigma_that_is_not_finite(sigma):
    # NaN used to give the noise-free curve labelled sigma=nan, and inf to
    # clip every rank to 1 or N
    d = SalesRateDistribution.pareto(LOW_A, LOW_B)
    with pytest.raises(ValueError, match="noise_sigma must be finite"):
        synthesize_noisy_trajectory(d, 100, np.linspace(10.0, 100.0, 5), sigma, seed=0)


def test_event_and_snapshot_csv_readers(tmp_path):
    ev = tmp_path / "events.csv"
    ev.write_text("t,item\n0.5,3\n1.25,0\n")
    times, items = load_events_csv(ev)
    np.testing.assert_allclose(times, [0.5, 1.25])
    np.testing.assert_array_equal(items, [3, 0])
    snap = tmp_path / "snap.csv"
    snap.write_text("item,w,rank\n0,1.5,2\n1,0.7,1\n")
    items, rates, ranks = load_snapshot_csv(snap)
    np.testing.assert_array_equal(ranks, [2, 1])
    bad = tmp_path / "bad.csv"
    bad.write_text("t,item\nxx,0\n")
    with pytest.raises(ValueError, match=":2"):
        load_events_csv(bad)


def test_csv_readers_reject_non_finite_numbers(tmp_path):
    ev = tmp_path / "events.csv"
    ev.write_text("t,item\n0.5,3\nnan,0\n")
    with pytest.raises(ValueError, match=r"events\.csv:3: .*finite"):
        load_events_csv(ev)
    snap = tmp_path / "snap.csv"
    snap.write_text("item,w,rank\n0,inf,2\n1,0.7,1\n")
    with pytest.raises(ValueError, match=r"snap\.csv:2: .*finite"):
        load_snapshot_csv(snap)


def _implied_weights(accept, alias):
    """Probability mass each item receives from an alias table, times N."""
    return accept + np.bincount(alias, 1.0 - accept, minlength=accept.size)


@pytest.mark.parametrize("n", [7, 1000, 10**6])
@pytest.mark.parametrize("b, gamma", [(LOW_B, 0.0), (1.2, 0.0), (LOW_B, 0.1)])
def test_alias_table_reproduces_weights(n, b, gamma):
    w = discrete_rates(n, LOW_A, b, gamma)
    accept, alias = _build_alias(w)
    assert np.all((accept >= 0.0) & (accept <= 1.0))
    assert np.all((alias >= 0) & (alias < n))
    scaled = w * (n / w.sum())
    np.testing.assert_allclose(_implied_weights(accept, alias), scaled, rtol=1e-7)


@pytest.mark.parametrize("w", [np.full(9, 2.5), np.array([3.0]),
                               np.r_[np.ones(500), 1e9, np.ones(500)],
                               np.r_[1e9, np.ones(1000)], np.array([1.0, 2.0, 3.0]),
                               np.array([1.0, 1.0, 3.0, 3.0])],
                         ids=["equal", "single", "dominant-mid", "dominant-first",
                              "unit-weight", "excess-ties-deficit"])
def test_alias_table_edge_cases(w):
    accept, alias = _build_alias(w)
    assert np.all((accept >= 0.0) & (accept <= 1.0))
    np.testing.assert_allclose(_implied_weights(accept, alias), w * (w.size / w.sum()),
                               rtol=1e-7)


def test_alias_table_with_tied_integer_weights():
    # small integer weights make scaled weights of exactly 1 and exact ties
    # between running deficits and excesses
    rng = np.random.default_rng(5)
    for n in range(2, 40):
        w = rng.integers(1, 5, size=n).astype(float)
        accept, alias = _build_alias(w)
        np.testing.assert_allclose(_implied_weights(accept, alias), w * (n / w.sum()),
                                   rtol=1e-9)


def _alias_by_loop(scaled):
    """Vose's pairing one item at a time: each small item, in index order,
    borrows from the current large item, and a large item whose excess runs
    out (to zero included) becomes small and borrows from the next one."""
    accept, alias = np.minimum(scaled, 1.0), np.arange(scaled.size)
    small, large = np.flatnonzero(scaled < 1.0), np.flatnonzero(scaled > 1.0)
    k, left = 0, scaled[large[0]] - 1.0 if large.size else 0.0
    for i in small:
        alias[i] = large[k]
        left -= 1.0 - scaled[i]
        while left <= 0.0 and k + 1 < large.size:
            accept[large[k]], alias[large[k]] = 1.0 + left, large[k + 1]
            k += 1
            left += scaled[large[k]] - 1.0
    return accept, alias


def test_alias_table_with_exact_ties_between_deficits_and_excesses():
    # weights 1 -+ d in eighths sum to N, so every running sum is exact and
    # running deficits often equal running excesses; the table must be the
    # one-item-at-a-time pairing's, number for number
    accept, alias = _build_alias(np.array([0.5, 1.5, 0.5, 1.5]))
    assert accept.tolist() == [0.5, 1.0, 0.5, 1.0] and alias.tolist() == [1, 3, 3, 3]
    rng = np.random.default_rng(9)
    for n in range(2, 60):
        d = rng.integers(0, 8, n // 2) / 8.0
        w = rng.permutation(np.r_[1.0 - d, 1.0 + d, [1.0] * (n % 2)])
        want = _alias_by_loop(w)
        got = _build_alias(w)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def test_alias_table_rounding_tail_keeps_itself():
    # the scaled deficits of items 3..5 sum past the excesses of items 0..2 by
    # rounding alone, so item 5 is left past the last large item: the build
    # keeps it as its own alias, where the one-at-a-time loop would lend it to
    # item 2; both tables give every item its scaled weight to rounding
    w = np.array([1.0, 1.0, 1.0, 0.9999999999999993, 0.9999999999999993,
                  0.9999999999999996])
    accept, alias = _build_alias(w)
    assert alias.tolist() == [1, 2, 2, 0, 2, 5]
    assert _alias_by_loop(w * (w.size / w.sum()))[1].tolist() == [1, 2, 2, 0, 2, 2]
    np.testing.assert_allclose(_implied_weights(accept, alias), w * (w.size / w.sum()),
                               rtol=0.0, atol=np.finfo(float).eps)


def _ranks_by_argsort(last_seq, track_item):
    """Move-to-front order as one argsort: sold items by latest sale, then a
    tracked item that has not sold, then the never-sold in index order."""
    key = np.where(last_seq >= 0, -1 - last_seq, np.arange(1, last_seq.size + 1))
    if track_item is not None and last_seq[track_item] < 0:
        key[track_item] = 0
    ranks = np.empty(key.size, dtype=np.int64)
    ranks[np.argsort(key)] = np.arange(1, key.size + 1)
    return ranks


def _state_with_sales(n, sold, rng, track_item=None):
    cfg = SimulationConfig(rates=np.ones(n), horizon=1.0, seed=0, track_item=track_item)
    state = sim_module._State(cfg, None)
    state.last_seq = np.where(rng.random(n) < sold, rng.permutation(3 * n)[:n],
                              state.last_seq)
    return state


@pytest.mark.parametrize("n", [1, 2, 7, 500])
@pytest.mark.parametrize("sold", [0.0, 0.01, 0.5, 1.0], ids=["none", "few", "half", "all"])
@pytest.mark.parametrize("tracked", [None, "first", "middle", "last"],
                         ids=["identity", "tracked-first", "tracked-middle", "tracked-last"])
def test_all_ranks_match_an_argsort_reference(n, sold, tracked):
    rng = np.random.default_rng(n)
    track_item = {None: None, "first": 0, "middle": n // 2, "last": n - 1}[tracked]
    for _ in range(5):
        state = _state_with_sales(n, sold, rng, track_item)
        np.testing.assert_array_equal(state._all_ranks(),
                                      _ranks_by_argsort(state.last_seq, track_item))


def test_identity_ranking_working_set():
    # the identity order is never built, and the never-sold items are counted
    # in the returned array itself: beside it, at most N bytes (here only
    # the S-sized arrays of the sold items, about 1% of N)
    n = 200_000
    state = _state_with_sales(n, 0.01, np.random.default_rng(4))
    tracemalloc.start()
    try:
        ranks = state._all_ranks()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(ranks, _ranks_by_argsort(state.last_seq, None))
    assert peak <= ranks.nbytes + n


def test_default_config_builds_no_order():
    # no start order is built, for a tracked item either; validating the
    # rates takes byte masks only, less than one int64 per item
    rates = np.ones(10 ** 6)
    for track_item in (None, rates.size - 1):
        tracemalloc.start()
        try:
            SimulationConfig(rates=rates, horizon=1.0, seed=0, track_item=track_item)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * rates.size


def test_draw_chunk_working_set():
    # a full chunk holds two chunk-sized arrays, its gaps and its slots (the
    # items are written over the slots); the coins and the alias reads are
    # _SUB events at a time
    rates = discrete_rates(10 ** 5, LOW_A, LOW_B)
    accept, alias = _build_alias(rates)
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        times, items = sim_module._draw_chunk(rng, float(rates.sum()), 0.0, math.inf,
                                              accept, alias)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert times.size == items.size == sim_module._CHUNK
    assert peak <= 2 * 8 * sim_module._CHUNK + 2 ** 20


def test_apply_working_set():
    # a full chunk's sales are applied _SUB at a time, so no chunk-sized
    # array of sequence numbers (4 MiB at _CHUNK = 2**19) is built
    n = 10 ** 5
    state = sim_module._State(SimulationConfig(rates=np.ones(n), horizon=1.0, seed=0), None)
    items = np.random.default_rng(6).integers(0, n, sim_module._CHUNK)
    seq0 = 7 * sim_module._CHUNK
    state.apply(items[:10], 0)  # warm
    tracemalloc.start()
    try:
        state.apply(items, seq0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    want = np.full(n, sim_module._NEVER, dtype=np.int64)
    np.maximum.at(want, items, np.arange(seq0, seq0 + items.size))
    np.testing.assert_array_equal(state.last_seq, want)


def test_sink_streams_the_recorded_events():
    chunks = []
    cfg = dict(rates=discrete_rates(2000, 1.0, 0.8), horizon=15.0, seed=4,
               observe_times=np.array([5.0, 15.0]), track_item=3)
    streamed = run_simulation(SimulationConfig(**cfg),
                              sink=lambda t, i: chunks.append((t.copy(), i.copy())))
    recorded = run_simulation(SimulationConfig(**cfg))
    assert len(chunks) > 1
    assert streamed.event_times.size == streamed.event_items.size == 0
    np.testing.assert_array_equal(np.concatenate([t for t, _ in chunks]),
                                  recorded.event_times)
    np.testing.assert_array_equal(np.concatenate([i for _, i in chunks]),
                                  recorded.event_items)
    np.testing.assert_array_equal(streamed.tracked_trajectory.ranks,
                                  recorded.tracked_trajectory.ranks)
    # a run without events, and without a sink, keeps two empty typed arrays
    quiet = run_simulation(SimulationConfig(rates=[1e-9], horizon=1e-9, seed=0))
    assert quiet.total_events == 0
    assert quiet.event_times.dtype == np.float64 and quiet.event_times.size == 0
    assert quiet.event_items.dtype == np.int64 and quiet.event_items.size == 0


def test_snapshot_sink_receives_the_rankings_instead_of_the_run(monkeypatch):
    # a ranking is taken at every observation time, in order and repeated or
    # near-equal times included, if and only if the run is given a sink
    taken = []
    cfg = SimulationConfig(rates=discrete_rates(300, 0.05, 0.8), horizon=30.0, seed=11,
                           observe_times=[0.0, 1.0, 1.0, 1.0 + 1e-13, 2.0, 30.0])
    streamed = run_simulation(cfg, snapshot_sink=lambda theta, ranks:
                              taken.append((theta, ranks)))
    assert [theta for theta, _ in taken] == cfg.observe_times.tolist()
    assert taken[1][1] is not taken[2][1]
    np.testing.assert_array_equal(taken[1][1], taken[2][1])

    def no_ranking(self):
        raise AssertionError("a run without a snapshot sink took a ranking")

    monkeypatch.setattr(sim_module._State, "_all_ranks", no_ranking)
    plain = run_simulation(cfg)
    np.testing.assert_array_equal(plain.event_times, streamed.event_times)
    np.testing.assert_array_equal(sale_times(plain)[0], sale_times(streamed)[0])
    np.testing.assert_array_equal(plain.boundary_counts, streamed.boundary_counts)


def sha256_of(*arrays):
    """Digest of the arrays' dtypes and raw bytes."""
    h = hashlib.sha256()
    for x in arrays:
        h.update(x.dtype.str.encode())
        h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()


# Golden bytes, taken from the simulator before its arithmetic was made
# in-place. numpy's float64 power is a vectorized kernel on x86-64 CPUs with
# AVX-512 and glibc's pow elsewhere; the two differ in the last bit of some
# rates, so each law pins (rates, alias table) digests for both. Other
# platforms may round the power differently again.
x86_64_linux = pytest.mark.skipif(
    not (sys.platform == "linux" and platform.machine() == "x86_64"),
    reason="golden bytes are those of numpy on x86-64 Linux")

GOLDEN_RATES_AND_ALIAS = {
    (1000, LOW_A, LOW_B, 0.0): {
        ("fd4dd6d77a4d963716d2485a29201c435499f161cbcb1db1cf5d694b760b2564",
         "01fdf9db7ee7f27768a1b320c48b6d659232dd95f8465eaa930acbca782bcc38"),
        ("827cd1016cb26d3a35e0a7072487ca6b8779cd9f93f40fa6d53f8ae5e0460e97",
         "b1192e26a045163f5ea686dbee90a85fead3019cb7a49afe9be61c6e7e130cbc")},
    (1000, LOW_A, 1.2, 0.0): {
        ("38c0389697186b4b0d5e6a6f12065889e2ab25bbbefd6d498309db304b1131f7",
         "3589ad1e668393a9dd3fe41c2534fd1007419c5ed349ace8467c19729cb4445d"),
        ("7e1f5661f40a1b5ada2f9e7edf51d337b454b2ea973279097d97fb9d65bcb9ec",
         "1667c4ef96ea72d021c0c59d8e89797fd87603ea719aefa2223afc828ba4fd77")},
    (777, LOW_A, LOW_B, 0.1): {
        ("77d3b01303471e306dde02e54b552888d4d3675cedd085cfe2142b759d8746f3",
         "c5613014a150c4bad34bde3fc6da832f6b6a2fdf3c7310e31cd10481440b2292"),
        ("79b0503640ae91c498cf796c9941274b797fcc46d04f9319df01f0a241b7886a",
         "79ccebadd3f9b614310bb342651b5f5d597f2f0b1e23d0e3fa30b4ff2e123510")},
    (10**5, 1.0, 0.8, 0.0): {
        ("ac4f09c3df946290413d7ff1bbbd6b2b7f1db265fdd4c09f28b8322e3b769c7c",
         "b680050292515b5f79c23c876da104685845e6038aac5cdb845159db1998061f"),
        ("5c73b5aa43c9c16e3aec77adbe3c0144840e0b56635946685766b5fb53efa747",
         "8090d4d60a0212a61a787b31a5ac289b3397be7bb3a9285a67b784a088b2cbaa")},
    (4096, 2.5, 1.999, 3.0): {
        ("d6838df69c464f8daa59d260dacfcd5fd1b0e4ce5b34d6dcab6edec8db8a36f4",
         "caa0f91501edb50868cb82ce41672dc5a0a6acf76a27355d01c4278ef8c997e4"),
        ("47c5b0458160e456cfb64643ca750cbe9b52e0ece21f274ccc10dbecebcc5b51",
         "11809297f389d68afaf6a8220ba897d9654d1b27cf6d6d67bdc17c27d0ea367e")},
}


@x86_64_linux
@pytest.mark.parametrize("law", GOLDEN_RATES_AND_ALIAS)
def test_rates_and_alias_table_match_golden_bytes(law):
    w = discrete_rates(*law)
    assert (sha256_of(w), sha256_of(*_build_alias(w))) in GOLDEN_RATES_AND_ALIAS[law]


@x86_64_linux
def test_sale_times_match_golden_bytes():
    cfg = SimulationConfig(rates=discrete_rates(2000, 1.0, 0.8, 0.05), horizon=150.0,
                           seed=9, observe_times=np.array([10.0, 150.0]))
    run = run_simulation(cfg)
    assert run.total_events == 1433052
    assert sha256_of(*sale_times(run)) == (
        "beb9f86e2d7c4742230f9f9e9c1d64045e7d17e1636e03794d5d7b05a2a56282")


def _full_chunk_events(cfg, chunk):
    """Reference event stream: every chunk draws all its gaps, slots and
    coins, and the events past the horizon are cut off afterwards."""
    rng = np.random.default_rng(cfg.seed)
    accept, alias = _build_alias(cfg.rates)
    n, total = cfg.n_items, float(cfg.rates.sum())
    t_cursor, times, items = 0.0, [], []
    while True:
        t = t_cursor + np.cumsum(rng.exponential(1.0 / total, chunk))
        j = np.minimum((rng.random(chunk) * n).astype(np.int64), n - 1)
        coin = rng.random(chunk)
        k = int(np.searchsorted(t, cfg.horizon, side="right"))
        times.append(t[:k])
        items.append(np.where(coin < accept[j], j, alias[j])[:k])
        if k < chunk:
            return np.concatenate(times), np.concatenate(items)
        t_cursor = float(t[-1])


@pytest.mark.parametrize("end", ["first chunk", "chunk boundary", "later chunk"])
def test_trimmed_final_chunk_matches_full_chunk_draws(monkeypatch, end):
    # the final chunk draws only the slots and coins of its events before the
    # horizon and skips the rest; every kept draw must be the full chunk's,
    # whether a chunk's coins come in one sub-block or in several
    chunk = 256
    monkeypatch.setattr(sim_module, "_CHUNK", chunk)
    rates = np.geomspace(0.01, 1.0, 50)  # uneven, so most coins decide an item
    long_times, _ = _full_chunk_events(
        SimulationConfig(rates=rates, horizon=1e4, seed=21), chunk)
    horizon = {"first chunk": float(long_times[chunk // 2]),
               "chunk boundary": float(long_times[chunk - 1]),
               "later chunk": float(long_times[3 * chunk + 100])}[end]
    cfg = SimulationConfig(rates=rates, horizon=horizon, seed=21)
    times, items = _full_chunk_events(cfg, chunk)
    # sub-blocks of 48 split every chunk into 5 1/3, and each final chunk
    # (129, 256 and 101 events) ends partway through one
    for sub in (sim_module._SUB, 48):
        monkeypatch.setattr(sim_module, "_SUB", sub)
        run = run_simulation(cfg)
        if end == "chunk boundary":  # a full chunk, then an empty one
            assert run.total_events == chunk
        assert run.total_events == times.size
        np.testing.assert_array_equal(run.event_times, times)
        np.testing.assert_array_equal(run.event_items, items)


def test_final_observations_run_without_the_alias_table(monkeypatch):
    # no draw follows the final chunk, so its observations (for a 10^6-item
    # run with one snapshot at the horizon, the run's peak) see the table freed
    monkeypatch.setattr(sim_module, "_CHUNK", 256)
    tables, build = [], sim_module._build_alias

    def build_and_watch(weights):
        accept, alias = build(weights)
        tables.append(weakref.ref(accept))
        return accept, alias

    monkeypatch.setattr(sim_module, "_build_alias", build_and_watch)
    alive = []
    cfg = SimulationConfig(rates=np.geomspace(0.01, 1.0, 50), horizon=40.0, seed=21,
                           observe_times=[1.0, 40.0])
    run = run_simulation(cfg, snapshot_sink=lambda theta, ranks:
                         alive.append(tables[0]() is not None))
    assert run.total_events > 256
    assert alive == [True, False]


def test_small_run_memory_floor():
    # the final chunk holds only its events' slots and coins, and the chunk
    # before it is dropped first; what is left is the 4 MB buffer of gaps
    cfg = SimulationConfig(rates=discrete_rates(20000, 5e-4, 0.8), horizon=40.0, seed=0,
                           observe_times=np.array([40.0]))
    run_simulation(cfg, snapshot_sink=lambda t, r: None)  # warm
    tracemalloc.start()
    try:
        run = run_simulation(cfg, snapshot_sink=lambda t, r: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 15000 < run.total_events < 25000
    assert peak < 8 * 2 ** 20


def test_whole_run_memory_bound():
    # at N = 10^6 the per-item arrays set the peak: the alias table and its
    # build (a byte mask and one int64 per small item), then the latest sale
    # numbers and the ranking; no per-item sale times are kept
    n = 10 ** 6
    cfg = SimulationConfig(rates=discrete_rates(n, LOW_A, LOW_B), horizon=0.01, seed=1,
                           observe_times=np.array([0.01]))
    drop = lambda *args: None
    tracemalloc.start()
    try:
        run_simulation(cfg, sink=drop, snapshot_sink=drop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * n


def _replay_move_to_front(run):
    """Plain-list move-to-front replay of the event log: boundary counts and
    rank vectors at each observation, and first/last sale times."""
    cfg = run.config
    queue = list(range(cfg.n_items))
    if cfg.track_item is not None:  # it starts at the front, as if just sold
        queue.insert(0, queue.pop(cfg.track_item))
    first = np.full(cfg.n_items, np.inf)
    last = np.full(cfg.n_items, np.nan)
    pending = cfg.observe_times.tolist()[::-1]
    boundary, snapshots = [], []

    def observe_before(t):
        while pending and pending[-1] < t:
            pending.pop()
            ranks = np.empty(cfg.n_items, dtype=np.int64)
            ranks[queue] = np.arange(1, cfg.n_items + 1)
            snapshots.append(ranks)
            boundary.append(int(np.isfinite(first).sum()))

    for t, item in zip(run.event_times.tolist(), run.event_items.tolist()):
        observe_before(t)
        queue.remove(item)
        queue.insert(0, item)
        first[item] = min(first[item], t)
        last[item] = t
    observe_before(math.inf)
    return np.array(boundary), snapshots, first, last


@pytest.mark.parametrize("chunk", [97, None])
def test_bookkeeping_matches_move_to_front_replay(monkeypatch, chunk):
    # few items, so every block repeats items many times; a small chunk puts
    # many chunk boundaries between observations, and observations fall
    # between events inside chunks
    if chunk is not None:
        monkeypatch.setattr(sim_module, "_CHUNK", chunk)
    rng = np.random.default_rng(5)
    rates = np.concatenate((np.geomspace(0.02, 4.0, 13), [1e-9]))  # the last never sells
    observe = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 800.0, 60)), [800.0]))
    observe = np.sort(np.r_[observe, observe[[0, 30, 30, -1]]])  # repeated times too
    untracked = SimulationConfig(rates=rates, horizon=800.0, seed=3, observe_times=observe)
    # the tracked run starts item 6 at the front and must not repeat times
    tracked = dataclasses.replace(untracked, observe_times=np.unique(observe), track_item=6)
    for cfg in (untracked, tracked):
        run, taken = with_rankings(cfg)
        assert run.total_events > 20 * (chunk or 1)
        boundary, snapshots, first, last = _replay_move_to_front(run)
        np.testing.assert_array_equal(run.boundary_counts, boundary)
        assert [t for t, _ in taken] == cfg.observe_times.tolist()
        for (_, ranks), want in zip(taken, snapshots, strict=True):
            np.testing.assert_array_equal(ranks, want)
        for got, want in zip(sale_times(run), (first, last), strict=True):
            np.testing.assert_array_equal(got, want)
        assert boundary[0] == 0 and math.isinf(first[-1])
    np.testing.assert_array_equal(run.tracked_trajectory.ranks,
                                  [float(ranks[6]) for _, ranks in taken])
    assert run.tracked_trajectory.ranks[0] == 1.0


@pytest.mark.parametrize("bad", [{"rates": np.array([1.0, math.inf])},
                                 {"horizon": math.inf},
                                 {"observe_times": np.array([0.5, math.nan])}])
def test_config_rejects_non_finite_inputs(bad):
    kwargs = dict(rates=np.array([1.0, 2.0]), horizon=1.0, seed=0)
    with pytest.raises(ValueError, match="finite"):
        SimulationConfig(**{**kwargs, **bad})


@pytest.mark.parametrize("shape", [(1, 2), (2, 1), ()], ids=["1x2", "2x1", "scalar"])
def test_config_rejects_observe_times_that_are_not_1d(shape):
    # (1, 2) used to raise numpy's "truth value ... is ambiguous", and
    # (2, 1) a TypeError
    times = np.linspace(0.25, 0.5, 2).reshape(shape) if shape else np.float64(0.5)
    with pytest.raises(ValueError, match="observe_times must be a 1-d array"):
        SimulationConfig(rates=np.array([1.0, 2.0]), horizon=1.0, seed=0,
                         observe_times=times)


def test_config_rejects_repeated_times_with_a_tracked_item():
    # the tracked trajectory needs strictly increasing times; this used to
    # fail only after the whole run
    kwargs = dict(rates=discrete_rates(300, 1.0, 0.8), horizon=2.0, seed=0,
                  observe_times=[1.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="repeat"):
        SimulationConfig(**kwargs, track_item=3)
    assert SimulationConfig(**kwargs).observe_times.size == 3  # snapshots may repeat


@pytest.mark.parametrize("seed", [-1, 1.5, "1", None, True])
def test_config_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="seed"):
        SimulationConfig(rates=np.array([1.0, 2.0]), horizon=1.0, seed=seed)


@pytest.mark.parametrize("track_item", [1.5, True, "1", np.float64(1.0)])
def test_config_rejects_a_track_item_that_is_not_an_integer(track_item):
    # rejected before the run, not at its first observation inside numpy
    with pytest.raises(ValueError, match="track_item must be an integer"):
        SimulationConfig(rates=np.array([1.0, 2.0]), horizon=1.0, seed=0,
                         observe_times=[0.5, 1.0], track_item=track_item)
    assert SimulationConfig(rates=np.array([1.0, 2.0]), horizon=1.0, seed=0,
                            track_item=np.int64(1)).track_item == 1
