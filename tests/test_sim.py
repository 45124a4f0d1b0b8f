"""Finite-N simulator: exactness of the dynamics and convergence to the limit."""

import hashlib
import math
import platform
import sys

import numpy as np
import pytest

import rankflow.sim as sim_module
from rankflow.dist import SalesRateDistribution, discrete_rates
from rankflow.limit import stationary_joint_cdf, y_c
from rankflow.sim import (
    CapacityError,
    _build_alias,
    MissingSnapshotError,
    SimulationConfig,
    empirical_joint_measure,
    load_events_csv,
    load_snapshot_csv,
    run_simulation,
    synthesize_noisy_trajectory,
    x_c_trajectory,
)

LOW_A, LOW_B = 3.939e-4, 0.6312


def small_run(**overrides):
    kwargs = dict(rates=discrete_rates(300, 0.05, 0.8), horizon=30.0, seed=11,
                  observe_times=np.linspace(0.0, 30.0, 16), track_item=123,
                  record_snapshots=True)
    kwargs.update(overrides)
    return run_simulation(SimulationConfig(**kwargs))


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
    run = small_run()
    for ranks in run.snapshots.values():
        assert np.array_equal(np.sort(ranks), np.arange(1, run.n_items + 1))


def test_boundary_separates_sold_from_never_sold():
    run = small_run()
    for theta, count in zip(run.observe_times, run.boundary_counts):
        ranks = run.snapshot_at(theta)
        sold = run.first_sale <= theta
        assert int(sold.sum()) == count
        if sold.any():
            assert ranks[sold].max() == count
        if (~sold).any():
            assert ranks[~sold].min() == count + 1


def test_tracked_rank_agrees_with_snapshots():
    run = small_run()
    from_snapshots = [float(run.snapshot_at(t)[123]) for t in run.observe_times]
    np.testing.assert_allclose(run.tracked_trajectory.ranks, from_snapshots)


def test_tracked_rank_resets_and_climbs():
    run = small_run(track_item=0, horizon=60.0,
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


def test_initial_order_respected_before_any_sale():
    order = np.array([3, 1, 2], dtype=np.int64)
    cfg = SimulationConfig(rates=np.array([1e-9, 1e-9, 1e-9]), horizon=1.0,
                           seed=0, observe_times=np.array([0.5]),
                           initial_order=order, record_snapshots=True)
    run = run_simulation(cfg)
    np.testing.assert_array_equal(run.snapshot_at(0.5), order)


def test_capacity_error():
    cfg = SimulationConfig(rates=np.full(100, 10.0), horizon=1e6, seed=0,
                           max_events=1e6)
    with pytest.raises(CapacityError):
        run_simulation(cfg)


def test_x_c_trajectory_fallbacks():
    run = small_run()
    other = x_c_trajectory(run, 5)
    assert other.n_d == run.observe_times.size
    no_snap = small_run(record_snapshots=False, track_item=None)
    with pytest.raises(ValueError):
        x_c_trajectory(no_snap, 5)
    with pytest.raises(IndexError):
        x_c_trajectory(run, 10 ** 9)


def test_missing_snapshot_error():
    run = small_run()
    with pytest.raises(MissingSnapshotError):
        run.snapshot_at(123.456)


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
    run = small_run(horizon=50.0, observe_times=np.array([40.0]), track_item=None)
    y_edges = np.linspace(0.0, 1.0, 6)
    h, _, _ = empirical_joint_measure(run, 40.0, y_edges, np.array([0.0, np.inf]))
    np.testing.assert_allclose(h.sum(), 1.0)
    np.testing.assert_allclose(h[0], 0.2, atol=2.0 / 300)


def test_joint_measure_product_form_at_time_zero():
    # with a rate-independent initial order the t = 0 measure factorizes
    n = 2000
    rng = np.random.default_rng(8)
    rates = discrete_rates(n, 1.0, 1.5)
    order = rng.permutation(n).astype(np.int64) + 1
    cfg = SimulationConfig(rates=rates, horizon=1.0, seed=1,
                           observe_times=np.array([0.0]), initial_order=order,
                           record_snapshots=True)
    run = run_simulation(cfg)
    w_edges = np.array([1.0, 2.0, np.inf])
    y_edges = np.array([0.0, 0.5, 1.0])
    h, _, _ = empirical_joint_measure(run, 0.0, y_edges, w_edges)
    w_marg = h.sum(axis=1)
    y_marg = h.sum(axis=0)
    for i in range(2):
        for j in range(2):
            assert h[i, j] == pytest.approx(w_marg[i] * y_marg[j], abs=4.0 / math.sqrt(n))


def test_joint_measure_matches_nonstationary_formula():
    # early snapshot with rate-independent initial ranks: beyond the swept
    # boundary the product-form branch applies
    from rankflow.limit import nonstationary_joint_cdf
    n = 10 ** 5
    d = SalesRateDistribution.pareto(1.0, 1.5)
    t_snap = 0.5
    rng = np.random.default_rng(17)
    order = rng.permutation(n).astype(np.int64) + 1
    cfg = SimulationConfig(rates=discrete_rates(n, 1.0, 1.5), horizon=t_snap,
                           seed=31, observe_times=np.array([t_snap]),
                           initial_order=order, record_snapshots=True)
    run = run_simulation(cfg)
    ranks = run.snapshot_at(t_snap)
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
                           seed=12, observe_times=np.array([t_snap]),
                           record_snapshots=True)
    run = run_simulation(cfg)
    w_bins = np.array([1.0, 2.0, np.inf])
    y_bins = np.array([0.0, 0.3, 0.7])
    h, _, _ = empirical_joint_measure(run, t_snap, y_bins, w_bins)
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


def test_snapshot_sink_receives_the_rankings_instead_of_the_run():
    taken = []
    cfg = SimulationConfig(rates=discrete_rates(300, 0.05, 0.8), horizon=30.0, seed=11,
                           observe_times=np.linspace(0.0, 30.0, 16), record_snapshots=True)
    streamed = run_simulation(cfg, snapshot_sink=lambda theta, ranks:
                              taken.append((theta, ranks)))
    recorded = run_simulation(cfg)
    assert streamed.snapshots == {} and len(taken) == recorded.observe_times.size
    for (theta, ranks), want in zip(taken, recorded.observe_times):
        assert theta == want
        np.testing.assert_array_equal(ranks, recorded.snapshot_at(want))
    np.testing.assert_array_equal(streamed.first_sale, recorded.first_sale)


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
    assert sha256_of(run.first_sale, run.last_sale) == (
        "beb9f86e2d7c4742230f9f9e9c1d64045e7d17e1636e03794d5d7b05a2a56282")


def _replay_move_to_front(run):
    """Plain-list move-to-front replay of the event log: boundary counts and
    rank vectors at each observation, and first/last sale times."""
    cfg = run.config
    queue = [int(i) for i in np.argsort(cfg.initial_order)]
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
    cfg = SimulationConfig(rates=rates, horizon=800.0, seed=3,
                           initial_order=rng.permutation(rates.size) + 1,
                           observe_times=observe, track_item=0, record_snapshots=True)
    run = run_simulation(cfg)
    assert run.total_events > 20 * (chunk or 1)
    boundary, snapshots, first, last = _replay_move_to_front(run)
    np.testing.assert_array_equal(run.boundary_counts, boundary)
    for theta, ranks in zip(run.observe_times, snapshots):
        np.testing.assert_array_equal(run.snapshot_at(theta), ranks)
    np.testing.assert_array_equal(run.tracked_trajectory.ranks,
                                  [float(r[0]) for r in snapshots])
    np.testing.assert_array_equal(run.first_sale, first)
    np.testing.assert_array_equal(run.last_sale, last)
    assert boundary[0] == 0 and math.isinf(first[-1])


@pytest.mark.parametrize("bad", [{"rates": np.array([1.0, math.inf])},
                                 {"horizon": math.inf},
                                 {"observe_times": np.array([0.5, math.nan])}])
def test_config_rejects_non_finite_inputs(bad):
    kwargs = dict(rates=np.array([1.0, 2.0]), horizon=1.0, seed=0)
    with pytest.raises(ValueError, match="finite"):
        SimulationConfig(**{**kwargs, **bad})
