"""Acceptance suite: one check per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math

import numpy as np
import pytest

from rankflow.dist import SalesRateDistribution, discrete_rates, laplace_transform
from rankflow.fit import RankingTrajectory, fit_pareto
from rankflow.limit import (
    sales_share_potential,
    sales_share_ranking,
    stationary_joint_cdf,
    y_c,
)
from rankflow.oracle import gamma_quad
from rankflow.sim import (
    SimulationConfig,
    empirical_joint_measure,
    run_simulation,
    synthesize_noisy_trajectory,
)
from rankflow.special import _gamma_upper_grid

LOW_N, LOW_A, LOW_B = 8.57e5, 3.939e-4, 0.6312
SECOND_B = 0.7959


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def test_criterion_1_head_share_values():
    d2 = SalesRateDistribution.pareto(1.0, 2.0)
    head = sales_share_potential(d2, 0.0, 0.2) / sales_share_potential(d2, 0.0, 1.0)
    ok = abs(head - math.sqrt(0.2)) <= 1e-9
    details = [f"b=2 head {head:.10f}"]
    for b, expected in [(1.2, 0.235), (1.15, 0.189)]:
        d = SalesRateDistribution.pareto(1.0, b)
        tail = sales_share_potential(d, 0.2, 1.0) / sales_share_potential(d, 0.0, 1.0)
        ok = ok and abs(tail - expected) <= 5e-3
        details.append(f"b={b} tail {tail:.4f}")
    _verdict(1, "top/tail share values", ok, "; ".join(details))


def test_criterion_2_long_tail_ratio_band():
    rs = np.arange(0.1, 0.9001, 0.05)
    curves = {}
    for b in (1.15, 1.2):
        d = SalesRateDistribution.pareto(1.0, b)
        curves[b] = np.array([sales_share_ranking(d, r, 1.0)
                              / sales_share_potential(d, r, 1.0) for r in rs])
    in_band = all(np.all((c >= 1.30) & (c <= 1.45)) for c in curves.values())
    ordered = bool(np.all(curves[1.15] >= curves[1.2]))
    _verdict(2, "ranking/potential ratio in [1.30, 1.45] with b=1.15 on top",
             in_band and ordered,
             f"range [{min(c.min() for c in curves.values()):.4f}, "
             f"{max(c.max() for c in curves.values()):.4f}]")


def test_criterion_3_great_hits_ratio_shape():
    rs = np.concatenate([[0.01], np.arange(0.05, 0.9001, 0.05)])
    ok = True
    details = []
    for b in (LOW_B, SECOND_B):
        d = SalesRateDistribution.pareto(1.0, b)
        ratios = np.array([sales_share_ranking(d, r, 1.0)
                           / sales_share_potential(d, r, 1.0) for r in rs])
        below_cap = bool(np.all(ratios < 1.6))
        above_one = bool(np.all(ratios > 1.0))
        right_half = ratios[rs >= 0.55]
        shrinking = bool(np.all(np.diff(right_half) < 0.0)) \
            and ratios[-1] == ratios.min()
        ok = ok and below_cap and above_one and shrinking
        details.append(f"b={b}: max {ratios.max():.4f}, at r=0.9 {ratios[-1]:.4f}")
    _verdict(3, "great-hits ratio below 1.6, above 1, easing towards 1",
             ok, "; ".join(details))


def test_criterion_4_total_share_conservation():
    ok = True
    for b in (1.15, 1.2, 1.5):
        d = SalesRateDistribution.pareto(2.0, b)
        expected = 2.0 * b / (b - 1.0)
        ok = ok and abs(sales_share_ranking(d, 0.0, 1.0) - expected) <= 1e-9
        ok = ok and abs(sales_share_potential(d, 0.0, 1.0) - expected) <= 1e-9
    _verdict(4, "full-catalog shares equal a b/(b-1) on both orderings", ok)


def test_criterion_5_boundary_convergence():
    d = SalesRateDistribution.pareto(LOW_A, LOW_B)
    obs = np.linspace(4.0, 200.0, 50)
    ok = True
    details = []
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        cfg = SimulationConfig(rates=discrete_rates(n, LOW_A, LOW_B),
                               horizon=200.0, seed=2026, observe_times=obs)
        run = run_simulation(cfg, sink=lambda t, i: None)  # 15M events at n = 1e5
        dev = float(np.abs(run.y_c_boundary() - y_c(d, obs)).max())
        scaled = dev * math.sqrt(n)
        if n == 10 ** 5:
            ok = ok and dev <= 3.0 / math.sqrt(n)
        ok = ok and scaled <= 5.0
        details.append(f"N=1e{int(math.log10(n))}: sqrt(N) dev {scaled:.2f}")
    _verdict(5, "simulated boundary tracks the limit curve", ok, "; ".join(details))


def test_criterion_6_noisy_fit_recovery():
    d = SalesRateDistribution.pareto(LOW_A, LOW_B)
    ts = np.linspace(1900.0 / 77, 1900.0, 77)
    sigma = math.sqrt(1.599e10 / 77)
    hits = 0
    chi_ok = 0
    for seed in range(20):
        traj = synthesize_noisy_trajectory(d, int(LOW_N), ts, sigma, seed=seed)
        res = fit_pareto(traj)
        if 0.58 <= res.b_star <= 0.68:
            hits += 1
        if 0.5 <= (res.chi2 / 77) / sigma ** 2 <= 2.0:
            chi_ok += 1
    _verdict(6, "noisy trajectories recover the exponent",
             hits >= 18 and chi_ok >= 18,
             f"b in band {hits}/20, chi2 scale ok {chi_ok}/20")


def test_criterion_7_special_function_identities():
    # on the kernel's orders [-1, 1): the recursion from z in (-1, 0), where
    # z and z + 1 are both kernel orders, one row per point
    rng = np.random.default_rng(7)
    z, p = rng.uniform(-1.0, 0.0, 1200), 10.0 ** rng.uniform(-6, 2, 1200)
    keep = np.abs(z - np.round(z)) >= 1e-3
    z, p = z[keep][:1000], p[keep][:1000]
    lhs = _gamma_upper_grid(z, p[:, None])[:, 0]
    rhs = (_gamma_upper_grid(z + 1.0, p[:, None])[:, 0] - np.exp(z * np.log(p) - p)) / z
    recursion_ok = z.size == 1000 and bool(
        np.all(np.abs(lhs - rhs) <= 1e-9 * np.maximum(np.abs(lhs), np.abs(rhs))))
    ps = np.array([1e-6, 0.1, 1.0, 10.0, 100.0])
    exp_ok = bool(np.all(np.abs(_gamma_upper_grid(1.0, ps) - np.exp(-ps)) <= 1e-12 * np.exp(-ps)))
    quad_ok = True
    for z, p in [(-0.6312, 0.5), (-0.95, 0.01), (0.3688, 0.7484), (-0.2, 3.0)]:
        ref, err = gamma_quad(z, p)
        got = _gamma_upper_grid(z, np.array([p]))[0]
        if abs(got - ref) > max(1e-8 * abs(ref), 3.0 * err):
            quad_ok = False
    _verdict(7, "incomplete gamma identities and quadrature agreement",
             recursion_ok and exp_ok and quad_ok)


def test_criterion_8_stationary_joint_measure():
    n = 10 ** 5
    d = SalesRateDistribution.pareto(1.0, 1.5)
    t_snap = 5.0  # boundary has swept past y = 0.8 by then
    cfg = SimulationConfig(rates=discrete_rates(n, 1.0, 1.5), horizon=t_snap,
                           seed=99, observe_times=np.array([t_snap]))
    taken = []
    run_simulation(cfg, sink=lambda t, i: None,
                   snapshot_sink=lambda t, r: taken.append((t, r)))
    w_bins = np.array([1.0, 2.0 ** (2.0 / 3.0), 4.0 ** (2.0 / 3.0),
                       10.0 ** (2.0 / 3.0), np.inf])
    y_bins = np.array([0.0, 0.2, 0.4, 0.6, 0.8])
    h, _, _ = empirical_joint_measure(cfg.rates, taken[0][1], y_bins, w_bins)
    tol = 4.0 / math.sqrt(n)
    worst = 0.0
    for i in range(4):
        for j in range(4):
            hi = stationary_joint_cdf(d, y_bins[j + 1], w_bins[i], w_bins[i + 1])
            lo = stationary_joint_cdf(d, y_bins[j], w_bins[i], w_bins[i + 1]) \
                if y_bins[j] > 0.0 else 0.0
            worst = max(worst, abs(float(h[i, j]) - (hi - lo)))
    _verdict(8, "empirical joint measure matches the stationary formula",
             worst <= tol, f"worst cell {worst:.5f} vs tol {tol:.5f}")


def test_criterion_9_fit_equivariances():
    fixtures = [
        (LOW_N, LOW_A, LOW_B, 5e3, 1),
        (LOW_N, LOW_A, SECOND_B, 1e4, 2),
        (5e5, 2e-3, 1.4, 2e3, 3),
        (2e5, 1e-3, 0.45, 1e3, 4),
        (8e5, 5e-4, 1.2, 5e3, 5),
    ]
    ok = True
    for n0, a0, b0, sigma, seed in fixtures:
        d = SalesRateDistribution.pareto(a0, b0)
        ts = np.linspace(40.0, 1600.0, 40)
        traj = synthesize_noisy_trajectory(d, int(n0), ts, sigma, seed=seed)
        base = fit_pareto(traj)
        c, u = 3.7, 0.25
        ranked = fit_pareto(RankingTrajectory(traj.times, traj.ranks * c))
        timed = fit_pareto(RankingTrajectory(traj.times * u, traj.ranks))
        ok = ok and abs(ranked.n_star / (c * base.n_star) - 1.0) <= 1e-5
        ok = ok and abs(ranked.a_star / base.a_star - 1.0) <= 1e-5
        ok = ok and abs(ranked.b_star - base.b_star) <= 1e-5
        ok = ok and abs(timed.a_star * u / base.a_star - 1.0) <= 1e-5
        ok = ok and abs(timed.n_star / base.n_star - 1.0) <= 1e-5
        ok = ok and abs(timed.b_star - base.b_star) <= 1e-5
    _verdict(9, "rank-scale and time-scale equivariance of the fit", ok)


def test_criterion_10_cutoff_consistency():
    d = SalesRateDistribution.pareto(LOW_A, LOW_B)
    dc = SalesRateDistribution.pareto_cutoff(LOW_A, LOW_B, 1e-9)
    ts = np.linspace(0.0, 1e4, 200)
    curve_dev = float(np.abs((1.0 - laplace_transform(dc, ts))
                             - (1.0 - laplace_transform(d, ts))).max())
    curve_ok = curve_dev <= 1e-6
    t3 = sales_share_potential(
        SalesRateDistribution.pareto_cutoff(1.0, LOW_B, 1e-3), 0.0, 1.0)
    t4 = sales_share_potential(
        SalesRateDistribution.pareto_cutoff(1.0, LOW_B, 1e-4), 0.0, 1.0)
    predicted = 10.0 ** ((1.0 - LOW_B) / LOW_B)
    total_ok = t4 / t3 > 2.0 and abs(t4 / t3 / predicted - 1.0) <= 0.10
    _verdict(10, "cutoff invisible in the curve, decisive for total sales",
             curve_ok and total_ok,
             f"curve dev {curve_dev:.2e}; totals ratio {t4 / t3:.2f} "
             f"vs {predicted:.2f}")
