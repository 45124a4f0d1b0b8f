"""Parameter recovery, equivariances, and the grid-search floor."""

import json
import math

from types import SimpleNamespace

import numpy as np
import pytest

import rankflow.fit
from rankflow.dist import SalesRateDistribution
from rankflow.fit import (
    FitOptions,
    FitResult,
    RankingTrajectory,
    Regime,
    chi2,
    classify_regime,
    fit_pareto,
)
from rankflow.fit import _objective, minimize
from rankflow.limit import _pareto_y_grid
from rankflow.sim import synthesize_noisy_trajectory

LOW = (8.57e5, 3.939e-4, 0.6312)


def low_fixture(n_points=77, sigma=0.0, seed=0, t_max=1900.0):
    n0, a0, b0 = LOW
    d = SalesRateDistribution.pareto(a0, b0)
    ts = np.linspace(t_max / n_points, t_max, n_points)
    return synthesize_noisy_trajectory(d, int(n0), ts, sigma, seed=seed)


class TestTrajectory:
    def test_validation(self):
        with pytest.raises(ValueError):
            RankingTrajectory([0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            RankingTrajectory([1.0, 1.0], [2.0, 3.0])
        with pytest.raises(ValueError):
            RankingTrajectory([0.0, 1.0], [0.5, 2.0])
        with pytest.raises(ValueError):
            RankingTrajectory([-1.0, 1.0], [2.0, 2.0])

    def test_rejects_nan_time(self):
        with pytest.raises(ValueError, match="finite"):
            RankingTrajectory([0.0, math.nan, 2.0], [1.0, 2.0, 3.0])

    def test_rejects_nan_rank(self):
        with pytest.raises(ValueError, match="finite"):
            RankingTrajectory([0.0, 1.0, 2.0], [1.0, math.nan, 3.0])

    def test_csv_round_trip(self, tmp_path):
        traj = RankingTrajectory([1.0, 2.5, 7.0], [10.0, 25.5, 80.0], meta="x")
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        back = RankingTrajectory.from_csv(path)
        np.testing.assert_allclose(back.times, traj.times)
        np.testing.assert_allclose(back.ranks, traj.ranks)
        assert back.n_d == 3
        assert back.points()[1] == (2.5, 25.5)

    def test_csv_errors_carry_line_numbers(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t_hours,rank\n1.0,5.0\nnot_a_number,7\n")
        with pytest.raises(ValueError, match=":3"):
            RankingTrajectory.from_csv(bad)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            RankingTrajectory.from_csv(empty)
        wrong = tmp_path / "wrong.csv"
        wrong.write_text("time,rank\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            RankingTrajectory.from_csv(wrong)


class TestChi2:
    def test_zero_on_generating_curve(self):
        traj = low_fixture(20)
        n0, a0, b0 = LOW
        assert chi2(traj, n0, a0, b0) <= 1e-6 * n0 ** 2 * traj.n_d * 1e-12

    def test_constant_offset_algebra(self):
        traj = low_fixture(25)
        n0, a0, b0 = LOW
        base = chi2(traj, n0, a0, b0)
        shifted = RankingTrajectory(traj.times, traj.ranks + 100.0)
        assert chi2(shifted, n0, a0, b0) == pytest.approx(
            base + traj.n_d * 100.0 ** 2, rel=1e-9, abs=0.0)

    def test_rejects_invalid_parameters(self):
        traj = low_fixture(10)
        with pytest.raises(ValueError):
            chi2(traj, -1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            chi2(traj, 1.0, 1.0, 1.0)


class TestFit:
    def test_noiseless_recovery(self):
        res = fit_pareto(low_fixture(77))
        n0, a0, b0 = LOW
        assert res.converged
        assert res.n_star == pytest.approx(n0, rel=1e-3, abs=0.0)
        assert res.a_star == pytest.approx(a0, rel=1e-3, abs=0.0)
        assert res.b_star == pytest.approx(b0, rel=1e-3, abs=0.0)
        assert res.starts_tried >= 2

    def test_delta_y_c_consistency(self):
        res = fit_pareto(low_fixture(40, sigma=5e3, seed=9))
        assert res.delta_y_c == pytest.approx(
            math.sqrt(res.chi2 / 40) / res.n_star, rel=1e-12, abs=0.0)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="insufficient"):
            fit_pareto(low_fixture(5))
        flat = RankingTrajectory(np.arange(1.0, 11.0), np.full(10, 7.0))
        with pytest.raises(ValueError, match="degenerate"):
            fit_pareto(flat)

    def test_rank_scale_equivariance(self):
        traj = low_fixture(40, sigma=5e3, seed=3)
        base = fit_pareto(traj)
        c = 3.7
        scaled = fit_pareto(RankingTrajectory(traj.times, traj.ranks * c))
        assert scaled.n_star / base.n_star == pytest.approx(c, rel=1e-6, abs=0.0)
        assert scaled.a_star == pytest.approx(base.a_star, rel=1e-6, abs=0.0)
        assert scaled.b_star == pytest.approx(base.b_star, abs=1e-6)

    def test_time_scale_equivariance(self):
        traj = low_fixture(40, sigma=5e3, seed=4)
        base = fit_pareto(traj)
        u = 0.25
        scaled = fit_pareto(RankingTrajectory(traj.times * u, traj.ranks))
        assert scaled.a_star * u == pytest.approx(base.a_star, rel=1e-6, abs=0.0)
        assert scaled.n_star == pytest.approx(base.n_star, rel=1e-6, abs=0.0)
        assert scaled.b_star == pytest.approx(base.b_star, abs=1e-6)

    def test_never_worse_than_dense_grid_oracle(self):
        traj = low_fixture(40, sigma=8e3, seed=5)
        res = fit_pareto(traj)
        ln_n = math.log(traj.ranks.max()) + np.linspace(0.0, math.log(20.0), 40)
        ln_a = math.log(1.0 / (traj.times[-1] - traj.times[0])) \
            + np.linspace(math.log(0.05), math.log(50.0), 40)
        bs = np.linspace(0.05, 1.95, 40)
        ns = np.exp(ln_n)
        best = math.inf
        for la in ln_a:
            for b in bs:
                if abs(b - 1.0) < 1e-6:
                    continue
                y = _pareto_y_grid(math.exp(la), b, traj.times)
                resid = traj.ranks[None, :] - ns[:, None] * y[None, :]
                best = min(best, float(np.min(np.sum(resid ** 2, axis=1))))
        assert res.chi2 <= best * (1.0 + 1e-12)

    def test_idempotent_refit(self):
        traj = low_fixture(40, sigma=5e3, seed=6)
        first = fit_pareto(traj)
        again = fit_pareto(traj, FitOptions(
            extra_starts=[(first.n_star, first.a_star, first.b_star)]))
        assert abs(again.chi2 - first.chi2) <= 1e-9 * first.chi2

    def test_combined_series_second_parameter_set(self):
        # dense series plus a sparser weekly continuation, one curve
        n0, a0, b0 = 8.00e5, 5.803e-4, 0.7959
        d = SalesRateDistribution.pareto(a0, b0)
        ts = np.concatenate([np.linspace(1900.0 / 77, 1900.0, 77),
                             1900.0 + 168.0 * np.arange(1, 28)])
        traj = synthesize_noisy_trajectory(d, int(n0), ts, 0.0, seed=0)
        assert traj.n_d == 77 + 27
        res = fit_pareto(traj)
        assert res.n_star == pytest.approx(n0, rel=1e-3, abs=0.0)
        assert res.a_star == pytest.approx(a0, rel=1e-3, abs=0.0)
        assert res.b_star == pytest.approx(b0, rel=1e-3, abs=0.0)

    def test_recovers_long_tail_exponent(self):
        d = SalesRateDistribution.pareto(2e-3, 1.4)
        ts = np.linspace(10.0, 1500.0, 60)
        traj = synthesize_noisy_trajectory(d, 5 * 10 ** 5, ts, 0.0, seed=0)
        res = fit_pareto(traj)
        assert res.b_star == pytest.approx(1.4, abs=5e-3)

    def test_weighted_option(self):
        traj = low_fixture(30, sigma=5e3, seed=7)
        w = np.ones(30)
        w[:5] = 0.0  # ignore the earliest points entirely
        res = fit_pareto(traj, FitOptions(weights=w))
        assert res.converged
        with pytest.raises(ValueError):
            fit_pareto(traj, FitOptions(weights=np.ones(7)))

    def test_json_round_trip(self):
        res = fit_pareto(low_fixture(20))
        back = FitResult.from_json(res.to_json())
        assert back == res
        keys = set(json.loads(res.to_json()))
        assert keys == {"n_star", "a_star", "b_star", "chi2", "delta_y_c",
                        "converged", "starts_tried"}

    def test_parallel_workers_match_serial(self):
        traj = low_fixture(30, sigma=5e3, seed=8)
        serial = fit_pareto(traj, FitOptions(workers=1))
        parallel = fit_pareto(traj, FitOptions(workers=4))
        assert parallel.chi2 == pytest.approx(serial.chi2, rel=1e-12, abs=0.0)
        assert parallel.b_star == pytest.approx(serial.b_star, abs=1e-12)


class TestConvergedFlag:
    def test_exhausted_iteration_budget_is_not_converged(self):
        res = fit_pareto(low_fixture(30, sigma=5e3, seed=7), FitOptions(max_iter=1))
        assert not res.converged

    @pytest.mark.parametrize("winner_ok,polish_ok,polish_worse,expected", [
        (True, False, False, False),  # polish kept: its failure counts
        (False, True, True, False),   # polish discarded: the winning start's
        (True, False, True, True),
    ])
    def test_flag_describes_returned_optimum(self, monkeypatch, winner_ok, polish_ok,
                                             polish_worse, expected):
        # every other start converges; only the returned descent decides
        n0, a0, b0 = LOW
        winner = np.array([math.log(a0), b0])
        calls = []

        def scripted_minimize(fun, x0, args, **kwargs):
            x0 = np.asarray(x0, dtype=float)
            f = fun(x0, *args)
            calls.append(x0)
            if len(calls) == 8:  # 6 grid starts, the extra start, then the polish
                return SimpleNamespace(fun=f + 1.0 if polish_worse else f, x=x0,
                                       success=polish_ok, nfev=1)
            return SimpleNamespace(fun=f, x=x0, nfev=1,
                                   success=winner_ok or not np.allclose(x0, winner))

        monkeypatch.setattr(rankflow.fit, "minimize", scripted_minimize)
        res = fit_pareto(low_fixture(30), FitOptions(extra_starts=[(n0, a0, b0)]))
        assert len(calls) == 8
        assert np.allclose(calls[-1], winner)
        assert res.b_star == b0
        assert res.converged is expected


def rosenbrock(x):
    return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2


def projected_problem(b0):
    """The fit objective on a noisy 200-point trajectory of exponent b0,
    started from the grid point a = 1/t_span, b = 0.9."""
    n0, a0, _ = LOW
    ts = np.linspace(10.0, 1900.0, 200)
    traj = synthesize_noisy_trajectory(SalesRateDistribution.pareto(a0, b0), int(n0),
                                       ts, 200.0, seed=11)
    x0 = np.array([math.log(1.0 / (ts[-1] - ts[0])), 0.9])
    return _objective, x0, (traj.times, traj.ranks, None)


class TestSimplex:
    """The in-house Nelder-Mead against scipy's, bit for bit."""

    @pytest.mark.parametrize("problem,maxiter,maxfev,converges", [
        ((rosenbrock, np.array([-1.2, 1.0]), ()), 2000, 8000, True),
        ((rosenbrock, np.array([-1.2, 0.0]), ()), 2000, 8000, True),
        (projected_problem(0.6312), 2000, 8000, True),
        (projected_problem(1.2), 2000, 8000, True),
        (projected_problem(0.6312), 1, 4, False),
        # the second step needs evaluations 6 and 7, so the budget ends mid-step
        ((rosenbrock, np.array([-1.2, 1.0]), ()), 100, 6, False),
    ], ids=["rosenbrock", "zero-coordinate", "projected-b0.6312", "projected-b1.2",
            "max-iter-1", "max-fev-mid-step"])
    def test_matches_scipy(self, problem, maxiter, maxfev, converges):
        optimize = pytest.importorskip("scipy.optimize")
        fun, x0, args = problem
        options = dict(maxiter=maxiter, maxfev=maxfev, xatol=1e-9,
                       fatol=1e-12 * (1.0 + abs(fun(x0, *args))))
        ours = minimize(fun, x0, args=args, **options)
        ref = optimize.minimize(fun, x0, args=args, method="Nelder-Mead", options=options)
        assert ours.x.tobytes() == ref.x.tobytes()
        assert float(ours.fun) == float(ref.fun)
        assert ours.nfev == ref.nfev
        assert ours.success == ref.success == converges


class TestStartReport:
    def test_one_entry_per_descent(self):
        traj = low_fixture(30, sigma=5e3, seed=7)
        res = fit_pareto(traj)
        assert len(res.starts) == res.starts_tried + 1  # the polish is last
        assert res.chi2 == min(d.chi2 for d in res.starts)
        assert any(math.exp(d.x[0]) == res.a_star and d.x[1] == res.b_star
                   for d in res.starts if d.chi2 == res.chi2)
        assert res.starts[-1].x0 == min(res.starts[:-1], key=lambda d: d.chi2).x
        for d in res.starts:
            assert len(d.x0) == len(d.x) == 2
            assert d.nfev > 0 and d.success
            assert d.chi2 == _objective(np.array(d.x), traj.times, traj.ranks, None)

    def test_projected_scale_is_least_squares(self):
        traj = low_fixture(30, sigma=5e3, seed=7)
        res = fit_pareto(traj)
        for n in (res.n_star * (1.0 - 1e-6), res.n_star * (1.0 + 1e-6)):
            assert chi2(traj, n, res.a_star, res.b_star) > res.chi2


class TestRegime:
    def _result(self, b, converged=True):
        return FitResult(1e5, 1e-3, b, 0.0, 0.0, converged, 1)

    def test_thresholds(self):
        assert classify_regime(self._result(0.6312)).regime is Regime.GREAT_HITS
        assert classify_regime(self._result(1.2)).regime is Regime.LONG_TAIL
        assert classify_regime(self._result(1.005)).regime is Regime.INDETERMINATE
        assert classify_regime(self._result(1.005), guard=0.001).regime \
            is Regime.LONG_TAIL

    def test_shape_diagnostic(self):
        assert "concave" in classify_regime(self._result(0.5)).short_time_shape
        assert classify_regime(self._result(1.5)).short_time_shape == "linear"

    def test_requires_convergence(self):
        with pytest.raises(ValueError):
            classify_regime(self._result(0.5, converged=False))
