"""Parameter recovery, equivariances, and the grid-search floor."""

import json
import math

import numpy as np
import pytest

import rankflow.fit
from rankflow.dist import SalesRateDistribution
from rankflow.fit import (
    Descent,
    FitOptions,
    FitResult,
    RankingTrajectory,
    chi2,
    fit_pareto,
)
from rankflow.fit import _projected_all
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
        assert (back.times[1], back.ranks[1]) == (2.5, 25.5)

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
        again = fit_pareto(traj, FitOptions(extra_starts=[(first.a_star, first.b_star)]))
        assert abs(again.chi2 - first.chi2) <= 1e-9 * first.chi2

    def test_start_where_the_curve_is_flat_ends_in_place(self):
        # at a = 1e3 every a t is past 700: y is exactly 1 and both derivatives 0
        traj = low_fixture(30, sigma=5e3, seed=7)
        res = fit_pareto(traj, FitOptions(extra_starts=[(1e3, 1.5)]))
        flat = res.starts[-1]
        assert flat.x == flat.x0 and flat.success
        assert res.chi2 == fit_pareto(traj).chi2

    def test_far_start_ends_within_100_rounds(self):
        # far into the asymptote a t << 1 the accepted steps keep dividing the
        # damping by 10; with no floor on it this start took 262 rounds
        n0, a0, b0 = LOW
        traj = synthesize_noisy_trajectory(SalesRateDistribution.pareto(a0, b0), int(n0),
                                           np.linspace(10.0, 1900.0, 50), 200.0, seed=1)
        res = fit_pareto(traj, FitOptions(extra_starts=[(1e-9, 0.05)]))
        far = res.starts[-1]
        assert far.success and far.nfev <= 100
        assert far.chi2 == pytest.approx(res.chi2, rel=1e-12, abs=0.0)
        assert math.exp(far.x[0]) == pytest.approx(res.a_star, rel=1e-9, abs=0.0)
        assert far.x[1] == pytest.approx(res.b_star, rel=1e-9, abs=0.0)

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

    @pytest.mark.parametrize("options,match", [
        (FitOptions(weights=np.zeros(30)), "at least 6 of them positive"),
        (FitOptions(weights=np.r_[np.ones(5), np.zeros(25)]), "at least 6 of them positive"),
        (FitOptions(weights=np.full(30, math.nan)), "finite and non-negative"),
        (FitOptions(weights=np.r_[math.inf, np.ones(29)]), "finite and non-negative"),
        (FitOptions(weights=np.r_[-1.0, np.ones(29)]), "finite and non-negative"),
        (FitOptions(max_iter=0), "max_iter"),
        (FitOptions(max_iter=-1), "max_iter"),
        (FitOptions(max_iter=1.5), "max_iter"),
        (FitOptions(max_iter=True), "max_iter"),
        (FitOptions(workers=0), "workers"),
        (FitOptions(workers=-1), "workers"),
        (FitOptions(workers=1.5), "workers"),
        (FitOptions(workers=True), "workers"),
        (FitOptions(extra_starts=[(0.0, 0.5)]), "extra start"),
        (FitOptions(extra_starts=[(-1e-3, 0.5)]), "extra start"),
        (FitOptions(extra_starts=[(math.inf, 0.5)]), "extra start"),
        (FitOptions(extra_starts=[(math.nan, 0.5)]), "extra start"),
        (FitOptions(extra_starts=[(1e-3, 0.0)]), "extra start"),
        (FitOptions(extra_starts=[(1e-3, 5.0)]), "extra start"),
        (FitOptions(extra_starts=[(1e-3, math.nan)]), "extra start"),
        (FitOptions(extra_starts=[(1e-3, 2.0)]), "extra start"),
        (FitOptions(extra_starts=[(1e-3, 1.0)]), "extra start"),
        (FitOptions(extra_starts=[(1e-3, 1.0 - 5e-7)]), "extra start"),
        (FitOptions(extra_starts=[(1e-3, 5e-7)]), "extra start"),
        (FitOptions(extra_starts=[(1e-320, 0.5)]), "extra start"),
    ], ids=["weights-zero", "weights-five-positive", "weights-nan", "weights-inf",
            "weights-negative", "max-iter-0", "max-iter-negative", "max-iter-float",
            "max-iter-bool", "workers-0", "workers-negative", "workers-float",
            "workers-bool", "a0-zero", "a0-negative", "a0-inf", "a0-nan", "b0-zero",
            "b0-above-2", "b0-nan", "b0-two", "b0-one", "b0-in-guard-band",
            "b0-below-guard", "a0-log-below-700"])
    def test_rejects_bad_options(self, options, match):
        # rejected before any descent, not returned as a fit with n_star nan
        with pytest.raises(ValueError, match=match):
            fit_pareto(low_fixture(30, sigma=5e3, seed=7), options)

    def test_json_round_trip(self):
        res = fit_pareto(low_fixture(20))
        back = FitResult.from_json(res.to_json())
        assert back == res
        keys = set(json.loads(res.to_json()))
        assert keys == {"n_star", "a_star", "b_star", "chi2", "delta_y_c",
                        "converged", "starts_tried"}

    def test_parallel_workers_match_serial(self):
        # each worker runs its group of starts in lockstep, bit for bit as serial
        traj = low_fixture(30, sigma=5e3, seed=8)
        serial = fit_pareto(traj, FitOptions(workers=1))
        parallel = fit_pareto(traj, FitOptions(workers=4))
        assert parallel == serial
        assert parallel.n_star == serial.n_star
        assert parallel.starts == serial.starts


class TestConvergedFlag:
    def test_exhausted_iteration_budget_is_not_converged(self):
        res = fit_pareto(low_fixture(30, sigma=5e3, seed=7), FitOptions(max_iter=1))
        assert not res.converged

    @pytest.mark.parametrize("winner_ok", [True, False],
                             ids=["winner-converged", "winner-not-converged"])
    def test_flag_describes_returned_optimum(self, monkeypatch, winner_ok):
        # every other start converges; only the returned descent decides
        _, a0, b0 = LOW
        winner = np.array([math.log(a0), b0])
        calls = []

        def scripted_descents(starts, fatols, times, ranks, weights, max_iter):
            out = []
            for x0 in starts:
                x0 = tuple(map(float, x0))
                calls.append(np.array(x0))
                ok = winner_ok or not np.allclose(x0, winner)
                c, n = _projected_all([x0], times, ranks, weights)[0]
                out.append(Descent(x0, x0, c, 1, ok, n))
            return out

        monkeypatch.setattr(rankflow.fit, "minimize", scripted_descents)
        res = fit_pareto(low_fixture(30), FitOptions(extra_starts=[(a0, b0)]))
        assert len(calls) == 7  # 6 grid starts and the extra start, nothing after
        assert np.allclose(calls[-1], winner)
        assert res.b_star == b0
        assert res.converged is winner_ok


def saturating_fixture():
    """200 points to t = 1e6 h of a law with a = 1e-2: near the fitted a,
    a t passes 700, where the curve is exactly 1."""
    ts = np.geomspace(1.0, 1e6, 200)
    return synthesize_noisy_trajectory(SalesRateDistribution.pareto(1e-2, 1.3), 10 ** 5,
                                       ts, 50.0, seed=2)


def zero_time_fixture():
    """A trajectory that starts at t = 0, where every curve is 0."""
    traj = low_fixture(40, sigma=5e3, seed=3)
    return RankingTrajectory(np.concatenate([[0.0], traj.times]),
                             np.concatenate([[1.0], traj.ranks]))


def weighted_fixture():
    traj = low_fixture(30, sigma=5e3, seed=7)
    w = np.ones(30)
    w[:5] = 0.0
    return traj, w


def edge_fixture():
    """60 points over 1-200 h of b = 1.8: a and b are nearly collinear, and
    the least-squares b lies on the domain edge b = 2."""
    n0, a0, _ = LOW
    return synthesize_noisy_trajectory(SalesRateDistribution.pareto(a0, 1.8), int(n0),
                                       np.linspace(1.0, 200.0, 60), 200.0, seed=0)


def far_fixture():
    """200 points over 1-1e6 h of a law with a = 1e-3: the data-scaled start
    grid sits near a = 1e-6, three decades from the fitted a."""
    return synthesize_noisy_trajectory(SalesRateDistribution.pareto(1e-3, 0.5), 10 ** 5,
                                       np.geomspace(1.0, 1e6, 200), 50.0, seed=2)


def _objective(x, times, ranks, weights) -> float:
    """The fit's projected chi^2 at x = (log a, b), as one function of x."""
    return _projected_all([x], times, ranks, weights)[0][0]


FIXTURES = {"plain": lambda: (low_fixture(30, sigma=5e3, seed=7), None),
            "zero-time": lambda: (zero_time_fixture(), None),
            "saturating": lambda: (saturating_fixture(), None),
            "weighted": weighted_fixture,
            "edge": lambda: (edge_fixture(), None),
            "far": lambda: (far_fixture(), None)}


class TestStartReport:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_no_worse_than_simplex_from_the_same_starts(self, name):
        optimize = pytest.importorskip("scipy.optimize")
        traj, weights = FIXTURES[name]()
        args = (traj.times, traj.ranks, weights)
        res = fit_pareto(traj, FitOptions(weights=weights))
        assert res.converged and all(d.success for d in res.starts)
        simplex = min(
            float(optimize.minimize(
                _objective, np.array(d.x0), args=args, method="Nelder-Mead",
                options=dict(maxiter=2000, maxfev=8000, xatol=1e-9,
                             fatol=1e-12 * (1.0 + abs(_objective(d.x0, *args))))).fun)
            for d in res.starts)
        assert res.chi2 <= simplex * (1.0 + 1e-9)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_bounded_curve_calls(self, monkeypatch, name):
        traj, weights = FIXTURES[name]()
        calls = []

        def counted(*a):
            calls.append(a)
            return _pareto_y_grid(*a)

        monkeypatch.setattr(rankflow.fit, "_pareto_y_grid", counted)
        fit_pareto(traj, FitOptions(weights=weights))
        assert 0 < len(calls) <= 60

    @pytest.mark.parametrize("name", FIXTURES)
    def test_n_star_comes_from_the_winning_round(self, monkeypatch, name):
        # one screening call and one call per round, nothing after; each N is
        # bit for bit the one-row projection at the descent's end
        traj, weights = FIXTURES[name]()
        calls = []

        def counted(*a):
            calls.append(a)
            return _pareto_y_grid(*a)

        monkeypatch.setattr(rankflow.fit, "_pareto_y_grid", counted)
        res = fit_pareto(traj, FitOptions(weights=weights))
        assert len(calls) == 1 + max(d.nfev for d in res.starts)
        monkeypatch.undo()
        for d in res.starts:
            assert d.n == _projected_all([d.x], traj.times, traj.ranks, weights)[0][1]
        assert res.n_star == min(res.starts, key=lambda d: d.chi2).n

    def test_one_entry_per_descent(self):
        traj = low_fixture(30, sigma=5e3, seed=7)
        res = fit_pareto(traj)
        assert len(res.starts) == res.starts_tried
        best = min(res.starts, key=lambda d: d.chi2)  # returned as it ended
        assert (res.a_star, res.b_star, res.chi2) == (math.exp(best.x[0]), best.x[1], best.chi2)
        assert res.converged is best.success
        for d in res.starts:
            assert len(d.x0) == len(d.x) == 2
            assert d.nfev > 0 and d.success
            assert d.chi2 == _objective(np.array(d.x), traj.times, traj.ranks, None)

    def test_projected_scale_is_least_squares(self):
        traj = low_fixture(30, sigma=5e3, seed=7)
        res = fit_pareto(traj)
        for n in (res.n_star * (1.0 - 1e-6), res.n_star * (1.0 + 1e-6)):
            assert chi2(traj, n, res.a_star, res.b_star) > res.chi2

