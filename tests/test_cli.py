"""Command-line surface: exit codes, file formats, and round trips."""

import csv
import dataclasses
import io
import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import rankflow.cli as cli
from rankflow.dist import SalesRateDistribution, discrete_rates, save_rates_csv
from rankflow.fit import FitResult, RankingTrajectory, fit_pareto
from rankflow.limit import SalesShareReport
from rankflow.sim import (
    SimulationConfig,
    load_events_csv,
    load_snapshot_csv,
    run_simulation,
    synthesize_noisy_trajectory,
)

LOW_A, LOW_B = 3.939e-4, 0.6312


def csv_writer_text(header, rows):
    """Reference bytes: the standard library's csv.writer, one call per row."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def read_raw(path):
    with open(path, newline="") as fh:
        return fh.read()


def low_trajectory_csv(tmp_path, sigma=1.441e4, seed=0, name="traj.csv"):
    d = SalesRateDistribution.pareto(LOW_A, LOW_B)
    ts = np.linspace(1900.0 / 77, 1900.0, 77)
    traj = synthesize_noisy_trajectory(d, 857000, ts, sigma, seed=seed)
    path = tmp_path / name
    traj.to_csv(path)
    return path


class TestFitCommand:
    def test_recovers_exponent(self, tmp_path):
        csv_path = low_trajectory_csv(tmp_path)
        out = tmp_path / "fit.json"
        assert cli.main(["fit", str(csv_path), "-o", str(out)]) == 0
        result = FitResult.from_json(out.read_text())
        assert abs(result.b_star - LOW_B) <= 0.05
        assert result.converged

    def test_empty_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        assert cli.main(["fit", str(bad), "-o", str(tmp_path / "o.json")]) == 1
        assert "empty" in capsys.readouterr().err

    def test_too_few_points_is_input_error(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        rows = "\n".join(f"{t},{r}" for t, r in [(1, 10), (2, 20), (3, 25),
                                                 (4, 30), (5, 33)])
        short.write_text("t_hours,rank\n" + rows + "\n")
        assert cli.main(["fit", str(short), "-o", str(tmp_path / "o.json")]) == 1
        assert "insufficient observations" in capsys.readouterr().err

    def test_nan_rank_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("t_hours,rank\n" + "".join(
            f"{t},{'nan' if t == 3 else 10 * t}\n" for t in range(1, 9)))
        assert cli.main(["fit", str(path), "-o", str(tmp_path / "f.json")]) == 1
        assert "finite" in capsys.readouterr().err

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t_hours,rank\n1,10\n2,twenty\n")
        assert cli.main(["fit", str(bad), "-o", str(tmp_path / "o.json")]) == 1
        assert ":3" in capsys.readouterr().err

    def test_overwrite_requires_force(self, tmp_path, capsys):
        csv_path = low_trajectory_csv(tmp_path, sigma=0.0)
        out = tmp_path / "fit.json"
        out.write_text("{}")
        assert cli.main(["fit", str(csv_path), "-o", str(out)]) == 1
        assert "--force" in capsys.readouterr().err
        assert cli.main(["fit", str(csv_path), "-o", str(out), "--force"]) == 0

    def test_time_unit_conversion(self, tmp_path):
        d = SalesRateDistribution.pareto(LOW_A, LOW_B)
        ts = np.linspace(1900.0 / 40, 1900.0, 40)
        traj = synthesize_noisy_trajectory(d, 857000, ts, 0.0, seed=0)
        day_csv = tmp_path / "days.csv"
        RankingTrajectory(traj.times / 24.0, traj.ranks).to_csv(day_csv)
        out = tmp_path / "fit.json"
        assert cli.main(["fit", str(day_csv), "-o", str(out),
                         "--time-unit", "day"]) == 0
        result = FitResult.from_json(out.read_text())
        assert result.a_star == pytest.approx(LOW_A, rel=1e-4)

    def test_nonconvergence_exit_code(self, tmp_path, monkeypatch):
        csv_path = low_trajectory_csv(tmp_path, sigma=0.0)
        fake = FitResult(1.0, 1.0, 0.5, 1.0, 1.0, False, 6)
        monkeypatch.setattr(cli, "fit_pareto", lambda *a, **k: fake)
        out = tmp_path / "fit.json"
        assert cli.main(["fit", str(csv_path), "-o", str(out)]) == 2
        assert json.loads(out.read_text())["converged"] is False


class TestSharesCommand:
    def test_long_tail_ratio_band(self, tmp_path):
        out = tmp_path / "shares.csv"
        assert cli.main(["shares", "--a", "1.0", "--b", "1.15",
                         "--r-grid", "0.1:0.9:0.05", "-o", str(out)]) == 0
        report = SalesShareReport.from_csv(out)  # format closure
        assert np.all(report.ratio >= 1.30) and np.all(report.ratio <= 1.45)

    def test_great_hits_ratio_band(self, tmp_path):
        out = tmp_path / "shares.csv"
        assert cli.main(["shares", "--a", "1.0", "--b", "0.7959",
                         "--r-grid", "0.01:0.9:0.01", "-o", str(out)]) == 0
        report = SalesShareReport.from_csv(out)
        assert np.all(report.ratio < 1.6) and np.all(report.ratio > 1.0)

    def test_b2_head_share_rows(self, tmp_path):
        out = tmp_path / "shares.csv"
        assert cli.main(["shares", "--a", "1.0", "--b", "2.0",
                         "--r-grid", "0.2:0.8:0.2", "-o", str(out)]) == 0
        report = SalesShareReport.from_csv(out)
        s_tot = 2.0 * 1.0 / (2.0 - 1.0)
        head = (s_tot - report.s_potential[0]) / s_tot
        assert head == pytest.approx(math.sqrt(0.2), abs=1e-9)

    def test_bad_parameters(self, tmp_path, capsys):
        assert cli.main(["shares", "--a", "-1", "--b", "1.2",
                         "-o", str(tmp_path / "s.csv")]) == 1
        for bad in (["--a", "inf"], ["--a", "1", "--gamma", "nan"],
                    ["--a", "1", "--gamma", "inf"]):
            assert cli.main(["shares", *bad, "--b", "1.2",
                             "-o", str(tmp_path / "s.csv")]) == 1
        assert not (tmp_path / "s.csv").exists()
        capsys.readouterr()


class TestEvalCommand:
    def test_zero_row(self, capsys):
        assert cli.main(["eval", "--a", str(LOW_A), "--b", str(LOW_B),
                         "--n", "857000", "--times", "0"]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line == "0,0,0"

    def test_saturation(self, capsys):
        assert cli.main(["eval", "--a", "1.0", "--b", "0.5",
                         "--n", "1000", "--times", "1e9"]) == 0
        _, y, x = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(y) == pytest.approx(1.0, abs=1e-9)
        assert float(x) == pytest.approx(1000.0, abs=1e-6)

    @pytest.mark.parametrize("b", ["0.5", "1.5", "2.0"])
    def test_huge_time_saturates_without_warning(self, capsys, b):
        # a t far past the gamma underflow used to print nan with overflow warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["eval", "--a", "1", "--b", b, "--n", "10",
                             "--times", "1e300,1e308"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert lines == ["1e+300,1,10", "1e+308,1,10"]

    def test_grid_mode(self, capsys):
        assert cli.main(["eval", "--a", "1.0", "--b", "1.5", "--n", "100",
                         "--t-grid", "0:2:0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 5

    @pytest.mark.parametrize("bad", [
        ["--times", "nan,1"], ["--times", "1,inf"], ["--times", "-1"],
        ["--times", "1", "--time-unit", "day", "--n", "0"],
        ["--t-grid", "0:inf:1"], ["--t-grid", "nan:2:1"], [],
        ["--t-grid", "0:1e9:1e-9"], ["--t-grid", "0:1:1e-320"],
        ["--t-grid=-1e308:1e308:1"],
    ])
    def test_rejects_bad_input_before_any_output(self, capsys, bad):
        argv = ["eval", "--a", "1.0", "--b", "1.2", "--n", "10", *bad]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "rankflow: error:" in err


def write_sim_config(path, **over):
    values = dict(n_items=5000, a=5e-4, b=0.8, gamma=0.0, horizon=3000.0,
                  seed=0, observe_every=60.0, track_item=4999)
    values.update(over)
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))


class TestSimulateCommand:
    def test_small_run_outputs_and_formats(self, tmp_path):
        config = tmp_path / "sim.cfg"
        write_sim_config(config, n_items=50, horizon=100.0, observe_every=10.0,
                         track_item=49, snapshots=1)
        prefix = tmp_path / "run"
        assert cli.main(["simulate", str(config), "-o", str(prefix)]) == 0
        times, items = load_events_csv(f"{prefix}_events.csv")
        assert np.all(np.diff(times) >= 0.0) and items.min() >= 0
        traj = RankingTrajectory.from_csv(f"{prefix}_trajectory.csv")
        assert traj.n_d == 10
        s_items, s_rates, s_ranks = load_snapshot_csv(f"{prefix}_snapshot_0000.csv")
        assert np.array_equal(np.sort(s_ranks), np.arange(1, 51))

    def test_same_seed_identical_outputs(self, tmp_path):
        config = tmp_path / "sim.cfg"
        write_sim_config(config, n_items=50, horizon=50.0, observe_every=10.0,
                         track_item=49)
        assert cli.main(["simulate", str(config), "-o", str(tmp_path / "a")]) == 0
        assert cli.main(["simulate", str(config), "-o", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a_events.csv").read_text() \
            == (tmp_path / "b_events.csv").read_text()
        assert (tmp_path / "a_trajectory.csv").read_text() \
            == (tmp_path / "b_trajectory.csv").read_text()

    def test_simulate_then_fit_recovers_parameters(self, tmp_path):
        # seed chosen so the observer item has no own sale in the window
        config = tmp_path / "sim.cfg"
        write_sim_config(config, seed=0)
        prefix = tmp_path / "run"
        assert cli.main(["simulate", str(config), "-o", str(prefix)]) == 0
        out = tmp_path / "fit.json"
        assert cli.main(["fit", f"{prefix}_trajectory.csv", "-o", str(out)]) == 0
        result = FitResult.from_json(out.read_text())
        assert abs(result.b_star - 0.8) <= 0.05
        assert result.a_star == pytest.approx(5e-4, rel=0.10)

    def test_config_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_items=10\nmystery=1\n")
        assert cli.main(["simulate", str(bad), "-o", str(tmp_path / "x")]) == 1
        assert "unknown key" in capsys.readouterr().err
        missing = tmp_path / "missing.cfg"
        missing.write_text("n_items=10\n")
        assert cli.main(["simulate", str(missing), "-o", str(tmp_path / "y")]) == 1
        assert "missing keys" in capsys.readouterr().err

    def test_streamed_outputs_match_csv_writer(self, tmp_path):
        config = tmp_path / "sim.cfg"
        write_sim_config(config, n_items=3000, a=1.0, horizon=12.0, observe_every=6.0,
                         track_item=7, snapshots=1)
        prefix = tmp_path / "run"
        assert cli.main(["simulate", str(config), "-o", str(prefix)]) == 0
        cfg = cli._load_sim_config(str(config))
        run = run_simulation(dataclasses.replace(cfg, record_events=True))
        assert run.total_events > 2 ** 19  # more than one chunk
        events = csv_writer_text(["t", "item"],
                                 ([f"{t:.12g}", int(i)] for t, i in
                                  zip(run.event_times, run.event_items)))
        assert read_raw(f"{prefix}_events.csv") == events
        for k, theta in enumerate(run.observe_times):
            ranks = run.snapshot_at(theta)
            snap = csv_writer_text(["item", "w", "rank"],
                                   ([i, f"{cfg.rates[i]:.12g}", int(ranks[i])]
                                    for i in range(run.n_items)))
            assert read_raw(f"{prefix}_snapshot_{k:04d}.csv") == snap
        traj = run.tracked_trajectory
        assert read_raw(f"{prefix}_trajectory.csv") == csv_writer_text(
            ["t_hours", "rank"], ([f"{t:.12g}", f"{r:.12g}"]
                                  for t, r in zip(traj.times, traj.ranks)))

    def test_memory_does_not_grow_with_events(self, tmp_path, monkeypatch):
        # small chunks keep both runs many chunks long, so chunk-sized
        # temporaries are the same in both and only a kept log would differ
        monkeypatch.setattr("rankflow.sim._CHUNK", 2 ** 14)

        def peak_bytes(horizon, name):
            config = tmp_path / f"{name}.cfg"
            write_sim_config(config, n_items=2000, a=1.0, horizon=horizon,
                             observe_every=horizon / 4, track_item=0)
            tracemalloc.start()
            try:
                code = cli.main(["simulate", str(config), "-o", str(tmp_path / name)])
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(1.0, "warm")
        code_1, short = peak_bytes(1.5, "short")    # about 80k events
        code_4, long_ = peak_bytes(6.0, "long")     # about 320k events
        assert code_1 == code_4 == 0
        # keeping the log would add at least 16 B per event, about 4 MB here
        assert long_ - short < 2 ** 20

    def test_observation_grid_is_capped(self, tmp_path, capsys):
        config = tmp_path / "huge.cfg"
        write_sim_config(config, horizon=1e6, observe_every=1e-9)
        assert cli.main(["simulate", str(config), "-o", str(tmp_path / "x")]) == 1
        assert "observations" in capsys.readouterr().err
        # at twice the cap the grid would take 16 MB; it is never built
        write_sim_config(config, horizon=2e6, observe_every=1.0)
        tracemalloc.start()
        try:
            code = cli.main(["simulate", str(config), "-o", str(tmp_path / "y")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and peak < 4 * 2 ** 20
        assert "observations" in capsys.readouterr().err

    def test_capacity_error_leaves_no_event_log(self, tmp_path, capsys):
        config = tmp_path / "cap.cfg"
        write_sim_config(config, max_events=10)
        assert cli.main(["simulate", str(config), "-o", str(tmp_path / "run")]) == 1
        assert "exceeds cap" in capsys.readouterr().err
        assert not (tmp_path / "run_events.csv").exists()

    def test_existing_snapshot_stops_before_the_run(self, tmp_path, capsys):
        config = tmp_path / "snap.cfg"
        write_sim_config(config, n_items=50, horizon=10.0, observe_every=5.0,
                         track_item=0, snapshots=1)
        (tmp_path / "run_snapshot_0001.csv").write_text("keep me")
        assert cli.main(["simulate", str(config), "-o", str(tmp_path / "run")]) == 1
        assert "--force" in capsys.readouterr().err
        assert not (tmp_path / "run_events.csv").exists()
        assert not (tmp_path / "run_snapshot_0000.csv").exists()
        assert (tmp_path / "run_snapshot_0001.csv").read_text() == "keep me"

    def test_infinite_rate_is_input_error(self, tmp_path, capsys):
        config = tmp_path / "inf.cfg"
        write_sim_config(config, n_items=10, a="inf", horizon=1.0, observe_every=1.0,
                         track_item=0)
        assert cli.main(["simulate", str(config), "-o", str(tmp_path / "x")]) == 1
        assert "finite" in capsys.readouterr().err


class TestCsvWriters:
    """Block-formatted files are byte-identical to csv.writer output."""

    def test_trajectory_shares_and_rates(self, tmp_path):
        rng = np.random.default_rng(3)
        times = np.cumsum(rng.exponential(5.0, 20000))
        ranks = 1.0 + rng.random(20000) * 1e6
        traj = RankingTrajectory(times, ranks)
        traj.to_csv(tmp_path / "traj.csv")
        assert read_raw(tmp_path / "traj.csv") == csv_writer_text(
            ["t_hours", "rank"], ([f"{t:.12g}", f"{r:.12g}"] for t, r in zip(times, ranks)))
        cols = rng.random((5, 40)) * 10.0 ** rng.integers(-12, 12, (5, 40))
        SalesShareReport(*cols).to_csv(tmp_path / "shares.csv")
        assert read_raw(tmp_path / "shares.csv") == csv_writer_text(
            SalesShareReport.CSV_HEADER, ([f"{v:.12g}" for v in row] for row in cols.T))
        save_rates_csv(tmp_path / "rates.csv", ranks)
        assert read_raw(tmp_path / "rates.csv") == csv_writer_text(
            ["w"], ([f"{w:.12g}"] for w in ranks))


class TestRoundTripInvariant:
    def test_five_seeds_recover_generating_parameters(self):
        a0, b0, n = 5e-4, 0.8, 10 ** 5
        horizon = 1.5 / a0
        obs = np.linspace(horizon / 50, horizon, 50)
        rates = discrete_rates(n, a0, b0)
        for seed in range(5):
            cfg = SimulationConfig(rates=rates, horizon=horizon, seed=seed,
                                   observe_times=obs, record_events=False)
            run = run_simulation(cfg)
            traj = RankingTrajectory(obs, run.boundary_counts + 1.0)
            res = fit_pareto(traj)
            assert res.a_star == pytest.approx(a0, rel=0.10), f"seed {seed}"
            assert abs(res.b_star - b0) <= 0.05, f"seed {seed}"


class TestReportCommand:
    def test_fit_plus_shares(self, tmp_path):
        csv_path = low_trajectory_csv(tmp_path, sigma=0.0)
        prefix = tmp_path / "rep"
        assert cli.main(["report", str(csv_path), "-o", str(prefix),
                         "--r-grid", "0.1:0.9:0.1"]) == 0
        result = FitResult.from_json((tmp_path / "rep_fit.json").read_text())
        assert result.b_star == pytest.approx(LOW_B, abs=1e-3)
        report = SalesShareReport.from_csv(tmp_path / "rep_shares.csv")
        assert report.r.size == 9
        assert np.all(report.ratio > 1.0)


class TestOracleCommand:
    def test_gamma_identity(self, capsys):
        assert cli.main(["oracle", "gamma", "1", "2"]) == 0
        value = float(capsys.readouterr().out.split()[0])
        assert value == pytest.approx(math.exp(-2.0), rel=1e-10)

    def test_laplace_and_q(self, capsys):
        assert cli.main(["oracle", "laplace", "pareto",
                         str(LOW_A), str(LOW_B), "100"]) == 0
        value = float(capsys.readouterr().out.split()[0])
        assert value == pytest.approx(0.753934042845, rel=1e-9)
        assert cli.main(["oracle", "q", "1.2", "0.5"]) == 0
        value = float(capsys.readouterr().out.split()[0])
        assert value == pytest.approx(0.308677051630, rel=1e-9)

    def test_shares_subcommand(self, capsys):
        assert cli.main(["oracle", "shares", "2.0", "1.5", "0", "1"]) == 0
        value = float(capsys.readouterr().out.split()[0])
        assert value == pytest.approx(6.0, rel=1e-8)


class TestArgumentHandling:
    def test_unknown_verb_exits_one(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 1

    def test_missing_required_flag_exits_one(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["shares", "--a", "1.0"])
        assert err.value.code == 1

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "rankflow.cli", "eval", "--a", "1", "--b",
             "0.5", "--n", "10", "--times", "0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == "0,0,0"
