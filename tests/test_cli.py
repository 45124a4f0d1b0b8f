"""Command-line surface: exit codes, file formats, and round trips."""

import csv
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankflow
import rankflow.cli as cli
from rankflow._csvio import _BLOCK, write_rows
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

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_non_finite_time_names_file_and_line(self, tmp_path, capsys, field):
        path = tmp_path / "nan.csv"
        path.write_text(f"t_hours,rank\n1,10\n{field},20\n3,25\n")
        assert cli.main(["fit", str(path), "-o", str(tmp_path / "f.json")]) == 1
        err = capsys.readouterr().err
        assert f"{path}:3: " in err and "finite" in err

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
        assert result.a_star == pytest.approx(LOW_A, rel=1e-4, abs=0.0)

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

    def test_large_cutoff_ratio_with_small_b(self, tmp_path):
        # rates span only [1, 1.01], so both shares are about the mean rate
        # times the tail fraction 1 - r
        out = tmp_path / "shares.csv"
        assert cli.main(["shares", "--a", "1", "--b", "0.01", "--gamma", "1e4",
                         "--r-grid", "0.1:0.9:0.1", "-o", str(out)]) == 0
        report = SalesShareReport.from_csv(out)
        assert report.s_potential == pytest.approx(1.005 * (1.0 - report.r), rel=1e-2)
        assert report.ratio == pytest.approx(1.0, rel=1e-2)

    def test_subnormal_crossing_times_finish(self, tmp_path):
        # at a = 1e290 the levels 0.01 and 0.02 cross at subnormal t, where
        # the inverter's bisection used to spin forever
        out = tmp_path / "shares.csv"
        proc = subprocess.run([sys.executable, "-m", "rankflow.cli", "shares", "--a", "1e290",
                               "--b", "0.1", "--r-grid", "0.01:0.02:0.01", "-o", str(out)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        report = SalesShareReport.from_csv(out)
        assert report.r.tolist() == [0.01, 0.02]
        assert np.all(report.q > 0.0) and report.q[0] < report.q[1]

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

    def test_cutoff_beyond_double_range_is_a_one_line_error(self, capsys):
        assert cli.main(["eval", "--a", "1", "--b", "0.01", "--gamma", "1e-5",
                         "--n", "10", "--times", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("rankflow: error:") and "double range" in err
        assert err.count("\n") == 1

    def test_large_cutoff_ratio_with_small_b_prints_the_curve(self, capsys):
        # the cutoff a (1 + 1/gamma)^(1/b) and the mean rate are near a, though
        # (1 + gamma)^(1/b) alone is past the double range
        assert cli.main(["eval", "--a", "1", "--b", "0.01", "--gamma", "1e4",
                         "--n", "1000", "--times", "0,0.5,1,4,30"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "t_hours,y_c,x_c", "0,0,0", "0.5,0.394988089564,394.988089564",
            "1,0.633959818059,633.959818059", "4,0.98204700209,982.04700209",
            "30,1,1000"]

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


GOLDEN_SIMULATE_CSV = {
    "events.csv":
        "ed710229c981a93718f7b3132b10cbdab45f92f96c3af7425db19fd51587324a",
    "snapshot_0000.csv":
        "07bfcd45ab4834b32047c77b64e25077e2b066924fa7e8993f5622aee6850ac0",
    "snapshot_0001.csv":
        "be6ee295ca4c96f61aecad4f52803453dbacc2972775e2128fc5c3b186d1a0d2",
    "snapshot_0002.csv":
        "f02c137b6735a7bd8254bd5c31b7d0921b78775418444cc28ace49f387b065a0",
    "snapshot_0003.csv":
        "1603a39e3af13eed02918f19fec259673551d811691b2c816bbc1e0627572ada",
    "trajectory.csv":
        "638a73d84a28c6e42c2ec2f51821a3bc182704cb8ffc05e44dd9a81ab88926e5",
}


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
        assert result.a_star == pytest.approx(5e-4, rel=0.10, abs=0.0)

    def test_grid_that_ends_on_the_horizon_is_accepted(self, tmp_path):
        # 0.1 + 2 * 0.1 is 0.30000000000000004, just past the horizon
        config = tmp_path / "sim.cfg"
        write_sim_config(config, n_items=50, horizon=0.3, observe_every=0.1,
                         track_item=0, snapshots=1)
        prefix = tmp_path / "run"
        assert cli.main(["simulate", str(config), "-o", str(prefix)]) == 0
        cfg, _ = cli._load_sim_config(str(config))
        assert cfg.observe_times.size == 3 and cfg.observe_times[-1] == 0.3
        traj = RankingTrajectory.from_csv(f"{prefix}_trajectory.csv")
        assert traj.times.tolist() == cfg.observe_times.tolist()
        assert (tmp_path / "run_snapshot_0002.csv").exists()
        assert not (tmp_path / "run_snapshot_0003.csv").exists()

    def test_config_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_items=10\nmystery=1\n")
        assert cli.main(["simulate", str(bad), "-o", str(tmp_path / "x")]) == 1
        assert "unknown key" in capsys.readouterr().err
        missing = tmp_path / "missing.cfg"
        missing.write_text("n_items=10\n")
        assert cli.main(["simulate", str(missing), "-o", str(tmp_path / "y")]) == 1
        assert "missing keys" in capsys.readouterr().err

    def test_repeated_key_exits_one(self, tmp_path, capsys):
        # a second seed= used to win silently
        config = tmp_path / "twice.cfg"
        write_sim_config(config, n_items=50, horizon=10.0, observe_every=10.0, seed=1)
        config.write_text(config.read_text() + "seed=2\n")
        assert cli.main(["simulate", str(config), "-o", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == \
            f"rankflow: error: {config}:9: repeated key 'seed'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["twice.cfg"]

    def test_streamed_outputs_match_csv_writer(self, tmp_path):
        config = tmp_path / "sim.cfg"
        write_sim_config(config, n_items=3000, a=1.0, horizon=12.0, observe_every=6.0,
                         track_item=7, snapshots=1)
        prefix = tmp_path / "run"
        assert cli.main(["simulate", str(config), "-o", str(prefix)]) == 0
        cfg, snapshots = cli._load_sim_config(str(config))
        assert snapshots
        taken = []
        run = run_simulation(cfg, snapshot_sink=lambda t, r: taken.append((t, r)))
        assert run.total_events > 2 ** 19  # more than one chunk
        events = csv_writer_text(["t", "item"],
                                 ([f"{t:.12g}", int(i)] for t, i in
                                  zip(run.event_times, run.event_items)))
        assert read_raw(f"{prefix}_events.csv") == events
        assert len(taken) == run.observe_times.size
        for k, (_, ranks) in enumerate(taken):
            snap = csv_writer_text(["item", "w", "rank"],
                                   ([i, f"{cfg.rates[i]:.12g}", int(ranks[i])]
                                    for i in range(run.n_items)))
            assert read_raw(f"{prefix}_snapshot_{k:04d}.csv") == snap
        traj = run.tracked_trajectory
        assert read_raw(f"{prefix}_trajectory.csv") == csv_writer_text(
            ["t_hours", "rank"], ([f"{t:.12g}", f"{r:.12g}"]
                                  for t, r in zip(traj.times, traj.ranks)))

    @pytest.mark.skipif(not (sys.platform == "linux" and platform.machine() == "x86_64"),
                        reason="golden bytes are those of numpy on x86-64 Linux")
    def test_seeded_outputs_match_golden_bytes(self, tmp_path):
        # SHA-256 of each file, taken before the simulator's arithmetic was
        # made in-place and its snapshots streamed
        config = tmp_path / "sim.cfg"
        write_sim_config(config, n_items=3000, a=1.0, horizon=12.0, observe_every=3.0,
                         track_item=7, snapshots=1)
        assert cli.main(["simulate", str(config), "-o", str(tmp_path / "run")]) == 0
        got = {name: hashlib.sha256((tmp_path / f"run_{name}").read_bytes()).hexdigest()
               for name in GOLDEN_SIMULATE_CSV}
        assert got == GOLDEN_SIMULATE_CSV

    def test_memory_does_not_grow_with_snapshots(self, tmp_path, monkeypatch):
        # each snapshot goes to its file when taken; keeping them would add
        # 8 B x N per snapshot, 6.1 MB over the 38 extra ones here. Small
        # chunks keep the draws' temporaries below the snapshots' own. Both
        # runs take a snapshot before the final chunk, with the alias table
        # alive, and one in it, where the table is freed
        monkeypatch.setattr("rankflow.sim._CHUNK", 2 ** 14)
        n = 20000

        def peak_bytes(every, name):
            config = tmp_path / f"{name}.cfg"
            write_sim_config(config, n_items=n, horizon=40.0, observe_every=every,
                             snapshots=1)
            tracemalloc.start()
            try:
                code = cli.main(["simulate", str(config), "-o", str(tmp_path / name)])
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(40.0, "warm")
        code_2, two = peak_bytes(20.0, "two")
        code_40, forty = peak_bytes(1.0, "forty")
        assert code_2 == code_40 == 0
        assert (tmp_path / "forty_snapshot_0039.csv").exists()
        assert forty <= two + 2 * 8 * n

    def test_failed_run_removes_the_snapshots_it_wrote(self, tmp_path, capsys):
        config = tmp_path / "snap.cfg"
        write_sim_config(config, n_items=50, horizon=30.0, observe_every=10.0,
                         track_item=0, snapshots=1)
        # the second snapshot cannot be opened, after the first was written
        (tmp_path / "run_snapshot_0001.csv").mkdir()
        assert cli.main(["simulate", str(config), "-o", str(tmp_path / "run"),
                         "--force"]) == 1
        assert "rankflow: error:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == ["snap.cfg"]

    @pytest.mark.parametrize("fault", ["open", "write"])
    def test_failed_trajectory_removes_every_file(self, tmp_path, capsys, monkeypatch,
                                                  fault):
        config = tmp_path / "sim.cfg"
        write_sim_config(config, n_items=50, horizon=30.0, observe_every=10.0,
                         track_item=0, snapshots=1)
        if fault == "open":
            (tmp_path / "run_trajectory.csv").mkdir()
        else:  # the trajectory file is created, then its rows fail
            def write_rows(fh, fmt, *columns):
                if fh.name.endswith("_trajectory.csv"):
                    raise OSError("disk full")
                cli_write_rows(fh, fmt, *columns)

            cli_write_rows = cli.write_rows
            monkeypatch.setattr(cli, "write_rows", write_rows)
        assert cli.main(["simulate", str(config), "-o", str(tmp_path / "run"),
                         "--force"]) == 1
        assert "rankflow: error:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == ["sim.cfg"]

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

    @pytest.mark.parametrize("cap", ["nan", "inf", "0", "-5"])
    def test_bad_event_cap_is_a_one_line_error(self, tmp_path, capsys, cap):
        # nan turned the cap off; -5 failed as "exceeds cap -5"
        config = tmp_path / "cap.cfg"
        write_sim_config(config, n_items=50, horizon=100.0, observe_every=10.0,
                         track_item=0, max_events=cap)
        assert cli.main(["simulate", str(config), "-o", str(tmp_path / "run")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert "max_events" in err and "exceeds cap" not in err
        assert not (tmp_path / "run_events.csv").exists()

    def test_snapshots_flag_is_checked(self, tmp_path, capsys):
        config = tmp_path / "snap.cfg"
        write_sim_config(config, n_items=50, horizon=20.0, observe_every=10.0,
                         track_item=0, snapshots="maybe")
        assert cli.main(["simulate", str(config), "-o", str(tmp_path / "run")]) == 1
        assert "snapshots" in capsys.readouterr().err
        assert not (tmp_path / "run_events.csv").exists()
        write_sim_config(config, n_items=50, horizon=20.0, observe_every=10.0,
                         track_item=0, snapshots="YES")
        assert cli.main(["simulate", str(config), "-o", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run_snapshot_0001.csv").exists()

    @pytest.mark.parametrize("key, value", [("observe_every", "inf"), ("n_items", "1e3"),
                                            ("seed", "1.5"), ("track_item", "x"), ("a", "")])
    def test_bad_number_names_the_file_and_the_key(self, tmp_path, capsys, key, value):
        # observe_every = inf died in numpy's arange, and 1e3 or 1.5 as an
        # integer printed int()'s message with neither the file nor the key
        config = tmp_path / "bad.cfg"
        values = dict(n_items=10, horizon=1.0, observe_every=1.0, track_item=0)
        write_sim_config(config, **{**values, key: value})
        assert cli.main(["simulate", str(config), "-o", str(tmp_path / "x")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("rankflow: error:") and err.count("\n") == 1
        assert str(config) in err and key in err
        assert not (tmp_path / "x_events.csv").exists()

    def test_negative_seed_is_rejected_before_the_rates(self, tmp_path, capsys, monkeypatch):
        # numpy's bare "expected non-negative integer" came after the rates
        # and the alias table were built
        def no_rates(*args):
            raise AssertionError("rates built for a config with a bad seed")

        monkeypatch.setattr(cli, "discrete_rates", no_rates)
        config = tmp_path / "bad.cfg"
        write_sim_config(config, n_items=10, horizon=1.0, observe_every=1.0, track_item=0,
                         seed=-1)
        assert cli.main(["simulate", str(config), "-o", str(tmp_path / "x")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("rankflow: error:") and err.count("\n") == 1
        assert str(config) in err and "seed" in err
        assert not (tmp_path / "x_events.csv").exists()

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


    @pytest.mark.parametrize("bad", [dict(b=0), dict(b=-1.0), dict(b="nan"), dict(b="inf"),
                                     dict(a=0), dict(a="nan"), dict(gamma=-0.5),
                                     dict(gamma="nan"), dict(gamma="inf"), dict(b=1e-3)])
    def test_bad_rate_law_is_a_one_line_error(self, tmp_path, capsys, bad):
        # b = 0 died in a ZeroDivisionError; gamma < 0, and b = 1e-3 with its
        # top rate 10^1000 a, printed a numpy RuntimeWarning before the run failed
        config = tmp_path / "bad.cfg"
        write_sim_config(config, n_items=10, horizon=1.0, observe_every=1.0, track_item=0,
                         **bad)
        assert cli.main(["simulate", str(config), "-o", str(tmp_path / "x")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("rankflow: error:") and err.count("\n") == 1
        assert not (tmp_path / "x_events.csv").exists()

    def test_head_past_double_range_is_a_one_line_error(self, tmp_path):
        # n0 = gamma N = inf printed numpy's "invalid value encountered in
        # divide", then blamed the NaN rates on a top rate past the double range
        config = tmp_path / "head.cfg"
        write_sim_config(config, n_items=10, horizon=1.0, observe_every=1.0, track_item=0,
                         gamma=1e308)
        proc = subprocess.run([sys.executable, "-m", "rankflow.cli", "simulate", str(config),
                               "-o", str(tmp_path / "x")], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == "" and "RuntimeWarning" not in proc.stderr
        assert proc.stderr.startswith("rankflow: error:") and proc.stderr.count("\n") == 1
        assert "gamma" in proc.stderr and "n_items" in proc.stderr
        assert not (tmp_path / "x_events.csv").exists()

    def test_n_items_past_double_range_is_a_one_line_error(self, tmp_path):
        # n_items = 10^400 ended in a traceback: OverflowError from the head
        # size gamma * n_items
        config = tmp_path / "huge.cfg"
        write_sim_config(config, n_items=10 ** 400, horizon=1.0, observe_every=1.0,
                         track_item=0)
        proc = subprocess.run([sys.executable, "-m", "rankflow.cli", "simulate", str(config),
                               "-o", str(tmp_path / "x")], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("rankflow: error:") and proc.stderr.count("\n") == 1
        assert "n_items" in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.cfg"]

    def test_catalog_too_large_to_allocate_is_a_one_line_error(self, tmp_path, capsys,
                                                               monkeypatch):
        # n_items = 1e10 under a 3 GB address-space limit ended in a traceback
        # from numpy's _ArrayMemoryError. The failure is faked, never provoked:
        # on an overcommitting kernel a real attempt can exhaust the machine.
        def no_memory(*args):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                              "(10000000000,) and data type float64")

        monkeypatch.setattr(cli, "discrete_rates", no_memory)
        config = tmp_path / "big.cfg"
        write_sim_config(config, n_items=10**10, horizon=1.0, observe_every=1.0, track_item=0)
        assert cli.main(["simulate", str(config), "-o", str(tmp_path / "x")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("rankflow: error: Unable to allocate 74.5 GiB")
        assert not (tmp_path / "x_events.csv").exists()


def written_text(header, fmt, *columns):
    buf = io.BytesIO()
    write_rows(buf, fmt, *columns)
    return ",".join(header) + "\r\n" + buf.getvalue().decode()


def _double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _near_tie(m, e, ulps):
    x = (m + 0.5) * 10.0 ** (e - 11)  # halfway between two 12-digit roundings
    return float(np.nextafter(x, np.inf * ulps)) if ulps else x


# powers of ten and their neighbours, where %g's exponent and notation change
_TENS = [v for k in range(-6, 14)
         for v in (np.nextafter(10.0 ** k, 0.0), 10.0 ** k, np.nextafter(10.0 ** k, np.inf))]
FLOATS = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_double),  # subnormals, negatives, -0.0, nan, +-inf
    st.sampled_from(_TENS),
    st.builds(_near_tie, st.integers(10 ** 11, 10 ** 12 - 1), st.integers(-4, 11),
              st.integers(-1, 1)),
    st.floats(1e-4, 1e12),
)
INTS = st.one_of(
    st.integers(-2 ** 63, 2 ** 63 - 1),
    st.sampled_from([0, 10 ** 12 - 1, 10 ** 12, 10 ** 12 + 1, 2 ** 63 - 1, -1, -10 ** 12]),
)


class TestCsvWriters:
    """Block-formatted files are byte-identical to csv.writer output."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(FLOATS, INTS), min_size=1, max_size=40),
           start=st.sampled_from([0, 10 ** 12 - 3, 2 ** 63 - 50]))
    def test_rows_match_csv_writer(self, rows, start):
        xs = np.array([x for x, _ in rows])
        ks = np.array([k for _, k in rows], dtype=np.int64)
        items = range(start, start + len(rows))
        header = ["item", "x", "k"]
        assert written_text(header, "%d,%.12g,%d", items, xs, ks) == csv_writer_text(
            header, ([i, f"{x:.12g}", int(k)] for i, x, k in zip(items, xs, ks)))

    def test_edges_match_percent_formatting(self):
        # every exponent class from one below %g's fixed range to one above it
        # with 1-12 kept digits, roundings that carry into the next power of
        # ten, values within 2**-11 of a tie, and integers at group edges;
        # each class alone (a block with nothing for Python to format) and
        # all of them in one column
        rng = np.random.default_rng(12)
        classes = []
        for e in range(-5, 13):
            xs = []
            for kept in range(1, 13):
                digits = rng.integers(10 ** (kept - 1), 10 ** kept, 4)
                digits += digits % 10 == 0  # the last kept digit is not zero
                xs += [float(f"{m}e{e - kept + 1}") for m in digits]
            classes.append(xs)
        for k in range(-16, 1):
            near = [float(f"999999999999{d}e{k - 1}") for d in (4, 5, 6, 9)]
            classes.append(near + [float(np.nextafter(x, s)) for x in near for s in (0, np.inf)])
        for e in (-4, 0, 5, 11):
            m = rng.integers(10 ** 11, 10 ** 12, 8)
            classes.append([(v + 0.5 + s * 2.0 ** -j) * 10.0 ** (e - 11)
                            for v in m for s in (-1, 1) for j in (9, 10, 11, 12)])
        for xs in classes + [sum(classes, [])]:
            assert written_text(["x"], "%.12g", np.array(xs)) == csv_writer_text(
                ["x"], ([f"{x:.12g}"] for x in xs))
        edges = [0, 1, 9, 10, 9999, 10 ** 4, 10 ** 4 + 1, 10 ** 8 - 1, 10 ** 8,
                 10 ** 8 + 1, 10 ** 12 - 1]
        for k in range(1, len(edges) + 1):  # as many groups as the largest needs
            for ks in (edges[:k], edges[:k][::-1]):
                for dtype in (np.int64, np.uint64):
                    assert written_text(["k"], "%d", np.array(ks, dtype=dtype)) == \
                        csv_writer_text(["k"], ([k] for k in ks))

    def test_column_longer_than_a_block(self):
        # runs of Python-formatted rows (exponent notation, ties, zeros)
        # between laid-out ones, across block boundaries
        rng = np.random.default_rng(11)
        n = 2 * _BLOCK + 7
        xs = rng.random(n) * 10.0 ** rng.integers(-7, 14, n)
        xs[rng.integers(0, n, 200)] = 0.0
        xs[_BLOCK - 3:_BLOCK + 3] = 2.5e-9
        ties = rng.integers(0, n, 100)
        xs[ties] = [_near_tie(m, e, 0) for m, e in
                    zip(rng.integers(10 ** 11, 10 ** 12, 100), rng.integers(-4, 12, 100))]
        ks = rng.integers(-5, 10 ** 13, n)
        assert written_text(["x", "k"], "%.12g,%d", xs, ks) == csv_writer_text(
            ["x", "k"], ([f"{x:.12g}", int(k)] for x, k in zip(xs, ks)))

    def test_integer_field_rejects_floats(self):
        with pytest.raises(ValueError, match="integers"):
            write_rows(io.BytesIO(), "%d", np.array([1.0, 2.0]))

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
                                   observe_times=obs)
            run = run_simulation(cfg, sink=lambda t, i: None)
            traj = RankingTrajectory(obs, run.boundary_counts + 1.0)
            res = fit_pareto(traj)
            assert res.a_star == pytest.approx(a0, rel=0.10, abs=0.0), f"seed {seed}"
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

    @pytest.mark.parametrize("grid", ["0:0.5:0.1", "bad", "0.5:1.2:0.1"])
    def test_bad_grid_writes_nothing(self, tmp_path, capsys, grid):
        # a rerun with a corrected grid must not trip over a stale fit file
        csv_path = low_trajectory_csv(tmp_path, sigma=0.0)
        prefix = tmp_path / "rep"
        assert cli.main(["report", str(csv_path), "-o", str(prefix), "--r-grid", grid]) == 1
        assert "rankflow: error:" in capsys.readouterr().err
        assert list(tmp_path.glob("rep_*")) == []


# Runs main in a fresh interpreter and prints the scipy modules it loaded.
NO_SCIPY_DRIVER = ("import sys\n"
                   "from rankflow.cli import main\n"
                   "code = main(sys.argv[1:])\n"
                   "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
                   "sys.exit(code)\n")


class TestNumpyOnlyRuntime:
    @pytest.mark.parametrize("verb", ["fit", "report", "simulate", "shares", "eval"])
    def test_process_loads_no_scipy(self, tmp_path, verb):
        # shares and eval run at b = 2, the order z = 1 - b = -1 of the kernel
        if verb in ("fit", "report"):
            d = SalesRateDistribution.pareto(LOW_A, LOW_B)
            traj = synthesize_noisy_trajectory(d, 857000, np.linspace(10.0, 1900.0, 200),
                                               200.0, seed=1)
            traj.to_csv(tmp_path / "traj.csv")
            argv = [verb, str(tmp_path / "traj.csv"), "-o", str(tmp_path / "out")]
        elif verb == "simulate":
            write_sim_config(tmp_path / "sim.cfg", n_items=50, horizon=100.0,
                             observe_every=10.0, track_item=49)
            argv = [verb, str(tmp_path / "sim.cfg"), "-o", str(tmp_path / "run")]
        elif verb == "shares":
            argv = [verb, "--a", "1", "--b", "2", "--gamma", "0.1",
                    "--r-grid", "0.01:0.99:0.01", "-o", str(tmp_path / "shares.csv")]
        else:
            argv = [verb, "--a", "1", "--b", "2", "--n", "1000",
                    "--times", "0,1e-6,0.5,1.5,30,1e5"]
        proc = subprocess.run([sys.executable, "-c", NO_SCIPY_DRIVER, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


# Prints whether numpy is loaded after `import rankflow`, then the thread
# count and OpenBLAS setting after `import rankflow.cli`.
START_UP_DRIVER = ("import os, sys\n"
                   "import rankflow\n"
                   "print('numpy' in sys.modules)\n"
                   "import rankflow.cli\n"
                   "tasks = '/proc/self/task'\n"
                   "print(len(os.listdir(tasks)) if os.path.isdir(tasks) else None)\n"
                   "print(os.environ['OPENBLAS_NUM_THREADS'])\n")


# Prints the rankflow modules loaded after `import rankflow.cli` and, given
# a verb's arguments, those loaded after `main` ran it.
MODULES_DRIVER = ("import json, sys\n"
                  "import rankflow.cli\n"
                  "loaded = lambda: sorted(m for m in sys.modules if m.startswith('rankflow.'))\n"
                  "print(json.dumps(loaded()))\n"
                  "if sys.argv[1:]:\n"
                  "    code = rankflow.cli.main(sys.argv[1:])\n"
                  "    print(json.dumps(loaded()))\n"
                  "    sys.exit(code)\n")

# Sets hooks on rankflow.cli as perfbench's traced run does, before any verb
# has run, then runs the verb given.
HOOK_DRIVER = ("import sys\n"
               "import rankflow.cli as cli, rankflow.limit as limit\n"
               "def fake(traj, *args, **kwargs):\n"
               "    raise RuntimeError(f'fake fit of {traj.n_d} points')\n"
               "cli.fit_pareto = fake\n"
               "try:\n"
               "    cli.no_such_name\n"
               "except AttributeError:\n"
               "    print('AttributeError')\n"
               "# reading one name binds its module's line, as an import would, so a\n"
               "# hook set on the library module afterwards does not reach rankflow.cli\n"
               "raw = cli.build_share_report and limit.y_c\n"
               "limit.y_c = fake\n"
               "print(cli.y_c is raw)\n"
               "limit.y_c = raw\n"
               "sys.exit(cli.main(sys.argv[1:]))\n")


# Prints the collector's state before and after `import rankflow.cli`.
GC_DRIVER = ("import gc\n"
             "print(gc.isenabled(), gc.get_freeze_count())\n"
             "import rankflow.cli\n"
             "print(gc.isenabled(), gc.get_freeze_count())\n")

# Runs the process entry on the arguments given, with fit reporting
# non-convergence, and prints the collector's state from an atexit handler.
ENTRY_DRIVER = ("import atexit, gc\n"
                "import rankflow.cli as cli\n"
                "from rankflow.fit import FitResult\n"
                "cli.fit_pareto = lambda *a, **k: FitResult(1.0, 1.0, 0.5, 1.0, 1.0, False, 6)\n"
                "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0))\n"
                "cli.process_entry()\n")


class TestStartUp:
    def run_driver(self, **env):
        base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        proc = subprocess.run([sys.executable, "-c", START_UP_DRIVER],
                              capture_output=True, text=True, env={**base, **env})
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_cli_runs_numpy_on_one_thread(self):
        numpy_loaded, threads, setting = self.run_driver()
        assert numpy_loaded == "False"  # so the CLI sets numpy's environment first
        assert setting == "1"
        if threads == "None":
            pytest.skip("no /proc/self/task on this platform")
        assert threads == "1"

    def test_user_setting_wins(self):
        assert self.run_driver(OPENBLAS_NUM_THREADS="2")[2] == "2"

    def run_modules(self, *argv):
        proc = subprocess.run([sys.executable, "-c", MODULES_DRIVER, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return [set(json.loads(line)) for line in proc.stdout.splitlines()
                if line.startswith("[")]

    def test_import_loads_no_library_module(self):
        (after_import,) = self.run_modules()
        assert after_import == {"rankflow.cli"}

    @pytest.mark.parametrize("verb", ["eval", "shares"])
    def test_tables_load_neither_fitter_nor_simulator(self, tmp_path, verb):
        if verb == "eval":
            argv = [verb, "--a", "1", "--b", "1.2", "--n", "10", "--times", "0.5,2"]
        else:
            argv = [verb, "--a", "1", "--b", "1.2", "-o", str(tmp_path / "shares.csv")]
        after_import, after_verb = self.run_modules(*argv)
        assert after_import == {"rankflow.cli"}
        assert {"rankflow.dist", "rankflow.limit"} <= after_verb
        assert not {"rankflow.fit", "rankflow.sim"} & after_verb

    def test_fit_loads_no_simulator(self, tmp_path):
        csv_path = low_trajectory_csv(tmp_path, sigma=0.0)
        _, after_fit = self.run_modules("fit", str(csv_path), "-o", str(tmp_path / "f.json"))
        assert "rankflow.fit" in after_fit and "rankflow.sim" not in after_fit

    def test_hook_set_before_any_verb_is_called(self, tmp_path):
        # perfbench replaces rankflow.cli names before a verb binds them;
        # binding must keep the replacement, and unknown names still raise
        csv_path = low_trajectory_csv(tmp_path, sigma=0.0)
        proc = subprocess.run([sys.executable, "-c", HOOK_DRIVER, "fit", str(csv_path),
                               "-o", str(tmp_path / "f.json")],
                              capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout.split() == ["AttributeError", "True"]
        assert proc.stderr.startswith("rankflow: error: fake fit of ")
        assert not (tmp_path / "f.json").exists()

    def test_import_leaves_the_collector_alone(self):
        proc = subprocess.run([sys.executable, "-c", GC_DRIVER], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        before, after = proc.stdout.splitlines()
        assert before.startswith("True ") and after == before

    def test_main_leaves_the_collector_alone(self, capsys):
        before = gc.isenabled(), gc.get_freeze_count()
        assert cli.main(["eval", "--a", "1", "--b", "1.2", "--n", "10", "--times", "0.5,2"]) == 0
        assert before[0] and (gc.isenabled(), gc.get_freeze_count()) == before

    @pytest.mark.parametrize("argv", [
        ["shares", "--a", "1", "--b", "1.2", "--r-grid", "0.01:0.9:0.01", "-o", "shares.csv"],
        ["eval", "--a", "1", "--b", "1.2", "--n", "10", "--t-grid", "1:5000:1"],
    ], ids=["shares", "eval"])
    def test_module_entry_writes_what_main_writes(self, tmp_path, capsys, monkeypatch, argv):
        # exit 0: every output file complete and stdout flushed at exit
        entry, direct = tmp_path / "entry", tmp_path / "main"
        entry.mkdir()
        direct.mkdir()
        # the package's own location, as PYTHONPATH may be relative
        env = {**os.environ, "PYTHONPATH": os.path.dirname(rankflow.__path__[0])}
        proc = subprocess.run([sys.executable, "-m", "rankflow.cli", *argv], cwd=entry,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stderr == ""
        monkeypatch.chdir(direct)
        assert cli.main(argv) == 0
        assert proc.stdout == capsys.readouterr().out
        assert sorted(p.name for p in entry.iterdir()) == sorted(p.name for p in direct.iterdir())
        for path in direct.iterdir():
            assert read_raw(entry / path.name) == read_raw(path)

    @pytest.mark.parametrize("argv, needle", [
        (["shares", "--a", "1.0"], "required: --b"),
        (["eval", "--a", "1", "--b", "1.2", "--n", "0", "--times", "1"], "--n must be >= 1"),
    ], ids=["usage", "input"])
    def test_module_entry_exits_one(self, argv, needle):
        proc = subprocess.run([sys.executable, "-m", "rankflow.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == "" and needle in proc.stderr and "Traceback" not in proc.stderr

    def test_entry_exits_two_with_the_fit_written(self, tmp_path):
        # non-convergence keeps its exit code through the entry's freeze, the
        # fit file is written, and atexit handlers still run
        csv_path = low_trajectory_csv(tmp_path, sigma=0.0)
        out = tmp_path / "f.json"
        proc = subprocess.run([sys.executable, "-c", ENTRY_DRIVER, "fit", str(csv_path),
                               "-o", str(out)], capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        fit_line, at_exit = proc.stdout.splitlines()
        assert "converged=False" in fit_line and at_exit == "True True"
        assert json.loads(out.read_text())["converged"] is False

    def test_lazy_exports_match_the_modules(self):
        # the table of names that `import rankflow` resolves on first use
        # lists each module's __all__, so a name removed from a module fails
        # here, not at a user's first attribute access
        for module, names in rankflow._PUBLIC.items():
            mod = importlib.import_module(f"rankflow.{module}")
            assert sorted(names) == sorted(mod.__all__), module
        for name in rankflow.__all__:
            assert getattr(rankflow, name) is not None


class TestOracleCommand:
    def test_gamma_identity(self, capsys):
        assert cli.main(["oracle", "gamma", "1", "2"]) == 0
        value = float(capsys.readouterr().out.split()[0])
        assert value == pytest.approx(math.exp(-2.0), rel=1e-10, abs=0.0)

    def test_laplace_and_q(self, capsys):
        assert cli.main(["oracle", "laplace", str(LOW_A), str(LOW_B), "100"]) == 0
        value = float(capsys.readouterr().out.split()[0])
        assert value == pytest.approx(0.753934042845, rel=1e-9, abs=0.0)
        assert cli.main(["oracle", "q", "1.2", "0.5"]) == 0
        value = float(capsys.readouterr().out.split()[0])
        assert value == pytest.approx(0.308677051630, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("args", [["-1", "0.6312", "100"], ["3.939e-4", "-0.5", "100"],
                                      ["3.939e-4", "0.6312", "100", "--gamma", "-0.5"],
                                      ["3.939e-4", "0.6312", "100", "--gamma", "nan"],
                                      ["3.939e-4", "0.6312", "inf"]])
    def test_laplace_rejects_bad_input(self, capsys, args):
        assert cli.main(["oracle", "laplace", *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("rankflow: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("args", [["nan", "1"], ["inf", "1"], ["0.5", "inf"]])
    def test_gamma_rejects_non_finite_input(self, capsys, args):
        assert cli.main(["oracle", "gamma", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rankflow: error: ") and captured.err.count("\n") == 1

    def test_shares_subcommand(self, capsys):
        assert cli.main(["oracle", "shares", "2.0", "1.5", "0", "1"]) == 0
        value = float(capsys.readouterr().out.split()[0])
        assert value == pytest.approx(6.0, rel=1e-8, abs=0.0)

    def test_without_scipy_exits_one_naming_the_extra(self):
        driver = ("import sys\n"
                  "sys.modules['scipy'] = None\n"
                  "from rankflow.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        proc = subprocess.run([sys.executable, "-c", driver, "oracle", "gamma", "-0.5", "1"],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("rankflow: error:"), proc.stderr
        assert "'oracle' extra" in lines[0]


class TestArgumentHandling:
    def test_unknown_verb_exits_one(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 1

    def test_missing_required_flag_exits_one(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["shares", "--a", "1.0"])
        assert err.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["fit", "traj.csv", "-o", "fit.json", "--workers", "2"],
        ["report", "traj.csv", "-o", "rep", "--workers", "2"],
        ["oracle", "laplace", "pareto", str(LOW_A), str(LOW_B), "100"],
    ], ids=["fit", "report", "oracle-laplace"])
    def test_removed_spellings_are_usage_errors(self, tmp_path, monkeypatch, argv):
        low_trajectory_csv(tmp_path)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["traj.csv"]

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "rankflow.cli", "eval", "--a", "1", "--b",
             "0.5", "--n", "10", "--times", "0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == "0,0,0"
