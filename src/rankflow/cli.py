"""Command-line surface: simulate, fit, evaluate, and report.

Exit codes are a stable contract: 0 success, 1 input or I/O error,
2 numerical non-convergence (the result file is still written).
All file formats use hours as the time unit and locale-independent
decimals with 12 significant digits; day/month inputs are converted at
the boundary only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import math
import os
import sys

# set before numpy loads OpenBLAS: its default thread pool costs start-up
# time, and rankflow's only BLAS calls are small dot products. A value the
# user has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

if __name__ == "__main__":  # a program run; importers keep their collector
    gc.disable()  # numpy's import builds no garbage; process_entry freezes it all

import numpy as np  # noqa: E402

# the library names the verbs call, by module. Each line is imported on
# first use, so that a job compiles only the modules its verb runs: a verb
# loads its modules with _load, and reading a name from this module loads
# that name's line (PEP 562). Either binds the whole line, as
# `from .<module> import ...` would, and keeps a name already set, such as a
# benchmark hook or a test's replacement set before any verb ran.
_LIBRARY = {
    "_csvio": ["open_csv", "write_rows"],
    "dist": ["SalesRateDistribution", "discrete_rates"],
    "fit": ["TRAJECTORY_HEADER", "RankingTrajectory", "fit_pareto"],
    "limit": ["build_share_report", "y_c"],
    "sim": ["SimulationConfig", "run_simulation"],
}
_HOME = {name: module for module, names in _LIBRARY.items() for name in names}

_TIME_UNIT_HOURS = {"hour": 1.0, "day": 24.0, "month": 720.0}

_FMT = "{:.12g}"
_MAX_GRID_POINTS = 10**6  # cap on grid specs and the simulate observation grid


def _load(*modules: str) -> None:
    """Bind the _LIBRARY names of each module, keeping any name already set."""
    for module in modules:
        # relative to __package__: under `python -m rankflow.cli`, __name__ is __main__
        mod = importlib.import_module(f".{module}", __package__)
        for name in _LIBRARY[module]:
            globals().setdefault(name, getattr(mod, name))


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_HOME[name])
    return globals()[name]


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _ensure_writable(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")


def _parse_grid(spec: str) -> np.ndarray:
    """start:stop:step grid specification, endpoints included."""
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise ValueError(f"bad grid spec {spec!r}; expected start:stop:step") from None
    if not (math.isfinite(start) and start <= stop < math.inf and 0.0 < step < math.inf):
        raise ValueError(f"bad grid spec {spec!r}: need finite values, step > 0 "
                         "and stop >= start")
    span = (stop - start) / step  # may overflow to inf; counted before np.arange
    if not span < _MAX_GRID_POINTS - 0.5:
        raise ValueError(f"grid spec {spec!r} asks for more than {_MAX_GRID_POINTS} points")
    return start + step * np.arange(int(round(span)) + 1)


def _cmd_fit(args) -> int:
    _ensure_writable(args.output, args.force)
    _load("fit")
    traj = RankingTrajectory.from_csv(args.input)
    scale = _TIME_UNIT_HOURS[args.time_unit]
    if scale != 1.0:
        traj = RankingTrajectory(traj.times * scale, traj.ranks, meta=traj.meta)
    result = fit_pareto(traj)
    with open(args.output, "w") as fh:
        fh.write(result.to_json() + "\n")
    print(f"fit: N*={_FMT.format(result.n_star)} a*={_FMT.format(result.a_star)}/hour "
          f"b*={_FMT.format(result.b_star)} chi2={_FMT.format(result.chi2)} "
          f"converged={result.converged}")
    return 0 if result.converged else 2


def _cmd_shares(args) -> int:
    _ensure_writable(args.output, args.force)
    _load("dist", "limit")
    dist = SalesRateDistribution.pareto_cutoff(args.a, args.b, args.gamma)
    report = build_share_report(dist, _parse_grid(args.r_grid))
    report.to_csv(args.output)
    print(f"shares: wrote {len(report.r)} rows to {args.output}")
    return 0


def _cmd_eval(args) -> int:
    _load("dist", "limit")
    dist = SalesRateDistribution.pareto_cutoff(args.a, args.b, args.gamma)
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    if args.times:
        ts = np.array([float(x) for x in args.times.split(",")])
    elif args.t_grid:
        ts = _parse_grid(args.t_grid)
    else:
        raise ValueError("give --times or --t-grid")
    ts = ts * _TIME_UNIT_HOURS[args.time_unit]
    if not np.all(np.isfinite(ts) & (ts >= 0.0)):
        raise ValueError("times must be finite and non-negative")
    ys = y_c(dist, ts)
    print("t_hours,y_c,x_c")
    for t, y in zip(ts, ys):
        print(f"{_FMT.format(t)},{_FMT.format(y)},{_FMT.format(args.n * y)}")
    return 0


def _load_sim_config(path: str) -> tuple[SimulationConfig, bool]:
    """The run a config file describes, and whether it asks for snapshots."""
    _load("dist", "sim")
    required = {"n_items", "a", "b", "horizon", "seed", "observe_every"}
    optional = {"gamma", "track_item", "snapshots", "max_events"}
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in required | optional:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    missing = required - values.keys()
    if missing:
        raise ValueError(f"{path}: missing keys: {', '.join(sorted(missing))}")

    def number(key, kind=float, default=None):
        try:
            return kind(values.get(key, default))
        except ValueError as exc:
            raise ValueError(f"{path}: {key}: {exc}") from None

    n_items, seed = number("n_items", int), number("seed", int)
    if seed < 0:
        raise ValueError(f"{path}: seed must be a non-negative integer, got {seed}")
    a, b, gamma = number("a"), number("b"), number("gamma", default="0")
    horizon, every = number("horizon"), number("observe_every")
    if not (0.0 < every < math.inf and 0.0 < horizon < math.inf):
        raise ValueError(f"{path}: need finite observe_every > 0 and horizon > 0")
    stop = horizon * (1.0 + 1e-12)
    if (stop - every) / every >= _MAX_GRID_POINTS:
        raise ValueError(f"{path}: horizon/observe_every asks for more than "
                         f"{_MAX_GRID_POINTS} observations")
    observe_times = np.arange(every, stop, every)
    # k * every can land just past a horizon that is a multiple of every
    np.minimum(observe_times, horizon, out=observe_times)
    snapshots = values.get("snapshots", "0").lower()
    if snapshots not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"{path}: snapshots must be 1, true, yes, 0, false or no, "
                         f"got {values['snapshots']!r}")
    track_item = number("track_item", int) if values.get("track_item") else None
    if track_item is not None and not 0 <= track_item < n_items:
        raise ValueError(f"{path}: track_item out of range")
    return SimulationConfig(
        rates=discrete_rates(n_items, a, b, gamma),
        horizon=horizon,
        seed=seed,
        observe_times=observe_times,
        track_item=track_item,
        max_events=number("max_events", default="1e8"),
    ), snapshots in ("1", "true", "yes")


def _cmd_simulate(args) -> int:
    cfg, snapshots = _load_sim_config(args.config)
    _load("_csvio", "fit", "sim")
    events_path = f"{args.output_prefix}_events.csv"
    traj_path = f"{args.output_prefix}_trajectory.csv"
    snap_paths = [f"{args.output_prefix}_snapshot_{k:04d}.csv"
                  for k in range(cfg.observe_times.size if snapshots else 0)]
    for path in (events_path, traj_path, *snap_paths):
        _ensure_writable(path, args.force)  # before the run, so nothing is half written
    unwritten, written = iter(snap_paths), []

    def create(path, header):  # recorded once open, for removal if the run fails
        fh = open_csv(path, header)
        written.append(path)
        return fh

    def write_snapshot(theta, ranks):  # each ranking goes to its file when taken
        with create(next(unwritten), ["item", "w", "rank"]) as sfh:
            write_rows(sfh, "%d,%.12g,%d", range(cfg.n_items), cfg.rates, ranks)

    try:
        with create(events_path, ["t", "item"]) as fh:
            run = run_simulation(cfg, sink=lambda t, i: write_rows(fh, "%.12g,%d", t, i),
                                 snapshot_sink=write_snapshot if snapshots else None)
        traj = run.tracked_trajectory
        if traj is not None:
            with create(traj_path, TRAJECTORY_HEADER) as tfh:
                write_rows(tfh, "%.12g,%.12g", traj.times, traj.ranks)
    except BaseException:
        for path in written:
            os.remove(path)  # a failed run leaves no partial output file
        raise
    print(f"simulate: {run.total_events} events, wrote {events_path}")
    return 0


def _cmd_report(args) -> int:
    fit_path = f"{args.output_prefix}_fit.json"
    shares_path = f"{args.output_prefix}_shares.csv"
    _ensure_writable(fit_path, args.force)
    _ensure_writable(shares_path, args.force)
    _load("fit", "dist", "limit")
    r_grid = _parse_grid(args.r_grid)
    traj = RankingTrajectory.from_csv(args.input)
    result = fit_pareto(traj)
    report = build_share_report(SalesRateDistribution.pareto(result.a_star, result.b_star),
                                r_grid)
    # written only now, so that a bad grid leaves no fit file behind
    with open(fit_path, "w") as fh:
        fh.write(result.to_json() + "\n")
    report.to_csv(shares_path)
    print(f"report: b*={_FMT.format(result.b_star)} "
          f"({'converged' if result.converged else 'NOT converged'}); "
          f"wrote {fit_path} and {shares_path}")
    return 0 if result.converged else 2


def _cmd_oracle(args) -> int:
    try:  # imported here: scipy.integrate slows every other verb's start
        from . import oracle
    except ImportError as exc:
        raise RuntimeError(f"the oracle verb needs scipy ({exc}); "
                           "install the 'oracle' extra: pip install rankflow[oracle]") from exc
    if args.what == "gamma":
        v, e = oracle.gamma_quad(args.z, args.p)
        print(f"{_FMT.format(v)} +- {e:.3g}")
    elif args.what == "laplace":
        v, e = oracle.laplace_quad(args.a, args.b, args.t, gamma=args.gamma)
        print(f"{_FMT.format(v)} +- {e:.3g}")
    elif args.what == "q":
        v = oracle.q_quad(args.b, args.r)
        resid = abs((1.0 - oracle.laplace_quad(1.0, args.b, v)[0]) - args.r)
        print(f"{_FMT.format(v)} +- residual {resid:.3g}")
    else:  # shares
        v, e = oracle.ranking_share_quad(args.a, args.b, args.r1, args.r2,
                                         gamma=args.gamma)
        print(f"{_FMT.format(v)} +- {e:.3g}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="rankflow",
                     description="stochastic ranking process toolkit")
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    p = sub.add_parser("fit", help="least-squares (N, a, b) from a trajectory CSV")
    p.add_argument("input", help="CSV with header t_hours,rank")
    p.add_argument("-o", "--output", required=True, help="FitResult JSON path")
    p.add_argument("--time-unit", choices=sorted(_TIME_UNIT_HOURS), default="hour")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("shares", help="tabulate tail sales shares over an r grid")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--r-grid", default="0.01:0.9:0.01", help="start:stop:step")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_shares)

    p = sub.add_parser("eval", help="print t, y_c(t), x_c(t) rows")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--n", type=int, required=True, help="catalog size N")
    p.add_argument("--times", help="comma-separated times")
    p.add_argument("--t-grid", help="start:stop:step")
    p.add_argument("--time-unit", choices=sorted(_TIME_UNIT_HOURS), default="hour")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("simulate", help="run the finite-N process from a config file")
    p.add_argument("config", help="flat key=value file")
    p.add_argument("-o", "--output-prefix", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="fit a trajectory, then emit its share table")
    p.add_argument("input", help="CSV with header t_hours,rank")
    p.add_argument("-o", "--output-prefix", required=True)
    p.add_argument("--r-grid", default="0.01:0.9:0.01")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("oracle", help="quadrature/bisection reference values")
    osub = p.add_subparsers(dest="what", required=True, parser_class=_Parser)
    g = osub.add_parser("gamma")
    g.add_argument("z", type=float)
    g.add_argument("p", type=float)
    lap = osub.add_parser("laplace")
    lap.add_argument("a", type=float)
    lap.add_argument("b", type=float)
    lap.add_argument("t", type=float)
    lap.add_argument("--gamma", type=float, default=0.0)
    qp = osub.add_parser("q")
    qp.add_argument("b", type=float)
    qp.add_argument("r", type=float)
    sh = osub.add_parser("shares")
    sh.add_argument("a", type=float)
    sh.add_argument("b", type=float)
    sh.add_argument("r1", type=float)
    sh.add_argument("r2", type=float)
    sh.add_argument("--gamma", type=float, default=0.0)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, RuntimeError, MemoryError) as exc:
        print(f"rankflow: error: {exc}", file=sys.stderr)
        return 1


def process_entry() -> None:
    """main as the whole process: `python -m rankflow.cli` and `rankflow`.

    Start-up's objects, then at exit the run's, are frozen out of the cyclic
    collector: none is garbage, and the exit collections would walk them all.
    """
    gc.freeze()
    gc.enable()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    process_entry()
