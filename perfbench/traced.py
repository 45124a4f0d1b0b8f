"""The traced run: the same CLI jobs in-process, with spans at each layer.

Per-layer metrics come from the jobs of the workload whose end-to-end
metrics they should move (see PER_LAYER), so one traced run measures every
layer whichever workload is named on the command line. The named workload
also runs once in-process without hooks; the difference between its traced
and plain wall time is the tracing overhead.
"""

from __future__ import annotations

import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import check_job, output_bytes, output_digest
from tracer import Hook, Tracer
from workloads import WORKLOADS, Job, build_jobs


def _lanes(pos: int, key: str):
    def attrs(args, kwargs, result):
        return {"lanes": int(np.size(args[pos] if len(args) > pos else kwargs[key]))}
    return attrs


def _report_rows(args, kwargs, result):
    return {"rows": int(np.size(result.r))}


def _sim_run(args, kwargs, result):
    log = sum(a.nbytes for a in (result.event_times, result.event_items) if a is not None)
    return {"events": int(result.total_events), "log_bytes": int(log)}


HOOKS = [
    Hook("rankflow.cli", "main", "cli.main"),
    Hook("rankflow.cli", "fit_pareto", "fit.fit_pareto"),
    Hook("rankflow.cli", "RankingTrajectory.from_csv", "fit.csv_read"),
    Hook("rankflow.fit", "minimize", "fit.descent"),
    Hook("rankflow.fit", "_pareto_y_grid", "limit.curve_grid"),
    Hook("rankflow.cli", "build_share_report", "limit.share_report", _report_rows),
    Hook("rankflow.limit", "invert_y_c", "limit.invert"),
    Hook("rankflow.limit", "y_c", "limit.y_c"),
    Hook("rankflow.cli", "y_c", "limit.y_c"),
    Hook("rankflow.limit", "laplace_transform", "dist.laplace", _lanes(1, "t")),
    Hook("rankflow.limit", "_gamma_upper_grid", "special.grid", _lanes(1, "p")),
    Hook("rankflow.dist", "_gamma_upper_grid", "special.grid", _lanes(1, "p")),
    Hook("rankflow.limit", "_gamma_upper", "special.scalar"),
    Hook("rankflow.dist", "_gamma_upper", "special.scalar"),
    Hook("rankflow.cli", "run_simulation", "sim.run", _sim_run),
    Hook("rankflow.sim", "_build_alias", "sim.alias"),
]


class _Spans:
    """Span queries restricted to the jobs of one or more workloads."""

    def __init__(self, tracer: Tracer, workloads: tuple[str, ...]):
        own = tracer.self_times()
        self.rows = [(s, own[i], i) for i, s in enumerate(tracer.spans)
                     if s[4] is not None and s[4].split("/")[0] in workloads]
        self.spans = tracer.spans

    def of(self, name: str) -> list[list]:
        return [s for s, _, _ in self.rows if s[0] == name]

    def count(self, name: str) -> int:
        return len(self.of(name))

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.of(name))

    def self_total(self, name: str) -> float:
        return sum(own for s, own, _ in self.rows if s[0] == name)

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s[5][key] for s in self.of(name))

    def attr_mean(self, name: str, key: str) -> float:
        vals = [s[5][key] for s in self.of(name)]
        return sum(vals) / len(vals)

    def children_of(self, child: str, parent: str) -> int:
        return sum(1 for s, _, _ in self.rows
                   if s[0] == child and s[3] >= 0 and self.spans[s[3]][0] == parent)


# name -> (unit, source workloads, spans it needs, value from the spans).
# Times are totals over one pass of the source workload's job list unless
# the name says per call.
PER_LAYER = {
    "cli.self_s": ("s", ("simulate",), ("cli.main", "sim.run"),
                   lambda q: q.self_total("cli.main")),
    "cli.bytes_out": ("B", ("simulate",), (), None),
    "fit.fit_pareto_s": ("s", ("fit",), ("fit.fit_pareto",),
                         lambda q: q.total("fit.fit_pareto") / q.count("fit.fit_pareto")),
    "fit.curve_evals": ("count", ("fit",), ("fit.fit_pareto", "limit.curve_grid"),
                        lambda q: q.count("limit.curve_grid") / q.count("fit.fit_pareto")),
    "fit.descents": ("count", ("fit",), ("fit.fit_pareto", "fit.descent"),
                     lambda q: q.count("fit.descent") / q.count("fit.fit_pareto")),
    "fit.descent_s": ("s", ("fit",), ("fit.descent",), lambda q: q.total("fit.descent")),
    "fit.csv_read_s": ("s", ("fit",), ("fit.csv_read",), lambda q: q.total("fit.csv_read")),
    "fit.pool_speedup": ("ratio", ("fit",), (), None),
    "limit.curve_grid_s": ("s", ("fit",), ("limit.curve_grid",),
                           lambda q: q.total("limit.curve_grid")),
    "limit.share_report_s": ("s", ("tables",), ("limit.share_report",),
                             lambda q: q.total("limit.share_report")),
    "limit.inversions": ("count", ("tables",), ("limit.share_report", "limit.invert"),
                         lambda q: q.count("limit.invert")
                         / q.attr_sum("limit.share_report", "rows")),
    "limit.curve_calls_per_inversion": ("count", ("tables",), ("limit.invert", "limit.y_c"),
                                        lambda q: q.children_of("limit.y_c", "limit.invert")
                                        / q.count("limit.invert")),
    "limit.invert_s": ("s", ("tables",), ("limit.invert",), lambda q: q.total("limit.invert")),
    "limit.y_c_calls": ("count", ("tables",), ("limit.y_c",), lambda q: q.count("limit.y_c")),
    "dist.laplace_lanes_per_call": ("count", ("tables",), ("dist.laplace",),
                                    lambda q: q.attr_mean("dist.laplace", "lanes")),
    "special.grid_calls": ("count", ("fit", "tables"), ("special.grid",),
                           lambda q: q.count("special.grid")),
    "special.grid_lanes_per_call": ("count", ("tables",), ("special.grid",),
                                    lambda q: q.attr_mean("special.grid", "lanes")),
    "special.scalar_calls": ("count", ("tables",), ("special.scalar",),
                             lambda q: q.count("special.scalar")),
    "special.kernel_s": ("s", ("fit", "tables"), ("special.grid", "special.scalar"),
                         lambda q: q.total("special.grid") + q.total("special.scalar")),
    "sim.run_s": ("s", ("simulate",), ("sim.run",), lambda q: q.total("sim.run")),
    "sim.events": ("count", ("simulate",), ("sim.run",),
                   lambda q: q.attr_sum("sim.run", "events")),
    "sim.events_per_s": ("1/s", ("simulate",), ("sim.run",),
                         lambda q: q.attr_sum("sim.run", "events") / q.total("sim.run")),
    "sim.alias_s": ("s", ("simulate",), ("sim.alias",), lambda q: q.total("sim.alias")),
    "sim.event_log_bytes": ("B", ("simulate",), ("sim.run",),
                            lambda q: q.attr_sum("sim.run", "log_bytes")),
    "oracle.check_s": ("s", WORKLOADS, (), None),
    "trace.overhead_s": ("s", WORKLOADS, (), None),
}


def run_inprocess(cli, job: Job, outdir: Path) -> tuple[int | str, float]:
    """Call ``cli.main`` for one job with cwd, stdout and stderr redirected."""
    outdir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    with open(outdir / job.stdout_name, "w") as out, \
            open(outdir / f"{job.name}.err", "w") as err:
        os.chdir(outdir)
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(job.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash inside the program is a failed job
            code = f"{type(exc).__name__}: {exc}"
        finally:
            wall = perf_counter() - t0
            os.chdir(cwd)
    return code, wall


def pool_speedup(trajectory_csv: str) -> float | None:
    """fit_pareto wall time at workers=1 over workers=2, on one trajectory.

    None when the fitter no longer takes a worker count.
    """
    try:
        from rankflow.fit import FitOptions, RankingTrajectory, fit_pareto
        traj = RankingTrajectory.from_csv(trajectory_csv)
        times = {}
        for workers in (1, 2):
            t0 = perf_counter()
            fit_pareto(traj, FitOptions(workers=workers))
            times[workers] = perf_counter() - t0
    except (ImportError, AttributeError, TypeError):
        return None
    return times[1] / times[2]


def run_traced(workload: str, seed: int, work: Path, spans_path: Path) -> dict:
    """Trace every workload's job list once; returns metrics and failures."""
    import rankflow.cli as cli
    import rankflow.oracle as oracle

    jobs = {w: build_jobs(w, seed, work / "inputs" / w) for w in WORKLOADS}
    speedup = pool_speedup(jobs["fit"][0].spec["input"])
    tracer = Tracer()

    def run_list(label: str, w: str) -> tuple[float, list]:
        done, total = [], 0.0
        for job in jobs[w]:
            tracer.job = f"{w}/{job.name}"
            code, wall = run_inprocess(cli, job, work / label / w)
            total += wall
            done.append((job, code))
        tracer.job = None
        return total, done

    plain_wall, plain = run_list("plain", workload)
    traced_wall, finished = {}, {}
    tracer.install(HOOKS)
    try:
        for w in WORKLOADS:
            traced_wall[w], finished[w] = run_list("traced", w)
    finally:
        tracer.uninstall()

    # one entry per job attempt: the traced jobs, then the plain pass, whose
    # outputs must be byte-identical to the traced ones
    failures: dict[str, list[str]] = {}
    t0 = perf_counter()
    for w in WORKLOADS:
        for job, code in finished[w]:
            failures[f"{w}/{job.name}"] = check_job(job, work / "traced" / w, code, oracle)
    for job, code in plain:
        bad = [f"exit code {code}"] if code != 0 else []
        if not bad and output_digest(job, work / "plain" / workload) != \
                output_digest(job, work / "traced" / workload):
            bad = ["plain and traced outputs differ"]
        failures[f"{workload}/{job.name} (plain)"] = bad
    check_s = perf_counter() - t0
    bytes_out = sum(output_bytes(job, work / "traced" / "simulate")
                    for job, _ in finished["simulate"])

    special = {"cli.bytes_out": bytes_out, "fit.pool_speedup": speedup,
               "oracle.check_s": check_s,
               "trace.overhead_s": traced_wall[workload] - plain_wall}
    missing_spans = {h.span for h in HOOKS if h.target in tracer.missing}
    metrics, missing, queries = {}, [], {}
    for name, (unit, sources, needs, value) in PER_LAYER.items():
        if missing_spans.intersection(needs):
            missing.append(name)
            continue
        if name in special:
            v = special[name]
            if v is None:
                missing.append(name)
                continue
        else:
            if sources not in queries:
                queries[sources] = _Spans(tracer, sources)
            try:
                v = value(queries[sources])
            except (ZeroDivisionError, KeyError, TypeError):
                missing.append(name)  # the layer was never reached
                continue
        metrics[name] = {"value": float(v), "unit": unit}

    tracer.write(spans_path, {"workload": workload, "seed": seed,
                              "missing_hooks": tracer.missing})
    return {
        "metrics": metrics,
        "missing_metrics": missing,
        "missing_hooks": tracer.missing,
        "failures": failures,
        "wall": {"plain": plain_wall, "traced": traced_wall},
    }
