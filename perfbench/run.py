"""rankflow benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. ``--trace 0`` runs the workload's
CLI jobs as subprocesses (``python -m rankflow.cli`` with PYTHONPATH=src,
because the console script need not be installed), so import cost and file
I/O count; it reports the end-to-end metrics. ``--trace 1`` runs the jobs
in-process with spans at each layer and reports the per-layer metrics (see
traced.py). Every job's output is checked after the timed region; a job
that exits wrongly, writes a missing or malformed file, or fails a check
counts as failed.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it, prefixed "detail: ", holds provenance, per-job samples
and failure messages.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

MIN_LISTS = 2              # job lists per run; later ones are hash-compared
SETUP_PER_LIST = 2         # `import rankflow.cli` samples before each list
JOB_TIMEOUT_S = 150.0
TAIL_BEYOND = 10           # samples required beyond the reported tail percentile


@dataclass
class Sample:
    job: str
    wall: float
    cpu: float
    rss_mb: float
    code: int


def _job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _spawn(argv: list[str], cwd: Path, stdout, stderr) -> tuple[int, float, float, float]:
    """Run one process to completion; (exit code, wall s, cpu s, max RSS MB)."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=_job_env(), stdout=stdout, stderr=stderr)
    watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def time_import(work: Path) -> float:
    """Wall time of one fresh `python -c "import rankflow.cli"` process."""
    code, wall, _, _ = _spawn([sys.executable, "-c", "import rankflow.cli"], work,
                              subprocess.DEVNULL, subprocess.DEVNULL)
    if code != 0:
        raise RuntimeError(f"`import rankflow.cli` exited with {code}")
    return wall


def run_list(jobs, outdir: Path) -> list[Sample]:
    outdir.mkdir(parents=True)
    samples = []
    for job in jobs:
        with open(outdir / job.stdout_name, "wb") as out, \
                open(outdir / f"{job.name}.err", "wb") as err:
            code, wall, cpu, rss = _spawn(
                [sys.executable, "-m", "rankflow.cli", *job.argv], outdir, out, err)
        samples.append(Sample(job.name, wall, cpu, rss, code))
    return samples


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(values)
    k = n - TAIL_BEYOND
    if k < 1:
        return None
    return {"percentile": 100.0 * k / n, "value": sorted(values)[k - 1], "samples": n}


def run_untraced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    from checks import check_job, output_digest
    import rankflow.oracle as oracle
    from workloads import build_jobs

    jobs = build_jobs(workload, seed, work / "inputs")
    time_import(work)  # compiles the bytecode cache; not a sample
    setup: list[float] = []
    lists: list[list[Sample]] = []
    measured = 0.0
    while len(lists) < MIN_LISTS or measured * (1 + 1 / len(lists)) <= seconds:
        # import samples sit between the lists, so they see the same machine
        setup += [time_import(work) for _ in range(SETUP_PER_LIST)]
        lists.append(run_list(jobs, work / f"list_{len(lists)}"))
        measured += sum(s.wall for s in lists[-1])

    # correctness: the first list is checked in full, every later list must
    # have written byte-identical files
    failures: dict[str, list[str]] = {}
    first = work / "list_0"
    digests = {job.name: output_digest(job, first) for job in jobs}
    for i, samples in enumerate(lists):
        for job, s in zip(jobs, samples):
            if i == 0:
                bad = check_job(job, first, s.code, oracle)
            elif s.code != 0:
                bad = [f"exit code {s.code}"]
            elif output_digest(job, work / f"list_{i}") != digests[job.name]:
                bad = ["output differs from the first run of the same job"]
            else:
                bad = failures[f"list_0/{job.name}"]
            failures[f"list_{i}/{job.name}"] = bad

    # every job is deterministic CPU-bound work, so machine noise only adds
    # time: each job is represented by its fastest run in this run
    best_wall = [min(samples[k].wall for samples in lists) for k in range(len(jobs))]
    best_cpu = [min(samples[k].cpu for samples in lists) for k in range(len(jobs))]
    metrics = {
        "wall_s": (sum(best_wall), "s"),
        "job_s_p50": (statistics.median(best_wall), "s"),
        "peak_rss_mb": (max(s.rss_mb for samples in lists for s in samples), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    job_walls = [s.wall for samples in lists for s in samples]
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "cpu_s": sum(best_cpu),
        "failures": failures,
        "setup_samples": setup,
        "list_walls": [sum(s.wall for s in samples) for samples in lists],
        "jobs": [s.__dict__ for samples in lists for s in samples],
        "job_s_tail": tail(job_walls),
    }


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "seed": seed,
        "src_lines": src_lines,
        "invocation": "python -m rankflow.cli with PYTHONPATH=src "
                      "(the rankflow console script is not required)",
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0,
                   help=f"measured time of an untraced run; at least {MIN_LISTS} "
                        "job lists always run, and a traced run makes one pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "rankflow" / "cli.py").is_file():
        print(f"perfbench: no rankflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    STATE.mkdir(exist_ok=True)
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        if args.trace:
            from traced import run_traced
            res = run_traced(args.workload, args.seed, work,
                             STATE / f"spans-{args.workload}.json")
        else:
            res = run_untraced(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # one entry per job attempt, with its failure messages (none if it passed)
    checked = res.pop("failures")
    failed = {job: msgs for job, msgs in checked.items() if msgs}
    attempted = len(checked)
    detail = {"workload": args.workload, "trace": args.trace,
              "provenance": provenance(args.seed), "attempted": attempted,
              "error_rate": len(failed) / attempted, "failed_jobs": failed, **res}
    print("detail: " + json.dumps(detail))
    for job, msgs in failed.items():
        print(f"perfbench: FAILED {job}: {'; '.join(msgs)}", file=sys.stderr)
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": res["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
