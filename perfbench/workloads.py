"""Seeded inputs and CLI job lists for the three benchmark workloads.

Every input file (trajectory CSVs, simulate configs, grids, time lists) is
generated here from the workload seed; the program under test only ever
sees those files and the command lines built from them. The generator uses
scipy directly, never rankflow, so a change to the program cannot change
its own inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import gammaincc

WORKLOADS = ("fit", "tables", "simulate")

# the paper's fitted catalog (arXiv 0804.1837)
PAPER_N = 857000
PAPER_A = 3.939e-4
PAPER_B = 0.6312
LONG_TAIL_B = 1.2

FIT_TRAJECTORIES = 4      # alternating paper / long-tail exponent
FIT_POINTS = 200
FIT_SIGMA = 200.0

SHARE_ROWS = 10           # r grid of about 0.05:0.86:0.09
SHARE_STEP = 0.09
EVAL_TIMES = 24

# (name, a, b, gamma): plain b < 1, plain b > 1, and the head-cutoff law
TABLE_LAWS = (
    ("plain", PAPER_A, PAPER_B, 0.0),
    ("longtail", PAPER_A, LONG_TAIL_B, 0.0),
    ("cutoff", PAPER_A, PAPER_B, 0.1),
)


@dataclass
class Job:
    """One CLI invocation; ``argv`` and file names are relative to its output dir."""

    name: str
    kind: str                     # fit | shares | eval | simulate
    argv: list[str]
    outputs: list[str]            # files the job must write, besides stdout
    spec: dict = field(default_factory=dict)

    @property
    def stdout_name(self) -> str:
        return f"{self.name}.out"


def _upper_gamma(s: float, x: np.ndarray) -> np.ndarray:
    """Unregularized Gamma(s, x) for non-integer s > -3, by downward recursion."""
    k = 0
    while s + k <= 0.0:
        k += 1
    g = gammaincc(s + k, x) * gamma_fn(s + k)
    for j in range(k - 1, -1, -1):
        sj = s + j
        g = (g - x ** sj * np.exp(-x)) / sj
    return g


def pareto_curve(a: float, b: float, t: np.ndarray) -> np.ndarray:
    """Limit curve y(t) = 1 - b (a t)^b Gamma(-b, a t) of the plain power law."""
    x = a * np.asarray(t, dtype=float)
    return 1.0 - b * x ** b * _upper_gamma(-b, x)


def _fit_inputs(rng: np.random.Generator, indir: Path) -> list[Job]:
    jobs = []
    base = np.linspace(10.0, 1900.0, FIT_POINTS)
    half_gap = 0.2 * (base[1] - base[0])
    for k in range(FIT_TRAJECTORIES):
        b = PAPER_B if k % 2 == 0 else LONG_TAIL_B
        times = base + rng.uniform(-half_gap, half_gap, base.size)
        ranks = PAPER_N * pareto_curve(PAPER_A, b, times)
        ranks = np.maximum(ranks + rng.normal(0.0, FIT_SIGMA, times.size), 1.0)
        path = indir / f"traj_{k}.csv"
        with open(path, "w") as fh:
            fh.write("t_hours,rank\n")
            for t, r in zip(times, ranks):
                fh.write(f"{t:.12g},{r:.12g}\n")
        name = f"fit_{k}"
        jobs.append(Job(name, "fit", ["fit", str(path), "-o", f"{name}.json"],
                        [f"{name}.json"],
                        {"n": PAPER_N, "a": PAPER_A, "b": b, "input": str(path)}))
    return jobs


def _table_inputs(rng: np.random.Generator) -> list[Job]:
    start = round(0.05 + rng.uniform(-0.01, 0.01), 4)
    stop = round(start + (SHARE_ROWS - 1) * SHARE_STEP, 4)
    grid_spec = f"{start}:{stop}:{SHARE_STEP}"
    r_grid = start + SHARE_STEP * np.arange(SHARE_ROWS)
    times = np.sort(np.exp(rng.uniform(math.log(1.0), math.log(2.0e4), EVAL_TIMES)))
    times_spec = ",".join(f"{t:.6g}" for t in times)
    # share rows the oracle re-derives: two drawn ones and the deepest tail row
    sampled = sorted(set(rng.choice(SHARE_ROWS - 1, 2, replace=False).tolist())
                     | {SHARE_ROWS - 1})
    jobs = []
    for law, a, b, g in TABLE_LAWS:
        name = f"shares_{law}"
        jobs.append(Job(name, "shares",
                        ["shares", "--a", repr(a), "--b", repr(b), "--gamma", repr(g),
                         "--r-grid", grid_spec, "-o", f"{name}.csv"],
                        [f"{name}.csv"],
                        {"a": a, "b": b, "gamma": g, "r_grid": r_grid.tolist(),
                         "sampled_rows": sampled}))
    for law, a, b, g in TABLE_LAWS:
        jobs.append(Job(f"eval_{law}", "eval",
                        ["eval", "--a", repr(a), "--b", repr(b), "--gamma", repr(g),
                         "--n", str(PAPER_N), "--times", times_spec],
                        [],
                        {"a": a, "b": b, "gamma": g, "n": PAPER_N,
                         "times": [float(x) for x in times_spec.split(",")]}))
    return jobs


# (a) many events on a mid-size catalog; (b) a large catalog with a full
# ranking snapshot, so per-event and per-item costs each have a case
SIM_CONFIGS = (
    ("a", {"n_items": 100000, "horizon": 15.0, "observe_every": 1.0,
           "snapshots": False}),
    ("b", {"n_items": 1000000, "horizon": 0.2, "observe_every": 0.2,
           "snapshots": True}),
)


def _simulate_inputs(rng: np.random.Generator, indir: Path) -> list[Job]:
    jobs = []
    for label, c in SIM_CONFIGS:
        lines = {"n_items": c["n_items"], "a": repr(PAPER_A), "b": repr(PAPER_B),
                 "horizon": repr(c["horizon"]),
                 "seed": int(rng.integers(1, 2 ** 31)),
                 "observe_every": repr(c["observe_every"])}
        track = None
        if c["snapshots"]:
            lines["snapshots"] = "true"
        else:
            track = int(rng.integers(0, c["n_items"]))
            lines["track_item"] = track
        path = indir / f"sim_{label}.cfg"
        path.write_text("".join(f"{k}={v}\n" for k, v in lines.items()))
        name = f"sim_{label}"
        n_obs = int(round(c["horizon"] / c["observe_every"]))
        outputs = [f"{name}_events.csv"]
        if track is not None:
            outputs.append(f"{name}_trajectory.csv")
        if c["snapshots"]:
            outputs += [f"{name}_snapshot_{k:04d}.csv" for k in range(n_obs)]
        jobs.append(Job(name, "simulate", ["simulate", str(path), "-o", name], outputs,
                        {"n_items": c["n_items"], "a": PAPER_A, "b": PAPER_B,
                         "horizon": c["horizon"],
                         "observe_times": [c["observe_every"] * (k + 1)
                                           for k in range(n_obs)],
                         "track_item": track, "snapshots": c["snapshots"]}))
    return jobs


def build_jobs(workload: str, seed: int, indir: Path) -> list[Job]:
    """Write the workload's input files under ``indir`` and return its job list.

    Each workload draws from its own stream of the seed, so the inputs of one
    workload do not depend on which others were built.
    """
    indir.mkdir(parents=True, exist_ok=True)
    stream = np.random.SeedSequence([seed, WORKLOADS.index(workload)])
    rng = np.random.default_rng(stream)
    if workload == "fit":
        return _fit_inputs(rng, indir)
    if workload == "tables":
        return _table_inputs(rng)
    if workload == "simulate":
        return _simulate_inputs(rng, indir)
    raise ValueError(f"unknown workload {workload!r}")
