"""Correctness gate: every job's output against rankflow.oracle and closed forms.

Checks run outside the timed region. Each returns a list of failure
messages; an empty list means the job passed. Tolerances are fixed here:

* ORACLE_REL: agreement with the quadrature oracle. The oracle itself is
  about 1e-5 off in relative terms for Gamma arguments p >~ 10, so no
  oracle comparison is tighter than that.
* PRINTED_REL: agreement between two closed-form quantities that the CLI
  prints with 12 significant digits (S_potential, ratio, x_c, rates).
* Fit: |b* - b| <= 0.05 and a*, N* within 10%, the CLI five-seed test's
  tolerances.
* Simulation boundary: within 5/sqrt(N) of the limit curve, the tolerance
  of acceptance criterion 5.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np

from workloads import Job

ORACLE_REL = 1e-5
PRINTED_REL = 1e-9
FIT_B_ABS = 0.05
FIT_REL = 0.10
BOUNDARY_SQRT_N = 5.0

FIT_KEYS = {"n_star", "a_star", "b_star", "chi2", "delta_y_c", "converged", "starts_tried"}
SHARES_HEADER = "r,q,S_potential,S_ranking,ratio"
EVAL_HEADER = "t_hours,y_c,x_c"


def output_digest(job: Job, outdir: Path) -> str:
    """Hash of everything the job wrote, stdout included."""
    h = hashlib.sha256()
    for name in sorted(job.outputs) + [job.stdout_name]:
        path = outdir / name
        h.update(name.encode() + b"\0")
        if path.is_file():
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
        else:
            h.update(b"<missing>")
    return h.hexdigest()


def output_bytes(job: Job, outdir: Path) -> int:
    return sum((outdir / n).stat().st_size for n in job.outputs + [job.stdout_name]
               if (outdir / n).is_file())


def _close(got: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(got - want) <= max(rel * abs(want), abs_tol)


def _read_rows(path: Path, header: str, width: int) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(f"{path.name}: expected header {header}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty body
            rows = np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2)
    if rows.size == 0:
        return rows.reshape(0, width)
    if rows.shape[1] != width:
        raise ValueError(f"{path.name}: rows do not have {width} fields")
    return rows


def _check_fit(job: Job, outdir: Path) -> list[str]:
    res = json.loads((outdir / job.outputs[0]).read_text())
    if set(res) != FIT_KEYS:
        return [f"fit JSON keys {sorted(res)}"]
    s, bad = job.spec, []
    if res["converged"] is not True:
        bad.append("fit did not converge")
    if not abs(res["b_star"] - s["b"]) <= FIT_B_ABS:
        bad.append(f"b*={res['b_star']} vs b={s['b']}")
    if not _close(res["a_star"], s["a"], FIT_REL):
        bad.append(f"a*={res['a_star']} vs a={s['a']}")
    if not _close(res["n_star"], s["n"], FIT_REL):
        bad.append(f"N*={res['n_star']} vs N={s['n']}")
    return bad


def potential_tail_share(a: float, b: float, g: float, r: float) -> float:
    """Closed form of S_pot(r, 1) for the plain and head-cutoff power laws."""
    e = (b - 1.0) / b
    if g == 0.0:
        return a * b / (b - 1.0) * (1.0 - r ** e)
    return a * b / (b - 1.0) * (1.0 + g) ** (1.0 / b) * ((1.0 + g) ** e - (r + g) ** e)


def _check_shares(job: Job, outdir: Path, oracle) -> list[str]:
    s = job.spec
    a, b, g = s["a"], s["b"], s["gamma"]
    rows = _read_rows(outdir / job.outputs[0], SHARES_HEADER, 5)
    grid = np.array(s["r_grid"])
    if rows.shape[0] != grid.size:
        return [f"{rows.shape[0]} rows for a {grid.size}-point grid"]
    r, q, s_pot, s_rank, ratio = rows.T
    bad = []
    if not np.allclose(r, grid, rtol=PRINTED_REL, atol=0.0):
        bad.append("r column differs from the grid")
    if not np.all(np.diff(q) > 0.0) or not q[0] > 0.0:
        bad.append("q is not positive and increasing in r")
    for k in range(grid.size):
        if not _close(s_pot[k], potential_tail_share(a, b, g, grid[k]), PRINTED_REL):
            bad.append(f"row {k}: S_potential {s_pot[k]} off the closed form")
        if not _close(ratio[k], s_rank[k] / s_pot[k], PRINTED_REL):
            bad.append(f"row {k}: ratio {ratio[k]} != S_ranking/S_potential")
    for k in s["sampled_rows"]:
        q_ref = oracle.q_quad(b, grid[k], gamma=g)
        if not _close(q[k], q_ref, ORACLE_REL):
            bad.append(f"row {k}: q {q[k]} vs oracle {q_ref}")
        v, err = oracle.ranking_share_quad(a, b, grid[k], 1.0, gamma=g)
        if not _close(s_rank[k], v, ORACLE_REL, 3.0 * err):
            bad.append(f"row {k}: S_ranking {s_rank[k]} vs oracle {v} +- {err:.2g}")
    return bad


def _check_eval(job: Job, outdir: Path, oracle) -> list[str]:
    s = job.spec
    rows = _read_rows(outdir / job.stdout_name, EVAL_HEADER, 3)
    times = np.array(s["times"])
    if rows.shape[0] != times.size:
        return [f"{rows.shape[0]} rows for {times.size} times"]
    bad = []
    for k, (t, y, x) in enumerate(rows):
        if not _close(t, times[k], PRINTED_REL):
            bad.append(f"row {k}: t {t} vs {times[k]}")
            continue
        lt, err = oracle.laplace_quad(s["a"], s["b"], times[k], gamma=s["gamma"])
        if not _close(y, 1.0 - lt, ORACLE_REL, 3.0 * err):
            bad.append(f"row {k}: y_c {y} vs oracle {1.0 - lt} +- {err:.2g}")
        if not _close(x, s["n"] * y, PRINTED_REL):
            bad.append(f"row {k}: x_c {x} != N y_c")
    return bad


def _check_simulate(job: Job, outdir: Path, oracle) -> list[str]:
    s = job.spec
    n, horizon = s["n_items"], s["horizon"]
    m = re.search(r"simulate: (\d+) events", (outdir / job.stdout_name).read_text())
    if m is None:
        return ["no event total on stdout"]
    total = int(m.group(1))
    ev = _read_rows(outdir / job.outputs[0], "t,item", 2)
    times, items_f = ev[:, 0], ev[:, 1]
    if ev.shape[0] != total:
        return [f"events CSV has {ev.shape[0]} rows, stdout says {total}"]
    bad = []
    if np.any(np.diff(times) < 0.0):
        bad.append("event times decrease")
    if total and not (times[0] > 0.0 and times[-1] <= horizon):
        bad.append("event times leave (0, horizon]")
    items = items_f.astype(np.int64)
    if np.any(items != items_f) or np.any((items < 0) | (items >= n)):
        bad.append("event items are not integers in [0, N)")
        return bad
    # ever-sold boundary rebuilt from the log against the oracle curve
    first = np.full(n, np.inf)
    uniq, idx = np.unique(items, return_index=True)
    first[uniq] = times[idx]
    first_sorted = np.sort(first)
    tol = BOUNDARY_SQRT_N / math.sqrt(n)
    for theta in s["observe_times"]:
        frac = np.searchsorted(first_sorted, theta, side="right") / n
        y_ref = 1.0 - oracle.laplace_quad(s["a"], s["b"], theta)[0]
        if abs(frac - y_ref) > tol:
            bad.append(f"t={theta}: ever-sold {frac:.6f} vs y_c {y_ref:.6f} (tol {tol:.2g})")
    if s["track_item"] is not None:
        traj = _read_rows(outdir / job.outputs[1], "t_hours,rank", 2)
        if traj.shape[0] != len(s["observe_times"]) or not np.allclose(
                traj[:, 0], s["observe_times"], rtol=PRINTED_REL, atol=0.0):
            bad.append("trajectory times differ from the observation grid")
        elif np.any((traj[:, 1] < 1) | (traj[:, 1] > n) | (traj[:, 1] != np.round(traj[:, 1]))):
            bad.append("trajectory ranks are not integers in [1, N]")
    if s["snapshots"]:
        # expected move-to-front order after the last event: sold items by
        # latest sale, then the never-sold in their initial (index) order
        last = np.full(n, -1, dtype=np.int64)
        uniq, idx_rev = np.unique(items[::-1], return_index=True)
        last[uniq] = items.size - 1 - idx_rev
        sold = last >= 0
        order = np.lexsort((np.where(sold, -last, np.arange(n)), ~sold))
        expected = np.empty(n, dtype=np.int64)
        expected[order] = np.arange(1, n + 1)
        i = np.arange(1, n + 1, dtype=float)
        rates = s["a"] * (n / i) ** (1.0 / s["b"])
        for name in job.outputs[1:]:
            snap = _read_rows(outdir / name, "item,w,rank", 3)
            ranks = snap[:, 2].astype(np.int64) if snap.shape[0] == n else None
            if ranks is None or not np.array_equal(snap[:, 0], np.arange(n)):
                bad.append(f"{name}: item column is not 0..N-1")
            elif not np.array_equal(np.sort(ranks), np.arange(1, n + 1)):
                bad.append(f"{name}: ranks are not a permutation of 1..N")
            elif not np.allclose(snap[:, 1], rates, rtol=PRINTED_REL, atol=0.0):
                bad.append(f"{name}: rates differ from the power law")
            elif (name == job.outputs[-1] and s["observe_times"][-1] == horizon
                  and not np.array_equal(ranks, expected)):
                bad.append(f"{name}: ranks differ from move-to-front order of the log")
    return bad


def check_job(job: Job, outdir: Path, exit_code: int, oracle) -> list[str]:
    """Failure messages for one finished job; [] when it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    missing = [n for n in job.outputs + [job.stdout_name] if not (outdir / n).is_file()]
    if missing:
        return [f"missing output {', '.join(missing)}"]
    try:
        if job.kind == "fit":
            return _check_fit(job, outdir)
        if job.kind == "shares":
            return _check_shares(job, outdir, oracle)
        if job.kind == "eval":
            return _check_eval(job, outdir, oracle)
        return _check_simulate(job, outdir, oracle)
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        return [f"malformed output: {exc}"]
