"""Show that the correctness gate bites: corrupted outputs count as failures.

    python3 perfbench/gate_check.py

Runs one shares job and one simulate job in-process, checks the untouched
outputs (they must pass), then feeds the checker a truncated shares CSV, a
share value 1e-4 off on a row the oracle re-derives (ratio kept
consistent, so only the oracle comparison can notice), and an events CSV
with one row dropped. Exits 1 unless the clean outputs pass and every
corruption is reported.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import rankflow.cli as cli  # noqa: E402
import rankflow.oracle as oracle  # noqa: E402
from checks import check_job  # noqa: E402
from traced import run_inprocess  # noqa: E402
from workloads import build_jobs  # noqa: E402


def _truncate(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 17])


def _nudge_share(job):
    def corrupt(path: Path) -> None:
        lines = path.read_text().splitlines()
        k = 1 + job.spec["sampled_rows"][0]
        r, q, s_pot, s_rank, ratio = (float(v) for v in lines[k].split(","))
        s_rank *= 1.0 + 1e-4
        lines[k] = ",".join(f"{v:.12g}" for v in (r, q, s_pot, s_rank, s_rank / s_pot))
        path.write_text("\n".join(lines) + "\n")
    return corrupt


def _drop_row(path: Path) -> None:
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:100] + lines[101:]))


def main() -> int:
    work = ROOT / ".perfbench" / "gate-check"
    shutil.rmtree(work, ignore_errors=True)
    try:
        shares = next(j for j in build_jobs("tables", 1, work / "in") if j.kind == "shares")
        sim = next(j for j in build_jobs("simulate", 1, work / "in") if j.name == "sim_a")
        cases = [(shares, "truncated shares CSV", _truncate),
                 (shares, "S_ranking 1e-4 off on an oracle row", _nudge_share(shares)),
                 (sim, "events CSV missing one row", _drop_row)]
        ok = True
        for job in (shares, sim):
            code, _ = run_inprocess(cli, job, work / "clean")
            bad = check_job(job, work / "clean", code, oracle)
            print(f"clean {job.name}: {'pass' if not bad else bad}")
            ok = ok and not bad
        for i, (job, label, corrupt) in enumerate(cases):
            outdir = work / f"case_{i}"
            shutil.copytree(work / "clean", outdir)
            corrupt(outdir / job.outputs[0])
            bad = check_job(job, outdir, 0, oracle)
            print(f"{label}: {'counted as failure: ' + '; '.join(bad) if bad else 'MISSED'}")
            ok = ok and bool(bad)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
