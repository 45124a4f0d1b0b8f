"""Run the benchmark once and check that its result line is well-formed.

    python3 .github/check_result_line.py --workload fit --seed 1 --trace 0

Run from anywhere; the benchmark runs from the root of this checkout. The
last stdout line of perfbench/run.py must be strict JSON (NaN and Infinity
are rejected) with "correct": true and no failed job, and its metric names
must be exactly BENCHMARK.json's end_to_end names (--trace 0) or per_layer
names (--trace 1), each with a finite value. The "detail: " line before it
must list no missing metrics. Exits 1 and names each problem otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def check(stdout: str, trace: int) -> list[str]:
    """Problems with one run's output; empty when the result line is good."""
    lines = stdout.splitlines()
    if len(lines) < 2 or not lines[-2].startswith("detail: "):
        return ["the last two stdout lines are not a detail line and a result line"]
    try:
        result = json.loads(lines[-1], parse_constant=_reject_constant)
        detail = json.loads(lines[-2][len("detail: "):], parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"not strict JSON: {exc}"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    problems = []
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')}, failed={result.get('failed')}: "
                        f"{detail.get('failed_jobs')}")
    if set(got) != want:
        problems.append(f"metric names differ from BENCHMARK.json: missing "
                        f"{sorted(want - set(got))}, extra {sorted(set(got) - want)}")
    bad = [k for k, v in got.items()
           if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"])]
    if bad:
        problems.append(f"non-finite values: {bad}")
    if detail.get("missing_metrics"):
        problems.append(f"missing_metrics: {detail['missing_metrics']}")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                          "--seed", str(args.seed), "--trace", str(args.trace)],
                         cwd=ROOT, capture_output=True, text=True)
    problems = [f"perfbench/run.py exited with {run.returncode}: {run.stderr[-2000:]}"] \
        if run.returncode != 0 else check(run.stdout, args.trace)
    label = f"{args.workload} --trace {args.trace}"
    for msg in problems:
        print(f"check_result_line: {label}: {msg}", file=sys.stderr)
    if not problems:
        print(f"check_result_line: {label}: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
