"""Print every benchmark metric: end to end per workload, then per layer.

    python3 perfbench/report.py [--seeds 3] [--seconds 20] [--json OUT]

For each workload, runs the untraced benchmark once per seed (seeds 1..K)
and the traced run once. End-to-end metrics are shown as the median and
quartiles over the seeds; error_rate and job_s_tail pool every job of the
set (the tail is the highest percentile with at least ten samples beyond
it, printed with that percentile and the sample count). Per-layer metrics
come from the traced run of the first workload; trace.overhead_s is shown
for each workload. A per-layer metric whose hook no longer resolves prints
as missing. Exits 1 when any workload has error_rate > 0 or a run gives no
result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import tail  # noqa: E402
from traced import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "job_s_p50": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict] | None:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True)
    sys.stderr.write(out.stderr)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("detail: "):
        print(f"{workload} seed {seed} trace {trace}: no result "
              f"(exit {out.returncode})", file=sys.stderr)
        return None
    return json.loads(lines[-1]), json.loads(lines[-2][len("detail: "):])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--json", type=Path, help="also write every run's result here")
    args = p.parse_args(argv)

    ok = True
    record = {"untraced": {}, "traced": {}}
    layer_metrics = None
    print(f"{'workload':9} {'metric':17} {'median':>14} {'q1':>14} {'q3':>14}  unit")
    for w in WORKLOADS:
        runs = [bench(w, s, args.seconds, 0) for s in range(1, args.seeds + 1)]
        traced = bench(w, 1, args.seconds, 1)
        if None in runs or traced is None:
            ok = False
            continue
        record["untraced"][w] = [{"result": r, "detail": d} for r, d in runs]
        record["traced"][w] = {"result": traced[0], "detail": traced[1]}
        layer_metrics = layer_metrics or traced[0]["metrics"]
        for name, unit in END_TO_END.items():
            # cpu_s rides on the detail line; BENCHMARK.json does not gate it
            q1, med, q3 = _quartiles([r["metrics"][name]["value"] if name in r["metrics"]
                                      else d[name] for r, d in runs])
            print(f"{w:9} {name:17} {med:14.6g} {q1:14.6g} {q3:14.6g}  {unit}")
        attempted = sum(r["attempted"] for r, _ in runs) + traced[0]["attempted"]
        failed = sum(r["failed"] for r, _ in runs) + traced[0]["failed"]
        print(f"{w:9} {'error_rate':17} {failed / attempted:14.6g} "
              f"{'':14} {'':14}  fraction ({failed}/{attempted} jobs)")
        t = tail([j["wall"] for _, d in runs for j in d["jobs"]])
        if t is None:
            print(f"{w:9} {'job_s_tail':17} {'n/a':>14}   fewer than 11 job samples")
        else:
            print(f"{w:9} {'job_s_tail':17} {t['value']:14.6g} {'':14} {'':14}  "
                  f"s (p{t['percentile']:.1f} of {t['samples']} jobs)")
        overhead = traced[0]["metrics"].get("trace.overhead_s")
        print(f"{w:9} {'trace.overhead_s':17} "
              f"{overhead['value'] if overhead else float('nan'):14.6g} "
              f"{'':14} {'':14}  s")
        for seed, (_, d) in enumerate(runs + [traced], start=1):
            label = f"seed {seed}" if seed <= len(runs) else "traced"
            for job, msgs in d["failed_jobs"].items():
                print(f"  FAILED {label} {job}: {'; '.join(msgs)}")
        ok = ok and failed == 0

    print()
    print(f"{'per-layer metric':32} {'value':>16}  unit")
    for name, (unit, *_rest) in PER_LAYER.items():
        m = (layer_metrics or {}).get(name)
        shown = f"{m['value']:16.6g}" if m else f"{'missing':>16}"
        print(f"{name:32} {shown}  {unit}")

    if args.json:
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
