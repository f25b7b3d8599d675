"""Run the benchmark on several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --seeds 7
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out summary.json

Both run every workload that BENCHMARK.json gates, for its run_seconds,
once per seed.  For every workload and metric the script prints the median,
the first and third quartiles (statistics.quantiles(values, n=4)) and the
spread, which is (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json.  With --out it also writes those figures, with every run's
values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} jobs failed")
    return result["metrics"]


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--out", help="write the summary here as JSON")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = [run_once(workload, seed, bench["run_seconds"]) for seed in args.seeds]
        summary[workload] = {}
        for name in runs[0]:
            s = summarise([r[name]["value"] for r in runs])
            summary[workload][name] = s
            unit = runs[0][name]["unit"]
            print(f"{workload:10s} {name:12s} median {s['median']:12.6g} {unit:2s}  "
                  f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  spread {s['spread']:.4f}  "
                  f"bound {bounds.get(name)}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seeds": args.seeds, "seconds": bench["run_seconds"], "workloads": summary},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
