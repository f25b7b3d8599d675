"""Benchmark runner for cdgalab.

    python3 perfbench/run.py --workload paper --seed 3 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports the engine from
./src.  One process, one thread, a closed loop: each job starts when the
previous one returns.  The runner repeats passes over the workload's job
list until --seconds have been measured (at least one pass), checks every
answer against perfbench/expected.json, prints one line per job, and ends
with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

On a host whose cores are shared with other work, the same computation
runs up to twice as slow in bursts lasting seconds to minutes, so every
time is taken in one of two ways, fixed per job (Job.fastest).  A short job
gets the median over the run of its latency scaled to the speed of an
uncontended reference host (perfbench/clock.py); paper's short checks also
repeat within each pass (Job.repeat) to give the median enough samples.  A
job of several seconds slows down less than the calibration loop under
contention, so scaling would over-correct it; it gets its fastest latency
in the run instead, since contention only ever adds time.

With --trace 0 the metrics are the end-to-end ones: wall_s (the sum of the
job times: one pass, set-up excluded), job_p50_ms and job_p90_ms
(nearest-rank percentiles of the job times), setup_s (median of
SETUP_SAMPLES fresh interpreters, each importing cdgalab and building the
inputs of a pass, scaled like a short job) and peak_rss_mb.
With --trace 1 one untraced pass runs, then one pass with the engine's
public functions wrapped; the metrics are the per-layer ones of
perfbench/layers.py, and the spans are written to .bench_out/ as gzipped TSV.

The benchmark's own tests: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
PROBE_CALIBRATIONS = 9
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("paper", "ladder", "pipelines", "minmodel"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="time one set-up in this interpreter, print it and exit")
    return p.parse_args(argv)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with q% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def probe_setup(workload: str, seed: int) -> float:
    """One set-up in this (fresh) interpreter, scaled to reference speed."""
    sampler = clock.Sampler()
    sampler.calibrate(PROBE_CALIBRATIONS)
    t0 = perf_counter()
    import workloads
    for job in workloads.make_jobs(workload, seed):
        job.prepare()
    t1 = perf_counter()
    sampler.calibrate(PROBE_CALIBRATIONS)
    return (t1 - t0) * sampler.speed(t0, t1)


def measure_setup(workload: str, seed: int):
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


@dataclass
class Result:
    job: object
    start: float
    seconds: float  # elapsed, minus the time the speed sampler took
    ok: bool
    answer: object
    scaled: float = 0.0  # seconds at reference speed, set after the run


def job_time(job, results) -> float:
    """A job's time from its results in one run (see the module docstring)."""
    if job.fastest:
        return min(r.seconds for r in results)
    return statistics.median(r.scaled for r in results)


def run_pass(workloads, workload, jobs, expected, sampler=None, tracer=None):
    """One closed-loop pass over the job list: one Result per job run."""
    gc.collect()
    results = []
    for job in jobs:
        for _ in range(1 if tracer else job.repeat):
            arg = job.prepare()
            if tracer is not None:
                tracer.begin_job(job.name)
                sid = tracer.open(f"verify.{job.name}" if workload == "paper" else "job")
            stolen = sampler.stolen if sampler else 0.0
            t0 = perf_counter()
            try:
                raw = job.run(arg)
                error = None
            except Exception:  # a failed job is counted and the run goes on
                raw, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
            seconds = perf_counter() - t0 - ((sampler.stolen - stolen) if sampler else 0.0)
            if tracer is not None:
                tracer.close(sid)
            if error is None:
                answer = job.answer(raw)
                ok = workloads.check(workload, job, answer, expected)
            else:
                answer, ok = error, False
            results.append(Result(job, t0, seconds, ok, answer))
    return results


def print_jobs(jobs, results, job_times) -> None:
    """Per job: its time, how many runs it took, status and answer."""
    for job, t in zip(jobs, job_times):
        mine = [r for r in results if r.job is job]
        how = "fastest" if job.fastest else "scaled median"
        print(f"job  {t:9.4f} s  ({how} of {len(mine)})  "
              f"{'ok  ' if all(r.ok for r in mine) else 'FAIL'}  {job.name}  "
              f"{json.dumps(mine[-1].answer, separators=(',', ':'))}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cdgalab" / "__init__.py").is_file():
        print(f"error: no cdgalab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        print(repr(probe_setup(args.workload, args.seed)))
        return 0

    import cdgalab
    import workloads
    engine = Path(cdgalab.__file__).resolve()
    if SRC.resolve() not in engine.parents:
        print(f"error: imported cdgalab from {engine}, not from {SRC}", file=sys.stderr)
        return 2
    expected = workloads.load_expected()
    jobs = workloads.make_jobs(args.workload, args.seed)

    passes = []
    sampler = clock.Sampler()
    sampler.start()
    try:
        measured = 0.0
        while not passes or (not args.trace and measured < args.seconds):
            passes.append(run_pass(workloads, args.workload, jobs, expected, sampler))
            measured += sum(r.seconds for r in passes[-1])
    finally:
        sampler.stop()
    sampler.calibrate(clock.NEAREST)
    results = [r for p in passes for r in p]
    for r in results:
        r.scaled = r.seconds * sampler.speed(r.start, r.start + r.seconds)
    job_times = [job_time(job, [r for r in results if r.job is job]) for job in jobs]

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer
        tracer = Tracer("cdgalab")
        layers.install(tracer)
        try:
            traced = run_pass(workloads, args.workload, jobs, expected, tracer=tracer)
        finally:
            tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.tsv.gz")

    everything = results + (traced if tracer else [])
    attempted = len(everything)
    failed = sum(not r.ok for r in everything)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"{' and one traced' if tracer else ''}  jobs {len(jobs)}  "
          f"speed samples {len(sampler.durations)}")
    print_jobs(jobs, results, job_times)
    print(f"fail_ratio {failed / attempted:.6f} ({failed} of {attempted} jobs)")

    if tracer is None:
        setup = measure_setup(args.workload, args.seed)
        metrics = {
            "wall_s": (sum(job_times), "s"),
            "job_p50_ms": (percentile(job_times, 50) * 1000, "ms"),
            "job_p90_ms": (percentile(job_times, 90) * 1000, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        beyond = sum(t > percentile(job_times, 90) for t in job_times)
        print(f"samples: {len(jobs)} job times ({beyond} beyond p90) from "
              f"{len(results)} job runs in {len(passes)} passes; {len(setup)} set-ups")
    else:
        metrics = {name: (value, layers.unit(name))
                   for name, value in layers.metrics(tracer).items()}
        # unscaled on both sides: the traced pass runs without the sampler
        untraced_s = sum(min(r.seconds for r in passes[0] if r.job is job) for job in jobs)
        metrics["trace.overhead_ratio"] = (sum(r.seconds for r in traced) / untraced_s, "1")
        metrics["src.lines"] = (layers.src_lines(SRC / "cdgalab"), "lines")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
