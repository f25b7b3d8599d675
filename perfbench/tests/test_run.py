"""The runner: its arithmetic, its data files, and its refusal to run without sources."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(run.__file__).resolve().parent


def test_nearest_rank_percentile():
    values = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6]
    assert run.percentile(values, 50) == 5
    assert run.percentile(values, 90) == 9
    assert run.percentile(values, 100) == 10
    assert run.percentile([7.5], 90) == 7.5


def test_refuses_to_run_without_the_engine_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_lists_agree():
    """layers.py computes, layers.json maps and BENCHMARK.json declares the same names."""
    import json

    import layers
    from tracer import Tracer

    computed = list(layers.metrics(Tracer("cdgalab"))) + ["trace.overhead_ratio", "src.lines"]
    mapped = [m for entry in json.loads((BENCH / "layers.json").read_text())["layers"]
              for m in entry["metrics"]]
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in bench["per_layer"]]
    assert sorted(computed) == sorted(mapped) == sorted(declared)
    assert [m["unit"] for m in bench["per_layer"]][:len(computed) - 2] == \
        [layers.unit(name) for name in declared[:len(computed) - 2]]


@pytest.mark.parametrize("workload", ["paper", "ladder", "pipelines", "minmodel"])
def test_every_job_has_a_recorded_answer(workload):
    import workloads

    expected = workloads.load_expected()
    for job in workloads.make_jobs(workload, 1):
        if workload == "ladder":
            assert job.name.split(" ")[0] in expected["ladder"]
        elif workload != "paper":
            assert job.name in expected[workload]
    names = {job.name for job in workloads.make_jobs(workload, 1)}
    assert names == {job.name for job in workloads.make_jobs(workload, 2)}


def test_a_rejected_cli_argument_list_is_a_failed_job():
    """argparse exits by raising SystemExit; the job fails and the run goes on."""
    import workloads

    with pytest.raises(workloads.CommandFailed, match="exit 2"):
        workloads._cli_run(["cohomology", "--no-such-flag"], "{}")


def test_timing_method_is_fixed_per_job():
    import workloads

    paper = {job.name: job.fastest for job in workloads.make_jobs("paper", 1)}
    assert [name for name, fastest in paper.items() if fastest] == ["property-battery"]
    assert not any(job.fastest for job in workloads.make_jobs("pipelines", 1))
    for workload in ("ladder", "minmodel"):
        assert all(job.fastest for job in workloads.make_jobs(workload, 1))
