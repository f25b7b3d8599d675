"""The four workloads: their inputs, job lists and answer checks.

A job is three callables.  `prepare` builds the job's input outside the
timed region, `run` is the timed call into cdgalab's public API, and
`answer` turns its result into the invariants that perfbench/expected.json
records for the seed commit.  A job fails when `run` raises, or when its
answer differs from the recorded one.

Each job also fixes how run.py times it.  The property battery and the jobs
of ladder and minmodel, which run for seconds in few passes, take their
fastest run (`fastest=True`); every other job takes the median of its
latencies scaled to reference speed.

Why these four.  BENCHMARK.json gates paper and pipelines; ladder and
minmodel spend 10-13 s in a handful of jobs, so a run long enough to steady
them does not fit the benchmark's time budget, and they are run by hand for
their per-job lines (ROADMAP's H(6) and minimal-model targets).

* paper     -- the verification registry at full strength: about 1800 small
               rings, so fixed per-object costs, cups and group actions
               dominate ("build small, query many").
* ladder    -- cohomology of larger nilpotent Lie algebras from JSON
               documents: all the time is ring construction and exact
               elimination, with no cups, Massey products or actions.
               Rebased rungs add coefficient growth.
* pipelines -- every CLI command on every preset, in process: many short
               jobs that each parse a document and build one fresh ring
               ("build many, query few").
* minmodel  -- bounded minimal models, where the construction rebuilds and
               revalidates its AlgebraSpec after every generator.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

# Functions that the traced run wraps are called through their modules, so
# that the wrappers (which replace module attributes) see every call.
from cdgalab import cli, minmodel, models, serialize, symmetry, verify
from cdgalab.cohomology import cohomology

import ladder

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def _nothing():
    return None


@dataclass
class Job:
    name: str
    run: Callable[[object], object]
    answer: Callable[[object], object]
    prepare: Callable[[], object] = _nothing
    repeat: int = 1  # runs per pass; each run is one sample of the job's time
    fastest: bool = False  # time it by its fastest run, not its scaled median


class CommandFailed(Exception):
    """A CLI job exited with a non-zero code, returned or raised."""


# -- paper ----------------------------------------------------------------

# Runs per pass of each check but the battery: they take 5-200 ms, and the
# median of their scaled latencies needs more samples than the passes give.
PAPER_CHECK_REPEAT = 5


def paper_jobs(seed: int) -> List[Job]:
    jobs = []
    for key, fn in verify.CHECKS:
        if key == "property-battery":
            def run(_, seed=seed):
                return verify.property_battery(cases=1000, seed=seed)
        else:
            def run(_, fn=fn):
                return fn()
        battery = key == "property-battery"
        jobs.append(Job(key, run, lambda r: {"passed": r.passed},
                        repeat=1 if battery else PAPER_CHECK_REPEAT, fastest=battery))
    return jobs


# -- ladder ----------------------------------------------------------------

# (family, size, rebased, zeta): standard rungs first, then seeded ones.
LADDER_RUNGS = [
    ("H", 5, False, 1), ("N", 4, False, 1), ("L", 11, False, 1), ("H", 6, False, 1),
    ("H", 4, True, 1), ("L", 9, True, 1), ("H", 4, True, 12),
]


def rung_name(family: str, size: int, rebased: bool, zeta: int) -> str:
    name = f"{family}({size})"
    if rebased:
        name += " rebased over " + ("Q" if zeta == 1 else f"Q(zeta_{zeta})")
    return name


def ladder_cohomology(text: str):
    doc = json.loads(text)
    spec, _, _, _, _ = serialize.document_from_json(doc)
    return cohomology(spec, doc["dim"])


def ladder_jobs(seed: int) -> List[Job]:
    jobs = []
    for family, size, rebased, zeta in LADDER_RUNGS:
        doc = ladder.rung_document(family, size, seed if rebased else None, zeta)
        text = json.dumps(doc)
        jobs.append(Job(rung_name(family, size, rebased, zeta),
                        lambda _, text=text: ladder_cohomology(text),
                        lambda ring: {"betti": list(ring.betti)}, fastest=True))
    return jobs


def ladder_table_ok(betti: List[int], expected: List[int]) -> bool:
    """Equal to the standard-basis table, palindromic, Euler characteristic 0."""
    chi = sum((-1) ** k * b for k, b in enumerate(betti))
    return betti == expected and betti == betti[::-1] and chi == 0


# -- pipelines --------------------------------------------------------------

PIPELINE_PRESETS = [(name, {}) for name in models.FIXED_PRESETS] + [
    ("CPN", {"m": 3}), ("SASAKI_CPN_S2", {"n": 4})]

# The README's selections.
README_COMMANDS = [
    ("SASAKI7_S2CUBE", ["massey", "--select", "a1", "--select", "a1", "--select", "a2"]),
    ("HEIS8_Z3", ["amassey", "--a", "a", "--b", "b1", "--b", "b2", "--b", "b3"]),
    ("HEIS6_Z6", ["lefschetz", "--omega", "omega", "--half-dim", "3"]),
]

# Commands that exit 1 by design on this preset (the degree-2 class is above
# the half dimension; the cap is below bound + 1).
EXPECTED_TO_EXIT_1 = {("SPHERE2", "lefschetz"), ("SPHERE2", "minimal-model")}


def _preset_label(name: str, params: Dict[str, int]) -> str:
    return name + "".join(f"({v})" for v in params.values())


def pipeline_commands(doc: dict) -> List[List[str]]:
    cmds = [["invariants"], ["invariants", "--total"]] if doc.get("action") \
        else [["cohomology"]]
    cmds.append(["formality", "--poincare-dim", str(doc["dim"])])
    cmds.append(["lefschetz", "--universal", "--degree", "2"])
    cmds.append(["minimal-model", "--bound", "3"])
    return cmds


def _cli_run(argv: List[str], text: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects an argument list this way
        code = exc.code
    finally:
        sys.stdin = stdin
    if code != 0:
        raise CommandFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def cli_answer(command: str, stdout: str) -> dict:
    """The invariants of a CLI report that do not depend on representatives."""
    report = json.loads(stdout)
    if command in ("cohomology", "invariants"):
        return {"betti": report["betti"]}
    if command == "formality":
        return {"verdict": report["verdict"], "route": report["route"]}
    if command == "minimal-model":
        degrees: Dict[str, int] = {}
        for g in report["generators"]:
            degrees[str(g["degree"])] = degrees.get(str(g["degree"]), 0) + 1
        return {"generator_degrees": degrees}
    if command == "lefschetz" and "witnesses" in report:
        return {"witnesses": len(report["witnesses"])}
    if command == "lefschetz":
        return {"overall": report["overall"],
                "ranks": [v["rank"] for v in report["per_degree"]]}
    return {"defined": report["defined"], "verdict": report["verdict"],
            "degree": report["degree"],
            "indeterminacy_dimension": report["indeterminacy_dimension"]}


def pipelines_jobs(seed: int) -> List[Job]:
    entries = []
    for name, params in PIPELINE_PRESETS:
        doc = models.preset_document(name, **params)
        for cmd in pipeline_commands(doc):
            if (name, cmd[0]) not in EXPECTED_TO_EXIT_1:
                entries.append((name, params, doc, cmd))
    for name, cmd in README_COMMANDS:
        entries.append((name, {}, models.preset_document(name), cmd))
    jobs = []
    for name, params, doc, cmd in entries:
        argv = cmd + ["--format", "json"]
        text = json.dumps(doc)
        jobs.append(Job(f"{_preset_label(name, params)} {' '.join(cmd)}",
                        lambda _, argv=argv, text=text: _cli_run(argv, text),
                        lambda out, c=cmd[0]: cli_answer(c, out)))
    random.Random(seed).shuffle(jobs)
    return jobs


# -- minmodel ----------------------------------------------------------------

MINMODEL_JOBS = [("HEIS8_Z3", 4), ("T6_Z2", 3), ("P_OVER_T6Z2", 3)]


def _invariant_ring(text: str, bound: int):
    _, action, _, _, _ = serialize.document_from_json(json.loads(text))
    return symmetry.invariant_cohomology(action, bound + 1)


def _model_answer(mm) -> dict:
    return {"generators": len(mm.model.generators),
            "by_degree": {str(k): len(v)
                          for k, v in sorted(mm.generators_by_degree.items())}}


def minmodel_jobs(seed: int) -> List[Job]:
    jobs = []
    for name, bound in MINMODEL_JOBS:
        text = json.dumps(models.preset_document(name))
        jobs.append(Job(f"{name} invariants bound {bound}",
                        lambda ring, bound=bound: minmodel.build_minimal_model(ring, bound),
                        _model_answer,
                        lambda text=text, bound=bound: _invariant_ring(text, bound),
                        fastest=True))
    random.Random(seed).shuffle(jobs)
    return jobs


MAKERS = {"paper": paper_jobs, "ladder": ladder_jobs,
          "pipelines": pipelines_jobs, "minmodel": minmodel_jobs}


def make_jobs(workload: str, seed: int) -> List[Job]:
    return MAKERS[workload](seed)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def check(workload: str, job: Job, answer, expected: dict) -> bool:
    """Whether a job's answer matches the invariants recorded for it."""
    if workload == "paper":
        return answer == {"passed": True}
    if workload == "ladder":
        family_size = job.name.split(" ")[0]
        return ladder_table_ok(answer["betti"], expected["ladder"][family_size])
    return answer == expected[workload].get(job.name)

