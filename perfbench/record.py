"""Record the invariants every job must reproduce, into perfbench/expected.json.

    python3 perfbench/record.py

Run it only at a commit whose answers are trusted: the benchmark counts any
later difference from these values as a failed job.  Ladder tables come
from the standard basis, so a rebased rung must reproduce them from a
different presentation of the same algebra.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ladder  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    expected = {"ladder": {}}
    for family, size, _, _ in workloads.LADDER_RUNGS:
        ring = workloads.ladder_cohomology(json.dumps(ladder.rung_document(family, size)))
        expected["ladder"][f"{family}({size})"] = list(ring.betti)
    for workload in ("pipelines", "minmodel"):
        jobs = workloads.make_jobs(workload, 0)
        expected[workload] = {job.name: job.answer(job.run(job.prepare()))
                              for job in sorted(jobs, key=lambda j: j.name)}
    # one job per line, so a change to a recorded answer reads as a one-line diff
    blocks = []
    for workload, answers in expected.items():
        lines = [f"  {json.dumps(name)}: {json.dumps(answer)}" for name, answer in answers.items()]
        blocks.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(lines) + "\n }")
    workloads.EXPECTED_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
