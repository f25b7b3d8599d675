"""Reports and demo output must stay byte-identical to the snapshots in tests/golden/.

The snapshots are rewritten only by ``python tests/regenerate_golden.py``.
"""

import pytest

from regenerate_golden import DEMOS, GOLDEN, cases, demo_snapshot, snapshot, verify_snapshot

CASES = cases()


def test_snapshot_set_is_complete():
    recorded = {p.stem for p in GOLDEN.iterdir()}
    assert recorded == ({case for case, _, _ in CASES} | {"verify-paper"}
                        | {f"demo-{path.stem}" for path in DEMOS})


@pytest.mark.parametrize("case,doc,cmd", CASES, ids=[c for c, _, _ in CASES])
def test_report_matches_snapshot(case, doc, cmd):
    suffix, text = snapshot(doc, cmd)
    assert text == (GOLDEN / f"{case}{suffix}").read_text()


def test_verify_paper_details_match_snapshot():
    assert verify_snapshot() == (GOLDEN / "verify-paper.txt").read_text()


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_output_matches_snapshot(path):
    assert demo_snapshot(path) == (GOLDEN / f"demo-{path.stem}.txt").read_text()
