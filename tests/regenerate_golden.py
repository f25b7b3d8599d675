"""Golden report snapshots: the case list and the one script that rewrites them.

Each case runs one CLI command in process on a preset document and records
its ``--format json`` stdout byte for byte in ``tests/golden/<case>.json``.
A command that exits nonzero by design records its exit code and stderr
diagnostic in ``tests/golden/<case>.err`` instead.  ``verify-paper --cases 50
--verbose`` is recorded as ``tests/golden/verify-paper.txt``, and the stdout
of each ``demos/<name>.py`` as ``tests/golden/demo-<name>.txt``.

``tests/test_golden.py`` compares bytes.  Only this script rewrites the
snapshots; run it after a change that is meant to alter a report, and read
the diff:

    python tests/regenerate_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import runpy
import sys
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from cdgalab import cli, models  # noqa: E402

PRESETS = [(name, {}) for name in models.FIXED_PRESETS] + [
    ("CPN", {"m": 3}), ("SASAKI_CPN_S2", {"n": 4})]

SPHERE2_FILE = str(ROOT / "src" / "cdgalab" / "presets" / "SPHERE2.json")


def _select(*names: str) -> List[str]:
    return [arg for name in names for arg in ("--select", name)]


def _sel(degree: int, j: int) -> str:
    """Coordinate selector of the j-th representative class in H^degree."""
    return json.dumps({"degree": degree, "coords": [0] * j + [1]})


# Selections on named presets: the README's examples, then the document
# commands (circle-bundle, tensor), order-4 Massey products, one minimal
# model deep enough to need hundreds of generators, and the Massey products
# whose shift families take the parameter branches (affine order 2, cross
# terms in a- and higher products), chosen by coordinates.
SELECTIONS = [
    ("SASAKI7_S2CUBE", ["massey"] + _select("a1", "a1", "a2")),
    ("HEIS8_Z3", ["amassey", "--a", "a", "--b", "b1", "--b", "b2", "--b", "b3"]),
    ("HEIS6_Z6", ["lefschetz", "--omega", "omega", "--half-dim", "3"]),
    ("T6", ["higher-massey"] + _select("a1", "a1", "a1", "a1")),
    ("HEIS6_Z6", ["higher-massey"] + _select("beta", "beta", "beta", "beta")),
    ("SASAKI7_S2CUBE", ["higher-massey"] + _select("a1", "a1", "a1", "a2")),
    ("HEIS8_Z3", ["higher-massey"] + _select("a", "b1", "b2", "b3")),
    ("SPHERE2", ["circle-bundle", "--euler", "a"]),
    ("T6", ["circle-bundle", "--euler", "omega"]),
    ("HEIS6_Z6", ["circle-bundle", "--euler", "omega"]),
    ("HEIS8", ["circle-bundle", "--euler", "omega"]),
    ("T6", ["tensor", "--with", SPHERE2_FILE]),
    ("HEIS6_Z6", ["tensor", "--with", SPHERE2_FILE]),
    ("SPHERE2", ["tensor", "--with", SPHERE2_FILE]),
    ("HEIS8_Z3", ["minimal-model", "--bound", "4"]),
    ("HEIS6", ["higher-massey"] + _select(_sel(1, 0), _sel(2, 1), _sel(1, 2), _sel(2, 5))),
    ("HEIS6", ["higher-massey"] + _select(_sel(1, 0), _sel(2, 4), _sel(2, 1), _sel(2, 5))),
    ("HEIS6", ["amassey", "--a", _sel(2, 1), "--b", _sel(1, 0), "--b", _sel(1, 1)]),
    ("HEIS6", ["amassey", "--a", _sel(2, 1), "--b", _sel(1, 1), "--b", _sel(1, 1),
               "--b", _sel(1, 3)]),
    ("HEIS8", ["amassey", "--a", _sel(2, 2), "--b", _sel(1, 1), "--b", _sel(2, 6),
               "--b", _sel(2, 16)]),
]

VERIFY_ARGV = ["verify-paper", "--cases", "50", "--verbose"]

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _label(name: str, params: dict) -> str:
    return name + "".join(f"_{k}{v}" for k, v in params.items())


def cases() -> List[Tuple[str, dict, List[str]]]:
    """(case name, preset document, argv without --format) for every snapshot."""
    out = []
    for name, params in PRESETS:
        doc = models.preset_document(name, **params)
        dim = str(doc["dim"])
        ring_cmd = "invariants" if doc.get("action") else "cohomology"
        cmds = [["validate"], [ring_cmd], [ring_cmd, "--pairing", dim]]
        if doc.get("action"):
            cmds.append(["invariants", "--total"])
        cmds += [["formality", "--poincare-dim", dim],
                 ["lefschetz", "--universal", "--degree", "2"],
                 ["minimal-model", "--bound", "3"]]
        for cmd in cmds:
            out.append((_label(name, params), doc, cmd))
    for name, cmd in SELECTIONS:
        out.append((name, models.preset_document(name), cmd))
    return [(f"{label}__{'_'.join(_arg_label(a) for a in cmd)}", doc, cmd)
            for label, doc, cmd in out]


def _arg_label(arg: str) -> str:
    # A document path is named by its file stem, so case names do not
    # depend on where the checkout lives.  A coordinate selector is named by
    # its degree and nonzero coordinates: {"degree": 2, "coords": [0, 1]} is
    # h2e1, and a coefficient other than 1 follows its index after an x.
    if arg.startswith("{"):
        data = json.loads(arg)
        terms = "".join(f"e{i}" + ("" if str(c) == "1" else f"x{c}")
                        for i, c in enumerate(data["coords"]) if str(c) != "0")
        return re.sub(r"[^\w-]", "_", f"h{data['degree']}{terms}")
    return Path(arg).stem if arg.endswith(".json") else arg.lstrip("-")


def run_cli(argv: List[str], stdin_text: str = "") -> Tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def snapshot(doc: dict, cmd: List[str]) -> Tuple[str, str]:
    """(file suffix, recorded text) of one case."""
    code, out, err = run_cli(cmd + ["--format", "json"], json.dumps(doc))
    if code == 0:
        return ".json", out
    return ".err", f"exit {code}\n{err}"


def verify_snapshot() -> str:
    return run_cli(VERIFY_ARGV)[1]


def demo_snapshot(path: Path) -> str:
    """Stdout of one demo script, run in process as ``__main__``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*"):
        old.unlink()
    for case, doc, cmd in cases():
        suffix, text = snapshot(doc, cmd)
        (GOLDEN / f"{case}{suffix}").write_text(text)
    (GOLDEN / "verify-paper.txt").write_text(verify_snapshot())
    for path in DEMOS:
        (GOLDEN / f"demo-{path.stem}.txt").write_text(demo_snapshot(path))
    print(f"wrote {len(list(GOLDEN.glob('*')))} snapshots to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
