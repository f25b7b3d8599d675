"""Text output of the CLI commands, run in process through ``cli.main``.

Each test checks the exit code and one key line of the default text format;
the JSON format is covered byte for byte by the golden snapshots.
"""

import json

from cdgalab import models

from regenerate_golden import run_cli


def doc_text(name: str, **params) -> str:
    return json.dumps(models.preset_document(name, **params))


def test_preset_prints_its_document():
    code, out, _ = run_cli(["preset", "SASAKI_CPN_S2", "--param", "n=5"])
    assert code == 0
    assert json.loads(out) == models.preset_document("SASAKI_CPN_S2", n=5)


def test_validate_text():
    code, out, _ = run_cli(["validate"], doc_text("HEIS6_Z6"))
    assert code == 0
    assert "action_order: 6" in out.splitlines()


def test_cohomology_text_from_input_file(tmp_path):
    path = tmp_path / "t6.json"
    path.write_text(doc_text("T6"))
    code, out, _ = run_cli(["cohomology", "--input", str(path), "--pairing", "6"])
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["betti: 1 6 15 20 15 6 1", "pairing_ok: True"]
    assert "H^1:" in lines


def test_cap_override_text():
    code, out, _ = run_cli(["cohomology", "--cap", "4", "--max-degree", "3"],
                           doc_text("T6"))
    assert code == 0
    assert out.splitlines()[0] == "betti: 1 6 15 20"


def test_massey_text():
    code, out, _ = run_cli(["massey", "--select", "a1", "--select", "a1",
                            "--select", "a2"], doc_text("SASAKI7_S2CUBE"))
    assert code == 0
    lines = out.splitlines()
    assert "verdict:  NONZERO" in lines
    assert "indeterminacy dimension: 0" in lines


def test_massey_text_undefined_shows_obstruction():
    code, out, _ = run_cli(["massey", "--select", "a1", "--select", "a2",
                            "--select", "a3"], doc_text("T6"))
    assert code == 0
    lines = out.splitlines()
    assert "defined:  False" in lines
    assert "obstruction: (1)*x1*x2*x3*x4" in lines


def test_amassey_text_strict_inconclusive_exits_2():
    sel = [json.dumps({"degree": 1, "coords": [0] * j + [1]}) for j in (1, 1, 3)]
    argv = ["amassey", "--a", json.dumps({"degree": 2, "coords": [0, 1]})]
    for s in sel:
        argv += ["--b", s]
    code, out, _ = run_cli(argv + ["--strict"], doc_text("HEIS6"))
    assert code == 2
    assert "note: cross terms prevent an exact decision within budget" in out.splitlines()


def test_lefschetz_omega_text():
    code, out, _ = run_cli(["lefschetz", "--omega", "omega", "--half-dim", "3"],
                           doc_text("HEIS6_Z6"))
    assert code == 0
    assert out.splitlines()[0] in ("overall: pass", "overall: fail")
    assert any(line.startswith("L^") for line in out.splitlines())


def test_formality_text():
    code, out, _ = run_cli(["formality"], doc_text("HEIS6"))
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["verdict: NOT_FORMAL", "route:   massey_obstruction"]
    assert any(line.startswith("witness: ") for line in lines)


def test_minimal_model_text_with_s_formality():
    code, out, _ = run_cli(["minimal-model", "--bound", "7", "--s-formality", "3"],
                           doc_text("SASAKI_CPN_S2", n=4))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bound: 7"
    assert lines[-1].startswith("s-formality (s=3): ")
