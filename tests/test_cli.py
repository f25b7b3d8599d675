import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "cdgalab.cli"]


def run(args, stdin=None):
    return subprocess.run(CLI + args, input=stdin, capture_output=True,
                          text=True, timeout=300)


def test_preset_pipe_invariants():
    doc = run(["preset", "HEIS6_Z6"]).stdout
    out = run(["invariants"], stdin=doc)
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "betti: 1 0 4 0 4 0 1"


def test_preset_pipe_cohomology_torus():
    doc = run(["preset", "T6"]).stdout
    out = run(["cohomology"], stdin=doc)
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "betti: 1 6 15 20 15 6 1"


def test_preset_param():
    out = run(["preset", "SASAKI_CPN_S2", "--param", "n=5"])
    doc = json.loads(out.stdout)
    assert doc["dim"] == 11


def test_unknown_preset_exit_code():
    out = run(["preset", "NOPE"])
    assert out.returncode == 1
    diag = json.loads(out.stderr)
    assert diag["error"] == "UNKNOWN_PRESET"


def test_massey_json_report(tmp_path):
    doc = run(["preset", "SASAKI7_S2CUBE"]).stdout
    path = tmp_path / "sas7.json"
    path.write_text(doc)
    out = run(["massey", "--input", str(path), "--select", "a1",
               "--select", "a1", "--select", "a2", "--format", "json"])
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["verdict"] == "NONZERO"
    assert rep["indeterminacy_dimension"] == 0


def test_coordinate_selector():
    doc = run(["preset", "SASAKI7_S2CUBE"]).stdout
    out = run(["massey", "--select", '{"degree":2,"coords":["1","0"]}',
               "--select", '{"degree":2,"coords":["1","0"]}',
               "--select", '{"degree":2,"coords":["0","1"]}'], stdin=doc)
    assert out.returncode == 0
    assert "verdict:" in out.stdout


def test_validation_error_exit_1():
    bad = json.dumps({
        "zeta": 1, "degree_cap": 6,
        "generators": [{"name": "x", "degree": 1}, {"name": "u", "degree": 2}],
        "differential": {"x": [{"coeff": "1", "monomial": ["u"]}],
                         "u": [{"coeff": "1", "monomial": ["x", "u"]}]},
        "relations": [],
    })
    out = run(["validate"], stdin=bad)
    assert out.returncode == 1
    diag = json.loads(out.stderr)
    assert diag["error"] == "D2_NONZERO"


def test_huge_modulus_exit_1():
    doc = json.loads(run(["preset", "T6"]).stdout)
    literal = {"zeta": 10**12, "poly": ["0", "1"]}
    docs = [dict(doc, algebra=dict(doc["algebra"], zeta=10**12)),
            dict(doc, algebra=dict(doc["algebra"], differential={
                "x1": [{"coeff": literal, "monomial": ["x2", "x3"]}]}))]
    for bad in docs:
        out = run(["cohomology"], stdin=json.dumps(bad))
        assert out.returncode == 1
        diag = json.loads(out.stderr)
        assert diag["error"] == "MODULUS_TOO_LARGE"
        assert diag["details"]["modulus"] == 10**12


def test_class_outside_invariant_subcomplex_exit_1():
    doc = json.loads(run(["preset", "HEIS6_Z6"]).stdout)
    doc["classes"]["bad"] = [{"coeff": "1", "monomial": ["mu"]}]  # mu is not fixed
    for args in (["massey", "--select", "bad", "--select", "bad", "--select", "bad"],
                 ["lefschetz", "--omega", "bad", "--half-dim", "3"]):
        out = run(args, stdin=json.dumps(doc))
        assert out.returncode == 1
        diag = json.loads(out.stderr)
        assert diag["error"] == "NOT_IN_SUBCOMPLEX"
        assert diag["details"]["degree"] == 1


def test_formality_strict_unknown_exit_2():
    # with the scan budget at zero the nilmanifold's nonzero product is never
    # found; the canonical-split refutation is only evidence, so the verdict
    # stays UNKNOWN and --strict exits 2
    doc = run(["preset", "HEIS6"]).stdout
    out = run(["formality", "--strict", "--budget", "0", "--max-degree", "4"],
              stdin=doc)
    assert out.returncode == 2
    assert "UNKNOWN" in out.stdout


def test_formality_finds_nilmanifold_obstruction_with_budget():
    doc = run(["preset", "HEIS6"]).stdout
    out = run(["formality"], stdin=doc)
    assert out.returncode == 0
    assert "NOT_FORMAL" in out.stdout
    assert "massey_obstruction" in out.stdout


def test_deterministic_outputs():
    doc = run(["preset", "HEIS6_Z6"]).stdout
    a = run(["invariants", "--format", "json"], stdin=doc)
    b = run(["invariants", "--format", "json"], stdin=doc)
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["betti"] == [1, 0, 4, 0, 4, 0, 1]


def test_json_report_reparses():
    doc = run(["preset", "HEIS6_Z6"]).stdout
    out = run(["invariants", "--format", "json"], stdin=doc)
    report = json.loads(out.stdout)
    assert json.loads(json.dumps(report)) == report


def test_verify_paper_smoke():
    out = run(["verify-paper", "--cases", "5"])
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert sum(1 for l in lines if l.startswith("PASS")) == 11
    assert lines[-1].endswith("11/11 checks passed")


def test_higher_massey_cli():
    doc = run(["preset", "T6"]).stdout
    out = run(["higher-massey", "--select", "a1", "--select", "a1",
               "--select", "a1", "--select", "a1"], stdin=doc)
    assert out.returncode == 0
    assert "verdict:  ZERO" in out.stdout


def test_lefschetz_universal_cli():
    doc = run(["preset", "HEIS6_Z6"]).stdout
    out = run(["lefschetz", "--universal", "--degree", "2", "--half-dim", "3"],
              stdin=doc)
    assert out.returncode == 0
    assert "universal witnesses at degree 2: 1" in out.stdout
    assert "nu*nubar" in out.stdout


def test_minimal_model_json_cli():
    doc = run(["preset", "SASAKI_CPN_S2", "--param", "n=4"]).stdout
    out = run(["minimal-model", "--bound", "7", "--format", "json"], stdin=doc)
    assert out.returncode == 0
    model = json.loads(out.stdout)
    assert sorted(g["degree"] for g in model["generators"]) == [2, 3, 7]
    assert model["cn_split"]["3"]["N"]  # the degree-3 generator is not closed


def test_cap_override():
    doc = run(["preset", "T6"]).stdout
    out = run(["cohomology", "--cap", "4", "--max-degree", "3"], stdin=doc)
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "betti: 1 6 15 20"
