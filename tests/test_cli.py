import argparse
import errno
import io
import json
import os
import subprocess
import sys

import pytest

from cdgalab import cli
from cdgalab.models import preset_document

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


BAD_SELECTORS = {
    "negative-degree": '{"degree": -1, "coords": ["1"]}',
    "missing-degree": '{"coords": ["1"]}',
    "string-degree": '{"degree": "a", "coords": ["1"]}',
    "fractional-degree": '{"degree": 1.5, "coords": ["1"]}',
    "scalar-coords": '{"degree": 1, "coords": 3}',
    "word-coords": '{"degree": 1, "coords": ["x"]}',
    "zero-denominator": '{"degree": 1, "coords": ["1/0"]}',
    "boolean-coords": '{"degree": 1, "coords": [true]}',
    "fractional-float-coords": '{"degree": 1, "coords": [0.1]}',
    "unclosed-json": '{"degree": 1, "coords": ["1"]',
}
SELECTOR_COMMANDS = [
    lambda sel: ["massey", "--select", sel, "--select", sel, "--select", sel],
    lambda sel: ["amassey", "--a", sel, "--b", sel],
    lambda sel: ["higher-massey"] + ["--select", sel] * 4,
    lambda sel: ["lefschetz", "--omega", sel, "--half-dim", "3"],
]


@pytest.mark.parametrize("case", sorted(BAD_SELECTORS))
def test_malformed_class_selector_is_a_parse_error(case):
    # Each command that selects classes reads the selector the same way; the
    # cases are spread over all four of them.
    doc = run(["preset", "T6"]).stdout
    sel = BAD_SELECTORS[case]
    command = SELECTOR_COMMANDS[sorted(BAD_SELECTORS).index(case) % len(SELECTOR_COMMANDS)]
    out = run(command(sel), stdin=doc)
    assert out.returncode == 1
    diag = json.loads(out.stderr)
    assert diag["error"] == "PARSE_ERROR"
    assert diag["details"] == {"selector": sel, "max_degree": 6}


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


# -- in process: one parser per process -------------------------------------

def main_in_process(argv, stdin, capsys, monkeypatch):
    """(exit code, stdout, stderr) of cli.main, argparse's own exit included."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_shared_parser_leaks_no_state(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    sas7 = json.dumps(preset_document("SASAKI7_S2CUBE"))
    t6 = json.dumps(preset_document("T6"))
    readme = ["massey", "--select", "a1", "--select", "a1", "--select", "a2"]
    first = main_in_process(readme, sas7, capsys, monkeypatch)
    assert first[0] == 0 and "verdict:  NONZERO" in first[1]
    # the append list starts empty on each call: a fourth --select would fail
    assert main_in_process(readme, sas7, capsys, monkeypatch) == first
    assert cli.build_parser().parse_args(readme).select == ["a1", "a1", "a2"]
    capped = main_in_process(["cohomology", "--cap", "4", "--max-degree", "3"], t6,
                             capsys, monkeypatch)
    assert capped[1].splitlines()[0] == "betti: 1 6 15 20"
    uncapped = main_in_process(["cohomology"], t6, capsys, monkeypatch)
    assert uncapped[1].splitlines()[0] == "betti: 1 6 15 20 15 6 1"
    rejected = main_in_process(["massey", "--no-such-flag"], sas7, capsys, monkeypatch)
    assert rejected[0] == 2 and rejected[1] == ""
    assert main_in_process(readme, sas7, capsys, monkeypatch) == first


# -- malformed documents ------------------------------------------------------

def _t6_with(edit, name="T6"):
    doc = preset_document(name)
    edit(doc)
    return json.dumps(doc)


def _misspell_relation_monomial(doc):
    doc.pop("volume")
    term = doc["algebra"]["relations"][0][0]
    term["mono"] = term.pop("monomial")


def _heis6_theta_coeff(coeff):
    return _t6_with(lambda d: d["algebra"]["differential"]["theta"][0].update(coeff=coeff),
                    "HEIS6")


MALFORMED_DOCUMENTS = {
    "word-degree": (lambda: _t6_with(lambda d: d["algebra"]["generators"][0].update(degree="x")),
                    {"got": "x"}),
    "zero-denominator": (lambda: _t6_with(lambda d: d["classes"]["a1"][0].update(coeff="1/0")),
                         {"got": "1/0"}),
    "word-modulus": (lambda: _t6_with(lambda d: d["algebra"].update(zeta="x")), {"got": "x"}),
    "negative-modulus": (lambda: _t6_with(lambda d: d["algebra"].update(zeta=-3)),
                         {"modulus": -3}),
    "not-json": (lambda: '{"a":', {"reason": "Expecting value", "line": 1, "column": 6}),
    "top-level-list": (lambda: "[1, 2]", {"got": "list"}),
    "no-algebra": (lambda: '{"dim": 6}', {"keys": ["dim"]}),
    "generator-without-degree": (
        lambda: _t6_with(lambda d: d["algebra"]["generators"][0].pop("degree")),
        {"got": {"name": "x1"}}),
    "generator-as-string": (
        lambda: _t6_with(lambda d: d["algebra"]["generators"].__setitem__(0, "x1")),
        {"got": "x1"}),
    "differential-as-list": (lambda: _t6_with(lambda d: d["algebra"].update(differential=[])),
                             {"got": "list"}),
    "relations-as-object": (lambda: _t6_with(lambda d: d["algebra"].update(relations={"a": 1})),
                            {"got": "dict"}),
    "relations-null": (lambda: _t6_with(lambda d: d["algebra"].update(relations=None)),
                       {"got": "NoneType"}),
    "term-as-string": (lambda: _t6_with(lambda d: d["algebra"]["differential"].update(y=["x"])),
                       {"got": "str"}),
    "monomial-as-number": (
        lambda: _t6_with(lambda d: d["classes"]["a1"][0].update(monomial=5)), {"got": "int"}),
    "action-as-list": (lambda: _t6_with(lambda d: d.update(action=[1])), {"got": "list"}),
    "images-as-list": (lambda: _t6_with(lambda d: d["action"].update(images=[1]), "T6_Z2"),
                       {"got": "list"}),
    "action-without-order": (lambda: _t6_with(lambda d: d["action"].pop("order"), "T6_Z2"),
                             {"got": None}),
    "classes-as-list": (lambda: _t6_with(lambda d: d.update(classes=[1])), {"got": "list"}),
    "volume-as-number": (lambda: _t6_with(lambda d: d.update(volume=5)), {"got": "int"}),
    # A volume that a relation divides, or an odd square, is one monomial that is zero.
    "volume-in-the-ideal": (lambda: _t6_with(lambda d: d.update(volume=["a", "a"]), "SPHERE2"),
                            {"got": ["a", "a"], "reason": "zero in the quotient"}),
    "volume-odd-square": (lambda: _t6_with(lambda d: d.update(volume=["x1", "x1"])),
                          {"got": ["x1", "x1"], "reason": "zero in the quotient"}),
    # a*b = 2*b^2 in the quotient: read as b^2, the volume would lose its factor 2.
    "volume-rescaled-by-a-relation": (lambda: json.dumps({
        "generators": [{"name": "a", "degree": 2}, {"name": "b", "degree": 2}],
        "relations": [[{"monomial": ["a", "b"]}, {"coeff": "-2", "monomial": ["b", "b"]}]],
        "degree_cap": 6, "volume": ["a", "b"]}), {"got": ["a", "b"], "coefficient": "2"}),
    # Integer fields are read exactly: a fraction or a bool is refused, not truncated.
    "fractional-degree": (lambda: '{"generators": [{"name": "x", "degree": 1.5}]}',
                          {"got": 1.5}),
    "boolean-degree": (lambda: '{"generators": [{"name": "x", "degree": true}]}',
                       {"got": True}),
    "fractional-cap": (lambda: _t6_with(lambda d: d["algebra"].update(degree_cap=7.5)),
                       {"got": 7.5}),
    "fractional-modulus": (lambda: _t6_with(lambda d: d["algebra"].update(zeta=1.5)),
                           {"got": 1.5}),
    "fractional-literal-modulus": (
        lambda: _t6_with(lambda d: d["algebra"]["differential"]["theta"][0].update(
            coeff={"zeta": 2.5, "poly": ["1"]}), "HEIS6"),
        {"got": 2.5}),
    "boolean-literal-modulus": (
        lambda: _t6_with(lambda d: d["classes"]["a1"][0].update(coeff={"zeta": True,
                                                                      "poly": ["1"]})),
        {"got": True}),
    "fractional-order": (lambda: _t6_with(lambda d: d["action"].update(order=2.5), "T6_Z2"),
                         {"got": 2.5}),
    "list-name": (lambda: _t6_with(lambda d: d["algebra"]["generators"][0].update(name=["x1"])),
                  {"got": {"name": ["x1"], "degree": 1}}),
    "word-dim": (lambda: _t6_with(lambda d: d.update(dim="x")), {"got": "x"}),
    "boolean-dim": (lambda: _t6_with(lambda d: d.update(dim=True)), {"got": True}),
    # One reader for rational literals, alone or inside a poly.
    "boolean-literal": (lambda: _t6_with(lambda d: d["classes"]["a1"][0].update(coeff=True)),
                        {"got": True}),
    "poly-as-string": (lambda: _heis6_theta_coeff({"zeta": 12, "poly": "12"}), {"got": "str"}),
    "boolean-in-poly": (lambda: _heis6_theta_coeff({"zeta": 12, "poly": [True, "1"]}),
                        {"got": True}),
    "fractional-float-in-poly": (lambda: _heis6_theta_coeff({"zeta": 12, "poly": [0.1]}),
                                 {"got": 0.1}),
    "poly-null": (lambda: _heis6_theta_coeff({"zeta": 12, "poly": None}), {"got": "NoneType"}),
    "half-dim-disagrees": (lambda: _t6_with(lambda d: d.update(half_dim=2)),
                           {"half_dim": 2, "dim": 6}),
    "word-half-dim": (lambda: _t6_with(lambda d: d.update(half_dim="x")), {"got": "x"}),
    # A negative dimension is refused where it is read, before any basis is built.
    "negative-dim": (lambda: _t6_with(lambda d: (d.pop("half_dim", None), d.update(dim=-2))),
                     {"got": -2}),
    "negative-half-dim": (lambda: _t6_with(lambda d: (d.pop("dim"), d.update(half_dim=-1))),
                          {"got": -1}),
    # A term names its monomial: read as the unit, SPHERE2's relation a^2 = 0 was 1 = 0,
    # and its cohomology came out as "betti: 0 0 0", exit 0.
    "term-without-monomial": (lambda: _t6_with(_misspell_relation_monomial, "SPHERE2"),
                              {"got": {"coeff": "1", "mono": ["a", "a"]}}),
    "term-without-monomial-or-coeff": (
        lambda: _t6_with(lambda d: d["algebra"]["differential"]["theta"].append({}), "HEIS6"),
        {"got": {}}),
    "term-with-unknown-key": (lambda: _t6_with(lambda d: d["classes"]["a1"][0].update(extra=5)),
                              {"got": {"coeff": "1", "monomial": ["x1", "x2"], "extra": 5}}),
    "image-term-with-unknown-key": (
        lambda: _t6_with(lambda d: d["action"]["images"]["x1"][0].update(coef="-1"), "T6_Z2"),
        {"got": {"coeff": "-1", "monomial": ["x1"], "coef": "-1"}}),
}


def test_a_term_without_coeff_has_coefficient_one(capsys, monkeypatch):
    argv = ["massey", "--select", "a1", "--select", "a2", "--select", "a1", "--format", "json"]
    outputs = [main_in_process(argv, _t6_with(edit), capsys, monkeypatch)
               for edit in (lambda d: None, lambda d: d["classes"]["a1"][0].pop("coeff"))]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_class_and_image_moduli_raise_the_document_modulus(capsys, monkeypatch):
    # The modulus is the lcm of every modulus that appears, classes and images too.
    zeta4 = {"zeta": 4, "poly": ["0", "1"]}
    t6 = _t6_with(lambda d: d["classes"]["a1"][0].update(coeff=zeta4))
    code, out, err = main_in_process(["massey", "--select", "a1", "--select", "a2", "--select",
                                      "a1", "--format", "json"], t6, capsys, monkeypatch)
    assert (code, err) == (0, "") and "(z4)" in out
    minus_one = {"zeta": 4, "poly": ["-1"]}
    t6z2 = _t6_with(lambda d: d["action"]["images"]["x1"][0].update(coeff=minus_one), "T6_Z2")
    code, out, err = main_in_process(["invariants"], t6z2, capsys, monkeypatch)
    assert (code, err) == (0, "") and out.startswith("betti: 1 0 15 0 15 0 1")


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
def test_malformed_document_is_a_parse_error(case, capsys, monkeypatch):
    text, details = MALFORMED_DOCUMENTS[case]
    code, out, err = main_in_process(["cohomology"], text(), capsys, monkeypatch)
    assert code == 1 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "PARSE_ERROR"
    assert diag["details"] == details


def test_lefschetz_defaults_to_the_document_half_dim(capsys, monkeypatch):
    doc = preset_document("T6")
    del doc["dim"]
    doc["half_dim"] = 2
    argv = ["lefschetz", "--omega", "omega", "--format", "json"]
    code, out, _ = main_in_process(argv, json.dumps(doc), capsys, monkeypatch)
    assert code == 0
    assert json.loads(out)["half_dim"] == 2


@pytest.mark.parametrize("degree, cap, dim", [(1, 3, 2), (1.0, 3.0, 2.0), ("1", "3", "2")],
                         ids=["int", "integral-float", "string"])
def test_integer_fields_read_integral_values(degree, cap, dim, capsys, monkeypatch):
    doc = {"generators": [{"name": "x", "degree": degree}], "degree_cap": cap, "dim": dim}
    code, out, _ = main_in_process(["cohomology"], json.dumps(doc), capsys, monkeypatch)
    assert code == 0
    assert out.splitlines()[0] == "betti: 1 1 0"


@pytest.mark.parametrize("param, details", [("m=x", {"param": "m", "got": "x"}),
                                            ("m", {"param": "m", "got": ""})],
                         ids=["word-value", "no-equals-sign"])
def test_preset_param_must_be_an_integer(param, details, capsys, monkeypatch):
    code, out, err = main_in_process(["preset", "CPN", "--param", param], "",
                                     capsys, monkeypatch)
    assert code == 1 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "PARSE_ERROR"
    assert diag["details"] == details


@pytest.mark.parametrize("name, param, known", [("CPN", "q=3", ["m", "n"]),
                                                 ("T6", "m=3", []),
                                                 ("SASAKI_CPN_S2", "m=5", ["n"])])
def test_preset_refuses_a_parameter_it_does_not_take(name, param, known, capsys, monkeypatch):
    code, out, err = main_in_process(["preset", name, "--param", param], "",
                                     capsys, monkeypatch)
    assert code == 1 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "PARSE_ERROR"
    assert diag["details"] == {"param": param.split("=")[0], "known": known}


def test_cpn_takes_n_for_m(capsys, monkeypatch):
    runs = [main_in_process(["preset", "CPN", "--param", p], "", capsys, monkeypatch)
            for p in ("m=3", "n=3")]
    assert runs[0] == runs[1] and runs[0][0] == 0 and '"CPN(3)"' in runs[0][1]


@pytest.mark.parametrize("argv, details", [
    (["CPN", "--param", "m=2", "--param", "n=3"], {"param": "n", "got": 3}),
    (["CPN", "--param", "m=3", "--param", "m=4"], {"param": "m", "got": [3, 4]}),
    (["SASAKI_CPN_S2", "--param", "n=3", "--param", "n=5"], {"param": "n", "got": [3, 5]}),
], ids=["cpn-m-and-n", "cpn-m-twice", "sasaki-n-twice"])
def test_preset_refuses_parameters_that_conflict(argv, details, capsys, monkeypatch):
    code, out, err = main_in_process(["preset"] + argv, "", capsys, monkeypatch)
    assert code == 1 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "PARSE_ERROR"
    assert diag["details"] == details


def test_a_volume_that_is_zero_says_so(capsys, monkeypatch):
    text = _t6_with(lambda d: d.update(volume=["a", "a"]), "SPHERE2")
    code, _, err = main_in_process(["cohomology"], text, capsys, monkeypatch)
    assert code == 1 and "zero in the quotient" in json.loads(err)["message"]


@pytest.mark.parametrize("generators, betti", [([{"name": "x", "degree": 1}], "betti: 1 1 0"),
                                               ([], "betti: 1 0")],
                         ids=["one-generator", "no-generators"])
def test_default_cap_admits_one_or_no_generator(generators, betti, capsys, monkeypatch):
    # The default cap must reach two above the highest generator degree,
    # which one above the sum of the degrees does not for these two.
    code, out, _ = main_in_process(["cohomology"], json.dumps({"generators": generators}),
                                   capsys, monkeypatch)
    assert code == 0
    assert out.splitlines()[0] == betti


NEGATIVE_ARGUMENTS = {
    "max-degree-minus-two": (["cohomology", "--max-degree", "-2"], "T6", {"max_degree": -2}),
    "max-degree-minus-one": (["cohomology", "--max-degree", "-1"], "T6", {"max_degree": -1}),
    "half-dim": (["lefschetz", "--omega", "omega", "--half-dim", "-1"], "T6", {"half_dim": -1}),
    "poincare-dim": (["formality", "--poincare-dim", "-6", "--simply-connected"], "HEIS6_Z6",
                     {"dimension": -6}),
    "bound": (["minimal-model", "--bound", "-3"], "T6", {"bound": -3}),
    "bound-invariant": (["minimal-model", "--bound", "-3"], "T6_Z2", {"bound": -3}),
    "pairing": (["cohomology", "--pairing", "-1"], "T6", {"pairing": -1}),
    "s-formality": (["minimal-model", "--bound", "3", "--s-formality", "-5"], "T6_Z2",
                    {"s": -5}),
    "universal-degree": (["lefschetz", "--universal", "--degree", "-1"], "HEIS8_Z3",
                         {"degree": -1}),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_ARGUMENTS))
def test_negative_degree_argument_is_a_parse_error(case, capsys, monkeypatch):
    # Before, these ended in a traceback, answered with exit 0 (an empty report,
    # "overall": true, FORMAL by low_dimension, "bound": -3, pairing_ok read
    # from the end of the Betti list, CERTIFIED s-formality) or named no value.
    argv, name, details = NEGATIVE_ARGUMENTS[case]
    code, out, err = main_in_process(argv + ["--format", "json"],
                                     json.dumps(preset_document(name)), capsys, monkeypatch)
    assert code == 1 and out == ""
    diag = json.loads(err)
    assert (diag["error"], diag["details"]) == ("PARSE_ERROR", details)


@pytest.mark.parametrize("argv", [
    ["formality", "--budget", "-1"],
    ["amassey", "--a", "a", "--b", "b1", "--b", "b2", "--budget", "-2"],
    ["higher-massey", "--select", "a", "--select", "b1", "--select", "b2",
     "--select", "b3", "--budget", "-1"]])
def test_negative_budget_is_a_parse_error(argv, capsys, monkeypatch):
    # Before, formality --budget -1 on HEIS8_Z3 answered UNKNOWN with exit 0.
    budget = int(argv[-1])
    doc = json.dumps(preset_document("HEIS8_Z3"))
    code, out, err = main_in_process(argv + ["--format", "json"], doc, capsys, monkeypatch)
    assert code == 1 and out == ""
    diag = json.loads(err)
    assert (diag["error"], diag["details"]) == ("PARSE_ERROR", {"budget": budget})


def test_zero_budget_is_read_as_given(capsys, monkeypatch):
    code, out, _ = main_in_process(["formality", "--budget", "0", "--format", "json"],
                                   json.dumps(preset_document("HEIS8_Z3")), capsys, monkeypatch)
    assert code == 0 and json.loads(out) == {
        "verdict": "UNKNOWN", "route": "s_formality_inconclusive",
        "certificate": {"s": 3, "checked_through": 6}}


def test_pairing_beyond_the_computed_range_is_a_degree_overflow(capsys, monkeypatch):
    # Before, this ended in an IndexError traceback from the Betti numbers.
    code, out, err = main_in_process(["cohomology", "--pairing", "99", "--format", "json"],
                                     json.dumps(preset_document("T6")), capsys, monkeypatch)
    assert code == 1 and out == ""
    diag = json.loads(err)
    assert (diag["error"], diag["details"]) == ("DEGREE_OVERFLOW", {"degree": 99})


ZERO_IN_DEGREE_0 = '{"degree": 0, "coords": []}'


@pytest.mark.parametrize("argv,degree", [
    (["amassey", "--a", ZERO_IN_DEGREE_0] + ["--b", ZERO_IN_DEGREE_0] * 3, -2),
    (["higher-massey"] + ["--select", ZERO_IN_DEGREE_0] * 4, -1),
], ids=["amassey", "higher-massey"])
def test_a_class_below_degree_0_is_a_degree_overflow(argv, degree, capsys, monkeypatch):
    # Before, the primitives of degree-0 products fell below degree 0 unrefused:
    # both commands answered ZERO in degree -2, and a_massey read betti[-1], the
    # top Betti number, as a shift dimension.
    code, out, err = main_in_process(argv + ["--format", "json"],
                                     json.dumps(preset_document("T6")), capsys, monkeypatch)
    assert code == 1 and out == ""
    diag = json.loads(err)
    assert (diag["error"], diag["details"]) == ("DEGREE_OVERFLOW", {"degree": degree})


@pytest.mark.parametrize("name,argv,verdict,code", [
    ("T6_Z2", ["--bound", "3", "--s-formality", "2"],
     {"s": 2, "status": "CERTIFIED", "route": "n_part_vanishes"}, 0),
    ("SASAKI7_S2CUBE", ["--bound", "4", "--s-formality", "3", "--strict"],
     {"s": 3, "status": "INCONCLUSIVE", "route": "scan_clean_to_bound"}, 2),
], ids=["certified", "inconclusive-strict"])
def test_s_formality_is_a_key_of_the_json_report(name, argv, verdict, code, capsys,
                                                 monkeypatch):
    # Before, the text line "s-formality (s=2): ..." followed the JSON document.
    doc = json.dumps(preset_document(name))
    base = ["minimal-model", "--format", "json", "--bound", argv[1]]
    _, plain, _ = main_in_process(base, doc, capsys, monkeypatch)
    got, out, err = main_in_process(base + argv[2:], doc, capsys, monkeypatch)
    assert (got, err) == (code, "")
    report = json.loads(out)
    assert report.pop("s_formality") == verdict
    assert report == json.loads(plain)


def test_zero_counts_as_given(capsys, monkeypatch):
    # 0 is a value, not "absent": it must not fall back to the document's dim.
    t6 = json.dumps(preset_document("T6"))
    argv = ["lefschetz", "--omega", "omega", "--half-dim", "0", "--format", "json"]
    code, out, _ = main_in_process(argv, t6, capsys, monkeypatch)
    assert code == 0 and json.loads(out)["half_dim"] == 0
    argv = ["formality", "--poincare-dim", "0", "--format", "json"]
    code, out, _ = main_in_process(argv, json.dumps(preset_document("HEIS6_Z6")),
                                   capsys, monkeypatch)
    assert code == 0 and json.loads(out)["certificate"]["dimension"] == 0
    dim0 = _t6_with(lambda d: (d.pop("half_dim", None), d.update(dim=0)))
    code, out, _ = main_in_process(["cohomology", "--format", "json"], dim0, capsys, monkeypatch)
    assert code == 0 and json.loads(out)["betti"] == [1]


def test_a_reader_that_leaves_early_gets_no_traceback():
    """The read end is closed before the CLI writes: exit 1, and stderr is quiet."""
    doc = run(["preset", "HEIS6"]).stdout
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(CLI + ["cohomology"], input=doc, stdout=write_end,
                             stderr=subprocess.PIPE, text=True, timeout=300)
    finally:
        os.close(write_end)
    assert out.returncode == 1
    assert "Traceback" not in out.stderr and "Exception ignored" not in out.stderr


# -- unreadable input and the parser surface ---------------------------------

def _parse_error(argv, stdin, capsys, monkeypatch):
    code, out, err = main_in_process(argv + ["--format", "json"], stdin, capsys, monkeypatch)
    assert code == 1 and out == "" and "Traceback" not in err
    diag = json.loads(err)
    assert diag["error"] == "PARSE_ERROR"
    return diag["details"]


def test_a_missing_input_file_is_a_parse_error(tmp_path, capsys, monkeypatch):
    # Before, this ended in a FileNotFoundError traceback.
    missing = str(tmp_path / "missing.json")
    details = _parse_error(["cohomology", "--input", missing], "", capsys, monkeypatch)
    assert details == {"path": missing, "reason": os.strerror(errno.ENOENT)}


def test_an_unreadable_tensor_factor_is_a_parse_error(tmp_path, capsys, monkeypatch):
    # Before, --with opened and parsed the file itself: a malformed file ended
    # in a JSONDecodeError traceback, a missing one in FileNotFoundError.
    t6 = json.dumps(preset_document("T6"))
    bad = tmp_path / "bad.json"
    bad.write_text('{"algebra":\n  [}')
    details = _parse_error(["tensor", "--with", str(bad)], t6, capsys, monkeypatch)
    assert details == {"reason": "Expecting value", "line": 2, "column": 4,
                       "path": str(bad)}
    missing = str(tmp_path / "missing.json")
    details = _parse_error(["tensor", "--with", missing], t6, capsys, monkeypatch)
    assert details == {"path": missing, "reason": os.strerror(errno.ENOENT)}


def test_an_input_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, monkeypatch):
    # Before, this ended in a UnicodeDecodeError traceback.
    path = tmp_path / "binary.json"
    path.write_bytes(b'{"a": "\xff"}')
    details = _parse_error(["validate", "--input", str(path)], "", capsys, monkeypatch)
    assert details == {"reason": "invalid start byte", "position": 7, "path": str(path)}


def test_stdin_that_is_not_utf8_is_a_parse_error():
    # Before, stdin reached json.load through the stream's error handler and the
    # same bytes as in a file came back as "the input is not JSON".
    out = subprocess.run(CLI + ["validate", "--format", "json"], input=b"\xff\xfe",
                         capture_output=True, timeout=300)
    assert out.returncode == 1 and out.stdout == b""
    diag = json.loads(out.stderr)
    assert (diag["error"], diag["message"], diag["details"]) == (
        "PARSE_ERROR", "the input is not UTF-8 text",
        {"reason": "invalid start byte", "position": 0})


def test_an_euler_class_that_is_not_json_is_a_parse_error(capsys, monkeypatch):
    # Before, this ended in a JSONDecodeError traceback.
    details = _parse_error(["circle-bundle", "--euler", "{"],
                           json.dumps(preset_document("T6")), capsys, monkeypatch)
    assert details == {"got": "{", "known": ["a1", "a2", "a3", "omega"]}


DOCUMENT = {"input", "cap", "format"}
RING = DOCUMENT | {"total", "max_degree"}

# The optional arguments each subcommand accepts, every one of them read.
OPTION_DESTS = {
    "preset": {"param"},
    "validate": DOCUMENT,
    "cohomology": RING | {"pairing"},
    "invariants": RING | {"pairing"},
    "massey": RING | {"strict", "select"},
    "amassey": RING | {"strict", "budget", "a", "b"},
    "higher-massey": RING | {"strict", "budget", "select"},
    "lefschetz": RING | {"omega", "half_dim", "universal", "degree"},
    "circle-bundle": DOCUMENT | {"euler", "gen_name"},
    "tensor": DOCUMENT | {"with_"},
    "minimal-model": RING | {"strict", "bound", "s_formality"},
    "formality": RING | {"strict", "budget", "poincare_dim", "simply_connected"},
    "verify-paper": {"cases", "verbose"},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    dests = {name: {a.dest for a in p._actions if a.option_strings and a.dest != "help"}
             for name, p in subparsers.items()}
    assert dests == OPTION_DESTS


def test_an_option_a_command_does_not_read_is_refused(capsys, monkeypatch):
    code, out, err = main_in_process(["cohomology", "--budget", "1"],
                                     json.dumps(preset_document("T6")), capsys, monkeypatch)
    assert code == 2 and out == ""
    assert "unrecognized arguments: --budget 1" in err


NINES = "9" * 3000  # read as an int; the representative's products pass 4300 digits


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter writes ints of any length")
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_report_scalar_past_the_digit_limit_is_refused(fmt, capsys, monkeypatch):
    # Before, both formats ended in a ValueError traceback from Fraction.__str__.
    selectors = [f'{{"degree": 2, "coords": {coords}}}'
                 for coords in (f'["{NINES}"]', f'["{NINES}"]', f'[0, "{NINES}"]')]
    argv = ["massey", "--format", fmt] + [a for s in selectors for a in ("--select", s)]
    code, out, err = main_in_process(argv, json.dumps(preset_document("SASAKI7_S2CUBE")),
                                     capsys, monkeypatch)
    assert code == 1 and out == ""
    diag = json.loads(err)
    assert (diag["error"], diag["details"]) == (
        "SCALAR_TOO_LARGE", {"digits": 9000, "limit": sys.get_int_max_str_digits()})
