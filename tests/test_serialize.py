import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cdgalab.errors import InhomogeneousElement, ParseError
from cdgalab.models import preset, preset_document
from cdgalab.scalars import CycField
from cdgalab.serialize import (
    algebra_from_json,
    algebra_to_json,
    cohomology_report,
    document_from_json,
    document_to_json,
    dumps,
    element_from_json,
    element_to_json,
    scalar_from_json,
    scalar_to_json,
)


def test_scalar_roundtrip_rational():
    field = CycField.get(12)
    for value in ("3/2", "-7", "0", "22/7"):
        s = scalar_from_json(value, field)
        assert s.rational_value() == Fraction(value)
        assert scalar_from_json(scalar_to_json(s), field) == s


def test_scalar_roundtrip_cyclotomic():
    field = CycField.get(12)
    s = field.zeta(3) + field.rational(Fraction(1, 2))
    data = scalar_to_json(s)
    assert data["zeta"] == 12
    assert scalar_from_json(data, field) == s


def test_scalar_promotion_from_smaller_field():
    field = CycField.get(12)
    data = {"zeta": 6, "poly": ["0", "1"]}  # zeta_6
    s = scalar_from_json(data, field)
    assert s == field.zeta(2)


def test_scalar_rejects_floats():
    field = CycField.get(1)
    with pytest.raises(ParseError):
        scalar_from_json(0.5, field)
    assert scalar_from_json(3, field) == field.rational(3)


def test_one_reader_for_literals_alone_and_in_poly():
    field = CycField.get(12)
    for literal in (3, 3.0, "3", "6/2"):
        assert scalar_from_json(literal, field) == field.rational(3)
        assert scalar_from_json({"zeta": 12, "poly": [literal]}, field) == field.rational(3)
    for literal in (True, 0.5, None, [1], {"poly": ["1"]}):
        with pytest.raises(ParseError):
            scalar_from_json(literal, field)
        with pytest.raises(ParseError):
            scalar_from_json({"zeta": 12, "poly": [literal]}, field)


def test_element_roundtrip():
    bundle = preset("HEIS6")
    omega = bundle.classes["omega"]
    expr = element_to_json(omega)
    back = element_from_json(expr, bundle.spec)
    assert back == omega
    assert element_to_json(back) == expr


def test_algebra_document_roundtrip():
    bundle = preset("HEIS8_Z3")
    doc = algebra_to_json(bundle.spec)
    spec2 = algebra_from_json(doc).validate()
    assert [g.name for g in spec2.generators] == \
        [g.name for g in bundle.spec.generators]
    assert spec2.degree_cap == bundle.spec.degree_cap
    assert algebra_to_json(spec2) == doc


def test_document_modulus_is_lcm_of_scalars():
    doc = {
        "zeta": 4,
        "degree_cap": 4,
        "generators": [{"name": "u", "degree": 1}, {"name": "v", "degree": 1}],
        "differential": {},
        "relations": [[{"coeff": {"zeta": 6, "poly": ["0", "1"]},
                        "monomial": ["u", "v"]}]],
    }
    spec = algebra_from_json(doc)
    assert spec.field.modulus == 12


def test_mixed_degree_element_rejected():
    bundle = preset("T6")
    with pytest.raises(InhomogeneousElement):
        element_from_json([
            {"coeff": "1", "monomial": ["x1"]},
            {"coeff": "1", "monomial": ["x1", "x2"]},
        ], bundle.spec)


def test_cohomology_report_schema():
    from cdgalab.cohomology import cohomology
    bundle = preset("T6")
    ring = cohomology(bundle.spec, 6)
    report = cohomology_report(ring, pairing_degree=6)
    assert report["betti"] == [1, 6, 15, 20, 15, 6, 1]
    assert report["pairing_ok"] is True
    assert set(report["reps"].keys()) == {str(k) for k in range(7)}
    json.dumps(report)  # serializable


def test_full_document_roundtrip_bit_exact():
    for name in ("HEIS6_Z6", "T6_Z2", "SASAKI7_S2CUBE"):
        doc = preset_document(name)
        spec, action, classes, volume, meta = document_from_json(doc)
        emitted = document_to_json(spec, action=action, classes=classes,
                                   volume=volume, meta=meta)
        # a second pass through parse/emit is byte-stable
        spec2, action2, classes2, volume2, meta2 = document_from_json(emitted)
        emitted2 = document_to_json(spec2, action=action2, classes=classes2,
                                    volume=volume2, meta=meta2)
        assert json.dumps(emitted) == json.dumps(emitted2)


@pytest.mark.parametrize("name", ["HEIS6", "HEIS6_Z6"])
def test_a_volume_parses_to_its_normal_form_monomial(name):
    # mu mubar nu nubar theta thetabar is -1 times the normal-form monomial
    # (generators in spec order); the volume keeps the monomial, not the sign,
    # so the declared order never reaches integrate.
    doc = preset_document(name)
    spec, _, _, volume, _ = document_from_json(doc)
    assert volume == tuple(range(6))
    assert spec.element([(1, tuple(doc["volume"]))]).terms == {volume: -spec.field.one}
    in_spec_order = dict(doc, volume=[g.name for g in spec.generators])
    assert document_from_json(in_spec_order)[3] == volume


# -- the report writer ------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**40, 10**40)
    | st.text(alphabet=st.characters(codec="utf-8"), max_size=6)
    | st.sampled_from(["", "\"", "\\", "\n\t", "é", "ζ₁₂", "\x00", "\U0001d49e"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_dumps_writes_what_the_stdlib_encoder_writes(value):
    assert dumps(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a": [set()]}])
def test_dumps_refuses_what_a_report_never_holds(value):
    with pytest.raises(TypeError):
        dumps(value)
