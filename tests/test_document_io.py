"""The document reader and report writer work on the engine's own representations.

Each fast path is pinned to the round trip it replaces, kept here as the
reference:

* a slice vector is written from its basis in index order, where the
  reference builds ``slices.to_element(k, vec)`` and sorts its terms: every
  basis is in sorted monomial order, so the bytes agree;
* a scalar is written from its integer numerators and denominator, where the
  reference builds a ``Fraction`` per coefficient;
* a rational literal of plain ASCII digits is read by ``int``, where the
  reference reads every string with ``Fraction``, and refuses exactly what
  ``Fraction`` refuses.
"""

import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cdgalab.chains import FreeSlices
from cdgalab.cohomology import cohomology
from cdgalab.errors import ParseError, ScalarTooLarge
from cdgalab.minmodel import build_minimal_model
from cdgalab.models import FIXED_PRESETS, preset
from cdgalab.scalars import CycField
from cdgalab.serialize import (
    _rational,
    dumps,
    element_to_json,
    scalar_from_json,
    scalar_to_json,
    vector_to_json,
)
from cdgalab.symmetry import invariant_cohomology, invariant_complex

from test_known_products import scalars
from test_monomial_ideals import _spec

PRESETS = [(name, {}) for name in FIXED_PRESETS] + [("CPN", {"m": 3}),
                                                    ("SASAKI_CPN_S2", {"n": 4})]


# -- references --------------------------------------------------------------

def ref_scalar_json(s):
    """The writer before: a Fraction per coefficient."""
    if s.is_rational():
        return str(s.rational_value())
    return {"zeta": s.field.modulus, "poly": [str(c) for c in s.coeffs]}


def ref_scalar_text(s):
    """CycScalar.__str__ before: a Fraction per coefficient."""
    if s.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(s.coeffs):
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            z = f"z{s.field.modulus}" + (f"^{k}" if k > 1 else "")
            parts.append(z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}")
    return " + ".join(parts).replace("+ -", "- ")


def ref_rational(text):
    """The reader before: every string through Fraction."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return "PARSE_ERROR"


def read(text):
    try:
        return _rational(text)
    except ParseError:
        return "PARSE_ERROR"


# -- the term writer ---------------------------------------------------------

def assert_vector_path(slices, k, vec):
    assert dumps(vector_to_json(slices, k, vec)) == \
        dumps(element_to_json(slices.to_element(k, vec))), (k, vec)


def random_vec(rng, field, dim):
    """A vector with entries on about half the coordinates, irrational when the field allows."""
    out = {}
    for i in range(dim):
        if rng.random() < 0.5:
            c = field.from_poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                 for _ in range(field.degree)])
            if not c.is_zero():
                out[i] = c
    return out


def assert_every_degree(slices, top, rng, reps=None):
    """Basis vectors, random vectors and the ring's representatives of each degree."""
    one = slices.field.one
    for k in range(top + 1):
        dim = slices.dim(k)
        for i in range(dim):
            assert_vector_path(slices, k, {i: one})
        for _ in range(3):
            assert_vector_path(slices, k, random_vec(rng, slices.field, dim))
        for rep in (reps(k) if reps is not None else ()):
            assert_vector_path(slices, k, rep)


@pytest.mark.parametrize("name, params", PRESETS, ids=[n for n, _ in PRESETS])
def test_a_vector_writes_the_bytes_of_its_element_on_every_preset(name, params):
    bundle = preset(name, **params)
    spec, rng = bundle.spec, random.Random(name)
    top = spec.degree_cap - 1
    for k in range(spec.degree_cap + 1):
        assert spec.basis(k) == sorted(spec.basis(k)), k
    ring = cohomology(spec, top)
    assert_every_degree(ring.slices, top, rng, ring.reps)
    if bundle.action is not None:
        inv = invariant_cohomology(bundle.action, top)
        assert_every_degree(inv.slices, top, rng, inv.reps)
        assert_every_degree(invariant_complex(bundle.action), spec.degree_cap, rng)


def test_a_binomial_relation_spec_writes_the_same_bytes():
    # a*b - b^2 is not a monomial, so the basis comes from the ideal's elimination.
    spec = _spec([2, 2, 3], [[(1, ("a", "b")), (-1, ("b", "b"))]], 9)
    assert spec._tails is None
    for k in range(spec.degree_cap + 1):
        assert spec.basis(k) == sorted(spec.basis(k)), k
    assert_every_degree(FreeSlices(spec), spec.degree_cap, random.Random(1))


@pytest.mark.parametrize("name, params", [("HEIS6", {}), ("T6_Z2", {}), ("CPN", {"m": 3})],
                         ids=["HEIS6", "T6_Z2", "CPN"])
def test_a_minimal_model_writes_the_same_bytes(name, params):
    # The model is grown by adjoin; psi lands in the (invariant) target ring.
    bundle = preset(name, **params)
    ring = (invariant_cohomology(bundle.action, 4) if bundle.action is not None
            else cohomology(bundle.spec, 4))
    mm = build_minimal_model(ring, 3)
    model = mm.model
    for k in range(5):
        assert model.basis(k) == sorted(model.basis(k)), k
    assert_every_degree(FreeSlices(model), 4, random.Random(name))
    for degree, vec in mm.psi.values():
        assert_vector_path(ring.slices, degree, vec)


# -- the scalar writers --------------------------------------------------------

FIELDS = st.sampled_from([CycField.get(n) for n in (1, 3, 4, 5, 12)])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scalar_text_is_the_fraction_text(data):
    field = data.draw(FIELDS)
    s = data.draw(scalars(field))
    big = data.draw(st.integers(1, 10**30))
    for value in (s, s * field.rational(Fraction(big, 7)), s * field.rational(Fraction(-3, big))):
        assert scalar_to_json(value) == ref_scalar_json(value)
        assert str(value) == ref_scalar_text(value)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter writes ints of any length")
@pytest.mark.parametrize("value, digits", [(10**5000, 5001), (-(10**5000 - 1), 5000),
                                           (Fraction(1, 10**4999), 5000)],
                         ids=["10^5000", "1-10^5000", "10^-4999"])
def test_a_scalar_past_the_digit_limit_is_refused_by_both_writers(value, digits):
    limit = sys.get_int_max_str_digits()
    for modulus in (1, 12):
        field = CycField.get(modulus)
        s = field.rational(value)
        for scalar, write in itertools.product((s, s * field.zeta()), (scalar_to_json, str)):
            with pytest.raises(ScalarTooLarge) as err:
                write(scalar)
            assert err.value.code == "SCALAR_TOO_LARGE"
            assert err.value.details == {"digits": digits, "limit": limit}


# -- the reader --------------------------------------------------------------

CORPUS = ["0", "-0", "007", "+3", " 3 ", "1_000", "1.5", "1e3", ".5", "1.", "٣", "１",
          "2/4", "3/-4", "1/0", "", "-", "--1", "0x10", "inf", "9" * 5000, "-" + "9" * 5000]


@pytest.mark.parametrize("text", CORPUS, ids=[repr(t[:8]) + f"-{len(t)}" for t in CORPUS])
def test_the_reader_reads_what_fraction_reads(text):
    got, want = read(text), ref_rational(text)
    assert got == want and type(got) in (type(want), int)


@settings(max_examples=500, deadline=None)
@given(st.text(max_size=12) | st.from_regex(r"\A[-+ ]?[0-9٣１_]{0,6}([./eE][-+]?[0-9]{0,4})?\Z"))
def test_the_reader_reads_what_fraction_reads_on_any_text(text):
    got, want = read(text), ref_rational(text)
    assert got == want and type(got) in (type(want), int)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_poly_of_ints_is_the_poly_of_their_fractions(data):
    field = data.draw(FIELDS)
    poly = data.draw(st.lists(st.integers(-10**20, 10**20) | st.fractions(max_denominator=9),
                              max_size=2 * field.modulus + 1))
    assert field.from_poly(poly) == field.from_poly([Fraction(c) for c in poly])
    literal = {"zeta": field.modulus, "poly": [str(c) for c in poly]}
    assert scalar_from_json(literal, field) == field.from_poly(poly)
