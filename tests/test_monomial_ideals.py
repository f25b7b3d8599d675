"""The ideal echelon of monomial relations is read off, not eliminated.

When every relation is a single term c * r, each ideal row is c * e_p (or
empty when an odd generator repeats), and the RREF of a span of unit vectors
is the distinct e_p in first-seen order.  ``AlgebraSpec._ideal_echelon``
stores those rows directly.  The reference is the elimination loop,
``ref_ideal_echelon``: every row goes through ``Echelon.add``.  The two must
agree on the stored rows (in order), the holder sets, the quotient basis and
the reduction of free vectors.  A spec with a relation of two or more terms
keeps the elimination loop.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cdgalab.algebra import AlgebraSpec, GeneratorDecl
from cdgalab.chains import FreeSlices
from cdgalab.linalg import Echelon
from cdgalab.models import sphere_product_bundle
from cdgalab.scalars import CycField

from test_known_products import vectors
from test_one_copy import ref_ideal_echelon

Q = CycField.get(1)
NAMES = "abcde"


def ref_basis(spec, ref, k):
    pivots = set(ref.pivots())
    return [m for i, m in enumerate(spec.free_basis(k)) if i not in pivots]


def assert_matches_elimination(spec, data=None):
    """Rows, holders, basis and reductions of every degree equal the reference."""
    slices = FreeSlices(spec)
    for k in range(spec.degree_cap + 1):
        got, want = spec._ideal_echelon(k), ref_ideal_echelon(spec, k)
        assert list(got._rows.items()) == list(want._rows.items())
        assert dict(got._holders) == {c: ps for c, ps in want._holders.items() if ps}
        basis = ref_basis(spec, want, k)
        assert spec.basis(k) == basis
        if data is None or not spec.free_basis(k):
            continue
        free = data.draw(vectors(spec.field, width=len(spec.free_basis(k))))
        residual, _ = want.reduce(free)
        pos = {spec._free_index(k)[m]: i for i, m in enumerate(basis)}
        assert slices._reduced(k, free) == {pos[p]: c for p, c in residual.items()}


@st.composite
def monomial_specs(draw):
    """1-5 generators of mixed parity and 1-4 one-term relations, d = 0."""
    field = draw(st.sampled_from([Q, CycField.get(12)]))
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    cap = max(degrees) + 2 + draw(st.integers(0, 2))
    gens = [GeneratorDecl(NAMES[i], d) for i, d in enumerate(degrees)]
    relations = []
    for _ in range(draw(st.integers(1, 4))):
        word = draw(st.lists(st.integers(0, len(gens) - 1), min_size=1, max_size=3))
        if sum(degrees[g] for g in word) > cap:
            word = word[:1]
        c = field.rational(draw(st.sampled_from([1, -1, 2, -3, Fraction(3, 2)])))
        if draw(st.booleans()):
            c = c * field.zeta(draw(st.integers(0, field.modulus - 1)))
        relations.append([(c, tuple(NAMES[g] for g in word))])
    return AlgebraSpec(field, gens, relations=relations, degree_cap=cap)


def _spec(degrees, relations, cap):
    gens = [GeneratorDecl(NAMES[i], d) for i, d in enumerate(degrees)]
    return AlgebraSpec(Q, gens, relations=relations, degree_cap=cap)


# An odd generator in a relation (x * e_p vanishes when it repeats), a
# duplicate relation, one relation dividing another, and a coefficient 3.
SPECS = {
    "odd in relation": _spec([1, 2, 3], [[(1, ("a", "b"))]], 7),
    "duplicate": _spec([2, 2], [[(1, ("a", "a"))], [(-2, ("a", "a"))]], 8),
    "divides": _spec([2, 1, 2], [[(3, ("a", "c"))], [(1, ("b", "a", "c"))]], 8),
    "odd square and power": _spec([1, 2], [[(1, ("a", "b"))], [(5, ("b", "b", "b"))]], 8),
}


@pytest.mark.parametrize("name", SPECS)
def test_listed_monomial_specs_match_elimination(name):
    assert_matches_elimination(SPECS[name])


@settings(max_examples=120, deadline=None)
@given(monomial_specs(), st.data())
def test_monomial_ideals_match_elimination(spec, data):
    assert_matches_elimination(spec, data)


@pytest.mark.parametrize("n", range(2, 7))
def test_sphere_product_bundles_match_elimination(n):
    assert_matches_elimination(sphere_product_bundle(n).spec)


def count_adds(monkeypatch):
    calls = []
    add = Echelon.add
    monkeypatch.setattr(Echelon, "add", lambda self, row, source=None:
                        calls.append(row) or add(self, row, source))
    return calls


def test_monomial_relations_make_no_elimination(monkeypatch):
    calls = count_adds(monkeypatch)
    spec = sphere_product_bundle(4).spec
    for k in range(spec.degree_cap + 1):
        spec._ideal_echelon(k)
    assert calls == []
    assert sum(spec._ideal_echelon(k).rank for k in range(spec.degree_cap + 1)) > 0


def test_a_binomial_relation_keeps_the_elimination(monkeypatch):
    # a^2 alone is a monomial; a*b - b^2 makes every row of the ideal eliminated.
    calls = count_adds(monkeypatch)
    spec = _spec([2, 2], [[(1, ("a", "a"))], [(1, ("a", "b")), (-1, ("b", "b"))]], 8)
    got = {k: spec._ideal_echelon(k) for k in range(spec.degree_cap + 1)}
    assert calls
    monkeypatch.undo()
    for k, ech in got.items():
        want = ref_ideal_echelon(spec, k)
        assert list(ech._rows.items()) == list(want._rows.items())
        assert ech._holders == want._holders
    assert any(len(row) > 1 for ech in got.values() for row, _ in ech._rows.values())
