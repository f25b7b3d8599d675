"""A quotient by monomial relations is indexed by its standard monomials.

When every relation is a single term c * r, the ideal in each degree is
spanned by the monomials some relation monomial divides, so a slice's basis
is the standard monomials (those no relation monomial divides), in the free
order, and any other monomial is zero.  ``AlgebraSpec.basis`` builds them by
the free basis's own recursion, and one ``{monomial: position}`` index per
degree serves coordinates, products, the unit and Element reduction, with no
free basis and no ideal echelon.  The reference, ``RefQuotient``, is the
elimination: every ideal row through ``Echelon.add`` (``ref_ideal_echelon``),
free vectors reduced against it.  The two must agree on ``basis``,
``from_element``, ``mul_vec``, ``d_col``, the unit and Element terms.  A spec
with a relation of two or more terms keeps the elimination.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cdgalab.algebra import UNIT, AlgebraSpec, Element, GeneratorDecl, normal_form
from cdgalab.chains import FreeSlices
from cdgalab.cohomology import cohomology
from cdgalab.errors import CapExceeded
from cdgalab.linalg import Echelon, vec_iadd
from cdgalab.models import circle_bundle, sphere_product_bundle
from cdgalab.scalars import CycField

from test_known_products import vectors
from test_one_copy import ref_d_monomial, ref_ideal_echelon

Q = CycField.get(1)
NAMES = "abcde"


class RefQuotient:
    """The quotient by elimination: the free basis minus the ideal echelon's pivots."""

    def __init__(self, spec):
        self.spec = spec
        self.ech = {k: ref_ideal_echelon(spec, k) for k in range(spec.degree_cap + 1)}

    def basis(self, k):
        pivots = set(self.ech[k].pivots())
        return [m for i, m in enumerate(self.spec.free_basis(k)) if i not in pivots]

    def terms(self, k, free_terms):
        """The free terms reduced against the ideal echelon, as {monomial: c}."""
        free = self.spec.free_basis(k)
        index = {m: i for i, m in enumerate(free)}
        residual, _ = self.ech[k].reduce({index[m]: c for m, c in free_terms.items()})
        return {free[p]: c for p, c in residual.items()}

    def coords(self, k, free_terms):
        pos = {m: i for i, m in enumerate(self.basis(k))}
        return {pos[m]: c for m, c in self.terms(k, free_terms).items()}

    def product(self, k, u, l, v):
        """u * v by normal forms on the free basis, then reduced."""
        acc = {}
        for i, a in u.items():
            for j, b in v.items():
                hit = normal_form(self.spec, self.basis(k)[i] + self.basis(l)[j])
                if hit is not None:
                    vec_iadd(acc, {hit[1]: a * b if hit[0] > 0 else -(a * b)})
        return self.coords(k + l, acc)


def assert_matches_elimination(spec, data=None):
    """Basis, unit, d columns and products in every degree equal the elimination's,
    and so do, with ``data``, Element terms and coordinates of drawn vectors."""
    ref, slices = RefQuotient(spec), FreeSlices(spec)
    cap = spec.degree_cap
    for k in range(cap + 1):
        assert spec.basis(k) == ref.basis(k), k
        if k < cap:
            assert [slices.d_col(k, i) for i in range(slices.dim(k))] == \
                [ref.coords(k + 1, ref_d_monomial(spec, m)) for m in ref.basis(k)], k
    assert slices.unit_vec() == ref.coords(0, {UNIT: spec.field.one})
    for k in range(cap + 1):
        free = spec.free_basis(k)
        if data is not None and free:
            vec = data.draw(vectors(spec.field, width=len(free)))
            terms = {free[i]: c for i, c in vec.items()}
            elem = Element(spec, k, terms)
            assert list(elem.terms.items()) == list(ref.terms(k, terms).items())
            assert slices.from_element(elem) == ref.coords(k, terms)
    for k in range(cap + 1):
        for l in range(cap + 1 - k):
            if not (slices.dim(k) and slices.dim(l)):
                continue
            if data is None:  # every basis product of the two degrees, weighted
                u, v = ({i: spec.field.rational(i + 1) for i in range(slices.dim(d))}
                        for d in (k, l))
            else:
                u, v = (data.draw(vectors(spec.field, width=slices.dim(d))) for d in (k, l))
            assert slices.mul_vec(k, u, l, v) == ref.product(k, u, l, v), (k, l)


@st.composite
def monomial_specs(draw):
    """1-5 generators of mixed parity and 1-4 one-term relations, d = 0; half the
    time a circle bundle over that, so d is nonzero and d of a basis monomial
    can land on the ideal."""
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
    spec = AlgebraSpec(field, gens, relations=relations, degree_cap=cap)
    if spec.basis(2) and draw(st.booleans()):
        euler = draw(vectors(field, width=len(spec.basis(2))))
        spec = circle_bundle(spec, Element(spec, 2, {spec.basis(2)[i]: c
                                                    for i, c in euler.items()}), "t")
    return spec


def _spec(degrees, relations, cap):
    gens = [GeneratorDecl(NAMES[i], d) for i, d in enumerate(degrees)]
    return AlgebraSpec(Q, gens, relations=relations, degree_cap=cap)


def _bundle():
    """The circle bundle with Euler class a + b over a^2 = b^3 = 0, where d of a
    standard monomial can land on the ideal."""
    base = _spec([2, 2], [[(1, ("a", "a"))], [(1, ("b", "b", "b"))]], 8)
    return circle_bundle(base, base.element([(1, ("a",)), (1, ("b",))]), "t")


# An odd generator in a relation (x * e_p vanishes when it repeats), a
# duplicate relation, one relation dividing another, a coefficient 3, the
# unit as a relation (the zero algebra), a generator as a relation, two
# relations that start at the same generator, and a circle bundle.
SPECS = {
    "odd in relation": _spec([1, 2, 3], [[(1, ("a", "b"))]], 7),
    "duplicate": _spec([2, 2], [[(1, ("a", "a"))], [(-2, ("a", "a"))]], 8),
    "divides": _spec([2, 1, 2], [[(3, ("a", "c"))], [(1, ("b", "a", "c"))]], 8),
    "odd square and power": _spec([1, 2], [[(1, ("a", "b"))], [(5, ("b", "b", "b"))]], 8),
    "unit": _spec([2, 1], [[(1, ())]], 6),
    "generator": _spec([2, 2], [[(1, ("a",))]], 6),
    "odd product": _spec([1, 3, 2], [[(1, ("a", "b"))]], 7),
    "same first generator": _spec([2, 2, 2], [[(1, ("a", "b"))], [(1, ("a", "a", "c"))],
                                              [(1, ("a", "c", "c"))]], 8),
    "bundle": _bundle(),
}


@pytest.mark.parametrize("name", SPECS)
def test_listed_monomial_specs_match_elimination(name):
    assert_matches_elimination(SPECS[name])


def test_the_unit_relation_gives_the_zero_algebra():
    spec = SPECS["unit"]
    assert all(spec.basis(k) == [] for k in range(spec.degree_cap + 1))
    assert not spec.flags.is_connected and Element(spec, 0, {UNIT: spec.field.one}).is_zero()
    assert FreeSlices(spec).unit_vec() == {}
    assert cohomology(spec, spec.degree_cap - 1).betti == [0] * spec.degree_cap


def test_the_unit_is_zero_in_the_zero_algebra():
    spec = SPECS["unit"]
    assert spec.one().is_zero() and spec.one().terms == Element(spec, 0, {UNIT: Q.one}).terms
    assert SPECS["generator"].one().terms == {UNIT: Q.one}


def test_degenerate_relations_keep_their_betti_numbers():
    # A generator as a relation kills it (b alone is left); a duplicate or a
    # divided relation adds nothing; x * y with x, y odd leaves x and y.
    betti = {name: cohomology(SPECS[name], SPECS[name].degree_cap - 1).betti
             for name in ("generator", "duplicate", "divides", "odd product")}
    assert betti == {"generator": [1, 0, 1, 0, 1, 0],
                     "duplicate": [1, 0, 2, 0, 2, 0, 2, 0],
                     "divides": [1, 1, 2, 2, 2, 2, 2, 2],
                     "odd product": [1, 1, 1, 2, 1, 2, 1]}


def test_a_relation_above_the_cap_is_refused():
    with pytest.raises(CapExceeded) as err:
        _spec([2], [[(1, ("a", "a", "a"))]], 4)
    assert err.value.details == {"degree": 6, "cap": 4}


@settings(max_examples=120, deadline=None)
@given(monomial_specs(), st.data())
def test_monomial_ideals_match_elimination(spec, data):
    assert_matches_elimination(spec, data)


@pytest.mark.parametrize("n", range(2, 7))
def test_sphere_product_bundles_match_elimination(n):
    assert_matches_elimination(sphere_product_bundle(n).spec)


def count_calls(monkeypatch, *names):
    calls = []
    for name in names:
        method = getattr(AlgebraSpec, name)
        monkeypatch.setattr(AlgebraSpec, name, lambda self, *args, name=name, method=method:
                            calls.append(name) or method(self, *args))
    return calls


def test_monomial_relations_make_no_elimination(monkeypatch):
    # Building the spec, its ring, coordinates and products use neither the
    # free basis nor the ideal echelon.
    calls = count_calls(monkeypatch, "free_basis", "_ideal_echelon")
    bundle = sphere_product_bundle(4)
    spec = bundle.spec
    ring = cohomology(spec, spec.degree_cap - 1, volume=bundle.volume)
    assert ring.betti == [1, 0, 3, 0, 2, 2, 0, 3, 0, 1, 0, 0, 0, 0]
    slices = ring.slices
    omega = slices.from_element(bundle.classes["omega"])
    for k in range(spec.degree_cap - 1):
        slices.mul_vec(2, omega, k, {i: spec.field.one for i in range(slices.dim(k))})
    assert calls == []
    assert sum(len(spec.basis(k)) for k in range(spec.degree_cap + 1)) == 32


def test_a_binomial_relation_keeps_the_elimination(monkeypatch):
    # a^2 alone is a monomial; a*b - b^2 makes every row of the ideal eliminated.
    adds = []
    add = Echelon.add
    monkeypatch.setattr(Echelon, "add", lambda self, row, source=None:
                        adds.append(row) or add(self, row, source))
    spec = _spec([2, 2], [[(1, ("a", "a"))], [(1, ("a", "b")), (-1, ("b", "b"))]], 8)
    got = {k: spec._ideal_echelon(k) for k in range(spec.degree_cap + 1)}
    assert adds
    monkeypatch.undo()
    for k, ech in got.items():
        want = ref_ideal_echelon(spec, k)
        assert list(ech._rows.items()) == list(want._rows.items())
        assert ech._holders == want._holders
    assert any(len(row) > 1 for ech in got.values() for row, _ in ech._rows.values())
    assert_matches_elimination(spec)
