"""Shrinkable randomized law tests (hypothesis).

The acceptance-level battery (seeded, >= 1000 cases per law) lives in
cdgalab.verify and runs inside `verify-paper`; these suites cover the same
laws with generated inputs and shrinking for debugging.
"""

from fractions import Fraction
from functools import reduce
from operator import mul

from hypothesis import given, settings, strategies as st

from cdgalab.algebra import AlgebraSpec, Element, GeneratorDecl, monomial_names
from cdgalab.cohomology import cohomology
from cdgalab.linalg import Echelon, vec_add
from cdgalab.massey import triple_massey
from cdgalab.models import preset
from cdgalab.scalars import CycField
from cdgalab.symmetry import GroupActionSpec, invariant_cohomology

HEIS = preset("HEIS6").spec
HRING = cohomology(HEIS, 6)
# Odd and even generators interleaved, so sorting a word moves odd
# generators past both kinds.
MIXED = AlgebraSpec(CycField.get(3), [GeneratorDecl("x", 1), GeneratorDecl("u", 2),
                                      GeneratorDecl("y", 1), GeneratorDecl("z", 3),
                                      GeneratorDecl("v", 2)], degree_cap=12).validate()

rationals = st.fractions(min_value=Fraction(-4), max_value=Fraction(4),
                         max_denominator=4)


def elements(spec, min_degree=1, max_degree=3, n_terms=3):
    def build(degree, picks):
        basis = spec.basis(degree)
        terms = {}
        for idx, coeff in picks:
            if not basis:
                continue
            mono = basis[idx % len(basis)]
            c = spec.field.rational(coeff)
            cur = terms.get(mono)
            total = c if cur is None else cur + c
            if total.is_zero():
                terms.pop(mono, None)
            else:
                terms[mono] = total
        return Element(spec, degree, terms)

    return st.builds(
        build,
        st.integers(min_value=min_degree, max_value=max_degree),
        st.lists(st.tuples(st.integers(min_value=0, max_value=30), rationals),
                 min_size=1, max_size=n_terms))


@settings(max_examples=300, deadline=None)
@given(elements(HEIS), elements(HEIS))
def test_koszul_sign_law(a, b):
    sign = -1 if (a.degree * b.degree) % 2 else 1
    assert a * b == (b * a).scale(sign)


@settings(max_examples=300, deadline=None)
@given(elements(HEIS), elements(HEIS, max_degree=2))
def test_leibniz_rule(a, b):
    lhs = (a * b).d()
    rhs = a.d() * b + (a * b.d()).scale(-1 if a.degree % 2 else 1)
    assert lhs == rhs


@settings(max_examples=300, deadline=None)
@given(elements(HEIS, max_degree=4, n_terms=4))
def test_d_squared_zero(a):
    assert a.d().d().is_zero()


@settings(max_examples=300, deadline=None)
@given(elements(HEIS, min_degree=1, max_degree=2),
       elements(HEIS, min_degree=1, max_degree=2),
       elements(HEIS, min_degree=1, max_degree=2))
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=300, deadline=None)
@given(elements(MIXED, max_degree=6, n_terms=4))
def test_parse_of_monomial_names_round_trips(e):
    spec = e.parent
    assert spec.element([(c, monomial_names(spec, m)) for m, c in e.terms.items()]) == e


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([g.name for g in MIXED.generators]), min_size=1, max_size=4))
def test_parsed_word_equals_product_of_generators(word):
    # The parse sorts the word with its Koszul sign; the product builds the
    # same monomial one generator at a time through monomial_mul.
    assert MIXED.element([(1, tuple(word))]) == reduce(mul, [MIXED.gen(n) for n in word])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7),
       elements(HEIS, min_degree=1, max_degree=1, n_terms=2))
def test_cup_independent_of_representative(j1, j2, w):
    u = HRING.rep_class(2, j1 % HRING.betti[2])
    v = HRING.rep_class(2, j2 % HRING.betti[2])
    base = HRING.cup(u, v)
    shifted = vec_add(u.rep_vec(), HRING.slices.from_element(w.d()))
    assert HRING.class_of(shifted, 2) == u
    assert HRING.class_of(HRING.slices.mul_vec(2, shifted, 2, v.rep_vec()), 4) == base


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3),
       st.sampled_from([2, 3, 6]))
def test_invariant_dimensions_match_fixed_subspace(weights, order):
    field = CycField.get(order)
    gens = [GeneratorDecl(f"x{i}", 1) for i in range(3)]
    spec = AlgebraSpec(field, gens, degree_cap=4).validate()
    act = GroupActionSpec(spec, order, {
        f"x{i}": [(field.zeta(weights[i] % order), (f"x{i}",))]
        for i in range(3)})
    from cdgalab.errors import OrderMismatch
    try:
        act.validate()
    except OrderMismatch:
        return
    Hfull = cohomology(spec, 3)
    Hinv = invariant_cohomology(act, 3)
    from cdgalab.symmetry import fixed_subspace_of_cohomology
    for k in range(4):
        fixed = fixed_subspace_of_cohomology(act, Hfull, k)
        assert len(fixed) == Hinv.betti[k]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["mu", "nu", "mubar", "nubar"]),
                          rationals), min_size=0, max_size=3))
def test_triple_massey_stability(shifts):
    u = HRING.class_of(HEIS.gen("mu"))
    v = HRING.class_of(HEIS.gen("nu"))
    base = triple_massey(HRING, u, v, u)
    span = Echelon(HEIS.field)
    for cls in base.indeterminacy:
        span.add(dict(cls.coords))
    uv = HRING.slices.mul_vec(1, u.rep_vec(), 1, v.rep_vec())
    prim = HRING.is_exact(uv, 2)
    shift = HEIS.zero(1)
    for name, coeff in shifts:
        shift = shift + HEIS.gen(name).scale(coeff)
    shifted = triple_massey(HRING, u, v, u,
                            primitive_uv=vec_add(prim,
                                                 HRING.slices.from_element(shift)))
    delta = shifted.representative - base.representative
    assert span.contains(dict(delta.coords))
    assert shifted.verdict == base.verdict
