"""Shrinkable randomized law tests (hypothesis).

The acceptance-level battery (seeded, >= 1000 cases per law) lives in
cdgalab.verify and runs inside `verify-paper`; these suites cover the same
laws with generated inputs and shrinking for debugging.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul

from hypothesis import given, settings, strategies as st

from cdgalab.algebra import AlgebraSpec, Element, GeneratorDecl, monomial_names, normal_form
from cdgalab.cohomology import cohomology
from cdgalab.linalg import Echelon, vec_add
from cdgalab.massey import triple_massey
from cdgalab.models import preset
from cdgalab.scalars import CycField
from cdgalab.symmetry import GroupActionSpec, invariant_cohomology

from test_one_copy import ALL_PRESETS, ref_d_monomial

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


def koszul_reference(spec, word):
    """(sign, sorted names) of a word of generator names, or None when an odd
    generator repeats.  Bubble sort by generator index; each swap of two odd
    generators flips the sign."""
    idx = [spec.index[n] for n in word]
    odd = [i for i in idx if spec.generators[i].degree % 2]
    if len(set(odd)) != len(odd):
        return None
    sign = 1
    for end in range(len(idx) - 1, 0, -1):
        for i in range(end):
            a, b = idx[i], idx[i + 1]
            if a > b:
                idx[i], idx[i + 1] = b, a
                if spec.generators[a].degree % 2 and spec.generators[b].degree % 2:
                    sign = -sign
    return sign, tuple(spec.generators[i].name for i in idx)


def assert_matches_reference(elem, word):
    spec = elem.parent
    ref = koszul_reference(spec, word)
    if ref is None:
        assert elem.is_zero()
        return
    sign, names = ref
    assert [(monomial_names(spec, m), c) for m, c in elem.terms.items()] == [
        (names, spec.field.rational(sign))]


MIXED_WORDS = st.lists(st.sampled_from([g.name for g in MIXED.generators]),
                       min_size=0, max_size=2)


@settings(max_examples=300, deadline=None)
@given(MIXED_WORDS, MIXED_WORDS)
def test_parse_and_product_match_koszul_reference(w1, w2):
    # Parsing a word, and multiplying two parsed words, both agree with the
    # test-side bubble sort, independently of the engine's sign routine.
    assert_matches_reference(MIXED.element([(1, tuple(w1))]), w1)
    assert_matches_reference(MIXED.element([(1, tuple(w1 + w2))]), w1 + w2)
    product = MIXED.element([(1, tuple(w1))]) * MIXED.element([(1, tuple(w2))])
    assert_matches_reference(product, w1 + w2)
    if w1 + w2:
        word = w1 + w2
        assert_matches_reference(reduce(mul, [MIXED.gen(n) for n in word]), word)


def koszul_index_reference(spec, word):
    """koszul_reference on a word of generator indices, in normal_form's
    (sign, monomial) shape."""
    ref = koszul_reference(spec, [spec.generators[g].name for g in word])
    return None if ref is None else (ref[0], tuple(spec.index[n] for n in ref[1]))


# Twelve generators of degrees 1, 2, 3, ..., eight of them odd, so that a word
# of ten letters can carry eight distinct odd letters.
LONG = AlgebraSpec(CycField.get(1), [GeneratorDecl(f"g{i}", i % 3 + 1) for i in range(12)],
                   degree_cap=5).validate()
LONG_ODD = [g for g, gen in enumerate(LONG.generators) if gen.degree % 2]
LONG_EVEN = [g for g, gen in enumerate(LONG.generators) if not gen.degree % 2]


@st.composite
def long_words(draw):
    """Words of 0 to 10 generator indices: distinct odd letters among even
    letters repeated as powers, and half the time one letter overwritten by an
    odd letter, which then usually repeats."""
    odd = draw(st.lists(st.sampled_from(LONG_ODD), unique=True, max_size=8))
    even = draw(st.lists(st.sampled_from(LONG_EVEN), max_size=10 - len(odd)))
    word = draw(st.permutations(odd + even))
    if odd and draw(st.booleans()):
        word[draw(st.integers(0, len(word) - 1))] = draw(st.sampled_from(odd))
    return word


@settings(max_examples=500, deadline=None)
@given(long_words())
def test_sign_of_a_long_word_matches_koszul_reference(word):
    # MIXED_WORDS stop at two letters a side; here the engine's one-pass count
    # meets the bubble sort on words of up to ten letters.
    assert normal_form(LONG, word) == koszul_index_reference(LONG, word)


@lru_cache(maxsize=None)
def preset_spec(name, params):
    return preset(name, **dict(params)).spec


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_PRESETS), st.data())
def test_leibniz_sign_matches_the_per_position_sum(named, data):
    # The running parity of the odd letters before position j against the
    # Leibniz rule summed position by position, with the bubble-sort sign.
    name, params = named
    spec = preset_spec(name, tuple(params.items()))
    letters = data.draw(st.lists(st.integers(0, len(spec.generators) - 1), max_size=8))
    m = tuple(sorted(g for i, g in enumerate(letters)
                     if not spec.generators[g].degree % 2 or g not in letters[:i]))
    want = ref_d_monomial(spec, m, koszul_index_reference)
    assert list(spec._d_monomial(m).items()) == list(want.items())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([g.name for g in MIXED.generators]), min_size=1, max_size=4))
def test_parsed_word_equals_product_of_generators(word):
    # The parse sorts the whole word at once; the product builds the same
    # monomial one generator at a time, sorting each partial product.
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
    from cdgalab.errors import OrderMismatch
    try:
        act = GroupActionSpec(spec, order, {
            f"x{i}": [(field.zeta(weights[i] % order), (f"x{i}",))]
            for i in range(3)})
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
