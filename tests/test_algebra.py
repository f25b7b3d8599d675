import random
from itertools import combinations_with_replacement
from math import comb

import pytest

from cdgalab.algebra import AlgebraSpec, GeneratorDecl, monomial_names
from cdgalab.errors import (
    BadDifferentialDegree,
    CapExceeded,
    D2Nonzero,
    IdealNotStable,
    InhomogeneousRelation,
    NoConjugateDeclared,
    ParentMismatch,
    TruncatedOperand,
)
from cdgalab.scalars import CycField

Q = CycField.get(1)


def exterior(names, cap=None):
    return AlgebraSpec(Q, [GeneratorDecl(n, 1) for n in names], degree_cap=cap)


def heisenberg6(field=None):
    field = field or CycField.get(12)
    gens = [
        GeneratorDecl("mu", 1, conjugate_of="mubar"),
        GeneratorDecl("nu", 1, conjugate_of="nubar"),
        GeneratorDecl("theta", 1, conjugate_of="thetabar"),
        GeneratorDecl("mubar", 1, conjugate_of="mu"),
        GeneratorDecl("nubar", 1, conjugate_of="nu"),
        GeneratorDecl("thetabar", 1, conjugate_of="theta"),
    ]
    diff = {
        "theta": [(1, ("mu", "nu"))],
        "thetabar": [(1, ("mubar", "nubar"))],
    }
    return AlgebraSpec(field, gens, differential=diff, degree_cap=7)


def test_heisenberg_validates():
    spec = heisenberg6()
    assert spec.flags.is_minimal
    assert spec.flags.is_connected
    assert spec.flags.has_odd_only_generators
    theta = spec.gen("theta")
    assert theta.d() == spec.element([(1, ("mu", "nu"))])
    assert theta.d().d().is_zero()


def test_torus_validates_minimal():
    spec = exterior("abcdef")
    assert spec.flags.is_minimal
    assert spec.degree_cap == 7


def test_d2_nonzero_rejected():
    # dx = u, du = x*u gives d^2 x = x*u != 0.
    with pytest.raises(D2Nonzero):
        AlgebraSpec(
            Q,
            [GeneratorDecl("x", 1), GeneratorDecl("u", 2)],
            differential={"x": [(1, ("u",))], "u": [(1, ("x", "u"))]},
            degree_cap=6,
        )


def test_bad_differential_degree_rejected():
    with pytest.raises(BadDifferentialDegree):
        AlgebraSpec(
            Q,
            [GeneratorDecl("x", 1), GeneratorDecl("y", 1), GeneratorDecl("t", 1)],
            differential={"t": [(1, ("x",))]},
        )


def test_ideal_not_stable_rejected():
    with pytest.raises(IdealNotStable):
        AlgebraSpec(
            Q,
            [GeneratorDecl("x", 1), GeneratorDecl("y", 1), GeneratorDecl("z", 1),
             GeneratorDecl("w", 2)],
            differential={"w": [(1, ("x", "y", "z"))]},
            relations=[[(1, ("w",))]],
            degree_cap=5,
        )


def test_inhomogeneous_relation_rejected():
    with pytest.raises(InhomogeneousRelation):
        AlgebraSpec(
            Q,
            [GeneratorDecl("x", 1), GeneratorDecl("w", 2)],
            relations=[[(1, ("x",)), (1, ("w",))]],
            degree_cap=5,
        )


def test_koszul_sign_rule():
    spec = heisenberg6()
    mu, nu = spec.gen("mu"), spec.gen("nu")
    assert mu * nu == -(nu * mu)
    assert (mu * mu).is_zero()


def test_even_generators_commute():
    spec = AlgebraSpec(Q, [GeneratorDecl("a", 2), GeneratorDecl("b", 2)], degree_cap=9)
    a, b = spec.gen("a"), spec.gen("b")
    assert a * b == b * a
    assert not (a * a).is_zero()


def test_relation_kills_square():
    spec = AlgebraSpec(Q, [GeneratorDecl("a", 2)],
                       relations=[[(1, ("a", "a"))]], degree_cap=8).validate()
    a = spec.gen("a")
    assert (a * a).is_zero()
    assert len(spec.basis(4)) == 0
    assert len(spec.basis(2)) == 1


def test_exterior_basis_binomials():
    spec = exterior("abcdef")
    for k in range(7):
        assert len(spec.basis(k)) == comb(6, k)


def free_basis_reference(spec, k):
    """Every multiset of generators of degree k in which no odd generator
    repeats, as names, sorted by its generator-index sequence."""
    gens = spec.generators
    found = []
    for length in range(k + 1):
        for combo in combinations_with_replacement(range(len(gens)), length):
            odd = [i for i in combo if gens[i].degree % 2]
            if sum(gens[i].degree for i in combo) == k and len(set(odd)) == len(odd):
                found.append(combo)
    return [tuple(gens[i].name for i in combo) for combo in sorted(found)]


def test_free_basis_matches_brute_force():
    rng = random.Random(20)
    for trial in range(40):
        degrees = [rng.randint(1, 4) for _ in range(rng.randint(1, 6))]
        # A spec's cap must reach two above its top degree.  free_basis(k)
        # does not depend on the cap, so caps from there to 8 cover every k.
        cap = rng.randint(max(degrees) + 2, 8)
        spec = AlgebraSpec(Q, [GeneratorDecl(f"g{i}", d) for i, d in enumerate(degrees)],
                           degree_cap=cap)
        for k in range(cap + 1):
            assert [monomial_names(spec, m) for m in spec.free_basis(k)] == \
                free_basis_reference(spec, k), (degrees, k)


def test_free_basis_recursion_is_one_level_per_degree():
    # More generators than Python's default recursion limit: the basis is
    # built from lower degrees, not by a recursion per generator.
    spec = AlgebraSpec(Q, [GeneratorDecl(f"g{i}", 3) for i in range(1100)], degree_cap=5)
    assert len(spec.free_basis(3)) == 1100


def test_heisenberg_degree2_has_15_monomials():
    spec = heisenberg6()
    assert len(spec.basis(2)) == 15


def test_leibniz_on_product():
    spec = heisenberg6()
    theta = spec.gen("theta")
    w = spec.element([(1, ("mubar", "nubar"))])
    lhs = (theta * w).d()
    rhs = theta.d() * w - theta * w.d()  # |theta| odd
    assert lhs == rhs
    assert lhs == spec.element([(1, ("mu", "nu", "mubar", "nubar"))])


def test_d_is_squared_zero_on_random_elements():
    spec = heisenberg6()
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randint(1, 5)
        basis = spec.basis(k)
        terms = {}
        for _ in range(3):
            m = basis[rng.randrange(len(basis))]
            terms[m] = spec.field.rational(rng.randint(-3, 3))
        from cdgalab.algebra import Element
        e = Element(spec, k, terms)
        assert e.d().d().is_zero()


def test_conjugation_involution_and_sign():
    spec = heisenberg6()
    i = spec.field.zeta(3)
    # conj(-i mu mubar) = i mubar mu = -i mu mubar (self-conjugate term)
    w = spec.element([(-i, ("mu", "mubar"))])
    assert w.conj() == w
    v = spec.element([(1, ("nu", "theta"))])
    assert v.conj() == spec.element([(1, ("nubar", "thetabar"))])
    assert v.conj().conj() == v


def test_conjugation_requires_partner():
    spec = exterior("ab")
    with pytest.raises(NoConjugateDeclared):
        spec.gen("a").conj()


def test_conj_commutes_with_d():
    spec = heisenberg6()
    for name in ("theta", "mu", "nu"):
        g = spec.gen(name)
        assert g.conj().d() == g.d().conj()


def test_parent_mismatch():
    s1 = exterior("ab")
    s2 = exterior("ab")
    with pytest.raises(ParentMismatch):
        s1.gen("a") * s2.gen("b")


def test_cap_truncation_flag():
    spec = exterior("abcd", cap=3)
    abc = spec.gen("a") * spec.gen("b") * spec.gen("c")
    abcd = abc * spec.gen("d")
    assert abcd.truncated and abcd.is_zero()
    with pytest.raises(TruncatedOperand):
        abcd * spec.gen("a")
    with pytest.raises(CapExceeded):
        spec.basis(4)


def test_reduction_idempotent():
    spec = AlgebraSpec(Q, [GeneratorDecl("a", 2), GeneratorDecl("b", 2)],
                       relations=[[(1, ("a", "a")), (-1, ("a", "b"))]],
                       degree_cap=10).validate()
    a, b = spec.gen("a"), spec.gen("b")
    e = a * a  # reduces to a*b
    assert e == a * b
    from cdgalab.algebra import Element
    again = Element(spec, e.degree, dict(e.terms))
    assert again == e


def test_associativity_random():
    spec = heisenberg6()
    rng = random.Random(9)
    from cdgalab.algebra import Element

    def rand(k):
        basis = spec.basis(k)
        terms = {}
        for _ in range(2):
            m = basis[rng.randrange(len(basis))]
            terms[m] = spec.field.rational(rng.randint(-2, 2))
        return Element(spec, k, terms)

    for _ in range(40):
        a, b, c = rand(1), rand(2), rand(1)
        assert (a * b) * c == a * (b * c)
        sign = -1 if (a.degree * b.degree) % 2 else 1
        assert a * b == (b * a).scale(sign)
