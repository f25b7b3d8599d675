from math import comb

import pytest

from cdgalab.algebra import AlgebraSpec, Element, GeneratorDecl
from cdgalab.cohomology import CohomologyRing, cohomology
from cdgalab.chains import FreeSlices
from cdgalab.errors import CapTooLow, DegreeOverflow, NotClosed
from cdgalab.scalars import CycField

from test_algebra import exterior, heisenberg6

Q = CycField.get(1)


def test_torus_betti_binomials():
    spec = exterior("abcdef").validate()
    H = cohomology(spec, 6)
    assert H.betti == [comb(6, k) for k in range(7)]


def test_heisenberg6_nomizu_table():
    spec = heisenberg6().validate()
    H = cohomology(spec, 6)
    assert H.betti == [1, 4, 8, 10, 8, 4, 1]


def test_cap_too_low():
    spec = exterior("ab", cap=3).validate()
    with pytest.raises(CapTooLow):
        cohomology(spec, 3)


def test_class_of_exact_is_zero():
    spec = heisenberg6().validate()
    H = cohomology(spec, 6)
    z = spec.element([(1, ("mu", "nu"))])  # d(theta)
    assert H.class_of(z).is_zero()


def test_class_of_rejects_non_closed():
    spec = heisenberg6().validate()
    H = cohomology(spec, 6)
    with pytest.raises(NotClosed):
        H.class_of(spec.gen("theta"))


def test_mu_mubar_is_nonzero_class():
    spec = heisenberg6().validate()
    H = cohomology(spec, 6)
    z = spec.element([(1, ("mu", "mubar"))])
    assert not H.class_of(z).is_zero()


def test_is_exact_returns_exact_primitive():
    spec = heisenberg6().validate()
    H = cohomology(spec, 6)
    # mu*mubar*nu*nubar = -d(theta*mubar*nubar) is exact.
    z = spec.element([(1, ("mu", "mubar", "nu", "nubar"))])
    w = H.is_exact(z)
    assert w is not None
    slices = H.slices
    assert slices.d_vec(3, w) == slices.from_element(z)
    # the stated primitive also works
    cand = spec.element([(-1, ("theta", "mubar", "nubar"))])
    assert cand.d() == z
    # a non-exact closed element gets refused
    assert H.is_exact(spec.element([(1, ("mu", "mubar"))])) is None
    assert H.is_exact(spec.zero(2)) == {}


def test_cup_product_unit_and_top():
    spec = exterior("abcdef").validate()
    H = cohomology(spec, 6)
    one = H.class_of(spec.one())
    a = H.class_of(spec.gen("a"))
    assert H.cup(one, a) == a
    cls = H.class_of(spec.element([(1, tuple("abcdef"))]))
    u = H.class_of(spec.element([(1, ("a", "b", "c"))]))
    v = H.class_of(spec.element([(1, ("d", "e", "f"))]))
    assert H.cup(u, v) == cls


def test_cup_degree_overflow():
    spec = exterior("abcd").validate()
    H = cohomology(spec, 3)
    u = H.class_of(spec.element([(1, ("a", "b"))]))
    with pytest.raises(DegreeOverflow):
        H.cup(u, u)


def test_cup_independent_of_representative():
    spec = heisenberg6().validate()
    H = cohomology(spec, 6)
    u = H.class_of(spec.element([(1, ("mu", "mubar"))]))
    v = H.class_of(spec.element([(1, ("nu", "theta"))]))
    base = H.cup(u, v)
    # shift the representative of u by an exact element and multiply the
    # shifted representative itself
    shifted = H.slices.from_element(
        spec.element([(1, ("mu", "mubar"))]) + spec.gen("theta").d())
    assert H.class_of(shifted, 2) == u
    assert H.class_of(H.slices.mul_vec(2, shifted, 2, v.rep_vec()), 4) == base


def test_poincare_pairing_heis6():
    spec = heisenberg6().validate()
    H = cohomology(spec, 6)
    assert H.pairing_nondegenerate(6)


def test_euler_characteristic_on_odd_free_algebra():
    spec = exterior("abcd").validate()
    H = cohomology(spec, 4)
    slice_euler = sum((-1) ** k * len(spec.basis(k)) for k in range(5))
    assert sum((-1) ** k * b for k, b in enumerate(H.betti)) == slice_euler


def test_integrate_against_volume():
    spec = exterior("ab", cap=3).validate()
    vol = spec.element([(1, ("a", "b"))])
    mono = next(iter(vol.terms))
    H = CohomologyRing(FreeSlices(spec), 2, volume=mono)
    cls = H.class_of(vol)
    assert H.integrate(cls) == spec.field.one
    zero = H.class_of(spec.zero(2))
    assert H.integrate(zero).is_zero()


def test_relation_quotient_cohomology_sphere():
    s2 = AlgebraSpec(Q, [GeneratorDecl("a", 2)], relations=[[(1, ("a", "a"))]],
                     degree_cap=6).validate()
    H = cohomology(s2, 5)
    assert H.betti == [1, 0, 1, 0, 0, 0]


def test_exactness_example_on_projective_bundle():
    from cdgalab.models import preset
    bundle = preset("SASAKI_CPN_S2", n=4)
    spec = bundle.spec
    H = cohomology(spec, 8)
    z = spec.element([(1, ("a1", "a1")), (1, ("a1", "a2"))])
    # the stated primitive works: d(x*a1) = (a1+a2)*a1
    prim = spec.element([(1, ("x", "a1"))])
    assert prim.d() == z
    assert H.class_of(z).is_zero()
    w = H.is_exact(z)
    assert w is not None and H.slices.d_vec(3, w) == H.slices.from_element(z)


def test_random_nilpotent_complexes_euler_consistent():
    # randomized lower-central-series style differentials: every validated
    # draw must satisfy the rank-nullity Euler identity
    import random
    from cdgalab.errors import D2Nonzero

    rng = random.Random(123)
    checked = 0
    for _ in range(30):
        n = rng.randint(3, 5)
        gens = [GeneratorDecl(f"e{i}", 1) for i in range(n)]
        diff = {}
        for k in range(2, n):
            terms = []
            for i in range(k):
                for j in range(i + 1, k):
                    c = rng.choice((-1, 0, 0, 1))
                    if c:
                        terms.append((c, (f"e{i}", f"e{j}")))
            if terms:
                diff[f"e{k}"] = terms
        try:
            spec = AlgebraSpec(Q, gens, differential=diff).validate()
        except D2Nonzero:
            continue
        H = cohomology(spec, n)
        euler_betti = sum((-1) ** k * b for k, b in enumerate(H.betti))
        euler_slices = sum((-1) ** k * len(spec.basis(k)) for k in range(n + 1))
        assert euler_betti == euler_slices
        assert H.betti[0] == 1
        checked += 1
    assert checked >= 15
