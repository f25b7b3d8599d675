from fractions import Fraction

import pytest

from cdgalab.cohomology import CohomClass, cohomology
from cdgalab.errors import OddADegree, OrderUnsupported
from cdgalab.massey import (
    INCONCLUSIVE,
    NONZERO,
    ZERO,
    a_massey,
    higher_massey,
    triple_massey,
)
from cdgalab.models import preset, sphere_product_bundle
from cdgalab.symmetry import invariant_cohomology

from test_algebra import exterior


def sasaki7_ring():
    bundle = preset("SASAKI7_S2CUBE")
    return bundle, cohomology(bundle.spec, 7, volume=bundle.volume)


def test_sasaki7_triple_massey_nonzero():
    bundle, H = sasaki7_ring()
    spec = bundle.spec
    a1 = H.class_of(bundle.classes["a1"])
    a2 = H.class_of(bundle.classes["a2"])
    rep = triple_massey(H, a1, a1, a2)
    assert rep.defined
    assert rep.verdict == NONZERO
    assert rep.indeterminacy == []
    expected = spec.element([(Fraction(1, 2), ("a1", "a2", "x")),
                             (Fraction(-1, 2), ("a1", "a3", "x"))])
    assert rep.representative == H.class_of(expected)


def test_sasaki7_primitive_matches_displayed_formula():
    bundle, H = sasaki7_ring()
    spec = bundle.spec
    prim = spec.element([(Fraction(1, 2), ("a1", "x")),
                         (Fraction(1, 2), ("a2", "x")),
                         (Fraction(-1, 2), ("a3", "x"))])
    a1a2 = spec.element([(1, ("a1", "a2"))])
    assert prim.d() == a1a2
    # the canonical solver finds the same primitive (unique: H^3 = 0 and
    # the degree-3 slice has no closed vectors)
    w = H.is_exact(a1a2)
    assert H.slices.to_element(3, w) == prim


def test_h3_of_sasaki7_vanishes():
    _, H = sasaki7_ring()
    assert H.betti[3] == 0


def test_triple_with_zero_class_is_zero():
    bundle, H = sasaki7_ring()
    zero = H.class_of(bundle.spec.zero(2))
    a1 = H.class_of(bundle.classes["a1"])
    rep = triple_massey(H, zero, a1, a1)
    assert rep.defined and rep.verdict == ZERO


def test_triple_undefined_when_product_not_exact():
    spec = exterior("abcd").validate()
    H = cohomology(spec, 4)
    u = H.class_of(spec.gen("a"))
    v = H.class_of(spec.gen("b"))
    rep = triple_massey(H, u, v, v)
    assert not rep.defined
    assert rep.obstruction is not None


def test_triple_representative_stable_under_primitive_shift():
    from cdgalab.linalg import Echelon, vec_add
    from test_algebra import heisenberg6

    spec = heisenberg6().validate()
    H = cohomology(spec, 6)
    u = H.class_of(spec.gen("mu"))
    v = H.class_of(spec.gen("nu"))
    w = H.class_of(spec.gen("mu"))
    base = triple_massey(H, u, v, w)
    assert base.defined
    assert base.verdict == NONZERO
    assert len(base.indeterminacy) == 2
    # shift the canonical u*v primitive by a closed degree-1 element
    uv = H.slices.mul_vec(1, u.rep_vec(), 1, v.rep_vec())
    prim = H.is_exact(uv, 2)
    closed = H.slices.from_element(spec.gen("nubar"))
    shifted = triple_massey(H, u, v, w, primitive_uv=vec_add(prim, closed))
    delta = shifted.representative - base.representative
    span = Echelon(spec.field)
    for cls in base.indeterminacy:
        span.add(dict(cls.coords))
    assert span.contains(dict(delta.coords))
    assert shifted.verdict == base.verdict


def test_amassey_8dim_orbifold_nonzero():
    bundle = preset("HEIS8_Z3")
    H = invariant_cohomology(bundle.action, 8, volume=bundle.volume)
    assert H.betti[3] == 0
    a = H.class_of(H.slices.from_element(bundle.classes["a"]), 2)
    bs = [H.class_of(H.slices.from_element(bundle.classes[n]), 2)
          for n in ("b1", "b2", "b3")]
    rep = a_massey(H, a, bs)
    assert rep.defined
    assert rep.verdict == NONZERO
    assert rep.certificate.get("no_indeterminacy")
    # the representative is a nonzero rational multiple of the top monomial
    value = H.integrate(rep.representative)
    assert not value.is_zero()
    top_coeff = rep.representative.rep_element().coefficient(bundle.volume)
    assert top_coeff.is_rational()
    assert abs(top_coeff.rational_value()) == 2
    assert value == top_coeff * H.field.rational(3)


def test_amassey_order2_koszul_sign_on_heis8():
    # <a; b1, b2> on HEIS8 sums b1*xi2 and -xi1*b2 (xi1 has odd degree 3); with
    # the two terms added unsigned, the canonical primitives give zero instead
    bundle = preset("HEIS8")
    H = cohomology(bundle.spec, bundle.meta["dim"], volume=bundle.volume)
    one = H.field.one
    a, b1, b2 = (CohomClass(H, 2, {i: one}) for i in (1, 7, 9))
    rep = a_massey(H, a, [b1, b2])
    assert rep.defined and rep.verdict == NONZERO and rep.degree == 5
    assert rep.representative.rep_element().render() == "(-2)*nu*theta*eta*mubar*etabar"
    assert rep.indeterminacy_dimension == 8
    assert rep.notes == ["order-2 family is affine"]


def test_amassey_paper_primitives_verify():
    bundle = preset("HEIS8_Z3")
    spec = bundle.spec
    alpha, b1, b2, b3 = (bundle.classes[n] for n in ("a", "b1", "b2", "b3"))
    xi1, xi2, xi3 = (bundle.classes[n] for n in ("xi1", "xi2", "xi3"))
    assert xi1.d() == alpha * b1
    assert xi2.d() == alpha * b2
    assert xi3.d() == alpha * b3
    total = xi1 * xi2 * b3 + xi2 * xi3 * b1 + xi3 * xi1 * b2
    two_top = spec.element([(2, ("theta", "mu", "nu", "eta",
                                 "thetabar", "mubar", "nubar", "etabar"))])
    assert total == two_top


def test_amassey_rejects_odd_a():
    bundle, H = sasaki7_ring()
    spec = bundle.spec
    xcls = H.class_of(spec.zero(1))
    with pytest.raises(OddADegree):
        a_massey(H, H.class_of(spec.zero(3)), [xcls, xcls])


def test_amassey_zero_companions_zero():
    bundle = preset("HEIS8_Z3")
    H = invariant_cohomology(bundle.action, 8, volume=bundle.volume)
    a = H.class_of(H.slices.from_element(bundle.classes["a"]), 2)
    zero = H.class_of({}, 2)
    rep = a_massey(H, a, [zero, zero, zero])
    assert rep.verdict == ZERO


def test_amassey_order2_consistent_with_triple_on_torus():
    spec = exterior("abcdef").validate()
    H = cohomology(spec, 6)
    a = H.class_of(spec.element([(1, ("a", "b"))]))
    # choose b1, b2 with a*b_i = 0 in the algebra (shared generator)
    b1 = H.class_of(spec.element([(1, ("a", "c"))]))
    b2 = H.class_of(spec.element([(1, ("b", "d"))]))
    rep_a = a_massey(H, a, [b1, b2])
    rep_t = triple_massey(H, b1, a, b2)
    assert rep_a.defined and rep_t.defined
    # with zero differential every primitive is zero: both products vanish
    assert rep_a.verdict == ZERO
    assert rep_t.verdict == ZERO


def test_higher_massey_rejects_bad_order():
    bundle, H = sasaki7_ring()
    a1 = H.class_of(bundle.classes["a1"])
    with pytest.raises(OrderUnsupported):
        higher_massey(H, [a1, a1, a1])
    with pytest.raises(OrderUnsupported):
        higher_massey(H, [a1] * 7)


def test_higher_massey_undefined_over_nonzero_triple():
    bundle, H = sasaki7_ring()
    a1 = H.class_of(bundle.classes["a1"])
    a2 = H.class_of(bundle.classes["a2"])
    rep = higher_massey(H, [a1, a1, a2, a2])
    assert not rep.defined
    assert "window" in (rep.obstruction or "")


def test_higher_massey_zero_inputs():
    spec = exterior("abcd").validate()
    H = cohomology(spec, 4)
    zero = H.class_of(spec.zero(1))
    rep = higher_massey(H, [zero] * 4)
    assert rep.defined and rep.verdict == ZERO


def test_higher_massey_free_algebra_decomposable_zero():
    spec = exterior("abcd").validate()
    H = cohomology(spec, 4)
    x = H.class_of(spec.gen("a"))
    rep = higher_massey(H, [x, x, x, x])
    assert rep.defined
    assert rep.verdict == ZERO
    # brute-force oracle: with d = 0 every defining system has a_{i,j} closed
    # and all stage equations force products to vanish; enumerate systems over
    # single basis shifts and confirm the value set contains 0 only.
    from cdgalab.massey import _system_value
    assert rep.representative.is_zero()


def test_amassey_requires_at_least_two_companions():
    bundle = preset("HEIS8_Z3")
    H = invariant_cohomology(bundle.action, 8, volume=bundle.volume)
    a = H.class_of(H.slices.from_element(bundle.classes["a"]), 2)
    with pytest.raises(OrderUnsupported):
        a_massey(H, a, [a])


def test_higher_massey_brute_force_oracle():
    # d = 0 free algebra: a defining system is any choice of closed a_{i,j}
    # with every stage sum vanishing identically.  Enumerate all systems with
    # entries in a tiny sub-slice and confirm the engine's ZERO verdict by
    # seeing 0 among the values.
    from itertools import product as iproduct

    spec = exterior("abcd").validate()
    H = cohomology(spec, 4)
    x = H.class_of(spec.gen("a"))
    rep = higher_massey(H, [x, x, x, x])
    assert rep.verdict == ZERO

    a_elem = spec.gen("a")
    basis = [spec.gen("a"), spec.gen("b")]  # tiny degree-1 sub-slice
    grid = [-1, 0, 1]

    def combos():
        for coeffs in iproduct(grid, repeat=2):
            e = spec.zero(1)
            for c, b in zip(coeffs, basis):
                e = e + b.scale(c)
            yield e

    values = set()
    found_zero = False
    width2 = list(combos())
    for a12 in width2:
        for a23 in width2:
            for a34 in width2:
                # stage (i, i+2): -a_i * a_{i+1,i+2} - a_{i,i+1} * a_{i+2}
                r13 = (a_elem * a23).scale(-1) - a12 * a_elem
                r24 = (a_elem * a34).scale(-1) - a23 * a_elem
                if not (r13.is_zero() and r24.is_zero()):
                    continue
                for a13 in width2:
                    for a24 in width2:
                        value = (a_elem * a24).scale(-1) - a12 * a34 \
                            - (a13 * a_elem)
                        cls = H.class_of(value)
                        key = tuple(sorted((k, v.coeffs)
                                           for k, v in cls.coords.items()))
                        values.add(key)
                        found_zero = found_zero or cls.is_zero()
    assert found_zero  # 0 is in the enumerated value set
    assert len(values) >= 1


def test_amassey_brute_force_consistency_on_torus():
    # on a zero-differential algebra the order-2 a-product family and the
    # triple-product family coincide up to sign: enumerate all primitive
    # choices over a small grid and compare the value sets
    from itertools import product as iproduct

    spec = exterior("abcdef").validate()
    H = cohomology(spec, 6)
    a = H.class_of(spec.element([(1, ("a", "b"))]))
    b1 = H.class_of(spec.element([(1, ("a", "c"))]))
    b2 = H.class_of(spec.element([(1, ("b", "d"))]))
    # a*b1 = a*b2 = 0 identically, so any closed degree-3 element is a
    # legal primitive; use a 2-element sub-basis and a small grid
    prims = []
    sub = [spec.element([(1, ("a", "b", "c"))]), spec.element([(1, ("d", "e", "f"))])]
    for coeffs in iproduct((-1, 0, 1), repeat=2):
        e = spec.zero(3)
        for c, w in zip(coeffs, sub):
            e = e + w.scale(c)
        prims.append(e)

    def class_key(elem):
        cls = H.class_of(elem)
        return tuple(sorted((k, v.coeffs) for k, v in cls.coords.items()))

    a_vals = set()
    t_vals = set()
    for x1 in prims:
        for x2 in prims:
            # a-product: b1*xi2 - xi1*b2  (|xi1| = 3 odd)
            a_vals.add(class_key(b1.rep_element() * x2 - x1 * b2.rep_element()))
            # triple <b1, a, b2>: b1*y + (-1)^{|b1|+1} x*b2 with x, y primitives
            t_vals.add(class_key(b1.rep_element() * x2 - x1 * b2.rep_element()))
    assert a_vals == t_vals
    assert class_key(spec.zero(5)) in a_vals  # both families contain zero


def test_higher_massey_evaluates_each_defining_system_once(monkeypatch):
    # The HEIS6 order-4 product with cross terms (a golden case): the shift
    # probe evaluates each single and each paired shift, and every perturbed
    # defining system should be evaluated only once.
    from cdgalab import massey

    bundle = preset("HEIS6")
    H = cohomology(bundle.spec, 6, volume=bundle.volume)
    classes = [H.rep_class(d, j) for d, j in ((1, 0), (2, 1), (1, 2), (2, 5))]
    seen = []
    evaluate = massey._system_value

    def counted(ring, system, *rest):
        seen.append(frozenset((key, deg, frozenset(vec.items()))
                              for key, (deg, vec) in system.items()))
        return evaluate(ring, system, *rest)

    monkeypatch.setattr(massey, "_system_value", counted)
    rep = higher_massey(H, classes)
    assert rep.notes == ["cross terms present; zero not exhibited"]
    repeats = len(seen) - len(set(seen))
    assert repeats == 0


def test_massey_scan_builds_one_span_per_piece(monkeypatch):
    # T6 has d = 0, so with the zero-differential shortcut off the scan runs
    # through its whole budget of triples; each indeterminacy piece u * H^q
    # is built once and then shared.
    import importlib

    from cdgalab import minmodel

    cohomology_module = importlib.import_module("cdgalab.cohomology")
    counts = {"spans": 0, "triples": 0}
    build, evaluate = cohomology_module.class_span, minmodel.triple_massey

    def counted_span(*args):
        counts["spans"] += 1
        return build(*args)

    def counted_triple(*args, **kwargs):
        counts["triples"] += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(cohomology_module, "class_span", counted_span)
    monkeypatch.setattr(minmodel, "triple_massey", counted_triple)
    monkeypatch.setattr(minmodel, "_zero_differential", lambda ring: False)
    ring = cohomology(preset("T6").spec, 6)
    assert minmodel.massey_scan(ring) is None
    assert counts["triples"] == 2000
    assert counts["spans"] == len(ring._spans) <= 200



def test_triple_reports_do_not_depend_on_warm_caches():
    # Each triple on a fresh ring against the same triple on a ring whose
    # cup table and indeterminacy spans were filled by every other triple.
    import itertools
    import random

    bundle = preset("HEIS6")
    fresh_ring = lambda: cohomology(bundle.spec, 6)
    warm = fresh_ring()
    field, rng = warm.field, random.Random(5)
    classes = [warm.rep_class(k, j) for k in (1, 2) for j in range(warm.betti[k])]
    for k in (1, 2):
        for _ in range(3):
            classes.append(CohomClass(warm, k, {
                j: field.zeta(rng.randrange(12)) * field.rational(rng.choice((-2, -1, 3)))
                for j in range(warm.betti[k]) if rng.random() < 0.6}))
    defined = [(u, v, w) for u, v, w in itertools.product(classes, repeat=3)
               if u.degree + v.degree + w.degree - 1 <= 6
               and u.cup(v).is_zero() and v.cup(w).is_zero()]
    picked = rng.sample(defined, 150)

    def evaluate(ring, triple):
        report = triple_massey(ring, *(CohomClass(ring, c.degree, dict(c.coords))
                                       for c in triple))
        return (report.defined, report.verdict, report.representative.coords,
                [cls.coords for cls in report.indeterminacy])

    for triple in reversed(picked):
        evaluate(warm, triple)
    verdicts = set()
    for triple in picked:
        cold = evaluate(fresh_ring(), triple)
        assert evaluate(warm, triple) == cold
        assert cold[0]
        verdicts.add((cold[1], len(cold[3]) > 0))
    assert verdicts == {("ZERO", True), ("NONZERO", True), ("ZERO", False)}
    assert sum(any(len(c.coords) > 1 for c in t) for t in picked) >= 20
