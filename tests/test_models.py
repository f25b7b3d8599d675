from math import comb

import pytest

from cdgalab.algebra import AlgebraSpec, GeneratorDecl
from cdgalab.cohomology import cohomology
from cdgalab.errors import EulerBadDegree, EulerNotClosed, ParseError, UnknownPreset
from cdgalab.models import (
    ce_complex,
    circle_bundle,
    preset,
    sphere_product_bundle,
    tensor,
)
from cdgalab.scalars import CycField
from cdgalab.symmetry import invariant_cohomology

Q = CycField.get(1)


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        preset("NOPE")


def test_all_fixed_presets_validate():
    for name in ("HEIS6", "HEIS6_Z6", "HEIS8", "HEIS8_Z3", "T6", "T6_Z2",
                 "SASAKI7_S2CUBE", "SPHERE2", "P_OVER_T6Z2"):
        preset(name)


def test_heis6_symplectic_form():
    bundle = preset("HEIS6_Z6")
    omega = bundle.classes["omega"]
    assert omega.d().is_zero()
    cube = omega * omega * omega
    assert not cube.is_zero()
    coeff = cube.coefficient(bundle.volume)
    # +/- 6i, the sign depending on the declared monomial orientation
    six_i = bundle.spec.field.zeta(3) * bundle.spec.field.rational(6)
    assert coeff in (six_i, -six_i)
    assert bundle.action.apply(omega) == omega


def test_heis8_symplectic_form():
    bundle = preset("HEIS8_Z3")
    omega = bundle.classes["omega"]
    assert omega.d().is_zero()
    fourth = omega * omega * omega * omega
    assert not fourth.is_zero()
    assert not fourth.coefficient(bundle.volume).is_zero()
    assert bundle.action.apply(omega) == omega


def test_heis8_betti():
    bundle = preset("HEIS8")
    H = cohomology(bundle.spec, 8)
    assert H.betti[1] == 6
    assert H.betti[2] == 17
    assert H.betti[3] == 30  # A + conj(A), 15 each
    bundle_q = preset("HEIS8_Z3")
    Hq = invariant_cohomology(bundle_q.action, 8)
    assert Hq.betti[3] == 0


def test_omega_real_under_conjugation():
    for name in ("HEIS6", "HEIS8"):
        bundle = preset(name)
        omega = bundle.classes["omega"]
        assert omega.conj() == omega


def test_ce_complex_heisenberg():
    field = CycField.get(12)
    gens = [
        GeneratorDecl("mu", 1, conjugate_of="mubar"),
        GeneratorDecl("nu", 1, conjugate_of="nubar"),
        GeneratorDecl("theta", 1, conjugate_of="thetabar"),
        GeneratorDecl("mubar", 1, conjugate_of="mu"),
        GeneratorDecl("nubar", 1, conjugate_of="nu"),
        GeneratorDecl("thetabar", 1, conjugate_of="theta"),
    ]
    spec = ce_complex(field, gens, {
        "theta": [(1, ("mu", "nu"))],
        "thetabar": [(1, ("mubar", "nubar"))],
    })
    H = cohomology(spec, 6)
    assert H.betti == [1, 4, 8, 10, 8, 4, 1]


def test_ce_complex_rejects_non_quadratic():
    from cdgalab.errors import BadDifferentialDegree
    field = CycField.get(1)
    gens = [GeneratorDecl("x", 1), GeneratorDecl("y", 1)]
    with pytest.raises(BadDifferentialDegree):
        ce_complex(field, gens, {"y": [(1, ("x",))]})
    with pytest.raises(ParseError):
        ce_complex(field, [GeneratorDecl("w", 2)], {})


def test_abelian_ce_complex_torus():
    gens = [GeneratorDecl(f"x{i}", 1) for i in range(1, 7)]
    spec = ce_complex(Q, gens, {})
    H = cohomology(spec, 6)
    assert H.betti == [comb(6, k) for k in range(7)]


def test_circle_bundle_gysin_ranks():
    # b_k(total) = dim coker(L: H^{k-2} -> H^k) + dim ker(L: H^{k-1} -> H^{k+1})
    bundle = preset("SASAKI7_S2CUBE")
    base_doc = preset("SPHERE2")
    total = bundle.spec
    Htot = cohomology(total, 7)
    # rebuild the base (drop x) for the rank bookkeeping
    base = AlgebraSpec(Q, [GeneratorDecl(n, 2) for n in ("a1", "a2", "a3")],
                       relations=[[(1, (n, n))] for n in ("a1", "a2", "a3")],
                       degree_cap=8).validate()
    Hbase = cohomology(base, 7)
    euler = base.element([(1, ("a1",)), (1, ("a2",)), (1, ("a3",))])
    ecls = Hbase.class_of(euler)

    def cup_rank(k):
        from cdgalab.linalg import kernel_image
        if k > Hbase.max_degree or k + 2 > Hbase.max_degree:
            return 0, Hbase.betti[k] if k <= Hbase.max_degree else 0
        kernel, image = kernel_image(
            Q, Hbase.betti[k],
            lambda j: dict(Hbase.cup(ecls, Hbase.rep_class(k, j)).coords))
        return image.rank, kernel.rank

    for k in range(8):
        rank_km2, _ = cup_rank(k - 2) if k >= 2 else (0, 0)
        coker = (Hbase.betti[k] if k <= Hbase.max_degree else 0) - rank_km2
        _, ker_km1 = cup_rank(k - 1) if k >= 1 else (0, 0)
        assert Htot.betti[k] == coker + ker_km1, f"degree {k}"


def test_circle_bundle_h3_zero():
    bundle = preset("SASAKI7_S2CUBE")
    H = cohomology(bundle.spec, 7)
    assert H.betti == [1, 0, 2, 0, 0, 2, 0, 1]


def test_circle_bundle_zero_euler_adds_b1():
    base = AlgebraSpec(Q, [GeneratorDecl("a", 2)],
                       relations=[[(1, ("a", "a"))]], degree_cap=6).validate()
    total = circle_bundle(base, base.zero(2), gen_name="t")
    H = cohomology(total, 3)
    assert H.betti[1] == 1  # product with a circle


def test_circle_bundle_euler_checks():
    spec = AlgebraSpec(Q, [GeneratorDecl("x", 1), GeneratorDecl("y", 1),
                           GeneratorDecl("t", 1), GeneratorDecl("w", 2)],
                       differential={"w": [(1, ("x", "y", "t"))]},
                       degree_cap=6).validate()
    with pytest.raises(EulerNotClosed):
        circle_bundle(spec, spec.gen("w"))
    with pytest.raises(EulerBadDegree):
        circle_bundle(spec, spec.gen("x"))


def test_tensor_kunneth():
    s1 = preset("SPHERE2").spec
    s2 = AlgebraSpec(Q, [GeneratorDecl("b", 2)],
                     relations=[[(1, ("b", "b"))]], degree_cap=8).validate()
    prod = tensor(s1, s2)
    H = cohomology(prod, 4)
    assert H.betti == [1, 0, 2, 0, 1]


def test_tensor_triple_spheres_betti():
    bundle = sphere_product_bundle(3)
    # strip the circle generator: the base is the tensor of three spheres
    H = cohomology(bundle.spec, 7)
    assert H.betti == [1, 0, 2, 0, 0, 2, 0, 1]


def test_tensor_cp3_times_s2():
    cp3 = preset("CPN", m=3).spec
    s2 = AlgebraSpec(Q, [GeneratorDecl("b", 2)],
                     relations=[[(1, ("b", "b"))]], degree_cap=8).validate()
    prod = tensor(cp3, s2)
    H = cohomology(prod, 8)
    assert H.betti[2] == 2
    assert H.betti[4] == 2
    assert H.betti == [1, 0, 2, 0, 2, 0, 2, 0, 1]


def test_tensor_unit_factor():
    s1 = preset("SPHERE2").spec
    unit = AlgebraSpec(Q, [], degree_cap=8)
    prod = tensor(s1, unit)
    H = cohomology(prod, 4)
    assert H.betti == [1, 0, 1, 0, 0]


def test_sasaki_cpn_s2_preset():
    bundle = preset("SASAKI_CPN_S2", n=4)
    H = cohomology(bundle.spec, 9)
    assert H.betti == [1, 0, 1, 0, 0, 0, 0, 1, 0, 1]


def test_t6_z2_quotient_even_slices():
    bundle = preset("T6_Z2")
    H = invariant_cohomology(bundle.action, 6)
    assert H.betti == [1, 0, 15, 0, 15, 0, 1]


def test_p_over_t6z2_model():
    bundle = preset("P_OVER_T6Z2")
    H = invariant_cohomology(bundle.action, 7, volume=bundle.volume)
    assert H.betti[1] == 0
    assert H.betti[3] == 0


def test_preset_document_roundtrip():
    from cdgalab.serialize import document_from_json, document_to_json
    from cdgalab.models import preset_document
    doc = preset_document("HEIS6_Z6")
    spec, action, classes, volume, meta = document_from_json(doc)
    emitted = document_to_json(spec, action=action, classes=classes,
                               volume=volume, meta=meta)
    spec2, action2, classes2, volume2, meta2 = document_from_json(emitted)
    assert [g.name for g in spec2.generators] == [g.name for g in spec.generators]

    def normalize(elem):
        return {m: c.coeffs for m, c in elem.terms.items()}

    assert normalize(classes2["omega"]) == normalize(classes["omega"])
    assert volume2 == volume
    assert action2.order == action.order
