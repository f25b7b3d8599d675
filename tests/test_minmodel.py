import pytest

from cdgalab.algebra import AlgebraSpec, GeneratorDecl
from cdgalab.chains import FreeSlices, product
from cdgalab.cohomology import cohomology
from cdgalab.errors import NotOneConnected
from cdgalab.linalg import vec_iadd
from cdgalab import minmodel
from cdgalab.minmodel import (
    CERTIFIED,
    FORMAL,
    INCONCLUSIVE,
    NOT_FORMAL,
    REFUTED,
    build_minimal_model,
    formality_verdict,
    massey_scan,
    s_formality_check,
)
from cdgalab.models import preset
from cdgalab.symmetry import invariant_cohomology

from test_algebra import Q, exterior, heisenberg6


def extend(slices, images, elem):
    """Image of ``elem`` under the algebra map sending generator g to ``images[g]``:
    each term c * g_1 ... g_r goes to c * product(images of g_1, ..., g_r)."""
    out = {}
    for mono, c in elem.terms.items():
        vec_iadd(out, product(slices, [images[g] for g in mono]), c)
    return out


def test_sphere_minimal_model():
    bundle = preset("SPHERE2")
    ring = cohomology(bundle.spec, 7)
    mm = build_minimal_model(ring, 6)
    degrees = sorted((g.degree, g.name) for g in mm.model.generators)
    assert [d for d, _ in degrees] == [2, 3]
    a_name = degrees[0][1]
    b_name = degrees[1][1]
    a = mm.model.gen(a_name)
    assert mm.model.gen(b_name).d() == a * a
    assert mm.cn_split[2][0] == [a_name]
    assert mm.cn_split[3][1] == [b_name]


def test_minimal_model_quasi_iso_contract():
    bundle = preset("SPHERE2")
    ring = cohomology(bundle.spec, 7)
    mm = build_minimal_model(ring, 6)
    model_ring = cohomology(mm.model, mm.bound + 1)
    for k in range(7):
        assert model_ring.betti[k] == ring.betti[k], f"degree {k}"


def test_torus_is_its_own_minimal_model():
    spec = exterior("abcdef").validate()
    ring = cohomology(spec, 6)
    mm = build_minimal_model(ring, 5)
    assert mm.identity
    for s in range(1, 6):
        assert s_formality_check(mm, s).status == CERTIFIED


def test_builder_requires_one_connected():
    spec = heisenberg6().validate()
    ring = cohomology(spec, 6)
    # trick: drop the identity shortcut by quotienting with a relation
    from cdgalab.algebra import AlgebraSpec, GeneratorDecl
    from cdgalab.scalars import CycField
    q = CycField.get(1)
    torus_like = AlgebraSpec(q, [GeneratorDecl("x", 1), GeneratorDecl("a", 2)],
                             relations=[[(1, ("a", "a"))]],
                             degree_cap=6).validate()
    with pytest.raises(NotOneConnected):
        build_minimal_model(cohomology(torus_like, 5), 4)


def test_formal_sasakian_minimal_model_n4():
    bundle = preset("SASAKI_CPN_S2", n=4)
    ring = cohomology(bundle.spec, 8)
    mm = build_minimal_model(ring, 7)
    degrees = sorted(g.degree for g in mm.model.generators)
    assert degrees == [2, 3, 7]
    by_deg = {g.degree: g.name for g in mm.model.generators}
    a = mm.model.gen(by_deg[2])
    b = mm.model.gen(by_deg[3])
    z = mm.model.gen(by_deg[7])
    assert a.d().is_zero()
    assert b.d() == a * a          # forced by H^3 = H^4 = 0 of the target
    assert z.d().is_zero()         # closed-generator convention (see ERRATA)
    # Gysin oracle for the target Betti numbers
    assert ring.betti == [1, 0, 1, 0, 0, 0, 0, 1, 0]


def test_formal_sasakian_s_formality_and_verdict():
    bundle = preset("SASAKI_CPN_S2", n=4)
    ring = cohomology(bundle.spec, 8)
    mm = build_minimal_model(ring, 7)
    for s in (3, 4):
        rep = s_formality_check(mm, s)
        assert rep.status == CERTIFIED
        assert rep.route == "regular_even_differential"
    verdict = formality_verdict(ring, poincare_dimension=9)
    assert verdict.verdict == FORMAL
    assert verdict.route == "s_formality_duality"
    assert verdict.certificate["s"] == 4


def test_sasaki7_not_formal_via_massey():
    bundle = preset("SASAKI7_S2CUBE")
    ring = cohomology(bundle.spec, 7)
    hit = massey_scan(ring)
    assert hit is not None and hit.verdict == "NONZERO"
    verdict = formality_verdict(ring, poincare_dimension=7)
    assert verdict.verdict == NOT_FORMAL
    assert verdict.route == "massey_obstruction"


def test_heis6_identity_model_refuted_s_formality():
    spec = heisenberg6().validate()
    ring = cohomology(spec, 6)
    mm = build_minimal_model(ring, 5)
    assert mm.identity
    rep = s_formality_check(mm, 1)
    assert rep.status == REFUTED
    assert rep.witness is not None


def test_zero_differential_is_formal():
    bundle = preset("T6")
    ring = cohomology(bundle.spec, 6)
    verdict = formality_verdict(ring)
    assert verdict.verdict == FORMAL
    assert verdict.route == "zero_differential"


def test_zero_differential_is_decided_before_the_massey_scan(monkeypatch):
    import cdgalab.minmodel

    def refuse(*args, **kwargs):
        raise AssertionError("massey_scan ran on a ring with d = 0")
    monkeypatch.setattr(cdgalab.minmodel, "massey_scan", refuse)
    for name, params, dim in (("T6", {}, 6), ("CPN", {"m": 3}, 6)):
        bundle = preset(name, **params)
        verdict = formality_verdict(cohomology(bundle.spec, dim), poincare_dimension=dim)
        assert (verdict.verdict, verdict.route) == (FORMAL, "zero_differential")


def test_orbifold6_formal_by_low_dimension():
    bundle = preset("HEIS6_Z6")
    ring = invariant_cohomology(bundle.action, 6)
    verdict = formality_verdict(ring, poincare_dimension=6, simply_connected=True)
    assert verdict.verdict == FORMAL
    assert verdict.route == "low_dimension"


def test_orbifold8_not_formal():
    bundle = preset("HEIS8_Z3")
    ring = invariant_cohomology(bundle.action, 8)
    verdict = formality_verdict(ring)
    assert verdict.verdict == NOT_FORMAL
    assert verdict.witness is not None
    assert verdict.witness.kind.startswith("aMassey") or \
        verdict.witness.kind == "triple"


def test_consistency_no_formal_with_nonzero_massey():
    # the verdicts and the scans must never disagree on the same ring
    for name, dim in (("T6", 6), ("SASAKI7_S2CUBE", 7)):
        bundle = preset(name)
        ring = cohomology(bundle.spec, dim)
        verdict = formality_verdict(ring, poincare_dimension=dim)
        hit = massey_scan(ring)
        if verdict.verdict == FORMAL:
            assert hit is None
        if hit is not None:
            assert verdict.verdict != FORMAL


def test_model_minimality_flag():
    bundle = preset("SASAKI_CPN_S2", n=4)
    ring = cohomology(bundle.spec, 8)
    mm = build_minimal_model(ring, 7)
    assert mm.model.flags.is_minimal  # no linear part in any differential


def test_massey_model_independence():
    # the product computed in the minimal model maps to the product computed
    # in the target, via the builder's quasi-isomorphism
    from cdgalab.massey import triple_massey
    from cdgalab.linalg import kernel_image

    bundle = preset("SASAKI7_S2CUBE")
    ring = cohomology(bundle.spec, 7, volume=bundle.volume)
    mm = build_minimal_model(ring, 6)
    model_ring = cohomology(mm.model, 6)

    def pull_back(cls):
        # solve H^2(psi) x = cls
        from cdgalab.linalg import Echelon
        ech = Echelon(ring.field)
        for j in range(model_ring.betti[2]):
            rep = model_ring.slices.to_element(2, model_ring.reps(2)[j])
            img = ring.class_of(extend(ring.slices, mm.psi, rep), 2)
            ech.add(dict(img.coords), source={j: ring.field.one})
        sol = ech.solve(dict(cls.coords))
        assert sol is not None
        from cdgalab.cohomology import CohomClass
        return CohomClass(model_ring, 2, sol)

    a1 = ring.class_of(bundle.classes["a1"])
    a2 = ring.class_of(bundle.classes["a2"])
    m1, m2 = pull_back(a1), pull_back(a2)
    # sanity: the pullbacks map forward to the original classes
    for target, model_cls in ((a1, m1), (a2, m2)):
        fwd = ring.class_of(extend(
            ring.slices, mm.psi, model_ring.slices.to_element(2, model_cls.rep_vec())), 2)
        assert fwd == target
    rep_model = triple_massey(model_ring, m1, m1, m2)
    rep_target = triple_massey(ring, a1, a1, a2)
    assert rep_model.defined and rep_target.defined
    assert rep_model.verdict == rep_target.verdict == "NONZERO"
    pushed = ring.class_of(extend(ring.slices, mm.psi, model_ring.slices.to_element(
        5, rep_model.representative.rep_vec())), 5)
    # both indeterminacies vanish (H^3 = 0 on both sides), so classes agree
    assert model_ring.betti[3] == 0
    assert pushed == rep_target.representative


def test_sasaki7_model_not_3_formal_with_unique_splitting():
    bundle = preset("SASAKI7_S2CUBE")
    ring = cohomology(bundle.spec, 7)
    mm = build_minimal_model(ring, 6)
    two = s_formality_check(mm, 2)
    assert two.status == CERTIFIED  # simply connected spaces are 2-formal
    three = s_formality_check(mm, 3)
    assert three.status == REFUTED
    assert three.splitting_unique  # each degree is all-C or all-N here
    # with the scan disabled the duality route alone refutes formality
    verdict = formality_verdict(ring, poincare_dimension=7, budget=0)
    assert verdict.verdict == NOT_FORMAL
    assert verdict.route == "s_formality_refuted"


def test_heis6_refutation_is_split_dependent_only():
    spec = heisenberg6().validate()
    ring = cohomology(spec, 6)
    verdict = formality_verdict(ring, poincare_dimension=6, budget=0)
    # degree 1 mixes closed and non-closed generators, so the canonical-split
    # refutation is not absolute and the verdict stays UNKNOWN at budget 0
    assert verdict.verdict == "UNKNOWN"
    assert verdict.route == "s_formality_refuted_canonical_split"


def test_degenerate_minimal_spec_rejected():
    from cdgalab.algebra import AlgebraSpec, GeneratorDecl
    from cdgalab.scalars import CycField
    q = CycField.get(1)
    spec = AlgebraSpec(q, [GeneratorDecl("x", 1), GeneratorDecl("y", 1),
                           GeneratorDecl("t1", 1), GeneratorDecl("t2", 1)],
                       differential={"t1": [(1, ("x", "y"))],
                                     "t2": [(1, ("x", "y"))]},
                       degree_cap=5).validate()
    assert spec.flags.is_minimal
    ring = cohomology(spec, 4)
    # the namewise split would be unsound (d not injective on the N span),
    # so the identity shortcut is skipped; the fallback needs 1-connectedness
    with pytest.raises(NotOneConnected):
        build_minimal_model(ring, 3)


def _degree_one(differential, extra=(), cap=5):
    gens = [GeneratorDecl(n, 1) for n in "hef"] + list(extra)
    return AlgebraSpec(Q, gens, differential=differential, degree_cap=cap).validate()


# The Chevalley-Eilenberg algebra of sl2: d is decomposable, but no basis of
# degree 1 makes it triangular, and its cohomology is that of S^3.
SL2 = {"h": [(-1, ("e", "f"))], "e": [(-2, ("h", "e"))], "f": [(2, ("h", "f"))]}


def test_sl2_is_not_its_own_minimal_model():
    spec = _degree_one(SL2)
    assert spec.flags.is_minimal
    ring = cohomology(spec, 4)
    assert list(ring.betti) == [1, 0, 0, 1, 0]
    mm = build_minimal_model(ring, 2)
    assert not mm.identity and mm.model.generators == ()
    mm = build_minimal_model(ring, 3)
    assert [g.degree for g in mm.model.generators] == [3] and not mm.model.differential
    assert mm.cn_split[3] == ([mm.model.generators[0].name], [])
    assert cohomology(mm.model, 3).betti == ring.betti[:4]


def test_sl2_with_an_abelian_part_takes_the_general_path():
    spec = _degree_one(SL2, [GeneratorDecl("t", 1)], cap=6)
    with pytest.raises(NotOneConnected):
        build_minimal_model(cohomology(spec, 5), 2)


def test_sullivan_condition_in_degree_one_needs_no_basis():
    # The Heisenberg algebra in the basis h + f, e, f: no generator but e is
    # closed, d(h) = d(f) = (h - f) e, yet the closed span reaches all of degree 1.
    rebased = {"h": [(1, ("h", "e")), (-1, ("f", "e"))], "f": [(1, ("h", "e")), (-1, ("f", "e"))]}
    assert minmodel._sullivan(FreeSlices(_degree_one(rebased)))
    assert not minmodel._sullivan(FreeSlices(_degree_one(SL2)))
    assert minmodel._sullivan(FreeSlices(exterior("abc").validate()))


def test_sullivan_condition_in_degree_two_needs_no_basis():
    # Neither degree-2 generator is closed, but d(y + z) = 0 and dy, dz lie in
    # x * (y + z): the chain reaches all of degree 2.
    gens = [GeneratorDecl("x", 1), GeneratorDecl("y", 2), GeneratorDecl("z", 2)]
    d = {"y": [(1, ("x", "y")), (1, ("x", "z"))], "z": [(-1, ("x", "y")), (-1, ("x", "z"))]}
    spec = AlgebraSpec(Q, gens, differential=d, degree_cap=5).validate()
    assert spec.flags.is_minimal and minmodel._sullivan(FreeSlices(spec))


def test_a_mixed_degree_spec_that_is_not_sullivan_takes_the_general_path():
    # dy = xy is decomposable and alone in its degree, so is_minimal and the
    # independence check hold; but no part of degree 2 is closed modulo x * V^2.
    # Before, the spec came back as its own minimal model, with H^1 of S^1.
    spec = AlgebraSpec(Q, [GeneratorDecl("x", 1), GeneratorDecl("y", 2)],
                       differential={"y": [(1, ("x", "y"))]}, degree_cap=6).validate()
    assert spec.flags.is_minimal
    ring = cohomology(spec, 5)
    assert list(ring.betti) == [1, 1, 0, 0, 0, 0]
    with pytest.raises(NotOneConnected) as exc:
        build_minimal_model(ring, 3)
    assert exc.value.details == {"betti1": 1}
    assert not minmodel._sullivan(FreeSlices(spec))


def test_model_spec_is_rebuilt_once_per_step(monkeypatch):
    # One AlgebraSpec for the empty model, then at most two per stage: after
    # the stage's closed generators and after its non-closed ones.
    import cdgalab.minmodel
    from cdgalab.algebra import AlgebraSpec

    built = []

    class CountingSpec(AlgebraSpec):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cdgalab.minmodel, "AlgebraSpec", CountingSpec)
    bound = 3
    bundle = preset("T6_Z2")
    mm = build_minimal_model(invariant_cohomology(bundle.action, bound + 1), bound)
    assert len(mm.model.generators) == 120
    assert len(built) <= 1 + 2 * (bound - 1)


def test_heis8_z3_bound5_report_is_pinned():
    # The bound-5 report is 2 MB, too large for a snapshot, so its sha256 is
    # pinned instead; it is the same on CPython 3.10, 3.11 and 3.12.
    import hashlib
    import json

    from regenerate_golden import run_cli
    from cdgalab.models import preset_document

    code, out, _ = run_cli(["minimal-model", "--bound", "5", "--format", "json"],
                           json.dumps(preset_document("HEIS8_Z3")))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "f58af32c8e48326643ebfd00fb2980f8a7a2c4063a0cd756a815a21ec6f387ff"


# -- the identity shortcut stays inside the bound -------------------------------

def _square_killer():
    """a in degree 2 and b in degree 3 with db = a^2: the model of S^2."""
    gens = [GeneratorDecl("a", 2), GeneratorDecl("b", 3)]
    return AlgebraSpec(Q, gens, differential={"b": [(1, ("a", "a"))]}, degree_cap=9)


def test_identity_shortcut_needs_every_generator_within_the_bound():
    ring = cohomology(_square_killer(), 5)
    mm = build_minimal_model(ring, 3)
    assert mm.identity and [g.name for g in mm.model.generators] == ["a", "b"]
    mm = build_minimal_model(ring, 2)
    assert not mm.identity
    assert [g.degree for g in mm.model.generators] == [2] and not mm.model.differential
    assert build_minimal_model(ring, 1).model.generators == ()


@pytest.mark.parametrize("name", ["HEIS6", "T6"])
def test_bound_zero_admits_no_degree_one_generator(name):
    ring = cohomology(preset(name).spec, 1)
    with pytest.raises(NotOneConnected):
        build_minimal_model(ring, 0)
