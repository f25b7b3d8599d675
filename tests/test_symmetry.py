from fractions import Fraction

import pytest

from cdgalab.algebra import AlgebraSpec, GeneratorDecl
from cdgalab.chains import FreeSlices, SubcomplexSlices
from cdgalab.cohomology import cohomology
from cdgalab.errors import (
    IdealNotStable,
    NotChainMap,
    NotInSubcomplex,
    OrderMismatch,
    ParentMismatch,
    TruncatedOperand,
)
from cdgalab.linalg import span
from cdgalab.models import preset
from cdgalab.scalars import CycField
from cdgalab.symmetry import (
    GroupActionSpec,
    averaging_projector,
    burnside_invariant_dimension,
    fixed_subspace_of_cohomology,
    invariant_cohomology,
    invariant_complex,
)

from test_algebra import exterior, heisenberg6

Q = CycField.get(1)


def z6_action(spec):
    """Weights (z^4, z, z^5) on (mu, nu, theta), conjugate weights on bars."""
    z = lambda k: spec.field.zeta((2 * k) % 12)  # zeta_6^k inside Q(zeta_12)
    return GroupActionSpec(spec, 6, {
        "mu": [(z(4), ("mu",))],
        "nu": [(z(1), ("nu",))],
        "theta": [(z(5), ("theta",))],
        "mubar": [(z(2), ("mubar",))],
        "nubar": [(z(5), ("nubar",))],
        "thetabar": [(z(1), ("thetabar",))],
    })


def test_z6_action_validates_with_exact_order():
    spec = heisenberg6().validate()
    act = z6_action(spec)
    assert act.order == 6


def test_identity_action_order_one():
    spec = exterior("abc").validate()
    act = GroupActionSpec(spec, 1, {n: [(1, (n,))] for n in "abc"})
    assert act.validate().order == 1


def test_wrong_weight_breaks_chain_map():
    spec = heisenberg6().validate()
    z = lambda k: spec.field.zeta((2 * k) % 12)
    with pytest.raises(NotChainMap) as err:
        GroupActionSpec(spec, 6, {
            "mu": [(z(4), ("mu",))],
            "nu": [(z(1), ("nu",))],
            "theta": [(z(1), ("theta",))],  # should be z^5: rho* d theta = z^5 mu nu
            "mubar": [(z(2), ("mubar",))],
            "nubar": [(z(5), ("nubar",))],
            "thetabar": [(z(5), ("thetabar",))],
        })
    # rho*(d theta) = z^5 mu nu against d(rho* theta) = z mu nu; z^5 - z = 1 - 2 zeta_12^2
    assert err.value.details == {"generator": "theta", "witness": "(1 - 2*z12^2)*mu*nu"}


def test_action_must_preserve_the_relation_ideal():
    # rho(a^2 - ab) = a^2 + ab = 2ab modulo a^2 = ab, which is not in the ideal,
    # so rho is not defined on the quotient.
    spec = AlgebraSpec(Q, [GeneratorDecl("x", 1), GeneratorDecl("y", 1),
                           GeneratorDecl("a", 2), GeneratorDecl("b", 2)],
                       relations=[[(1, ("a", "a")), (-1, ("a", "b"))]], degree_cap=7)
    images = {"x": [(-1, ("x",))], "y": [(1, ("y",))], "a": [(-1, ("a",))]}
    with pytest.raises(IdealNotStable) as err:
        GroupActionSpec(spec, 2, {**images, "b": [(1, ("b",))]})
    assert err.value.details == {"relation": "(1)*a^2 + (-1)*a*b", "degree": 4}
    # b -> -b keeps a^2 - ab on its own line, so that action validates
    assert GroupActionSpec(spec, 2, {**images, "b": [(-1, ("b",))]}).order == 2


def test_declared_order_must_be_exact():
    spec = exterior("ab").validate()
    with pytest.raises(OrderMismatch):
        GroupActionSpec(spec, 4, {"a": [(-1, ("a",))], "b": [(-1, ("b",))]})


def test_projector_identities():
    spec = heisenberg6().validate()
    act = z6_action(spec)
    slices = FreeSlices(spec)
    for k in (1, 2, 3):
        proj = averaging_projector(act, k)

        def apply_p(vec):
            out = {}
            for i, c in vec.items():
                for j, v in proj[i].items():
                    s = out.get(j, spec.field.zero) + c * v
                    if s.is_zero():
                        out.pop(j, None)
                    else:
                        out[j] = s
            return out

        for i in range(slices.dim(k)):
            e = {i: spec.field.one}
            pe = apply_p(e)
            assert apply_p(pe) == pe  # P^2 = P
        # P d = d P on basis vectors
        if k + 1 <= 3:
            proj_next = averaging_projector(act, k + 1)

            def apply_p_next(vec):
                out = {}
                for i, c in vec.items():
                    for j, v in proj_next[i].items():
                        s = out.get(j, spec.field.zero) + c * v
                        if s.is_zero():
                            out.pop(j, None)
                        else:
                            out[j] = s
                return out

            for i in range(slices.dim(k)):
                e = {i: spec.field.one}
                assert slices.d_vec(k, apply_p(e)) == apply_p_next(slices.d_vec(k, e))


def test_orbifold6_betti():
    spec = heisenberg6().validate()
    act = z6_action(spec)
    H = invariant_cohomology(act, 6)
    assert H.betti == [1, 0, 4, 0, 4, 0, 1]
    assert H.group_order == 6


def test_orbifold6_degree2_span_matches_listed_classes():
    spec = heisenberg6().validate()
    act = z6_action(spec)
    H = invariant_cohomology(act, 6)
    listed = [
        spec.element([(1, ("mu", "mubar"))]),
        spec.element([(1, ("nu", "nubar"))]),
        spec.element([(1, ("nu", "theta"))]),
        spec.element([(1, ("nubar", "thetabar"))]),
    ]
    classes = [H.class_of(H.slices.from_element(z), 2) for z in listed]
    from cdgalab.linalg import Echelon
    ech = Echelon(spec.field)
    rank = 0
    for c in classes:
        if ech.add(c.coords):
            rank += 1
    assert rank == 4 == H.betti[2]


def test_burnside_trace_oracle_matches_invariant_dims():
    spec = heisenberg6().validate()
    act = z6_action(spec)
    sub = invariant_complex(act)
    for k in range(7):
        assert burnside_invariant_dimension(act, k) == Fraction(sub.dim(k))


def test_weight_count_oracle_degree2():
    # a monomial is invariant iff its total zeta-weight is 0 mod 6
    weights = {"mu": 4, "nu": 1, "theta": 5, "mubar": 2, "nubar": 5, "thetabar": 1}
    spec = heisenberg6().validate()
    names = [g.name for g in spec.generators]
    count = 0
    for i in range(6):
        for j in range(i + 1, 6):
            if (weights[names[i]] + weights[names[j]]) % 6 == 0:
                count += 1
    act = z6_action(spec)
    sub = invariant_complex(act)
    assert sub.dim(2) == count == 5


def test_trivial_group_gives_whole_complex():
    spec = exterior("abcd").validate()
    act = GroupActionSpec(spec, 1, {n: [(1, (n,))] for n in "abcd"}).validate()
    sub = invariant_complex(act)
    for k in range(5):
        assert sub.dim(k) == len(spec.basis(k))


def test_z2_sign_action_keeps_even_slices():
    spec = exterior("abcdef").validate()
    act = GroupActionSpec(spec, 2, {n: [(-1, (n,))] for n in "abcdef"}).validate()
    sub = invariant_complex(act)
    for k in range(7):
        expected = len(spec.basis(k)) if k % 2 == 0 else 0
        assert sub.dim(k) == expected
    H = invariant_cohomology(act, 6)
    assert H.betti == [1, 0, 15, 0, 15, 0, 1]


def test_invariant_cohomology_equals_fixed_subspace_of_parent():
    spec = heisenberg6().validate()
    act = z6_action(spec)
    Hparent = cohomology(spec, 6)
    Hinv = invariant_cohomology(act, 6)
    for k in range(7):
        fixed = fixed_subspace_of_cohomology(act, Hparent, k)
        assert len(fixed) == Hinv.betti[k]


def test_restriction_preserves_cup_structure():
    spec = heisenberg6().validate()
    act = z6_action(spec)
    Hparent = cohomology(spec, 6)
    Hinv = invariant_cohomology(act, 6)
    k, l = 2, 2
    for j1 in range(Hinv.betti[k]):
        u = Hinv.rep_class(k, j1)
        u_par = Hparent.class_of(u.rep_element())
        for j2 in range(Hinv.betti[l]):
            v = Hinv.rep_class(l, j2)
            v_par = Hparent.class_of(v.rep_element())
            prod_inv = Hinv.cup(u, v)
            prod_par = Hparent.cup(u_par, v_par)
            assert Hparent.class_of(prod_inv.rep_element()) == prod_par


def test_subcomplex_degree_without_basis_holds_only_zero():
    slices = SubcomplexSlices(FreeSlices(exterior("ab").validate()), 0,
                              lambda k: span(Q, [{0: Q.one}]))
    assert slices.express(1, {}) == {}
    with pytest.raises(NotInSubcomplex):
        slices.express(1, {0: Q.one})


def test_apply_validates_then_reduces_the_power(monkeypatch):
    # The action is validated when it is built, and the power
    # is taken mod the order, so a huge power runs at most m - 1 matrix
    # applications and a negative power is the inverse.
    from cdgalab import symmetry

    spec = heisenberg6().validate()
    elem = spec.gen("mu") * spec.gen("nubar") + spec.gen("theta") * spec.gen("mubar")
    act = z6_action(spec)
    steps = []
    mat_vec = symmetry.mat_vec
    monkeypatch.setattr(symmetry, "mat_vec",
                        lambda cols, vec: steps.append(vec) or mat_vec(cols, vec))
    huge = act.apply(elem, 6 * 10 ** 30 + 1)
    assert huge != elem
    steps.clear()
    assert huge == act.apply(elem, 1) and len(steps) == 1
    steps.clear()
    assert act.apply(elem, -1) == act.apply(elem, 5) and len(steps) == 10
    assert act.apply(elem, 6) == elem and act.apply(elem, -6 * 10 ** 30) == elem
    assert act.apply(act.apply(elem, -1), 1) == elem


def test_apply_refuses_a_truncated_element():
    # omega^4 has degree 8 beyond the cap 7: it is a truncated zero, which
    # the action must not pass on as an ordinary zero.
    bundle = preset("HEIS6_Z6")
    omega = bundle.classes["omega"]
    top = omega * omega * omega * omega
    assert top.truncated
    with pytest.raises(TruncatedOperand):
        bundle.action.apply(top)


def test_apply_refuses_an_element_of_another_algebra():
    act = preset("HEIS6_Z6").action
    foreign = preset("HEIS6").spec.gen("mu")
    with pytest.raises(ParentMismatch):
        act.apply(foreign)


def test_fixed_subspace_refuses_a_ring_over_another_algebra():
    # HEIS6 has as many degree-1 generators as T6, so without the check the
    # T6_Z2 projector would run on HEIS6's representatives and answer
    # [1, 0, 8, 0, 8, 0, 1] where T6_Z2's fixed dimensions are [1, 0, 15, 0, 15, 0, 1].
    act = preset("T6_Z2").action
    foreign = cohomology(preset("HEIS6").spec, 6)
    invariant = invariant_cohomology(act, 5)
    own = cohomology(act.parent, 6)
    for ring in (foreign, invariant):
        with pytest.raises(ParentMismatch):
            fixed_subspace_of_cohomology(act, ring, 2)
    assert [len(fixed_subspace_of_cohomology(act, own, k)) for k in range(7)] == [
        1, 0, 15, 0, 15, 0, 1]
