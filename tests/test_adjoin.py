"""Specs that grow equal the specs rebuilt from generator names.

``AlgebraSpec.adjoin`` appends generators to a spec, carries its caches and
checks d^2 on the new generators only.  The path it replaced is kept here as
the reference: every Element becomes (coeff, generator names) terms, the
names are parsed back into a new AlgebraSpec, and every check runs again from
empty caches.  The minimal model and the circle bundle are built both ways.
"""

import pytest

from cdgalab.algebra import AlgebraSpec, GeneratorDecl, monomial_names
from cdgalab.chains import FreeSlices
from cdgalab.cohomology import cohomology
from cdgalab.errors import (
    BadDifferentialDegree,
    CapTooLow,
    D2Nonzero,
    IdealNotStable,
    ParentMismatch,
    ParseError,
    TruncatedOperand,
)
from cdgalab.minmodel import build_minimal_model
from cdgalab.models import FIXED_PRESETS, circle_bundle, preset
from cdgalab.scalars import CycField
from cdgalab.symmetry import invariant_cohomology

Q = CycField.get(1)
CACHES = ("_free_basis_cache", "_ideal_cache", "_basis_cache", "_index_cache",
          "_d_mono_cache")


def _preset(name):
    """The preset, CPN at m = 3; the other presets take their defaults."""
    return preset(name, **({"m": 3} if name == "CPN" else {}))


def names(elem):
    return [(c, monomial_names(elem.parent, m)) for m, c in elem.terms.items()]


def names_adjoin(spec, generators, differential, degree_cap=None):
    """The reference: the spec with ``generators`` appended, rebuilt from names."""
    diff = {spec.generators[gi].name: names(img) for gi, img in spec.differential.items()}
    diff.update({name: names(img) for name, img in differential.items()})
    return AlgebraSpec(spec.field, list(spec.generators) + list(generators), differential=diff,
                       relations=[names(rel) for rel in spec.relations],
                       degree_cap=spec.degree_cap if degree_cap is None else degree_cap)


def assert_same_spec(grown, ref):
    assert grown.generators == ref.generators and grown.degree_cap == ref.degree_cap
    assert [(gi, list(img.terms.items())) for gi, img in grown.differential.items()] == \
        [(gi, list(img.terms.items())) for gi, img in ref.differential.items()]
    assert [list(r.terms.items()) for r in grown.relations] == \
        [list(r.terms.items()) for r in ref.relations]
    assert grown.flags == ref.flags
    grown_sl, ref_sl = FreeSlices(grown), FreeSlices(ref)
    for k in range(grown.degree_cap + 1):
        assert grown.basis(k) == ref.basis(k)
        if k < grown.degree_cap:
            assert [grown_sl.d_col(k, i) for i in range(grown_sl.dim(k))] == \
                [ref_sl.d_col(k, i) for i in range(ref_sl.dim(k))]


def _ring(bundle, top):
    if bundle.action is not None:
        return invariant_cohomology(bundle.action, top)
    return cohomology(bundle.spec, top)


MODELS = [(name, 3) for name in FIXED_PRESETS + ("CPN", "SASAKI_CPN_S2")] + \
    [("T6_Z2", 4), ("HEIS8_Z3", 4)]


@pytest.mark.parametrize("name, bound", MODELS, ids=[f"{n}-{b}" for n, b in MODELS])
def test_minimal_model_matches_the_names_rebuild(name, bound, monkeypatch):
    bundle = _preset(name)
    grown = build_minimal_model(_ring(bundle, bound + 1), bound)
    monkeypatch.setattr(AlgebraSpec, "adjoin", names_adjoin)
    ref = build_minimal_model(_ring(_preset(name), bound + 1), bound)
    assert_same_spec(grown.model, ref.model)
    assert grown.psi == ref.psi and grown.cn_split == ref.cn_split


BUNDLES = [(name, cls) for name in FIXED_PRESETS + ("CPN", "SASAKI_CPN_S2")
           for cls, elem in _preset(name).classes.items() if elem.degree == 2]


@pytest.mark.parametrize("name, cls", BUNDLES, ids=[f"{n}-{c}" for n, c in BUNDLES])
def test_circle_bundle_matches_the_names_rebuild(name, cls, monkeypatch):
    bundle = _preset(name)
    euler = bundle.classes[cls]
    grown = circle_bundle(bundle.spec, euler, gen_name="t")
    monkeypatch.setattr(AlgebraSpec, "adjoin", names_adjoin)
    ref = circle_bundle(bundle.spec, euler, gen_name="t")
    assert_same_spec(grown, ref)
    for elem in bundle.classes.values():
        assert list(grown.element(elem).terms.items()) == \
            list(ref.element(names(elem)).terms.items())


def _base():
    # w, x, y, z in degree 1 with dw = xy
    return AlgebraSpec(Q, [GeneratorDecl(n, 1) for n in "wxyz"],
                       differential={"w": [(1, ("x", "y"))]}, degree_cap=3)


@pytest.mark.parametrize("generators, differential, error", [
    ([GeneratorDecl("t", 1)], {"t": [(1, ("w", "z"))]}, D2Nonzero),
    ([GeneratorDecl("t", 1)], {"t": [(1, ("x",))]}, BadDifferentialDegree),
    ([GeneratorDecl("x", 1)], {}, ParseError),
    ([GeneratorDecl("t", 2)], {}, CapTooLow),
], ids=["d-squared", "differential-degree", "duplicate-name", "cap-too-low"])
def test_adjoin_raises_what_the_constructor_raises(generators, differential, error):
    base = _base()
    with pytest.raises(error) as built:
        names_adjoin(base, generators, {n: base.element(t) for n, t in differential.items()})
    with pytest.raises(error) as grown:
        base.adjoin(generators, {n: base.element(t) for n, t in differential.items()})
    assert (str(grown.value), grown.value.details) == (str(built.value), built.value.details)


def test_a_raised_cap_checks_the_relations_again():
    # The relation wzu has degree 3, so under cap 3 its d is never checked;
    # the bundle's cap 4 brings d(wzu) = xyzu in, which the ideal does not hold.
    base = AlgebraSpec(Q, [GeneratorDecl(n, 1) for n in "wxyzu"],
                       differential={"w": [(1, ("x", "y"))]},
                       relations=[[(1, ("w", "z", "u"))]], degree_cap=3)
    with pytest.raises(IdealNotStable) as grown:
        circle_bundle(base, base.zero(2), gen_name="t")
    assert grown.value.details["degree"] == 4
    with pytest.raises(IdealNotStable) as built:
        names_adjoin(base, [GeneratorDecl("t", 1)], {}, base.degree_cap + 1)
    assert grown.value.details == built.value.details


@pytest.mark.parametrize("name", ["SPHERE2", "CPN", "HEIS6"])
def test_growing_leaves_the_old_spec_untouched(name):
    bundle = _preset(name)
    base = bundle.spec
    euler = next(e for e in bundle.classes.values() if e.degree == 2)
    FreeSlices(base).d_col(2, 0)
    total = circle_bundle(base, euler, gen_name="t")
    before = {cache: dict(getattr(base, cache)) for cache in CACHES}
    sl = FreeSlices(total)
    for k in range(total.degree_cap):
        [sl.d_col(k, i) for i in range(sl.dim(k))]
    assert {cache: dict(getattr(base, cache)) for cache in CACHES} == before
    assert before["_d_mono_cache"].items() <= total._d_mono_cache.items()
    assert all(getattr(total, cache) is not getattr(base, cache) for cache in CACHES)
    assert all(img.parent is total for img in total.differential.values())


def test_element_carries_over_from_a_prefix_spec_only():
    base = _base()
    grown = base.adjoin([GeneratorDecl("t", 2)], {"t": base.element([(1, ("x", "y", "z"))])}, 4)
    wx = base.element([(2, ("w", "x"))])
    assert grown.element(wx) == grown.element([(2, ("w", "x"))])
    other = AlgebraSpec(Q, [GeneratorDecl(n, 1) for n in "wxzy"], degree_cap=3)
    with pytest.raises(ParentMismatch):
        grown.element(other.element([(1, ("w",))]))
    with pytest.raises(ParentMismatch):
        base.adjoin([GeneratorDecl("t", 1)], {"t": other.zero(2)})
    truncated = base.gen("w") * base.gen("x") * base.gen("y") * base.gen("w")
    with pytest.raises(TruncatedOperand):
        grown.element(truncated)
