"""Degrees, invariant slices and Massey certificates are computed on first read.

* A ring read lazily, in any order, equals one whose every degree was forced
  first: Betti numbers, representatives, ``class_of``, ``is_exact`` and cups.
* Commands that read few degrees eliminate only those: the identity route of
  ``minimal-model`` eliminates nothing, and the universal Lefschetz test in
  degree 2 on HEIS8 never reaches d_7 or d_8.
* An invariant slice builds a degree's fixed space only when that degree is
  read (off the action matrix when the action is diagonal, else through the
  averaging projector), and a Massey report renders its primitives only
  when its certificate is read.
* Neither a ring, its slices nor a report points back at itself, so each is
  freed without the cycle collector.
"""

import gc
import importlib
import io
import json
import random
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cdgalab import cli, lefschetz, linalg, minmodel, symmetry
from cdgalab.algebra import AlgebraSpec, Element, GeneratorDecl
from cdgalab.cohomology import CohomologyRing, cohomology
from cdgalab.massey import a_massey, triple_massey
from cdgalab.models import preset, preset_document
from cdgalab.scalars import CycField
from cdgalab.symmetry import invariant_cohomology, invariant_complex

ALL_PRESETS = [(name, {}) for name in ("HEIS6", "HEIS6_Z6", "HEIS8", "HEIS8_Z3", "T6",
                                       "T6_Z2", "SASAKI7_S2CUBE", "SPHERE2", "P_OVER_T6Z2")]
ALL_PRESETS += [("CPN", {"m": 3}), ("SASAKI_CPN_S2", {"n": 4})]
CASES = [(name, params, False) for name, params in ALL_PRESETS]
CASES += [(name, {}, True) for name in ("HEIS6_Z6", "HEIS8_Z3", "T6_Z2", "P_OVER_T6Z2")]


def _ring(name, params, invariant):
    pre = preset(name, **params)
    top = pre.meta.get("dim") or pre.spec.degree_cap - 1
    return invariant_cohomology(pre.action, top) if invariant else cohomology(pre.spec, top)


def _forced(name, params, invariant):
    ring = _ring(name, params, invariant)
    assert len(list(ring.betti)) == ring.max_degree + 1
    return ring


def _random_vec(rng, field, dim):
    return {i: field.rational(Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2)))
            for i in range(dim) if rng.random() < 0.6}


def _read(ring, forced, k, query, rng):
    """One query on degree k of the lazy ring, checked against the forced ring."""
    field, sl = ring.field, ring.slices
    if query == "betti":
        assert ring.betti[k] == forced.betti[k]
    elif query == "reps":
        assert ring.reps(k) == forced.reps(k)
    elif query in ("class_of", "is_exact"):
        coeffs = _random_vec(rng, field, forced.betti[k])
        boundary = sl.d_vec(k - 1, _random_vec(rng, field, sl.dim(k - 1))) if k else {}
        z = linalg.vec_add(forced.rep_combination(k, coeffs), boundary)
        assert ring.class_of(z, k).coords == forced.class_of(z, k).coords == coeffs
        assert ring.is_exact(z, k) == forced.is_exact(z, k)
        assert (ring.is_exact(boundary, k) is None) == (forced.is_exact(boundary, k) is None)
    else:
        for p in range(k + 1):
            for i in range(forced.betti[p]):
                for j in range(forced.betti[k - p]):
                    got = ring.cup(ring.rep_class(p, i), ring.rep_class(k - p, j))
                    want = forced.cup(forced.rep_class(p, i), forced.rep_class(k - p, j))
                    assert got.coords == want.coords


QUERIES = ["betti", "reps", "class_of", "is_exact", "cup"]


@pytest.mark.parametrize("name,params,invariant", CASES,
                         ids=[n + ("-inv" if inv else "") for n, _, inv in CASES])
def test_a_lazily_read_ring_equals_a_forced_one(name, params, invariant):
    forced = _forced(name, params, invariant)
    ring = _ring(name, params, invariant)
    rng = random.Random(7)
    for k in reversed(range(ring.max_degree + 1)):
        for query in QUERIES:
            _read(ring, forced, k, query, rng)
    assert ring.betti == forced.betti == list(forced.betti)
    assert repr(ring.betti) == repr(list(forced.betti))
    assert ring.betti[-1] == forced.betti[ring.max_degree]
    assert ring.betti[1:3] == list(forced.betti)[1:3]


ORDER_CASES = [("HEIS6", {}, False), ("HEIS6_Z6", {}, True), ("SASAKI7_S2CUBE", {}, False),
               ("T6_Z2", {}, True), ("CPN", {"m": 3}, False)]
FORCED = {}


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(ORDER_CASES), reads=st.lists(
    st.tuples(st.integers(0, 8), st.sampled_from(QUERIES)), min_size=1, max_size=6),
    seed=st.integers(0, 2**16))
def test_any_reading_order_gives_the_forced_answers(case, reads, seed):
    key = case[0]
    if key not in FORCED:
        FORCED[key] = _forced(*case)
    forced = FORCED[key]
    ring = _ring(*case)
    rng = random.Random(seed)
    for k, query in reads:
        _read(ring, forced, k % (ring.max_degree + 1), query, rng)


# -- what a command computes ---------------------------------------------------

def _cli(argv, name, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(preset_document(name))))
    code = cli.main(argv + ["--format", "json"])
    capsys.readouterr()
    assert code == 0


def _count_kernel_image(monkeypatch):
    calls = []
    original = linalg.kernel_image
    for module in (importlib.import_module("cdgalab.cohomology"), minmodel, lefschetz):
        monkeypatch.setattr(module, "kernel_image",
                            lambda *args: calls.append(args[1]) or original(*args))
    return calls


@pytest.mark.parametrize("name", ["HEIS8", "T6"])
def test_the_identity_model_eliminates_nothing(name, monkeypatch, capsys):
    calls = _count_kernel_image(monkeypatch)
    _cli(["minimal-model", "--bound", "3"], name, monkeypatch, capsys)
    assert calls == []


def test_universal_lefschetz_in_degree_2_stops_below_d7(monkeypatch, capsys):
    eliminated = []
    original = CohomologyRing._kernel_image

    def spy(ring, k):
        if k not in ring._d:
            eliminated.append(k)
        return original(ring, k)
    monkeypatch.setattr(CohomologyRing, "_kernel_image", spy)
    _cli(["lefschetz", "--universal", "--degree", "2"], "HEIS8", monkeypatch, capsys)
    assert eliminated and max(eliminated) <= 6


def test_an_invariant_slice_is_averaged_when_first_read(monkeypatch):
    # HEIS6_Z6's action is diagonal, so each fixed space is read off the
    # degree's action matrix, which is asked for once per fixed space.
    act = preset("HEIS6_Z6").action
    built = []
    original = symmetry.GroupActionSpec.matrix
    monkeypatch.setattr(symmetry.GroupActionSpec, "matrix",
                        lambda act, k: built.append(k) or original(act, k))
    sub = invariant_complex(act)
    ring = CohomologyRing(sub, 5)
    assert built == []
    assert sub.dim(2) == 5 and sub.dim(2) == 5 and built == [2]
    assert ring.betti[2] == 4 and sorted(built) == [1, 2, 3]


def test_a_permuted_invariant_slice_is_averaged_when_first_read(monkeypatch):
    # x -> y -> z -> x moves generators off their lines: the general path
    # spans the averaging projector's columns, once per degree read.
    act = _permutation_action()
    built = []
    original = symmetry.averaging_projector
    monkeypatch.setattr(symmetry, "averaging_projector",
                        lambda act, k: built.append(k) or original(act, k))
    sub = invariant_complex(act)
    ring = CohomologyRing(sub, 3)
    assert built == []
    assert sub.dim(2) == 1 and sub.dim(2) == 1 and built == [2]
    assert ring.betti[1] == 1 and sorted(built) == [0, 1, 2]


def _permutation_action():
    field = CycField.get(1)
    spec = AlgebraSpec(field, [GeneratorDecl(name, 1) for name in "xyz"], degree_cap=4)
    return symmetry.GroupActionSpec(spec, 3, {"x": [(1, ("y",))], "y": [(1, ("z",))],
                                              "z": [(1, ("x",))]})


def test_a_massey_certificate_is_rendered_when_first_read(monkeypatch):
    bundle = preset("SASAKI7_S2CUBE")
    ring = cohomology(bundle.spec, 7)
    a1, a2 = (ring.class_of(bundle.classes[n]) for n in ("a1", "a2"))
    rendered = []
    render = Element.render
    monkeypatch.setattr(Element, "render", lambda self: rendered.append(self) or render(self))
    rep = triple_massey(ring, a1, a1, a2)
    assert rendered == []
    assert set(rep.certificate) == {"primitive_uv", "primitive_vw"} and len(rendered) == 2
    assert rep.certificate is rep.certificate and len(rendered) == 2
    assert rep == triple_massey(ring, a1, a1, a2)


def test_massey_scan_on_a_zero_differential_evaluates_nothing(monkeypatch):
    evaluated = []
    monkeypatch.setattr(minmodel, "triple_massey", lambda *a, **k: evaluated.append(a))
    monkeypatch.setattr(minmodel, "a_massey", lambda *a, **k: evaluated.append(a))
    assert minmodel.massey_scan(cohomology(preset("T6").spec, 6)) is None
    assert evaluated == []


@pytest.mark.parametrize("invariant", [False, True])
def test_rings_slices_and_reports_are_freed_without_the_collector(invariant):
    bundle = preset("HEIS6_Z6")

    def refs():
        ring = invariant_cohomology(bundle.action, 6) if invariant else cohomology(bundle.spec, 6)
        u = ring.rep_class(2, 0)
        reports = [triple_massey(ring, u, u, u), a_massey(ring, u, [u, u])]
        for rep in reports:
            assert rep.certificate
        assert list(ring.betti) and ring.cup(u, u).degree == 4
        return [weakref.ref(obj) for obj in (ring, ring.slices, *reports)]
    gc.collect()
    gc.disable()
    try:
        dead = [ref() is None for ref in refs()]
    finally:
        gc.enable()
    assert dead == [True] * 4
