"""Answers read from structure equal the answers computed the long way.

* The duality pairing into a one-dimensional H^n reads each entry through one
  functional lam on C^n and checks only k <= n/2.  The reference is the loop
  this replaces: every k from 0 to n, each entry the coordinate of a full cup
  product through ``class_of``.
* A spec with no differential has d = 0, which the slices read from the spec
  (``zero_d``), and a ring over them reads each degree off the slice: unit
  representatives, no image, no elimination.  The reference is the general
  path, with ``zero_d`` forced off on a second copy of the slices: every d
  column expanded by Leibniz (and, on an invariant complex, solved for in the
  subcomplex) and every degree eliminated.
"""

import importlib
import random

import pytest
from hypothesis import given, reject, settings, strategies as st

from cdgalab.algebra import AlgebraSpec, GeneratorDecl
from cdgalab.chains import FreeSlices
from cdgalab.cohomology import CohomologyRing, cohomology
from cdgalab.errors import CapExceeded, OrderMismatch
from cdgalab.linalg import span
from cdgalab.models import FIXED_PRESETS, preset
from cdgalab.scalars import CycField
from cdgalab.symmetry import GroupActionSpec, invariant_cohomology, invariant_complex

PRESETS = [(name, {}) for name in FIXED_PRESETS] + [("CPN", {"m": 3}),
                                                    ("SASAKI_CPN_S2", {"n": 4})]
Q = CycField.get(1)


def ref_pairing_nondegenerate(ring, n):
    """The cup-based loop: every k, each entry the coordinate of a full cup."""
    if ring.betti[n] != 1:
        return False
    for k in range(n + 1):
        if ring.betti[k] != ring.betti[n - k]:
            return False
        # H^n is one-dimensional: a cup is {0: c}, or {} when it vanishes.
        rows = ({l: c for l in range(ring.betti[n - k]) for c in ring.cup(
                    ring.rep_class(k, j), ring.rep_class(n - k, l)).coords.values()}
                for j in range(ring.betti[k]))
        if span(ring.field, rows).rank != ring.betti[k]:
            return False
    return True


def _assert_pairings_match(ring):
    for n in range(ring.max_degree + 1):
        assert ring.pairing_nondegenerate(n) == ref_pairing_nondegenerate(ring, n), n


# -- the pairing ---------------------------------------------------------------

@pytest.mark.parametrize("name, params", PRESETS, ids=[n for n, _ in PRESETS])
def test_pairing_matches_the_cup_loop_on_every_preset(name, params):
    bundle = preset(name, **params)
    top = bundle.spec.degree_cap - 1
    _assert_pairings_match(cohomology(bundle.spec, top))
    if bundle.action is not None:
        _assert_pairings_match(invariant_cohomology(bundle.action, top))


def _spec(gens, relations, cap):
    return AlgebraSpec(Q, [GeneratorDecl(name, deg) for name, deg in gens],
                       relations=relations, degree_cap=cap).validate()


@pytest.mark.parametrize("gens, relations, n", [
    # b = 1 2 1, and H^1 x H^1 -> H^2 vanishes: only the middle degree k = n/2 fails.
    ([("x", 1), ("y", 1), ("z", 2)], [[(1, ("x", "y"))]], 2),
    # b = 1 1 1 1, and H^1 x H^2 -> H^3 vanishes: only k = 1 = (n - 1)/2 fails.
    ([("x", 1), ("a", 2), ("w", 3)], [[(1, ("x", "a"))]], 3),
], ids=["middle-even", "middle-odd"])
def test_a_pairing_degenerate_only_in_the_middle_is_refused(gens, relations, n):
    ring = cohomology(_spec(gens, relations, n + 2), n)
    assert list(ring.betti) == [ring.betti[n - k] for k in range(n + 1)]
    assert ring.betti[n] == 1
    assert not ref_pairing_nondegenerate(ring, n)
    assert not ring.pairing_nondegenerate(n)


@pytest.mark.parametrize("sign, verdict", [(-1, False), (1, True)], ids=["rank-1", "rank-2"])
def test_the_functional_reads_products_that_are_not_reduced(sign, verdict):
    # a, b closed in degree 2, dt = a^2 - ab and ds = b^2 + sign * ab.  H^4 is spanned
    # by b^2, and the image pivots a^2 and ab are -sign * b^2 there, so lam is nonzero
    # at them, not only at b^2: the H^2 matrix is [[-sign, -sign], [-sign, 1]].
    spec = AlgebraSpec(Q, [GeneratorDecl(n, d) for n, d in (("a", 2), ("b", 2), ("t", 3),
                                                              ("s", 3))],
                       differential={"t": [(1, ("a", "a")), (-1, ("a", "b"))],
                                     "s": [(1, ("b", "b")), (sign, ("a", "b"))]},
                       degree_cap=5).validate()
    ring = cohomology(spec, 4)
    assert list(ring.betti) == [1, 0, 2, 0, 1]
    assert ref_pairing_nondegenerate(ring, 4) is verdict
    assert ring.pairing_nondegenerate(4) is verdict


@st.composite
def two_step_nilpotent(draw):
    """A random 2-step nilpotent CE algebra: d of each generator lies in the
    exterior square of the closed ones, so d^2 = 0."""
    closed = draw(st.integers(2, 4))
    extra = draw(st.integers(0, 2))
    names = [f"x{i}" for i in range(closed + extra)]
    pairs = [(names[i], names[j]) for i in range(closed) for j in range(i + 1, closed)]
    differential = {}
    for name in names[closed:]:
        terms = [(c, pair) for pair in pairs if (c := draw(st.integers(-2, 2)))]
        if terms:
            differential[name] = terms
    return AlgebraSpec(Q, [GeneratorDecl(n, 1) for n in names], differential=differential,
                       degree_cap=len(names) + 1).validate()


@settings(max_examples=40, deadline=None)
@given(two_step_nilpotent())
def test_pairing_matches_the_cup_loop_on_random_ce_algebras(spec):
    _assert_pairings_match(cohomology(spec, spec.degree_cap - 1))


def _diagonal_action(m, weights):
    field, names = CycField.get(m), [f"x{i}" for i in range(len(weights))]
    spec = AlgebraSpec(field, [GeneratorDecl(name, 1) for name in names],
                       degree_cap=len(names) + 1)
    return GroupActionSpec(spec, m, {name: [(field.zeta(w), (name,))]
                                     for name, w in zip(names, weights)})


@st.composite
def diagonal_quotients(draw):
    """A random Z_m action on an exterior algebra, each generator times a root of
    unity, as (m, weights); weights that generate a smaller group are redrawn."""
    m = draw(st.sampled_from([2, 3, 4, 6]))
    weights = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=4))
    try:
        _diagonal_action(m, weights)
    except OrderMismatch:
        reject()
    return m, weights


@settings(max_examples=40, deadline=None)
@given(diagonal_quotients())
def test_pairing_and_zero_d_match_on_random_diagonal_quotients(draw):
    top = len(draw[1])
    ring = invariant_cohomology(_diagonal_action(*draw), top)
    _assert_pairings_match(ring)
    general = invariant_complex(_diagonal_action(*draw), top + 1)
    assert ring.slices.zero_d and general.zero_d
    general.zero_d = general.parent.zero_d = False
    rng = random.Random(repr(draw))
    _assert_zero_d_matches(ring, CohomologyRing(general, top), rng)
    total = FreeSlices(_diagonal_action(*draw).parent)
    total.zero_d = False
    _assert_zero_d_matches(CohomologyRing(FreeSlices(total.spec), top),
                           CohomologyRing(total, top), rng)


# -- zero differentials ----------------------------------------------------------

ZERO_D = [("T6", {}, False), ("T6_Z2", {}, False), ("T6_Z2", {}, True), ("SPHERE2", {}, False),
          ("CPN", {"m": 3}, False)]


def _slices(name, params, invariant):
    bundle = preset(name, **params)
    return invariant_complex(bundle.action) if invariant else FreeSlices(bundle.spec)


def _random_vec(rng, field, dim):
    out = {}
    for i in range(dim):
        if rng.random() < 0.5 and (c := rng.randint(-3, 3)):
            out[i] = field.rational(c)
    return out


def _no_elimination(*_):
    raise AssertionError("a ring over d = 0 slices eliminated a degree")


def _items(vec):
    return None if vec is None else list(vec.items())


def _assert_zero_d_matches(fast, slow, rng):
    """A ring that reads d = 0 off its slices against one that eliminates every
    degree: the same Betti numbers, representatives and echelon rows, classes (in
    the same key order), exactness answers and cup table."""
    assert fast.slices.zero_d and not slow.slices.zero_d
    n, field = fast.max_degree, fast.field
    with pytest.MonkeyPatch.context() as mp:  # reading every degree eliminates nothing
        mp.setattr(importlib.import_module("cdgalab.cohomology"), "kernel_image", _no_elimination)
        betti = list(fast.betti)
    assert betti == list(slow.betti)
    dims = [fast.slices.dim(k) for k in range(n + 1)]
    for k in range(n + 1):
        assert fast.reps(k) == slow.reps(k) == [{i: field.one} for i in range(dims[k])], k
        assert _items(fast._degree(k)[1]._rows) == _items(slow._degree(k)[1]._rows), k
        assert fast.image(k).rank == slow.image(k).rank == 0, k
        for vec in [{}] + [_random_vec(rng, field, dims[k]) for _ in range(4)]:
            vec = dict(rng.sample(sorted(vec.items()), len(vec)))  # keys in any order
            assert fast.slices.d_vec(k, vec) == slow.slices.d_vec(k, vec) == {}
            u, v = fast.class_of(vec, k), slow.class_of(vec, k)
            assert _items(u.coords) == _items(v.coords) == sorted(vec.items())
            assert fast.is_exact(vec, k) == slow.is_exact(vec, k) == (None if vec else {})
            for q in range(n - k + 1):
                for j in range(fast.betti[q]):
                    assert _items(fast.cup(u, fast.rep_class(q, j)).coords) == _items(
                        slow.cup(v, slow.rep_class(q, j)).coords)
    for p in range(n + 1):  # every structure constant, then the two tables whole
        for q in range(n - p + 1):
            for i in range(fast.betti[p]):
                for j in range(fast.betti[q]):
                    fast.cup(fast.rep_class(p, i), fast.rep_class(q, j))
                    slow.cup(slow.rep_class(p, i), slow.rep_class(q, j))
    assert fast._cup == slow._cup
    assert sorted(fast._d) == sorted(slow._d) == list(range(-1, n + 1))
    for k, (kernel, image) in fast._d.items():
        assert _items(kernel._rows) == _items(slow._d[k][0]._rows) and not image.rank, k


@pytest.mark.parametrize("name, params, invariant", ZERO_D,
                         ids=[n + ("-inv" if inv else "") for n, _, inv in ZERO_D])
def test_zero_d_agrees_with_the_general_path(name, params, invariant, monkeypatch):
    known, general = _slices(name, params, invariant), _slices(name, params, invariant)
    assert known.zero_d and general.zero_d
    for sl in (general, general.parent) if invariant else (general,):
        monkeypatch.setattr(sl, "zero_d", False)
    fast, slow = (CohomologyRing(sl, sl.cap - 1) for sl in (known, general))
    _assert_zero_d_matches(fast, slow, random.Random(name))
    # Beyond the cap both refuse a nonzero vector, and d of the zero vector is zero.
    top, one = known.cap, fast.field.one
    for sl in (known, general):
        assert sl.d_vec(top, {}) == {}
        if sl.dim(top):
            with pytest.raises(CapExceeded):
                sl.d_vec(top, {0: one})
