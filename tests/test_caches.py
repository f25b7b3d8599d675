"""The cached structure constants agree with the direct computations.

Cup products come from a table of [rep_i * rep_j]; the oracle multiplies the
representatives of the two classes and reduces the product with class_of.
The action on a degree-k slice comes from a cached matrix; the oracle pushes
basis elements through Element products of the generator images.  Fixed
spaces are taken as the image of the averaging projector P; the oracle takes
the kernel of P - I.  Slice products and differentials come from tables on
basis indices; the oracle converts the vectors to Elements, multiplies or
differentiates them there, and reads the result back by monomial.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from cdgalab import chains
from cdgalab.algebra import AlgebraSpec, Element, GeneratorDecl
from cdgalab.chains import FreeSlices, product
from cdgalab.cohomology import CohomClass, CohomologyRing, cohomology
from cdgalab.errors import OrderMismatch
from cdgalab.linalg import kernel_image
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


def _dense_class(rng, ring, k):
    """A class with several nonzero coordinates, cyclotomic where possible."""
    field = ring.field
    coords = {}
    for j in range(ring.betti[k]):
        if rng.random() < 0.7:
            c = field.zeta(rng.randrange(field.modulus)) * field.rational(
                Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
            coords[j] = c
    return CohomClass(ring, k, coords)


def _ring(name):
    if name == "HEIS6":
        return cohomology(preset(name).spec, 6)
    return invariant_cohomology(preset(name).action, {"HEIS6_Z6": 6, "HEIS8_Z3": 8}[name])


@pytest.mark.parametrize("name", ["HEIS6", "HEIS6_Z6", "HEIS8_Z3"])
def test_table_cup_matches_direct_product(name):
    ring = _ring(name)
    rng = random.Random(7)
    degrees = [k for k in range(1, ring.max_degree + 1) if ring.betti[k]]
    pairs = [(p, q) for p in degrees for q in degrees if p + q <= ring.max_degree]
    dense = 0
    for _ in range(40):
        p, q = pairs[rng.randrange(len(pairs))]
        u, v = _dense_class(rng, ring, p), _dense_class(rng, ring, q)
        dense += len(u.coords) > 1 and len(v.coords) > 1
        direct = ring.class_of(
            ring.slices.mul_vec(p, u.rep_vec(), q, v.rep_vec()), p + q)
        assert ring.cup(u, v) == direct
    assert dense >= 10


@pytest.mark.parametrize("name", ["HEIS6", "HEIS6_Z6", "HEIS8_Z3"])
def test_product_starts_from_its_first_factor(name):
    # The chain equals the same chain started from the unit, and the empty
    # product is the unit.
    ring = _ring(name)
    sl = ring.slices
    rng = random.Random(11)
    assert product(sl, []) == sl.unit_vec()
    degrees = [k for k in range(1, ring.max_degree + 1) if ring.betti[k]]
    for _ in range(20):
        factors, total = [], 0
        while True:
            k = rng.choice(degrees)
            if total + k > ring.max_degree:
                break
            factors.append((k, _dense_class(rng, ring, k).rep_vec()))
            total += k
        deg, from_unit = 0, sl.unit_vec()
        for k, vec in factors:
            from_unit = sl.mul_vec(deg, from_unit, k, vec)
            deg += k
        assert product(sl, factors) == from_unit


# -- the action through Element products -----------------------------------

def _element_apply(act, elem, power):
    """rho*^power on an Element, each term a product of the generator images."""
    spec = act.parent
    for _ in range(power):
        acc = spec.zero(elem.degree)
        for mono, c in elem.terms.items():
            piece = spec.one().scale(c)
            for g in mono:
                piece = piece * act.images[g]
            acc = acc + piece
        elem = acc
    return elem


def _element_projector(act, slices, k):
    inv_m = slices.field.rational(Fraction(1, act.order))
    cols = []
    for i in range(slices.dim(k)):
        e = slices.to_element(k, {i: slices.field.one})
        acc = e
        for j in range(1, act.order):
            acc = acc + _element_apply(act, e, j)
        cols.append({r: inv_m * c for r, c in slices.from_element(acc).items()})
    return cols


def _element_fixed_subspace(act, ring, k):
    field = ring.field
    cols = []
    for rep in ring.reps(k):
        e = ring.slices.to_element(k, rep)
        acc = e
        for j in range(1, act.order):
            acc = acc + _element_apply(act, e, j)
        cols.append(ring.class_of(acc.scale(Fraction(1, act.order))).coords)
    return _kernel_of_p_minus_i(field, cols)


def _kernel_of_p_minus_i(field, cols):
    """Canonical basis of ker(P - I), for P given by its columns."""
    def apply(j):
        col = dict(cols[j])
        c = col.get(j, field.zero) - field.one
        if c.is_zero():
            col.pop(j, None)
        else:
            col[j] = c
        return col
    return kernel_image(field, len(cols), apply)[0].basis_rows()


def _element_burnside(act, k):
    slices = FreeSlices(act.parent)
    total = slices.field.zero
    for j in range(act.order):
        for i in range(slices.dim(k)):
            e = slices.to_element(k, {i: slices.field.one})
            img = slices.from_element(_element_apply(act, e, j))
            total = total + img.get(i, slices.field.zero)
    return total.rational_value() / act.order


def _random_weight_actions(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.choice((2, 3, 4, 6))
        field = CycField.get(m)
        ngen = rng.randint(2, 4)
        spec = AlgebraSpec(field, [GeneratorDecl(f"x{i}", 1) for i in range(ngen)],
                           degree_cap=ngen + 1).validate()
        images = {f"x{i}": [(field.zeta(rng.randrange(m)), (f"x{i}",))]
                  for i in range(ngen)}
        try:
            out.append(GroupActionSpec(spec, m, images))
        except OrderMismatch:
            continue
    return out


def _permutation_action(field, order, images):
    """An action on degree-1 generators that moves some generator off its own line."""
    spec = AlgebraSpec(field, [GeneratorDecl(name, 1) for name in images],
                       degree_cap=len(images) + 1)
    return GroupActionSpec(spec, order, {name: [(c, (target,)) for c, target in terms]
                                         for name, terms in images.items()})


Q, Z6 = CycField.get(1), CycField.get(6)
# Each mixes eigenvector columns (xy -> -xy under the swap) with columns
# that are not eigenvectors, so both ways of building P are reached.
PERMUTATION_ACTIONS = [
    _permutation_action(Q, 2, {"x": [(1, "y")], "y": [(1, "x")]}),
    _permutation_action(Q, 3, {"x": [(1, "y")], "y": [(1, "z")], "z": [(1, "x")]}),
    _permutation_action(Q, 4, {"x": [(1, "y")], "y": [(-1, "x")]}),
    _permutation_action(Z6, 6, {"a": [(1, "b")], "b": [(1, "a")],
                                "c": [(Z6.zeta(1), "c")], "d": [(Z6.zeta(2), "d")]}),
]


def _numbered(actions):
    """Each action as a pytest param with the id m{order}-{n}gen, "-perm" added when
    it moves a generator off its own line, and then the number of earlier actions
    of that shape when there are any (m2-2gen, m2-2gen1, ...).  The ids are unique,
    and appending an action to a list renames no other test: random actions have 2
    to 4 generators, so none shares a shape with the permutations or the preset."""
    seen: Counter = Counter()
    params = []
    for act in actions:
        diagonal = all(list(img.terms) == [(gi,)] for gi, img in act.images.items())
        shape = f"m{act.order}-{len(act.parent.generators)}gen" + ("" if diagonal else "-perm")
        params.append(pytest.param(act, id=shape + (str(seen[shape]) if seen[shape] else "")))
        seen[shape] += 1
    return params


RANDOM_ACTIONS = _random_weight_actions(24, seed=3)
ACTIONS = _numbered(RANDOM_ACTIONS + PERMUTATION_ACTIONS + [preset("HEIS6_Z6").action])


@pytest.mark.parametrize("act", ACTIONS)
def test_action_matrix_paths_match_element_paths(act):
    slices = FreeSlices(act.parent)
    top = min(act.parent.degree_cap - 1, 6)
    ring = cohomology(act.parent, top)
    sub = invariant_complex(act, max_degree=top)
    for k in range(top + 1):
        assert averaging_projector(act, k) == _element_projector(act, slices, k)
        assert ([sub.to_parent_vec(k, {j: slices.field.one}) for j in range(sub.dim(k))]
                == _kernel_of_p_minus_i(slices.field, _element_projector(act, slices, k)))
        assert burnside_invariant_dimension(act, k) == _element_burnside(act, k)
        assert (fixed_subspace_of_cohomology(act, ring, k)
                == _element_fixed_subspace(act, ring, k))


@pytest.mark.parametrize("act", ACTIONS[:6] + ACTIONS[len(RANDOM_ACTIONS):])
def test_projector_is_built_once_per_degree(act, monkeypatch):
    # The battery asks for P on a degree and then for the invariant complex
    # and the fixed spaces of the same action: only the first call sums orbits.
    from cdgalab import symmetry

    slices = FreeSlices(act.parent)
    top = min(act.parent.degree_cap - 1, 6)
    built = [averaging_projector(act, k) for k in range(top + 1)]
    sums = []
    orbit_sum = symmetry._orbit_sum
    monkeypatch.setattr(symmetry, "_orbit_sum",
                        lambda *args: sums.append(args) or orbit_sum(*args))
    assert all(averaging_projector(act, k) is built[k] for k in range(top + 1))
    invariant_complex(act, max_degree=top)
    ring = cohomology(act.parent, top)
    for k in range(top + 1):
        fixed_subspace_of_cohomology(act, ring, k)
    assert sums == []
    burnside_invariant_dimension(act, top)
    assert len(sums) == slices.dim(top)


# -- slice products and differentials through Elements ----------------------

ALL_PRESETS = [(name, {}) for name in ("HEIS6", "HEIS6_Z6", "HEIS8", "HEIS8_Z3", "T6",
                                       "T6_Z2", "SASAKI7_S2CUBE", "SPHERE2", "P_OVER_T6Z2")]
ALL_PRESETS += [("CPN", {"m": 3}), ("SASAKI_CPN_S2", {"n": 4})]


def _random_vec(rng, field, dim):
    """A nonzero vector, most coordinates nonzero, cyclotomic where possible."""
    support = [i for i in range(dim) if rng.random() < 0.7] or [rng.randrange(dim)]
    return {i: field.zeta(rng.randrange(field.modulus)) * field.rational(
                Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
            for i in support}


def _element_coords(elem):
    """Slice coordinates of an Element, looked up monomial by monomial."""
    basis = elem.parent.basis(elem.degree)
    return {basis.index(m): c for m, c in elem.terms.items()}


def _same(got, want):
    return list(got.items()) == list(want.items())


def _random_products(sl, rng, count, low=0):
    """(k, u, l, v) with k, l >= low, k + l within the cap and both slices nonzero."""
    degrees = [k for k in range(low, sl.cap + 1) if sl.dim(k)]
    pairs = [(k, l) for k in degrees for l in degrees if k + l <= sl.cap]
    out = []
    for _ in range(count):
        k, l = pairs[rng.randrange(len(pairs))]
        out.append((k, _random_vec(rng, sl.field, sl.dim(k)),
                    l, _random_vec(rng, sl.field, sl.dim(l))))
    return out


@pytest.mark.parametrize("name,params", ALL_PRESETS, ids=[n for n, _ in ALL_PRESETS])
def test_free_product_and_differential_match_element_path(name, params):
    spec = preset(name, **params).spec
    sl = FreeSlices(spec)
    rng = random.Random(5)
    relation_hits = 0
    for k, u, l, v in _random_products(sl, rng, 40):
        want = _element_coords(sl.to_element(k, u) * sl.to_element(l, v))
        assert _same(sl.mul_vec(k, u, l, v), want)
        assert sl.mul_vec(k, {}, l, v) == {} and sl.mul_vec(k, u, l, {}) == {}
        if k + 1 <= sl.cap:
            assert _same(sl.d_vec(k, u), _element_coords(sl.to_element(k, u).d()))
        # the ideal is nonzero in degree k + l, so the product is reduced
        relation_hits += bool(u and v and len(spec.free_basis(k + l)) > sl.dim(k + l))
    assert relation_hits >= 5 or not spec.relations
    assert _same(sl.unit_vec(), _element_coords(spec.one()))


@pytest.mark.parametrize("name,params", ALL_PRESETS, ids=[n for n, _ in ALL_PRESETS])
def test_each_free_product_entry_is_filled_once(name, params, monkeypatch):
    spec = preset(name, **params).spec
    sl = FreeSlices(spec)
    calls = []
    normal_form = chains.normal_form
    monkeypatch.setattr(chains, "normal_form",
                        lambda spec, word: calls.append(word) or normal_form(spec, word))
    products = _random_products(sl, random.Random(9), 30)
    first = [sl.mul_vec(k, u, l, v) for k, u, l, v in products]
    pairs = {(k, l, i, j) for k, u, l, v in products for i in u for j in v}
    assert len(calls) == len(pairs)
    assert [sl.mul_vec(k, u, l, v) for k, u, l, v in products] == first
    assert len(calls) == len(pairs)


def test_slice_maps_build_no_element(monkeypatch):
    act = preset("HEIS6_Z6").action
    built = []
    init = Element.__init__
    monkeypatch.setattr(Element, "__init__",
                        lambda self, *args, **kw: built.append(args) or init(self, *args, **kw))
    sl = FreeSlices(act.parent)
    one = sl.field.one
    for k in range(sl.cap):
        act.matrix(k)
        for i in range(sl.dim(k)):
            sl.d_vec(k, {i: one})
            sl.mul_vec(k, {i: one}, 1, {j: one for j in range(sl.dim(1))})
    sl.unit_vec()
    assert built == []


INVARIANT_TOPS = {"HEIS6_Z6": 6, "HEIS8_Z3": 8, "T6_Z2": 6}


@pytest.mark.parametrize("name", sorted(INVARIANT_TOPS))
def test_subcomplex_product_matches_parent_product(name, monkeypatch):
    sub = invariant_complex(preset(name).action, max_degree=INVARIANT_TOPS[name])
    parent = sub.parent
    # degree 0 is spanned by the unit, whose products say little
    products = _random_products(sub, random.Random(13), 30, low=1)
    fills = []
    mul_vec = parent.mul_vec
    monkeypatch.setattr(parent, "mul_vec", lambda *args: fills.append(args) or mul_vec(*args))
    dense = 0
    for k, u, l, v in products:
        pu, pv = sub.to_parent_vec(k, u), sub.to_parent_vec(l, v)
        want = sub.express(k + l, _element_coords(
            parent.to_element(k, pu) * parent.to_element(l, pv)))
        # values only: the table sum orders keys by first appearance, the
        # solve by its pivot eliminations
        assert sub.mul_vec(k, u, l, v) == want
        dense += len(u) > 1 and len(v) > 1 and bool(want)
    assert dense >= 5
    assert len(fills) == len({(k, l, i, j) for k, u, l, v in products for i in u for j in v})


# -- d columns, read once per slice object ----------------------------------

D_COL_CASES = [(name, params, False) for name, params in ALL_PRESETS]
D_COL_CASES += [(name, {}, True) for name in ("HEIS6_Z6", "HEIS8_Z3", "T6_Z2", "P_OVER_T6Z2")]
ZERO_D_PRESETS = {"T6", "T6_Z2", "SPHERE2", "CPN"}


def _d_col_slices(name, params, invariant):
    pre = preset(name, **params)
    return invariant_complex(pre.action) if invariant else FreeSlices(pre.spec)


def _columns(sl):
    return [(k, i) for k in range(sl.cap) for i in range(sl.dim(k))]


@pytest.mark.parametrize("name,params,invariant", D_COL_CASES,
                         ids=[n + ("-inv" if inv else "") for n, _, inv in D_COL_CASES])
def test_d_col_matches_d_vec_of_a_unit_vector(name, params, invariant):
    sl = _d_col_slices(name, params, invariant)
    fresh = _d_col_slices(name, params, invariant)  # its d_vec fills its own columns
    one = sl.field.one
    parent = sl.parent if invariant else sl
    for k, i in _columns(sl):
        col = sl.d_col(k, i)
        assert _same(col, fresh.d_vec(k, {i: one}))
        want = _element_coords(parent.to_element(k, sl.to_parent_vec(k, {i: one}) if invariant
                                                 else {i: one}).d())
        assert col == (sl.express(k + 1, want) if invariant else want)


@pytest.mark.parametrize("name,params,invariant", D_COL_CASES,
                         ids=[n + ("-inv" if inv else "") for n, _, inv in D_COL_CASES])
def test_each_d_col_is_computed_once_and_never_mutated(name, params, invariant, monkeypatch):
    sl = _d_col_slices(name, params, invariant)
    spec = (sl.parent if invariant else sl).spec
    leibniz, solves = [], []
    d_monomial = spec._d_monomial
    monkeypatch.setattr(spec, "_d_monomial",
                        lambda mono: leibniz.append(mono) or d_monomial(mono))
    if invariant:
        express = sl.express
        monkeypatch.setattr(sl, "express", lambda k, vec: solves.append(k) or express(k, vec))
    cols = {(k, i): sl.d_col(k, i) for k, i in _columns(sl)}
    first = {key: list(col.items()) for key, col in cols.items()}
    counts = (len(leibniz), len(solves))
    assert len(leibniz) == len(set(leibniz))
    # d = 0 is read from the spec: no column is expanded by Leibniz or solved for.
    assert sl.zero_d == (name in ZERO_D_PRESETS)
    if sl.zero_d:
        assert counts == (0, 0)
    elif invariant:
        assert len(solves) == len(cols)
    else:
        assert len(leibniz) == len(cols)
    # The ring, every degree read, takes each column from the cache, and its
    # elimination copies them.
    assert list(CohomologyRing(sl, sl.cap - 1).betti)
    assert all(sl.d_col(k, i) is col for (k, i), col in cols.items())
    assert {key: list(col.items()) for key, col in cols.items()} == first
    assert (len(leibniz), len(solves)) == counts
