"""Facts read from the one place that holds them agree with the second copies
that used to be kept beside it, reproduced here as references:

* ``Echelon.coordinates`` reads a vector's coordinates at the pivots; the
  reference solves against an echelon whose rows carry unit sources;
* ``CohomologyRing.class_of`` reduces by the image and reads the
  representatives' pivots; the reference solves against a decomposition
  echelon of the image rows (empty sources) and the representatives (unit
  sources);
* ``SubcomplexSlices.express`` reads pivots of the fixed-space echelon and
  ``d_vec`` sums cached d columns; the references solve against a unit-source
  echelon and map the whole vector through the parent's d;
* ``algebra.word_terms`` serves Element products, the ideal rows and the
  Leibniz rule; the references are the three loops it replaced;
* ``minmodel._differentials_independent`` compares each degree's span rank
  with its count of differentials; the reference is the echelon loop with an
  early exit that it replaced.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cdgalab.algebra import AlgebraSpec, Element, GeneratorDecl, normal_form
from cdgalab.chains import FreeSlices
from cdgalab.cohomology import cohomology
from cdgalab.linalg import Echelon, span, vec_iadd
from cdgalab.minmodel import _differentials_independent
from cdgalab.models import preset
from cdgalab.scalars import CycField
from cdgalab.symmetry import invariant_cohomology, invariant_complex

from test_known_products import scalars, vectors

ALL_PRESETS = [(name, {}) for name in ("HEIS6", "HEIS6_Z6", "HEIS8", "HEIS8_Z3", "T6",
                                       "T6_Z2", "SASAKI7_S2CUBE", "SPHERE2", "P_OVER_T6Z2")]
ALL_PRESETS += [("CPN", {"m": 3}), ("SASAKI_CPN_S2", {"n": 4})]
ACTIONS = ["HEIS6_Z6", "HEIS8_Z3", "T6_Z2", "P_OVER_T6Z2"]


def unit_source_echelon(field, rows):
    """The reference: row j carries the source {j: 1}, so solve gives coordinates."""
    ech = Echelon(field)
    for j, row in enumerate(rows):
        ech.add(dict(row), source={j: field.one})
    return ech


def _random_vec(rng, field, dim):
    if not dim:
        return {}
    support = [i for i in range(dim) if rng.random() < 0.7] or [rng.randrange(dim)]
    return {i: field.zeta(rng.randrange(field.modulus)) * field.rational(
                Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
            for i in support}


def _combination(rows, coeffs):
    out = {}
    for row, c in zip(rows, coeffs):
        vec_iadd(out, row, c)
    return out


# -- coordinates at the pivots ------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.data())
def test_coordinates_match_a_unit_source_solve(data):
    field = data.draw(st.sampled_from([CycField.get(1), CycField.get(12)]))
    count = data.draw(st.integers(0, 6))
    ech = span(field, [data.draw(vectors(field, width=8)) for _ in range(count)])
    rows = ech.basis_rows()
    ref = unit_source_echelon(field, rows)
    inside = _combination(rows, [data.draw(scalars(field)) for _ in rows])
    anywhere = data.draw(vectors(field, width=8))
    for vec in (inside, anywhere):
        assert ech.coordinates(vec) == ref.solve(vec)
    assert ech.coordinates(inside) is not None


# -- class_of -----------------------------------------------------------------

def _rings(name, params):
    pre = preset(name, **params)
    top = pre.meta.get("dim") or pre.spec.degree_cap - 1
    yield cohomology(pre.spec, top)
    if pre.action is not None:
        yield invariant_cohomology(pre.action, top)


def decomposition_echelon(ring, k):
    """The reference: image rows with empty sources, then unit-source representatives."""
    ech = Echelon(ring.field)
    for row in ring.image(k).basis_rows():
        ech.add(dict(row), source={})
    for j, rep in enumerate(ring.reps(k)):
        ech.add(dict(rep), source={j: ring.field.one})
    return ech


@pytest.mark.parametrize("name,params", ALL_PRESETS, ids=[n for n, _ in ALL_PRESETS])
def test_class_of_matches_a_decomposition_solve(name, params):
    rng = random.Random(3)
    for ring in _rings(name, params):
        sl = ring.slices
        for k in range(ring.max_degree + 1):
            ref = decomposition_echelon(ring, k)
            for _ in range(4):
                coeffs = _random_vec(rng, ring.field, ring.betti[k])
                z = ring.rep_combination(k, coeffs)
                if k:
                    z = vec_iadd(z, sl.d_vec(k - 1, _random_vec(rng, ring.field, sl.dim(k - 1))))
                got = ring.class_of(z, k).coords
                assert got == ref.solve(z) == coeffs


# -- the invariant subcomplex ---------------------------------------------------

@pytest.mark.parametrize("name", ACTIONS)
def test_express_and_d_vec_match_the_parent_round_trip(name):
    sub = invariant_complex(preset(name).action)
    parent, field = sub.parent, sub.field
    refs = {k: unit_source_echelon(field, sub.basis(k)) for k in range(sub.cap + 1)}
    rng = random.Random(11)
    for k in range(sub.cap):
        for _ in range(4):
            vec = _random_vec(rng, field, sub.dim(k))
            pvec = sub.to_parent_vec(k, vec)
            assert sub.express(k, pvec) == refs[k].solve(pvec) == vec
            # a parent vector, most often outside the fixed space
            stray = _random_vec(rng, field, parent.dim(k))
            assert sub.echelon(k).coordinates(stray) == refs[k].solve(stray)
            want = refs[k + 1].solve(parent.d_vec(k, pvec))
            assert sub.d_vec(k, vec) == want


def test_class_of_and_express_make_no_solve(monkeypatch):
    solves = []
    solve = Echelon.solve
    monkeypatch.setattr(Echelon, "solve", lambda self, t: solves.append(t) or solve(self, t))
    rng = random.Random(5)
    for name in ("HEIS6", "HEIS8_Z3", "SASAKI7_S2CUBE"):
        for ring in _rings(name, {}):
            for k in range(ring.max_degree + 1):
                coeffs = _random_vec(rng, ring.field, ring.betti[k])
                assert ring.class_of(ring.rep_combination(k, coeffs), k).coords == coeffs
    sub = invariant_complex(preset("T6_Z2").action)
    for k in range(sub.cap + 1):
        vec = _random_vec(rng, sub.field, sub.dim(k))
        assert sub.express(k, sub.to_parent_vec(k, vec)) == vec
    assert solves == []


# -- one product helper ---------------------------------------------------------

def ref_element_mul(a, b):
    """The Element product loop, row by row."""
    spec, acc = a.parent, {}
    for m1, c1 in a.terms.items():
        row = {}
        for m2, c2 in b.terms.items():
            hit = normal_form(spec, m1 + m2)
            if hit is not None:
                sign, mono = hit
                row[mono] = c2 if sign > 0 else -c2
        vec_iadd(acc, row, c1)
    return Element(spec, a.degree + b.degree, acc)


def ref_ideal_echelon(spec, k):
    """The ideal rows, each relation times each free monomial."""
    ech = Echelon(spec.field)
    basis_idx = {m: i for i, m in enumerate(spec.free_basis(k))}
    for rel in spec.relations:
        if rel.degree > k:
            continue
        for m in spec.free_basis(k - rel.degree):
            row = {}
            for rm, rc in rel.terms.items():
                hit = normal_form(spec, m + rm)
                if hit is not None:
                    sign, mono = hit
                    row[basis_idx[mono]] = rc if sign > 0 else -rc
            if row:
                ech.add(row)
    return ech


def ref_d_monomial(spec, m, sort=normal_form):
    """The Leibniz rule on a monomial, generator by generator, each word put in
    normal form by ``sort``."""
    acc = {}
    for j, g in enumerate(m):
        dg = spec.differential.get(g)
        if dg is None:
            continue
        sign = -1 if sum(spec._odd[a] for a in m[:j]) % 2 else 1
        part = {}
        for dm, dc in dg.terms.items():
            hit = sort(spec, m[:j] + dm + m[j + 1:])
            if hit is None:
                continue
            s, mono = hit
            part[mono] = dc if sign * s > 0 else -dc
        vec_iadd(acc, part)
    return acc


@pytest.mark.parametrize("name,params", ALL_PRESETS, ids=[n for n, _ in ALL_PRESETS])
def test_word_terms_serves_the_three_loops(name, params):
    spec = preset(name, **params).spec
    rng = random.Random(17)
    relation_degrees = 0
    for k in range(spec.degree_cap + 1):
        want = ref_ideal_echelon(spec, k)
        assert list(spec._ideal_echelon(k)._rows.items()) == list(want._rows.items())
        relation_degrees += want.rank > 0
        for m in spec.free_basis(k):
            assert list(spec._d_monomial(m).items()) == list(ref_d_monomial(spec, m).items())
    assert relation_degrees or not spec.relations
    degrees = [k for k in range(1, spec.degree_cap) if spec.basis(k)]
    for _ in range(20):
        k, l = rng.choice(degrees), rng.choice(degrees)
        a = Element(spec, k, {spec.basis(k)[i]: c for i, c in
                              _random_vec(rng, spec.field, len(spec.basis(k))).items()})
        b = Element(spec, l, {spec.basis(l)[i]: c for i, c in
                              _random_vec(rng, spec.field, len(spec.basis(l))).items()})
        if k + l <= spec.degree_cap:
            got, want = a * b, ref_element_mul(a, b)
            assert list(got.terms.items()) == list(want.terms.items())


# -- independent differentials ----------------------------------------------------

def ref_differentials_independent(slices):
    """The per-degree echelon loop, stopping at the first dependent differential."""
    spec = slices.spec
    for degree in sorted({g.degree for g in spec.generators}):
        ech = Echelon(spec.field)
        for g in spec.generators:
            if g.degree != degree:
                continue
            img = spec.gen(g.name).d()
            if img.is_zero():
                continue
            if not ech.add(slices.from_element(img)):
                return False
    return True


def _odd_pair(second):
    """a, b of degree 2 and x, y of degree 3 with dx = a^2 and dy = second."""
    gens = [GeneratorDecl(n, d) for n, d in (("a", 2), ("b", 2), ("x", 3), ("y", 3))]
    diff = {"x": [(1, ("a", "a"))], "y": second}
    return AlgebraSpec(CycField.get(1), gens, differential=diff, degree_cap=8)


SPECS = [(name, lambda name=name, params=params: preset(name, **params).spec)
         for name, params in ALL_PRESETS]
SPECS += [("shared", lambda: _odd_pair([(1, ("a", "a"))])),
          ("multiple", lambda: _odd_pair([(-3, ("a", "a"))])),
          ("independent", lambda: _odd_pair([(1, ("a", "b"))]))]


@pytest.mark.parametrize("name,build", SPECS, ids=[n for n, _ in SPECS])
def test_differentials_independent_matches_the_loop(name, build):
    slices = FreeSlices(build())
    got = _differentials_independent(slices)
    assert got == ref_differentials_independent(slices)
    if name in ("shared", "multiple"):
        assert not got
    elif name == "independent":
        assert got
