"""Skipping known work gives the results of doing it.

Each fast path is checked against the straightforward loop it replaces, kept
here as the reference:

* the sparse accumulate and the echelon skip products by 1, zero
  coefficients and the inverse of a unit lead; the references multiply
  every entry and always invert;
* ``GroupActionSpec.matrix(k)`` reuses the image of each monomial's prefix;
  the reference runs ``chains.product`` over every monomial;
* the minimal model's psi keeps the image of each monomial it meets while
  the model grows; the reference runs ``chains.product`` over every model
  monomial on every golden ``minimal-model`` selection;
* ``universal_obstruction`` cuts a running kernel by the p-fold products of
  H^2 that grow their span; the reference stacks b * c_1 * ... * c_p over
  every choice of the c_i;
* ``massey_scan`` hands the primitives it solved for to the evaluations;
  the reference scan tests pairs by their cup and lets every evaluation
  solve for its own primitives.
"""

import json
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from cdgalab import cli, minmodel
from cdgalab.algebra import AlgebraSpec, GeneratorDecl
from cdgalab import chains
from cdgalab.chains import product
from cdgalab.cohomology import CohomClass, CohomologyRing, cohomology
from cdgalab.lefschetz import universal_obstruction
from cdgalab.linalg import Echelon, kernel_image, mat_vec, vec_iadd
from cdgalab.massey import NONZERO, a_massey, triple_massey
from cdgalab.models import FIXED_PRESETS, preset
from cdgalab.scalars import CycField
from cdgalab.symmetry import GroupActionSpec, invariant_cohomology
from regenerate_golden import cases, run_cli


# -- the sparse kernel ------------------------------------------------------

def ref_iadd(acc, b, coeff):
    """acc + coeff * b, multiplying every entry and testing every sum."""
    out = dict(acc)
    for col, val in b.items():
        s = out.get(col, coeff.field.zero) + coeff * val
        if s.is_zero():
            out.pop(col, None)
        else:
            out[col] = s
    return out


class RefEchelon(Echelon):
    """An echelon that reduces with ref_iadd and always inverts the lead."""

    def reduce(self, row, source=None):
        row, src = dict(row), dict(source) if source is not None else None
        for col in sorted(col for col in row if col in self._rows):
            prow, psrc = self._rows[col]
            c = -row[col]
            row = ref_iadd(row, prow, c)
            if src is not None and psrc is not None:
                src = ref_iadd(src, psrc, c)
        return row, src

    def _insert(self, row, src):
        if not row:
            return False
        pivot = min(row)
        inv = row[pivot].inverse()
        row = {col: inv * val for col, val in row.items()}
        src = {col: inv * val for col, val in src.items()} if src is not None else None
        for p, (old, psrc) in list(self._rows.items()):
            c = old.get(pivot)
            if c is not None:
                self._rows[p] = (ref_iadd(old, row, -c),
                                 ref_iadd(psrc, src, -c) if psrc is not None
                                 and src is not None else psrc)
        self._rows[pivot] = (row, src)
        return True


@st.composite
def scalars(draw, field):
    """1, -1, 0 or a random element, each about equally often."""
    kind = draw(st.sampled_from(["one", "minus one", "zero", "other"]))
    if kind != "other":
        return field.rational({"one": 1, "minus one": -1, "zero": 0}[kind])
    return field.from_poly([draw(st.fractions(-3, 3, max_denominator=3))
                            for _ in range(field.degree)])


@st.composite
def vectors(draw, field, width=6):
    """A sparse vector with no zero entry."""
    out = {}
    for col in draw(st.sets(st.integers(0, width - 1), max_size=width)):
        c = draw(scalars(field))
        if not c.is_zero():
            out[col] = c
    return out


FIELDS = st.sampled_from([CycField.get(1), CycField.get(3), CycField.get(12)])


def _zero_free(vec):
    return all(not c.is_zero() for c in vec.values())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_vec_iadd_and_mat_vec_match_the_reference(data):
    field = data.draw(FIELDS)
    acc, b = data.draw(vectors(field)), data.draw(vectors(field))
    coeff = data.draw(scalars(field))
    want = ref_iadd(acc, b, coeff)
    got = vec_iadd(dict(acc), b, coeff)
    assert got == want and _zero_free(got)
    assert vec_iadd(dict(acc), b) == ref_iadd(acc, b, field.one)
    cols = [data.draw(vectors(field)) for _ in range(4)]
    vec = {i: c for i in range(4) if not (c := data.draw(scalars(field))).is_zero()}
    out = {}
    for i, c in vec.items():
        out = ref_iadd(out, cols[i], c)
    got = mat_vec(cols, vec)
    assert got == out and _zero_free(got)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_echelon_add_matches_the_reference(data):
    field = data.draw(FIELDS)
    fast, ref = Echelon(field), RefEchelon(field)
    for i in range(data.draw(st.integers(1, 8))):
        row = data.draw(vectors(field))
        if data.draw(st.booleans()) and row:  # a unit lead, as most leads are
            row[min(row)] = field.one
        source = {i: data.draw(scalars(field).filter(lambda c: not c.is_zero()))}
        assert fast.add(row, source) == ref.add(row, source)
        assert fast._rows == ref._rows
        assert all(_zero_free(r) and _zero_free(s) for r, s in fast._rows.values())


# -- the action matrix ------------------------------------------------------

def _relation_action():
    """An action on a spec whose relation a^2 = ab the action preserves."""
    q = CycField.get(1)
    spec = AlgebraSpec(q, [GeneratorDecl("x", 1), GeneratorDecl("y", 1),
                           GeneratorDecl("a", 2), GeneratorDecl("b", 2)],
                       relations=[[(1, ("a", "a")), (-1, ("a", "b"))]], degree_cap=7)
    return GroupActionSpec(spec, 2, {"x": [(-1, ("x",))], "y": [(1, ("y",))],
                                     "a": [(-1, ("a",))], "b": [(-1, ("b",))]})


ACTIONS = [name for name in FIXED_PRESETS if preset(name).action is not None]


@pytest.mark.parametrize("name", ACTIONS + ["relations"])
def test_action_matrix_matches_product_per_monomial(name):
    act = _relation_action() if name == "relations" else preset(name).action
    spec = act.parent
    images = {gi: (spec.generators[gi].degree, act._slices.from_element(img))
              for gi, img in act.images.items()}
    for k in range(spec.degree_cap + 1):
        want = [product(act._slices, [images[g] for g in mono]) for mono in spec.basis(k)]
        assert act.matrix(k) == want, k
        # Every free monomial, so prefixes outside the quotient basis are met too.
        for mono in spec.free_basis(k):
            assert act._rho.monomial(mono) == (k, product(act._slices, [images[g] for g in mono]))


MINIMAL_MODEL_CASES = [(case, doc, cmd) for case, doc, cmd in cases()
                       if cmd[0] == "minimal-model"]


@pytest.mark.parametrize("case, doc, cmd", MINIMAL_MODEL_CASES,
                         ids=[c for c, _, _ in MINIMAL_MODEL_CASES])
def test_psi_keeps_the_product_of_each_monomial(case, doc, cmd, monkeypatch):
    maps, built = [], []

    class Recorded(chains.AlgebraMap):
        def __init__(self, *args):
            super().__init__(*args)
            maps.append(self)

    def recorded(ring, bound):
        built.append(build(ring, bound))
        return built[-1]

    build = minmodel.build_minimal_model
    monkeypatch.setattr(minmodel, "AlgebraMap", Recorded)
    monkeypatch.setattr(cli, "build_minimal_model", recorded)
    code, _, _ = run_cli(cmd + ["--format", "json"], json.dumps(doc))
    if code != 0 or built[0].identity:
        assert not maps  # refused, or the document is its own model
        return
    (psi,), mm = maps, built[0]
    assert psi.images is mm.psi

    def want(mono):
        return product(psi.slices, [mm.psi[g] for g in mono])

    kept = list(psi._products.items())  # what the builder computed as the model grew
    assert kept
    for mono, (deg, vec) in kept:
        assert vec == want(mono), mono
    for k in range(mm.bound + 2):
        for mono in mm.model.basis(k):
            assert psi.monomial(mono) == (k, want(mono)), mono


# -- the universal Lefschetz obstruction ------------------------------------

def stacked_obstruction(ring: CohomologyRing, k: int, n: int):
    """Kernel of b -> (c_p ... c_1 b over every choice of c_i in the H^2 basis)."""
    power = n - k
    h2 = [ring.rep_class(2, j) for j in range(ring.betti[2])]
    combos = list(combinations_with_replacement(range(len(h2)), power))
    width = ring.betti[k + 2 * power]

    def apply(j):
        out = {}
        for ci, combo in enumerate(combos):
            cls = ring.rep_class(k, j)
            for idx in combo:
                cls = ring.cup(h2[idx], cls)
            for coord, val in cls.coords.items():
                out[ci * width + coord] = val
        return out

    kernel, _ = kernel_image(ring.field, ring.betti[k], apply)
    return [CohomClass(ring, k, dict(row)) for row in kernel.basis_rows()]


def _preset_ring(name, **params):
    """The ring the CLI builds for a preset: invariant when it has an action."""
    bundle = preset(name, **params)
    dim = bundle.meta.get("dim")
    top = dim or bundle.spec.degree_cap - 1
    if bundle.action is not None:
        return invariant_cohomology(bundle.action, top), dim
    return cohomology(bundle.spec, top), dim


RINGS = [(name, {}) for name in FIXED_PRESETS] + [("CPN", {"m": 3}),
                                                  ("SASAKI_CPN_S2", {"n": 4})]


@pytest.mark.parametrize("name, params", RINGS, ids=[n for n, _ in RINGS])
def test_universal_obstruction_matches_stacked_products(name, params):
    ring, dim = _preset_ring(name, **params)
    n = dim // 2
    checked = 0
    for k in range(1, n + 1):
        if k + 2 * (n - k) > ring.max_degree:
            continue
        assert universal_obstruction(ring, k, n) == stacked_obstruction(ring, k, n), k
        checked += 1
    assert checked or n < 1


# -- the Massey scan --------------------------------------------------------

def reference_scan(ring: CohomologyRing, budget: int, calls: list):
    """The scan that tests pairs by their cup; records each evaluation's classes."""
    spent = 0
    degs = [k for k in range(1, ring.max_degree + 1) if ring.betti[k]]

    def exact(p, i, q, j):
        return p + q <= ring.max_degree and \
            ring.cup(ring.rep_class(p, i), ring.rep_class(q, j)).is_zero()

    for p1 in degs:
        for p2 in degs:
            for p3 in degs:
                if p1 + p2 + p3 - 1 > ring.max_degree or not ring.betti[p1 + p2 + p3 - 1]:
                    continue
                for j1 in range(ring.betti[p1]):
                    for j2 in range(ring.betti[p2]):
                        if not exact(p1, j1, p2, j2):
                            continue
                        for j3 in range(ring.betti[p3]):
                            if not exact(p2, j2, p3, j3):
                                continue
                            if spent >= budget:
                                return None
                            spent += 1
                            classes = [ring.rep_class(p, j) for p, j in
                                       ((p1, j1), (p2, j2), (p3, j3))]
                            calls.append(("triple", classes))
                            rep = triple_massey(ring, *classes)
                            if rep.defined and rep.verdict == NONZERO:
                                return rep
    for pa in (k for k in degs if k % 2 == 0):
        for pb in degs:
            target = 2 * (pa + pb - 1) + pb
            if target > ring.max_degree or ring.betti[target] == 0:
                continue
            for ja in range(ring.betti[pa]):
                comp = [jb for jb in range(ring.betti[pb]) if exact(pa, ja, pb, jb)]
                for xi in range(len(comp)):
                    for yi in range(xi, len(comp)):
                        for zi in range(yi, len(comp)):
                            if spent >= budget:
                                return None
                            spent += 1
                            a = ring.rep_class(pa, ja)
                            bs = [ring.rep_class(pb, comp[t]) for t in (xi, yi, zi)]
                            calls.append(("a", [a] + bs))
                            rep = a_massey(ring, a, bs)
                            if rep.defined and rep.verdict == NONZERO:
                                return rep
    return None


def _recorded_scan(ring, budget, monkeypatch):
    """massey_scan's result and its evaluations, with the primitives it passed."""
    calls = []

    def triple(ring, u, v, w, x=None, y=None):
        calls.append(("triple", [u, v, w], [x, y]))
        return triple_massey(ring, u, v, w, x, y)

    def amassey(ring, a, bs, budget=64, primitives=None):
        calls.append(("a", [a] + list(bs), primitives))
        return a_massey(ring, a, bs, budget, primitives)

    monkeypatch.setattr(minmodel, "triple_massey", triple)
    monkeypatch.setattr(minmodel, "a_massey", amassey)
    return minmodel.massey_scan(ring, budget=budget), calls


@pytest.mark.parametrize("name, evaluations", [("HEIS8_Z3", 228), ("HEIS6", 2)])
def test_scan_primitives_give_the_reference_evaluations(name, evaluations, monkeypatch):
    ring, _ = _preset_ring(name)
    budget = 400
    got, calls = _recorded_scan(ring, budget, monkeypatch)
    ref_calls = []
    assert got == reference_scan(ring, budget, ref_calls)
    assert [(kind, classes) for kind, classes, _ in calls] == ref_calls
    assert len(calls) == evaluations
    supplied = 0
    for kind, classes, prims in calls:
        if kind == "triple":
            with_prims = triple_massey(ring, *classes, *prims)
            plain = triple_massey(ring, *classes)
        else:
            a, bs = classes[0], classes[1:]
            with_prims = a_massey(ring, a, bs, primitives=prims)
            plain = a_massey(ring, a, bs)
        assert with_prims == plain
        supplied += plain.defined
    assert supplied == len(calls)
