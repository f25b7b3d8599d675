"""The witness searches stop at their answer and give the answer of the full search.

Each search is checked against the loop it replaces, kept here as the
reference:

* ``universal_obstruction`` cuts a running kernel by each p-fold product of
  H^2 that grows the products' span and stops when the kernel is empty, when
  the span is all of H^{2p}, or before any cup when H^{k+2p} = 0; the
  reference builds every product, takes the RREF basis of their span and
  stacks b times each basis row into one kernel computation; both give each
  witness with its keys in ascending order, which neither elimination fixes;
* ``massey_scan`` solves a pair of representatives for its primitive the
  first time it reads the pair; the reference solves every pair of a degree
  block when it first reads one of them.

The counts pinned at the end are the work each search skips.
"""

import io
import json
from typing import Dict, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from cdgalab import cli, minmodel
from cdgalab.algebra import GeneratorDecl
from cdgalab.cohomology import CohomClass, CohomologyRing, class_span, cohomology
from cdgalab.lefschetz import universal_obstruction
from cdgalab.linalg import Vec, kernel_image
from cdgalab.massey import NONZERO, a_massey, triple_massey
from cdgalab.minmodel import _zero_differential
from cdgalab.models import FIXED_PRESETS, ce_complex, preset_document
from cdgalab.scalars import CycField
from cdgalab.symmetry import invariant_cohomology
from test_known_answers import _diagonal_action, diagonal_quotients, two_step_nilpotent
from test_known_products import _preset_ring

RINGS = [(name, {}) for name in FIXED_PRESETS] + [("CPN", {"m": 3}),
                                                  ("SASAKI_CPN_S2", {"n": 4})]
Q = CycField.get(1)


# -- references --------------------------------------------------------------

def stacked_obstruction(ring: CohomologyRing, k: int, n: int):
    """Every p-fold product, the RREF basis of their span, and one stacked kernel."""
    power = n - k
    if power == 0:
        return []
    h2 = [ring.rep_class(2, j) for j in range(ring.betti[2])]
    prods = list(enumerate(h2))
    for _ in range(power - 1):
        prods = [(j, ring.cup(m, h2[j])) for i, m in prods for j in range(i, len(h2))]
    span, _ = class_span(ring.field, (m for _, m in prods))
    basis = [CohomClass(ring, 2 * power, row) for row in span.basis_rows()]
    width = ring.betti[k + 2 * power]

    def apply(j: int) -> Vec:
        out: Vec = {}
        base = ring.rep_class(k, j)
        for t, m in enumerate(basis):
            for coord, val in ring.cup(base, m).coords.items():
                out[t * width + coord] = val
        return out

    kernel, _ = kernel_image(ring.field, ring.betti[k], apply)
    return [CohomClass(ring, k, dict(sorted(row.items()))) for row in kernel.basis_rows()]


def block_scan(ring: CohomologyRing, budget: int, calls: list):
    """The scan that solves a whole (p, q) block of pairs on its first read."""
    if _zero_differential(ring):
        return None
    spent = 0
    degs = [k for k in range(1, ring.max_degree + 1) if ring.betti[k]]
    exact_pairs: Dict[Tuple[int, int], Dict[Tuple[int, int], Vec]] = {}

    def pair_exact(p: int, i: int, q: int, j: int) -> Optional[Vec]:
        if p + q > ring.max_degree:
            return None
        if (p, q) not in exact_pairs:
            reps, mul = ring.reps, ring.slices.mul_vec
            exact_pairs[p, q] = {
                (a, b): prim for a, ra in enumerate(reps(p)) for b, rb in enumerate(reps(q))
                if (prim := ring.is_exact(mul(p, ra, q, rb), p + q)) is not None}
        return exact_pairs[p, q].get((i, j))

    for p1 in degs:
        for p2 in degs:
            for p3 in degs:
                if p1 + p2 + p3 - 1 > ring.max_degree or not ring.betti[p1 + p2 + p3 - 1]:
                    continue
                for j1 in range(ring.betti[p1]):
                    for j2 in range(ring.betti[p2]):
                        if (x := pair_exact(p1, j1, p2, j2)) is None:
                            continue
                        for j3 in range(ring.betti[p3]):
                            if (y := pair_exact(p2, j2, p3, j3)) is None:
                                continue
                            if spent >= budget:
                                return None
                            spent += 1
                            classes = [ring.rep_class(p, j) for p, j in
                                       ((p1, j1), (p2, j2), (p3, j3))]
                            calls.append(("triple", classes, [x, y]))
                            rep = triple_massey(ring, *classes, x, y)
                            if rep.defined and rep.verdict == NONZERO:
                                return rep
    for pa in (k for k in degs if k % 2 == 0):
        for pb in degs:
            target = 2 * (pa + pb - 1) + pb
            if target > ring.max_degree or ring.betti[target] == 0:
                continue
            for ja in range(ring.betti[pa]):
                companions = [(jb, prim) for jb in range(ring.betti[pb])
                              if (prim := pair_exact(pa, ja, pb, jb)) is not None]
                for xi in range(len(companions)):
                    for yi in range(xi, len(companions)):
                        for zi in range(yi, len(companions)):
                            if spent >= budget:
                                return None
                            spent += 1
                            chosen = [companions[t] for t in (xi, yi, zi)]
                            a = ring.rep_class(pa, ja)
                            bs = [ring.rep_class(pb, jb) for jb, _ in chosen]
                            prims = [prim for _, prim in chosen]
                            calls.append(("a", [a] + bs, prims))
                            rep = a_massey(ring, a, bs, primitives=prims)
                            if rep.defined and rep.verdict == NONZERO:
                                return rep
    return None


def recorded_scan(ring: CohomologyRing, budget: int, monkeypatch):
    """massey_scan's report and its evaluations, with the primitives it passed."""
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


# -- the universal Lefschetz search -------------------------------------------

def _items(classes):
    """Degree and coordinates of each class, in order, with each dict's key order."""
    return [(c.degree, list(c.coords.items())) for c in classes]


def assert_witnesses_match(ring: CohomologyRing, k: int, n: int):
    got = universal_obstruction(ring, k, n)
    assert _items(got) == _items(stacked_obstruction(ring, k, n)), (k, n)
    return got


def _legal_degrees(ring: CohomologyRing, n: int):
    return [k for k in range(n + 1) if k + 2 * (n - k) <= ring.max_degree]


@pytest.mark.parametrize("name, params", RINGS, ids=[n for n, _ in RINGS])
def test_witnesses_match_on_every_preset(name, params):
    ring, dim = _preset_ring(name, **params)
    n = dim // 2
    assert _legal_degrees(ring, n) == list(range(n + 1))
    for k in range(n + 1):
        assert_witnesses_match(ring, k, n)


def _rung(family: str, size: int):
    """The standard-basis CE algebras H(n), N(m) and L(n), as the ladder builds them."""
    if family == "H":
        names = [f"x{i}" for i in range(size)] + [f"y{i}" for i in range(size)] + ["z"]
        structure = {"z": [(1, (f"x{i}", f"y{i}")) for i in range(size)]}
    elif family == "N":
        names = [f"e{i}" for i in range(size)]
        structure = {}
        for i in range(size):
            for j in range(i + 1, size):
                names.append(f"e{i}_{j}")
                structure[f"e{i}_{j}"] = [(1, (f"e{i}", f"e{j}"))]
    else:
        names = [f"e{i}" for i in range(1, size + 1)]
        structure = {f"e{k}": [(1, ("e1", f"e{k - 1}"))] for k in range(3, size + 1)}
    return ce_complex(Q, [GeneratorDecl(name, 1) for name in names], structure).validate()


# Witness counts at k = 1, 2, 3; N(4) (n = 5, b_2 = 20) takes powers 4, 3 and 2 of H^2.
RUNGS = {("H", 4): [8, 27, 48], ("N", 4): [4, 20, 20], ("L", 9): [0, 0, 0]}


@pytest.mark.parametrize("family, size", RUNGS, ids=[f"{f}({s})" for f, s in RUNGS])
def test_witnesses_match_on_ladder_rungs(family, size):
    spec = _rung(family, size)
    dim = len(spec.generators)
    ring = cohomology(spec, dim)
    found = [len(assert_witnesses_match(ring, k, dim // 2)) for k in (1, 2, 3)]
    assert found == RUNGS[family, size]


@settings(max_examples=40, deadline=None)
@given(two_step_nilpotent(), st.data())
def test_witnesses_match_on_random_ce_algebras(spec, data):
    dim = len(spec.generators)
    ring = cohomology(spec, dim)
    n = data.draw(st.integers(dim // 2, dim), label="n")
    for k in _legal_degrees(ring, n):
        assert_witnesses_match(ring, k, n)


@settings(max_examples=40, deadline=None)
@given(diagonal_quotients())
def test_witnesses_match_on_random_diagonal_quotients(draw):
    top = len(draw[1])
    ring = invariant_cohomology(_diagonal_action(*draw), top)
    for n in range(1, top + 1):
        for k in _legal_degrees(ring, n):
            assert_witnesses_match(ring, k, n)


def test_a_zero_target_degree_returns_all_of_h_k_before_any_cup():
    # The invariant H^6 of P_OVER_T6Z2 is 0: every class of H^2 is a witness.
    ring, _ = _preset_ring("P_OVER_T6Z2")
    got = universal_obstruction(ring, 2, 4)
    assert not any(ring._cup.values())
    assert ring.betti[6] == 0 and len(got) == ring.betti[2] > 0
    assert _items(got) == _items(stacked_obstruction(ring, 2, 4))


def test_the_product_that_fills_the_span_still_cuts():
    # T6 at k = 0: the first nonzero triple product of H^2 fills H^6 and kills 1.
    ring, _ = _preset_ring("T6")
    assert ring.betti[6] == 1
    assert assert_witnesses_match(ring, 0, 3) == []


# -- the Massey scan -----------------------------------------------------------

@pytest.mark.parametrize("name, params", RINGS, ids=[n for n, _ in RINGS])
def test_scan_gives_the_block_report_at_every_budget(name, params, monkeypatch):
    ring, _ = _preset_ring(name, **params)
    ref_calls = []
    full = block_scan(ring, 400, ref_calls)
    witness = len(ref_calls)  # the evaluation that found the report, or the last one
    for budget in range(witness + 2):
        want_calls = []
        want = block_scan(ring, budget, want_calls)
        got, calls = recorded_scan(ring, budget, monkeypatch)
        assert got == want, budget
        assert calls == want_calls, budget
    assert minmodel.massey_scan(ring, 400) == full


@settings(max_examples=30, deadline=None)
@given(two_step_nilpotent(), st.integers(0, 12))
def test_scan_gives_the_block_report_on_random_ce_algebras(spec, budget):
    ring = cohomology(spec, len(spec.generators))
    want = block_scan(ring, budget, [])
    assert minmodel.massey_scan(ring, budget) == want


# -- the work each search skips ------------------------------------------------

def _run(argv, name, monkeypatch, capsys):
    text = json.dumps(preset_document(name))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli.main(argv) == 0
    capsys.readouterr()


# Structure constants the degree-2 search fills, at most; the full search
# filled HEIS8 765, HEIS8_Z3 429, T6 and T6_Z2 225 and P_OVER_T6Z2 196.
FILLS = {"HEIS8": 257, "HEIS8_Z3": 161, "T6": 50, "T6_Z2": 50, "P_OVER_T6Z2": 0}


@pytest.mark.parametrize("name", FILLS)
def test_the_degree_two_search_fills_fewer_cups(name, monkeypatch, capsys):
    filled = []
    search = cli.universal_obstruction

    def counted(ring, k, n=None):
        out = search(ring, k, n)
        filled.append(sum(len(row) for table in ring._cup.values() for row in table.values()))
        return out

    monkeypatch.setattr(cli, "universal_obstruction", counted)
    _run(["lefschetz", "--universal", "--degree", "2"], name, monkeypatch, capsys)
    assert filled and filled[0] <= FILLS[name]


# is_exact calls of one formality verdict; the block scan made 169, 196 and 36.
EXACT = {"HEIS8_Z3": 26, "P_OVER_T6Z2": 6, "HEIS8": 2}


@pytest.mark.parametrize("name", EXACT)
def test_formality_solves_only_the_pairs_it_reads(name, monkeypatch, capsys):
    calls = []
    is_exact = CohomologyRing.is_exact
    monkeypatch.setattr(CohomologyRing, "is_exact", lambda self, *args, **kw:
                        calls.append(args) or is_exact(self, *args, **kw))
    dim = preset_document(name)["dim"]
    _run(["formality", "--poincare-dim", str(dim)], name, monkeypatch, capsys)
    assert len(calls) == EXACT[name]
