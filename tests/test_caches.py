"""The cached structure constants agree with the direct computations.

Cup products come from a table of [rep_i * rep_j]; the oracle multiplies the
representatives of the two classes and reduces the product with class_of.
The action on a degree-k slice comes from a cached matrix; the oracle pushes
basis elements through the Element path, ``GroupActionSpec.apply``.  Fixed
spaces are taken as the image of the averaging projector P; the oracle takes
the kernel of P - I.
"""

import random
from fractions import Fraction

import pytest

from cdgalab.algebra import AlgebraSpec, GeneratorDecl
from cdgalab.chains import FreeSlices, product
from cdgalab.cohomology import CohomClass, cohomology
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

def _element_projector(act, slices, k):
    inv_m = slices.field.rational(Fraction(1, act.order))
    cols = []
    for i in range(slices.dim(k)):
        e = slices.basis_element(k, i)
        acc = e
        for j in range(1, act.order):
            acc = acc + act.apply(e, j)
        cols.append({r: inv_m * c for r, c in slices.from_element(acc).items()})
    return cols


def _element_fixed_subspace(act, ring, k):
    field = ring.field
    cols = []
    for rep in ring.reps(k):
        e = ring.slices.to_element(k, rep)
        acc = e
        for j in range(1, act.order):
            acc = acc + act.apply(e, j)
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
            img = slices.from_element(act.apply(slices.basis_element(k, i), j))
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
        act = GroupActionSpec(spec, m, {
            f"x{i}": [(field.zeta(rng.randrange(m)), (f"x{i}",))]
            for i in range(ngen)})
        try:
            out.append(act.validate())
        except OrderMismatch:
            continue
    return out


ACTIONS = _random_weight_actions(24, seed=3) + [preset("HEIS6_Z6").action]


@pytest.mark.parametrize("act", ACTIONS, ids=lambda a: f"m{a.order}-{len(a.parent.generators)}gen")
def test_action_matrix_paths_match_element_paths(act):
    slices = FreeSlices(act.parent)
    top = min(act.parent.degree_cap - 1, 6)
    ring = cohomology(act.parent, top)
    sub = invariant_complex(act, max_degree=top)
    for k in range(top + 1):
        assert averaging_projector(act, slices, k) == _element_projector(act, slices, k)
        assert ([sub.to_parent_vec(k, {j: slices.field.one}) for j in range(sub.dim(k))]
                == _kernel_of_p_minus_i(slices.field, _element_projector(act, slices, k)))
        assert burnside_invariant_dimension(act, k) == _element_burnside(act, k)
        assert (fixed_subspace_of_cohomology(act, ring, k)
                == _element_fixed_subspace(act, ring, k))
