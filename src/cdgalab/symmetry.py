"""Finite cyclic group actions by multiplicative chain automorphisms.

The generator of the group acts on algebra generators by homogeneous
elements; the action extends multiplicatively.  Validation checks the chain
condition, the exact order and compatibility with declared conjugation
pairs.  The invariant subcomplex is cut out per degree by the averaging
projector (the group order is invertible over Q(zeta_N)), applied through
the action's matrix on that degree's monomial basis, and its cohomology
is a full :class:`~cdgalab.cohomology.CohomologyRing` over the subcomplex
slices, so cup products, Massey products and Lefschetz tests all apply.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional

from .algebra import AlgebraSpec, Element, Monomial, monomial_atoms
from .chains import FreeSlices, SubcomplexSlices
from .cohomology import CohomologyRing
from .errors import (
    CapTooLow,
    ConjugationBroken,
    NoConjugateDeclared,
    NotChainMap,
    OrderMismatch,
    ParseError,
)
from .linalg import Echelon, Vec, mat_vec, vec_add, vec_scale
from .scalars import CycField

class GroupActionSpec:
    """A Z_m action on an AlgebraSpec, given by generator images."""

    def __init__(self, parent: AlgebraSpec, order: int, images: Dict[str, object]):
        if not parent.validated:
            parent.validate()
        if order < 1:
            raise ParseError("group order must be positive", order=order)
        self.parent = parent
        self.order = order
        self.images: Dict[int, Element] = {}
        for name, raw in images.items():
            if name not in parent.index:
                raise ParseError(f"action image given for unknown generator '{name}'")
            gi = parent.index[name]
            img = parent._element_from_data(raw)
            if img.degree != parent.generators[gi].degree and not img.is_zero():
                raise ParseError("action images must preserve degree",
                                 generator=name, got=img.degree)
            self.images[gi] = img
        for gi in range(len(parent.generators)):
            if gi not in self.images:
                raise ParseError(
                    f"action must specify an image for generator "
                    f"'{parent.generators[gi].name}'")
        self._validated = False
        self._slices = FreeSlices(parent)
        self._matrices: Dict[int, List[Vec]] = {}

    # -- applying the action -------------------------------------------

    def apply(self, elem: Element, power: int = 1) -> Element:
        """Apply the group generator ``power`` times to an element."""
        out = elem
        for _ in range(power % self.order if self._validated else power):
            out = self._apply_once(out)
        return out

    def _apply_once(self, elem: Element) -> Element:
        spec = self.parent
        acc = spec.zero(elem.degree)
        for mono, c in elem.terms.items():
            piece = spec.one().scale(c)
            for g in monomial_atoms(spec, mono):
                piece = piece * self.images[g]
            acc = acc + piece
        return acc

    def matrix(self, k: int) -> List[Vec]:
        """Columns of rho* on the degree-k monomial basis, built once per degree."""
        cols = self._matrices.get(k)
        if cols is None:
            sl = self._slices
            cols = [sl.from_element(self._apply_once(sl.basis_element(k, i)))
                    for i in range(sl.dim(k))]
            self._matrices[k] = cols
        return cols

    # -- validation -----------------------------------------------------

    def validate(self) -> "GroupActionSpec":
        spec = self.parent
        for gi, img in self.images.items():
            g = spec.gen(spec.generators[gi].name)
            lhs = self._apply_once(g.d())
            rhs = img.d()
            if lhs != rhs:
                raise NotChainMap(
                    f"the action does not commute with d on generator "
                    f"'{spec.generators[gi].name}'",
                    generator=spec.generators[gi].name,
                    witness=(lhs - rhs).render())
        period = None
        current = {gi: img for gi, img in self.images.items()}
        for j in range(1, self.order + 1):
            if all(current[gi] == spec.gen(spec.generators[gi].name)
                   for gi in self.images):
                period = j
                break
            current = {gi: self._apply_once(img) for gi, img in current.items()}
        if period != self.order:
            raise OrderMismatch("the action's exact order differs from the declared one",
                                declared=self.order, actual=period)
        for gi, partner in spec._conj_index.items():
            img = self.images[gi]
            want = self.images[partner]
            try:
                got = img.conj()
            except NoConjugateDeclared as exc:
                raise ConjugationBroken(
                    "a conjugate generator's image uses partnerless generators",
                    generator=spec.generators[gi].name) from exc
            if got != want:
                raise ConjugationBroken(
                    "the action does not respect declared conjugation pairs",
                    generator=spec.generators[gi].name)
        self._validated = True
        return self

    @property
    def validated(self) -> bool:
        return self._validated


def action_validate(act: GroupActionSpec) -> GroupActionSpec:
    return act.validate()


def _orbit_sum(act: GroupActionSpec, k: int, vec: Vec) -> Vec:
    """sum_{j < m} rho*^j vec, for a vector on the degree-k monomial basis."""
    rho = act.matrix(k)
    acc = img = vec
    for _ in range(act.order - 1):
        img = mat_vec(rho, img)
        acc = vec_add(acc, img)
    return acc


def averaging_projector(act: GroupActionSpec, slices: FreeSlices, k: int) -> List[Vec]:
    """Columns of P = (1/m) sum_j rho*^j on the degree-k slice."""
    inv_m = slices.field.rational(Fraction(1, act.order))
    return [vec_scale(_orbit_sum(act, k, {i: slices.field.one}), inv_m)
            for i in range(slices.dim(k))]


def _column_space(field: CycField, cols: List[Vec]) -> List[Vec]:
    """The RREF basis of the span of ``cols``.

    On an averaging projector's columns this is the fixed space, since
    rho* P = P and P v = v for fixed v; a subspace has only one RREF basis.
    """
    ech = Echelon(field)
    for col in cols:
        ech.add(col)
    return ech.basis_rows()


def invariant_complex(act: GroupActionSpec, max_degree: Optional[int] = None) -> SubcomplexSlices:
    """The fixed subcomplex, with canonical per-degree bases."""
    if not act.validated:
        act.validate()
    spec = act.parent
    slices = FreeSlices(spec)
    top = spec.degree_cap if max_degree is None else max_degree
    return SubcomplexSlices(slices, {
        k: _column_space(spec.field, averaging_projector(act, slices, k))
        for k in range(top + 1)})


def invariant_cohomology(act: GroupActionSpec, max_degree: int,
                         volume: Optional[Monomial] = None) -> CohomologyRing:
    """Cohomology of the invariant subcomplex (the orbifold model)."""
    if max_degree + 1 > act.parent.degree_cap:
        raise CapTooLow("invariant cohomology through degree k needs parent "
                        "slices through k+1",
                        requested=max_degree, cap=act.parent.degree_cap)
    sub = invariant_complex(act, max_degree=max_degree + 1)
    return CohomologyRing(sub, max_degree, volume=volume, group_order=act.order)


def fixed_subspace_of_cohomology(act: GroupActionSpec, ring: CohomologyRing, k: int):
    """Basis of the rho*-fixed subspace of H^k(parent), in rep coordinates."""
    field = ring.field
    inv_m = field.rational(Fraction(1, act.order))
    cols = [ring.class_of(vec_scale(_orbit_sum(act, k, rep), inv_m), k).coords
            for rep in ring.reps(k)]
    return _column_space(field, cols)


def burnside_invariant_dimension(act: GroupActionSpec, k: int) -> Fraction:
    """(1/m) sum_j trace(rho*^j) on the degree-k slice; must be a nonneg integer."""
    field = act.parent.field
    total = field.zero
    for i in range(len(act.matrix(k))):
        total = total + _orbit_sum(act, k, {i: field.one}).get(i, field.zero)
    return (total * field.rational(Fraction(1, act.order))).rational_value()
