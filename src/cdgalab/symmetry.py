"""Finite cyclic group actions by multiplicative chain automorphisms.

The generator of the group acts on algebra generators by homogeneous
elements; the action extends multiplicatively.  An action validates on
construction (chain condition, a relation ideal it preserves, exact order,
conjugation pairs).  The invariant subcomplex is cut out per degree by the
averaging projector (the group order is invertible over Q(zeta_N)), applied
through the action's matrix on that degree's monomial basis; a column that
is an eigenvector of the action is read off, every other sums its orbit,
and the Burnside trace sums every orbit, as an independent check.  Its
cohomology is a full :class:`~cdgalab.cohomology.CohomologyRing` over the
subcomplex slices, so cup products, Massey products and Lefschetz tests all
apply.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional

from .algebra import AlgebraSpec, Element, Monomial
from .chains import AlgebraMap, FreeSlices, SubcomplexSlices, chain_defect
from .cohomology import CohomologyRing
from .errors import (
    CapTooLow,
    ConjugationBroken,
    IdealNotStable,
    NoConjugateDeclared,
    NotChainMap,
    OrderMismatch,
    ParentMismatch,
    ParseError,
)
from .linalg import Vec, mat_vec, span, vec_add, vec_scale

class GroupActionSpec:
    """A Z_m action on an AlgebraSpec, given by generator images."""

    def __init__(self, parent: AlgebraSpec, order: int, images: Dict[str, object]):
        if order < 1:
            raise ParseError("group order must be positive", order=order)
        self.parent = parent
        self.order = order
        self.images: Dict[int, Element] = {}
        for name, raw in images.items():
            if name not in parent.index:
                raise ParseError(f"action image given for unknown generator '{name}'")
            gi = parent.index[name]
            img = parent.element(raw)
            if img.degree != parent.generators[gi].degree and not img.is_zero():
                raise ParseError("action images must preserve degree",
                                 generator=name, got=img.degree)
            self.images[gi] = img
        for gi in range(len(parent.generators)):
            if gi not in self.images:
                raise ParseError(
                    f"action must specify an image for generator "
                    f"'{parent.generators[gi].name}'")
        self._slices = FreeSlices(parent)
        self._rho = AlgebraMap(self._slices, {
            gi: (parent.generators[gi].degree, self._slices.from_element(img))
            for gi, img in self.images.items()})
        self._matrices: Dict[int, List[Vec]] = {}
        self._projectors: Dict[int, List[Vec]] = {}
        self.validate()

    # -- applying the action -------------------------------------------

    def apply(self, elem: Element, power: int = 1) -> Element:
        """Apply the group generator ``power`` times; any integer, taken mod the order."""
        if elem.parent is not self.parent:
            raise ParentMismatch("element belongs to a different algebra")
        elem._guard()
        sl = self._slices
        rho = self.matrix(elem.degree)
        vec = sl.from_element(elem)
        for _ in range(power % self.order):
            vec = mat_vec(rho, vec)
        return sl.to_element(elem.degree, vec)

    def matrix(self, k: int) -> List[Vec]:
        """Columns of rho* on the degree-k monomial basis, built once per degree."""
        cols = self._matrices.get(k)
        if cols is None:
            cols = self._matrices[k] = [self._rho.monomial(mono)[1]
                                        for mono in self.parent.basis(k)]
        return cols

    # -- validation -----------------------------------------------------

    def validate(self) -> "GroupActionSpec":
        spec = self.parent
        defect = chain_defect(spec, self._rho)
        if defect is not None:
            gi, diff = defect
            name = spec.generators[gi].name
            raise NotChainMap(
                f"the action does not commute with d on generator '{name}'",
                generator=name,
                witness=self._slices.to_element(spec.generators[gi].degree + 1,
                                                diff).render())
        # rho* is defined on the quotient only if it maps each relation into the ideal
        for rel in spec.relations:
            if self._rho(rel.terms):
                raise IdealNotStable("the action does not map a relation into the relation ideal",
                                     relation=rel.render(), degree=rel.degree)
        gen_vecs = {gi: self._slices.from_element(spec.gen(g.name))
                    for gi, g in enumerate(spec.generators)}
        current = {gi: vec for gi, (_, vec) in self._rho.images.items()}
        period = None
        for j in range(1, self.order + 1):
            if current == gen_vecs:
                period = j
                break
            current = {gi: mat_vec(self.matrix(spec.generators[gi].degree), vec)
                       for gi, vec in current.items()}
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
        return self


def _orbit_sum(act: GroupActionSpec, k: int, vec: Vec) -> Vec:
    """sum_{j < m} rho*^j vec, for a vector on the degree-k monomial basis."""
    rho = act.matrix(k)
    acc = img = vec
    for _ in range(act.order - 1):
        img = mat_vec(rho, img)
        acc = vec_add(acc, img)
    return acc


def averaging_projector(act: GroupActionSpec, k: int) -> List[Vec]:
    """Columns of P = (1/m) sum_j rho*^j on the degree-k slice; built once, shared."""
    cols = act._projectors.get(k)
    if cols is None:
        field = act.parent.field
        inv_m = field.rational(Fraction(1, act.order))
        # rho* e_i = lam e_i has lam^m = 1, so P e_i is e_i if lam = 1, else 0
        cols = act._projectors[k] = [
            ({i: field.one} if col[i] == field.one else {}) if col.keys() == {i}
            else vec_scale(_orbit_sum(act, k, {i: field.one}), inv_m)
            for i, col in enumerate(act.matrix(k))]
    return cols


def invariant_complex(act: GroupActionSpec, max_degree: Optional[int] = None) -> SubcomplexSlices:
    """The fixed subcomplex, with canonical per-degree bases, each built on first read."""
    spec = act.parent
    top = spec.degree_cap if max_degree is None else max_degree
    # The span of the averaging projector's columns is the fixed space, since
    # rho* P = P and P v = v for fixed v; a subspace has only one RREF basis.
    return SubcomplexSlices(act._slices, top,
                            lambda k: span(spec.field, averaging_projector(act, k)))


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
    proj = averaging_projector(act, k)
    cols = [ring.class_of(mat_vec(proj, rep), k).coords for rep in ring.reps(k)]
    return span(ring.field, cols).basis_rows()


def burnside_invariant_dimension(act: GroupActionSpec, k: int) -> Fraction:
    """(1/m) sum_j trace(rho*^j) on the degree-k slice; must be a nonneg integer."""
    field = act.parent.field
    total = field.zero
    for i in range(len(act.matrix(k))):
        total = total + _orbit_sum(act, k, {i: field.one}).get(i, field.zero)
    return (total * field.rational(Fraction(1, act.order))).rational_value()
