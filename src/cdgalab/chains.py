"""Degreewise slice backends for cohomology computations.

A backend exposes, per degree: a finite ordered basis, the differential as a
map of sparse coordinate vectors, and the product of two slices.  Two
implementations exist: the monomial slices of a free-with-relations
:class:`~cdgalab.algebra.AlgebraSpec`, and the fixed subspaces of a finite
group action (whose basis vectors live inside the parent's slices).  The
cohomology, Massey, Lefschetz and minimal-model machinery only ever talk to
this interface, so group-invariant complexes get every feature for free.
"""

from __future__ import annotations

from typing import Dict, List

from .algebra import AlgebraSpec, Element, Monomial
from .errors import CapExceeded, DegreeOverflow
from .linalg import Echelon, Vec, mat_vec
from .scalars import CycField


class FreeSlices:
    """Slice view of an AlgebraSpec (quotient monomial bases per degree)."""

    def __init__(self, spec: AlgebraSpec):
        if not spec.validated:
            spec.validate()
        self.spec = spec
        self.field: CycField = spec.field
        self.cap = spec.degree_cap
        self._d_cols: Dict[int, List[Vec]] = {}
        self._index: Dict[int, Dict[Monomial, int]] = {}

    def dim(self, k: int) -> int:
        if k < 0:
            return 0
        return len(self.spec.basis(k))

    def basis_element(self, k: int, i: int) -> Element:
        mono = self.spec.basis(k)[i]
        return Element(self.spec, k, {mono: self.field.one}, _reduced=True)

    def to_element(self, k: int, vec: Vec) -> Element:
        basis = self.spec.basis(k)
        return Element(self.spec, k, {basis[i]: c for i, c in vec.items()}, _reduced=True)

    def from_element(self, elem: Element) -> Vec:
        idx = self._index.get(elem.degree)
        if idx is None:
            idx = {m: i for i, m in enumerate(self.spec.basis(elem.degree))}
            self._index[elem.degree] = idx
        return {idx[m]: c for m, c in elem.terms.items()}

    def d_vec(self, k: int, vec: Vec) -> Vec:
        if k + 1 > self.cap:
            raise CapExceeded("differential would leave the capped range", degree=k + 1)
        cols = self._d_cols.setdefault(k, [])
        for j in range(len(cols), max(vec, default=-1) + 1):
            cols.append(self.from_element(self.basis_element(k, j).d()))
        return mat_vec(cols, vec)

    def mul_vec(self, k: int, u: Vec, l: int, v: Vec) -> Vec:
        if k + l > self.cap:
            raise DegreeOverflow("product degree exceeds the cap", degree=k + l)
        prod = self.to_element(k, u) * self.to_element(l, v)
        return self.from_element(prod)

    def label(self, k: int, i: int) -> str:
        return self.basis_element(k, i).render()

    def unit_vec(self) -> Vec:
        return self.from_element(self.spec.one())


class SubcomplexSlices:
    """Slices of a subcomplex given by explicit basis vectors in a parent.

    ``bases[k]`` is an ordered list of parent-slice vectors spanning a
    subspace closed under d and products.  Coordinates here refer to those
    basis vectors; conversions solve exactly against the stored echelons.
    """

    def __init__(self, parent: FreeSlices, bases: Dict[int, List[Vec]]):
        self.parent = parent
        self.field = parent.field
        self.cap = max(bases.keys(), default=0)
        self._bases = bases
        self._express: Dict[int, Echelon] = {}
        for k, rows in bases.items():
            ech = Echelon(self.field)
            for j, row in enumerate(rows):
                ech.add(row, source={j: self.field.one})
            self._express[k] = ech

    def dim(self, k: int) -> int:
        return len(self._bases.get(k, ()))

    def to_parent_vec(self, k: int, vec: Vec) -> Vec:
        return mat_vec(self._bases.get(k, ()), vec)

    def express(self, k: int, parent_vec: Vec) -> Vec:
        sol = self._express.get(k, Echelon(self.field)).solve(parent_vec)
        if sol is None:
            raise ValueError("vector does not lie in the subcomplex slice")
        return sol

    def to_element(self, k: int, vec: Vec) -> Element:
        return self.parent.to_element(k, self.to_parent_vec(k, vec))

    def from_element(self, elem: Element) -> Vec:
        return self.express(elem.degree, self.parent.from_element(elem))

    def d_vec(self, k: int, vec: Vec) -> Vec:
        img = self.parent.d_vec(k, self.to_parent_vec(k, vec))
        return self.express(k + 1, img)

    def mul_vec(self, k: int, u: Vec, l: int, v: Vec) -> Vec:
        if k + l > self.cap:
            raise DegreeOverflow("product degree exceeds the subcomplex range",
                                 degree=k + l)
        prod = self.parent.mul_vec(k, self.to_parent_vec(k, u), l, self.to_parent_vec(l, v))
        return self.express(k + l, prod)

    def label(self, k: int, i: int) -> str:
        return self.parent.to_element(k, self._bases[k][i]).render()

    def unit_vec(self) -> Vec:
        return self.express(0, self.parent.unit_vec())
