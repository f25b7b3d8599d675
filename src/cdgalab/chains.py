"""Degreewise slice backends for cohomology computations.

A backend exposes, per degree: a finite ordered basis, the differential as a
map of sparse coordinate vectors, and the product of two slices.  Two
implementations exist: the monomial slices of a free-with-relations
:class:`~cdgalab.algebra.AlgebraSpec`, and the fixed subspaces of a finite
group action (whose basis vectors live inside the parent's slices).  Both
cache the d column of each basis vector, and d of a vector is the sum of its
columns; d = 0 is read from the spec (``zero_d``: no generator has a
differential), so then no column is expanded or solved for.  A fixed
subspace is held as an echelon, so a parent vector's coordinates are its
entries at the pivots; each degree's echelon is computed on first read.  The
cohomology, Massey, Lefschetz and minimal-model machinery only ever talk to
this interface, so group-invariant complexes get every feature for free.
An :class:`AlgebraMap` into either (rho* of a group action, a minimal model's
psi) is fixed by generator images and keeps each monomial's image it computes.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .algebra import UNIT, AlgebraSpec, Element, Monomial, normal_form
from .errors import CapExceeded, DegreeOverflow, NotInSubcomplex
from .linalg import Echelon, Vec, bilinear, mat_vec, vec_add, vec_iadd
from .scalars import CycField, CycScalar


class FreeSlices:
    """Slice view of an AlgebraSpec (quotient monomial bases per degree)."""

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self.field: CycField = spec.field
        self.cap = spec.degree_cap
        self.zero_d = not spec.differential
        self._d_cols: Dict[int, Dict[int, Vec]] = defaultdict(dict)
        self._quotient: Dict[int, Dict[int, int]] = {}  # free index -> basis index
        # (k, l) -> i -> j -> +-(1 + spec._index(k + l)[basis_k[i] * basis_l[j]]), 0 if zero
        self._mul = defaultdict(lambda: defaultdict(dict))

    def dim(self, k: int) -> int:
        if k < 0:
            return 0
        return len(self.spec.basis(k))

    def to_element(self, k: int, vec: Vec) -> Element:
        basis = self.spec.basis(k)
        return Element(self.spec, k, {basis[i]: c for i, c in vec.items()}, _reduced=True)

    def from_element(self, elem: Element) -> Vec:
        return self._coords(elem.degree, elem.terms)

    def _coords(self, k: int, terms: Dict[Monomial, CycScalar]) -> Vec:
        index = self.spec._index(k)
        vec = {index[m]: c for m, c in terms.items() if m in index}
        return self._reduced(k, vec) if self.spec._tails is None else vec

    def _reduced(self, k: int, free: Vec) -> Vec:
        """A vector on the free degree-k basis, reduced by the ideal, in basis coordinates."""
        spec = self.spec
        residual, _ = spec._ideal_echelon(k).reduce(free)
        pos = self._quotient.get(k)
        if pos is None:
            free_index = spec._index(k)
            pos = self._quotient[k] = {free_index[m]: i for i, m in enumerate(spec.basis(k))}
        return {pos[p]: c for p, c in residual.items()}

    def d_col(self, k: int, i: int) -> Vec:
        """d of basis vector i of degree k, computed once; callers must not mutate it."""
        if k + 1 > self.cap:
            raise CapExceeded("differential would leave the capped range", degree=k + 1)
        cols = self._d_cols[k]
        if i not in cols:
            cols[i] = {} if self.zero_d else self._coords(
                k + 1, self.spec._d_monomial(self.spec.basis(k)[i]))
        return cols[i]

    def d_vec(self, k: int, vec: Vec) -> Vec:
        if self.zero_d and k < self.cap:
            return {}
        return mat_vec({i: self.d_col(k, i) for i in vec}, vec)

    def mul_vec(self, k: int, u: Vec, l: int, v: Vec) -> Vec:
        if k + l > self.cap:
            raise DegreeOverflow("product degree exceeds the cap", degree=k + l)
        spec, table = self.spec, self._mul[k, l]
        acc: Vec = {}
        for i, a in u.items():
            entries = table[i]
            # basis_k[i] * basis_l[j] is injective in j, so the row's terms never collide.
            row: Vec = {}
            for j, b in v.items():
                hit = entries.get(j)
                if hit is None:
                    index = spec._index(k + l)
                    nf = normal_form(spec, spec.basis(k)[i] + spec.basis(l)[j])
                    hit = entries[j] = nf[0] * (1 + index[nf[1]]) if nf and nf[1] in index else 0
                if hit:
                    row[abs(hit) - 1] = b if hit > 0 else -b
            vec_iadd(acc, row, a)
        return self._reduced(k + l, acc) if spec._tails is None else acc

    def unit_vec(self) -> Vec:
        return self._coords(0, {UNIT: self.field.one})


class SubcomplexSlices:
    """Slices of a subcomplex given by an echelon per degree in a parent.

    ``fixed(k)`` is the echelon of a subspace of the parent's degree-k slice,
    for 0 <= k <= cap, asked once, when degree k is first read; the subspaces
    are closed under d and products.  Coordinates here refer to its
    ``basis_rows()``, and ``express`` reads them at the pivots.
    """

    def __init__(self, parent: FreeSlices, cap: int, fixed: Callable[[int], Echelon]):
        self.parent = parent
        self.field = parent.field
        self.cap = cap
        self.zero_d = parent.zero_d
        self._fixed = fixed
        self._echelons: Dict[int, Echelon] = {}
        self._bases: Dict[int, List[Vec]] = {}
        self._d_cols: Dict[int, Dict[int, Vec]] = defaultdict(dict)
        # (k, l) -> i -> j -> coordinates of basis(k)[i] * basis(l)[j]
        self._mul = defaultdict(lambda: defaultdict(dict))

    def echelon(self, k: int) -> Echelon:
        """The degree-k subspace's echelon, computed on first read."""
        ech = self._echelons.get(k)
        if ech is None:
            ech = self._echelons[k] = self._fixed(k) if 0 <= k <= self.cap else Echelon(self.field)
        return ech

    def basis(self, k: int) -> List[Vec]:
        rows = self._bases.get(k)
        if rows is None:
            rows = self._bases[k] = self.echelon(k).basis_rows()
        return rows

    def dim(self, k: int) -> int:
        return len(self.basis(k))

    def to_parent_vec(self, k: int, vec: Vec) -> Vec:
        return mat_vec(self.basis(k), vec)

    def express(self, k: int, parent_vec: Vec) -> Vec:
        coords = self.echelon(k).coordinates(parent_vec)
        if coords is None:
            raise NotInSubcomplex("vector does not lie in the subcomplex slice", degree=k)
        return coords

    def to_element(self, k: int, vec: Vec) -> Element:
        return self.parent.to_element(k, self.to_parent_vec(k, vec))

    def from_element(self, elem: Element) -> Vec:
        return self.express(elem.degree, self.parent.from_element(elem))

    def d_col(self, k: int, i: int) -> Vec:
        """d of basis vector i of degree k, computed once; callers must not mutate it."""
        cols = self._d_cols[k]
        if i not in cols:
            cols[i] = {} if self.zero_d and k < self.cap else self.express(
                k + 1, self.parent.d_vec(k, self.basis(k)[i]))
        return cols[i]

    def d_vec(self, k: int, vec: Vec) -> Vec:
        if self.zero_d and k < self.cap:
            return {}
        return mat_vec({i: self.d_col(k, i) for i in vec}, vec)

    def mul_vec(self, k: int, u: Vec, l: int, v: Vec) -> Vec:
        if k + l > self.cap:
            raise DegreeOverflow("product degree exceeds the subcomplex range",
                                 degree=k + l)
        return bilinear(self._mul[k, l], u, v, lambda i, j: self.express(
            k + l, self.parent.mul_vec(k, self.basis(k)[i], l, self.basis(l)[j])))

    def unit_vec(self) -> Vec:
        return self.express(0, self.parent.unit_vec())


Slices = Union[FreeSlices, SubcomplexSlices]


def product(slices: Slices, factors: Sequence[Tuple[int, Vec]]) -> Vec:
    """Product of (degree, vector) factors, multiplied left to right.

    It starts from the first factor, not from the unit; the empty product
    is the unit.
    """
    if not factors:
        return slices.unit_vec()
    deg, vec = factors[0]
    for fdeg, fvec in factors[1:]:
        vec = slices.mul_vec(deg, vec, fdeg, fvec)
        deg += fdeg
    return vec


class AlgebraMap:
    """The algebra map sending generator g to ``images[g]``, a (degree, vec) pair.

    ``monomial(m)`` multiplies the images of m's generators left to right, as
    ``product`` does, each prefix once: an image, once set, never changes.
    """

    def __init__(self, slices: Slices, images: Dict[int, Tuple[int, Vec]]):
        self.slices, self.images = slices, images
        self._products: Dict[Monomial, Tuple[int, Vec]] = {}

    def monomial(self, m: Monomial) -> Tuple[int, Vec]:
        if len(m) < 2:
            return self.images[m[0]] if m else (0, self.slices.unit_vec())
        hit = self._products.get(m)
        if hit is None:  # with relations a prefix need not be a basis monomial
            (deg, vec), (gdeg, gvec) = self.monomial(m[:-1]), self.images[m[-1]]
            hit = self._products[m] = (deg + gdeg, self.slices.mul_vec(deg, vec, gdeg, gvec))
        return hit

    def __call__(self, terms: Mapping[Monomial, CycScalar]) -> Vec:
        """The image of the element with these terms."""
        out: Vec = {}
        for m, c in terms.items():
            vec_iadd(out, self.monomial(m)[1], c)
        return out


def chain_defect(spec: AlgebraSpec, phi: AlgebraMap) -> Optional[Tuple[int, Vec]]:
    """The first generator g with phi(dg) != d(phi g), and phi(dg) - d(phi g).

    None when ``phi``, on the generators of ``spec``, commutes with d.
    """
    minus_one, zero = -phi.slices.field.one, spec.zero()
    for gi, (deg, vec) in sorted(phi.images.items()):
        lhs = phi(spec.differential.get(gi, zero).terms)
        diff = vec_add(lhs, phi.slices.d_vec(deg, vec), minus_one)
        if diff:
            return gi, diff
    return None
