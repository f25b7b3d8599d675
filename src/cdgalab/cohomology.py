"""Per-degree cohomology of a capped slice complex.

Representatives are canonical: the kernel basis of d is reduced against the
reduced row-echelon form of the previous image, so golden outputs are
reproducible bit for bit.  ``class_of`` returns coordinates in that
representative basis, ``cup`` is the bilinear sum over structure constants
[rep_i * rep_j] that are each computed once through ``class_of``,
``is_exact`` solves d(w) = z with free variables pinned to zero
(leftmost-pivot policy), and ``integrate`` evaluates a top class against a
declared volume monomial, scaled by the group order for rings that come from
an invariant subcomplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .algebra import AlgebraSpec, Element, Monomial
from .chains import FreeSlices, SubcomplexSlices
from .errors import (
    CapTooLow,
    DegreeOverflow,
    NoTopDeclared,
    NotClosed,
)
from .linalg import Echelon, Vec, kernel_image, mat_vec, vec_add, vec_iadd
from .scalars import CycScalar

Slices = Union[FreeSlices, SubcomplexSlices]


@dataclass
class CohomClass:
    """A cohomology class: coordinates in the ring's representative basis."""

    ring: "CohomologyRing"
    degree: int
    coords: Vec

    def is_zero(self) -> bool:
        return not self.coords

    def rep_vec(self) -> Vec:
        return self.ring.rep_combination(self.degree, self.coords)

    def rep_element(self) -> Element:
        return self.ring.slices.to_element(self.degree, self.rep_vec())

    def cup(self, other: "CohomClass") -> "CohomClass":
        return self.ring.cup(self, other)

    def scale(self, coeff) -> "CohomClass":
        c = coeff if isinstance(coeff, CycScalar) else self.ring.field.rational(coeff)
        if c.is_zero():
            return CohomClass(self.ring, self.degree, {})
        return CohomClass(self.ring, self.degree,
                          {j: c * v for j, v in self.coords.items()})

    def __add__(self, other: "CohomClass") -> "CohomClass":
        return CohomClass(self.ring, self.degree, vec_add(self.coords, other.coords))

    def __sub__(self, other: "CohomClass") -> "CohomClass":
        return self + other.scale(-1)

    def __eq__(self, other):
        return (isinstance(other, CohomClass) and self.ring is other.ring
                and self.degree == other.degree and self.coords == other.coords)


class CohomologyRing:
    """Betti numbers, canonical representatives and cup products."""

    def __init__(self, slices: Slices, max_degree: int,
                 volume: Optional[Monomial] = None, group_order: int = 1):
        if max_degree + 1 > slices.cap:
            raise CapTooLow(
                "cohomology through degree k needs slices through k+1",
                requested=max_degree, cap=slices.cap)
        self.slices = slices
        self.field = slices.field
        self.max_degree = max_degree
        self.group_order = group_order
        self.volume = volume
        self.top_degree: Optional[int] = None
        if volume is not None:
            spec = slices.spec if isinstance(slices, FreeSlices) else slices.parent.spec
            from .algebra import monomial_degree
            self.top_degree = monomial_degree(spec, volume)
        self.betti: List[int] = []
        self._reps: List[List[Vec]] = []
        self._image: List[Echelon] = []
        self._decomp: List[Echelon] = []
        # (p, q) -> {(i, j): coords of [rep_i * rep_j]}, filled on first use
        self._cup: Dict[Tuple[int, int], Dict[Tuple[int, int], Vec]] = {}
        prev_image = Echelon(self.field)
        for k in range(max_degree + 1):
            kernel, image_next = kernel_image(
                self.field, slices.dim(k), lambda i, k=k: slices.d_vec(k, {i: self.field.one}))
            reps: List[Vec] = []
            rep_ech = Echelon(self.field)
            residuals = []
            for kvec in kernel.basis_rows():
                residual, _ = prev_image.reduce(kvec)
                if residual:
                    residuals.append(residual)
            for r in residuals:
                rep_ech.add(r)
            reps = rep_ech.basis_rows()
            decomp = Echelon(self.field)
            for row in prev_image.basis_rows():
                decomp.add(dict(row), source={})
            for j, rep in enumerate(reps):
                decomp.add(dict(rep), source={j: self.field.one})
            self.betti.append(len(reps))
            self._reps.append(reps)
            self._image.append(prev_image)
            self._decomp.append(decomp)
            prev_image = image_next

    # -- classes ---------------------------------------------------------

    def reps(self, k: int) -> List[Vec]:
        return self._reps[k]

    def rep_class(self, k: int, j: int) -> CohomClass:
        return CohomClass(self, k, {j: self.field.one})

    def rep_combination(self, k: int, coords: Vec) -> Vec:
        return mat_vec(self._reps[k], coords)

    def class_of(self, z: Union[Element, Vec], degree: Optional[int] = None) -> CohomClass:
        """Coordinates of a closed element; the zero vector iff it is exact."""
        if isinstance(z, Element):
            degree = z.degree
            vec = self.slices.from_element(z)
        else:
            if degree is None:
                raise ValueError("degree required for coordinate-vector input")
            vec = z
        if degree > self.max_degree:
            raise DegreeOverflow("class degree beyond the computed range", degree=degree)
        dz = self.slices.d_vec(degree, vec)
        if dz:
            witness = self.slices.to_element(degree + 1, dz).render()
            raise NotClosed("element is not closed", differential=witness)
        coords = self._decomp[degree].solve(vec)
        if coords is None:
            raise NotClosed("element is not in ker(d) + im(d); internal inconsistency")
        return CohomClass(self, degree, coords)

    def cup(self, u: CohomClass, v: CohomClass) -> CohomClass:
        """The bilinear sum of u_i v_j [rep_i rep_j] over the structure constants."""
        p, q = u.degree, v.degree
        if p + q > self.max_degree:
            raise DegreeOverflow("cup product lands beyond the computed range",
                                 degree=p + q)
        table = self._cup.setdefault((p, q), {})
        out: Vec = {}
        for i, a in u.coords.items():
            for j, b in v.coords.items():
                c = table.get((i, j))
                if c is None:
                    prod = self.slices.mul_vec(p, self._reps[p][i], q, self._reps[q][j])
                    c = table[(i, j)] = self.class_of(prod, p + q).coords
                vec_iadd(out, c, a * b)
        return CohomClass(self, p + q, out)

    def is_exact(self, z: Union[Element, Vec], degree: Optional[int] = None) -> Optional[Vec]:
        """A canonical w with d(w) = z, or None; z must be closed."""
        if isinstance(z, Element):
            degree = z.degree
            vec = self.slices.from_element(z)
        else:
            vec = z
        if degree is None:
            raise ValueError("degree required for coordinate-vector input")
        if degree > self.max_degree:
            raise DegreeOverflow("exactness query beyond the computed range", degree=degree)
        dz = self.slices.d_vec(degree, vec)
        if dz:
            raise NotClosed("element is not closed",
                            differential=self.slices.to_element(degree + 1, dz).render())
        if not vec:
            return {}
        return self._image[degree].solve(vec)

    # -- top class and duality --------------------------------------------

    def integrate(self, z: CohomClass, group_order: Optional[int] = None) -> CycScalar:
        """Coefficient of the class on the declared volume monomial, scaled.

        Used only for non-vanishing decisions; the sign depends on the
        declared monomial order.
        """
        if self.volume is None:
            raise NoTopDeclared("no volume monomial declared for this ring")
        if z.degree != self.top_degree:
            raise DegreeOverflow("integration needs a top-degree class",
                                 degree=z.degree, top=self.top_degree)
        order = self.group_order if group_order is None else group_order
        elem = z.rep_element()
        coeff = elem.coefficient(self.volume)
        return coeff * self.field.rational(order)

    def pairing_matrix(self, k: int, n: int):
        """Matrix of H^k x H^{n-k} -> H^n in rep coordinates (n-th slice 1-dim)."""
        rows = []
        for j in range(self.betti[k]):
            row = []
            for l in range(self.betti[n - k]):
                prod = self.cup(self.rep_class(k, j), self.rep_class(n - k, l))
                row.append(prod.coords.get(0, self.field.zero))
            rows.append(row)
        return rows

    def pairing_nondegenerate(self, n: int) -> bool:
        if self.betti[n] != 1:
            return False
        for k in range(n + 1):
            if self.betti[k] != self.betti[n - k]:
                return False
            if self.betti[k] == 0:
                continue
            m = self.pairing_matrix(k, n)
            ech = Echelon(self.field)
            rank = 0
            for row in m:
                vec = {i: c for i, c in enumerate(row) if not c.is_zero()}
                if ech.add(vec):
                    rank += 1
            if rank != self.betti[k]:
                return False
        return True

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.betti))


def cohomology(spec: AlgebraSpec, max_degree: int,
               volume: Optional[Monomial] = None, group_order: int = 1) -> CohomologyRing:
    """Cohomology ring of a validated spec through the given degree."""
    return CohomologyRing(FreeSlices(spec), max_degree, volume=volume,
                          group_order=group_order)
