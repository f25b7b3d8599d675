"""Per-degree cohomology of a capped slice complex.

Each degree is computed on first read: a degree-k query eliminates d_{k-1} and d_k
once, when it first needs them, and construction only checks its arguments.  When
the slices read d = 0 from the spec (``zero_d``), nothing is eliminated: d_k's kernel
is the unit rows e_i of the whole slice and its image is empty, so a class's
coordinates are its entries and only 0 is exact.
Representatives are canonical, so golden outputs are reproducible bit for bit:
the kernel basis of d reduced against the RREF of the previous image, or with
no image the kernel's own RREF (a subspace has one).  ``class_of`` reduces a
closed vector by that image and reads its coordinates at the representatives'
pivots; ``cup`` sums structure constants [rep_i * rep_j], each computed once
through ``class_of``; ``is_exact`` solves d(w) = z with free variables pinned
to zero; ``integrate`` evaluates a top class on a declared volume monomial,
scaled by the group order of an invariant ring.  A pairing into a
one-dimensional H^n reads entry (j, l) as lam(rep_j * rep_l), lam(v) being v
reduced by the image at the representative's pivot (v's coordinate when v is
closed), and checks only k <= n/2: degree n - k pairs by the transpose of k.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .algebra import AlgebraSpec, Element, Monomial, monomial_degree
from .chains import FreeSlices, Slices
from .errors import (
    CapTooLow,
    DegreeOverflow,
    NoTopDeclared,
    NotClosed,
    ParseError,
)
from .linalg import Echelon, Vec, bilinear, dot, kernel_image, mat_vec, span, unit_echelon, vec_add
from .scalars import CycField, CycScalar


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


class BettiNumbers(Sequence):
    """b_0, ..., b_max of a ring, each computed on first read; equal to the list of them.

    ``CohomologyRing.betti`` makes one per read: kept on the ring, a view would
    make a reference cycle that only the cycle collector frees."""

    def __init__(self, ring: "CohomologyRing"):
        self._ring = ring

    def __len__(self) -> int:
        return self._ring.max_degree + 1

    def __getitem__(self, k):
        # k as a list reads it: negatives count from the end, IndexError past it
        return list(self)[k] if isinstance(k, slice) else len(self._ring.reps(range(len(self))[k]))

    def __eq__(self, other):
        return list(self) == (list(other) if isinstance(other, BettiNumbers) else other)

    def __repr__(self) -> str:
        return repr(list(self))


class CohomologyRing:
    """Betti numbers, canonical representatives and cup products, per degree on first read."""

    def __init__(self, slices: Slices, max_degree: int,
                 volume: Optional[Monomial] = None, group_order: int = 1):
        if max_degree < 0:
            raise ParseError("the max degree must not be negative", max_degree=max_degree)
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
            self.top_degree = monomial_degree(spec, volume)
        # k -> (ker d_k, im d_k), eliminated on first use; d_{-1} is the zero map
        self._d: Dict[int, Tuple[Echelon, Echelon]] = {
            -1: (Echelon(self.field), Echelon(self.field))}
        # k -> (representatives of H^k, their echelon), on first read
        self._degrees: Dict[int, Tuple[List[Vec], Echelon]] = {}
        # (p, q) -> i -> j -> coords of [rep_i * rep_j], filled on first use
        self._cup = defaultdict(lambda: defaultdict(dict))
        # (degree, q, coords) of a class u -> span of u * H^q, on first use
        self._spans: Dict[tuple, Tuple[Echelon, List[Vec]]] = {}

    betti = property(BettiNumbers)  # a fresh view per read

    def _kernel_image(self, k: int) -> Tuple[Echelon, Echelon]:
        hit = self._d.get(k)
        if hit is None:
            if self.slices.zero_d:  # d = 0 read from the spec: all of the slice, no image
                hit = unit_echelon(self.field, self.slices.dim(k)), Echelon(self.field)
            else:
                hit = kernel_image(self.field, self.slices.dim(k),
                                   lambda i: self.slices.d_col(k, i))
            self._d[k] = hit
        return hit

    def image(self, k: int) -> Echelon:
        """The RREF of im d_{k-1} in degree k."""
        return self._kernel_image(k - 1)[1]

    def _degree(self, k: int) -> Tuple[List[Vec], Echelon]:
        hit = self._degrees.get(k)
        if hit is None:
            image, rep_echelon = self.image(k), self._kernel_image(k)[0]
            if image.rank:  # with no image the kernel's RREF is already the answer
                residuals = (image.reduce(kvec)[0] for kvec in rep_echelon.basis_rows())
                rep_echelon = span(self.field, (r for r in residuals if r))
            hit = self._degrees[k] = (rep_echelon.basis_rows(), rep_echelon)
        return hit

    # -- classes ---------------------------------------------------------

    def reps(self, k: int) -> List[Vec]:
        return self._degree(k)[0]

    def rep_class(self, k: int, j: int) -> CohomClass:
        return CohomClass(self, k, {j: self.field.one})

    def rep_combination(self, k: int, coords: Vec) -> Vec:
        return mat_vec(self.reps(k), coords)

    def _closed(self, z: Union[Element, Vec], degree: Optional[int],
                overflow: str) -> Tuple[int, Vec]:
        """The degree and slice vector of a closed input, Element or vector.

        Raises DegreeOverflow, with the caller's message, below 0 or beyond the
        computed range, and NotClosed with d(z) as the witness.
        """
        if isinstance(z, Element):
            degree, z = z.degree, self.slices.from_element(z)
        elif degree is None:
            raise ValueError("degree required for coordinate-vector input")
        if not 0 <= degree <= self.max_degree:
            raise DegreeOverflow(overflow, degree=degree)
        dz = self.slices.d_vec(degree, z)
        if dz:
            raise NotClosed("element is not closed",
                            differential=self.slices.to_element(degree + 1, dz).render())
        return degree, z

    def class_of(self, z: Union[Element, Vec], degree: Optional[int] = None) -> CohomClass:
        """Coordinates of a closed element; the zero vector iff it is exact."""
        degree, vec = self._closed(z, degree, "class degree outside the computed range")
        if self.slices.zero_d:  # unit representatives, no image: what coordinates() reads off
            return CohomClass(self, degree, {i: vec[i] for i in sorted(vec)})
        # The representatives vanish at the image's pivots, so reducing by
        # the image leaves exactly the combination of representatives.
        coords = self._degree(degree)[1].coordinates(self.image(degree).reduce(vec)[0])
        if coords is None:
            raise NotClosed("element is not in ker(d) + im(d); internal inconsistency")
        return CohomClass(self, degree, coords)

    def cup(self, u: CohomClass, v: CohomClass) -> CohomClass:
        """The bilinear sum of u_i v_j [rep_i rep_j] over the structure constants."""
        p, q = u.degree, v.degree
        if p + q > self.max_degree:
            raise DegreeOverflow("cup product lands beyond the computed range",
                                 degree=p + q)
        out = bilinear(self._cup[p, q], u.coords, v.coords, lambda i, j: self.class_of(
            self.slices.mul_vec(p, self.reps(p)[i], q, self.reps(q)[j]), p + q).coords)
        return CohomClass(self, p + q, out)

    def cup_span(self, u: CohomClass, q: int) -> Tuple[Echelon, List[Vec]]:
        """``class_span`` of u * H^q over the representatives, built once and shared.

        The growing classes are kept as coordinates: classes would point back
        at the ring and keep it alive until the cycle collector runs.
        """
        key = (u.degree, q, frozenset(u.coords.items()))
        piece = self._spans.get(key)
        if piece is None:
            js = range(self.betti[q]) if 0 <= q <= self.max_degree and not u.is_zero() else ()
            ech, grew = class_span(self.field, (self.cup(u, self.rep_class(q, j)) for j in js))
            piece = self._spans[key] = (ech, [cls.coords for cls in grew])
        return piece

    def is_exact(self, z: Union[Element, Vec], degree: Optional[int] = None) -> Optional[Vec]:
        """A canonical w with d(w) = z, or None; z must be closed."""
        degree, vec = self._closed(z, degree, "exactness query outside the computed range")
        if not vec:
            return {}
        return self.image(degree).solve(vec)

    # -- top class and duality --------------------------------------------

    def integrate(self, z: CohomClass) -> CycScalar:
        """Coefficient of the class on the volume's normal-form monomial, times the group order.

        Used only for non-vanishing decisions; the sign is fixed by the spec's
        generator order, not by the order the volume was declared in.
        """
        if self.volume is None:
            raise NoTopDeclared("no volume monomial declared for this ring")
        if z.degree != self.top_degree:
            raise DegreeOverflow("integration needs a top-degree class",
                                 degree=z.degree, top=self.top_degree)
        return z.rep_element().coefficient(self.volume) * self.field.rational(self.group_order)

    def pairing_nondegenerate(self, n: int) -> bool:
        if n < 0:
            raise ParseError("the pairing degree must not be negative", pairing=n)
        if n > self.max_degree:
            raise DegreeOverflow("pairing degree beyond the computed range", degree=n)
        if self.betti[n] != 1 or any(self.betti[k] != self.betti[n - k] for k in range(n + 1)):
            return False
        image, p, one = self.image(n), min(self.reps(n)[0]), self.field.one
        # e_i with i off the image's pivots is already reduced: lam is 0 there unless i = p
        lam = {i: c for i in (p, *image.pivots()) if (c := image.reduce({i: one})[0].get(p))}
        for k in range(n // 2 + 1):
            rows = ({l: c for l, rep_l in enumerate(self.reps(n - k)) if not (c := dot(
                self.field, lam, self.slices.mul_vec(k, rep_j, n - k, rep_l))).is_zero()}
                for rep_j in self.reps(k))
            if span(self.field, rows).rank != self.betti[k]:
                return False
        return True


def class_span(field: CycField,
               classes: Iterable[CohomClass]) -> Tuple[Echelon, List[CohomClass]]:
    """Echelon of the classes' span and, in order, the classes that grew it.

    A span has one RREF, so membership asked of this echelon is the same
    whichever spanning classes built it.
    """
    ech = Echelon(field)
    grew = [cls for cls in classes if not cls.is_zero() and ech.add(cls.coords)]
    return ech, grew


def cohomology(spec: AlgebraSpec, max_degree: int,
               volume: Optional[Monomial] = None) -> CohomologyRing:
    """Cohomology ring of a spec through the given degree."""
    return CohomologyRing(FreeSlices(spec), max_degree, volume=volume)
