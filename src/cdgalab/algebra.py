"""Finitely presented graded-commutative differential algebras.

An :class:`AlgebraSpec` fixes a cyclotomic coefficient field, an ordered list
of generators, a differential on generators, a list of homogeneous relations
and a degree cap.  Elements are sparse sums of normal-form monomials; the
product of two monomials is the normal form of their concatenated words, and
its Koszul sign is the parity of the odd-generator transpositions needed to
sort it.  When every relation is one monomial, a slice's basis is its standard
monomials (no relation monomial divides them) and other monomials are zero;
else each degree's ideal slice is row reduced.  Every element is stored as the
canonical coset representative, and equality is a coefficient comparison.

A spec validates on construction and is immutable after it; per-degree bases
and ideal echelons are cached inside the spec.  ``AlgebraSpec.adjoin`` returns
a new spec with generators appended and leaves the old one untouched.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    BadDifferentialDegree,
    CapExceeded,
    CapTooLow,
    D2Nonzero,
    IdealNotStable,
    InhomogeneousElement,
    InhomogeneousRelation,
    NoConjugateDeclared,
    ParentMismatch,
    ParseError,
    TruncatedOperand,
)
from .linalg import Echelon, vec_add, vec_iadd
from .scalars import CycField, CycScalar

# A monomial is the sorted tuple of its generator indices, each repeated by its
# exponent: x0^2*x3 is (0, 0, 3).  The empty tuple is the unit.
Monomial = Tuple[int, ...]
UNIT: Monomial = ()


@dataclass(frozen=True)
class GeneratorDecl:
    name: str
    degree: int
    conjugate_of: Optional[str] = None


def monomial_degree(spec: "AlgebraSpec", m: Monomial) -> int:
    return sum(spec.generators[g].degree for g in m)


def monomial_names(spec: "AlgebraSpec", m: Monomial) -> Tuple[str, ...]:
    """Generator names of a monomial in normal order, each repeated by its exponent."""
    return tuple(spec.generators[g].name for g in m)


def normal_form(spec: "AlgebraSpec", word: Sequence[int]):
    """Sort a word of generator indices into its monomial, with the Koszul sign.

    Returns (sign, monomial), or None if an odd generator repeats; the product of
    m1 and m2 is the normal form of ``m1 + m2``.  One pass keeps a bit per odd letter
    read: a set bit at g is a repeat, else g adds an inversion per set bit above it.
    """
    seen = inversions = 0
    for g in word:
        if spec._odd[g]:
            if (above := seen >> g) & 1:
                return None
            inversions += above.bit_count()
            seen |= 1 << g
    return (-1 if inversions & 1 else 1), tuple(sorted(word))


def word_terms(spec: "AlgebraSpec", sign: int, left: Monomial,
               terms: Dict[Monomial, CycScalar], right: Monomial) -> Dict[Monomial, CycScalar]:
    """sign * left * terms * right in normal form; distinct terms give distinct words."""
    out: Dict[Monomial, CycScalar] = {}
    for mono, c in terms.items():
        hit = normal_form(spec, left + mono + right)
        if hit is not None:
            out[hit[1]] = c if sign * hit[0] > 0 else -c
    return out


class Element:
    """A sparse homogeneous element of an AlgebraSpec, in canonical form."""

    __slots__ = ("parent", "degree", "terms", "truncated")

    def __init__(self, parent: "AlgebraSpec", degree: int, terms: Dict[Monomial, CycScalar],
                 truncated: bool = False, _reduced: bool = False):
        self.parent = parent
        self.degree = degree
        if not _reduced:  # else built from a Vec, a sum or an Element, with no zero term
            if terms and parent.relations:
                terms = parent._reduce_terms(degree, terms)
            terms = {m: c for m, c in terms.items() if not c.is_zero()}
        self.terms = terms  # ``adjoin`` shares it: nothing writes to an Element's terms
        self.truncated = truncated

    # -- basics --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _guard(self, other: Optional["Element"] = None):
        if self.truncated or (other is not None and other.truncated):
            raise TruncatedOperand("refusing a cap-truncated element")
        if other is not None and other.parent is not self.parent:
            raise ParentMismatch("elements belong to different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._guard(other)
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise ParseError("cannot add elements of different degrees",
                             left=self.degree, right=other.degree)
        deg = other.degree if self.is_zero() else self.degree
        return Element(self.parent, deg, vec_add(self.terms, other.terms), _reduced=True)

    def __neg__(self) -> "Element":
        return Element(self.parent, self.degree,
                       {m: -c for m, c in self.terms.items()}, _reduced=True)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, coeff) -> "Element":
        c = coeff if isinstance(coeff, CycScalar) else self.parent.field.rational(coeff)
        if c.is_zero():
            return self.parent.zero(self.degree)
        return Element(self.parent, self.degree,
                       {m: c * v for m, v in self.terms.items()}, _reduced=True)

    def __mul__(self, other: "Element") -> "Element":
        self._guard(other)
        spec = self.parent
        deg = self.degree + other.degree
        if self.is_zero() or other.is_zero():
            return spec.zero(deg)
        if deg > spec.degree_cap:
            return Element(spec, deg, {}, truncated=True, _reduced=True)
        acc: Dict[Monomial, CycScalar] = {}
        for m1, c1 in self.terms.items():
            vec_iadd(acc, word_terms(spec, 1, m1, other.terms, UNIT), c1)
        return Element(spec, deg, acc)

    def d(self) -> "Element":
        """Leibniz extension of the generator differential."""
        self._guard()
        spec = self.parent
        deg = self.degree + 1
        if deg > spec.degree_cap:
            return Element(spec, deg, {}, truncated=True, _reduced=True)
        acc: Dict[Monomial, CycScalar] = {}
        for m, c in self.terms.items():
            vec_iadd(acc, spec._d_monomial(m), c)
        return Element(spec, deg, acc)

    def conj(self) -> "Element":
        """Swap conjugate generator pairs and conjugate all coefficients."""
        self._guard()
        spec = self.parent
        # The partner map is a bijection on generators, so distinct
        # monomials map to distinct monomials and no terms collide.
        acc: Dict[Monomial, CycScalar] = {}
        for m, c in self.terms.items():
            mapped = []
            for g in m:
                partner = spec._conj_index.get(g)
                if partner is None:
                    raise NoConjugateDeclared(
                        f"generator '{spec.generators[g].name}' has no conjugate partner",
                        generator=spec.generators[g].name)
                mapped.append(partner)
            sign, mono = normal_form(spec, mapped)
            acc[mono] = c.conj() if sign > 0 else -c.conj()
        return Element(spec, self.degree, acc)

    def coefficient(self, mono: Monomial) -> CycScalar:
        return self.terms.get(mono, self.parent.field.zero)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (self.parent is other.parent and self.terms == other.terms
                and (self.degree == other.degree or not self.terms))

    def __hash__(self):
        return hash((id(self.parent), self.degree, tuple(sorted(self.terms.items(),
                                                                key=lambda kv: kv[0]))))

    def render(self) -> str:
        if not self.terms:
            return "0"
        spec = self.parent
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            runs = ((g, len(list(run))) for g, run in groupby(mono))
            names = "*".join(
                spec.generators[g].name + (f"^{e}" if e > 1 else "")
                for g, e in runs) or "1"
            parts.append(f"({c})*{names}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<Element deg={self.degree}: {self.render()}>"


@dataclass
class ValidationFlags:
    is_minimal: bool
    is_connected: bool
    has_odd_only_generators: bool


class AlgebraSpec:
    """A finitely presented graded-commutative differential algebra."""

    def __init__(self, field: CycField, generators: Sequence[GeneratorDecl],
                 differential: Optional[Dict[str, "ElementData"]] = None,
                 relations: Optional[Sequence["ElementData"]] = None,
                 degree_cap: Optional[int] = None):
        self.field = field
        self.generators: Tuple[GeneratorDecl, ...] = tuple(generators)
        self.index: Dict[str, int] = {g.name: i for i, g in enumerate(self.generators)}
        if len(self.index) != len(self.generators):
            raise ParseError("generator names must be unique")
        self._odd: Tuple[int, ...] = tuple(g.degree % 2 for g in self.generators)
        for g in self.generators:
            if g.degree < 1:
                raise ParseError(f"generator '{g.name}' must have positive degree")
        self._conj_index: Dict[int, int] = {}
        for i, g in enumerate(self.generators):
            if g.conjugate_of is not None:
                if g.conjugate_of not in self.index:
                    raise ParseError(f"unknown conjugate partner '{g.conjugate_of}'")
                j = self.index[g.conjugate_of]
                if j == i:
                    raise ParseError(f"generator '{g.name}' cannot be its own conjugate")
                if self.generators[j].degree != g.degree:
                    raise ParseError("conjugate partners must have equal degree",
                                     generator=g.name)
                self._conj_index[i] = j
                self._conj_index.setdefault(j, i)
        for i, j in list(self._conj_index.items()):
            if self._conj_index.get(j) != i:
                raise ParseError("conjugate pairing must be a symmetric involution")
        if degree_cap is None:
            if any(g.degree % 2 == 0 for g in self.generators):
                raise ParseError("degree_cap is mandatory when even-degree generators exist")
            degrees = [g.degree for g in self.generators]
            degree_cap = max(sum(degrees) + 1, max(degrees, default=0) + 2)
        if degree_cap < 1:
            raise ParseError("degree_cap must be positive")
        self.degree_cap = degree_cap
        self._free_basis_cache: Dict[int, List[Monomial]] = {}
        self._ideal_cache: Dict[int, Echelon] = {}
        self._basis_cache: Dict[int, List[Monomial]] = {}
        self._index_cache: Dict[int, Dict[Monomial, int]] = {}
        self._d_mono_cache: Dict[Monomial, Dict[Monomial, CycScalar]] = {}
        self.differential: Dict[int, Element] = {}

        rel_elems = []
        for raw in relations or ():
            try:
                rel = self.element(raw, reduce=False)
            except InhomogeneousElement as exc:
                raise InhomogeneousRelation("relations must be homogeneous",
                                            **exc.details) from exc
            if rel.is_zero():
                continue
            rel_elems.append(rel)
        self.relations: Tuple[Element, ...] = tuple(rel_elems)
        # Relation monomials by first generator as a 1-tuple (the unit by ()), each
        # without it; None if a relation has two or more terms (the ideal is eliminated).
        monos = sorted(m for rel in rel_elems for m in rel.terms)
        self._tails: Optional[Dict[Monomial, List[Monomial]]] = None
        if len(monos) == len(rel_elems):
            self._tails = {g: [m[1:] for m in run] for g, run in groupby(monos, lambda m: m[:1])}
        # Relation list changed after elements above were built unreduced; any
        # element constructed from here on is reduced against the ideal.
        self._put_differentials(differential or {})
        self.validate()

    def adjoin(self, generators: Sequence[GeneratorDecl], differential: Dict[str, Element],
               degree_cap: Optional[int] = None) -> "AlgebraSpec":
        """A new spec with ``generators`` appended, d of each new name an Element of
        this spec, which is left unchanged.  Old generators keep their indices, so
        d of an old monomial, d^2 on old generators and the bases below the lowest
        new degree carry over; relations are checked again under the new cap."""
        for img in differential.values():
            self.zero()._guard(img)  # refuses a cap-truncated or foreign image
        first = len(self.generators)
        new = type(self)(self.field, self.generators + tuple(generators),
                         degree_cap=self.degree_cap if degree_cap is None else degree_cap)
        low = min((g.degree for g in new.generators[first:]), default=new.degree_cap + 1)
        for cache in ("_free_basis_cache", "_ideal_cache", "_basis_cache", "_index_cache"):
            setattr(new, cache, {k: v for k, v in getattr(self, cache).items() if k < low})
        new._d_mono_cache = dict(self._d_mono_cache)
        new.relations = tuple(Element(new, r.degree, r.terms, _reduced=True)
                              for r in self.relations)
        new._tails = self._tails
        new.differential = {gi: Element(new, img.degree, img.terms, _reduced=True)
                            for gi, img in self.differential.items()}
        new._put_differentials({name: Element(new, img.degree, img.terms)
                                for name, img in differential.items()}, first)
        return new.validate(first)

    def _put_differentials(self, differential: Dict[str, "ElementData"], first: int = 0):
        """Record d of generators from index ``first`` on, checking each degree."""
        for name, raw in differential.items():
            gi = self.index.get(name, -1)
            if gi < first:
                raise ParseError(f"differential given for unknown generator '{name}'")
            img = self.element(raw)
            if not img.is_zero() and img.degree != self.generators[gi].degree + 1:
                raise BadDifferentialDegree(
                    f"d({name}) must have degree {self.generators[gi].degree + 1}",
                    generator=name, got=img.degree)
            if not img.is_zero():
                self.differential[gi] = img

    # -- construction helpers ------------------------------------------

    def element(self, data, reduce: bool = True) -> Element:
        """Build an element from (coeff, (generator name, ...)) term pairs, or carry
        over an Element of this spec or of one whose generators prefix this one's.
        Relations are read with ``reduce=False``, before their ideal exists."""
        if isinstance(data, Element):
            src = data.parent
            if src is self:
                return data
            if src.field is not self.field or \
                    self.generators[:len(src.generators)] != src.generators:
                raise ParentMismatch("element belongs to a different algebra")
            data._guard()
            if data.terms and data.degree > self.degree_cap:
                raise CapExceeded("term degree exceeds cap", degree=data.degree,
                                  cap=self.degree_cap)
            return Element(self, data.degree, data.terms)
        terms: Dict[Monomial, CycScalar] = {}
        degree = None
        for coeff, names in data:
            c = coeff if isinstance(coeff, CycScalar) else self.field.rational(coeff)
            word = []
            for n in names:
                if n not in self.index:
                    raise ParseError(f"unknown generator '{n}'")
                word.append(self.index[n])
            hit = normal_form(self, word)
            if hit is None:
                continue  # odd square: the term is zero
            sign, mono = hit
            if sign < 0:
                c = -c
            deg = monomial_degree(self, mono)
            if degree is None:
                degree = deg
            elif deg != degree and not c.is_zero():
                raise InhomogeneousElement("element has terms of mixed degree",
                                           degrees=[degree, deg])
            if deg > self.degree_cap:
                raise CapExceeded("term degree exceeds cap", degree=deg,
                                  cap=self.degree_cap)
            if not c.is_zero():
                vec_iadd(terms, {mono: c})
        if degree is None:
            degree = 0
        return Element(self, degree, terms, _reduced=not reduce)

    def zero(self, degree: int = 0) -> Element:
        return Element(self, degree, {}, _reduced=True)

    def one(self) -> Element:
        return Element(self, 0, {UNIT: self.field.one})  # 0 in the zero algebra

    def gen(self, name: str) -> Element:
        gi = self.index[name]
        return Element(self, self.generators[gi].degree,
                       {(gi,): self.field.one})

    # -- bases and relation ideal --------------------------------------

    def free_basis(self, k: int) -> List[Monomial]:
        """All normal-form monomials of degree k, in the fixed order."""
        if k not in self._free_basis_cache:
            self._free_basis_cache[k] = self._monomials(k, self.free_basis, {})
        return self._free_basis_cache[k]

    def _monomials(self, k: int, lower_of, tails) -> List[Monomial]:
        """The degree-k monomials that no relation monomial divides, built on the lower
        ones ``lower_of`` gives; ``tails[(g,)]`` holds each one starting at g without g."""
        if k > self.degree_cap:
            raise CapExceeded(f"degree {k} exceeds cap {self.degree_cap}",
                              degree=k, cap=self.degree_cap)
        # A degree-k monomial is its smallest generator g followed by a
        # degree-(k - |g|) monomial that starts after g, or at g when g is
        # even.  Those form a suffix of the sorted lower basis, so taking g
        # in index order yields the basis already sorted, and the
        # recursion goes one level per degree.  No relation divides the
        # lower monomial m, so one divides (g,) + m only if it starts at g
        # and its tail t divides m: no generator has a higher power in t.
        out: List[Monomial] = [UNIT] if k == 0 and UNIT not in tails else []
        for g, decl in enumerate(self.generators):
            rest = k - decl.degree
            if rest < 0:
                continue
            lower, cut = lower_of(rest), tails.get((g,))
            start = bisect_left(lower, (g + self._odd[g],)) if rest else 0
            out.extend((g,) + m for m in lower[start:]
                       if not cut or not any(all(t.count(h) <= m.count(h) for h in t)
                                             for t in cut))
        return out

    def _ideal_echelon(self, k: int) -> Echelon:
        if k not in self._ideal_cache:
            ech = Echelon(self.field)
            index = {m: i for i, m in enumerate(self.free_basis(k))}
            for rel in self.relations:
                if rel.degree > k:
                    continue
                for m in self.free_basis(k - rel.degree):
                    row = word_terms(self, 1, m, rel.terms, UNIT)
                    if row:
                        ech.add({index[mono]: c for mono, c in row.items()})
            self._ideal_cache[k] = ech
        return self._ideal_cache[k]

    def basis(self, k: int) -> List[Monomial]:
        """Monomial basis of the degree-k slice of the quotient algebra."""
        if k not in self._basis_cache:
            if self._tails is not None:
                self._basis_cache[k] = self._monomials(k, self.basis, self._tails)
            else:
                pivots = set(self._ideal_echelon(k).pivots())
                self._basis_cache[k] = [m for i, m in enumerate(self.free_basis(k))
                                        if i not in pivots]
        return self._basis_cache[k]

    def _index(self, k: int) -> Dict[Monomial, int]:
        """{monomial: position} in the basis degree-k vectors are first written on: the
        free basis if the ideal is eliminated, else the quotient's (a monomial outside is 0)."""
        if k not in self._index_cache:
            basis = self.free_basis(k) if self._tails is None else self.basis(k)
            self._index_cache[k] = {m: i for i, m in enumerate(basis)}
        return self._index_cache[k]

    def _reduce_terms(self, degree: int, terms: Dict[Monomial, CycScalar]):
        if not self.relations or degree > self.degree_cap:
            return terms
        index = self._index(degree)
        if self._tails is not None:
            return {m: c for m, c in terms.items() if m in index}
        ech = self._ideal_echelon(degree)
        if ech.rank == 0:
            return terms
        vec = {index[m]: c for m, c in terms.items() if not c.is_zero()}
        residual, _ = ech.reduce(vec)
        basis = self.free_basis(degree)
        return {basis[i]: c for i, c in residual.items()}

    def _d_monomial(self, m: Monomial) -> Dict[Monomial, CycScalar]:
        cached = self._d_mono_cache.get(m)
        if cached is not None:
            return cached
        acc, parity = {}, 0  # parity: of the odd letters before position j, the Leibniz sign
        for j, g in enumerate(m):
            if (dg := self.differential.get(g)) is not None:
                vec_iadd(acc, word_terms(self, -1 if parity else 1, m[:j], dg.terms, m[j + 1:]))
            parity ^= self._odd[g]
        self._d_mono_cache[m] = acc
        return acc

    # -- validation -----------------------------------------------------

    def validate(self, first: int = 0) -> "AlgebraSpec":
        """Check the cap, d^2 = 0 and ideal stability; record flags.  d^2 is checked
        from generator ``first`` on: ``adjoin``'s source checked the ones before."""
        max_gen = max((g.degree for g in self.generators), default=0)
        if self.degree_cap < max_gen + 2:
            raise CapTooLow(
                "degree_cap must reach two above the highest generator degree "
                "so that d^2 can be verified",
                cap=self.degree_cap, needed=max_gen + 2)
        for gi, img in self.differential.items():
            if gi >= first and not (dd := img.d()).is_zero():
                raise D2Nonzero(
                    f"d^2 is nonzero on generator '{self.generators[gi].name}'",
                    generator=self.generators[gi].name, witness=dd.render())
        for rel in self.relations:
            if rel.degree + 1 <= self.degree_cap and not rel.d().is_zero():
                raise IdealNotStable(
                    "the differential of a relation is not in the relation ideal",
                    relation=rel.render(), degree=rel.degree + 1)
        is_minimal = not self.relations and all(
            all(len(m) >= 2 for m in img.terms)
            for img in self.differential.values())
        is_connected = len(self.basis(0)) == 1
        odd_only = all(g.degree % 2 for g in self.generators)
        self.flags = ValidationFlags(is_minimal, is_connected, odd_only)
        return self

    def __repr__(self):
        gens = ",".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"AlgebraSpec(zeta={self.field.modulus}, cap={self.degree_cap}, [{gens}])"


ElementData = object  # Element or iterable of (coeff, names) pairs
