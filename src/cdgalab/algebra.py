"""Finitely presented graded-commutative differential algebras.

An :class:`AlgebraSpec` fixes a cyclotomic coefficient field, an ordered list
of generators, a differential on generators, a list of homogeneous relations
and a degree cap.  Elements are sparse sums of normal-form monomials; the
Koszul sign of a product is the parity of the odd-generator transpositions
needed to sort it.  Relations are handled per degree by exact row reduction
of the ideal slice, so every element is stored as the canonical coset
representative and equality is a coefficient comparison.

Everything is immutable after validation; per-degree bases and ideal echelons
are cached inside the spec.
"""

from __future__ import annotations

from dataclasses import dataclass
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

# A monomial is a tuple of (generator index, exponent) pairs, sorted by index,
# with exponents >= 1.  The empty tuple is the unit.
Monomial = Tuple[Tuple[int, int], ...]
UNIT: Monomial = ()


@dataclass(frozen=True)
class GeneratorDecl:
    name: str
    degree: int
    conjugate_of: Optional[str] = None


def monomial_degree(spec: "AlgebraSpec", m: Monomial) -> int:
    return sum(spec.generators[g].degree * e for g, e in m)


def monomial_atoms(spec: "AlgebraSpec", m: Monomial) -> Tuple[int, ...]:
    out: List[int] = []
    for g, e in m:
        out.extend([g] * e)
    return tuple(out)


def monomial_names(spec: "AlgebraSpec", m: Monomial) -> Tuple[str, ...]:
    """Generator names of a monomial in normal order, each repeated by its exponent."""
    return tuple(spec.generators[g].name for g in monomial_atoms(spec, m))


def atoms_to_monomial(atoms: Sequence[int]) -> Monomial:
    out: List[Tuple[int, int]] = []
    for g in sorted(atoms):
        if out and out[-1][0] == g:
            out[-1] = (g, out[-1][1] + 1)
        else:
            out.append((g, 1))
    return tuple(out)


def monomial_mul(spec: "AlgebraSpec", m1: Monomial, m2: Monomial):
    """Normal-form product: (sign, monomial) or None when an odd square occurs."""
    odd1 = [g for g, e in m1 if spec.generators[g].degree % 2]
    odd2 = [g for g, e in m2 if spec.generators[g].degree % 2]
    if set(odd1) & set(odd2):
        return None
    inversions = 0
    for g in odd2:
        inversions += sum(1 for h in odd1 if h > g)
    merged: Dict[int, int] = {}
    for g, e in m1:
        merged[g] = merged.get(g, 0) + e
    for g, e in m2:
        merged[g] = merged.get(g, 0) + e
    mono = tuple(sorted(merged.items()))
    return (-1 if inversions % 2 else 1), mono


class Element:
    """A sparse homogeneous element of an AlgebraSpec, in canonical form."""

    __slots__ = ("parent", "degree", "terms", "truncated")

    def __init__(self, parent: "AlgebraSpec", degree: int, terms: Dict[Monomial, CycScalar],
                 truncated: bool = False, _reduced: bool = False):
        self.parent = parent
        self.degree = degree
        if not _reduced and terms and parent.relations:
            terms = parent._reduce_terms(degree, terms)
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}
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
            # m1 * m2 is injective in m2, so the row's terms never collide.
            row: Dict[Monomial, CycScalar] = {}
            for m2, c2 in other.terms.items():
                hit = monomial_mul(spec, m1, m2)
                if hit is not None:
                    sign, mono = hit
                    row[mono] = c2 if sign > 0 else -c2
            vec_iadd(acc, row, c1)
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
            for g in monomial_atoms(spec, m):
                partner = spec._conj_index.get(g)
                if partner is None:
                    raise NoConjugateDeclared(
                        f"generator '{spec.generators[g].name}' has no conjugate partner",
                        generator=spec.generators[g].name)
                mapped.append(partner)
            sign, mono = atoms_to_monomial_ordered(spec, mapped)
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
        for mono in sorted(self.terms, key=lambda m: monomial_atoms(spec, m)):
            c = self.terms[mono]
            names = "*".join(
                spec.generators[g].name + (f"^{e}" if e > 1 else "")
                for g, e in mono) or "1"
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
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ParseError("generator names must be unique")
        self.index: Dict[str, int] = {g.name: i for i, g in enumerate(self.generators)}
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
            degree_cap = sum(g.degree for g in self.generators) + 1
        if degree_cap < 1:
            raise ParseError("degree_cap must be positive")
        self.degree_cap = degree_cap
        self._free_basis_cache: Dict[int, List[Monomial]] = {}
        self._free_index_cache: Dict[int, Dict[Monomial, int]] = {}
        self._ideal_cache: Dict[int, Echelon] = {}
        self._basis_cache: Dict[int, List[Monomial]] = {}
        self._d_mono_cache: Dict[Monomial, Dict[Monomial, CycScalar]] = {}
        self.relations: Tuple[Element, ...] = ()
        self.differential: Dict[int, Element] = {}
        self._validated = False
        self.flags: Optional[ValidationFlags] = None

        rel_elems = []
        for raw in relations or ():
            try:
                rel = self._element_from_data(raw, reduce=False)
            except InhomogeneousElement as exc:
                raise InhomogeneousRelation("relations must be homogeneous",
                                            **exc.details) from exc
            if rel.is_zero():
                continue
            rel_elems.append(rel)
        self.relations = tuple(rel_elems)
        # Relation list changed after elements above were built unreduced; any
        # element constructed from here on is reduced against the ideal.
        for name, raw in (differential or {}).items():
            if name not in self.index:
                raise ParseError(f"differential given for unknown generator '{name}'")
            gi = self.index[name]
            img = self._element_from_data(raw)
            if not img.is_zero() and img.degree != self.generators[gi].degree + 1:
                raise BadDifferentialDegree(
                    f"d({name}) must have degree {self.generators[gi].degree + 1}",
                    generator=name, got=img.degree)
            if not img.is_zero():
                self.differential[gi] = img

    # -- construction helpers ------------------------------------------

    def _element_from_data(self, data, reduce=True) -> Element:
        """Accepts an Element or a list of (coeff, (name, ...)) term pairs."""
        if isinstance(data, Element):
            if data.parent is not self:
                raise ParentMismatch("element belongs to a different algebra")
            return data
        terms: Dict[Monomial, CycScalar] = {}
        degree = None
        for coeff, names in data:
            c = coeff if isinstance(coeff, CycScalar) else self.field.rational(coeff)
            atoms = []
            for n in names:
                if n not in self.index:
                    raise ParseError(f"unknown generator '{n}'")
                atoms.append(self.index[n])
            hit = atoms_to_monomial_ordered(self, atoms)
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
            vec_iadd(terms, {mono: c})
        if degree is None:
            degree = 0
        return Element(self, degree, terms, _reduced=not reduce)

    def element(self, terms) -> Element:
        """Build an element from (coeff, (generator name, ...)) term pairs."""
        return self._element_from_data(terms)

    def zero(self, degree: int = 0) -> Element:
        return Element(self, degree, {}, _reduced=True)

    def one(self) -> Element:
        return Element(self, 0, {UNIT: self.field.one}, _reduced=True)

    def gen(self, name: str) -> Element:
        gi = self.index[name]
        return Element(self, self.generators[gi].degree,
                       {((gi, 1),): self.field.one})

    # -- bases and relation ideal --------------------------------------

    def free_basis(self, k: int) -> List[Monomial]:
        """All normal-form monomials of degree k, in the fixed order."""
        if k > self.degree_cap:
            raise CapExceeded(f"degree {k} exceeds cap {self.degree_cap}",
                              degree=k, cap=self.degree_cap)
        if k not in self._free_basis_cache:
            out: List[Monomial] = []

            def rec(i: int, remaining: int, acc: List[Tuple[int, int]]):
                if remaining == 0:
                    out.append(tuple(acc))
                    return
                if i == len(self.generators):
                    return
                g = self.generators[i]
                rec(i + 1, remaining, acc)
                max_e = 1 if g.degree % 2 else remaining // g.degree
                for e in range(1, max_e + 1):
                    if g.degree * e <= remaining:
                        acc.append((i, e))
                        rec(i + 1, remaining - g.degree * e, acc)
                        acc.pop()

            rec(0, k, [])
            out.sort(key=lambda m: monomial_atoms(self, m))
            self._free_basis_cache[k] = out
            self._free_index_cache[k] = {m: i for i, m in enumerate(out)}
        return self._free_basis_cache[k]

    def _ideal_echelon(self, k: int) -> Echelon:
        if k not in self._ideal_cache:
            ech = Echelon(self.field)
            basis_idx = None
            for rel in self.relations:
                dr = rel.degree
                if dr > k:
                    continue
                if basis_idx is None:
                    basis_idx = self._free_index(k)
                for m in self.free_basis(k - dr):
                    # m * rm is injective in rm, so the row's terms never collide.
                    row: Dict[int, CycScalar] = {}
                    for rm, rc in rel.terms.items():
                        hit = monomial_mul(self, m, rm)
                        if hit is not None:
                            sign, mono = hit
                            row[basis_idx[mono]] = rc if sign > 0 else -rc
                    if row:
                        ech.add(row)
            self._ideal_cache[k] = ech
        return self._ideal_cache[k]

    def _free_index(self, k: int) -> Dict[Monomial, int]:
        self.free_basis(k)
        return self._free_index_cache[k]

    def basis(self, k: int) -> List[Monomial]:
        """Monomial basis of the degree-k slice of the quotient algebra."""
        if k not in self._basis_cache:
            free = self.free_basis(k)
            if not self.relations:
                self._basis_cache[k] = list(free)
            else:
                pivots = set(self._ideal_echelon(k).pivots())
                self._basis_cache[k] = [m for i, m in enumerate(free) if i not in pivots]
        return self._basis_cache[k]

    def _reduce_terms(self, degree: int, terms: Dict[Monomial, CycScalar]):
        if not self.relations or degree > self.degree_cap:
            return terms
        ech = self._ideal_echelon(degree)
        if ech.rank == 0:
            return terms
        idx = self._free_index(degree)
        vec = {idx[m]: c for m, c in terms.items() if not c.is_zero()}
        residual, _ = ech.reduce(vec)
        basis = self.free_basis(degree)
        return {basis[i]: c for i, c in residual.items()}

    def _d_monomial(self, m: Monomial) -> Dict[Monomial, CycScalar]:
        cached = self._d_mono_cache.get(m)
        if cached is not None:
            return cached
        acc: Dict[Monomial, CycScalar] = {}
        atoms = monomial_atoms(self, m)
        for j, g in enumerate(atoms):
            dg = self.differential.get(g)
            if dg is None:
                continue
            # m is in normal form, so its prefix and suffix atoms already are.
            pre = atoms_to_monomial(atoms[:j])
            suf = atoms_to_monomial(atoms[j + 1:])
            sign = -1 if sum(self.generators[a].degree for a in atoms[:j]) % 2 else 1
            # pre * dm * suf is injective in dm, so the part's terms never collide.
            part: Dict[Monomial, CycScalar] = {}
            for dm, dc in dg.terms.items():
                left = monomial_mul(self, pre, dm)
                if left is None:
                    continue
                s1, m1 = left
                right = monomial_mul(self, m1, suf)
                if right is None:
                    continue
                s2, mono = right
                total = sign * s1 * s2
                part[mono] = dc if total > 0 else -dc
            vec_iadd(acc, part)
        self._d_mono_cache[m] = acc
        return acc

    # -- validation -----------------------------------------------------

    def validate(self) -> "AlgebraSpec":
        """Check d^2 = 0, ideal stability and homogeneity; record flags."""
        max_gen = max((g.degree for g in self.generators), default=0)
        if self.degree_cap < max_gen + 2:
            raise CapTooLow(
                "degree_cap must reach two above the highest generator degree "
                "so that d^2 can be verified",
                cap=self.degree_cap, needed=max_gen + 2)
        for rel in self.relations:
            if rel.degree > self.degree_cap:
                raise CapExceeded("relation degree exceeds cap", degree=rel.degree)
        for gi, img in self.differential.items():
            dd = img.d()
            if not dd.is_zero():
                raise D2Nonzero(
                    f"d^2 is nonzero on generator '{self.generators[gi].name}'",
                    generator=self.generators[gi].name, witness=dd.render())
        for rel in self.relations:
            if rel.degree + 1 > self.degree_cap:
                continue
            acc: Dict[Monomial, CycScalar] = {}
            for mono, dc in rel.terms.items():
                vec_iadd(acc, self._d_monomial(mono), dc)
            reduced = self._reduce_terms(rel.degree + 1, acc)
            if any(not c.is_zero() for c in reduced.values()):
                raise IdealNotStable(
                    "the differential of a relation is not in the relation ideal",
                    relation=rel.render(), degree=rel.degree + 1)
        is_minimal = not self.relations and all(
            all(len(monomial_atoms(self, m)) >= 2 for m in img.terms)
            for img in self.differential.values())
        is_connected = len(self.basis(0)) == 1
        odd_only = all(g.degree % 2 for g in self.generators)
        self.flags = ValidationFlags(is_minimal, is_connected, odd_only)
        self._validated = True
        return self

    @property
    def validated(self) -> bool:
        return self._validated

    def __repr__(self):
        gens = ",".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"AlgebraSpec(zeta={self.field.modulus}, cap={self.degree_cap}, [{gens}])"


def atoms_to_monomial_ordered(spec: AlgebraSpec, atoms: Sequence[int]):
    """Sort an atom sequence into normal form, tracking the Koszul sign.

    Returns (sign, monomial) or None if an odd generator repeats.
    """
    odd = [g for g in atoms if spec.generators[g].degree % 2]
    if len(set(odd)) != len(odd):
        return None
    sign = 1
    for i in range(len(odd)):
        for j in range(i + 1, len(odd)):
            if odd[i] > odd[j]:
                sign = -sign
    return sign, atoms_to_monomial(atoms)


ElementData = object  # Element or iterable of (coeff, names) pairs


def alg_validate(spec: AlgebraSpec) -> AlgebraSpec:
    """Validate a spec in place and return it (module-level convenience)."""
    return spec.validate()
