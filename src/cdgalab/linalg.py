"""Sparse exact row reduction over a cyclotomic field.

Vectors are dicts ``{column index: CycScalar}`` with no zero entries.  The
pivot policy is fixed everywhere: a row's pivot is its smallest column index
and rows are kept fully reduced (RREF), so coset representatives, kernel
bases and solutions of linear systems are canonical and reproducible.

Work whose result is known is skipped: a zero coefficient adds nothing, a
coefficient 1 multiplies nothing, a fresh entry (a product of nonzero field
elements) is stored without a zero test, a row whose lead is already 1
is stored without inverting or scaling it, the entry an elimination
step clears (c + (-c) * 1 at a stored row's pivot) is dropped, not summed,
and a zero column of a map enters its kernel as e_i without elimination.
A unit row (exactly e_p) is never added: eliminating against it pops the
entry at p, back-substituting it drops p from the rows that hold it, and
when all rows are unit rows a vector's coordinates are read off by position.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, Optional, Sequence

from .scalars import CycField, CycScalar

Vec = dict


def vec_iadd(acc: Vec, b: Vec, coeff: Optional[CycScalar] = None) -> Vec:
    """acc += coeff * b in place (coeff None means 1), dropping zero entries."""
    if coeff is not None and coeff.den == 1 and coeff.num == coeff.field.one.num:
        coeff = None
    elif coeff is not None and not any(coeff.num):
        return acc
    for col, val in b.items():
        v = val if coeff is None else coeff * val
        cur = acc.get(col)
        if cur is None:
            acc[col] = v
        elif (s := cur + v).is_zero():
            del acc[col]
        else:
            acc[col] = s
    return acc


def vec_add(a: Vec, b: Vec, coeff: Optional[CycScalar] = None) -> Vec:
    return vec_iadd(dict(a), b, coeff)


def vec_scale(a: Vec, coeff: CycScalar) -> Vec:
    if coeff.is_zero():
        return {}
    return {col: coeff * val for col, val in a.items()}


def dot(field: CycField, a: Vec, b: Vec) -> CycScalar:
    """The functional a applied to b: the sum of a[i] * b[i]."""
    return sum((c * b[i] for i, c in a.items() if i in b), field.zero)


def mat_vec(cols: Sequence[Vec], vec: Vec) -> Vec:
    """The sparse matrix with columns ``cols`` applied to ``vec``."""
    out: Vec = {}
    for i, c in vec.items():
        vec_iadd(out, cols[i], c)
    return out


def bilinear(table, u: Vec, v: Vec, fill: Callable[[int, int], Vec]) -> Vec:
    """sum over i, j of u_i v_j table[i][j]; a missing entry is fill(i, j), stored."""
    out: Vec = {}
    for i, a in u.items():
        entries = table[i]
        for j, b in v.items():
            c = entries.get(j)
            if c is None:
                c = entries[j] = fill(i, j)
            vec_iadd(out, c, a * b)
    return out


class Echelon:
    """A reduced row-echelon accumulator with optional source bookkeeping.

    ``add(row, tag)`` reduces the row against the current basis; a nonzero
    residual is normalized, back-substituted into earlier rows and stored.
    When source vectors are supplied they are carried through the same
    operations, so that each stored row knows the combination of inputs that
    produced it and ``solve`` can return an explicit preimage.
    """

    def __init__(self, field: CycField):
        self.field = field
        self._rows: dict = {}  # pivot col -> (row vec, source vec)
        self._holders = defaultdict(set)  # non-pivot col -> pivots whose row holds it
        self._positions = None  # pivot -> position when all rows are unit rows, else False

    @property
    def rank(self) -> int:
        return len(self._rows)

    def copy(self) -> "Echelon":
        """The same rows, own holder sets: inserts replace rows but edit holder sets."""
        out = Echelon(self.field)
        out._rows = dict(self._rows)
        out._holders = defaultdict(set, {col: set(ps) for col, ps in self._holders.items()})
        out._positions = self._positions  # replaced, never edited, on a mutation
        return out

    def pivots(self):
        return sorted(self._rows)

    def reduce(self, row: Vec, source: Optional[Vec] = None):
        """Eliminate all pivot coordinates; returns (residual, source residual).

        Stored rows are fully reduced, so eliminating one pivot never brings
        in another: each pivot column of the input is cleared exactly once,
        in ascending order, with the input's own coefficient.
        """
        row = dict(row)
        src = dict(source) if source is not None else None
        rows = self._rows
        for col in sorted(col for col in row if col in rows):
            prow, psrc = rows[col]
            c = -row.pop(col)
            if len(prow) > 1:  # a unit row's whole step is the pop
                vec_iadd(row, prow, c)
                del row[col]  # prow is 1 at col: the entry cancels, so it is dropped
            if src is not None and psrc is not None:
                vec_iadd(src, psrc, c)
        return row, src

    def add(self, row: Vec, source: Optional[Vec] = None) -> bool:
        """Insert a row; returns True if rank grew."""
        return self._insert(*self.reduce(row, source))

    def _insert(self, row: Vec, src: Optional[Vec]) -> bool:
        if not row:
            return False
        self._positions = None
        pivot, one = min(row), self.field.one
        if row[pivot] != one:
            inv = row[pivot].inverse()
            row = vec_scale(row, inv)
            row[pivot] = one
            if src is not None:
                src = vec_scale(src, inv)
        # Back-substitute into the rows that hold the new pivot, keeping the RREF.
        holders, others = self._holders, [col for col in row if col != pivot]
        for p in holders.pop(pivot, ()):
            old, psrc = self._rows[p]
            prow = dict(old)
            c = prow.pop(pivot)
            nsrc = vec_add(psrc, src, -c) if (psrc is not None and src is not None) else psrc
            if others:  # a unit row only drops its pivot from the holders
                vec_iadd(prow, row, -c)
                del prow[pivot]  # row is 1 at pivot: the entry cancels, so it is dropped
            self._rows[p] = (prow, nsrc)
            for col in others:
                if col in prow:
                    holders[col].add(p)
                elif col in old:
                    holders[col].discard(p)
        for col in others:
            holders[col].add(pivot)
        self._rows[pivot] = (row, src)
        return True

    def contains(self, row: Vec) -> bool:
        residual, _ = self.reduce(row)
        return not residual

    def solve(self, target: Vec) -> Optional[Vec]:
        """A source vector mapping onto ``target`` under the stored rows, or None.

        Free variables are pinned to zero: the answer is the canonical
        pivot-only solution.
        """
        residual, src = self.reduce(target, source={})
        if residual:
            return None
        return {k: -v for k, v in src.items()} if src else {}

    def coordinates(self, vec: Vec) -> Optional[Vec]:
        """Coordinates of ``vec`` in ``basis_rows()``, or None outside their span.

        A stored row is 1 at its pivot and 0 at every other pivot, so the
        coordinate on row j is the entry of ``vec`` at row j's pivot.  With
        only unit rows, ``vec`` is in their span iff its support is pivots.
        """
        pos = self._positions
        if pos is None:
            pos = self._positions = not any(self._holders.values()) and {
                p: j for j, p in enumerate(self.pivots())}
        if pos:
            return {pos[p]: vec[p] for p in sorted(vec)} if pos.keys() >= vec.keys() else None
        if self.reduce(vec)[0]:
            return None
        return {j: vec[p] for j, p in enumerate(self.pivots()) if p in vec}

    def basis_rows(self):
        return [self._rows[p][0] for p in sorted(self._rows)]


def span(field: CycField, rows: Iterable[Vec]) -> Echelon:
    """The echelon of the span of ``rows``."""
    ech = Echelon(field)
    for row in rows:
        ech.add(row)
    return ech


def unit_echelon(field: CycField, pivots: Iterable[int]) -> Echelon:
    """The span of the unit rows e_p for the distinct p in ``pivots``; range(dim) is all."""
    ech = Echelon(field)
    ech._rows = {p: ({p: field.one}, None) for p in pivots}
    return ech


def kernel_image(field: CycField, dim_src: int, apply: Callable[[int], Vec]):
    """Kernel and image of a linear map given column-by-column.

    Returns ``(kernel, image)`` where ``kernel`` is an Echelon over source
    coordinates (its basis rows are the canonical kernel basis) and ``image``
    is an Echelon over target coordinates whose source bookkeeping yields
    preimages under ``solve``.
    """
    image = Echelon(field)
    kernel = Echelon(field)
    one = field.one
    for i in range(dim_src):
        col = apply(i)
        if not col:
            # Every stored kernel row lies on columns below i, so e_i is reduced,
            # back-substitutes into nothing and holds no other column.
            kernel._rows[i] = ({i: one}, None)
            kernel._positions = None
            continue
        residual, src = image.reduce(col, source={i: one})
        if not image._insert(residual, src):
            kernel.add(src)
    return kernel, image
