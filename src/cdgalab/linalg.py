"""Sparse exact row reduction over a cyclotomic field.

Vectors are dicts ``{column index: CycScalar}`` with no zero entries.  The
pivot policy is fixed everywhere: a row's pivot is its smallest column index
and rows are kept fully reduced (RREF), so coset representatives, kernel
bases and solutions of linear systems are canonical and reproducible.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .scalars import CycField, CycScalar

Vec = dict


def vec_add(a: Vec, b: Vec, coeff: Optional[CycScalar] = None) -> Vec:
    out = dict(a)
    for col, val in b.items():
        v = val if coeff is None else coeff * val
        cur = out.get(col)
        s = v if cur is None else cur + v
        if s.is_zero():
            out.pop(col, None)
        else:
            out[col] = s
    return out


def vec_scale(a: Vec, coeff: CycScalar) -> Vec:
    if coeff.is_zero():
        return {}
    return {col: coeff * val for col, val in a.items()}


def mat_vec(cols: Sequence[Vec], vec: Vec) -> Vec:
    """The sparse matrix with columns ``cols`` applied to ``vec``."""
    out: Vec = {}
    for i, c in vec.items():
        for j, v in cols[i].items():
            s = out.get(j)
            s = c * v if s is None else s + c * v
            if s.is_zero():
                out.pop(j, None)
            else:
                out[j] = s
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
        self.rows: list = []  # (pivot col, row vec, source vec)
        self._pivot_index: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivots(self):
        return [p for p, _, _ in self.rows]

    def reduce(self, row: Vec, source: Optional[Vec] = None):
        """Eliminate all pivot coordinates; returns (residual, source residual)."""
        row = dict(row)
        src = dict(source) if source is not None else None
        # Iterate pivots in ascending order so elimination is deterministic.
        while True:
            hit = None
            for col in row:
                idx = self._pivot_index.get(col)
                if idx is not None and (hit is None or col < hit[0]):
                    hit = (col, idx)
            if hit is None:
                break
            col, idx = hit
            _, prow, psrc = self.rows[idx]
            c = -row[col]
            row = vec_add(row, prow, c)
            if src is not None and psrc is not None:
                src = vec_add(src, psrc, c)
        return row, src

    def add(self, row: Vec, source: Optional[Vec] = None) -> bool:
        """Insert a row; returns True if rank grew."""
        row, src = self.reduce(row, source)
        if not row:
            return False
        pivot = min(row)
        inv = row[pivot].inverse()
        row = vec_scale(row, inv)
        if src is not None:
            src = vec_scale(src, inv)
        # Back-substitute into existing rows to keep the basis fully reduced.
        for i, (p, prow, psrc) in enumerate(self.rows):
            c = prow.get(pivot)
            if c is not None:
                nrow = vec_add(prow, row, -c)
                nsrc = vec_add(psrc, src, -c) if (psrc is not None and src is not None) else psrc
                self.rows[i] = (p, nrow, nsrc)
        self.rows.append((pivot, row, src))
        self.rows.sort(key=lambda r: r[0])
        self._pivot_index = {p: i for i, (p, _, _) in enumerate(self.rows)}
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

    def basis_rows(self):
        return [row for _, row, _ in self.rows]


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
        grew = image.add(col, source={i: one})
        if not grew:
            src = image.solve(col)
            combo = dict(src) if src else {}
            cur = combo.get(i, field.zero) - one
            if cur.is_zero():
                combo.pop(i, None)
            else:
                combo[i] = cur
            kernel.add(combo)
    return kernel, image
