"""Hard-Lefschetz testing on finite-dimensional cohomology rings.

``lefschetz_test`` checks whether iterated cup product with a chosen
degree-2 class gives isomorphisms H^k -> H^{2n-k} for 0 <= k <= n, with
exact ranks and kernel witnesses.  ``universal_obstruction`` searches for a
class annihilated by every (n-k)-fold product of degree-2 classes: such a
witness lies in the kernel of the iterated Lefschetz map of *every*
degree-2 class, so the property fails universally.

Degree-2 classes are even, hence central, and the cup on H is associative,
so b * c_1 * ... * c_p = b * (c_1 ... c_p), and the search cuts a running
kernel by each p-fold product of H^2 that grows their span, reduced by that span.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import List, Optional

from .cohomology import CohomClass, CohomologyRing
from .errors import BadOmegaDegree, NoTopDeclared, ParseError
from .linalg import Echelon, Vec, kernel_image, mat_vec, span


@dataclass
class DegreeVerdict:
    degree: int
    power: int
    source_dim: int
    target_dim: int
    rank: int
    isomorphism: bool
    kernel: List[CohomClass] = dc_field(default_factory=list)


@dataclass
class LefschetzReport:
    half_dim: int
    omega: CohomClass
    per_degree: List[DegreeVerdict]
    overall: bool

    def verdict(self, k: int) -> DegreeVerdict:
        return self.per_degree[k]


def lefschetz_test(ring: CohomologyRing, omega: CohomClass, n: int) -> LefschetzReport:
    """Exact ranks of L_omega^{n-k}: H^k -> H^{2n-k} for k = 0..n."""
    if n < 0:
        raise ParseError("the half dimension must not be negative", half_dim=n)
    if omega.degree != 2:
        raise BadOmegaDegree("the Lefschetz class must have degree 2",
                             degree=omega.degree)
    if 2 * n > ring.max_degree:
        raise NoTopDeclared("ring not computed through degree 2n", needed=2 * n)
    per_degree: List[DegreeVerdict] = []
    overall = True
    for k in range(n + 1):
        power = n - k
        src = ring.betti[k]
        tgt = ring.betti[2 * n - k]

        def apply(j: int) -> Vec:
            cls = ring.rep_class(k, j)
            for _ in range(power):
                cls = ring.cup(omega, cls)
            return dict(cls.coords)

        kernel, image = kernel_image(ring.field, src, apply)
        rank = image.rank
        iso = (src == tgt) and (rank == src)
        kern = [CohomClass(ring, k, dict(row)) for row in kernel.basis_rows()]
        per_degree.append(DegreeVerdict(k, power, src, tgt, rank, iso, kern))
        overall = overall and iso
    return LefschetzReport(half_dim=n, omega=omega, per_degree=per_degree,
                           overall=overall)


def universal_obstruction(ring: CohomologyRing, k: int,
                          n: Optional[int] = None) -> List[CohomClass]:
    """Basis of {b in H^k : b * c_1 * ... * c_{n-k} = 0 for all c_i in H^2}.

    A nonzero witness defeats the hard-Lefschetz property for every
    degree-2 class at once.  Requires the ring through k + 2(n-k).
    A running kernel K, first H^k, is cut to the part killed by each p-fold
    product that grows their span (built one length at a time, the last lazily).
    It stops when K is empty, the span is all of H^{2p}, or H^{k+2p} = 0 (before
    any cup); a subspace has one RREF, so K's rows are the stacked kernel's, keys ascending.
    """
    if k < 0:
        raise ParseError("the degree must not be negative", degree=k)
    if n is None:
        n = ring.max_degree // 2
    power = n - k
    if power < 0:
        raise BadOmegaDegree("degree exceeds half dimension", degree=k, half_dim=n)
    target_degree = k + 2 * power
    if target_degree > ring.max_degree:
        raise NoTopDeclared("ring not computed far enough for the stacked products",
                            needed=target_degree)
    if power == 0:
        return []  # b -> b is injective
    field = ring.field
    kernel = [ring.rep_class(k, j) for j in range(ring.betti[k])]  # K = H^k, in RREF
    if not (kernel and ring.betti[target_degree]):
        return kernel
    h2 = [ring.rep_class(2, j) for j in range(ring.betti[2])]
    prods = enumerate(h2)  # (last factor's index, product); the last length stays lazy
    for _ in range(power - 1):
        prods = ((j, ring.cup(m, h2[j])) for i, m in list(prods) for j in range(i, len(h2)))
    products, full = Echelon(field), ring.betti[2 * power]
    for _, m in prods:
        row = products.reduce(m.coords)[0]
        if not products._insert(row, None):
            continue  # m lies in the span K already kills
        m = CohomClass(ring, 2 * power, products._rows[min(row)][0])  # lead 1; unit once full
        cut, _ = kernel_image(field, len(kernel), lambda t: ring.cup(kernel[t], m).coords)
        if cut.rank < len(kernel):
            rows = [b.coords for b in kernel]
            kernel = [CohomClass(ring, k, dict(sorted(row.items()))) for row in span(field, (
                mat_vec(rows, c) for c in cut.basis_rows())).basis_rows()]
        if not kernel or products.rank == full:
            break
    return kernel
