"""Hard-Lefschetz testing on finite-dimensional cohomology rings.

``lefschetz_test`` checks whether iterated cup product with a chosen
degree-2 class gives isomorphisms H^k -> H^{2n-k} for 0 <= k <= n, with
exact ranks and kernel witnesses.  ``universal_obstruction`` searches for a
class annihilated by every (n-k)-fold product of degree-2 classes: such a
witness lies in the kernel of the iterated Lefschetz map of *every*
degree-2 class, so the property fails universally.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations_with_replacement
from typing import List, Optional

from .cohomology import CohomClass, CohomologyRing
from .errors import BadOmegaDegree, NoTopDeclared
from .linalg import Vec, kernel_image


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
    """
    if n is None:
        n = ring.max_degree // 2
    power = n - k
    if power < 0:
        raise BadOmegaDegree("degree exceeds half dimension", degree=k, half_dim=n)
    target_degree = k + 2 * power
    if target_degree > ring.max_degree:
        raise NoTopDeclared("ring not computed far enough for the stacked products",
                            needed=target_degree)
    h2 = [ring.rep_class(2, j) for j in range(ring.betti[2])]
    combos = list(combinations_with_replacement(range(len(h2)), power))
    width = ring.betti[target_degree]

    def apply(j: int) -> Vec:
        # stack the images of b under every (n-k)-fold multiplication
        out: Vec = {}
        base = ring.rep_class(k, j)
        for ci, combo in enumerate(combos):
            cls = base
            for idx in combo:
                cls = ring.cup(h2[idx], cls)
            for coord, val in cls.coords.items():
                out[ci * width + coord] = val
        return out

    kernel, _ = kernel_image(ring.field, ring.betti[k], apply)
    return [CohomClass(ring, k, dict(row)) for row in kernel.basis_rows()]
