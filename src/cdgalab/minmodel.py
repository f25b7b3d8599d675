"""Degree-bounded Sullivan minimal models and formality verdicts.

The builder runs the standard staged construction against any slice backend:
in each degree it first adjoins closed generators hitting a complement of
the image of H^k(psi), then generators whose differentials kill the kernel
of H^{k+1}(psi).  All basis choices come from the cohomology module's
deterministic representatives, so the output is reproducible.  The morphism
psi is tracked on generators and extended multiplicatively.

s-formality certificates:

* N-part vanishes through degree s (immediate), or
* the N-part through s is a single odd generator whose differential is a
  nonzero polynomial in closed even generators: multiplication by such an
  element is injective in a free graded-commutative algebra, so the ideal
  contains no nonzero closed element and the exactness condition holds
  vacuously.

Otherwise closed ideal elements are checked degree by degree up to the
construction bound: a closed non-exact element refutes, a clean scan is
INCONCLUSIVE (the tool never extrapolates past its bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from .algebra import AlgebraSpec, Element, GeneratorDecl, monomial_names
from .chains import FreeSlices, product
from .cohomology import CohomologyRing
from .errors import CapTooLow, NotOneConnected
from .linalg import Echelon, Vec, kernel_image, mat_vec, vec_iadd
from .massey import NONZERO, MasseyReport, a_massey, triple_massey

CERTIFIED = "CERTIFIED"
REFUTED = "REFUTED"
INCONCLUSIVE = "INCONCLUSIVE"

FORMAL = "FORMAL"
NOT_FORMAL = "NOT_FORMAL"
UNKNOWN = "UNKNOWN"


@dataclass
class MinimalModel:
    model: AlgebraSpec
    bound: int
    psi: Dict[str, Tuple[int, Vec]]          # generator -> (degree, target vec)
    target_ring: CohomologyRing
    cn_split: Dict[int, Tuple[List[str], List[str]]]  # degree -> (C names, N names)
    identity: bool = False

    @property
    def generators_by_degree(self) -> Dict[int, List[str]]:
        return {k: c + n for k, (c, n) in self.cn_split.items()}

    def model_ring(self, max_degree: Optional[int] = None) -> CohomologyRing:
        top = self.bound + 1 if max_degree is None else max_degree
        top = min(top, self.model.degree_cap - 1)
        return CohomologyRing(FreeSlices(self.model), top)

    def psi_vec(self, elem: Element) -> Vec:
        """Image of a model element in the target slice coordinates."""
        out: Vec = {}
        for mono, c in elem.terms.items():
            factors = [self.psi[name] for name in monomial_names(elem.parent, mono)]
            vec_iadd(out, product(self.target_ring.slices, factors), c)
        return out

    def n_generators_through(self, s: int) -> List[str]:
        out = []
        for k in sorted(self.cn_split):
            if k <= s:
                out.extend(self.cn_split[k][1])
        return out


@dataclass
class SFormalityReport:
    status: str
    s: int
    route: str
    witness: Optional[str] = None
    checked_through: Optional[int] = None
    # True when every degree <= s is all-closed or all-non-closed, so the
    # C/N decomposition admits no other choice and a refutation is absolute.
    splitting_unique: bool = False


@dataclass
class FormalityReport:
    verdict: str
    route: str
    certificate: Dict[str, object] = dc_field(default_factory=dict)
    witness: Optional[MasseyReport] = None


def build_minimal_model(target_ring: CohomologyRing, bound: int) -> MinimalModel:
    """Stagewise minimal model of the ring's underlying complex, through `bound`."""
    if bound + 1 > target_ring.max_degree:
        raise CapTooLow("target cohomology must be computed through bound+1",
                        bound=bound, available=target_ring.max_degree)
    slices = target_ring.slices
    if isinstance(slices, FreeSlices) and slices.spec.flags is not None \
            and slices.spec.flags.is_minimal \
            and _differentials_independent(slices):
        spec = slices.spec
        psi = {}
        cn: Dict[int, Tuple[List[str], List[str]]] = {}
        for g in spec.generators:
            psi[g.name] = (g.degree, slices.from_element(spec.gen(g.name)))
            closed = spec.gen(g.name).d().is_zero()
            c, n = cn.setdefault(g.degree, ([], []))
            (c if closed else n).append(g.name)
        return MinimalModel(model=spec, bound=bound, psi=psi,
                            target_ring=target_ring, cn_split=cn, identity=True)

    if target_ring.betti[0] != 1:
        raise NotOneConnected("H^0 must be one-dimensional", betti0=target_ring.betti[0])
    if target_ring.betti[1] != 0:
        raise NotOneConnected("H^1 must vanish for the bounded construction",
                              betti1=target_ring.betti[1])

    field = target_ring.field
    cap = bound + 2
    gens: List[GeneratorDecl] = []
    diff: Dict[str, List] = {}
    psi: Dict[str, Tuple[int, Vec]] = {}
    cn: Dict[int, Tuple[List[str], List[str]]] = {}

    # The spec is rebuilt only where the next step needs a ring of the grown
    # model.  Generators are only appended, so elements of an older ring keep
    # valid generator indices, and psi_vec names them through their own spec.
    def rebuild() -> AlgebraSpec:
        return AlgebraSpec(field, gens, differential=diff,
                           degree_cap=cap).validate()

    def h_psi(degree: int, j: int) -> Vec:
        rep = model_ring.slices.to_element(degree, model_ring.reps(degree)[j])
        return dict(target_ring.class_of(mm.psi_vec(rep), degree).coords)

    mm = MinimalModel(model=rebuild(), bound=bound, psi=psi,
                      target_ring=target_ring, cn_split=cn)
    for k in range(2, bound + 1):
        new_closed, new_n = cn.setdefault(k, ([], []))
        model_ring = CohomologyRing(FreeSlices(mm.model), k + 1)
        # 1. surjectivity in degree k: adjoin closed generators for a
        #    complement of the image of H^k(psi).
        img_ech = Echelon(field)
        for j in range(model_ring.betti[k]):
            img_ech.add(h_psi(k, j))
        for j in range(target_ring.betti[k]):
            if img_ech.add({j: field.one}):
                name = f"v{k}_{len(new_closed)}"
                new_closed.append(name)
                gens.append(GeneratorDecl(name, k))
                psi[name] = (k, target_ring.rep_combination(k, {j: field.one}))
        if new_closed:
            mm.model = rebuild()
            model_ring = CohomologyRing(FreeSlices(mm.model), k + 1)
        # 2. injectivity in degree k+1: kill the kernel of H^{k+1}(psi).
        kernel, _ = kernel_image(field, model_ring.betti[k + 1],
                                 lambda j: h_psi(k + 1, j))
        for row in kernel.basis_rows():
            zvec = model_ring.rep_combination(k + 1, row)
            z_elem = model_ring.slices.to_element(k + 1, zvec)
            prim = target_ring.is_exact(mm.psi_vec(z_elem), k + 1)
            if prim is None:
                raise AssertionError("kernel class must map to an exact cocycle")
            name = f"n{k}_{len(new_closed) + len(new_n)}"
            new_n.append(name)
            gens.append(GeneratorDecl(name, k))
            diff[name] = [(c, monomial_names(z_elem.parent, mono))
                          for mono, c in z_elem.terms.items()]
            psi[name] = (k, prim)
        if new_n:
            mm.model = rebuild()

    # chain-map sanity: psi(d g) = d(psi g) on every generator
    for g in mm.model.generators:
        lhs = mm.psi_vec(mm.model.gen(g.name).d())
        deg, gvec = psi[g.name]
        rhs = target_ring.slices.d_vec(deg, gvec)
        if lhs != rhs:
            raise AssertionError(f"psi fails the chain condition on {g.name}")
    return mm


def _differentials_independent(slices: FreeSlices) -> bool:
    """Per degree, the non-closed generators' differentials must be
    independent for the namewise C/N split of an already-minimal spec to be
    legitimate (d injective on the N span)."""
    spec = slices.spec
    for degree in sorted({g.degree for g in spec.generators}):
        ech = Echelon(spec.field)
        for g in spec.generators:
            if g.degree != degree:
                continue
            img = spec.gen(g.name).d()
            if img.is_zero():
                continue
            if not ech.add(slices.from_element(img)):
                return False
    return True


def s_formality_check(mm: MinimalModel, s: int) -> SFormalityReport:
    """Certify, refute, or abstain on the degreewise formality condition."""
    unique = all(not c_names or not n_names
                 for k, (c_names, n_names) in mm.cn_split.items() if k <= s)
    n_gens = mm.n_generators_through(s)
    if not n_gens:
        return SFormalityReport(status=CERTIFIED, s=s, route="n_part_vanishes",
                                splitting_unique=unique)
    if len(n_gens) == 1:
        name = n_gens[0]
        g = mm.model.index[name]
        deg = mm.model.generators[g].degree
        dn = mm.model.gen(name).d()
        even_only = all(
            mm.model.generators[gi].degree % 2 == 0
            for mono in dn.terms for gi, _ in mono)
        if deg % 2 == 1 and not dn.is_zero() and even_only:
            return SFormalityReport(
                status=CERTIFIED, s=s, route="regular_even_differential",
                splitting_unique=unique)
    # degree-by-degree scan of closed ideal elements up to the bound
    ring = mm.model_ring()
    spec = mm.model
    slices = ring.slices
    n_idx = {spec.index[name] for name in n_gens}
    low_idx = {i for i, g in enumerate(spec.generators) if g.degree <= s}
    for k in range(2, mm.bound + 1):
        basis = spec.basis(k)
        ideal_rows: List[Vec] = []
        for i, mono in enumerate(basis):
            gens_used = {g for g, _ in mono}
            if gens_used & n_idx and gens_used <= low_idx:
                ideal_rows.append({i: ring.field.one})
        if not ideal_rows:
            continue
        def apply(j: int) -> Vec:
            return slices.d_vec(k, ideal_rows[j])
        kernel, _ = kernel_image(ring.field, len(ideal_rows), apply)
        for combo in kernel.basis_rows():
            vec = mat_vec(ideal_rows, combo)
            if ring.is_exact(vec, k) is None:
                witness = slices.to_element(k, vec).render()
                return SFormalityReport(status=REFUTED, s=s,
                                        route="closed_non_exact_ideal_element",
                                        witness=witness,
                                        checked_through=k,
                                        splitting_unique=unique)
    return SFormalityReport(status=INCONCLUSIVE, s=s, route="scan_clean_to_bound",
                            checked_through=mm.bound, splitting_unique=unique)


def massey_scan(ring: CohomologyRing, budget: int = 2000) -> Optional[MasseyReport]:
    """First NONZERO triple or a-product found among representative classes.

    Pairs whose cup product is a nonzero class can never participate, so the
    scan first tabulates exact pairs and only evaluates products built from
    them; the budget counts actual Massey evaluations.
    """
    spent = 0
    degs = [k for k in range(1, ring.max_degree + 1) if ring.betti[k]]
    exact_pairs: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}

    def pair_exact(p: int, i: int, q: int, j: int) -> bool:
        if p + q > ring.max_degree:
            return False
        key = (p, q)
        if key not in exact_pairs:
            table = []
            for a in range(ring.betti[p]):
                for b in range(ring.betti[q]):
                    prod = ring.cup(ring.rep_class(p, a), ring.rep_class(q, b))
                    if prod.is_zero():
                        table.append((a, b))
            exact_pairs[key] = table
        return (i, j) in exact_pairs[key]

    # triple products
    for p1 in degs:
        for p2 in degs:
            for p3 in degs:
                if p1 + p2 + p3 - 1 > ring.max_degree:
                    continue
                if ring.betti[p1 + p2 + p3 - 1] == 0:
                    continue
                for j1 in range(ring.betti[p1]):
                    for j2 in range(ring.betti[p2]):
                        if not pair_exact(p1, j1, p2, j2):
                            continue
                        for j3 in range(ring.betti[p3]):
                            if not pair_exact(p2, j2, p3, j3):
                                continue
                            if spent >= budget:
                                return None
                            spent += 1
                            rep = triple_massey(ring,
                                                ring.rep_class(p1, j1),
                                                ring.rep_class(p2, j2),
                                                ring.rep_class(p3, j3))
                            if rep.defined and rep.verdict == NONZERO:
                                return rep
    # a-products of order 3 with same-degree companions
    even = [k for k in degs if k % 2 == 0]
    for pa in even:
        for pb in degs:
            target = 2 * (pa + pb - 1) + pb
            if target > ring.max_degree or ring.betti[target] == 0:
                continue
            for ja in range(ring.betti[pa]):
                companions = [jb for jb in range(ring.betti[pb])
                              if pair_exact(pa, ja, pb, jb)]
                for xi in range(len(companions)):
                    for yi in range(xi, len(companions)):
                        for zi in range(yi, len(companions)):
                            if spent >= budget:
                                return None
                            spent += 1
                            bs = [ring.rep_class(pb, companions[t])
                                  for t in (xi, yi, zi)]
                            rep = a_massey(ring, ring.rep_class(pa, ja), bs)
                            if rep.defined and rep.verdict == NONZERO:
                                return rep
    return None


def formality_verdict(ring: CohomologyRing, *,
                      poincare_dimension: Optional[int] = None,
                      simply_connected: bool = False,
                      budget: int = 400) -> FormalityReport:
    """Combine obstruction scans, the duality criterion and small-dimension facts.

    Zero differential is checked first: every defined Massey product then has
    zero primitives, so the scan could not find a witness.  d vanishes below
    the top degree exactly when each H^k there is the whole slice.
    """
    if all(ring.betti[k] == ring.slices.dim(k) for k in range(ring.max_degree)):
        return FormalityReport(verdict=FORMAL, route="zero_differential",
                               certificate={"reason": "the algebra equals its "
                                                      "own cohomology"})
    witness = massey_scan(ring, budget=budget)
    if witness is not None:
        return FormalityReport(verdict=NOT_FORMAL, route="massey_obstruction",
                               witness=witness,
                               certificate={"kind": witness.kind,
                                            "degree": witness.degree})
    if simply_connected and poincare_dimension is not None and poincare_dimension <= 6:
        return FormalityReport(
            verdict=FORMAL, route="low_dimension",
            certificate={"reason": "simply connected compact of dimension <= 6",
                         "dimension": poincare_dimension})
    if poincare_dimension is not None:
        n_half = (poincare_dimension + 1) // 2
        s = n_half - 1
        bound = min(max(s + 1, poincare_dimension - 2), ring.max_degree - 1)
        try:
            mm = build_minimal_model(ring, bound)
        except NotOneConnected:
            return FormalityReport(verdict=UNKNOWN, route="not_one_connected",
                                   certificate={})
        sf = s_formality_check(mm, s)
        if sf.status == CERTIFIED:
            return FormalityReport(
                verdict=FORMAL, route="s_formality_duality",
                certificate={"s": s, "dimension": poincare_dimension,
                             "s_route": sf.route})
        if sf.status == REFUTED:
            if sf.splitting_unique:
                # every degree through s is all-closed or all-non-closed, so
                # no other complement choice exists: the refutation is
                # absolute and formality fails outright
                return FormalityReport(
                    verdict=NOT_FORMAL, route="s_formality_refuted",
                    certificate={"s": s, "witness": sf.witness,
                                 "splitting_unique": True})
            # Otherwise the degreewise condition quantifies over complement
            # choices and this is only evidence against formality.
            return FormalityReport(
                verdict=UNKNOWN, route="s_formality_refuted_canonical_split",
                certificate={"s": s, "witness": sf.witness,
                             "note": "closed non-exact ideal element for the "
                                     "canonical splitting only"})
        return FormalityReport(verdict=UNKNOWN, route="s_formality_inconclusive",
                               certificate={"s": s, "checked_through": sf.checked_through})
    return FormalityReport(verdict=UNKNOWN, route="no_applicable_criterion")
