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

Otherwise closed ideal elements z of Lambda(V^{<=s}) are checked degree by degree
through the scan degree, z exact iff psi(z) is exact in the target: a closed non-exact
element refutes, a clean scan is INCONCLUSIVE (the tool never extrapolates past it).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from .algebra import AlgebraSpec, Element, GeneratorDecl
from .chains import AlgebraMap, FreeSlices, Slices, chain_defect
from .cohomology import CohomologyRing
from .errors import CapTooLow, NotOneConnected, ParseError
from .linalg import Echelon, Vec, kernel_image, mat_vec, span
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
    psi: Dict[int, Tuple[int, Vec]]          # generator index -> (degree, target vec)
    target_ring: CohomologyRing
    cn_split: Dict[int, Tuple[List[str], List[str]]]  # degree -> (C names, N names)
    identity: bool = False

    @property
    def generators_by_degree(self) -> Dict[int, List[str]]:
        return {k: c + n for k, (c, n) in self.cn_split.items()}


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
    """The spec itself if it is its own model through a valid `bound`, else the staged one."""
    own = 0 <= bound < target_ring.max_degree and _own_model(target_ring.slices, bound)
    return (_identity_model if own else _staged_model)(target_ring, bound)


def _identity_model(target_ring: CohomologyRing, bound: int) -> MinimalModel:
    """The target's own spec as its model, psi the identity on generators."""
    slices, spec, psi, cn = target_ring.slices, target_ring.slices.spec, {}, {}
    for gi, g in enumerate(spec.generators):
        psi[gi] = (g.degree, slices.from_element(spec.gen(g.name)))
        c, n = cn.setdefault(g.degree, ([], []))
        (n if gi in spec.differential else c).append(g.name)
    return MinimalModel(spec, bound, psi, target_ring, cn, identity=True)


def _staged_model(target_ring: CohomologyRing, bound: int) -> MinimalModel:
    """Stagewise minimal model of the ring's underlying complex, through `bound`."""
    if bound < 0:
        raise ParseError("the bound must not be negative", bound=bound)
    if bound + 1 > target_ring.max_degree:
        raise CapTooLow("target cohomology must be computed through bound+1",
                        bound=bound, available=target_ring.max_degree)
    if target_ring.betti[0] != 1:
        raise NotOneConnected("H^0 must be one-dimensional", betti0=target_ring.betti[0])
    if target_ring.betti[1] != 0:
        raise NotOneConnected("H^1 must vanish for the bounded construction",
                              betti1=target_ring.betti[1])

    field = target_ring.field
    gens: List[GeneratorDecl] = []
    psi = AlgebraMap(target_ring.slices, {})
    cn: Dict[int, Tuple[List[str], List[str]]] = {}

    def h_psi(degree: int, j: int) -> Vec:
        basis = model_ring.slices.spec.basis(degree)
        rep = {basis[i]: c for i, c in model_ring.reps(degree)[j].items()}
        return dict(target_ring.class_of(psi(rep), degree).coords)

    # Generators are only appended (``adjoin``), so an index names the same
    # generator in every stage's spec, and psi is keyed by index: the images
    # of monomials it keeps stay valid as the model grows.
    model = AlgebraSpec(field, [], degree_cap=bound + 2)
    for k in range(2, bound + 1):
        new_closed, new_n = cn.setdefault(k, ([], []))
        diff: Dict[str, Element] = {}
        model_ring = CohomologyRing(FreeSlices(model), k + 1)
        # 1. surjectivity in degree k: adjoin closed generators for a
        #    complement of the image of H^k(psi).
        img_ech = Echelon(field)
        for j in range(model_ring.betti[k]):
            img_ech.add(h_psi(k, j))
        for j in range(target_ring.betti[k]):
            if img_ech.add({j: field.one}):
                name = f"v{k}_{len(new_closed)}"
                new_closed.append(name)
                psi.images[len(gens)] = (k, target_ring.rep_combination(k, {j: field.one}))
                gens.append(GeneratorDecl(name, k))
        # 2. injectivity in degree k+1: kill the kernel of H^{k+1}(psi).
        #    The closed generators just adjoined have degree k >= 2, so they
        #    add no monomial of degree k+1: model_ring's H^{k+1} still holds.
        kernel, _ = kernel_image(field, model_ring.betti[k + 1],
                                 lambda j: h_psi(k + 1, j))
        for row in kernel.basis_rows():
            zvec = model_ring.rep_combination(k + 1, row)
            z_elem = model_ring.slices.to_element(k + 1, zvec)
            prim = target_ring.is_exact(psi(z_elem.terms), k + 1)
            if prim is None:
                raise AssertionError("kernel class must map to an exact cocycle")
            name = f"n{k}_{len(new_closed) + len(new_n)}"
            new_n.append(name)
            psi.images[len(gens)] = (k, prim)
            gens.append(GeneratorDecl(name, k))
            diff[name] = z_elem
        if new_closed or new_n:
            model = model.adjoin(gens[len(model.generators):], diff)

    # chain-map sanity: psi(d g) = d(psi g) on every generator
    defect = chain_defect(model, psi)
    if defect is not None:
        raise AssertionError("psi fails the chain condition on "
                             f"{model.generators[defect[0]].name}")
    return MinimalModel(model=model, bound=bound, psi=psi.images,
                        target_ring=target_ring, cn_split=cn)


def _own_model(slices: Slices, bound: int) -> bool:
    """Whether the target is a free spec that is its own minimal model through `bound`."""
    return isinstance(slices, FreeSlices) and slices.spec.flags.is_minimal \
        and all(g.degree <= bound for g in slices.spec.generators) \
        and _differentials_independent(slices) and _sullivan(slices)


def _differentials_independent(slices: FreeSlices) -> bool:
    """Per degree, the non-closed generators' differentials must be
    independent for the namewise C/N split of an already-minimal spec to be
    legitimate (d injective on the N span)."""
    spec = slices.spec
    images: Dict[int, List[Vec]] = {}
    for gi, img in spec.differential.items():
        images.setdefault(spec.generators[gi].degree, []).append(slices.from_element(img))
    return all(span(spec.field, vecs).rank == len(vecs) for vecs in images.values())


def _sullivan(slices: FreeSlices) -> bool:
    """Per degree n, V_0 = {y : dy has no V^1 * V^n part} and V_{i+1} = {y : that part
    lies in V^1 * V_i} (for n = 1, V_0 is the closed span and dy lies in V_i * V_i) must
    reach V^n, in any basis: from all of (V^n)*, their annihilators are spanned by
    [e_a, f] = d^T(x_a f); in degree 1, V_i annihilates g^(i+2) of the dual Lie algebra."""
    spec, one, ones = slices.spec, slices.field.one, range(slices.dim(1))
    for n in sorted({spec.generators[gi].degree for gi in spec.differential} if ones else ()):
        index = spec._index(n)
        gens = [index[(gi,)] for gi, g in enumerate(spec.generators) if g.degree == n]
        dual: Dict[int, Vec] = defaultdict(dict)  # d^T: degree-(n+1) index -> {c: entry of dy_c}
        for c, m in ((c, m) for c in gens for m in slices.d_col(n, c)):
            dual[m][c] = slices.d_col(n, c)[m]
        rank, rows = len(gens) + 1, [{c: one} for c in gens]
        while 0 < len(rows) < rank:  # until it stops shrinking
            rank, rows = len(rows), span(slices.field, (mat_vec(dual, slices.mul_vec(
                1, {a: one}, n, y)) for a in ones for y in rows)).basis_rows()
        if rows:
            return False
    return True


def s_formality_check(mm: MinimalModel, s: int, through: Optional[int] = None) -> SFormalityReport:
    """Certify, refute, or abstain on the degreewise formality condition; the scan runs
    through `through` (default: the bound) and reads z as exact iff psi(z) is exact."""
    if s < 0:
        raise ParseError("s must not be negative", s=s)
    if s > mm.bound:  # a model through bound < s cannot see the N-part through s
        raise CapTooLow("s-formality needs the model through s", s=s, bound=mm.bound)
    unique = all(not c_names or not n_names
                 for k, (c_names, n_names) in mm.cn_split.items() if k <= s)
    n_gens = [name for k in sorted(mm.cn_split) if k <= s for name in mm.cn_split[k][1]]
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
            for mono in dn.terms for gi in mono)
        if deg % 2 == 1 and not dn.is_zero() and even_only:
            return SFormalityReport(
                status=CERTIFIED, s=s, route="regular_even_differential",
                splitting_unique=unique)
    # degree-by-degree scan of closed ideal elements through `through`
    through = mm.bound if through is None else through
    spec = mm.model.adjoin([], {}, degree_cap=max(mm.model.degree_cap, through + 1))
    slices, psi = FreeSlices(spec), AlgebraMap(mm.target_ring.slices, mm.psi)
    n_idx = {spec.index[name] for name in n_gens}
    low_idx = {i for i, g in enumerate(spec.generators) if g.degree <= s}
    for k in range(2, through + 1):
        ideal = [i for i, mono in enumerate(spec.basis(k))
                 if set(mono) & n_idx and set(mono) <= low_idx]
        if not ideal:
            continue
        kernel, _ = kernel_image(spec.field, len(ideal), lambda j: slices.d_col(k, ideal[j]))
        for combo in kernel.basis_rows():
            z = slices.to_element(k, {ideal[j]: c for j, c in combo.items()})
            if mm.target_ring.is_exact(psi(z.terms), k) is None:
                return SFormalityReport(status=REFUTED, s=s,
                                        route="closed_non_exact_ideal_element",
                                        witness=z.render(),
                                        checked_through=k,
                                        splitting_unique=unique)
    return SFormalityReport(status=INCONCLUSIVE, s=s, route="scan_clean_to_bound",
                            checked_through=through, splitting_unique=unique)


def _zero_differential(ring: CohomologyRing) -> bool:
    """Whether d vanishes below the top degree (read from the spec, else each H^k there
    is the whole slice): every Massey product then has zero primitives, none NONZERO."""
    return ring.slices.zero_d or all(ring.betti[k] == ring.slices.dim(k)
                                     for k in range(ring.max_degree))


def massey_scan(ring: CohomologyRing, budget: int = 2000) -> Optional[MasseyReport]:
    """First NONZERO triple or a-product found among representative classes.

    Pairs whose cup product is a nonzero class can never participate, so the
    scan solves each pair it reads for its canonical primitive once, on first
    read, and evaluates only products of exact pairs; the budget counts evaluations.
    """
    if _zero_differential(ring):
        return None
    spent = 0
    degs = [k for k in range(1, ring.max_degree + 1) if ring.betti[k]]
    exact_pairs: Dict[Tuple[int, int, int, int], Optional[Vec]] = {}

    def pair_exact(p: int, i: int, q: int, j: int) -> Optional[Vec]:
        if p + q > ring.max_degree:
            return None
        key = (p, i, q, j)
        if key not in exact_pairs:
            exact_pairs[key] = ring.is_exact(
                ring.slices.mul_vec(p, ring.reps(p)[i], q, ring.reps(q)[j]), p + q)
        return exact_pairs[key]

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
                        if (x := pair_exact(p1, j1, p2, j2)) is None:
                            continue
                        for j3 in range(ring.betti[p3]):
                            if (y := pair_exact(p2, j2, p3, j3)) is None:
                                continue
                            if spent >= budget:
                                return None
                            spent += 1
                            rep = triple_massey(ring,
                                                ring.rep_class(p1, j1),
                                                ring.rep_class(p2, j2),
                                                ring.rep_class(p3, j3), x, y)
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
                companions = [(jb, prim) for jb in range(ring.betti[pb])
                              if (prim := pair_exact(pa, ja, pb, jb)) is not None]
                for xi in range(len(companions)):
                    for yi in range(xi, len(companions)):
                        for zi in range(yi, len(companions)):
                            if spent >= budget:
                                return None
                            spent += 1
                            chosen = [companions[t] for t in (xi, yi, zi)]
                            bs = [ring.rep_class(pb, jb) for jb, _ in chosen]
                            rep = a_massey(ring, ring.rep_class(pa, ja), bs,
                                           primitives=[prim for _, prim in chosen])
                            if rep.defined and rep.verdict == NONZERO:
                                return rep
    return None


def formality_verdict(ring: CohomologyRing, *,
                      poincare_dimension: Optional[int] = None,
                      simply_connected: bool = False,
                      budget: int = 400) -> FormalityReport:
    """Combine obstruction scans, the duality criterion and small-dimension facts."""
    if poincare_dimension is not None and poincare_dimension < 0:
        raise ParseError("the dimension must not be negative", dimension=poincare_dimension)
    if _zero_differential(ring):
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
        s = max(n_half - 1, 0)  # s = 0 is as vacuous as -1: no generator has degree 0
        bound = min(max(s + 1, poincare_dimension - 2), ring.max_degree - 1)
        try:  # Lambda(V^{<=s}) is all the scan reads; an own model keeps its names
            mm = _identity_model(ring, bound) if _own_model(ring.slices, bound) else \
                _staged_model(ring, s)
        except NotOneConnected:
            return FormalityReport(verdict=UNKNOWN, route="not_one_connected",
                                   certificate={})
        sf = s_formality_check(mm, s, through=bound)
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
