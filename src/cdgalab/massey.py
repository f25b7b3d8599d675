"""Triple, higher-order and a-Massey products with explicit indeterminacy.

Conventions (see docs/CONVENTIONS.md):

* triple product of u, v, w with u*v = d(x), v*w = d(y):
      <u, v, w> = [ u*y + (-1)^{|u|+1} x*w ]
  with indeterminacy  u*H^{|v|+|w|-1} + w*H^{|u|+|v|-1}.
* a-product of an even class a with b_1..b_n, d(xi_i) = a*b_i:
      sum_i (-1)^{|xi_1|+...+|xi_{i-1}|} xi_1...xi_{i-1}*b_i*xi_{i+1}...xi_n
* higher products use the staged system  d a_{i,j} = sum_k (-1)^{|a_{i,k}|}
  a_{i,k}*a_{k+1,j}  and the class  [sum_k (-1)^{|a_{1,k}|} a_{1,k}*a_{k+1,t}].

Primitives come from the cohomology module's deterministic solver, so every
report is reproducible.  NONZERO and ZERO are exact statements; a ZERO for a
multi-parameter family is only issued when an explicit defining system
exhibiting 0 has been constructed and re-verified, and a NONZERO only when
the family is provably affine (or has no parameters at all).  Everything
else is INCONCLUSIVE.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .chains import product
from .cohomology import CohomClass, CohomologyRing
from .errors import OddADegree, OrderUnsupported
from .linalg import Echelon, Vec, vec_add

NONZERO = "NONZERO"
ZERO = "ZERO"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class MasseyReport:
    kind: str
    defined: bool
    verdict: str
    degree: Optional[int] = None
    representative: Optional[CohomClass] = None
    representative_nonzero: Optional[bool] = None
    indeterminacy: List[CohomClass] = dc_field(default_factory=list)
    obstruction: Optional[str] = None
    certificate: Dict[str, object] = dc_field(default_factory=dict)
    notes: List[str] = dc_field(default_factory=list)

    @property
    def indeterminacy_dimension(self) -> int:
        return len(self.indeterminacy)


def _span(ring: CohomologyRing,
          classes: Iterable[CohomClass]) -> Tuple[Echelon, List[CohomClass]]:
    """Echelon of the classes' span and, in order, the classes that grew it.

    A span has one RREF, so membership asked of this echelon is the same
    whichever spanning classes built it.
    """
    ech = Echelon(ring.field)
    grew = [cls for cls in classes if not cls.is_zero() and ech.add(cls.coords)]
    return ech, grew


def _indeterminacy_span(ring: CohomologyRing, pieces: Sequence[Tuple[CohomClass, int]]
                        ) -> Tuple[Echelon, List[CohomClass]]:
    """Span of sum_i class_i * H^{q_i}, over the cups with representative classes."""
    return _span(ring, (ring.cup(cls, ring.rep_class(q, j))
                        for cls, q in pieces
                        if 0 <= q <= ring.max_degree and not cls.is_zero()
                        for j in range(ring.betti[q])))


def triple_massey(ring: CohomologyRing, u: CohomClass, v: CohomClass,
                  w: CohomClass,
                  primitive_uv: Optional[Vec] = None,
                  primitive_vw: Optional[Vec] = None) -> MasseyReport:
    """<u, v, w>; defined when u*v and v*w are exact.

    Canonical primitives are used unless explicit ones are supplied (they
    must satisfy d(x) = u*v, d(y) = v*w; used by the stability tests).
    """
    uv = ring.slices.mul_vec(u.degree, u.rep_vec(), v.degree, v.rep_vec())
    vw = ring.slices.mul_vec(v.degree, v.rep_vec(), w.degree, w.rep_vec())
    x = primitive_uv if primitive_uv is not None else ring.is_exact(uv, u.degree + v.degree)
    if x is None:
        return MasseyReport(
            kind="triple", defined=False, verdict=INCONCLUSIVE,
            obstruction=ring.slices.to_element(u.degree + v.degree, uv).render(),
            notes=["u*v is not exact"])
    y = primitive_vw if primitive_vw is not None else ring.is_exact(vw, v.degree + w.degree)
    if y is None:
        return MasseyReport(
            kind="triple", defined=False, verdict=INCONCLUSIVE,
            obstruction=ring.slices.to_element(v.degree + w.degree, vw).render(),
            notes=["v*w is not exact"])
    target = u.degree + v.degree + w.degree - 1
    sign = ring.field.rational(1 if (u.degree + 1) % 2 == 0 else -1)
    rep_vec = vec_add(
        ring.slices.mul_vec(u.degree, u.rep_vec(), v.degree + w.degree - 1, y),
        ring.slices.mul_vec(u.degree + v.degree - 1, x, w.degree, w.rep_vec()),
        sign)
    rep = ring.class_of(rep_vec, target)
    span, indet = _indeterminacy_span(
        ring, [(u, v.degree + w.degree - 1), (w, u.degree + v.degree - 1)])
    return MasseyReport(
        kind="triple", defined=True,
        verdict=ZERO if span.contains(rep.coords) else NONZERO,
        degree=target, representative=rep,
        representative_nonzero=not rep.is_zero(),
        indeterminacy=indet,
        certificate={
            "primitive_uv": ring.slices.to_element(u.degree + v.degree - 1, x).render(),
            "primitive_vw": ring.slices.to_element(v.degree + w.degree - 1, y).render(),
        })


def a_massey(ring: CohomologyRing, a: CohomClass, bs: Sequence[CohomClass],
             budget: int = 64) -> MasseyReport:
    """n-th order product <a; b_1..b_n> for an even class a (n >= 2)."""
    if a.degree % 2 != 0:
        raise OddADegree("the distinguished class must have even degree",
                         degree=a.degree)
    n = len(bs)
    if n < 2:
        raise OrderUnsupported("a-products need at least two companion classes", n=n)
    kind = f"aMassey({n})"
    xis: List[Tuple[int, Vec]] = []
    for i, b in enumerate(bs):
        ab = ring.slices.mul_vec(a.degree, a.rep_vec(), b.degree, b.rep_vec())
        xi = ring.is_exact(ab, a.degree + b.degree)
        if xi is None:
            return MasseyReport(
                kind=kind, defined=False, verdict=INCONCLUSIVE,
                obstruction=ring.slices.to_element(a.degree + b.degree, ab).render(),
                notes=[f"a*b_{i + 1} is not exact"])
        xis.append((a.degree + b.degree - 1, xi))

    def representative(xi_list: Sequence[Tuple[int, Vec]]) -> CohomClass:
        total: Optional[Vec] = None
        for i in range(n):
            factors = list(xi_list)
            factors[i] = (bs[i].degree, bs[i].rep_vec())
            vec = product(ring.slices, factors)
            if sum(xi_list[j][0] for j in range(i)) % 2:
                vec = {k: -c for k, c in vec.items()}
            total = vec if total is None else vec_add(total, vec)
        return ring.class_of(total, sum(deg for deg, _ in factors))

    rep = representative(xis)
    target = rep.degree
    certificate = {
        "primitives": [ring.slices.to_element(d, v).render() for d, v in xis]}
    shift_dims = []
    for deg, _ in xis:
        if deg > ring.max_degree:
            shift_dims.append(None)
        else:
            shift_dims.append(ring.betti[deg])
    if all(b == 0 for b in shift_dims if b is not None) and None not in shift_dims:
        verdict = ZERO if rep.is_zero() else NONZERO
        certificate["no_indeterminacy"] = \
            "every primitive degree has vanishing cohomology"
        return MasseyReport(kind=kind, defined=True, verdict=verdict, degree=target,
                            representative=rep,
                            representative_nonzero=not rep.is_zero(),
                            indeterminacy=[], certificate=certificate)
    if rep.is_zero():
        return MasseyReport(kind=kind, defined=True, verdict=ZERO, degree=target,
                            representative=rep, representative_nonzero=False,
                            certificate=certificate,
                            notes=["zero exhibited by the canonical primitives"])
    param_dim = sum(b or 0 for b in shift_dims)
    if param_dim > budget or None in shift_dims:
        return MasseyReport(kind=kind, defined=True, verdict=INCONCLUSIVE,
                            degree=target, representative=rep,
                            representative_nonzero=True, certificate=certificate,
                            notes=[f"shift space of dimension {param_dim} exceeds "
                                   f"budget {budget}" if param_dim > budget else
                                   "a primitive degree lies beyond the computed range"])
    # Single-shift affine directions: perturb one primitive at a time.
    labels: List[Tuple[int, int]] = []
    deltas: List[CohomClass] = []
    for i in range(n):
        deg_i = xis[i][0]
        for j in range(ring.betti[deg_i]):
            shifted = list(xis)
            shifted[i] = (deg_i, vec_add(xis[i][1],
                                         ring.rep_combination(deg_i, {j: ring.field.one})))
            labels.append((i, j))
            deltas.append(representative(shifted) - rep)
    span, directions = _span(ring, deltas)
    if n == 2:
        # Shifts enter each term linearly and never jointly: the family is
        # exactly rep + span(directions).
        return MasseyReport(kind=kind, defined=True,
                            verdict=ZERO if span.contains(rep.coords) else NONZERO,
                            degree=target, representative=rep,
                            representative_nonzero=True,
                            indeterminacy=directions, certificate=certificate,
                            notes=["order-2 family is affine"])
    # n >= 3: joint shifts create cross terms.  Solve the affine part and
    # verify the candidate by recomputing the representative exactly.
    sol_ech = Echelon(ring.field)
    for idx, delta in enumerate(deltas):
        sol_ech.add(dict(delta.coords), source={idx: ring.field.one})
    sol = sol_ech.solve({k: -c for k, c in rep.coords.items()})
    if sol is not None:
        combined = list(xis)
        per_primitive: Dict[int, Vec] = {}
        for idx, coeff in sol.items():
            i, j = labels[idx]
            deg_i = xis[i][0]
            shift = ring.rep_combination(deg_i, {j: coeff})
            per_primitive[i] = vec_add(per_primitive.get(i, {}), shift)
        for i, shift in per_primitive.items():
            deg_i = xis[i][0]
            combined[i] = (deg_i, vec_add(xis[i][1], shift))
        candidate = representative(combined)
        if candidate.is_zero():
            return MasseyReport(kind=kind, defined=True, verdict=ZERO, degree=target,
                                representative=rep, representative_nonzero=True,
                                indeterminacy=directions, certificate=certificate,
                                notes=["zero exhibited by an explicit shifted system"])
    return MasseyReport(kind=kind, defined=True, verdict=INCONCLUSIVE, degree=target,
                        representative=rep, representative_nonzero=True,
                        indeterminacy=directions, certificate=certificate,
                        notes=["cross terms prevent an exact decision within budget"])


def higher_massey(ring: CohomologyRing, classes: Sequence[CohomClass],
                  budget: int = 64) -> MasseyReport:
    """Order-t product for 4 <= t <= 6 via staged exact solves."""
    t = len(classes)
    if t < 4 or t > 6:
        raise OrderUnsupported("higher products are supported for orders 4..6", t=t)
    kind = f"higher({t})"
    # Lower-order consecutive windows must be defined and trivial.
    for width in range(3, t):
        for start in range(0, t - width + 1):
            window = classes[start:start + width]
            sub = (triple_massey(ring, *window) if width == 3
                   else higher_massey(ring, window, budget=budget))
            if not sub.defined or sub.verdict == NONZERO:
                return MasseyReport(
                    kind=kind, defined=False, verdict=INCONCLUSIVE,
                    obstruction=f"window {start + 1}..{start + width} has verdict "
                                f"{sub.verdict}",
                    certificate={"failing_window": [start + 1, start + width],
                                 "window_verdict": sub.verdict},
                    notes=["a lower-order product is undefined or nonzero"])

    sl = ring.slices
    system: Dict[Tuple[int, int], Tuple[int, Vec]] = {}
    for i, cls in enumerate(classes, start=1):
        system[(i, i)] = (cls.degree, cls.rep_vec())

    def rhs(sys: Dict, i: int, j: int):
        deg = None
        acc: Optional[Vec] = None
        for k in range(i, j):
            dl, vl = sys[(i, k)]
            dr, vr = sys[(k + 1, j)]
            piece = sl.mul_vec(dl, vl, dr, vr)
            if dl % 2:
                piece = {m: -c for m, c in piece.items()}
            acc = piece if acc is None else vec_add(acc, piece)
            deg = dl + dr
        return deg, acc or {}

    for width in range(2, t):
        for i in range(1, t - width + 2):
            j = i + width - 1
            if (i, j) == (1, t):
                continue
            deg, vec = rhs(system, i, j)
            prim = ring.is_exact(vec, deg)
            if prim is None:
                return MasseyReport(
                    kind=kind, defined=False, verdict=INCONCLUSIVE,
                    obstruction=sl.to_element(deg, vec).render(),
                    notes=[f"stage ({i},{j}) has no primitive under canonical choices"])
            system[(i, j)] = (deg - 1, prim)

    deg, vec = rhs(system, 1, t)
    rep = ring.class_of(vec, deg)
    keys = sorted(k for k in system if k[0] != k[1])
    certificate = {"system": {f"a[{i},{j}]": sl.to_element(*system[(i, j)]).render()
                              for (i, j) in keys}}
    pdim = sum(ring.betti[system[k][0]] for k in keys
               if system[k][0] <= ring.max_degree)
    if rep.is_zero():
        return MasseyReport(kind=kind, defined=True, verdict=ZERO, degree=deg,
                            representative=rep, representative_nonzero=False,
                            certificate=certificate,
                            notes=["zero exhibited by the canonical defining system"])
    if pdim == 0:
        return MasseyReport(kind=kind, defined=True, verdict=NONZERO, degree=deg,
                            representative=rep, representative_nonzero=True,
                            certificate=certificate,
                            notes=["no parameter freedom: single-valued product"])
    if pdim > budget:
        return MasseyReport(kind=kind, defined=True, verdict=INCONCLUSIVE, degree=deg,
                            representative=rep, representative_nonzero=True,
                            certificate=certificate,
                            notes=[f"parameter space {pdim} exceeds budget {budget}"])
    # Valid single-group perturbations give affine directions; quadratic
    # cross-terms are probed on pairs of them, reusing each one's value.
    shifts: List[Tuple[Tuple[int, int], Tuple[int, Vec], CohomClass]] = []
    for key in keys:
        d, base_vec = system[key]
        if d > ring.max_degree:
            continue
        for jj in range(ring.betti[d]):
            trial = dict(system)
            trial[key] = (d, vec_add(base_vec, ring.rep_combination(d, {jj: ring.field.one})))
            value = _system_value(ring, trial, t, rhs)
            if value is not None:
                shifts.append((key, trial[key], value))
    span, directions = _span(ring, (value - rep for _, _, value in shifts))

    def cross_term(first, second) -> bool:
        (k1, slot1, only1), (k2, slot2, only2) = first, second
        if k1 == k2:
            return False
        trial = dict(system)
        trial[k1], trial[k2] = slot1, slot2
        both = _system_value(ring, trial, t, rhs)
        return both is not None and not (both - only1 - only2 + rep).is_zero()

    affine = not any(cross_term(*pair) for pair in combinations(shifts, 2))
    inside = span.contains(rep.coords)
    if affine:
        verdict = ZERO if inside else NONZERO
        note = "family verified affine on probed pairs"
    elif inside:
        verdict = INCONCLUSIVE
        note = "affine part reaches zero but cross terms were detected"
    else:
        verdict = INCONCLUSIVE
        note = "cross terms present; zero not exhibited"
    return MasseyReport(kind=kind, defined=True, verdict=verdict, degree=deg,
                        representative=rep, representative_nonzero=True,
                        indeterminacy=directions, certificate=certificate,
                        notes=[note])


def _system_value(ring: CohomologyRing, system, t, rhs) -> Optional[CohomClass]:
    """Check a perturbed defining system still solves every stage; evaluate it."""
    sl = ring.slices
    for width in range(2, t):
        for i in range(1, t - width + 2):
            j = i + width - 1
            if (i, j) == (1, t):
                continue
            deg, vec = rhs(system, i, j)
            d_prim = sl.d_vec(system[(i, j)][0], system[(i, j)][1])
            if d_prim != vec:
                return None
    deg, vec = rhs(system, 1, t)
    return ring.class_of(vec, deg)
