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
from functools import cached_property
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .chains import product
from .cohomology import CohomClass, CohomologyRing, class_span
from .errors import OddADegree, OrderUnsupported
from .linalg import Echelon, Vec, vec_add, vec_iadd

NONZERO = "NONZERO"
ZERO = "ZERO"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class MasseyReport:
    """A Massey product's verdict; it is defined exactly when it has a representative.

    ``evidence`` keeps primitives and defining systems as (degree, vector) pairs;
    ``certificate`` is the evidence with those rendered, on first read."""

    kind: str
    verdict: str
    representative: Optional[CohomClass] = None
    indeterminacy: List[CohomClass] = dc_field(default_factory=list)
    obstruction: Optional[str] = None
    evidence: Dict[str, object] = dc_field(default_factory=dict)
    notes: List[str] = dc_field(default_factory=list)

    @cached_property
    def certificate(self) -> Dict[str, object]:
        return _rendered(self.evidence, self.representative)

    @property
    def defined(self) -> bool:
        return self.representative is not None

    @property
    def degree(self) -> Optional[int]:
        return None if self.representative is None else self.representative.degree

    @property
    def representative_nonzero(self) -> Optional[bool]:
        return None if self.representative is None else not self.representative.is_zero()

    @property
    def indeterminacy_dimension(self) -> int:
        return len(self.indeterminacy)


def _rendered(value, rep: Optional[CohomClass]):
    """value with each (degree, vector) pair in it rendered in rep's ring."""
    if isinstance(value, tuple):
        return rep.ring.slices.to_element(*value).render()
    if isinstance(value, list):
        return [_rendered(v, rep) for v in value]
    if isinstance(value, dict):
        return {key: _rendered(v, rep) for key, v in value.items()}
    return value


def triple_massey(ring: CohomologyRing, u: CohomClass, v: CohomClass,
                  w: CohomClass,
                  primitive_uv: Optional[Vec] = None,
                  primitive_vw: Optional[Vec] = None) -> MasseyReport:
    """<u, v, w>; defined when u*v and v*w are exact.

    Canonical primitives are used unless explicit ones are supplied (they
    must satisfy d(x) = u*v, d(y) = v*w; massey_scan and stability tests pass them).
    """
    x = _primitive(ring, u, v, primitive_uv, "triple", "u*v is not exact")
    if isinstance(x, MasseyReport):
        return x
    y = _primitive(ring, v, w, primitive_vw, "triple", "v*w is not exact")
    if isinstance(y, MasseyReport):
        return y
    target = u.degree + v.degree + w.degree - 1
    sign = ring.field.rational(1 if (u.degree + 1) % 2 == 0 else -1)
    rep_vec = vec_add(
        ring.slices.mul_vec(u.degree, u.rep_vec(), v.degree + w.degree - 1, y),
        ring.slices.mul_vec(u.degree + v.degree - 1, x, w.degree, w.rep_vec()),
        sign)
    rep = ring.class_of(rep_vec, target)
    # Indeterminacy u*H + w*H.  A cup of the second piece outside its own
    # growing list lies in the span of its earlier cups, so adding that list
    # to the first piece's echelon gives the RREF and classes of adding all.
    first = ring.cup_span(u, v.degree + w.degree - 1)
    span, indet = first[0].copy(), list(first[1])
    second = ring.cup_span(w, u.degree + v.degree - 1)
    if second is not first:
        indet += [c for c in second[1] if span.add(c)]
    return MasseyReport(
        kind="triple", verdict=ZERO if span.contains(rep.coords) else NONZERO,
        representative=rep, indeterminacy=[CohomClass(ring, target, c) for c in indet],
        evidence={"primitive_uv": (u.degree + v.degree - 1, x),
                  "primitive_vw": (v.degree + w.degree - 1, y)})


def _primitive(ring: CohomologyRing, a: CohomClass, b: CohomClass,
               given: Optional[Vec], kind: str, note: str):
    """``given``, else the canonical primitive of a*b, else the report that it is not exact."""
    if given is not None:
        return given
    ab = ring.slices.mul_vec(a.degree, a.rep_vec(), b.degree, b.rep_vec())
    prim = ring.is_exact(ab, a.degree + b.degree)
    if prim is not None:
        return prim
    return MasseyReport(kind=kind, verdict=INCONCLUSIVE,
                        obstruction=ring.slices.to_element(a.degree + b.degree, ab).render(),
                        notes=[note])


def a_massey(ring: CohomologyRing, a: CohomClass, bs: Sequence[CohomClass],
             budget: int = 64,
             primitives: Optional[Sequence[Vec]] = None) -> MasseyReport:
    """n-th order product <a; b_1..b_n> for an even class a (n >= 2).

    ``primitives``, when given, are the canonical primitives of a*b_i.
    """
    if a.degree % 2 != 0:
        raise OddADegree("the distinguished class must have even degree",
                         degree=a.degree)
    n = len(bs)
    if n < 2:
        raise OrderUnsupported("a-products need at least two companion classes", n=n)
    kind = f"aMassey({n})"
    xis: List[Tuple[int, Vec]] = []
    for i, b in enumerate(bs):
        xi = _primitive(ring, a, b, None if primitives is None else primitives[i],
                        kind, f"a*b_{i + 1} is not exact")
        if isinstance(xi, MasseyReport):
            return xi
        xis.append((a.degree + b.degree - 1, xi))

    def representative(xi_list: Sequence[Tuple[int, Vec]]) -> CohomClass:
        total: Vec = {}
        for i in range(n):
            factors = list(xi_list)
            factors[i] = (bs[i].degree, bs[i].rep_vec())
            odd = sum(xi_list[j][0] for j in range(i)) % 2
            vec_iadd(total, product(ring.slices, factors), -ring.field.one if odd else None)
        return ring.class_of(total, sum(deg for deg, _ in factors))

    rep = representative(xis)
    evidence = {"primitives": list(xis)}
    param_dim = sum(ring.betti[deg] for deg, _ in xis)
    if param_dim == 0:
        verdict = ZERO if rep.is_zero() else NONZERO
        evidence["no_indeterminacy"] = "every primitive degree has vanishing cohomology"
        return MasseyReport(kind=kind, verdict=verdict, representative=rep, evidence=evidence)
    if rep.is_zero():
        return MasseyReport(kind=kind, verdict=ZERO, representative=rep, evidence=evidence,
                            notes=["zero exhibited by the canonical primitives"])
    if param_dim > budget:
        note = f"shift space of dimension {param_dim} exceeds budget {budget}"
        return MasseyReport(kind=kind, verdict=INCONCLUSIVE, representative=rep,
                            evidence=evidence, notes=[note])
    # Single-shift affine directions: perturb one primitive at a time.
    shifts = _single_shifts(ring, xis, range(n), representative)
    deltas = [value - rep for _, _, _, value in shifts]
    span, directions = class_span(ring.field, deltas)
    if n == 2:
        # Shifts enter each term linearly and never jointly: the family is
        # exactly rep + span(directions).
        return MasseyReport(kind=kind, verdict=ZERO if span.contains(rep.coords) else NONZERO,
                            representative=rep, indeterminacy=directions,
                            evidence=evidence, notes=["order-2 family is affine"])
    # n >= 3: joint shifts create cross terms.  Solve the affine part and
    # verify the candidate by recomputing the representative exactly.
    sol_ech = Echelon(ring.field)
    for idx, delta in enumerate(deltas):
        sol_ech.add(dict(delta.coords), source={idx: ring.field.one})
    sol = sol_ech.solve({k: -c for k, c in rep.coords.items()})
    if sol is not None:
        combined = list(xis)
        for idx, coeff in sol.items():
            i, j = shifts[idx][:2]
            deg_i, xi = combined[i]
            combined[i] = (deg_i, vec_add(xi, ring.rep_combination(deg_i, {j: coeff})))
        if representative(combined).is_zero():
            return MasseyReport(kind=kind, verdict=ZERO, representative=rep,
                                indeterminacy=directions, evidence=evidence,
                                notes=["zero exhibited by an explicit shifted system"])
    return MasseyReport(kind=kind, verdict=INCONCLUSIVE, representative=rep,
                        indeterminacy=directions, evidence=evidence,
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
                    kind=kind, verdict=INCONCLUSIVE,
                    obstruction=f"window {start + 1}..{start + width} has verdict "
                                f"{sub.verdict}",
                    evidence={"failing_window": [start + 1, start + width],
                              "window_verdict": sub.verdict},
                    notes=["a lower-order product is undefined or nonzero"])

    sl = ring.slices
    system: Dict[Tuple[int, int], Tuple[int, Vec]] = {}
    for i, cls in enumerate(classes, start=1):
        system[(i, i)] = (cls.degree, cls.rep_vec())

    def rhs(sys: Dict, i: int, j: int):
        deg = None
        acc: Vec = {}
        for k in range(i, j):
            dl, vl = sys[(i, k)]
            dr, vr = sys[(k + 1, j)]
            vec_iadd(acc, sl.mul_vec(dl, vl, dr, vr), -ring.field.one if dl % 2 else None)
            deg = dl + dr
        return deg, acc

    # The entries a_{i,j} with 2 <= j - i + 1 < t, in the order they are solved.
    stages = [(i, i + width - 1) for width in range(2, t) for i in range(1, t - width + 2)]
    for i, j in stages:
        deg, vec = rhs(system, i, j)
        prim = ring.is_exact(vec, deg)
        if prim is None:
            return MasseyReport(
                kind=kind, verdict=INCONCLUSIVE,
                obstruction=sl.to_element(deg, vec).render(),
                notes=[f"stage ({i},{j}) has no primitive under canonical choices"])
        system[(i, j)] = (deg - 1, prim)

    deg, vec = rhs(system, 1, t)
    rep = ring.class_of(vec, deg)
    keys = sorted(stages)
    evidence = {"system": {f"a[{i},{j}]": system[(i, j)] for (i, j) in keys}}
    pdim = sum(ring.betti[system[k][0]] for k in keys)
    if rep.is_zero():
        return MasseyReport(kind=kind, verdict=ZERO, representative=rep, evidence=evidence,
                            notes=["zero exhibited by the canonical defining system"])
    if pdim == 0:
        return MasseyReport(kind=kind, verdict=NONZERO, representative=rep, evidence=evidence,
                            notes=["no parameter freedom: single-valued product"])
    if pdim > budget:
        return MasseyReport(kind=kind, verdict=INCONCLUSIVE, representative=rep,
                            evidence=evidence,
                            notes=[f"parameter space {pdim} exceeds budget {budget}"])
    # Valid single-group perturbations give affine directions; quadratic
    # cross-terms are probed on pairs of them, reusing each one's value.
    shifts = _single_shifts(ring, system, keys,
                            lambda trial: _system_value(ring, trial, t, stages, rhs))
    span, directions = class_span(ring.field, (value - rep for _, _, _, value in shifts))

    def cross_term(first, second) -> bool:
        (k1, _, slot1, only1), (k2, _, slot2, only2) = first, second
        if k1 == k2:
            return False
        trial = dict(system)
        trial[k1], trial[k2] = slot1, slot2
        both = _system_value(ring, trial, t, stages, rhs)
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
    return MasseyReport(kind=kind, verdict=verdict, representative=rep,
                        indeterminacy=directions, evidence=evidence, notes=[note])


def _system_value(ring: CohomologyRing, system, t, stages, rhs) -> Optional[CohomClass]:
    """Check a perturbed defining system still solves every stage; evaluate it."""
    for i, j in stages:
        if rhs(system, i, j)[1] != ring.slices.d_vec(*system[(i, j)]):
            return None
    deg, vec = rhs(system, 1, t)
    return ring.class_of(vec, deg)


def _single_shifts(ring: CohomologyRing, slots, keys, evaluate) -> List[tuple]:
    """(key, j, slot, value): the slot of each key moved by rep_j of its degree, j < b_deg,
    and evaluate's value of the slots with that one moved, where it is not None.

    No primitive lies above max_degree: is_exact refuses a product above it, massey_scan
    passes primitives only for p + q <= max_degree, and one given to a_massey is below |b_i|
    when |a| = 0, else no higher than the representative, whose degree class_of accepted.
    """
    out = []
    for key in keys:
        deg, vec = slots[key]
        for j in range(ring.betti[deg]):
            trial = slots.copy()
            trial[key] = (deg, vec_add(vec, ring.rep_combination(deg, {j: ring.field.one})))
            value = evaluate(trial)
            if value is not None:
                out.append((key, j, trial[key], value))
    return out
