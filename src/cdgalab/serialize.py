"""JSON documents: algebras, actions, elements, scalars, reports.

Scalar literals are either a rational string ``"p/q"`` or an object
``{"zeta": N, "poly": ["p/q", ...]}``.  Element expressions are arrays of
``{"coeff": <scalar>, "monomial": ["gen", ...]}`` terms (generator names
repeat for powers).  An algebra document fixes the global modulus; scalars
written over a smaller field are promoted at parse time, and the document
modulus itself is raised to the lcm of everything that appears, so no
promotion logic is needed downstream.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Optional

from .algebra import AlgebraSpec, Element, GeneratorDecl, Monomial, monomial_atoms, monomial_names
from .cohomology import CohomologyRing
from .errors import CapExceeded, ParseError
from .scalars import CycField, CycScalar, lcm
from .symmetry import GroupActionSpec


# -- scalars -------------------------------------------------------------

def scalar_to_json(s: CycScalar):
    if s.is_rational():
        return str(s.rational_value())
    return {"zeta": s.field.modulus, "poly": [str(c) for c in s.coeffs]}


def scalar_from_json(data, field: CycField) -> CycScalar:
    if isinstance(data, str):
        return field.rational(Fraction(data))
    if isinstance(data, (int, float)):
        if isinstance(data, float) and not data.is_integer():
            raise ParseError("scalar literals must be exact; use \"p/q\" strings",
                             got=data)
        return field.rational(int(data))
    if isinstance(data, dict) and "zeta" in data:
        n = int(data["zeta"])
        sub = CycField.get(n)
        value = sub.from_poly([Fraction(c) for c in data.get("poly", [])])
        if n == field.modulus:
            return value
        return value.embed(field.modulus)
    raise ParseError("unrecognized scalar literal", got=data)


def _scalar_moduli(data) -> List[int]:
    if isinstance(data, dict) and "zeta" in data:
        return [int(data["zeta"])]
    return []


# -- elements -------------------------------------------------------------

def element_to_json(elem: Element) -> list:
    spec = elem.parent
    out = []
    for mono in sorted(elem.terms, key=lambda m: monomial_atoms(spec, m)):
        out.append({"coeff": scalar_to_json(elem.terms[mono]),
                    "monomial": list(monomial_names(spec, mono))})
    return out


def element_from_json(data, spec: AlgebraSpec) -> Element:
    if not isinstance(data, list):
        raise ParseError("element expressions must be arrays of terms", got=data)
    terms = []
    for term in data:
        coeff = scalar_from_json(term.get("coeff", "1"), spec.field)
        names = tuple(term.get("monomial", []))
        terms.append((coeff, names))
    return spec.element(terms)


def monomial_from_json(names: List[str], spec: AlgebraSpec) -> Monomial:
    elem = spec.element([(1, tuple(names))])
    if len(elem.terms) != 1:
        raise ParseError("volume must be a single monomial", got=names)
    return next(iter(elem.terms))


# -- algebra documents -----------------------------------------------------

def algebra_to_json(spec: AlgebraSpec) -> dict:
    doc = {
        "zeta": spec.field.modulus,
        "degree_cap": spec.degree_cap,
        "generators": [],
        "differential": {},
        "relations": [],
    }
    for g in spec.generators:
        entry = {"name": g.name, "degree": g.degree}
        if g.conjugate_of is not None:
            entry["conjugate_of"] = g.conjugate_of
        doc["generators"].append(entry)
    for gi in sorted(spec.differential):
        doc["differential"][spec.generators[gi].name] = \
            element_to_json(spec.differential[gi])
    for rel in spec.relations:
        doc["relations"].append(element_to_json(rel))
    return doc


def _collect_moduli(doc: dict) -> int:
    moduli = [int(doc.get("zeta", 1))]
    for expr in list(doc.get("differential", {}).values()) + list(doc.get("relations", [])):
        for term in expr:
            moduli.extend(_scalar_moduli(term.get("coeff")))
    n = 1
    for m in moduli:
        n = lcm(n, m)
    return n


def _expr_terms(expr, field: CycField):
    if not isinstance(expr, list):
        raise ParseError("element expressions must be arrays of terms", got=expr)
    return [(scalar_from_json(t.get("coeff", "1"), field),
             tuple(t.get("monomial", []))) for t in expr]


def algebra_from_json(doc: dict) -> AlgebraSpec:
    if "algebra" in doc:
        doc = doc["algebra"]
    modulus = _collect_moduli(doc)
    field = CycField.get(modulus)
    gens = []
    for g in doc.get("generators", []):
        gens.append(GeneratorDecl(name=g["name"], degree=int(g["degree"]),
                                  conjugate_of=g.get("conjugate_of")))
    cap = doc.get("degree_cap")
    return AlgebraSpec(
        field, gens,
        differential={name: _expr_terms(expr, field)
                      for name, expr in doc.get("differential", {}).items()},
        relations=[_expr_terms(expr, field) for expr in doc.get("relations", [])],
        degree_cap=int(cap) if cap is not None else None)


# -- actions ---------------------------------------------------------------

def action_to_json(act: GroupActionSpec) -> dict:
    spec = act.parent
    return {
        "order": act.order,
        "images": {spec.generators[gi].name: element_to_json(img)
                   for gi, img in sorted(act.images.items())},
    }


def action_from_json(doc: dict, spec: AlgebraSpec) -> GroupActionSpec:
    images = {name: element_from_json(expr, spec)
              for name, expr in doc.get("images", {}).items()}
    return GroupActionSpec(spec, int(doc["order"]), images)


# -- combined documents ------------------------------------------------------

def document_from_json(doc: dict):
    """Parse a combined document: algebra plus optional action/classes/volume.

    Returns (spec, action, classes, volume, meta).
    """
    inner = doc.get("algebra", doc)
    spec = algebra_from_json(inner).validate()
    action = None
    if doc.get("action"):
        action = action_from_json(doc["action"], spec).validate()
    # distinguished data above the cap is dropped (relevant when the caller
    # lowered degree_cap to truncate the computation)
    classes = {}
    for name, expr in (doc.get("classes") or {}).items():
        try:
            classes[name] = element_from_json(expr, spec)
        except CapExceeded:
            continue
    volume = None
    if doc.get("volume"):
        try:
            volume = monomial_from_json(doc["volume"], spec)
        except CapExceeded:
            volume = None
    meta = {k: doc[k] for k in ("half_dim", "dim", "description", "preset")
            if k in doc}
    return spec, action, classes, volume, meta


def document_to_json(spec: AlgebraSpec, action=None, classes=None, volume=None,
                     meta=None) -> dict:
    doc = {"algebra": algebra_to_json(spec)}
    if action is not None:
        doc["action"] = action_to_json(action)
    if classes:
        doc["classes"] = {name: element_to_json(elem)
                          for name, elem in classes.items()}
    if volume is not None:
        doc["volume"] = list(monomial_names(spec, volume))
    for k, v in (meta or {}).items():
        doc[k] = v
    return doc


# -- reports -----------------------------------------------------------------

def cohomology_report(ring: CohomologyRing, pairing_degree: Optional[int] = None) -> dict:
    reps: Dict[str, list] = {}
    for k in range(ring.max_degree + 1):
        reps[str(k)] = [element_to_json(ring.slices.to_element(k, rep))
                        for rep in ring.reps(k)]
    pairing_ok = None
    if pairing_degree is not None:
        pairing_ok = ring.pairing_nondegenerate(pairing_degree)
    return {"betti": list(ring.betti), "reps": reps, "pairing_ok": pairing_ok}


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"
