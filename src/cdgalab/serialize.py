"""JSON documents: algebras, actions, elements, scalars, reports.

Scalar literals are either a rational literal (a string ``Fraction`` reads, an
integer or an integral float) or an object ``{"zeta": N, "poly": [<rational>, ...]}``.
Element expressions are arrays of ``{"coeff": <scalar>, "monomial": ["gen",
...]}`` terms (generator names repeat for powers; ``coeff`` defaults to "1", a
missing ``monomial`` or any other key is refused).  An algebra document fixes
the global modulus; scalars written over a smaller field are promoted at parse
time, and the document modulus itself is raised to the lcm of everything that
appears, so no promotion logic is needed downstream.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import lcm
from typing import Dict, List, Optional

from .algebra import AlgebraSpec, Element, GeneratorDecl, Monomial, monomial_names
from .chains import Slices, SubcomplexSlices
from .cohomology import CohomologyRing
from .errors import CapExceeded, ParseError
from .linalg import Vec
from .scalars import CycField, CycScalar, rational_text
from .symmetry import GroupActionSpec


# -- scalars -------------------------------------------------------------

def scalar_to_json(s: CycScalar):
    if not any(s.num[1:]):
        return rational_text(s.num[0], s.den)
    return {"zeta": s.field.modulus, "poly": [rational_text(n, s.den) for n in s.num]}


def _parsed(convert, data, what: str):
    """convert(data), or a ParseError that names the malformed value."""
    try:
        return convert(data)
    except (ValueError, TypeError, ZeroDivisionError):
        raise ParseError(f"malformed {what}", got=data) from None


def _integer(value, what: str) -> int:
    """An integer field: a bool or a float with a fractional part is refused, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ParseError(f"malformed {what}", got=value)
    return _parsed(int, value, what)


def _typed(value, kind: type, what: str):
    """value, or a ParseError that names the JSON type it has instead of ``kind``."""
    if not isinstance(value, kind):
        raise ParseError(f"{what} must be {'an object' if kind is dict else 'an array'}",
                         got=type(value).__name__)
    return value


def _rational(value):
    """A rational literal (docs/FORMATS.md): a Fraction from a non-integer string, else an int."""
    if isinstance(value, str):
        plain = value.removeprefix("-").isdigit() and value.isascii()  # read by int
        return _parsed(int if plain else Fraction, value, "rational literal")
    if type(value) is int or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ParseError("a rational literal is a \"p/q\" string, an integer or an integral float",
                     got=value)


def scalar_from_json(data, field: CycField) -> CycScalar:
    if isinstance(data, dict) and "zeta" in data:
        n = _integer(data["zeta"], "modulus")
        poly = _typed(data.get("poly", []), list, "a scalar's poly")
        value = CycField.get(n).from_poly([_rational(c) for c in poly])
        if n == field.modulus:
            return value
        return value.embed(field.modulus)
    return field.rational(_rational(data))


def _scalar_moduli(data) -> List[int]:
    if isinstance(data, dict) and "zeta" in data:
        return [_integer(data["zeta"], "modulus")]
    return []


# -- elements -------------------------------------------------------------

def _terms_to_json(spec: AlgebraSpec, terms) -> list:
    """The JSON terms of (monomial, scalar) pairs, given in sorted monomial order."""
    gens = spec.generators
    return [{"coeff": scalar_to_json(c), "monomial": [gens[g].name for g in m]}
            for m, c in terms]


def element_to_json(elem: Element) -> list:
    return _terms_to_json(elem.parent, sorted(elem.terms.items()))


def vector_to_json(slices: Slices, k: int, vec: Vec) -> list:
    """element_to_json(slices.to_element(k, vec)): a free basis is in sorted monomial order."""
    if isinstance(slices, SubcomplexSlices):
        slices, vec = slices.parent, slices.to_parent_vec(k, vec)
    basis = slices.spec.basis(k)
    return _terms_to_json(slices.spec, ((basis[i], c) for i, c in sorted(vec.items())))


def element_from_json(data, spec: AlgebraSpec) -> Element:
    return spec.element(_expr_terms(data, spec.field))


def monomial_from_json(names: List[str], spec: AlgebraSpec) -> Monomial:
    elem = spec.element([(1, tuple(names))])
    if not elem.terms:
        raise ParseError("volume monomial is zero in the quotient", got=names,
                         reason="zero in the quotient")
    if len(elem.terms) != 1:
        raise ParseError("volume must be a single monomial", got=names)
    (mono, coeff), = elem.terms.items()  # a relation's factor would be lost from integrate
    if coeff != next(iter(spec.element([(1, tuple(names))], reduce=False).terms.values())):
        raise ParseError("volume monomial is rescaled in the quotient", got=names,
                         coefficient=scalar_to_json(coeff))
    return mono


def _terms(expr) -> list:
    """The terms of an element expression: objects with a monomial and, optionally, a coeff."""
    for term in _typed(expr, list, "an element expression"):
        keys = set(_typed(term, dict, "an element term"))
        if "monomial" not in keys or keys - {"coeff", "monomial"}:
            raise ParseError("a term has a monomial, an optional coeff and no other key",
                             got=term)
    return expr


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


def _collect_moduli(doc: dict, inner: dict) -> int:
    """The lcm of every modulus in the algebra ``inner``, the classes and the action images."""
    moduli = [_integer(inner.get("zeta", 1), "modulus")]
    exprs = list(inner.get("differential", {}).values()) + inner.get("relations", [])
    action = doc.get("action")
    for part in (doc.get("classes"), action.get("images") if isinstance(action, dict) else None):
        exprs += part.values() if isinstance(part, dict) else ()
    for expr in exprs:
        for term in _terms(expr):
            moduli.extend(_scalar_moduli(term.get("coeff")))
    if min(moduli) < 1:
        raise ParseError("cyclotomic modulus must be a positive integer", modulus=min(moduli))
    return lcm(*moduli)


def _expr_terms(expr, field: CycField):
    return [(scalar_from_json(t.get("coeff", "1"), field),
             tuple(_typed(t["monomial"], list, "a term's monomial")))
            for t in _terms(expr)]


def algebra_part(doc) -> dict:
    """The algebra object of a combined document, or a bare algebra document."""
    if not isinstance(doc, dict):
        raise ParseError("a document must be a JSON object", got=type(doc).__name__)
    inner = doc.get("algebra", doc)
    if not isinstance(inner, dict) or not isinstance(inner.get("generators"), list):
        raise ParseError("the document has no algebra: neither an \"algebra\" object "
                         "nor a \"generators\" list", keys=sorted(doc))
    for g in inner["generators"]:
        if not isinstance(g, dict) or not isinstance(g.get("name"), str) or "degree" not in g:
            raise ParseError("a generator must be an object with a string name and a degree",
                             got=g)
    _typed(inner.get("differential", {}), dict, "the differential")
    _typed(inner.get("relations", []), list, "the relations")
    return inner


def algebra_from_json(doc: dict) -> AlgebraSpec:
    inner = algebra_part(doc)
    field = CycField.get(_collect_moduli(doc, inner))
    gens = [GeneratorDecl(name=g["name"], degree=_integer(g["degree"], "generator degree"),
                          conjugate_of=g.get("conjugate_of")) for g in inner["generators"]]
    cap = inner.get("degree_cap")
    return AlgebraSpec(
        field, gens,
        differential={name: _expr_terms(expr, field)
                      for name, expr in inner.get("differential", {}).items()},
        relations=[_expr_terms(expr, field) for expr in inner.get("relations", [])],
        degree_cap=_integer(cap, "degree cap") if cap is not None else None)


# -- actions ---------------------------------------------------------------

def action_to_json(act: GroupActionSpec) -> dict:
    spec = act.parent
    return {
        "order": act.order,
        "images": {spec.generators[gi].name: element_to_json(img)
                   for gi, img in sorted(act.images.items())},
    }


def action_from_json(doc: dict, spec: AlgebraSpec) -> GroupActionSpec:
    images = _typed(doc.get("images", {}), dict, "the action images")
    images = {name: element_from_json(expr, spec) for name, expr in images.items()}
    return GroupActionSpec(spec, _integer(doc.get("order"), "action order"), images)


# -- combined documents ------------------------------------------------------

def document_from_json(doc: dict):
    """Parse a combined document: algebra plus optional action/classes/volume.

    Returns (spec, action, classes, volume, meta).
    """
    spec = algebra_from_json(doc)
    action = None
    if doc.get("action"):
        action = action_from_json(_typed(doc["action"], dict, "the action"), spec)
    # distinguished data above the cap is dropped (relevant when the caller
    # lowered degree_cap to truncate the computation)
    classes = {}
    for name, expr in _typed(doc.get("classes") or {}, dict, "the classes").items():
        try:
            classes[name] = element_from_json(expr, spec)
        except CapExceeded:
            continue
    volume = None
    if doc.get("volume"):
        try:
            volume = monomial_from_json(_typed(doc["volume"], list, "the volume"), spec)
        except CapExceeded:
            volume = None
    meta = {k: doc[k] for k in ("half_dim", "dim", "description", "preset")
            if k in doc}
    for key, what in (("dim", "dimension"), ("half_dim", "half dimension")):
        if key in meta:
            meta[key] = _integer(meta[key], what)
            if meta[key] < 0:
                raise ParseError(f"the {what} must not be negative", got=meta[key])
    if "dim" in meta and meta.get("half_dim", meta["dim"] // 2) != meta["dim"] // 2:
        raise ParseError("half_dim must be dim // 2", half_dim=meta["half_dim"], dim=meta["dim"])
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
        reps[str(k)] = [vector_to_json(ring.slices, k, rep) for rep in ring.reps(k)]
    pairing_ok = None
    if pairing_degree is not None:
        pairing_ok = ring.pairing_nondegenerate(pairing_degree)
    return {"betti": list(ring.betti), "reps": reps, "pairing_ok": pairing_ok}


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"`` in one recursive pass, for str keys and
    str, int, bool, None, list and dict values; anything else is a TypeError."""
    return _json(obj, "\n") + "\n"


def _json(obj, newline: str, kind: Optional[type] = None) -> str:
    """obj as json.dumps(indent=2) writes it at the indentation that ``newline`` ends in."""
    kind = kind or type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is list:
        inner = newline + "  "
        items = [_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    if kind is dict:
        inner = newline + "  "
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if kind is int:
        return int.__repr__(obj)
    if obj is None or kind is bool:
        return "null" if obj is None else "true" if obj else "false"
    for base in (str, list, dict, int):  # the exact types came first; a subclass is its base
        if isinstance(obj, base):
            return _json(obj, newline, base)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
