"""Model constructors: CE complexes, circle bundles, tensor products, presets.

Fixed presets are JSON documents shipped with the package.  The parametrized
ones (CPN(m), SASAKI_CPN_S2(n)) and ``sphere_product_bundle(n)`` are truncated
polynomial algebras on degree-2 generators, or circle bundles over them, and
one builder writes their documents in memory; they go through the same
parser, so every preset exercises the external format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from importlib import resources
from math import lcm
from typing import Dict, Optional, Sequence

from .algebra import AlgebraSpec, Element, GeneratorDecl, Monomial, monomial_names
from .errors import EulerBadDegree, EulerNotClosed, ParseError, UnknownPreset
from .scalars import CycField
from .serialize import document_from_json
from .symmetry import GroupActionSpec

FIXED_PRESETS = (
    "HEIS6", "HEIS6_Z6", "HEIS8", "HEIS8_Z3",
    "T6", "T6_Z2", "SASAKI7_S2CUBE", "SPHERE2", "P_OVER_T6Z2",
)
PARAMETRIC_PRESETS = ("CPN", "SASAKI_CPN_S2")


@dataclass
class PresetBundle:
    name: str
    spec: AlgebraSpec
    action: Optional[GroupActionSpec]
    classes: Dict[str, Element]
    volume: Optional[Monomial]
    meta: Dict[str, object] = dc_field(default_factory=dict)


def ce_complex(field: CycField, generators: Sequence[GeneratorDecl],
               structure: Dict[str, object], degree_cap: Optional[int] = None) -> AlgebraSpec:
    """Chevalley-Eilenberg style complex: degree-1 generators, quadratic d."""
    for g in generators:
        if g.degree != 1:
            raise ParseError("CE complexes have degree-1 generators only",
                             generator=g.name)
    cap = degree_cap if degree_cap is not None else len(list(generators)) + 1
    spec = AlgebraSpec(field, generators, differential=structure, degree_cap=cap)
    for gi, img in spec.differential.items():
        for mono in img.terms:
            if len(mono) != 2:
                raise ParseError("CE differentials must be quadratic",
                                 generator=spec.generators[gi].name)
    return spec


def circle_bundle(base: AlgebraSpec, euler: Element, gen_name: str = "x") -> AlgebraSpec:
    """Adjoin a degree-1 generator x with dx = euler (a closed 2-cocycle)."""
    if euler.degree != 2 and not euler.is_zero():
        raise EulerBadDegree("Euler class must have degree 2", degree=euler.degree)
    if not euler.d().is_zero():
        raise EulerNotClosed("Euler class must be closed",
                             witness=euler.d().render())
    if gen_name in base.index:
        raise ParseError(f"generator name '{gen_name}' already used in the base")
    # the total space reaches one degree above the base
    return base.adjoin([GeneratorDecl(gen_name, 1)], {gen_name: euler}, base.degree_cap + 1)


def tensor(a: AlgebraSpec, b: AlgebraSpec) -> AlgebraSpec:
    """Graded tensor product; generator names must be disjoint."""
    target = CycField.get(lcm(a.field.modulus, b.field.modulus))
    overlap = set(g.name for g in a.generators) & set(g.name for g in b.generators)
    if overlap:
        raise ParseError("tensor factors share generator names",
                         names=sorted(overlap))

    def embed(elem: Element):
        return [(c.embed(target.modulus) if c.field.modulus != target.modulus else c,
                 monomial_names(elem.parent, m)) for m, c in elem.terms.items()]

    gens = list(a.generators) + list(b.generators)
    diff = {src.generators[gi].name: embed(img)
            for src in (a, b) for gi, img in src.differential.items()}
    rels = [embed(rel) for src in (a, b) for rel in src.relations]
    cap = a.degree_cap + b.degree_cap - 1
    return AlgebraSpec(target, gens, differential=diff, relations=rels, degree_cap=cap)


# -- presets ---------------------------------------------------------------

def _load_fixed(name: str) -> dict:
    path = resources.files("cdgalab.presets").joinpath(f"{name}.json")
    return json.loads(path.read_text())


def _truncated_doc(head: dict, exponents: Dict[str, int], cap: int,
                   bundle: bool = False) -> dict:
    """The document of degree-2 generators a with a^e = 0, for (a, e) in exponents,
    through degree ``cap``; with ``bundle``, of the circle bundle over them instead:
    x of degree 1 with dx = omega, the sum of the a."""
    def term(*names):
        return {"coeff": "1", "monomial": list(names)}

    gens = [{"name": a, "degree": 2} for a in exponents]
    classes = {a: [term(a)] for a in exponents}
    volume = [a for a, e in exponents.items() for _ in range(e - 1)]
    differential = {}
    if bundle:
        gens.append({"name": "x", "degree": 1})
        differential["x"] = [term(a) for a in exponents]
        classes["omega"] = [term(a) for a in exponents]
        volume.append("x")
    return {**head,
            "algebra": {"zeta": 1, "degree_cap": cap, "generators": gens,
                        "differential": differential,
                        "relations": [[term(*[a] * e)] for a, e in exponents.items()]},
            "classes": classes, "volume": volume}


def _cpn_doc(m: int) -> dict:
    if m < 1:
        raise ParseError("CPN needs a positive dimension parameter", m=m)
    return _truncated_doc({"preset": f"CPN({m})",
                           "description": "Truncated polynomial presentation: one "
                                          f"degree-2 generator with a^{m + 1} = 0.",
                           "dim": 2 * m, "half_dim": m}, {"a": m + 1}, 2 * m + 2)


def _sasaki_cpn_s2_doc(n: int) -> dict:
    if n < 2:
        raise ParseError("SASAKI_CPN_S2 needs n >= 2", n=n)
    return _truncated_doc({"preset": f"SASAKI_CPN_S2({n})",
                           "description": ("Circle-bundle model over a product of a "
                                           f"complex projective space (a1, a1^{n} = 0) "
                                           "and a 2-sphere (a2, a2^2 = 0), dx = a1 + a2."),
                           "dim": 2 * n + 1}, {"a1": n, "a2": 2}, 2 * n + 2, bundle=True)


def preset(name: str, **params) -> PresetBundle:
    """Expand a named preset into its bundle; the spec and action are valid."""
    doc = preset_document(name, **params)
    return PresetBundle(doc["preset"], *document_from_json(doc))


def preset_document(name: str, **params) -> dict:
    """The JSON document a preset expands to (for the CLI)."""
    name = name.upper().replace("-", "_")
    if name not in FIXED_PRESETS + PARAMETRIC_PRESETS:
        raise UnknownPreset(f"no preset named '{name}'", name=name,
                            known=sorted(FIXED_PRESETS + PARAMETRIC_PRESETS))
    known = {"CPN": ["m", "n"], "SASAKI_CPN_S2": ["n"]}.get(name, [])  # CPN's n aliases m
    for key in params:
        if key not in known:
            raise ParseError(f"preset {name} takes no parameter '{key}'", param=key, known=known)
    if name == "CPN":
        if "m" in params and "n" in params:
            raise ParseError("preset CPN takes m or its alias n, not both", param="n",
                             got=params["n"])
        return _cpn_doc(int(params.get("m", params.get("n", 1))))
    if name == "SASAKI_CPN_S2":
        return _sasaki_cpn_s2_doc(int(params.get("n", 4)))
    return _load_fixed(name)


def sphere_product_bundle(n: int) -> PresetBundle:
    """Model of the circle bundle over a product of n 2-spheres (n >= 2).

    Its document comes from the builder of CPN and SASAKI_CPN_S2: generators
    a1..an with ai^2 = 0 and x with dx = a1 + ... + an, through degree 3n + 2.
    It is parsed like every preset document.
    """
    if n < 2:
        raise ParseError("need at least two sphere factors", n=n)
    doc = _truncated_doc({"description": f"circle bundle over a product of {n} 2-spheres",
                          "dim": 2 * n + 1},
                         {f"a{i}": 2 for i in range(1, n + 1)}, 3 * n + 2, bundle=True)
    return PresetBundle(f"SASAKI_S2PROD({n})", *document_from_json(doc))
