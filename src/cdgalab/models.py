"""Model constructors: CE complexes, circle bundles, tensor products, presets.

Fixed presets are JSON documents shipped with the package; the parametrized
ones (CPN(m), SASAKI_CPN_S2(n)) generate the same JSON shape in memory and
feed it through the same parser, so every preset exercises the external
format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple

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

    @property
    def dim(self) -> Optional[int]:
        return self.meta.get("dim")


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
            if sum(e for _, e in mono) != 2:
                raise ParseError("CE differentials must be quadratic",
                                 generator=spec.generators[gi].name)
    return spec.validate()


def _carry_terms(elem: Element) -> List[Tuple[object, Tuple[str, ...]]]:
    """Element -> (coeff, names) data usable in another spec's constructor."""
    return [(c, monomial_names(elem.parent, mono)) for mono, c in elem.terms.items()]


def circle_bundle(base: AlgebraSpec, euler: Element, gen_name: str = "x") -> AlgebraSpec:
    """Adjoin a degree-1 generator x with dx = euler (a closed 2-cocycle)."""
    if euler.parent is not base:
        raise ParseError("Euler class must live in the base algebra")
    if euler.degree != 2 and not euler.is_zero():
        raise EulerBadDegree("Euler class must have degree 2", degree=euler.degree)
    if not euler.d().is_zero():
        raise EulerNotClosed("Euler class must be closed",
                             witness=euler.d().render())
    if gen_name in base.index:
        raise ParseError(f"generator name '{gen_name}' already used in the base")
    gens = list(base.generators) + [GeneratorDecl(gen_name, 1)]
    diff = {base.generators[gi].name: _carry_terms(img)
            for gi, img in base.differential.items()}
    if not euler.is_zero():
        diff[gen_name] = _carry_terms(euler)
    rels = [_carry_terms(rel) for rel in base.relations]
    # scale the coefficients into the same field; carry the cap one higher
    spec = AlgebraSpec(base.field, gens, differential=diff, relations=rels,
                       degree_cap=base.degree_cap + 1)
    return spec.validate()


def tensor(a: AlgebraSpec, b: AlgebraSpec) -> AlgebraSpec:
    """Graded tensor product; generator names must be disjoint."""
    if a.field.modulus != b.field.modulus:
        target = CycField.get(
            a.field.modulus * b.field.modulus //
            __import__("math").gcd(a.field.modulus, b.field.modulus))
    else:
        target = a.field
    overlap = set(g.name for g in a.generators) & set(g.name for g in b.generators)
    if overlap:
        raise ParseError("tensor factors share generator names",
                         names=sorted(overlap))
    gens = list(a.generators) + list(b.generators)
    diff = {}
    rels = []
    for src in (a, b):
        for gi, img in src.differential.items():
            diff[src.generators[gi].name] = [
                (c.embed(target.modulus) if c.field.modulus != target.modulus else c, names)
                for c, names in _carry_terms(img)]
        for rel in src.relations:
            rels.append([
                (c.embed(target.modulus) if c.field.modulus != target.modulus else c, names)
                for c, names in _carry_terms(rel)])
    cap = a.degree_cap + b.degree_cap - 1
    spec = AlgebraSpec(target, gens, differential=diff, relations=rels, degree_cap=cap)
    return spec.validate()


# -- presets ---------------------------------------------------------------

def _load_fixed(name: str) -> dict:
    path = resources.files("cdgalab.presets").joinpath(f"{name}.json")
    return json.loads(path.read_text())


def _cpn_doc(m: int) -> dict:
    if m < 1:
        raise ParseError("CPN needs a positive dimension parameter", m=m)
    return {
        "preset": f"CPN({m})",
        "description": "Truncated polynomial presentation: one degree-2 generator "
                       f"with a^{m + 1} = 0.",
        "dim": 2 * m,
        "half_dim": m,
        "algebra": {
            "zeta": 1,
            "degree_cap": 2 * m + 2,
            "generators": [{"name": "a", "degree": 2}],
            "differential": {},
            "relations": [[{"coeff": "1", "monomial": ["a"] * (m + 1)}]],
        },
        "classes": {"a": [{"coeff": "1", "monomial": ["a"]}]},
        "volume": ["a"] * m,
    }


def _sasaki_cpn_s2_doc(n: int) -> dict:
    if n < 2:
        raise ParseError("SASAKI_CPN_S2 needs n >= 2", n=n)
    return {
        "preset": f"SASAKI_CPN_S2({n})",
        "description": ("Circle-bundle model over a product of a complex projective "
                        f"space (a1, a1^{n} = 0) and a 2-sphere (a2, a2^2 = 0), "
                        "dx = a1 + a2."),
        "dim": 2 * n + 1,
        "algebra": {
            "zeta": 1,
            "degree_cap": 2 * n + 2,
            "generators": [
                {"name": "a1", "degree": 2},
                {"name": "a2", "degree": 2},
                {"name": "x", "degree": 1},
            ],
            "differential": {
                "x": [{"coeff": "1", "monomial": ["a1"]},
                      {"coeff": "1", "monomial": ["a2"]}],
            },
            "relations": [
                [{"coeff": "1", "monomial": ["a1"] * n}],
                [{"coeff": "1", "monomial": ["a2", "a2"]}],
            ],
        },
        "classes": {
            "a1": [{"coeff": "1", "monomial": ["a1"]}],
            "a2": [{"coeff": "1", "monomial": ["a2"]}],
            "omega": [{"coeff": "1", "monomial": ["a1"]},
                      {"coeff": "1", "monomial": ["a2"]}],
        },
        "volume": ["a1"] * (n - 1) + ["a2", "x"],
    }


def preset(name: str, **params) -> PresetBundle:
    """Expand a named preset into a validated bundle."""
    doc = preset_document(name, **params)
    spec, action, classes, volume, meta = document_from_json(doc)
    return PresetBundle(name=doc["preset"], spec=spec, action=action,
                        classes=classes, volume=volume, meta=meta)


def preset_document(name: str, **params) -> dict:
    """The JSON document a preset expands to (for the CLI)."""
    name = name.upper().replace("-", "_")
    if name in FIXED_PRESETS:
        return _load_fixed(name)
    if name == "CPN":
        return _cpn_doc(int(params.get("m", params.get("n", 1))))
    if name == "SASAKI_CPN_S2":
        return _sasaki_cpn_s2_doc(int(params.get("n", 4)))
    raise UnknownPreset(f"no preset named '{name}'", name=name,
                        known=sorted(FIXED_PRESETS + PARAMETRIC_PRESETS))


def sphere_product_bundle(n: int) -> PresetBundle:
    """Model of the circle bundle over a product of n 2-spheres (n >= 3).

    Built compositionally: tensor of n sphere presentations, then a circle
    bundle with Euler class a1 + ... + an.
    """
    if n < 2:
        raise ParseError("need at least two sphere factors", n=n)
    field = CycField.get(1)
    spheres = []
    for i in range(1, n + 1):
        spheres.append(AlgebraSpec(
            field, [GeneratorDecl(f"a{i}", 2)],
            relations=[[(1, (f"a{i}", f"a{i}"))]],
            degree_cap=4).validate())
    base = spheres[0]
    for s in spheres[1:]:
        base = tensor(base, s)
    euler = base.element([(1, (f"a{i}",)) for i in range(1, n + 1)])
    total = circle_bundle(base, euler, gen_name="x")
    classes = {f"a{i}": total.element([(1, (f"a{i}",))]) for i in range(1, n + 1)}
    classes["omega"] = total.element([(1, (f"a{i}",)) for i in range(1, n + 1)])
    volume = next(iter(total.element(
        [(1, tuple(f"a{i}" for i in range(1, n + 1)) + ("x",))]).terms))
    return PresetBundle(name=f"SASAKI_S2PROD({n})", spec=total, action=None,
                        classes=classes, volume=volume,
                        meta={"dim": 2 * n + 1,
                              "description": "circle bundle over a product of "
                                             f"{n} 2-spheres"})
