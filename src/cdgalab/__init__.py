"""Exact-arithmetic engine for finitely presented CDGAs over cyclotomic fields.

Core objects: :class:`CycField`/:class:`CycScalar` (exact cyclotomic
scalars), :class:`AlgebraSpec`/:class:`Element` (graded-commutative
differential algebras with relations), :class:`CohomologyRing` (canonical
representatives, cup products, exactness), :class:`GroupActionSpec`
(invariant subcomplexes), Massey products, hard-Lefschetz tests and bounded
Sullivan minimal models.
"""

from .algebra import AlgebraSpec, Element, GeneratorDecl
from .chains import FreeSlices, SubcomplexSlices
from .cohomology import CohomClass, CohomologyRing, cohomology
from .errors import CdgaError
from .lefschetz import LefschetzReport, lefschetz_test, universal_obstruction
from .massey import (
    INCONCLUSIVE,
    NONZERO,
    ZERO,
    MasseyReport,
    a_massey,
    higher_massey,
    triple_massey,
)
from .minmodel import (
    CERTIFIED,
    FORMAL,
    NOT_FORMAL,
    REFUTED,
    UNKNOWN,
    MinimalModel,
    build_minimal_model,
    formality_verdict,
    massey_scan,
    s_formality_check,
)
from .models import (
    PresetBundle,
    ce_complex,
    circle_bundle,
    preset,
    sphere_product_bundle,
    tensor,
)
from .scalars import CycField, CycScalar
from .symmetry import (
    GroupActionSpec,
    burnside_invariant_dimension,
    invariant_cohomology,
    invariant_complex,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec", "Element", "GeneratorDecl",
    "FreeSlices", "SubcomplexSlices",
    "CohomClass", "CohomologyRing", "cohomology",
    "CdgaError",
    "LefschetzReport", "lefschetz_test", "universal_obstruction",
    "MasseyReport", "a_massey", "higher_massey", "triple_massey",
    "NONZERO", "ZERO", "INCONCLUSIVE",
    "MinimalModel", "build_minimal_model", "formality_verdict",
    "massey_scan", "s_formality_check",
    "CERTIFIED", "REFUTED", "UNKNOWN", "FORMAL", "NOT_FORMAL",
    "PresetBundle", "ce_complex", "circle_bundle", "preset",
    "sphere_product_bundle", "tensor",
    "CycField", "CycScalar",
    "GroupActionSpec", "burnside_invariant_dimension",
    "invariant_cohomology", "invariant_complex",
]
