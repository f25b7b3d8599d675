"""Every error code is pinned as a literal, and every code is documented.

Users and docs/FORMATS.md read the ``code`` strings, so a rename of an error
class must not change one without notice.
"""

import re
from pathlib import Path

from cdgalab import errors
from cdgalab.errors import CdgaError

CODES = {
    "CdgaError": "CDGA_ERROR",
    "ParseError": "PARSE_ERROR",
    "InhomogeneousElement": "INHOMOGENEOUS_ELEMENT",
    "InhomogeneousRelation": "INHOMOGENEOUS_RELATION",
    "BadDifferentialDegree": "BAD_DIFFERENTIAL_DEGREE",
    "D2Nonzero": "D2_NONZERO",
    "IdealNotStable": "IDEAL_NOT_STABLE",
    "ParentMismatch": "PARENT_MISMATCH",
    "CapExceeded": "CAP_EXCEEDED",
    "CapTooLow": "CAP_TOO_LOW",
    "TruncatedOperand": "TRUNCATED_OPERAND",
    "NoConjugateDeclared": "NO_CONJUGATE_DECLARED",
    "NotClosed": "NOT_CLOSED",
    "NotInSubcomplex": "NOT_IN_SUBCOMPLEX",
    "NotChainMap": "NOT_CHAIN_MAP",
    "OrderMismatch": "ORDER_MISMATCH",
    "ConjugationBroken": "CONJUGATION_BROKEN",
    "DegreeOverflow": "DEGREE_OVERFLOW",
    "NoTopDeclared": "NO_TOP_DECLARED",
    "BadOmegaDegree": "BAD_OMEGA_DEGREE",
    "OddADegree": "ODD_A_DEGREE",
    "OrderUnsupported": "ORDER_UNSUPPORTED",
    "NotOneConnected": "NOT_ONE_CONNECTED",
    "UnknownPreset": "UNKNOWN_PRESET",
    "EulerNotClosed": "EULER_NOT_CLOSED",
    "EulerBadDegree": "EULER_BAD_DEGREE",
    "FieldMismatch": "FIELD_MISMATCH",
    "ModulusTooLarge": "MODULUS_TOO_LARGE",
    "ScalarTooLarge": "SCALAR_TOO_LARGE",
}

FORMATS = Path(__file__).resolve().parent.parent / "docs" / "FORMATS.md"


def error_classes():
    """CdgaError and every subclass defined in the errors module."""
    found, todo = [], [CdgaError]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in found if cls.__module__ == errors.__name__]


def test_every_code_is_pinned():
    assert {cls.__name__: cls.code for cls in error_classes()} == CODES


def test_every_code_is_documented():
    documented = set(re.findall(r"`([A-Z0-9_]+)`", FORMATS.read_text()))
    assert sorted({cls.code for cls in error_classes()} - documented) == []
