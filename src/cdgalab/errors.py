"""Error taxonomy.

Every failure mode that callers are expected to handle carries a stable
``code`` string; diagnostic payloads (witness elements, degrees, names) ride
along in ``details``.
"""

from __future__ import annotations


class CdgaError(Exception):
    code = "CDGA_ERROR"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details


class ParseError(CdgaError):
    code = "PARSE_ERROR"


class InhomogeneousElement(CdgaError):
    code = "INHOMOGENEOUS_ELEMENT"


class InhomogeneousRelation(CdgaError):
    code = "INHOMOGENEOUS_RELATION"


class BadDifferentialDegree(CdgaError):
    code = "BAD_DIFFERENTIAL_DEGREE"


class D2Nonzero(CdgaError):
    code = "D2_NONZERO"


class IdealNotStable(CdgaError):
    code = "IDEAL_NOT_STABLE"


class ParentMismatch(CdgaError):
    code = "PARENT_MISMATCH"


class CapExceeded(CdgaError):
    code = "CAP_EXCEEDED"


class CapTooLow(CdgaError):
    code = "CAP_TOO_LOW"


class TruncatedOperand(CdgaError):
    """A cap-truncated element was fed into a downstream operation."""

    code = "TRUNCATED_OPERAND"


class NoConjugateDeclared(CdgaError):
    code = "NO_CONJUGATE_DECLARED"


class NotClosed(CdgaError):
    code = "NOT_CLOSED"


class NotChainMap(CdgaError):
    code = "NOT_CHAIN_MAP"


class OrderMismatch(CdgaError):
    code = "ORDER_MISMATCH"


class ConjugationBroken(CdgaError):
    code = "CONJUGATION_BROKEN"


class DegreeOverflow(CdgaError):
    code = "DEGREE_OVERFLOW"


class NoTopDeclared(CdgaError):
    code = "NO_TOP_DECLARED"


class BadOmegaDegree(CdgaError):
    code = "BAD_OMEGA_DEGREE"


class OddADegree(CdgaError):
    code = "ODD_A_DEGREE"


class OrderUnsupported(CdgaError):
    code = "ORDER_UNSUPPORTED"


class NotOneConnected(CdgaError):
    code = "NOT_ONE_CONNECTED"


class UnknownPreset(CdgaError):
    code = "UNKNOWN_PRESET"


class EulerNotClosed(CdgaError):
    code = "EULER_NOT_CLOSED"


class EulerBadDegree(CdgaError):
    code = "EULER_BAD_DEGREE"


class FieldMismatch(CdgaError):
    code = "FIELD_MISMATCH"


class ModulusTooLarge(CdgaError):
    code = "MODULUS_TOO_LARGE"
