"""Error taxonomy.

Every failure mode that callers are expected to handle carries a stable
``code`` string; diagnostic payloads (witness elements, degrees, names) ride
along in ``details``.
"""

from __future__ import annotations

import re

_WORD_BREAK = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


class CdgaError(Exception):
    code = "CDGA_ERROR"

    def __init_subclass__(cls, **kwargs):
        """A subclass's code is its name in UPPER_SNAKE: OddADegree is ODD_A_DEGREE."""
        super().__init_subclass__(**kwargs)
        cls.code = _WORD_BREAK.sub("_", cls.__name__).upper()

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details


class ParseError(CdgaError):
    pass


class InhomogeneousElement(CdgaError):
    pass


class InhomogeneousRelation(CdgaError):
    pass


class BadDifferentialDegree(CdgaError):
    pass


class D2Nonzero(CdgaError):
    pass


class IdealNotStable(CdgaError):
    pass


class ParentMismatch(CdgaError):
    pass


class CapExceeded(CdgaError):
    pass


class CapTooLow(CdgaError):
    pass


class TruncatedOperand(CdgaError):
    """A cap-truncated element was fed into a downstream operation."""


class NoConjugateDeclared(CdgaError):
    pass


class NotClosed(CdgaError):
    pass


class NotInSubcomplex(CdgaError):
    """A vector or element lies outside the slice of a subcomplex."""


class NotChainMap(CdgaError):
    pass


class OrderMismatch(CdgaError):
    pass


class ConjugationBroken(CdgaError):
    pass


class DegreeOverflow(CdgaError):
    pass


class NoTopDeclared(CdgaError):
    pass


class BadOmegaDegree(CdgaError):
    pass


class OddADegree(CdgaError):
    pass


class OrderUnsupported(CdgaError):
    pass


class NotOneConnected(CdgaError):
    pass


class UnknownPreset(CdgaError):
    pass


class EulerNotClosed(CdgaError):
    pass


class EulerBadDegree(CdgaError):
    pass


class FieldMismatch(CdgaError):
    pass


class ModulusTooLarge(CdgaError):
    pass


class ScalarTooLarge(CdgaError):
    """A scalar has more digits than the interpreter writes (sys.get_int_max_str_digits)."""
