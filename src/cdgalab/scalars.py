"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are residues modulo the N-th cyclotomic polynomial Phi_N in the
power basis 1, zeta, ..., zeta^{phi(N)-1}, stored as a tuple of phi(N) integer
numerators over one positive integer denominator.  The form is canonical:
numerators and denominator share no factor, and zero is (0, ..., 0)/1, so
equality is a comparison of integers.  Phi_N is monic over Z, so reduction
mod Phi_N stays integral: a product is an integer convolution, a reduction
and one gcd.  All operations are exact; nothing is ever rounded.

Fields are interned per modulus (``CycField.get(N)``) and every value is
immutable, so scalars can be shared freely.  A modulus above ``MAX_MODULUS``
is refused before any field data is computed.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence

from .errors import FieldMismatch, ModulusTooLarge, ParseError, ScalarTooLarge

# Largest accepted cyclotomic modulus.  The presets use at most 12; the cap
# keeps a hostile document from building Phi_N for an enormous N, and from
# inverses whose phi(N) coefficients grow to about phi(N) * log phi(N) bits.
MAX_MODULUS = 200


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _div_monic(num: Sequence, den: Sequence) -> list:
    """Exact quotient of integer polynomials, ``den`` monic."""
    num = list(num)
    m = len(den) - 1
    q = [0] * (len(num) - m)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = num[k + m]
        if c:
            for j, t in enumerate(den):
                num[k + j] -= c * t
    if any(num):
        raise ArithmeticError("non-exact cyclotomic division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """Integer coefficients of Phi_n, little-endian: x^n - 1 over every Phi_d, d | n, d < n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _div_monic(num, cyclotomic_poly(d))
    return tuple(num)


class CycField:
    """The field Q(zeta_N), with the reduction data of the monic Phi_N."""

    _cache: dict = {}

    def __new__(cls, modulus: int):
        if modulus in cls._cache:
            return cls._cache[modulus]
        if modulus < 1:
            raise ParseError("cyclotomic modulus must be a positive integer", modulus=modulus)
        if modulus > MAX_MODULUS:
            raise ModulusTooLarge("cyclotomic modulus exceeds the supported limit",
                                  modulus=modulus, limit=MAX_MODULUS)
        self = super().__new__(cls)
        self.modulus = modulus
        phi = cyclotomic_poly(modulus)
        self.degree = len(phi) - 1
        # zeta^degree = sum of t * zeta^j over these (j, t): the low terms of -Phi_N.
        self._tail = tuple((j, -c) for j, c in enumerate(phi[:-1]) if c)
        self.zero = CycScalar(self, (0,) * self.degree, 1)
        self.one = self.rational(1)
        cls._cache[modulus] = self
        return self

    @staticmethod
    def get(modulus: int) -> "CycField":
        return CycField(modulus)

    def rational(self, value) -> "CycScalar":
        if value.__class__ is int:
            num, den = value, 1
        else:
            if value.__class__ is not Fraction:
                value = Fraction(value)
            num, den = value.numerator, value.denominator
        return CycScalar(self, (num,) + (0,) * (self.degree - 1), den)

    def zeta(self, power: int = 1) -> "CycScalar":
        power %= self.modulus
        poly = [0] * (power + 1)
        poly[power] = 1
        return _make(self, _reduce(self, poly), 1)

    def from_poly(self, poly: Sequence) -> "CycScalar":
        """Canonical reduction of a polynomial in zeta_N (little-endian), ints or Fractions."""
        den = lcm(1, *(c.denominator for c in poly))
        # zeta^N = 1, so exponents fold mod N before the division by Phi_N.
        folded = [0] * min(len(poly), self.modulus)
        for k, c in enumerate(poly):
            if c:
                folded[k % self.modulus] += c.numerator * (den // c.denominator)
        return _make(self, _reduce(self, folded), den)

    def __repr__(self):
        return f"CycField({self.modulus})"


def _reduce(field: CycField, poly: list) -> list:
    """The integer polynomial ``poly`` mod Phi_N, in place, padded to the degree."""
    d = field.degree
    tail = field._tail
    for k in range(len(poly) - 1, d - 1, -1):
        c = poly[k]
        if c:
            base = k - d
            for j, t in tail:
                poly[base + j] += c * t
    if len(poly) < d:
        poly.extend([0] * (d - len(poly)))
    del poly[d:]
    return poly


def _make(field: CycField, num: list, den: int) -> "CycScalar":
    """The scalar num/den (den > 0) in canonical form, by one gcd pass."""
    g = gcd(den, *num)
    if g != 1:
        num = [x // g for x in num]
        den //= g
    return CycScalar(field, tuple(num), den)


def rational_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0; ScalarTooLarge past the int-to-str digit limit."""
    g = gcd(num, den)
    try:
        return f"{num // g}" if den == g else f"{num // g}/{den // g}"
    except ValueError:
        m = max(abs(num), den) // g
        digits = int((m.bit_length() - 1) * 0.30102999566398120) + 1  # m's, or one short
        raise ScalarTooLarge("a scalar has more digits than can be written",
                             digits=digits + (m >= 10 ** digits),
                             limit=sys.get_int_max_str_digits()) from None


class CycScalar:
    """An element of Q(zeta_N): integer numerators ``num`` over ``den``."""

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field: CycField, num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den
        self._hash = None

    @property
    def coeffs(self) -> tuple:
        """The power-basis coefficients as Fractions."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    def _check(self, other: "CycScalar"):
        if self.field is not other.field:
            raise FieldMismatch(
                "scalars live in different cyclotomic fields; promote first",
                left=self.field.modulus,
                right=other.field.modulus,
            )

    def __add__(self, other):
        if other.__class__ is not CycScalar:
            other = _coerce(other, self.field)
        field = self.field
        if other.field is not field:
            self._check(other)
        da, db = self.den, other.den
        if da == db:
            return _make(field, [x + y for x, y in zip(self.num, other.num)], da)
        return _make(field, [x * db + y * da for x, y in zip(self.num, other.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return CycScalar(self.field, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        return self + (-_coerce(other, self.field))

    def __rsub__(self, other):
        return _coerce(other, self.field) - self

    def __mul__(self, other):
        if other.__class__ is not CycScalar:
            other = _coerce(other, self.field)
        field = self.field
        if other.field is not field:
            self._check(other)
        a, b = self.num, other.num
        if other.den == 1 and b == field.one.num:  # most products are by the unit
            return self
        if self.den == 1 and a == field.one.num:
            return other
        den = self.den * other.den
        # Two rational factors (always, when phi(N) = 1) multiply as fractions.
        if not any(a[1:]) and not any(b[1:]):
            num = a[0] * b[0]
            g = gcd(num, den)
            return CycScalar(field, (num // g,) + a[1:], den // g)
        out = [0] * (2 * field.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return _make(field, _reduce(field, out), den)

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        field = self.field
        if self.is_rational():
            num, den = self.num[0], self.den
            if num < 0:
                num, den = -num, -den
            return CycScalar(field, (den,) + self.num[1:], num)
        # Extended Euclid on Phi_N and the numerators: pseudo-division keeps
        # s * num = r (mod Phi_N) in integers, and each new pair (r, s) is
        # divided by its content.  Phi_N is irreducible, so r ends at a
        # constant c != 0, and 1/a = den * s / c.
        r0, r1 = list(cyclotomic_poly(field.modulus)), list(self.num)
        while not r1[-1]:
            r1.pop()
        s0, s1 = [0] * field.degree, [1] + [0] * (field.degree - 1)
        while len(r1) > 1:
            n, lead = len(r1) - 1, r1[-1]
            for k in range(len(r0) - 1 - n, -1, -1):
                c = r0[k + n]
                r0, s0 = [lead * x for x in r0], [lead * x for x in s0]
                for j, t in enumerate(r1):
                    r0[k + j] -= c * t
                for j, t in enumerate(s1):
                    if t:
                        s0[k + j] -= c * t
            while not r0[-1]:
                r0.pop()
            g = gcd(*r0, *s0)
            r0, r1, s0, s1 = r1, [x // g for x in r0], s1, [x // g for x in s0]
        c, den = r1[0], self.den
        if c < 0:
            c, den = -c, -den
        return _make(field, [x * den for x in s1], c)

    def __truediv__(self, other):
        other = _coerce(other, self.field)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other, self.field) / self

    def conj(self) -> "CycScalar":
        """Image under zeta_N -> zeta_N^{N-1} (complex conjugation)."""
        n = self.field.modulus
        poly = [0] * n
        for i, c in enumerate(self.num):
            if c:
                poly[-i % n] += c
        return _make(self.field, _reduce(self.field, poly), self.den)

    def embed(self, modulus: int) -> "CycScalar":
        """Re-express in Q(zeta_M) via zeta_N -> zeta_M^{M/N}; requires N | M."""
        n = self.field.modulus
        if modulus % n != 0:
            raise ParseError("embedding requires the source modulus to divide the target",
                             source=n, target=modulus)
        target = CycField.get(modulus)
        step = modulus // n
        poly = [0] * ((self.field.degree - 1) * step + 1)
        for k, c in enumerate(self.num):
            if c:
                poly[k * step] += c
        return _make(target, _reduce(target, poly), self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ParseError("scalar is not rational", coeffs=[str(c) for c in self.coeffs])
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        if other.__class__ is not CycScalar and isinstance(other, (int, Fraction)):
            other = self.field.rational(other)  # Fraction's isinstance is a slow ABC check
        if not isinstance(other, CycScalar):
            return NotImplemented
        return self.field is other.field and self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.modulus, self.num, self.den))
        return self._hash

    def __repr__(self):
        return f"CycScalar(N={self.field.modulus}, {self})"

    def __str__(self):
        parts = []
        for k, n in enumerate(self.num):
            if n:
                c, z = rational_text(n, self.den), f"z{self.field.modulus}" + f"^{k}" * (k > 1)
                parts.append(c if k == 0 else z if c == "1" else f"-{z}" if c == "-1" else
                             f"{c}*{z}")
        return " + ".join(parts).replace("+ -", "- ") or "0"


def _coerce(value, field: CycField) -> CycScalar:
    if isinstance(value, CycScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return field.rational(value)
    raise TypeError(f"cannot coerce {type(value).__name__} into {field!r}")
