"""CycScalar against a reference that does the same arithmetic on Fractions.

The reference keeps an element of Q(zeta_N) as a tuple of phi(N) Fraction
coefficients: products reduce through a table of x^k mod Phi_N with Fraction
entries, and inverses come from the extended Euclidean algorithm in Q[x]
against Phi_N.  Every operation of the integer-numerator CycScalar must
give the same coefficients, the same string, the same equality and the same
hash, and every result must be in canonical form: numerators and
denominator coprime, denominator positive.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

from cdgalab.scalars import CycField, CycScalar, cyclotomic_poly

MODULI = [1, 2, 3, 4, 5, 6, 8, 12]
Q0, Q1 = Fraction(0), Fraction(1)


# -- the reference ----------------------------------------------------------

def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


@lru_cache(maxsize=None)
def ref_residues(n: int) -> tuple:
    """Row k is x^k mod Phi_n as Fractions, for 0 <= k < max(n, 2 * degree - 1)."""
    phi = cyclotomic_poly(n)
    d = len(phi) - 1
    top = [Fraction(-c, phi[-1]) for c in phi[:-1]]
    rows = [tuple(Q1 if i == k else Q0 for i in range(d)) for k in range(d)]
    while len(rows) < max(n, 2 * d - 1):
        prev = rows[-1]
        shifted = [Q0] + list(prev[:-1])
        if prev[-1]:
            shifted = [shifted[i] + prev[-1] * top[i] for i in range(d)]
        rows.append(tuple(shifted))
    return tuple(rows)


def ref_from_poly(n: int, poly) -> tuple:
    d = len(cyclotomic_poly(n)) - 1
    out = [Q0] * d
    for k, c in enumerate(poly):
        c = Fraction(c)
        if c:
            row = ref_residues(n)[k % n]
            for i in range(d):
                out[i] += c * row[i]
    return tuple(out)


def ref_add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def ref_neg(a: tuple) -> tuple:
    return tuple(-x for x in a)


def ref_mul(n: int, a: tuple, b: tuple) -> tuple:
    d = len(a)
    red = ref_residues(n)
    out = [Q0] * d
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y == 0:
                continue
            k, c = i + j, x * y
            if k < d:
                out[k] += c
            else:
                for t in range(d):
                    if red[k][t]:
                        out[t] += c * red[k][t]
    return tuple(out)


def _qpoly_mul(a: list, b: list) -> list:
    out = [Q0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _qpoly_divmod(a: list, b: list):
    a = list(a)
    q = [Q0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + len(b) - 1] / b[-1]
        q[k] = c
        if c:
            for j, t in enumerate(b):
                a[k + j] -= c * t
    return _trim(q), _trim(a)


def _qpoly_sub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else Q0) - (b[i] if i < len(b) else Q0)
                  for i in range(n)])


def ref_inverse(n: int, a: tuple) -> tuple:
    """Extended Euclid in Q[x] against Phi_n."""
    r0, r1 = [Fraction(c) for c in cyclotomic_poly(n)], _trim(list(a))
    s0, s1 = [], [Q1]
    while True:
        r1 = _trim(r1)
        if len(r1) == 1:
            return ref_from_poly(n, [c / r1[0] for c in s1])
        q, rem = _qpoly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _qpoly_sub(s0, _qpoly_mul(q, s1))


def ref_conj(n: int, a: tuple) -> tuple:
    poly = [Q0] * n
    for k, c in enumerate(a):
        poly[(k * (n - 1)) % n] += c
    return ref_from_poly(n, poly)


def ref_embed(n: int, a: tuple, m: int) -> tuple:
    step = m // n
    poly = [Q0] * ((len(a) - 1) * step + 1)
    for k, c in enumerate(a):
        poly[k * step] += c
    return ref_from_poly(m, poly)


def ref_str(n: int, a: tuple) -> str:
    if not any(a):
        return "0"
    parts = []
    for k, c in enumerate(a):
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            z = f"z{n}" + (f"^{k}" if k > 1 else "")
            parts.append(z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}")
    return " + ".join(parts).replace("+ -", "- ")


# -- strategies -------------------------------------------------------------

fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def field_and_polys(draw, count=2, extra=0):
    """A modulus and ``count`` coefficient lists, each up to ``extra`` longer than phi(N).

    Each list is the unit, 1 + 0*zeta + ..., about one time in four, so
    products by the unit come up on either side.
    """
    n = draw(st.sampled_from(MODULI))
    d = CycField.get(n).degree
    polys = [[Q1] + [Q0] * (d - 1) if draw(st.integers(0, 3)) == 3
             else draw(st.lists(fractions, min_size=d, max_size=d + extra))
             for _ in range(count)]
    return n, polys


def canonical(s: CycScalar) -> bool:
    if s.den <= 0 or len(s.num) != s.field.degree:
        return False
    if not any(s.num):
        return s.den == 1
    return gcd(s.den, *s.num) == 1


def agrees(s: CycScalar, ref: tuple) -> bool:
    return canonical(s) and s.coeffs == ref and str(s) == ref_str(s.field.modulus, ref)


# -- the checks -------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(field_and_polys(count=1, extra=30))
def test_from_poly_and_zeta_match_reference(case):
    n, (poly,) = case
    field = CycField.get(n)
    assert agrees(field.from_poly(poly), ref_from_poly(n, poly))
    k = len(poly)
    assert agrees(field.zeta(k), ref_from_poly(n, [Q0] * (k % n) + [Q1]))


@settings(max_examples=400, deadline=None)
@given(field_and_polys())
def test_ring_operations_match_reference(case):
    n, (p, q) = case
    field = CycField.get(n)
    a, b = field.from_poly(p), field.from_poly(q)
    ra, rb = a.coeffs, b.coeffs
    assert ra == tuple(p) and rb == tuple(q)
    assert agrees(a + b, ref_add(ra, rb))
    assert agrees(a - b, ref_add(ra, ref_neg(rb)))
    assert agrees(-a, ref_neg(ra))
    assert agrees(a * b, ref_mul(n, ra, rb))
    assert agrees(b * a, ref_mul(n, ra, rb))
    assert agrees(a * a, ref_mul(n, ra, ra))
    assert agrees(a.conj(), ref_conj(n, ra))
    for m in (2 * n, 3 * n):
        if m <= 24:
            assert agrees(a.embed(m), ref_embed(n, ra, m))


@settings(max_examples=400, deadline=None)
@given(field_and_polys())
def test_inverse_and_division_match_reference(case):
    n, (p, q) = case
    field = CycField.get(n)
    a, b = field.from_poly(p), field.from_poly(q)
    if b.is_zero():
        return
    inv = ref_inverse(n, b.coeffs)
    assert agrees(b.inverse(), inv)
    assert agrees(a / b, ref_mul(n, a.coeffs, inv))
    assert agrees(b * b.inverse(), ref_from_poly(n, [Q1]))


@settings(max_examples=300, deadline=None)
@given(field_and_polys(), st.integers(-9, 9), fractions)
def test_rational_operands_match_reference(case, k, r):
    n, (p, _) = case
    field = CycField.get(n)
    a = field.from_poly(p)
    ra = a.coeffs
    for c in (k, r):
        rc = ref_from_poly(n, [c])
        assert agrees(a * c, ref_mul(n, ra, rc))
        assert agrees(c * a, ref_mul(n, ra, rc))
        assert agrees(a + c, ref_add(ra, rc))
        assert agrees(c - a, ref_add(rc, ref_neg(ra)))
        assert agrees(field.rational(c), rc)
        if c != 0:
            assert agrees(a / c, ref_mul(n, ra, ref_inverse(n, rc)))


@settings(max_examples=300, deadline=None)
@given(field_and_polys())
def test_equality_and_hash_match_reference(case):
    n, (p, q) = case
    field = CycField.get(n)
    a, b = field.from_poly(p), field.from_poly(q)
    assert (a == b) == (a.coeffs == b.coeffs)
    # The hash is that of the canonical integer form, read off the reference.
    ref = ref_from_poly(n, p)
    den = lcm(*(c.denominator for c in ref))
    assert hash(a) == hash((n, tuple(int(c * den) for c in ref), den))
    # The same value reached two ways is equal and hashes equal.
    c = (a + b) - b
    assert c == a and hash(c) == hash(a)
    assert (a == p[0]) == (a.coeffs == ref_from_poly(n, [p[0]]))


def test_zero_is_canonical():
    for n in MODULI:
        field = CycField.get(n)
        z = field.zeta() - field.zeta()
        assert z.num == (0,) * field.degree and z.den == 1
        assert z == field.zero and z.is_zero()
        half = field.rational(Fraction(1, 2))
        assert (half + half) == field.one and (half + half).den == 1


def test_products_by_the_unit_in_every_field():
    # A product by the unit is the other factor, whether the unit is the
    # field's own ``one`` or a 1 computed some other way.
    for n in MODULI:
        field = CycField.get(n)
        half = field.rational(Fraction(1, 2))
        ones = (field.one, half + half, field.zeta() * field.zeta().inverse(), 1)
        poly = [Fraction(3, 2), Fraction(-1, 3), Fraction(5, 7)][:field.degree]
        for a in (field.from_poly(poly), field.zero, field.one, half):
            for one in ones:
                assert agrees(a * one, a.coeffs) and agrees(one * a, a.coeffs)
