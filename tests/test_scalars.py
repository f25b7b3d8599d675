import random
from fractions import Fraction

import pytest

from cdgalab import scalars
from cdgalab.errors import CdgaError, FieldMismatch, ModulusTooLarge, ParseError
from cdgalab.scalars import MAX_MODULUS, CycField, CycScalar, cyclotomic_poly, euler_phi


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_coeff_length_is_phi():
    for n in (1, 2, 3, 4, 6, 8, 12):
        k = CycField.get(n)
        assert k.degree == euler_phi(n)
        assert len(k.one.coeffs) == k.degree


def test_zeta6_cubed_is_minus_one():
    k = CycField.get(6)
    z = k.zeta()
    assert z * z * z == k.rational(-1)


def test_zeta6_inverse_pair():
    k = CycField.get(6)
    assert k.zeta(1) * k.zeta(5) == k.one


def test_zeta12_cubed_is_i():
    k = CycField.get(12)
    i = k.zeta(3)
    assert i * i == k.rational(-1)


def test_root_of_unity_and_min_poly_identities():
    for n in (3, 4, 6, 12):
        k = CycField.get(n)
        z = k.zeta()
        acc = k.one
        for _ in range(n):
            acc = acc * z
        assert acc == k.one
        phi = cyclotomic_poly(n)
        val = k.zero
        for c in reversed(phi):
            val = val * z + k.rational(c)
        assert val.is_zero()


def test_conjugation():
    k3 = CycField.get(3)
    assert k3.zeta().conj() == k3.zeta(2)
    assert k3.rational(Fraction(7, 3)).conj() == k3.rational(Fraction(7, 3))
    k6 = CycField.get(6)
    s = k6.zeta() + k6.rational(2)
    assert s.conj().conj() == s


def test_conj_is_ring_automorphism_and_norm_real():
    rng = random.Random(7)
    k = CycField.get(12)
    for _ in range(50):
        a = k.from_poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)])
        b = k.from_poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)])
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
        assert a * a.conj() == (a * a.conj()).conj()


def test_embedding():
    k3, k6, k12 = CycField.get(3), CycField.get(6), CycField.get(12)
    assert k3.zeta().embed(6) == k6.zeta(2)
    assert k3.one.embed(6) == k6.one
    a = k6.zeta()
    assert a.embed(12) * a.embed(12) == (a * a).embed(12)
    with pytest.raises(ParseError):
        k6.zeta().embed(4)


def test_embedding_injective_on_random_inputs():
    rng = random.Random(11)
    k = CycField.get(6)
    seen = {}
    for _ in range(100):
        a = k.from_poly([Fraction(rng.randint(-3, 3)) for _ in range(2)])
        image = a.embed(12)
        if image.coeffs in seen:
            assert seen[image.coeffs] == a.coeffs
        seen[image.coeffs] = a.coeffs


def test_field_axioms_randomized():
    rng = random.Random(3)
    k = CycField.get(12)

    def rand():
        return k.from_poly([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)])

    for _ in range(100):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == k.one


def test_division():
    k = CycField.get(6)
    z = k.zeta()
    assert (z * z) / z == z
    with pytest.raises(ZeroDivisionError):
        k.one / k.zero


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(FieldMismatch):
        CycField.get(6).one + CycField.get(4).one


def test_rational_extraction():
    k = CycField.get(12)
    assert k.rational(Fraction(3, 2)).rational_value() == Fraction(3, 2)
    assert not k.zeta().is_rational()
    i = k.zeta(3)
    assert (i + i.conj()).is_zero()
    real = (k.zeta() + k.zeta().conj()) * k.rational(Fraction(1, 2))
    assert real == real.conj()


def test_invalid_modulus_rejected():
    with pytest.raises(ParseError):
        CycField(0)
    with pytest.raises(ParseError):
        CycField(-3)


def test_huge_modulus_refused_before_field_data(monkeypatch):
    def refuse(*args):
        raise AssertionError("field data computed for a refused modulus")

    monkeypatch.setattr(scalars, "cyclotomic_poly", refuse)
    monkeypatch.setattr(scalars, "euler_phi", refuse)
    for modulus in (10**12, MAX_MODULUS + 1):
        with pytest.raises(ModulusTooLarge) as info:
            CycField.get(modulus)
        assert isinstance(info.value, CdgaError)
        assert info.value.code == "MODULUS_TOO_LARGE"
        assert info.value.details == {"modulus": modulus, "limit": MAX_MODULUS}


def test_modulus_limit_is_accepted():
    assert MAX_MODULUS > 12
    k = CycField.get(MAX_MODULUS)
    assert k.degree == euler_phi(MAX_MODULUS)
    assert k.zeta(MAX_MODULUS // 2) == k.rational(-1)
    # The largest prime under the cap gives the largest degree, phi(N) = N - 1.
    n = max(m for m in range(2, MAX_MODULUS + 1) if euler_phi(m) == m - 1)
    k = CycField.get(n)
    a = k.from_poly([(-1) ** i * (i % 7 + 1) for i in range(k.degree)])
    assert a * a.inverse() == k.one
