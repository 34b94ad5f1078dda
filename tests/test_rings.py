"""Scalar arithmetic in the four coefficient rings.

The point of these tests is to pin the arithmetic to independently known
values (small multiplication tables, quadratic residues mod 7, quaternion
unit relations) rather than to the implementation's own output.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from orthoform import (
    PrimeField,
    QuadraticField,
    RationalField,
    RationalQuaternions,
    ring_from_spec,
    solve_norm_equation,
    sqrt_in_prime_field,
)

GF7 = PrimeField(7)
GF2 = PrimeField(2)
GF9 = QuadraticField(3, "frobenius")
QQ = RationalField()
HH = RationalQuaternions()
ALL_RINGS = [GF7, GF2, GF9, QQ, HH]


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_large_prime_modulus_is_decided_quickly():
    start = time.perf_counter()
    ring = PrimeField(1000000000000000003)
    assert time.perf_counter() - start < 0.5
    assert ring.mul(ring.inv(12345), 12345) == 1
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(10**18)
    # strong pseudoprimes to several small bases are still caught
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(n)


def test_modulus_beyond_the_primality_bound_is_rejected():
    for ring_type in (PrimeField, QuadraticField):
        with pytest.raises(ValueError, match="too large"):
            ring_type(4000000000000000000000027)


def test_quadratic_field_rejects_char_two_and_bad_involution():
    with pytest.raises(ValueError):
        QuadraticField(2)
    with pytest.raises(ValueError):
        QuadraticField(3, "conj")


def test_gf7_inverse_table():
    # x * x^-1 = 1 for the whole multiplicative group, frozen values
    assert [GF7.inv(x) for x in range(1, 7)] == [1, 4, 5, 2, 3, 6]
    with pytest.raises(ZeroDivisionError):
        GF7.inv(0)


def test_gf7_sqrt_table():
    # squares mod 7 are {1, 2, 4}; the smaller root is returned
    expected = {0: 0, 1: 1, 2: 3, 3: None, 4: 2, 5: None, 6: None}
    for a, root in expected.items():
        assert sqrt_in_prime_field(GF7, a) == root
    # char 2: squaring is the identity, everything is its own root
    assert sqrt_in_prime_field(GF2, 1) == 1
    assert sqrt_in_prime_field(GF2, 0) == 0


def test_sqrt_tonelli_shanks_branch():
    # 13 % 4 == 1 exercises the full Tonelli-Shanks loop
    ring = PrimeField(13)
    for a in range(13):
        r = sqrt_in_prime_field(ring, a)
        if r is not None:
            assert (r * r) % 13 == a
            assert r <= 13 - r
    roots = [a for a in range(1, 13) if sqrt_in_prime_field(ring, a) is not None]
    assert len(roots) == 6


def test_smallest_nonresidue():
    assert GF7.smallest_nonresidue() == 3
    assert PrimeField(3).smallest_nonresidue() == 2
    assert GF2.smallest_nonresidue() is None


def test_gf9_is_a_field_of_nine_elements():
    elements = [(a, b) for a in range(3) for b in range(3)]
    nonzero = [e for e in elements if e != GF9.zero]
    for x in nonzero:
        assert GF9.mul(x, GF9.inv(x)) == GF9.one
    # x^2 = c with c the least non-residue mod 3
    assert GF9.nonresidue == 2
    assert GF9.mul((0, 1), (0, 1)) == (2, 0)


def test_gf9_frobenius_is_an_involution_fixing_the_prime_subfield():
    for a in range(3):
        assert GF9.sigma((a, 0)) == (a, 0)
    for a in range(3):
        for b in range(3):
            x = (a, b)
            assert GF9.sigma(GF9.sigma(x)) == x
            # multiplicative: sigma(xy) = sigma(x)sigma(y) in a commutative ring
            y = (1, 2)
            assert GF9.sigma(GF9.mul(x, y)) == GF9.mul(GF9.sigma(x), GF9.sigma(y))


def test_gf9_norm_table():
    # N(a + bx) = a^2 - 2 b^2 = a^2 + b^2 mod 3: four elements of norm 1,
    # four of norm 2, and zero
    norms = {}
    for a in range(3):
        for b in range(3):
            n = GF9.mul((a, b), GF9.sigma((a, b)))
            assert n[1] == 0
            norms[(a, b)] = n[0]
    assert sorted(norms.values()).count(1) == 4
    assert sorted(norms.values()).count(2) == 4


def test_solve_norm_equation_hits_every_target():
    for t in (1, 2):
        gamma = solve_norm_equation(GF9, (t, 0))
        assert GF9.mul(gamma, GF9.sigma(gamma)) == (t, 0)
    ring13 = QuadraticField(13, "frobenius")
    for t in range(1, 13):
        gamma = solve_norm_equation(ring13, (t, 0))
        assert ring13.mul(gamma, ring13.sigma(gamma)) == (t, 0)
    with pytest.raises(ValueError):
        solve_norm_equation(GF9, (0, 0))
    with pytest.raises(ValueError):
        solve_norm_equation(GF9, (1, 1))


def test_quaternion_unit_relations():
    i = (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    j = (Fraction(0), Fraction(0), Fraction(1), Fraction(0))
    k = (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    minus_one = HH.neg(HH.one)
    assert HH.mul(i, i) == minus_one
    assert HH.mul(j, j) == minus_one
    assert HH.mul(k, k) == minus_one
    assert HH.mul(i, j) == k
    assert HH.mul(j, k) == i
    assert HH.mul(k, i) == j
    assert HH.mul(j, i) == HH.neg(k)


def test_quaternion_conjugation_is_an_anti_automorphism():
    rng = random.Random(20)
    for _ in range(50):
        x, y = HH.random(rng), HH.random(rng)
        assert HH.sigma(HH.mul(x, y)) == HH.mul(HH.sigma(y), HH.sigma(x))
        assert HH.sigma(HH.sigma(x)) == x
    # norm x * conj(x) is the real squared length
    x = (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2))
    n = HH.mul(x, HH.sigma(x))
    assert n == (Fraction(1) + 4 + 1 + Fraction(1, 4), 0, 0, 0)


def test_quaternion_inverse():
    rng = random.Random(21)
    for _ in range(30):
        x = HH.random(rng)
        if x == HH.zero:
            continue
        assert HH.mul(x, HH.inv(x)) == HH.one
        assert HH.mul(HH.inv(x), x) == HH.one
    with pytest.raises(ZeroDivisionError):
        HH.inv(HH.zero)


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: repr(r))
def test_field_axioms_on_random_samples(ring):
    rng = random.Random(7)
    for _ in range(40):
        x, y, z = ring.random(rng), ring.random(rng), ring.random(rng)
        assert ring.add(x, ring.neg(x)) == ring.zero
        assert ring.add(ring.add(x, y), z) == ring.add(x, ring.add(y, z))
        assert ring.mul(ring.mul(x, y), z) == ring.mul(x, ring.mul(y, z))
        assert ring.mul(x, ring.add(y, z)) == ring.add(ring.mul(x, y), ring.mul(x, z))
        assert ring.mul(ring.add(y, z), x) == ring.add(ring.mul(y, x), ring.mul(z, x))
        assert ring.sub(x, y) == ring.add(x, ring.neg(y))
        assert ring.mul(ring.one, x) == x == ring.mul(x, ring.one)


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: repr(r))
def test_sigma_is_a_unital_anti_isomorphism_of_order_two(ring):
    rng = random.Random(8)
    assert ring.sigma(ring.one) == ring.one
    for _ in range(30):
        x, y = ring.random(rng), ring.random(rng)
        assert ring.sigma(ring.sigma(x)) == x
        assert ring.sigma(ring.add(x, y)) == ring.add(ring.sigma(x), ring.sigma(y))
        assert ring.sigma(ring.mul(x, y)) == ring.mul(ring.sigma(y), ring.sigma(x))


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: repr(r))
def test_parse_format_round_trip(ring):
    rng = random.Random(9)
    for _ in range(40):
        x = ring.random(rng)
        assert ring.parse(ring.format(x)) == x


def test_parse_accepts_plain_literals():
    assert GF7.parse("-1") == 6
    assert GF9.parse("2") == (2, 0)
    assert GF9.parse("1+2*x") == (1, 2)
    assert QQ.parse("-3/4") == Fraction(-3, 4)
    q = HH.parse("1/2+3*i-1*j+0*k")
    assert q == (Fraction(1, 2), Fraction(3), Fraction(-1), Fraction(0))


def test_parse_rejects_garbage():
    for ring, text in [(GF7, "zz"), (GF9, "1+2*y"), (QQ, "1.5.2"), (HH, "i+q")]:
        with pytest.raises(ValueError):
            ring.parse(text)


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: repr(r))
def test_random_sigma_fixed_satisfies_the_diagonal_law(ring):
    rng = random.Random(10)
    for s in (1, -1):
        for _ in range(25):
            beta = ring.random_sigma_fixed(s, rng)
            assert beta == ring.apply_sign(s, ring.sigma(beta))


def test_validate_scalar_rejects_foreign_values():
    with pytest.raises(ValueError):
        GF7.validate_scalar(True)
    with pytest.raises(ValueError):
        GF7.validate_scalar(9)
    with pytest.raises(ValueError):
        GF9.validate_scalar((1, 2, 3))
    with pytest.raises(ValueError):
        QQ.validate_scalar(0.5)
    with pytest.raises(ValueError):
        HH.validate_scalar((1, 2, 3))
    assert QQ.validate_scalar(3) == Fraction(3)
    assert HH.validate_scalar((1, 0, 0, 0)) == HH.one


def test_ring_equality_and_hash():
    assert PrimeField(7) == GF7
    assert PrimeField(5) != GF7
    assert QuadraticField(3) == GF9
    assert len({PrimeField(7), PrimeField(7), PrimeField(5)}) == 2


def test_ring_from_spec():
    assert ring_from_spec("gfp", 7) == GF7
    assert ring_from_spec("gfp2", 3, "frobenius") == GF9
    assert ring_from_spec("rational") == QQ
    assert ring_from_spec("quaternion", None, "conj") == HH
    with pytest.raises(ValueError):
        ring_from_spec("gfp")
    with pytest.raises(ValueError):
        ring_from_spec("rational", 5)
    with pytest.raises(ValueError):
        ring_from_spec("gfp", 7, "frobenius")
    with pytest.raises(ValueError):
        ring_from_spec("octonion")
