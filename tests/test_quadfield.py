"""Unit tests for real quadratic field arithmetic and enumeration."""

import random

import pytest

from padicgz.errors import ConfigError, RamifiedPrime, UnsupportedField
from padicgz.quadfield import (
    SUPPORT_DINV,
    PrimeSplitting,
    factorize,
    ideal_divisors,
    make_field,
    tot_pos_enum,
)


def test_make_field():
    L = make_field(5)
    assert L.disc == 5
    assert L.phi_norm == -1
    make_field(13)
    with pytest.raises(UnsupportedField):
        make_field(4)
    with pytest.raises(UnsupportedField):
        make_field(21)  # h+ = 2


def test_splitting_types():
    L = make_field(5)
    s11 = PrimeSplitting(L, 11, 6)
    assert s11.kind == "split"
    # trace-minimal generators (7 +- sqrt(5))/2; the classical pair
    # 4 +- sqrt(5) generates the same primes (unit ratio phi^2)
    assert {s11.pi1, s11.pi2} == {(3, 1), (4, -1)}
    assert L.mul(s11.pi1, s11.pi2) == (11, 0)
    assert L.norm(s11.pi1) == 11
    assert L.is_totally_positive(s11.pi1) and L.is_totally_positive(s11.pi2)
    assert s11.embed(s11.pi1, 1).valuation() == 1
    assert s11.embed(s11.pi2, 1).is_unit()
    assert s11.embed(s11.pi2, 2).valuation() == 1

    s7 = PrimeSplitting(L, 7, 6)
    assert s7.kind == "inert"
    with pytest.raises(RamifiedPrime):
        PrimeSplitting(L, 5, 6)


def test_embeddings_norm_trace():
    L = make_field(5)
    for p in (11, 7):
        sp = PrimeSplitting(L, p, 8)
        ring = sp.ring
        rng = random.Random(10)
        for _ in range(25):
            x = (rng.randrange(-20, 20), rng.randrange(-20, 20))
            s1, s2 = sp.embed(x, 1), sp.embed(x, 2)
            assert s1 * s2 == ring.from_int(L.norm(x)) if ring.degree == 1 else True
            if ring.degree == 2:
                assert s1 * s2 == ring.make(L.norm(x))
                # sigma_2 = Frob o sigma_1: the X coordinate negated
                assert s2 == ring.make(s1.a, -s1.b)
                assert s1 + s2 == ring.make(L.trace(x))
            else:
                assert s1 + s2 == ring.from_int(L.trace(x))


def test_embedding_phi_value():
    # sigma_1(phi) = (1+4)/2 = 8 mod 11
    L = make_field(5)
    sp = PrimeSplitting(L, 11, 1)
    assert sp.embed((0, 1), 1).lift() == 8
    # the index key (2, 1) is (phi + 2)/sqrt(5) = phi
    assert sp.sigma((2, 1), 1).lift() == 8


def test_tot_pos_enum_dinv():
    L = make_field(5)
    keys = tot_pos_enum(L, SUPPORT_DINV, 1)
    # 0, phi/sqrt(5) = (0,1), (phi-1)/sqrt(5) = (-1,1)
    assert set(keys) == {(0, 0), (0, 1), (-1, 1)}
    assert keys[0] == (0, 0)
    both = tot_pos_enum(L, SUPPORT_DINV, 6)
    assert set(keys) <= set(both)
    for k in both:
        assert k[1] <= 6
    assert tot_pos_enum(L, SUPPORT_DINV, 0) == [(0, 0)]
    with pytest.raises(ConfigError):
        tot_pos_enum(L, "OL", 6)


def test_enum_counts_match_direct_scan():
    # exhaustive double check against a brute-force grid: key (a, b) is
    # x = (a + b*phi)/sqrt(D), and D*x = (a + b*phi)*sqrt(D) with
    # sqrt(D) = 2*phi - 1, so x is totally positive of trace b exactly
    # when that product is totally positive of trace D*b
    B = 8
    for D in (5, 13):
        L = make_field(D)
        keys = tot_pos_enum(L, SUPPORT_DINV, B)
        assert keys[0] == (0, 0)
        brute = set()
        for a in range(-60, 61):
            for b in range(-60, 61):
                y = L.mul((a, b), (-1, 2))
                if L.is_totally_positive(y) and L.trace(y) <= D * B:
                    assert L.trace(y) == D * b
                    brute.add((a, b))
        assert set(keys) - {(0, 0)} == brute
        assert len(keys) == len(brute) + 1


def test_ideal_divisors():
    L = make_field(5)
    # beta = phi/sqrt(5): (beta)*different = (phi), a unit ideal
    assert ideal_divisors(L, (0, 1)) == [((), 1)]
    # beta = 1: numerator sqrt(5) = 2*phi - 1, divisors of (sqrt 5): norms {1, 5}
    divs = ideal_divisors(L, (-1, 2))
    assert [n for _, n in divs] == [1, 5]
    # units do not change divisor lists: phi * x vs x
    x = (3, 1)
    a = [n for _, n in ideal_divisors(L, x)]
    b = [n for _, n in ideal_divisors(L, L.mul(x, (0, 1)))]
    assert a == b


def test_ideal_divisors_multiplicative():
    L = make_field(5)
    # norms of divisors of (beta) for beta = 2 * (p1-generator): split 11 * inert 2
    sp = PrimeSplitting(L, 11, 4)
    beta = L.mul(sp.pi1, (2, 0))
    divs = ideal_divisors(L, beta)
    norms = sorted(n for _, n in divs)
    assert norms == [1, 4, 11, 44]  # (2) inert of norm 4, p1 of norm 11


def test_divisor_sum_sigma():
    # sum of norms over divisors of (beta) * different for a rational beta
    L = make_field(5)
    # beta = 2: numerator 2 sqrt(5) = (-2, 4), norm 20
    divs = ideal_divisors(L, (-2, 4))
    total = sum(n for _, n in divs)
    # divisors: 1, (2) norm 4, (sqrt5) norm 5, (2 sqrt5) norm 20
    assert total == 1 + 4 + 5 + 20


def test_factorize():
    assert factorize(1) == []
    assert factorize(2) == [(2, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(97 * 97 * 101) == [(97, 2), (101, 1)]
    for n in range(1, 300):
        prod = 1
        for q, e in factorize(n):
            assert e >= 1 and factorize(q) == [(q, 1)]
            prod *= q**e
        assert prod == n
