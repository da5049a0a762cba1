"""Unit tests for the exact p-adic coefficient rings."""

import random

import pytest
from hypothesis import given, strategies as st

from padicgz.errors import ConvergenceDomain, NonResidue, NonUnitInverse
from padicgz.padic import (
    PadicRing,
    PrecisionBudget,
    batch_inverse,
    char_exponent,
    hensel_sqrt,
    pair_pow,
    pbinom,
    pexp,
    plog,
    ppow,
    series_pays,
    series_power,
    teichmuller,
)


R72 = PadicRing(7, 2)
R74 = PadicRing(7, 4)
R7q = PadicRing(7, 6, 2)


def test_inv_small():
    # 2 * 25 = 50 == 1 mod 49
    assert R72.from_int(2).inv() == R72.from_int(25)


def test_inv_is_inverse_random():
    rng = random.Random(1)
    for _ in range(50):
        a = R74.from_int(rng.randrange(1, 7**4))
        if not a.is_unit():
            continue
        assert a * a.inv() == R74.one


@st.composite
def unit_lists(draw):
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    m = p ** draw(st.integers(1, 20))
    unit = st.integers(0, m - 1).filter(lambda x: x % p)
    return p, m, draw(st.lists(unit, max_size=12))


@given(unit_lists())
def test_batch_inverse_matches_pow(case):
    _, m, values = case
    assert batch_inverse(values, m) == [pow(x, -1, m) for x in values]


@given(unit_lists(), st.data())
def test_batch_inverse_rejects_a_non_unit(case, data):
    p, m, values = case
    at = data.draw(st.integers(0, len(values)))
    bad = values[:at] + [p * data.draw(st.integers(0, m // p - 1))] + values[at:]
    with pytest.raises(NonUnitInverse):
        batch_inverse(bad, m)


def test_batch_inverse_short_lists():
    assert batch_inverse([], 49) == []
    assert batch_inverse([2], 49) == [25]
    with pytest.raises(NonUnitInverse):
        batch_inverse([7], 49)


def _products_margin(ring, e):
    """Pair products of series_power at e less those of pair_pow's
    square-and-multiply, counted independently of series_pays."""
    o = ring.residue_order()
    q, r = divmod(e, o)

    def chain(k):  # squares and multiplies of one square-and-multiply chain
        return max(k.bit_length() - 1, 0) + bin(k).count("1")

    shared = chain(o) + bin(r).count("1")  # x^r rides on the squares of x^o
    return shared + min(q, ring.N - 1) + 1 - chain(e)


@st.composite
def series_cases(draw, p):
    ring = PadicRing(p, draw(st.integers(1, 24)), 2)
    m, o = ring.modulus, ring.residue_order()
    coord = st.integers(0, m - 1)
    a, b = draw(st.tuples(coord, coord).filter(lambda t: t[0] % p or t[1] % p))
    kind = draw(st.sampled_from(("below", "multiple", "threshold", "character")))
    if kind == "below":
        exponents = [draw(st.integers(0, o - 1))]
    elif kind == "multiple":
        exponents = [o * draw(st.integers(0, 3 * p ** (ring.N - 1)))]
    elif kind == "threshold":
        # an exponent where the two routes' product counts differ by at most
        # one, where the rule switches, and its two neighbours
        rng = random.Random(draw(st.integers(0, 999)))
        top = (o * p ** (ring.N - 1)).bit_length() + 4
        while True:
            bits = rng.randint(1, top)
            e = rng.randrange(1 << (bits - 1), 1 << bits)
            if abs(_products_margin(ring, e)) <= 1:
                break
        exponents = [e - 1, e, e + 1]
    else:
        u = draw(st.integers(-(10**6), 10**6))
        exponents = [char_exponent(ring, u, draw(st.integers(-200, 200)))]
    return ring, a, b, draw(coord), draw(coord), exponents


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
@given(data=st.data())
def test_series_power_matches_pair_pow(p, data):
    ring, a, b, ca, cb, exponents = data.draw(series_cases(p))
    for e in exponents:
        want = pair_pow(ring, a, b, e, ca, cb)
        assert series_power(ring, e)(a, b, ca, cb) == want
        assert series_power(ring, e)(a, b) == pair_pow(ring, a, b, e)
        assert series_pays(ring, e) == (_products_margin(ring, e) < 0)


def test_inv_nonunit_raises():
    with pytest.raises(NonUnitInverse):
        R72.from_int(7).inv()


def test_ring_axioms_random():
    rng = random.Random(2)
    for ring in (R74, R7q):
        for _ in range(40):
            if ring.degree == 1:
                x, y, z = (ring.from_int(rng.randrange(ring.modulus)) for _ in range(3))
            else:
                x, y, z = (
                    ring.make(rng.randrange(ring.modulus), rng.randrange(ring.modulus))
                    for _ in range(3)
                )
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x * y == y * x


def test_valuation_multiplicative():
    rng = random.Random(3)
    for _ in range(100):
        x = R74.from_int(rng.randrange(1, 7**4))
        y = R74.from_int(rng.randrange(1, 7**4))
        if x.valuation() + y.valuation() < 4:
            assert (x * y).valuation() == x.valuation() + y.valuation()


def test_teichmuller_small():
    # 31 == 3 mod 7 and 31^3 == -1 mod 49
    w = teichmuller(R72.from_int(3))
    assert w == R72.from_int(31)
    assert w**3 == -R72.one
    assert teichmuller(R72.one) == R72.one
    assert teichmuller(R72.from_int(6)) == R72.from_int(48)


def test_teichmuller_properties():
    rng = random.Random(4)
    for ring in (R74, R7q):
        order = ring.residue_order()
        for _ in range(20):
            b = rng.randrange(ring.modulus) if ring.degree == 2 else 0
            x = ring.make(rng.randrange(1, ring.modulus), b)
            if not x.is_unit():
                continue
            w = teichmuller(x)
            assert w**order == ring.one
            assert (w - x).valuation() >= 1
        x = ring.make(rng.randrange(1, ring.modulus))
        y = ring.make(rng.randrange(1, ring.modulus))
        if x.is_unit() and y.is_unit():
            assert teichmuller(x * y) == teichmuller(x) * teichmuller(y)


def test_log_exp_round_trip():
    assert plog(R74.one).is_zero()
    x = R74.from_int(8)  # 1 + 7
    assert pexp(plog(x)) == x
    rng = random.Random(5)
    for ring in (R74, R7q):
        for _ in range(20):
            z = ring.make(
                7 * rng.randrange(ring.modulus // 7),
                (7 * rng.randrange(ring.modulus // 7)) if ring.degree == 2 else 0,
            )
            x = ring.one + z
            assert pexp(plog(x)) == x
            assert plog(pexp(z)) == z


def test_exp_homomorphism():
    a = R74.from_int(7)
    assert pexp(a) * pexp(a) == pexp(a + a)


def test_log_domain():
    with pytest.raises(ConvergenceDomain):
        plog(R74.from_int(3))
    with pytest.raises(ConvergenceDomain):
        pexp(R74.from_int(3))


def test_ppow_integer_consistency():
    t = R72.from_int(3)
    assert ppow(t, 0, 0) == R72.one
    assert ppow(t, 2, 2) == R72.from_int(9)
    rng = random.Random(6)
    for ring in (R74, R7q):
        order = ring.residue_order()
        for _ in range(15):
            b = rng.randrange(ring.modulus) if ring.degree == 2 else 0
            t = ring.make(rng.randrange(1, ring.modulus), b)
            if not t.is_unit():
                continue
            m = rng.randrange(-6, 12)
            assert ppow(t, m, m % order) == t**m


def test_ppow_truncation_convergence():
    # t^u for u = 1, 1+7, 1+7+49 agree with integer powers and converge 7-adically
    t = R74.from_int(8)
    prev = None
    for digits in range(1, 4):
        u = sum(7**i for i in range(digits))
        val = ppow(t, u, u % 6)
        assert val == t**u
        if prev is not None:
            assert (val - prev).valuation() >= digits
        prev = val


def test_ppow_additive_in_exponent():
    rng = random.Random(7)
    for _ in range(10):
        t = R74.from_int(rng.randrange(1, 7**4))
        if not t.is_unit():
            continue
        u1, u2 = rng.randrange(50), rng.randrange(50)
        c1, c2 = rng.randrange(6), rng.randrange(6)
        lhs = ppow(t, R74.from_int(u1) + R74.from_int(u2), c1 + c2)
        rhs = ppow(t, u1, c1) * ppow(t, u2, c2)
        assert lhs == rhs


def _log_exp_ppow(t, u, chi):
    """The series definition omega(t)^chi * exp(u * log(t / omega(t)))."""
    ring = t.ring
    w = teichmuller(t)
    ue = ring.make(u if isinstance(u, int) else u.lift())
    return w ** (chi % ring.residue_order()) * pexp(ue * plog(t * w.inv()))


def _random_unit(rng, ring):
    while True:
        b = rng.randrange(ring.modulus) if ring.degree == 2 else 0
        t = ring.make(rng.randrange(ring.modulus), b)
        if t.is_unit():
            return t


def _power_by_products(t, e):
    """t^e as |e| repeated products of t, or of t.inv() when e < 0."""
    base = t if e >= 0 else t.inv()
    out = t.ring.one
    for _ in range(abs(e)):
        out = out * base
    return out


def test_pow_matches_repeated_products():
    rng = random.Random(14)
    for p in (3, 5, 7, 11, 13):
        for N in (1, 2, 12):
            for degree in (1, 2):
                ring = PadicRing(p, N, degree)
                m = ring.modulus
                units = [_random_unit(rng, ring), ring.make(rng.randrange(1, p))]
                if degree == 2:
                    units.append(ring.make(0, rng.randrange(1, p)))
                nonunits = [ring.zero, ring.make(p * rng.randrange(m))]
                if degree == 2:
                    nonunits.append(ring.make(p, p * rng.randrange(m)))
                for t in units + nonunits:
                    assert t**0 == ring.one
                    for e in range(-12, 13):
                        if e < 0 and t in nonunits:
                            with pytest.raises(NonUnitInverse):
                                t**e
                        else:
                            assert t**e == _power_by_products(t, e)
                for t in units:
                    for _ in range(3):
                        e1 = rng.getrandbits(40) * rng.choice((1, -1))
                        e2 = rng.getrandbits(40) * rng.choice((1, -1))
                        assert t ** (e1 + e2) == t**e1 * t**e2
                        assert t**e1 * t ** (-e1) == ring.one


def test_ppow_matches_log_exp_oracle():
    rng = random.Random(10)
    for p in (3, 5, 7, 11, 13):
        for N in (1, 2, 5, 12, 16):
            ring1 = PadicRing(p, N)
            for degree in (1, 2):
                ring = PadicRing(p, N, degree)
                exponents = (
                    -rng.randrange(1, 10**9),
                    rng.randrange(10**9),
                    ring1.from_int(rng.randrange(ring1.modulus)),
                )
                for u in exponents:
                    t = _random_unit(rng, ring)
                    chi = rng.randrange(-100, 100)
                    assert ppow(t, u, chi) == _log_exp_ppow(t, u, chi)
                with pytest.raises(NonUnitInverse):
                    ppow(ring.make(p), 1, 1)


def test_ppow_p2_domain():
    rng = random.Random(11)
    for N in (1, 2, 5, 12, 16):
        ring = PadicRing(2, N)
        for _ in range(6):
            t = ring.from_int(4 * rng.randrange(ring.modulus) + 1)
            u = 4 * rng.randrange(-10**6, 10**6)
            chi = 2 * rng.randrange(-50, 50)
            assert ppow(t, u, chi) == _log_exp_ppow(t, u, chi)
            assert ppow(t, ring.from_int(u), chi) == ppow(t, u, chi)
        with pytest.raises(ConvergenceDomain):
            ppow(ring.one, 4, 1)  # chi odd
        with pytest.raises(ConvergenceDomain):
            ppow(ring.one, 6, 0)  # u not in 4Z_2
        with pytest.raises(ConvergenceDomain):
            ppow(ring.one, PadicRing(2, 5).from_int(2), 0)
        if N >= 2:
            with pytest.raises(ConvergenceDomain):
                ppow(ring.from_int(3), 4, 0)  # t == 3 mod 4


def test_exp_series_past_a_power_of_p():
    # at p = 3, N = 15 the x^27/27! term still matters although x^26/26!
    # vanishes: v(27!) = 13 jumps by 3 over v(26!)
    rng = random.Random(12)
    for degree in (1, 2):
        ring = PadicRing(3, 15, degree)
        for _ in range(10):
            z = 3 * _random_unit(rng, ring)
            assert plog(pexp(z)) == z
            assert pexp(plog(ring.one + z)) == ring.one + z


def test_pbinom():
    assert pbinom(5, 2, R74) == R74.from_int(10)
    assert pbinom(R74.from_int(5), 0) == R74.one
    for j in range(6):
        assert pbinom(-1, j, R74) == R74.from_int((-1) ** j)
    # p-adic integrality of interpolated binomials on random u
    rng = random.Random(8)
    for _ in range(30):
        u = R74.from_int(rng.randrange(7**4))
        for j in range(5):
            assert pbinom(u, j).valuation() >= 0


def test_hensel_sqrt():
    r = hensel_sqrt(5, 11, 2)
    assert r.lift() == 48 and (r * r).lift() == 5
    assert hensel_sqrt(4, 7, 3).lift() == 2
    with pytest.raises(NonResidue):
        hensel_sqrt(5, 7, 3)
    rng = random.Random(9)
    for _ in range(30):
        a = rng.randrange(1, 7**5)
        if a % 7 == 0 or pow(a % 7, 3, 7) != 1:
            continue
        x = hensel_sqrt(a, 7, 5)
        assert (x * x).lift() == a % 7**5
        assert x.lift() % 7 <= 3


def test_precision_budget():
    b = PrecisionBudget(12)
    b.charge("div", 2)
    b.charge("div", 0)  # no-op
    assert b.effective == 10
    assert b.total_loss == 2
    assert b.trail() == [{"op": "div", "digits": 2}]
