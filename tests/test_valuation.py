"""Property tests of the gcd valuations and the integer projection.

Each fast path is checked against its reference in `helpers`: the digit
loop for `PadicRing.valuation_of` and `PadicNum.valuation`, the built
difference f - g for `agreement_valuation`, the per-key walk for
`NearlyOCExpansion.assert_divisibility`, and the divide-then-d-chain
projection for `oc_project`, errors and their messages included.
"""

import pytest
from hypothesis import given, strategies as st

from padicgz.errors import (
    IndexMismatch,
    InsufficientValuation,
    PrecisionExhausted,
    ZeroDenominator,
)
from padicgz.nearlyoc import ELLIPTIC, HILBERT, NearlyOCExpansion, oc_project
from padicgz.padic import PadicRing
from padicgz.qexp import EllipticQExp, HilbertQExp, agreement_valuation
from padicgz.quadfield import SUPPORT_DINV, tot_pos_enum
from padicgz.serialize import context_for, form_to_dict
from padicgz.weights import WeightCharacter

from helpers import (
    agreement_by_difference,
    divisibility_by_key,
    oc_project_by_chain,
    random_elliptic,
    valuation_by_digits,
)

PRIMES = (3, 5, 7, 11, 13)
# (D, p) with p unramified in Q(sqrt D): inert 7 and split 11 over Q(sqrt 5),
# split 3 over Q(sqrt 13)
FIELDS = ((5, 7), (5, 11), (13, 3))


def _outcome(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (
        IndexMismatch, InsufficientValuation, PrecisionExhausted, ZeroDenominator
    ) as e:
        return type(e), str(e)


@st.composite
def coordinate(draw, p, N):
    """An int that is zero, a unit, or a unit times a high power of p, in
    either sign, possibly shifted by a multiple of p^N (unreduced)."""
    if draw(st.integers(0, 5)) == 0:
        return 0
    u = draw(st.integers(1, 10**6))
    u += u % p == 0
    j = draw(st.sampled_from((0, 0, 1, N - 1, N, N + 2)))
    x = draw(st.sampled_from((1, -1))) * p ** max(j, 0) * u
    return x + draw(st.sampled_from((0, 0, 1, -1, 3))) * p**N


@st.composite
def valuation_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    N = draw(st.integers(1, 14))
    ring = PadicRing(p, N, draw(st.sampled_from((1, 2))))
    xs = draw(st.lists(coordinate(p, N), min_size=0, max_size=5))
    return ring, xs


@given(valuation_cases())
def test_valuation_of_matches_the_digit_loop(case):
    ring, xs = case
    assert ring.valuation_of(*xs) == valuation_by_digits(ring, *xs)
    a, b = (xs + [0, 0])[:2]
    if ring.degree == 1:
        b = 0
    x = ring.make(a, b)
    assert x.valuation() == valuation_by_digits(ring, x.a, x.b)
    assert x.valuation() == valuation_by_digits(ring, a, b)


@st.composite
def index_sets(draw, flavor, N, top):
    """(context or ring, [(key, trace)] up to a trace of at most top, p)."""
    B = draw(st.integers(1, top))
    if flavor == HILBERT:
        ctx = context_for(*draw(st.sampled_from(FIELDS)), N)
        keys = [(k, k[1]) for k in tot_pos_enum(ctx.field, SUPPORT_DINV, B)]
        return ctx, keys, ctx.p
    p = draw(st.sampled_from(PRIMES))
    ring = PadicRing(p, N, draw(st.sampled_from((1, 2))))
    return ring, [(n, n) for n in range(B + 1)], p


def _expansion(flavor, where, bound, coeffs):
    if flavor == HILBERT:
        return HilbertQExp(where, SUPPORT_DINV, bound, coeffs)
    return EllipticQExp(where, bound, coeffs)


@st.composite
def agreement_cases(draw):
    flavor = draw(st.sampled_from((HILBERT, ELLIPTIC)))
    N = draw(st.integers(1, 8))
    where, keys, p = draw(index_sets(flavor, N, 8 if flavor == ELLIPTIC else 4))
    ring = where.ring if flavor == HILBERT else where
    coord = coordinate(p, N)
    top = keys[-1][1]
    bf, bg = draw(st.integers(0, top)), draw(st.integers(0, top))
    f, g = {}, {}
    for key, trace in keys:
        x = ring.make(draw(coord), draw(coord) if ring.degree == 2 else 0)
        move = draw(st.sampled_from(("same", "same", "shift", "no f", "no g")))
        if trace <= bf and move != "no f":
            f[key] = x
        if trace <= bg and move != "no g":
            g[key] = x + ring.from_int(p ** draw(st.integers(0, N + 1))) * (
                move == "shift"
            )
    bound = draw(st.one_of(st.none(), st.integers(-1, top + 2)))
    return _expansion(flavor, where, bf, f), _expansion(flavor, where, bg, g), bound


@given(agreement_cases())
def test_agreement_valuation_matches_the_difference(case):
    f, g, bound = case
    assert agreement_valuation(f, g, bound) == agreement_by_difference(f, g, bound)
    assert agreement_valuation(g, f, bound) == agreement_by_difference(g, f, bound)
    assert agreement_valuation(f, f, bound) == f.ring.N


def test_agreement_valuation_mixed_operands():
    ctx = context_for(5, 7, 4)
    h = HilbertQExp(ctx, SUPPORT_DINV, 3, {(1, 1): ctx.ring.one})
    e = EllipticQExp(ctx.ring, 3, {1: ctx.ring.one})
    other = EllipticQExp(PadicRing(7, 5, 2), 3, {1: PadicRing(7, 5, 2).one})
    for f, g in ((h, e), (e, h), (e, other), (other, e)):
        expect = _outcome(agreement_by_difference, f, g, 2)
        assert expect[0] is IndexMismatch
        assert _outcome(agreement_valuation, f, g, 2) == expect


@st.composite
def noc_cases(draw, flavor):
    N = draw(st.one_of(st.integers(5, 10), st.integers(1, 4)))
    where, keys, p = draw(index_sets(flavor, N, 6 if flavor == ELLIPTIC else 3))
    ring = where.ring if flavor == HILBERT else where
    m = ring.modulus
    coord = st.one_of(st.integers(-3 * m, 3 * m), coordinate(p, N))
    top = draw(st.integers(0, 5))
    degrees = [i for i in range(top) if draw(st.integers(0, 3))] + [top]
    terms = {}
    for i in degrees:
        deg = (i,) if flavor == ELLIPTIC else draw(st.sampled_from(((i, 0), (0, i))))
        # mostly divisible by p^i; sometimes one digit short
        j = max(0, i - (draw(st.integers(0, 2)) == 0))
        bound = keys[-1][1]
        if not draw(st.integers(0, 4)):  # now and then a lower bound
            bound = draw(st.integers(0, bound))
        coeffs = {}
        for key, trace in keys:
            if trace <= bound and draw(st.integers(0, 3)):
                a = draw(coord) * p**j
                b = draw(coord) * p**j if ring.degree == 2 else 0
                coeffs[key] = ring.make(a, b)
        terms[deg] = _expansion(flavor, where, bound, coeffs)
    # k = p t + r puts p in a denominator factor k - 2 - i + m once i >= r - 1
    k = draw(st.one_of(
        st.integers(-3, 16), st.integers(1, 3).map(lambda t: p * t + 2),
        st.integers(1, 3).map(lambda t: p * t + 3),
    ))
    ring1 = PadicRing(p, N, 1)
    classical = (k,) if flavor == ELLIPTIC else (k, k)
    weight = WeightCharacter.from_classical(ring1, ring.residue_order(), classical)
    return NearlyOCExpansion(flavor, weight, terms), k


@given(st.sampled_from((HILBERT, ELLIPTIC)).flatmap(noc_cases))
def test_assert_divisibility_matches_the_key_walk(case):
    gamma, _ = case
    expect = _outcome(divisibility_by_key, gamma)
    assert _outcome(gamma.assert_divisibility) == expect


@given(noc_cases(ELLIPTIC))
def test_oc_project_matches_the_d_chain(case):
    gamma, k = case
    expect = _outcome(oc_project_by_chain, gamma, k)
    got = _outcome(oc_project, gamma)
    if isinstance(expect, tuple):
        assert got == expect
        return
    assert got.shift == expect.shift
    assert got.budget.losses == expect.budget.losses
    assert got.form == expect.form
    assert form_to_dict(got.form) == form_to_dict(expect.form)


@pytest.mark.parametrize("k,i", [(2, 1), (3, 2), (5, 4)])
def test_oc_project_zero_denominator_message(k, i):
    ring = PadicRing(7, 4)
    terms = {(j,): EllipticQExp(ring, 3, {1: ring.from_int(7**j)})
             for j in range(i + 1)}
    weight = WeightCharacter.from_classical(ring, 6, (k,))
    gamma = NearlyOCExpansion(ELLIPTIC, weight, terms)
    expect = _outcome(oc_project_by_chain, gamma, k)
    assert expect[0] is ZeroDenominator
    assert _outcome(oc_project, gamma) == expect


@pytest.mark.parametrize("p,k,top", [(3, 5, 3), (5, 8, 4), (3, 11, 5), (7, 10, 3)])
def test_oc_project_with_p_in_the_denominators(p, k, top):
    # the degrees' denominators carry different powers of p, so each term
    # is scaled by its own p^(shift - v_i)
    ring = PadicRing(p, 10, 2 if p == 7 else 1)
    terms = {
        (j,): random_elliptic(j, ring, 12).scale(ring.from_int(p**j))
        for j in range(top + 1)
    }
    weight = WeightCharacter.from_classical(
        PadicRing(p, 10), ring.residue_order(), (k,)
    )
    gamma = NearlyOCExpansion(ELLIPTIC, weight, terms)
    got, expect = oc_project(gamma), oc_project_by_chain(gamma, k)
    assert got.shift == expect.shift > 0
    assert got.budget.losses == expect.budget.losses
    assert got.form == expect.form
