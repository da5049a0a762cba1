"""Property tests of the q-expansion products against a schoolbook oracle.

The oracle multiplies coefficient pairs as (a, b) int pairs mod p^N, with
X^2 = c, and never calls a product method.  It keeps the products' rules
for keys off the totally positive cone: a pair counts when the left key's
trace is at most the common bound and the two traces sum to at most it.
"""

import random

import pytest
from hypothesis import given, strategies as st

from padicgz.qexp import EllipticQExp, HilbertQExp
from padicgz.quadfield import SUPPORT_DINV, tot_pos_enum
from padicgz.serialize import context_for

# (D, kind) per prime, with p unramified in Q(sqrt D): each prime both ways
FIELDS = {
    3: ((13, "split"), (5, "inert")),
    5: ((29, "split"), (13, "inert")),
    7: ((29, "split"), (5, "inert")),
    11: ((5, "split"), (17, "inert")),
    13: ((17, "split"), (5, "inert")),
}


def _schoolbook(f, g, trace, add):
    ring = f.ring
    m, c = ring.modulus, ring.nonresidue or 0
    b = min(f.bound, g.bound)
    out = {}
    for k1, v1 in f.coeffs.items():
        if trace(k1) > b:
            continue
        for k2, v2 in g.coeffs.items():
            if trace(k1) + trace(k2) > b:
                continue
            key = add(k1, k2)
            x, y = out.get(key, (0, 0))
            out[key] = (
                (x + v1.a * v2.a + c * v1.b * v2.b) % m,
                (y + v1.a * v2.b + v1.b * v2.a) % m,
            )
    return {k: v for k, v in out.items() if v != (0, 0)}


def _check(f, g):
    if isinstance(f, HilbertQExp):
        trace, add = (lambda k: k[1]), (lambda k1, k2: (k1[0] + k2[0], k1[1] + k2[1]))
    else:
        trace, add = (lambda n: n), (lambda n1, n2: n1 + n2)
    for x, y in ((f, g), (g, f)):
        got = x * y
        assert type(got) is type(x)
        assert got.bound == min(x.bound, y.bound)
        assert all(v.ring == x.ring for v in got.coeffs.values())
        pairs = {k: (v.a, v.b) for k, v in got.coeffs.items()}
        assert pairs == _schoolbook(x, y, trace, add)


@st.composite
def _context(draw):
    p = draw(st.sampled_from(sorted(FIELDS)))
    D, kind = draw(st.sampled_from(FIELDS[p]))
    ctx = context_for(D, p, draw(st.integers(1, 20)))
    assert ctx.sp.kind == kind
    return ctx


def _values(draw, ring, keys):
    """Coefficients on keys: random, all p^N - 1 (the worst slot load), or
    multiples of p^v, so that two forms with valuations summing to N have
    a product that cancels to zero."""
    m, p, N = ring.modulus, ring.p, ring.N
    mode = draw(st.sampled_from(("random", "top", "valued")))
    rng = random.Random(draw(st.integers(0, 999)))
    v = draw(st.sampled_from((N // 2, (N + 1) // 2)))
    out = {}
    for k in keys:
        if mode == "top":
            a, b = m - 1, m - 1
        else:
            a, b = rng.randrange(m), rng.randrange(m)
            if mode == "valued":
                a, b = a * p**v % m, b * p**v % m
        out[k] = ring.make(a, b if ring.degree == 2 else 0)
    return out


@st.composite
def hilbert_forms(draw, ctx):
    B = draw(st.integers(0, 6))
    rng = random.Random(draw(st.integers(0, 999)))
    density = draw(st.sampled_from((0.1, 0.5, 1.0)))
    cone = tot_pos_enum(ctx.field, SUPPORT_DINV, B)
    keys = [k for k in cone if rng.random() < density]
    # off the cone: negative a, nonzero keys of trace 0, negative traces,
    # and traces beyond the bound
    off = st.tuples(st.integers(-30, 30), st.integers(-3, B + 3))
    keys += draw(st.lists(off, max_size=4))
    return HilbertQExp(ctx, SUPPORT_DINV, B, _values(draw, ctx.ring, keys))


@st.composite
def elliptic_forms(draw, ring):
    B = draw(st.integers(0, 10))
    keys = draw(st.sets(st.integers(-4, B + 4), max_size=B + 9))
    return EllipticQExp(ring, B, _values(draw, ring, keys))


@st.composite
def hilbert_pairs(draw):
    ctx = draw(_context())
    return draw(hilbert_forms(ctx)), draw(hilbert_forms(ctx))


@st.composite
def elliptic_pairs(draw):
    ring = draw(_context()).ring
    return draw(elliptic_forms(ring)), draw(elliptic_forms(ring))


@given(hilbert_pairs())
def test_hilbert_product_matches_schoolbook(pair):
    _check(*pair)


@given(elliptic_pairs())
def test_elliptic_product_matches_schoolbook(pair):
    _check(*pair)


@pytest.mark.parametrize("p", (3, 13))
@pytest.mark.parametrize("N", (1, 7, 12, 20))
@pytest.mark.parametrize("kind", (0, 1))
def test_worst_slot_load(p, N, kind):
    # every coefficient p^N - 1 on single rows of equal length, so that one
    # output slot sums a full min(#f, #g) products
    ctx = context_for(FIELDS[p][kind][0], p, N)
    ring, top = ctx.ring, ctx.ring.modulus - 1
    full = ring.make(top, top if ring.degree == 2 else 0)
    for L in (1, 2, 5, 17, 40):
        f = HilbertQExp(ctx, SUPPORT_DINV, 9, {(a - 7, 3): full for a in range(L)})
        g = HilbertQExp(ctx, SUPPORT_DINV, 9, {(a + 4, 5): full for a in range(L)})
        _check(f, g)
        e = EllipticQExp(ring, L - 1, {n: full for n in range(L)})
        _check(e, e)


@pytest.mark.parametrize("p", (7, 11))
def test_products_cancel_to_zero(p):
    ctx = context_for(5, p, 12)
    ring = ctx.ring
    one, minus = ring.one, ring.from_int(-1)
    B = 20
    # (1 + q^beta) * sum_j (-q^beta)^j = 1 below the bound, beta = (1, 2)
    f = HilbertQExp(ctx, SUPPORT_DINV, B, {(0, 0): one, (1, 2): one})
    g = HilbertQExp(
        ctx, SUPPORT_DINV, B,
        {(j, 2 * j): one if j % 2 == 0 else minus for j in range(B // 2 + 1)},
    )
    assert (f * g).coeffs == {(0, 0): one}
    _check(f, g)
    e = EllipticQExp(ring, B, {0: one, 1: one})
    alt = EllipticQExp(ring, B, {n: one if n % 2 == 0 else minus for n in range(B + 1)})
    assert (e * alt).coeffs == {0: one}
    _check(e, alt)
    # valuations summing to N: every term vanishes
    half = ring.from_int(p**6)
    cone = tot_pos_enum(ctx.field, SUPPORT_DINV, 6)
    h = HilbertQExp(ctx, SUPPORT_DINV, 6, {k: half for k in cone})
    assert (h * h).is_zero()
