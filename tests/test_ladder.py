"""Property tests of HilbertQExp.d_ladder against a per-coefficient oracle.

The oracle raises each sigma_i(beta) to each exponent on its own, with
pair_pow for integer exponents and ppow for character exponents; it never
goes through d_char or the ladder.  The ladder reads sigma_i(beta) and its
inverse from the splitting's per-index entries, so the same calls are also
checked on a splitting with no entries against one that already holds some,
and depletion is checked against the units of sigma_i.  nabla_pow with an
analytic exponent at inert p is also checked against itself at N + 2, and
its bytes on the analytic-nabla benchmark's p = 7 input are pinned.
"""

import hashlib

import pytest
from hypothesis import given, strategies as st

from padicgz.errors import ConfigError, NonUnitIndex
from padicgz.formgen import hilbert_eisenstein, random_depleted, random_form
from padicgz.nearlyoc import nabla_pow, zeta_star_nabla_pow, zeta_star_noc
from padicgz.padic import PadicNum, PadicRing, pair_pow, ppow
from padicgz.qexp import HilbertQExp, QExpContext
from padicgz.quadfield import SUPPORT_DINV, PrimeSplitting, tot_pos_enum
from padicgz.serialize import context_for, dump, noc_to_dict
from padicgz.weights import WeightCharacter

# (D, kind) per prime, with p unramified in Q(sqrt D): each prime both ways
FIELDS = {
    3: ((13, "split"), (5, "inert")),
    5: ((29, "split"), (13, "inert")),
    7: ((29, "split"), (5, "inert")),
    11: ((5, "split"), (17, "inert")),
    13: ((17, "split"), (5, "inert")),
}
N = 6


@st.composite
def ladder_cases(draw):
    p = draw(st.sampled_from(sorted(FIELDS)))
    D, kind = draw(st.sampled_from(FIELDS[p]))
    # at N = 1 and 2 a character's start power at inert p mostly takes
    # square-and-multiply, at N = 6 and 12 mostly the 1-unit series
    ctx = context_for(D, p, draw(st.sampled_from((1, 2, 6, 12))))
    assert ctx.sp.kind == kind
    ring = ctx.ring
    coord = st.integers(0, ring.modulus - 1)
    second = coord if ring.degree == 2 else st.just(0)
    scalar = st.one_of(st.none(), st.builds(ring.make, coord, second))
    n = draw(st.integers(1, 5))
    e = draw(st.integers(-4, 4))
    m = draw(st.one_of(st.none(), st.integers(0, 2)))
    return {
        "ctx": ctx,
        "seed": draw(st.integers(0, 999)),
        "B": draw(st.integers(1, 6)),
        "i": draw(st.sampled_from((1, 2))),
        "e": e,
        # an analytic exponent u = e + (p - 1) p^m with finite part e
        "u": None if m is None else e + (p - 1) * p**m,
        "scalars": draw(st.lists(scalar, min_size=n, max_size=n)),
        "restrict": draw(st.booleans()),
    }


def _exponent(case):
    if case["u"] is None:
        return case["e"]
    ctx = case["ctx"]
    ring1 = PadicRing(ctx.p, ctx.N, 1)
    return WeightCharacter(
        ring1, ctx.ring.residue_order(), (ring1.from_int(case["u"]),), (case["e"],)
    )


def _oracle(f, case):
    """Per term: the expected coefficients, by index or by trace."""
    ring, sp, i, e, u = f.ring, f.ctx.sp, case["i"], case["e"], case["u"]
    out = []
    for j, c in enumerate(case["scalars"]):
        if c is None:
            out.append(None)
            continue
        coeffs = {}
        for key, v in f.coeffs.items():
            s = sp.sigma(key, i)
            if u is None:
                power = PadicNum(ring, *pair_pow(ring, s.a, s.b, e - j))
            else:
                power = ppow(s, u - j, e - j)
            at = key[1] if case["restrict"] else key
            coeffs[at] = coeffs.get(at, ring.zero) + c * v * power
        out.append({k: v for k, v in coeffs.items() if not v.is_zero()})
    return out


def _check(f, case):
    (got,) = f.d_ladder(
        case["i"], _exponent(case), [case["scalars"]], case["restrict"]
    )
    for term, want in zip(got, _oracle(f, case)):
        if want is None:
            assert term is None
        else:
            assert term.coeffs == want
            assert term.bound == f.bound


@given(ladder_cases())
def test_ladder_matches_oracle_on_depleted_input(case):
    _check(random_depleted(case["seed"], case["ctx"], case["B"]), case)


@given(ladder_cases())
def test_ladder_on_input_not_depleted(case):
    # every random_form has the index 0 and indices in p, where sigma is no unit
    f = random_form(case["seed"], case["ctx"], case["B"])
    live = [j for j, c in enumerate(case["scalars"]) if c is not None]
    needs_units = case["u"] is not None or any(case["e"] - j < 0 for j in live)
    if live and needs_units:
        with pytest.raises(NonUnitIndex):
            f.d_ladder(
                case["i"], _exponent(case), [case["scalars"]], case["restrict"]
            )
    else:
        _check(f, case)


def _terms(terms):
    return [None if t is None else (t.bound, t.coeffs) for t in terms]


@given(ladder_cases(), st.data())
def test_several_scalar_lists_share_one_pass(case, data):
    # every list of one pass gets the terms of its own pass and the oracle's;
    # the lists differ in length, so the pass spans the union of their
    # exponents, with steps up and down from the one nearest zero
    ring = case["ctx"].ring
    coord = st.integers(0, ring.modulus - 1)
    second = coord if ring.degree == 2 else st.just(0)
    scalar = st.one_of(st.none(), st.builds(ring.make, coord, second))
    more = data.draw(st.lists(st.lists(scalar, min_size=1, max_size=6), min_size=1,
                              max_size=3))
    lists = [case["scalars"]] + more
    f = random_depleted(case["seed"], case["ctx"], case["B"])
    i, exponent = case["i"], _exponent(case)
    together = f.d_ladder(i, exponent, lists, case["restrict"])
    assert len(together) == len(lists)
    for scalars, terms in zip(lists, together):
        (alone,) = f.d_ladder(i, exponent, [scalars], case["restrict"])
        assert _terms(terms) == _terms(alone)
        want = _oracle(f, {**case, "scalars": scalars})
        assert [None if t is None else t.coeffs for t in terms] == want


@given(
    p=st.sampled_from((7, 11)),
    seed=st.integers(0, 999),
    w=st.integers(2, 12),
    r=st.integers(-5, 2),
    m=st.one_of(st.none(), st.integers(0, 3)),
)
def test_restricted_nabla_pow_matches(p, seed, w, r, m):
    ctx = context_for(5, p, 8)
    ring1 = PadicRing(p, 8, 1)
    tor = ctx.ring.residue_order()
    g = random_depleted(seed, ctx, 8)
    k = WeightCharacter.from_classical(ring1, tor, (w, w))
    if m is None:
        rc = WeightCharacter.from_classical(ring1, tor, (r, 0))
    else:
        u = ring1.from_int(r + (p - 1) * p**m)
        rc = WeightCharacter(ring1, tor, (u, ring1.zero), (r, 0))
    want = noc_to_dict(zeta_star_noc(nabla_pow(g, k, rc)))
    assert noc_to_dict(zeta_star_nabla_pow(g, k, rc)) == want


@pytest.mark.parametrize("p", sorted(FIELDS))
def test_large_integer_power_on_input_not_depleted(p):
    # a large non-negative integer power takes square-and-multiply, which is
    # exact on non-unit indices too; the 1-unit series would not be
    ctx = context_for(FIELDS[p][1][0], p, 12)
    f = random_form(p, ctx, 6)
    for e in (10**6 + 7, 3 * 10**9):
        for i in (1, 2):
            want = {}
            for key, v in f.coeffs.items():
                s = ctx.sp.sigma(key, i)
                x = v * PadicNum(ctx.ring, *pair_pow(ctx.ring, s.a, s.b, e))
                if not x.is_zero():
                    want[key] = x
            assert f.d_char(i, e).coeffs == want


def _analytic_r(ctx, u, chi):
    """The iteration exponent on sigma_1 with analytic part u, finite part chi."""
    ring1 = PadicRing(ctx.p, ctx.N, 1)
    tor = ctx.ring.residue_order()
    return WeightCharacter(ring1, tor, (ring1.from_int(u), ring1.zero), (chi, 0))


@pytest.mark.parametrize("p", sorted(FIELDS))
@given(
    n=st.integers(1, 10),
    seed=st.integers(0, 999),
    B=st.integers(1, 8),
    w=st.integers(2, 12),
    r=st.integers(-5, 2),
    m=st.integers(0, 3),
)
def test_inert_nabla_pow_agrees_across_precision(p, n, seed, B, w, r, m):
    # the same depleted form and analytic exponent at N + 2 and at N: the
    # terms at N + 2, reduced mod p^N, are the terms at N
    D = FIELDS[p][1][0]
    big, small = context_for(D, p, n + 2), context_for(D, p, n)
    assert small.sp.kind == "inert"
    g = random_depleted(seed, big, B)
    gn = HilbertQExp(small, SUPPORT_DINV, B,
                     {k: v.truncate(small.ring) for k, v in g.coeffs.items()})
    out = {}
    for ctx, f in ((big, g), (small, gn)):
        tor = ctx.ring.residue_order()
        k = WeightCharacter.from_classical(PadicRing(p, ctx.N, 1), tor, (w, w))
        rc = _analytic_r(ctx, r + (p - 1) * p**m, r % tor)
        out[ctx.N] = nabla_pow(f, k, rc).terms
    for j, term in out[n + 2].items():
        want = out[n][j].coeffs if j in out[n] else {}
        got = {k: v.truncate(small.ring) for k, v in term.coeffs.items()}
        assert {k: v for k, v in got.items() if not v.is_zero()} == want
    assert set(out[n]) <= set(out[n + 2])


def test_analytic_nabla_pow_digest():
    # nabla_pow at D = 5, inert p = 7, N = 12, B = 16 on the depleted
    # weight-8 Eisenstein series, u = -2 + 6 * 7^m: pinned bytes
    ctx = context_for(5, 7, 12)
    g = hilbert_eisenstein(8, ctx, 16).deplete("all")
    k = WeightCharacter.from_classical(PadicRing(7, 12, 1), 48, (8, 8))
    docs = [dump(noc_to_dict(nabla_pow(g, k, _analytic_r(ctx, -2 + 6 * 7**m, 46))))
            for m in range(5)]
    digest = hashlib.sha256("".join(docs).encode()).hexdigest()
    assert digest == (
        "2558ec1de96387fed1dfe4314c8f4a3764c295f002bb2a3406cfa9d63fa58f77"
    )


def test_ladder_rejects_mixed_rings_and_torsion():
    ctx = context_for(5, 7, N)  # inert: residue order 48
    f = random_depleted(1, ctx, 4)
    one = ctx.ring.one
    ring1 = PadicRing(7, N, 1)
    with pytest.raises(ConfigError):
        f.d_ladder(1, -1, [(one, ring1.one)])
    # finite part mod p - 1 = 6 is ambiguous on the degree-2 ring's units
    ch = WeightCharacter(ring1, 6, (ring1.from_int(-1),), (-1,))
    ((term,),) = f.d_ladder(1, ch, [(one,)])  # one term takes no step
    for key, v in f.coeffs.items():
        assert term.coeff(key) == v * ppow(ctx.sp.sigma(key, 1), ch.u[0], ch.chi[0])
    with pytest.raises(ConfigError):
        f.d_ladder(1, ch, [(one, one)])


def _fresh(ctx):
    """A context equal to ctx on a new splitting, which holds no entries."""
    return QExpContext(ctx.field, PrimeSplitting(ctx.field, ctx.p, ctx.N))


def _on(ctx, f):
    return HilbertQExp(ctx, SUPPORT_DINV, f.bound, f.coeffs, f.weight_tag)


@given(ladder_cases())
def test_fresh_and_warm_entries_agree(case):
    # warm holds the entries of a smaller form that is not depleted, at both
    # embeddings, so the calls below read some entries and fill the rest
    ctx, i = case["ctx"], case["i"]
    warm = _fresh(ctx)
    small = random_form(case["seed"], warm, case["B"] - 1)
    for j in (1, 2):
        small.d(j)
    f = random_depleted(case["seed"], ctx, case["B"])
    args = (i, _exponent(case), [case["scalars"]], case["restrict"])
    (cold,) = _on(_fresh(ctx), f).d_ladder(*args)
    for _ in range(2):  # filling the rest, then reading every entry
        (got,) = _on(warm, f).d_ladder(*args)
        assert _terms(got) == _terms(cold)
    g = random_form(case["seed"] + 1, ctx, case["B"])
    want = _on(_fresh(ctx), g).d(i)
    assert _on(warm, g).d(i) == want
    assert _on(warm, g).d(i) == want


@pytest.mark.parametrize("p", (7, 11))
def test_non_unit_raises_after_entries_filled(p):
    ctx = _fresh(context_for(5, p, N))
    ring1 = PadicRing(p, N, 1)
    # the non-classical character with finite part 1 and u = p
    ch = WeightCharacter(ring1, ctx.ring.residue_order(), (ring1.from_int(p),), (1,))
    f = random_form(2, ctx, 8)  # not depleted: index 0 and indices in p
    one = ctx.ring.one
    for i in (1, 2):
        f.d_ladder(i, 2, [[one, one, one]])  # exponents 2, 1, 0 need no inverse
        f.d(i)
        with pytest.raises(NonUnitIndex):
            f.d_char(i, -1)
        with pytest.raises(NonUnitIndex):
            f.d_ladder(i, 1, [[one, one, one]])
        with pytest.raises(NonUnitIndex):
            f.d_char(i, ch)
        dep = f.deplete()
        assert dep.d_char(i, -1).d(i) == dep


@given(
    p=st.sampled_from(sorted(FIELDS)),
    which=st.integers(0, 1),
    seed=st.integers(0, 999),
    B=st.integers(0, 16),
    data=st.data(),
)
def test_deplete_matches_embedding_units(p, which, seed, B, data):
    # beta is in the prime p_i exactly when sigma_i of its numerator is no unit
    ctx = context_for(FIELDS[p][which][0], p, N)
    sp, primes = ctx.sp, ctx.primes_above_p()
    labels = data.draw(st.sampled_from(["all", *[(i,) for i in primes], primes]))
    chosen = primes if labels == "all" else labels

    def kept(key, within):
        return key != (0, 0) and all(sp.embed(key, i).is_unit() for i in within)

    f = random_form(seed, ctx, B)
    want = {k: v for k, v in f.coeffs.items() if kept(k, chosen)}
    assert f.deplete(labels).coeffs == want
    for i in primes:
        want = [k for k in f.coeffs if sp.embed(k, i).is_unit()]
        assert sp.coprime_keys(f.coeffs, (i,)) == want
    keys = tot_pos_enum(ctx.field, SUPPORT_DINV, B)
    want = {k for k in keys if kept(k, primes)}
    assert set(random_depleted(seed, ctx, B).coeffs) == want
