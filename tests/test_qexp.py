"""Unit tests for the q-expansion operator algebra."""

import random

import pytest

from padicgz.errors import ConfigError, ConvergenceDomain, IndexMismatch, NonUnitIndex
from padicgz.formgen import (
    elliptic_eisenstein,
    hilbert_eisenstein,
    random_depleted,
    random_form,
)
from padicgz.padic import PadicRing, ppow
from padicgz.qexp import EllipticQExp, HilbertQExp, QExpContext, agreement_valuation
from padicgz.quadfield import SUPPORT_DINV, make_field, splitting_type
from padicgz.weights import WeightCharacter

L = make_field(5)
CTX11 = QExpContext(L, splitting_type(L, 11, 8))   # split
CTX7 = QExpContext(L, splitting_type(L, 7, 8))     # inert


def contexts():
    return [CTX11, CTX7]


def test_monomial_product_and_unit():
    for ctx in contexts():
        f = random_form(1, ctx, 10)
        one = HilbertQExp(ctx, SUPPORT_DINV, 10, {(0, 0): ctx.ring.one})
        assert f * one == f
        qa = HilbertQExp(ctx, SUPPORT_DINV, 10, {(0, 1): ctx.ring.one})
        qb = HilbertQExp(ctx, SUPPORT_DINV, 10, {(-1, 1): ctx.ring.one})
        prod = qa * qb
        assert prod.coeffs == {(-1, 2): ctx.ring.one}


def test_mul_commutative_associative():
    rng = random.Random(11)
    for ctx in contexts():
        for trial in range(3):
            f = random_form(rng.randrange(999), ctx, 8)
            g = random_form(rng.randrange(999), ctx, 8)
            h = random_form(rng.randrange(999), ctx, 8)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)


def test_d_embedding_value():
    # sigma_1(phi) = (1+4)/2 = 8 mod 11; the index of phi is its numerator
    # phi * sqrt(5) = phi + 2, the key (2, 1)
    ctx = QExpContext(L, splitting_type(L, 11, 1))
    f = HilbertQExp(ctx, SUPPORT_DINV, 4, {(2, 1): ctx.ring.one})
    assert f.d(1).coeffs[(2, 1)] == ctx.ring.from_int(8)
    phi = CTX11.sp.sigma((2, 1), 1)
    assert (phi - CTX11.ring.from_int(8)).valuation() >= 1
    # constant term dies
    c = HilbertQExp(CTX11, SUPPORT_DINV, 4, {(0, 0): CTX11.ring.from_int(3)})
    assert c.d(1).is_zero()


def test_one_index_convention():
    assert HilbertQExp(CTX11, SUPPORT_DINV, 4).support == SUPPORT_DINV
    for bad in ("OL", None):
        with pytest.raises(ConfigError):
            HilbertQExp(CTX11, bad, 4)


def test_d_leibniz_and_commutation():
    for ctx in contexts():
        for seed in (21, 22):
            f = random_form(seed, ctx, 8)
            g = random_form(seed + 100, ctx, 8)
            assert f.d(1).d(2) == f.d(2).d(1)
            assert (f * g).d(1) == f.d(1) * g + f * g.d(1)
            assert (f * g).d(2) == f.d(2) * g + f * g.d(2)


def test_d_char_integer_matches_iteration():
    for ctx in contexts():
        f = random_depleted(31, ctx, 10)
        assert f.d_char(1, 3) == f.d(1).d(1).d(1)
        assert f.d_char(1, 0) == f
        assert f.d_char(1, -1).d_char(1, 1) == f


def _power_by_products(t, e):
    base = t if e >= 0 else t.inv()
    out = t.ring.one
    for _ in range(abs(e)):
        out = out * base
    return out


def test_d_char_integer_matches_repeated_products():
    # d^(-1-s-j) in nabla_pow and gz_sum, and positive powers up to 10
    exponents = [e for e in range(-10, 11) if e]
    for ctx in contexts():
        f = random_depleted(35, ctx, 6)
        for i in (1, 2):
            for e in exponents:
                g = f.d_char(i, e)
                for k, v in f.coeffs.items():
                    s = ctx.sp.sigma(k, i)
                    assert g.coeff(k) == v * _power_by_products(s, e)
                assert g.d_char(i, -e) == f
    rng = random.Random(36)
    for ring in (PadicRing(7, 8, 2), PadicRing(11, 8)):
        coeffs = {}
        for n in range(1, 31):
            if n % ring.p:
                b = rng.randrange(ring.modulus) if ring.degree == 2 else 0
                coeffs[n] = ring.make(rng.randrange(ring.modulus), b)
        f = EllipticQExp(ring, 30, coeffs)
        for e in exponents:
            g = f.d_char(e)
            for n, v in f.coeffs.items():
                assert g.coeff(n) == v * _power_by_products(ring.from_int(n), e)
            assert g.d_char(-e) == f


def test_d_char_rejects_other_exponents():
    f = random_depleted(37, CTX11, 6)
    phi = f.zeta_star()
    for bad in (1.5, None):
        with pytest.raises(ConfigError):
            f.d_char(1, bad)
        with pytest.raises(ConfigError):
            phi.d_char(bad)


def test_d_char_character_route_matches_integer():
    for ctx in contexts():
        order = ctx.ring.residue_order()
        ring1 = PadicRing(ctx.p, ctx.N, 1)
        f = random_depleted(33, ctx, 6)
        for m in (1, -2, 5):
            ch = WeightCharacter(
                ring1, order, (ring1.from_int(m),), (m,), None
            )
            assert f.d_char(1, ch) == f.d_char(1, m)


def _analytic_chars(ring, p):
    # u = -2 + (p - 1) p^m: p-adically close to the classical -2, never equal
    ring1 = PadicRing(p, ring.N, 1)
    order = ring.residue_order()
    for m in range(4):
        u = ring1.from_int(-2 + (p - 1) * p**m)
        yield u, WeightCharacter(ring1, order, (u,), (-2,))


def test_d_char_character_matches_ppow():
    # ppow is the oracle here; it is itself checked against log/exp
    for ctx in contexts():
        f = random_depleted(38, ctx, 8)
        for u, ch in _analytic_chars(ctx.ring, ctx.p):
            for i in (1, 2):
                g = f.d_char(i, ch)
                assert set(g.coeffs) == set(f.coeffs)
                for k, v in f.coeffs.items():
                    s = ctx.sp.sigma(k, i)
                    assert g.coeff(k) == v * ppow(s, u, ch.chi[0])
        with pytest.raises(NonUnitIndex):
            random_form(39, ctx, 8).d_char(1, ch)
        bad = WeightCharacter(
            PadicRing(ctx.p, ctx.N - 2, 1), ch.torsion_order,
            (PadicRing(ctx.p, ctx.N - 2, 1).from_int(3),), (3,),
        )
        with pytest.raises(ConfigError):
            f.d_char(1, bad)
    rng = random.Random(40)
    for ring in (PadicRing(11, 8), PadicRing(7, 8, 2)):
        coeffs = {}
        for n in range(1, 31):
            b = rng.randrange(ring.modulus) if ring.degree == 2 else 0
            coeffs[n] = ring.make(rng.randrange(ring.modulus), b)
        f = EllipticQExp(ring, 30, coeffs)
        dep = f.deplete()
        for u, ch in _analytic_chars(ring, ring.p):
            g = dep.d_char(ch)
            assert set(g.coeffs) == set(dep.coeffs)
            for n, v in dep.coeffs.items():
                assert g.coeff(n) == v * ppow(ring.make(n), u, ch.chi[0])
        with pytest.raises(NonUnitIndex):
            f.d_char(ch)
        other = PadicRing(5, ring.N, 1)
        with pytest.raises(ConfigError):
            dep.d_char(WeightCharacter(other, 4, (other.from_int(2),), (2,)))


def test_d_char_character_p2_domain():
    # at p = 2 only t == 1 mod 4, chi even and u in 4Z_2 are defined
    ring = PadicRing(2, 10)
    good = EllipticQExp(ring, 30, {n: ring.from_int(n + 2) for n in range(1, 31, 4)})
    for uval in (4, -8, 12 + 2**7):
        u = ring.from_int(uval)
        ch = WeightCharacter(ring, 1, (u,), (0,))
        g = good.d_char(ch)
        for n, v in good.coeffs.items():
            assert g.coeff(n) == v * ppow(ring.make(n), u, 0)
    with pytest.raises(ConvergenceDomain):
        EllipticQExp(ring, 30, {3: ring.one}).d_char(ch)
    with pytest.raises(ConvergenceDomain):
        good.d_char(WeightCharacter(ring, 1, (ring.from_int(6),), (0,)))
    with pytest.raises(NonUnitIndex):
        EllipticQExp(ring, 30, {2: ring.one}).d_char(ch)


def test_d_char_requires_depletion():
    f = random_form(41, CTX11, 8)  # not depleted
    with pytest.raises(NonUnitIndex):
        f.d_char(1, -1)


def test_deplete_idempotent_and_vu():
    for ctx in contexts():
        f = random_form(51, ctx, 12)
        dep = f.deplete()
        assert dep.deplete() == dep
        for i in ctx.primes_above_p():
            # (1 - V U) f = f depleted at that prime
            vu = f.u(i).v(i)
            lhs = (f - vu)
            rhs = f.deplete((i,))
            b = min(lhs.bound, rhs.bound)
            assert agreement_valuation(lhs, rhs, b) == ctx.N


def test_uv_identity():
    for ctx in contexts():
        f = random_form(61, ctx, 12)
        for i in ctx.primes_above_p():
            uv = f.v(i).u(i)
            b = min(uv.bound, f.bound)
            assert agreement_valuation(uv, f, b) == ctx.N


def test_v_support_inside_prime():
    f = random_form(71, CTX11, 12)
    vf = f.v(1)
    assert vf.deplete((1,)).is_zero()
    # and depletion at the other prime keeps it
    assert not vf.deplete((2,)).is_zero()


@pytest.mark.parametrize("ctx", contexts(), ids=["split", "inert"])
def test_embedding_index_out_of_range(ctx):
    f = random_depleted(3, ctx, 6)
    empty = HilbertQExp(ctx, SUPPORT_DINV, 6)
    for i in (0, 3, -1):
        for form in (f, empty):
            with pytest.raises(ConfigError):
                form.d(i)
            with pytest.raises(ConfigError):
                form.d_char(i, 1)
        with pytest.raises(ConfigError):
            ctx.sp.sigma((0, 1), i)
        with pytest.raises(ConfigError):
            ctx.sp.embed((0, 1), i)


@pytest.mark.parametrize("ctx", contexts(), ids=["split", "inert"])
def test_prime_label_out_of_range(ctx):
    f = random_form(5, ctx, 8)
    labels = ctx.primes_above_p()
    bad = [i for i in (0, 1, 2, 3) if i not in labels]
    assert bad == ([0, 3] if ctx.sp.kind == "split" else [0, 2, 3])
    for i in bad:
        for op in (f.u, f.v, lambda i: f.t(i, 8), lambda i: f.deplete((i,))):
            with pytest.raises(ConfigError):
                op(i)
        with pytest.raises(ConfigError):
            f.deplete((labels[0], i))
        with pytest.raises(ConfigError):
            ctx.sp.coprime_keys([(0, 1)], (i,))
        with pytest.raises(ConfigError):
            ctx.sp.prime_generator(i)


def test_deplete_at_a_large_split_prime():
    # membership costs O(1) per context and key, whatever the size of p
    p = 10**9 + 9  # 4 mod 5, so split in D = 5
    sp = splitting_type(L, p, 2)
    assert sp.kind == "split"
    pi1, pi2 = sp.pi1, sp.pi2
    keys = [(0, 1), pi1, pi2, (p, 0), (0, 0)]
    assert sp.coprime_keys(keys, (1,)) == [(0, 1), pi2]
    assert sp.coprime_keys(keys, (2,)) == [(0, 1), pi1]
    assert sp.coprime_keys(keys, (1, 2)) == [(0, 1)]
    ctx = QExpContext(L, sp)
    bound = max(k[1] for k in keys)
    f = HilbertQExp(ctx, SUPPORT_DINV, bound, {k: ctx.ring.one for k in keys})
    assert set(f.deplete().coeffs) == {(0, 1)}
    assert set(f.deplete((2,)).coeffs) == {(0, 1), pi1}


def test_split_generator_sanity():
    assert L.mul(CTX11.sp.pi1, CTX11.sp.pi2) == (11, 0)


def test_v_rational_p_is_v1_v2():
    f = random_form(81, CTX11, 12)
    lhs = f.v(1).v(2)
    rhs = f.v_rational_p()
    b = min(lhs.bound, rhs.bound)
    assert agreement_valuation(lhs, rhs, b) == CTX11.N


def test_zeta_star_basics():
    for ctx in contexts():
        c = HilbertQExp(ctx, SUPPORT_DINV, 6, {(0, 0): ctx.ring.from_int(5)})
        z = c.zeta_star()
        assert z.coeffs == {0: ctx.ring.from_int(5)}
        f = random_form(91, ctx, 8)
        g = random_form(92, ctx, 8)
        assert f.zeta_star() * g.zeta_star() == (f * g).zeta_star()
        # d zeta* = zeta*(d1 + d2)
        assert f.zeta_star().d() == (f.d(1) + f.d(2)).zeta_star()


def test_u_zeta_v_vanishing():
    # U zeta*(V_0(p2) x) = 0 for p1-depleted x, exactly
    rng = random.Random(101)
    for seed in range(5):
        x = random_depleted(rng.randrange(10**6), CTX11, 16).deplete((1,))
        w = x.v(2).zeta_star().u()
        assert w.is_zero()
        x2 = random_depleted(rng.randrange(10**6), CTX11, 16).deplete((2,))
        assert x2.v(1).zeta_star().u().is_zero()


def test_zeta_star_eisenstein_b1():
    E = hilbert_eisenstein(2, CTX11, 8)
    z = E.zeta_star()
    assert z.coeff(1) == CTX11.ring.from_int(2)


def test_hilbert_t_op_eigen():
    for ctx in contexts():
        k = 4
        E = hilbert_eisenstein(k, ctx, 20)
        norm = ctx.p if ctx.sp.kind == "split" else ctx.p**2
        lam = ctx.ring.from_int(1 + norm ** (k - 1))
        te = E.t(1, k)
        ref = E.scale(lam)
        assert agreement_valuation(te, ref, te.bound) == ctx.N


def test_t_op_linearity():
    f = random_form(111, CTX11, 22)
    g = random_form(112, CTX11, 22)
    lhs = (f + g).t(1, 4)
    rhs = f.t(1, 4) + g.t(1, 4)
    assert lhs == rhs


def test_elliptic_ops():
    ring = PadicRing(7, 8)
    E4 = elliptic_eisenstein(4, 30, ring)
    assert E4.coeff(1) == ring.from_int(240)
    assert E4.coeff(2) == ring.from_int(2160)
    dep = E4.deplete()
    assert dep.coeff(7).is_zero() and dep.coeff(2) == ring.from_int(2160)
    # V then U
    assert E4.v().u() == E4
    mono = EllipticQExp(ring, 30, {2: ring.one})
    assert mono.v().coeffs == {14: ring.one}
    # U reindexes
    f = EllipticQExp(ring, 30, {14: ring.from_int(9)})
    assert f.u().coeffs == {2: ring.from_int(9)}


def test_bound_guards():
    ring = PadicRing(7, 4)
    f = EllipticQExp(ring, 5, {1: ring.one})
    with pytest.raises(IndexMismatch):
        f.coeff(6)
    g = random_form(121, CTX11, 6)
    with pytest.raises(IndexMismatch):
        g.coeff((0, 7))


def test_constant_term_never_matters_after_depletion():
    # perturbing a_0 changes no depleted-pipeline output
    f = random_form(131, CTX11, 10)
    g = f._like(dict(f.coeffs))
    g.coeffs[(0, 0)] = CTX11.ring.from_int(123)
    assert f.deplete() == g.deplete()
    assert f.deplete((1,)).zeta_star() == g.deplete((1,)).zeta_star()


def test_depletion_commutes_with_d_and_addition():
    f = random_form(141, CTX11, 10)
    g = random_form(142, CTX11, 10)
    assert f.deplete((1,)).d(1) == f.d(1).deplete((1,))
    assert (f + g).deplete() == f.deplete() + g.deplete()


def test_depletion_product_shortcuts():
    # supports mix in a general product, so depletion is NOT multiplicative
    f = random_form(143, CTX11, 10)
    g = random_form(144, CTX11, 10)
    prod = f * g
    assert prod.deplete((1,)) != f.deplete((1,)) * g.deplete((1,))
    assert prod.deplete((1,)) != f.deplete((1,)) * g
    # but against a V-shifted factor the shortcut IS exact (the shifted
    # support lies inside the prime), which the vanishing lemma relies on
    vg = g.v(1).truncated(10)
    assert (f * vg).deplete((1,)) == f.deplete((1,)) * vg


def test_u_deplete_v_is_zero():
    f = random_form(145, CTX11, 12)
    for i in CTX11.primes_above_p():
        assert f.v(i).deplete((i,)).u(i).is_zero()


def test_elliptic_t_delta_eigen():
    from padicgz.formgen import delta_form

    ring = PadicRing(7, 10)
    D = delta_form(70, ring)
    tD = D.t(12)
    ref = D.scale(ring.from_int(-16744)).truncated(tD.bound)
    assert agreement_valuation(tD, ref, tD.bound) == ring.N
