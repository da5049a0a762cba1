"""Unit tests for the nearly overconvergent q-expansion calculus."""

import pytest

from padicgz.errors import InsufficientValuation, WeightMismatch, ZeroDenominator
from padicgz.formgen import random_depleted, random_form
from padicgz.nearlyoc import (
    ELLIPTIC,
    HILBERT,
    NearlyOCExpansion,
    from_omega_eta,
    nabla_i,
    nabla_pow,
    noc_agreement,
    oc_project,
    wrap_fil0,
    zeta_star_noc,
)
from padicgz.padic import PadicRing
from padicgz.qexp import EllipticQExp, QExpContext, agreement_valuation
from padicgz.quadfield import PrimeSplitting, make_field
from padicgz.weights import WeightCharacter

from helpers import random_elliptic

L = make_field(5)
CTX11 = QExpContext(L, PrimeSplitting(L, 11, 8))
CTX7 = QExpContext(L, PrimeSplitting(L, 7, 8))


def wchar(ctx, *ints):
    ring1 = PadicRing(ctx.p, ctx.N, 1)
    return WeightCharacter.from_classical(ring1, ctx.ring.residue_order(), ints)


def echar(ring, k):
    return WeightCharacter.from_classical(
        PadicRing(ring.p, ring.N, 1), ring.p - 1, (k,)
    )


def test_nabla_fil0_formula():
    # nabla_1(a (1+bZ)^k) = d_1(a) + p u_k a V_1, weight k + 2 sigma_1
    for ctx in (CTX11, CTX7):
        g = random_form(7, ctx, 8)
        k = wchar(ctx, 8, 8)
        out = nabla_i(wrap_fil0(g, k), 1)
        assert out.weight.classical == (10, 8)
        assert out.term((0, 0)) == g.d(1)
        assert out.term((1, 0)) == g.scale(ctx.ring.from_int(8 * ctx.p))
        assert filtration_level(out) == 1


def test_nabla_commutes():
    for ctx in (CTX11, CTX7):
        g = random_form(8, ctx, 6)
        k = wchar(ctx, 4, 6)
        gamma = wrap_fil0(g, k)
        a = nabla_i(nabla_i(gamma, 1), 2)
        b = nabla_i(nabla_i(gamma, 2), 1)
        assert noc_agreement(a, b) == ctx.N


def test_nabla_classical_top_term_vanishes():
    # with u_k = h the V-raising coefficient is exactly zero
    ctx = CTX11
    g = random_form(9, ctx, 6)
    k = wchar(ctx, 0, 5)  # u_{k, sigma_1} = 0 = h on the Fil0 wrap
    out = nabla_i(wrap_fil0(g, k), 1)
    assert out.term((1, 0)).is_zero()


def filtration_level(gamma):
    """The largest total V-degree with a nonzero coefficient."""
    return max((sum(d) for d, c in gamma.terms.items() if not c.is_zero()), default=0)


def test_griffiths_transversality():
    ctx = CTX7
    g = random_form(10, ctx, 6)
    gamma = wrap_fil0(g, wchar(ctx, 6, 4))
    for _ in range(4):
        lvl = filtration_level(gamma)
        gamma = nabla_i(gamma, 1)
        assert filtration_level(gamma) <= lvl + 1


def test_nabla_pow_r0_and_r1():
    for ctx in (CTX11, CTX7):
        g = random_depleted(11, ctx, 8)
        k = wchar(ctx, 8, 8)
        r0 = nabla_pow(g, k, wchar(ctx, 0, 0))
        assert noc_agreement(r0, wrap_fil0(g, k)) == ctx.N
        r1 = nabla_pow(g, k, wchar(ctx, 1, 0))
        assert noc_agreement(r1, nabla_i(wrap_fil0(g, k), 1)) == ctx.N


def test_nabla_pow_matches_iteration():
    for ctx in (CTX11, CTX7):
        g = random_depleted(12, ctx, 6)
        k = wchar(ctx, 8, 8)
        iterated = wrap_fil0(g, k)
        for r in range(1, 4):
            iterated = nabla_i(iterated, 1)
            direct = nabla_pow(g, k, wchar(ctx, r, 0))
            assert noc_agreement(direct, iterated) == ctx.N


def test_nabla_pow_inverse_of_nabla():
    # nabla^(-s-1) then s+1 nabla_1 applications returns the Fil0 wrap
    ctx = CTX11
    g = random_depleted(13, ctx, 6)
    k = wchar(ctx, 8, 8)
    s = 1
    gamma = nabla_pow(g, k, wchar(ctx, -s - 1, 0))
    for _ in range(s + 1):
        gamma = nabla_i(gamma, 1)
    assert noc_agreement(gamma, wrap_fil0(g, k)) == ctx.N


def test_zeta_star_noc_degrees_merge():
    ctx = CTX11
    f = random_form(14, ctx, 6)
    k = wchar(ctx, 3, 5)
    gamma = NearlyOCExpansion(HILBERT, k, {(1, 1): f, (2, 0): f, (0, 0): f})
    z = zeta_star_noc(gamma)
    assert z.weight.classical == (8,)
    assert z.term((2,)) == f.zeta_star() + f.zeta_star()
    assert z.term((0,)) == f.zeta_star()


def test_from_omega_eta():
    ring = PadicRing(7, 6)
    c = random_elliptic(15, ring, 10)
    k = echar(ring, 12)
    gamma = from_omega_eta([(c, 12, 0, False)], k)
    assert gamma.term((0,)) == c
    gamma = from_omega_eta([(c, 11, 1, False)], k)
    assert gamma.term((1,)) == c.scale(ring.from_int(7))
    with pytest.raises(WeightMismatch):
        from_omega_eta([(c, 11, 0, False)], k)
    # dlog raises weight by two
    gamma = from_omega_eta([(c, 9, 1, True)], k)
    assert gamma.term((1,)) == c.scale(ring.from_int(7))


def test_omega_eta_round_trip():
    ring = PadicRing(7, 6)
    # several entries land at their eta-degrees, the degree-2 one times p^2
    a, b = random_elliptic(16, ring, 8), random_elliptic(17, ring, 8)
    gamma = from_omega_eta([(a, 10, 0, False), (b, 8, 2, False)], echar(ring, 10))
    assert gamma.degrees() == [(0,), (2,)]
    assert gamma.term((0,)) == a and gamma.term((2,)) == b.scale(ring.from_int(49))


def test_oc_project_fil0_passthrough():
    ring = PadicRing(7, 6)
    c = random_elliptic(18, ring, 10)
    res = oc_project(wrap_fil0(c, echar(ring, 12)))
    assert res.form == c._like(c.coeffs, weight_tag=12)
    assert res.shift == 0 and res.budget.total_loss == 0


def test_oc_project_single_term():
    # c p V (1+bZ)^k -> -d(c)/(k-2)
    ring = PadicRing(7, 6)
    c = random_elliptic(19, ring, 10)
    k = echar(ring, 12)
    gamma = from_omega_eta([(c, 11, 1, False)], k)
    res = oc_project(gamma)
    expect = c.d().scale(-ring.from_int(10).inv())
    assert res.budget.total_loss == 1  # the V^1 extraction
    assert agreement_valuation(res.form, expect, 10) >= ring.N - res.budget.total_loss


def test_oc_project_denominator_loss():
    # k = 12, degree 4 at p = 7: denominator 7*8*9*10 loses one digit
    ring = PadicRing(7, 8)
    c = random_elliptic(20, ring, 8)
    k = echar(ring, 12)
    gamma = from_omega_eta([(c, 8, 4, False)], k)
    res = oc_project(gamma)
    assert res.shift == 1
    tags = [t for t, _ in res.budget.losses]
    assert any("denominator" in t for t in tags)
    assert res.budget.total_loss == 5  # 4 extraction + 1 denominator


def test_oc_project_weight_two_rejected():
    ring = PadicRing(7, 6)
    c = random_elliptic(21, ring, 8)
    k = echar(ring, 2)
    gamma = from_omega_eta([(c, 0, 0, True)], k)
    gamma = gamma + NearlyOCExpansion(
        ELLIPTIC, k, {(1,): c.scale(ring.from_int(7))}
    )
    with pytest.raises(ZeroDenominator):
        oc_project(gamma)


def test_hdagger_kills_nabla_images():
    # H(nabla F) = 0 to the certified precision, for Fil0 F of weight k-2
    # with unit denominators
    ring = PadicRing(7, 8)
    zero = EllipticQExp(ring, 10)
    for seed in range(3):
        F = random_elliptic(30 + seed, ring, 10)
        gamma = nabla_i(wrap_fil0(F, echar(ring, 10)))
        res = oc_project(gamma, 12)
        certified = ring.N - res.budget.total_loss
        assert agreement_valuation(res.form, zero, 10) >= certified
    # and for higher filtration monomials
    c = random_elliptic(40, ring, 10).scale(ring.from_int(49))
    mono = NearlyOCExpansion(ELLIPTIC, echar(ring, 10), {(2,): c})
    res = oc_project(nabla_i(mono), 12)
    certified = ring.N - res.budget.total_loss
    assert agreement_valuation(res.form, zero, 10) >= certified


def test_divisibility_guard():
    ring = PadicRing(7, 6)
    c = random_elliptic(22, ring, 6)  # units at degree 2: not divisible
    bad = NearlyOCExpansion(ELLIPTIC, echar(ring, 8), {(2,): c})
    with pytest.raises(InsufficientValuation):
        bad.assert_divisibility()
    with pytest.raises(InsufficientValuation):
        oc_project(bad)
