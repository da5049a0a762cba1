"""Unit tests for Euler factors, the split decomposition, and the
Gross-Zagier-type identity machinery."""

import math
import random

import pytest

from padicgz import suites
from padicgz.errors import ConfigError, DecompositionFailed, PrecisionExhausted
from padicgz.formgen import demo_basis, hilbert_eisenstein
from padicgz.lvalue import (
    EulerFactorSet,
    apply_vpoly,
    build_split_primitives,
    build_h_prime,
    euler_factors,
    gz_sides,
    gz_sum,
    kappa_empirical,
    main_theorem_residual,
    split_poly_decomp,
    split_poly_decomp3,
    u_annihilation_certificate,
    verify_e0p_relation,
    verify_gz,
    lp_balanced,
    aj_value,
)
from padicgz.nearlyoc import zeta_star_nabla_pow
from padicgz.padic import PadicRing, ScaledPadic
from padicgz.qexp import QExpContext, agreement_valuation
from padicgz.quadfield import make_field, splitting_type
from padicgz.serialize import noc_to_dict
from padicgz.weights import WeightCharacter

L = make_field(5)
N = 12
CTX11 = QExpContext(L, splitting_type(L, 11, N))
CTX7 = QExpContext(L, splitting_type(L, 7, N))
R11 = CTX11.ring
R7 = CTX7.ring


def test_euler_inert_hand_value():
    ring = PadicRing(7, 8)
    g_roots = (ring.from_int(2), ring.from_int(3))
    es = euler_factors(g_roots, (ring.from_int(5), ring.from_int(1)), 0)
    assert es.kind == "inert" and es.e_0p is None
    # (1 - 2/5)(1 - 3/5) = 6/25
    expect = ScaledPadic(ring.from_int(6) * ring.from_int(25).inv())
    assert es.e_p == expect
    assert es.e_fstar == ScaledPadic(ring.one - ring.from_int(5).inv())


def test_euler_exceptional_zero_and_trivial():
    ring = PadicRing(7, 8)
    z, o = ring.zero, ring.one
    es = euler_factors((z, z), (o, o), 0)
    assert es.exceptional_zero()
    es = euler_factors((z, z, z, z), (o, z), 0)
    assert es.kind == "split"
    assert es.e_p == ScaledPadic(o) and es.e_0p == ScaledPadic(o)
    assert es.e_fstar == ScaledPadic(o)


def test_exceptional_zero_needs_a_known_zero():
    ring = PadicRing(7, 8)
    one = ScaledPadic(ring.one)
    # known only mod p^-4: no digit of E_p is known, so it is not flagged
    unknown = ScaledPadic(ring.zero, -4, 0)
    assert unknown.is_zero()
    assert not EulerFactorSet("inert", -2, one, unknown, None).exceptional_zero()
    with pytest.raises(PrecisionExhausted):
        one / unknown
    # known mod p^0 is still no digit; mod p^1 is one
    mod_p0, mod_p1 = ScaledPadic(ring.zero, -3, 3), ScaledPadic(ring.zero, -3, 4)
    assert not EulerFactorSet("inert", 0, one, mod_p0, None).exceptional_zero()
    assert EulerFactorSet("inert", 0, one, mod_p1, None).exceptional_zero()
    # zero mod p^N is flagged, in either factor
    zero = ScaledPadic(ring.zero)
    assert EulerFactorSet("inert", 0, one, zero, None).exceptional_zero()
    assert EulerFactorSet("inert", 0, zero, one, None).exceptional_zero()
    with pytest.raises(PrecisionExhausted):
        one / zero


def test_exceptional_zero_at_negative_t():
    # at t_F = -1, E_p = (1 - 7^-1 * 7)^2 is known only mod 7^(N-1), and is flagged
    ring = PadicRing(7, 8)
    seven = ring.from_int(7)
    es = euler_factors((seven, seven), (ring.one, ring.from_int(2)), -1)
    assert es.e_p.is_zero() and es.e_p.exponent + es.e_p.prec == 7
    assert es.exceptional_zero()


def test_euler_negative_power_carried():
    ring = PadicRing(7, 8)
    es = euler_factors((ring.one, ring.from_int(7)), (ring.one, ring.from_int(7)), -2)
    # (1 - 7^-2)(1 - 7^-1) = 48 * 6 / 7^3, the mantissa known to 7 digits
    assert es.e_p.mantissa == ring.from_int(288)
    assert es.e_p.exponent == -3
    assert es.e_p.prec == 7


@pytest.mark.parametrize("count", [0, 1, 3, 5])
def test_euler_root_count_checked(count):
    ring = PadicRing(7, 8)
    with pytest.raises(ConfigError):
        euler_factors((ring.one,) * count, (ring.one, ring.one), 0)


def test_split_poly_decomp_random_roots():
    ring = PadicRing(11, 10)
    rng = random.Random(41)
    for _ in range(25):
        a1, b1, a2, b2 = (ring.from_int(rng.randrange(1, 21)) for _ in range(4))
        p1 = (a1 + b1, a1 * b1)
        p2 = (a2 + b2, a2 * b2)
        a2p, b1p = split_poly_decomp(p1, p2, ring)  # verifies internally
        assert all(x <= y for (x, y) in a2p)
        assert all(x > y for (x, y) in b1p)
        diag, A, B = split_poly_decomp3(p1, p2, ring)
        assert all(x < y for (x, y) in A)
        assert all(x > y for (x, y) in B)


def test_split_poly_decomp_degenerate():
    ring = PadicRing(11, 8)
    z = ring.zero
    a2p, b1p = split_poly_decomp((z, z), (z, z), ring)
    assert a2p == {(0, 0): ring.one} and b1p == {}


E88_11 = hilbert_eisenstein(8, CTX11, 40)
ROOTS_11 = (R11.one, R11.from_int(11**7), R11.one, R11.from_int(11**7))
PRIM = build_split_primitives(E88_11, ROOTS_11, (8, 8), 1, 12)


def test_build_split_primitives_verifies():
    # construction runs its own decomposition identity check; spot-check
    # the pieces here as well
    p = PRIM
    assert p.u_scalar == R11.one
    assert not p.h.is_zero() and not p.h1.is_zero() and not p.h2.is_zero()
    # every monomial of poly_A_hat carries V_2 and every monomial of
    # poly_B_hat carries V_1, so h1 lives on p_2 and h2 on p_1
    assert p.h1.deplete((2,)).is_zero()
    assert p.h2.deplete((1,)).is_zero()
    # tau H's j = s term matches the leading H' term
    hp = build_h_prime(E88_11, (8, 8), 1, 12)
    lead_tau = p.tau_H.term(0)
    lead_hp = hp.term(0)
    # tau(h) leading term uses d^(ell1-2-s) h = d^(-1-s) g^[P] + V-part
    b = min(lead_tau.bound, lead_hp.bound)
    main_part = p.h_main.d_char(1, p.ell[0] - 2 - p.s).zeta_star()
    corr_part = p.h_corr.d_char(1, p.ell[0] - 2 - p.s).zeta_star()
    coef = R11.from_int((-1) ** p.s)
    import math as _m

    coef = coef * _m.factorial(p.s)
    expect = (main_part - corr_part).scale(coef * R11.from_int(11**0))
    assert agreement_valuation(lead_tau, expect.truncated(b), b) == N


def test_decomposition_identity_direct():
    # rebuild both sides of P(V_0(p)) g = d^(l-1) h + d^(l-1) h1 + d^(l-1) h2
    from padicgz.lvalue import _quartic, apply_diag_poly

    lam = (ROOTS_11[0] + ROOTS_11[1], ROOTS_11[2] + ROOTS_11[3])
    c = (ROOTS_11[0] * ROOTS_11[1], ROOTS_11[2] * ROOTS_11[3])
    lhs = apply_diag_poly(_quartic(lam[0], c[0], lam[1], c[1], R11), E88_11)
    rhs = (
        PRIM.h.d_char(1, 7)
        + PRIM.h1.d_char(1, 7)
        + PRIM.h2.d_char(2, 7)
    )
    b = min(lhs.bound, rhs.bound)
    assert agreement_valuation(lhs, rhs, b) == N


def test_eigen_failure_detected():
    bad = E88_11.scale(R11.from_int(2))._like(dict(E88_11.coeffs))
    bad.coeffs[(0, 1)] = R11.from_int(999)
    with pytest.raises(Exception):
        build_split_primitives(bad, ROOTS_11, (8, 8), 1, 12)


def test_split_primitives_s_range_guard():
    # a negative s reaches the tau-sum after every check has passed; it
    # must raise the named configuration error, not a bare ValueError
    g = hilbert_eisenstein(8, CTX11, 20)
    with pytest.raises(ConfigError):
        build_split_primitives(g, ROOTS_11, (8, 8), -1, 12)


def test_verify_gz_inert():
    g = hilbert_eisenstein(8, CTX7, 30)
    rep = verify_gz(g, (8, 8), 1, 12)
    assert rep.kind == "gz-inert"
    assert rep.passed
    assert rep.agreement_valuation == N
    assert all(row["agreement"] == N for row in rep.lhs_agreement_table)


def test_verify_gz_split():
    rep = verify_gz(E88_11, (8, 8), 1, 12)
    assert rep.kind == "gz-split"
    assert rep.passed
    assert rep.agreement_valuation >= rep.certified_valuation
    # no 11-adic denominator losses at k = 12
    assert rep.notes[0]["denominator_loss"] == 0


@pytest.mark.parametrize("ell", [(8, 10), (10, 8)])
def test_suite_gz_split_rejects_non_parallel_weight(ell):
    # the built-in family is parallel-weight: (8, 10) would check the weight
    # (8, 8) series against the weight character of (8, 10)
    with pytest.raises(ConfigError):
        suites.suite_gz_split(D=5, p=11, N=8, B=20, ell=ell, s_values=(1,))


def test_verify_gz_s_range_guard():
    g = hilbert_eisenstein(4, CTX7, 20)
    with pytest.raises(ConfigError):
        verify_gz(g, (4, 4), 3, 0)


def test_u_annihilation_certificate():
    recs = u_annihilation_certificate(PRIM)
    assert recs and all(r["ok"] for r in recs)


def test_e0p_relation():
    basis = demo_basis(R11, 40)
    block = basis.blocks[1]
    res = verify_e0p_relation(PRIM, basis, block)
    assert res["graded_part_ok"]
    assert res["ok"], (res["lhs"], res["rhs"])
    # empirical kappa sits within the slope gap of the structural 1/alpha
    diff = res["kappa"] - res["kappa_structural"]
    assert diff.is_zero() or diff.valuation() >= 5


def test_lp_and_aj_consistency_split():
    basis = demo_basis(R11, 40)
    block = basis.blocks[1]
    lp = lp_balanced(E88_11, basis, block, (8, 8), 1)
    aj = aj_value(E88_11, basis, block, ROOTS_11, (8, 8), 1)
    assert aj.kind == "aj-split"
    resid = main_theorem_residual(lp, aj, 1)
    assert resid.is_zero(), resid
    assert lp.value is not None and aj.value is not None


def test_lp_and_aj_consistency_inert():
    g = hilbert_eisenstein(8, CTX7, 40)
    basis = demo_basis(R7, 40)
    block = basis.blocks[1]
    roots = (R7.one, R7.from_int(7**14))
    lp = lp_balanced(g, basis, block, (8, 8), 1)
    aj = aj_value(g, basis, block, roots, (8, 8), 1)
    assert aj.kind == "aj-inert"
    resid = main_theorem_residual(lp, aj, 1)
    assert resid.is_zero(), resid


def test_aj_root_count_must_fit_prime():
    # two roots are an inert prime's; p = 11 splits in Q(sqrt 5)
    basis = demo_basis(R11, 40)
    with pytest.raises(ConfigError, match="needs 4 Hecke roots, got 2"):
        aj_value(E88_11, basis, basis.blocks[1], ROOTS_11[:2], (8, 8), 1)


def test_split_primitives_need_split_prime():
    g = hilbert_eisenstein(8, CTX7, 20)
    with pytest.raises(ConfigError, match="p = 7 is inert in D = 5, not split"):
        build_split_primitives(g, ROOTS_11, (8, 8), 1, 12)


def test_lp_linear_in_g():
    basis = demo_basis(R11, 40)
    block = basis.blocks[1]
    lp1 = lp_balanced(E88_11, basis, block, (8, 8), 1)
    scaled = E88_11.scale(R11.from_int(3))
    lp3 = lp_balanced(scaled, basis, block, (8, 8), 1)
    assert lp3.value == lp1.value * ScaledPadic(R11.from_int(3))
    zero_g = E88_11.scale(R11.zero)
    lp0 = lp_balanced(zero_g, basis, block, (8, 8), 1)
    assert lp0.value.is_zero()


def test_gz_sum_term_count():
    # number of omega/eta terms is ell1 - s - 1
    for s in (0, 1):
        noc = build_h_prime(E88_11, (8, 8), s, 14 - 2 * s)
        assert len(noc.degrees()) == 8 - s - 1


@pytest.mark.parametrize("ctx", [CTX7, CTX11], ids=["p7", "p11"])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_gz_sides_match_separate_passes(ctx, s):
    # verify_gz reads both sides off one ladder pass; each equals its side
    # computed on its own pass
    ell, k = (8, 8), 14 - 2 * s
    gdep = hilbert_eisenstein(8, ctx, 30).deplete("all")
    ring = ctx.ring
    ring1, tor = PadicRing(ctx.p, ctx.N, 1), ring.residue_order()
    rhs = zeta_star_nabla_pow(
        gdep,
        WeightCharacter.from_classical(ring1, tor, ell),
        WeightCharacter.from_classical(ring1, tor, (-s - 1, 0)),
    ).scale(ring.from_int((-1) ** s * math.factorial(s)))
    lhs = gz_sum(gdep, ell[0], s, k)
    got_lhs, got_rhs = gz_sides(gdep, ell, s, k)
    assert noc_to_dict(got_lhs) == noc_to_dict(lhs)
    assert noc_to_dict(got_rhs) == noc_to_dict(rhs)
    assert len(lhs.degrees()) == len(rhs.degrees()) == ell[0] - s - 1


def test_verify_gz_unit_scaling_invariance():
    g = hilbert_eisenstein(6, CTX7, 24)
    rep1 = verify_gz(g, (6, 6), 1, 8)
    rep2 = verify_gz(g.scale(R7.from_int(3)), (6, 6), 1, 8)
    assert rep1.passed and rep2.passed
    assert rep1.agreement_valuation == rep2.agreement_valuation
