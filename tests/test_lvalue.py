"""Unit tests for Euler factors, the split decomposition, and the
Gross-Zagier-type identity machinery."""

import math
import random
from unittest import mock

import pytest

from padicgz import heckeslope, lvalue, suites
from padicgz.errors import (
    ConfigError,
    DecompositionFailed,
    PadicgzError,
    PrecisionExhausted,
)
from padicgz.formgen import demo_basis, eisenstein_roots, hilbert_eisenstein
from padicgz.heckeslope import canonical_rows
from padicgz.lvalue import (
    EulerFactorSet,
    apply_vpoly,
    build_split_primitives,
    euler_factors,
    gz_sides,
    gz_sum,
    kappa_empirical,
    main_theorem_residual,
    split_poly_decomp,
    split_poly_decomp3,
    tau_image,
    u_annihilation_certificate,
    verify_e0p_relation,
    verify_gz,
    lp_balanced,
    aj_value,
)
from padicgz.nearlyoc import wrap_fil0, zeta_star_nabla_pow
from padicgz.padic import PadicRing, PrecisionBudget, ScaledPadic
from padicgz.qexp import HilbertQExp, QExpContext, agreement_valuation
from padicgz.quadfield import PrimeSplitting, make_field
from padicgz.serialize import context_for, dump, noc_to_dict
from padicgz.weights import WeightCharacter

from helpers import project_and_pair_full

L = make_field(5)
N = 12
CTX11 = QExpContext(L, PrimeSplitting(L, 11, N))
CTX7 = QExpContext(L, PrimeSplitting(L, 7, N))
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
    hp = gz_sum(E88_11.deplete("all"), 8, 1, 12)
    lead_tau = tau_image(p.h, p.ell[0], p.s, p.k).term(0)
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
    # a negative s must raise the named configuration error, not a bare
    # ValueError
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
        noc = gz_sum(E88_11.deplete("all"), 8, s, 14 - 2 * s)
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


def _outcome(fn, *args):
    """dump of the report's dict, or the class and message of the error."""
    try:
        return dump(fn(*args).to_dict())
    except PadicgzError as e:
        return type(e).__name__, str(e)


def _lp_and_aj(g, basis, roots, w):
    block, ell = basis.blocks[1], (w, w)
    return (
        _outcome(lp_balanced, g, basis, block, ell, w - 7),
        _outcome(aj_value, g, basis, block, roots, ell, w - 7),
    )


def test_pairing_matches_the_full_bound_oracle():
    # the ladder and projection run to the last canonical row first; reports
    # and errors equal one full-bound pass (the reference) around that row
    values = 0
    for D in (5, 13):
        for p in (3, 7, 11, 13):
            for Np in (4, 12):
                try:
                    ctx = context_for(D, p, Np)
                except PadicgzError:
                    continue
                top = canonical_rows(demo_basis(ctx.ring, max(40, 2 * p)))[0][-1]
                for B in sorted({top - 1, top, top + 1, 40}):
                    basis = demo_basis(ctx.ring, max(B, 2 * p))
                    for w in (7, 8, 10):
                        g = hilbert_eisenstein(w, ctx, B)
                        roots = eisenstein_roots(ctx, w)
                        got = _lp_and_aj(g, basis, roots, w)
                        with mock.patch.object(
                            lvalue, "_project_and_pair", project_and_pair_full
                        ):
                            want = _lp_and_aj(g, basis, roots, w)
                        assert got == want, (D, p, Np, B, w)
                        values += sum(isinstance(x, str) for x in got)
    assert values >= 100


def _recording(fn, bounds):
    def wrapper(h, *args):
        bounds.append(h.bound)
        return fn(h, *args)

    return wrapper


@pytest.mark.parametrize("evaluator", ["lvalue", "aj"])
def test_zero_input_runs_at_top_then_at_full_bound(evaluator):
    # the zero form has no residual up to the last canonical row, so the
    # pairing input is built once more at the full bound
    basis = demo_basis(R7, 40)
    top = canonical_rows(basis)[0][-1]
    zero = hilbert_eisenstein(8, CTX7, 40).scale(R7.zero)
    name, args = {
        "lvalue": ("zeta_star_nabla_pow", (lp_balanced, zero, basis, basis.blocks[1])),
        "aj": ("gz_sum", (aj_value, zero, basis, basis.blocks[1], eisenstein_roots(CTX7, 8))),
    }[evaluator]
    bounds = []
    with mock.patch.object(lvalue, name, _recording(getattr(lvalue, name), bounds)):
        got = _outcome(*args, (8, 8), 1)
    assert bounds == [top, 40]
    with mock.patch.object(lvalue, "_project_and_pair", project_and_pair_full):
        assert got == _outcome(*args, (8, 8), 1)
    assert '"zero":true' in got


@pytest.mark.parametrize("ctx", [CTX7, CTX11], ids=["p7", "p11"])
@pytest.mark.parametrize("index", range(4))
def test_basis_element_runs_at_top_then_at_full_bound(ctx, index):
    # a basis element wrapped in filtration 0 is in span at every row
    ring = ctx.ring
    basis = demo_basis(ring, 40)
    block = basis.blocks[1]
    top = canonical_rows(basis)[0][-1]
    gdep = hilbert_eisenstein(8, ctx, 40).deplete("all")
    weight = WeightCharacter.from_classical(PadicRing(ctx.p, N, 1), ctx.p - 1, (12,))
    form = basis.forms[index]
    bounds = []

    def build(h):
        bounds.append(h.bound)
        return wrap_fil0(form.truncated(h.bound), weight)

    runs = []
    for pair in (lvalue._project_and_pair, project_and_pair_full):
        budget, flags = PrecisionBudget(ring.N), []
        value, shift = pair(build, gdep, 12, basis, block, budget, flags)
        runs.append((value, shift, budget.losses, flags))
    assert bounds == [top, 40, 40]
    assert runs[0] == runs[1]
    # the coordinate of f_alpha = f - beta V f: alpha and 1 over alpha - beta
    # on the block's f and V f, zero on the other block
    coord = {block.f_index: block.alpha, block.vf_index: ring.one}.get(index)
    if coord is None:
        assert runs[0][0].is_zero()
    else:
        assert runs[0][0] == ScaledPadic(coord) / ScaledPadic(block.alpha - block.beta)
    assert not runs[0][3]


@pytest.mark.parametrize("ctx", [CTX7, CTX11], ids=["p7", "p11"])
def test_demo_ladders_read_only_up_to_the_last_canonical_row(ctx):
    # on the demo requests the first residual sits below the last canonical
    # row, so every d_ladder call of lvalue and aj sees keys of trace <= top
    basis = demo_basis(ctx.ring, 40)
    top = canonical_rows(basis)[0][-1]
    g = hilbert_eisenstein(8, ctx, 40)
    seen = []
    ladder = HilbertQExp.d_ladder

    def counting(self, *args, **kwargs):
        seen.append(max(key[1] for key in self.coeffs))
        return ladder(self, *args, **kwargs)

    rows = []

    def rows_counted(b):
        rows.append(b)
        return canonical_rows(b)

    # canonical_rows runs once per request: coordinates reads the rows taken
    # before the ladder
    with mock.patch.object(HilbertQExp, "d_ladder", counting), \
            mock.patch.object(lvalue, "canonical_rows", rows_counted), \
            mock.patch.object(heckeslope, "canonical_rows", rows_counted):
        lp_balanced(g, basis, basis.blocks[1], (8, 8), 1)
        aj_value(g, basis, basis.blocks[1], eisenstein_roots(ctx, 8), (8, 8), 1)
    assert len(seen) == 2 and max(seen) <= top
    assert len(rows) == 2
