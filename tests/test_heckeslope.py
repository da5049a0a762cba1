"""Unit tests for U-matrices, slope decomposition, and the isotypic pairing."""

import random

import pytest

from padicgz.errors import EqualSlopes, NotInSpan, NotUStable
from padicgz.formgen import delta_form, demo_basis, elliptic_eisenstein, random_elliptic
from padicgz.heckeslope import (
    canonical_rows,
    coordinates,
    eigen_pair,
    hecke_roots,
    mat_mul,
    ordinary_limit,
    projector_matrix,
    pstabilize,
    slope_project,
    u_matrix,
)
from padicgz.padic import PadicRing, ScaledPadic
from padicgz.qexp import EllipticQExp, agreement_valuation

R = PadicRing(7, 12)
B = 98


def test_hecke_roots_delta():
    D = delta_form(B, R)
    alpha, beta, slopes = hecke_roots(D.coeff(7), 12, 1, R)
    assert slopes == (1, 10)
    assert alpha + beta == D.coeff(7)
    assert alpha * beta == R.from_int(7**11)
    assert alpha.valuation() == 1 and beta.valuation() == 10


def test_hecke_roots_eisenstein_exact():
    alpha, beta, slopes = hecke_roots(R.from_int(1 + 7**11), 12, 1, R)
    assert slopes == (0, 11)
    assert alpha == R.one and beta == R.from_int(7**11)


def test_hecke_roots_equal_slopes():
    with pytest.raises(EqualSlopes):
        hecke_roots(R.zero, 2, 1, R)


def test_u_matrix_block_form():
    basis = demo_basis(R, B)
    M = u_matrix(basis)
    assert basis.U_stable
    ap_E = R.from_int(1 + 7**11)
    ap_D = delta_form(B, R).coeff(7)
    c = R.from_int(7**11)
    assert M[0][0] == ap_E and M[1][0] == -c and M[0][1] == R.one
    assert M[2][2] == ap_D and M[3][2] == -c and M[2][3] == R.one
    assert M[1][1].is_zero() and M[3][3].is_zero()


def test_u_matrix_detects_corruption():
    basis = demo_basis(R, B)
    bad = random_elliptic(5, R, B)
    basis.forms[1] = bad  # no longer V E12
    with pytest.raises(NotUStable):
        u_matrix(basis)


def test_canonical_rows():
    basis = demo_basis(R, B)
    idx, rows, det = canonical_rows(basis)
    assert idx == [0, 1, 2, 7]
    # E12 == V E12 mod 7 forces determinant valuation 1 at p = 7
    assert det.valuation() == 1
    basis11 = demo_basis(PadicRing(11, 12), 98)
    _, _, det11 = canonical_rows(basis11)
    assert det11.valuation() == 0


def test_pstabilize_u_eigen():
    D = delta_form(B, R)
    alpha, beta, _ = hecke_roots(D.coeff(7), 12, 1, R)
    fa = pstabilize(D, D.coeff(7), 12, 1, "alpha")
    lhs = fa.u()
    rhs = fa.scale(alpha).truncated(lhs.bound)
    assert agreement_valuation(lhs, rhs, lhs.bound) == R.N


def test_stabilize_then_deplete_is_deplete():
    D = delta_form(B, R)
    ap = D.coeff(7)
    fa = pstabilize(D, ap, 12, 1, "alpha")
    lhs = fa - fa.u().v()
    rhs = D.deplete()
    b = min(lhs.bound, rhs.bound)
    assert agreement_valuation(lhs, rhs, b) == R.N
    # and f^[p] = f - a_p V f + c V^2 f  (expand (1-aV)(1-bV)f)
    expanded = D - D.v().scale(ap) + D.v().v().scale(R.from_int(7**11))
    b = min(expanded.bound, rhs.bound)
    assert agreement_valuation(expanded, rhs, b) == R.N


def test_coordinates_and_eigen_pair():
    basis = demo_basis(R, B)
    D, E = basis.forms[2], basis.forms[0]
    block = basis.blocks[1]
    fa = pstabilize(delta_form(B, R), block.a_p, 12, 1, "alpha").truncated(B)
    # gamma = 3 * fstar + 5 * E
    gamma = fa.scale(R.from_int(3)) + E.scale(R.from_int(5))
    val, budget, in_span = eigen_pair(gamma, basis, block)
    assert in_span
    assert val == ScaledPadic(R.from_int(3))
    val2, _, _ = eigen_pair(fa, basis, block)
    assert val2 == ScaledPadic(R.one)
    # linearity
    g2 = fa.scale(R.from_int(4))
    vsum, _, _ = eigen_pair(gamma + g2, basis, block)
    assert vsum == ScaledPadic(R.from_int(7))


def test_eigen_pair_v_shift_constant():
    # the empirical V-shift constant of the pairing functional:
    # eigen_pair(V Delta) = 1/(alpha - beta), which agrees with the
    # spectral value 1/alpha to the slope gap
    basis = demo_basis(R, B)
    block = basis.blocks[1]
    vd = basis.forms[3]
    val, _, _ = eigen_pair(vd, basis, block)
    expect = ScaledPadic(block.alpha - block.beta).inv()
    assert val == expect
    spectral = ScaledPadic(block.alpha).inv()
    diff = val - spectral
    assert diff.is_zero() or diff.valuation() >= 9 - 1  # slope gap 10 - 1
    # V f_alpha leaves the span visibly (the V^2 Delta tail)
    fa = pstabilize(delta_form(B, R), block.a_p, 12, 1, "alpha").truncated(B)
    with pytest.raises(NotInSpan):
        eigen_pair(fa.v().truncated(B), basis, block)
    val2, _, in_span = eigen_pair(
        fa.v().truncated(B), basis, block, on_residual="flag"
    )
    assert not in_span and val2 == expect


def test_slope_project_fixes_eigenvectors():
    basis = demo_basis(R, B)
    block = basis.blocks[1]
    fa = pstabilize(delta_form(B, R), block.a_p, 12, 1, "alpha").truncated(B)
    proj = slope_project(fa, basis, 1)
    assert proj.in_span and proj.shift == 0
    assert agreement_valuation(proj.form, fa, B) >= R.N - proj.budget.total_loss
    # the complement dies: beta-stabilization has slope 10 > 1
    fb = pstabilize(delta_form(B, R), block.a_p, 12, 1, "beta").truncated(B)
    proj2 = slope_project(fb, basis, 1)
    zero = EllipticQExp(R, B)
    assert agreement_valuation(proj2.form, zero, B) >= R.N - proj2.budget.total_loss


def test_slope_project_idempotent():
    basis = demo_basis(R, B)
    rng = random.Random(31)
    for _ in range(3):
        cs = [R.from_int(rng.randrange(7**12)) for _ in range(4)]
        gamma = None
        for c, f in zip(cs, basis.forms):
            t = f.scale(c)
            gamma = t if gamma is None else gamma + t
        p1 = slope_project(gamma, basis, 1)
        p2 = slope_project(p1.form.truncated(B), basis, 1)
        assert p2.shift == 0
        b = min(p1.form.bound, p2.form.bound, B)
        assert (
            agreement_valuation(p1.form, p2.form, b)
            >= R.N - p1.budget.total_loss - p2.budget.total_loss
        )


def test_not_in_span():
    basis = demo_basis(R, B)
    junk = random_elliptic(7, R, B)
    with pytest.raises(NotInSpan):
        coordinates(basis, junk)
    coords, _, in_span = coordinates(basis, junk, on_residual="flag")
    assert not in_span


def test_ordinary_projector_two_routes():
    basis = demo_basis(R, B)
    P = projector_matrix(basis, 0)
    # idempotence
    P2 = mat_mul(P, P, R)
    assert all((P[i][j] - P2[i][j]).is_zero() for i in range(4) for j in range(4))
    # U-equivariance
    M = u_matrix(basis)
    MP = mat_mul(M, P, R)
    PM = mat_mul(P, M, R)
    assert all((MP[i][j] - PM[i][j]).is_zero() for i in range(4) for j in range(4))
    # limit route: U^(6!) agrees mod p^10
    Q = ordinary_limit(basis, 6)
    for i in range(4):
        for j in range(4):
            assert (P[i][j] - Q[i][j]).valuation() >= 10


def test_newton_slope_balance():
    # slopes sum to k - 1 + v(nebentype)
    D = delta_form(B, R)
    _, _, slopes = hecke_roots(D.coeff(7), 12, 1, R)
    assert slopes[0] + slopes[1] == 11


def test_u_matrix_single_block():
    ring = PadicRing(7, 10)
    from padicgz.heckeslope import ClassicalBasis, EigenBlock

    D = delta_form(98, ring)
    fa = pstabilize(D, D.coeff(7), 12, 1, "alpha").truncated(98)
    alpha, _, _ = hecke_roots(D.coeff(7), 12, 1, ring)
    # a 2x2 block is the smallest self-contained U-stable unit; a single
    # U-eigenform still fits by pairing it with its (redundant) V-image
    basis = ClassicalBasis(
        ring, 12, 1, [D, D.v().truncated(98)],
        [EigenBlock(0, 1, D.coeff(7), ring.one)],
    )
    M = u_matrix(basis)
    assert M[0][0] == D.coeff(7)


def test_slope_decomposition_type():
    from padicgz.heckeslope import slope_decomposition

    basis = demo_basis(R, B)
    dec = slope_decomposition(basis, 0)
    assert dec.projector is not None and dec.matrix[0][1] == R.one
    assert dec.slope_bound == 0 and len(dec.blocks) == 2
    # a = 1 needs the Delta block whose separation is non-integral at p = 7
    dec1 = slope_decomposition(basis, 1)
    assert dec1.projector is None
