"""Unit tests for the built-in form generators."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from padicgz.errors import BadPrime, ConfigError, NotEigenform, SingularCurve
from padicgz.formgen import (
    _eisenstein_self_check,
    delta_form,
    eisenstein_roots,
    elliptic_eisenstein,
    hilbert_eisenstein,
    pointcount_newform,
    random_depleted,
)
from padicgz import quadfield
from padicgz.padic import PadicRing
from padicgz.qexp import HilbertQExp, QExpContext
from padicgz.quadfield import SUPPORT_DINV, PrimeSplitting, make_field, tot_pos_enum
from padicgz.serialize import context_for

from helpers import eisenstein_by_key

R = PadicRing(7, 12)
L = make_field(5)
CTX7 = QExpContext(L, PrimeSplitting(L, 7, 12))
CTX11 = QExpContext(L, PrimeSplitting(L, 11, 12))


def _hash_elliptic(f):
    s = ";".join(str(f.coeff(n).lift()) for n in range(20))
    return hashlib.sha256(s.encode()).hexdigest()[:16]


def _hash_hilbert(f):
    keys = [k for k in tot_pos_enum(L, SUPPORT_DINV, 20)][:20]
    parts = []
    for k in keys:
        c = f.coeff(k)
        parts.append(f"{k[0]},{k[1]}:{c.a},{c.b}")
    return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]


def test_eisenstein_coefficients():
    E4 = elliptic_eisenstein(4, 25, R)
    assert E4.coeff(0) == R.one
    assert E4.coeff(1) == R.from_int(240)
    assert E4.coeff(2) == R.from_int(2160)
    # T_ell eigenvalue 1 + ell^(k-1) via the coefficient recurrence
    for ell in (2, 3):
        lam = R.from_int(1 + ell**3)
        for n in (1, 2, 3, 5):
            lhs = E4.coeff(ell * n)
            if n % ell == 0:
                lhs = lhs + R.from_int(ell**3) * E4.coeff(n // ell)
            assert lhs == lam * E4.coeff(n)


def test_eisenstein_bad_prime():
    # E_12 normalization has a 691 denominator: fine at 7, bad at 691
    elliptic_eisenstein(12, 10, R)
    with pytest.raises(BadPrime):
        elliptic_eisenstein(12, 10, PadicRing(691, 2))


def test_delta():
    D = delta_form(25, R)
    assert D.coeff(1) == R.one
    assert D.coeff(2) == R.from_int(-24)
    assert D.coeff(7) == R.from_int(-16744)
    assert D.coeff(7).valuation() == 1


def test_pointcount_newform():
    f = pointcount_newform((0, -1, 1, -10, -20), 25, R)
    assert f.coeff(2) == R.from_int(-2)
    assert f.coeff(3) == R.from_int(-1)
    assert f.coeff(4) == R.from_int(2)  # a_2^2 - 2
    assert f.coeff(11) == R.one
    with pytest.raises(SingularCurve):
        pointcount_newform((0, 0, 0, 0, 0), 10, R)
    with pytest.raises(ConfigError):
        pointcount_newform((0, 0, 0, 0, 1), 10, R)


def test_hilbert_eisenstein_values():
    E2 = hilbert_eisenstein(2, CTX11, 8)
    # a at phi/sqrt5: unit ideal only
    assert E2.coeff((0, 1)) == CTX11.ring.one
    assert E2.zeta_star().coeff(1) == CTX11.ring.from_int(2)


@given(st.data())
def test_hilbert_eisenstein_matches_the_per_key_oracle(data):
    # the field's divisor-norm table lives for the process, so across the
    # examples it grows in steps; within one, the bounds are asked in growing
    # and then shrinking order, and a smaller bound reads a prefix
    D = data.draw(st.sampled_from(sorted(quadfield._NARROW_ONE_TABLE)), label="D")
    p = data.draw(st.sampled_from([q for q in (3, 5, 7, 11, 13) if D % q]), label="p")
    k = data.draw(st.integers(2, 14), label="k")
    bounds = sorted(data.draw(st.lists(st.integers(0, 45), min_size=1, max_size=3)))
    ctx = context_for(D, p, data.draw(st.integers(1, 12), label="N"))
    want = eisenstein_by_key(k, ctx, bounds[-1])
    for B in bounds + bounds[::-1]:
        got = hilbert_eisenstein(k, ctx, B)
        assert (got.bound, got.weight_tag) == (B, (k, k))
        assert got.coeffs == {key: c for key, c in want.coeffs.items() if key[1] <= B}


def test_warm_eisenstein_build_factors_nothing(monkeypatch):
    calls = []
    factor = quadfield.ideal_divisors
    monkeypatch.setattr(quadfield, "_NORM_TABLES", {})
    monkeypatch.setattr(
        quadfield, "ideal_divisors", lambda L, key: calls.append(key) or factor(L, key)
    )
    hilbert_eisenstein(8, CTX7, 40)
    assert len(calls) == len(tot_pos_enum(L, SUPPORT_DINV, 40)) - 1
    calls.clear()
    for ctx in (CTX7, CTX11):
        for B in (40, 21, 0):
            hilbert_eisenstein(8, ctx, B)
            hilbert_eisenstein(5, ctx, B)
    assert calls == []
    hilbert_eisenstein(8, CTX11, 41)
    assert calls and {key[1] for key in calls} == {41}


def test_eisenstein_roots():
    # (1, N(P)^(k-1)) at each prime P above p: N(P) = 11 split, 7^2 inert
    r11, r7 = CTX11.ring, CTX7.ring
    big = r11.from_int(11**7)
    assert eisenstein_roots(CTX11, 8) == (r11.one, big, r11.one, big)
    assert eisenstein_roots(CTX7, 8) == (r7.one, r7.from_int(7**14))


def test_hilbert_eisenstein_odd_weight_stream():
    # odd k is accepted as a formal Hecke-eigen stream
    E3 = hilbert_eisenstein(3, CTX7, 10)
    assert not E3.is_zero()


def test_random_depleted():
    f = random_depleted(5, CTX11, 10)
    assert f.deplete() == f
    g = random_depleted(6, CTX11, 10)
    assert f != g
    assert all(v.valuation() == 0 for v in f.coeffs.values())


def test_golden_hashes():
    assert _hash_elliptic(elliptic_eisenstein(4, 25, R)) == "21a6f4169acf90aa"
    assert _hash_elliptic(elliptic_eisenstein(12, 25, R)) == "de1863bc61f5076d"
    assert _hash_elliptic(delta_form(25, R)) == "0607121ef21eb6c5"
    assert (
        _hash_elliptic(pointcount_newform((0, -1, 1, -10, -20), 25, R))
        == "88519f537d7b4337"
    )
    assert _hash_hilbert(hilbert_eisenstein(2, CTX7, 21)) == "96f0a80c2180661a"
    assert _hash_hilbert(hilbert_eisenstein(8, CTX11, 21)) == "de862407b38e8414"


@pytest.mark.parametrize("ctx", [CTX7, CTX11], ids=["inert7", "split11"])
@pytest.mark.parametrize("where", ["compared", "u_source"])
def test_eisenstein_self_check_rejects_a_corrupt_coefficient(ctx, where):
    # T_0 E = U E + c V E is compared with lam E on traces <= the T_0 bound;
    # corrupt E at a compared key beta, or at pi*beta, which U reads at beta
    k = 8
    E = hilbert_eisenstein(k, ctx, 40)
    top = E.t(1, k).bound
    beta = max((key for key in E.coeffs if key[1] <= top), key=lambda key: key[1])
    assert beta[1] == top
    key = beta
    if where == "u_source":
        key = ctx.field.mul(beta, ctx.sp.prime_generator(1))
        assert key[1] > top
    coeffs = dict(E.coeffs)
    coeffs[key] = coeffs.get(key, ctx.ring.zero) + ctx.ring.one
    bad = HilbertQExp(ctx, SUPPORT_DINV, E.bound, coeffs, E.weight_tag)
    _eisenstein_self_check(E, k)
    with pytest.raises(NotEigenform):
        _eisenstein_self_check(bad, k)
