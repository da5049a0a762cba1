"""Built-in, independently derivable test inputs.

Every generator is deterministic from its parameters; eigen self-checks
run at construction time and abort on mismatch.  The Hilbert Eisenstein
constant term defaults to 0: its true value is a zeta value that no
depleted pipeline ever sees, and the choice keeps the T_0-eigen relation
exact including the constant term.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import BadPrime, ConfigError, NotEigenform, SingularCurve
from .padic import PadicNum, PadicRing
from .qexp import EllipticQExp, HilbertQExp, QExpContext
from .quadfield import SUPPORT_DINV, factorize, ideal_divisors, tot_pos_enum


def _bernoulli(k: int) -> Fraction:
    B = [Fraction(1)]
    for m in range(1, k + 1):
        s = Fraction(0)
        for j in range(m):
            s += math.comb(m + 1, j) * B[j]
        B.append(-s / (m + 1))
    return B[k]


def _sigma(n: int, power: int) -> int:
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**power
            if d != n // d:
                total += (n // d) ** power
        d += 1
    return total


def fraction_to_padic(fr: Fraction, ring: PadicRing):
    if fr.denominator % ring.p == 0:
        raise BadPrime(f"p = {ring.p} divides the denominator {fr.denominator}")
    return ring.from_int(fr.numerator) * ring.from_int(fr.denominator).inv()


def elliptic_eisenstein(k: int, B: int, ring: PadicRing) -> EllipticQExp:
    """E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n, weight tag k."""
    if k < 4 or k % 2:
        raise ConfigError("elliptic Eisenstein needs even k >= 4")
    c = fraction_to_padic(Fraction(-2 * k, 1) / _bernoulli(k), ring)
    coeffs = {0: ring.one}
    for n in range(1, B + 1):
        coeffs[n] = c * _sigma(n, k - 1)
    return EllipticQExp(ring, B, coeffs, weight_tag=k)


def delta_form(B: int, ring: PadicRing) -> EllipticQExp:
    """The discriminant cusp form q prod (1-q^n)^24, expanded exactly: Jacobi's
    prod (1-q^n)^3 = sum (-1)^k (2k+1) q^(k(k+1)/2), squared three times."""
    poly = [0] * (B + 1)
    for k in range(math.isqrt(2 * B) + 1):
        if k * (k + 1) // 2 <= B:
            poly[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
    for _ in range(3):
        poly = [sum(poly[i] * poly[n - i] for i in range(n + 1)) for n in range(B + 1)]
    coeffs = {n + 1: ring.from_int(poly[n]) for n in range(B)}
    out = EllipticQExp(ring, B, coeffs, weight_tag=12)
    if B >= 7 and poly[6] != -16744:
        raise NotEigenform("discriminant expansion broken: a_7 != -16744")
    return out


_SUPPORTED_CURVES = {
    (0, -1, 1, -10, -20): {"conductor": 11, "bad_ap": {11: 1}},
}


def _curve_discriminant(a1, a2, a3, a4, a6) -> int:
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _count_points(ainvs, ell: int) -> int:
    a1, a2, a3, a4, a6 = (a % ell for a in ainvs)
    count = 1  # infinity
    if ell == 2:
        for x in range(2):
            for y in range(2):
                if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % 2 == 0:
                    count += 1
        return count
    for x in range(ell):
        rhs = (x**3 + a2 * x * x + a4 * x + a6) % ell
        lin = (a1 * x + a3) % ell
        disc = (lin * lin + 4 * rhs) % ell
        if disc == 0:
            count += 1
        elif pow(disc, (ell - 1) // 2, ell) == 1:
            count += 2
    return count


def pointcount_newform(ainvs, B: int, ring: PadicRing) -> EllipticQExp:
    """Weight-2 newform coefficients from point counts over F_ell."""
    ainvs = tuple(ainvs)
    if len(ainvs) != 5:
        raise ConfigError(f"a curve needs five a-invariants, got {len(ainvs)}")
    if _curve_discriminant(*ainvs) == 0:
        raise SingularCurve(f"curve {ainvs} is singular")
    if ainvs not in _SUPPORTED_CURVES:
        raise ConfigError(f"curve {ainvs} outside the supported conductor table")
    data = _SUPPORTED_CURVES[ainvs]
    a = {1: 1}
    for ell in range(2, B + 1):
        if factorize(ell) != [(ell, 1)]:
            continue
        if ell in data["bad_ap"]:
            ap = data["bad_ap"][ell]
            power, val = ell, ap
            while power <= B:
                a[power] = val
                power *= ell
                val *= ap
        else:
            ap = ell + 1 - _count_points(ainvs, ell)
            a[ell] = ap
            power = ell * ell
            while power <= B:
                a[power] = ap * a[power // ell] - ell * a[power // ell // ell]
                power *= ell
    for n in range(2, B + 1):
        if n in a:
            continue
        m = 1
        for ell, e in factorize(n):
            m *= a[ell**e]
        a[n] = m
    return EllipticQExp(
        ring, B, {n: ring.from_int(a[n]) for n in a if n <= B}, weight_tag=2
    )


def hilbert_eisenstein(k: int, ctx: QExpContext, B: int) -> HilbertQExp:
    """Parallel-weight Eisenstein stream a_beta = sum over ideal divisors
    of (beta)*different of N^(k-1); constant term 0.

    For even k this is the q-expansion of the classical Eisenstein series
    with trivial character.  Odd k >= 2 is accepted and produces the same
    formal divisor-sum stream, which is still a T_0-eigen stream and
    serves as an identity-check input (unit-character consistency only
    holds for even k).
    """
    if k < 2:
        raise ConfigError("hilbert Eisenstein needs k >= 2")
    ring = ctx.ring
    powers = {}  # norm -> norm^(k-1) mod p^N
    coeffs = {}
    for key in tot_pos_enum(ctx.field, SUPPORT_DINV, B):
        if key == (0, 0):
            continue
        total = 0
        for _, norm in ideal_divisors(ctx.field, key):
            if norm not in powers:
                powers[norm] = pow(norm, k - 1, ring.modulus)
            total += powers[norm]
        coeffs[key] = PadicNum(ring, total % ring.modulus)
    out = HilbertQExp(ctx, SUPPORT_DINV, B, coeffs, weight_tag=(k, k))
    _eisenstein_self_check(out, k)
    return out


def parallel_weight(ell) -> int:
    """The weight w of ell = (w, w); ConfigError for a non-parallel ell, which
    the built-in parallel-weight Eisenstein family does not reach."""
    if ell[0] != ell[1]:
        raise ConfigError("the built-in eigenform family is parallel-weight")
    return ell[0]


def eisenstein_roots(ctx: QExpContext, k: int) -> tuple:
    """Hecke roots (1, N(P)^(k-1)) of the weight-k Eisenstein series at each
    prime P above p: (alpha, beta) inert, (alpha1, beta1, alpha2, beta2)
    split."""
    ring = ctx.ring
    pair = (ring.one, ring.from_int(ctx.sp.prime_norm ** (k - 1)))
    return pair * len(ctx.primes_above_p())


def _eisenstein_self_check(E: HilbertQExp, k: int):
    """Verify T_0 E = (alpha + beta) E at the first prime pi over p at build
    time, where T_0 = U_0 + beta V_0 and beta = N(pi)^(k-1).

    The keys compared are those of trace at most the bound of T_0 E, the
    lesser of the U_0 and V_0 bounds: the key 0 and the totally positive
    keys (`tot_pos_enum`).  At each such key x only E at pi*x, x and x/pi
    is read.
    """
    ctx, fld = E.ctx, E.ctx.field
    alpha, beta = eisenstein_roots(ctx, k)[:2]
    lam = alpha + beta
    gen = ctx.sp.prime_generator(1)
    # the bounds of E.u(1) and E.v(1)
    bound = min(
        E.bound // fld.ceil_sigma_max(gen), fld.floor_scaled_sigma_min(gen, E.bound)
    )
    for key in tot_pos_enum(fld, SUPPORT_DINV, bound) if bound >= 0 else ():
        te = E.coeff(fld.mul(key, gen))
        below = fld.divide_exact(key, gen)
        if below is not None:
            te = te + beta * E.coeff(below)
        if te != lam * E.coeff(key):
            raise NotEigenform(f"Eisenstein eigen self-check failed at {key}")


def random_depleted(seed: int, ctx: QExpContext, B: int):
    """Pseudorandom unit coefficients on the p-coprime indices only."""
    rng = random.Random(seed)
    ring = ctx.ring
    coeffs = {}
    keys = tot_pos_enum(ctx.field, SUPPORT_DINV, B)
    for key in ctx.sp.coprime_keys(keys, ctx.primes_above_p()):  # drops key 0
        a = rng.randrange(ring.modulus)
        if a % ring.p == 0:
            a += 1  # force a unit first coordinate
        b = rng.randrange(ring.modulus) if ring.degree == 2 else 0
        coeffs[key] = ring.make(a, b)
    return HilbertQExp(ctx, SUPPORT_DINV, B, coeffs)


def random_form(seed: int, ctx: QExpContext, B: int):
    """Pseudorandom coefficients on the full index set (constant included)."""
    rng = random.Random(seed)
    ring = ctx.ring
    coeffs = {}
    for key in tot_pos_enum(ctx.field, SUPPORT_DINV, B):
        a = rng.randrange(ring.modulus)
        b = rng.randrange(ring.modulus) if ring.degree == 2 else 0
        coeffs[key] = ring.make(a, b)
    return HilbertQExp(ctx, SUPPORT_DINV, B, coeffs)


def demo_basis(ring: PadicRing, B: int):
    """The shipped weight-12 classical basis {E12, V E12, Delta, V Delta}
    with its eigen data; U-stability is certified at runtime, not trusted."""
    from .heckeslope import ClassicalBasis, EigenBlock

    p = ring.p
    if B < 2 * p:
        raise ConfigError(f"demo basis needs bound >= 2p = {2 * p}")
    E = elliptic_eisenstein(12, B, ring)
    D = delta_form(B, ring)
    forms = [E, E.v().truncated(B), D, D.v().truncated(B)]
    blocks = [
        EigenBlock(0, 1, a_p=ring.from_int(1 + p**11), nebentype=ring.one),
        EigenBlock(2, 3, a_p=D.coeff(p), nebentype=ring.one),
    ]
    return ClassicalBasis(ring, 12, 1, forms, blocks)
