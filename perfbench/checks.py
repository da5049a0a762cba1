"""Reference computations the benchmark checks padicgz's outputs against.

Everything here is computed on plain integers and fractions, without the
package's p-adic classes, so a fault in those classes cannot hide itself.
"""

from __future__ import annotations

from fractions import Fraction

# Ramanujan tau at the two demo primes: a_p of the discriminant form.
TAU = {7: -16744, 11: 534612}


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _digits_to_int(text: str, p: int) -> int:
    return sum(int(d) * p**i for i, d in enumerate(text.split(",")))


def parse_value(doc, p):
    """A report value (``scaled_to_dict``) as (exponent, coords, prec).

    The value is p^exponent * (coords[0] + coords[1] X) known modulo
    p^(exponent + prec); a zero value has coords (0,)."""
    if doc["zero"]:
        return doc["known_mod_p_power"], (0,), 0
    coords = tuple(_digits_to_int(m, p) for m in doc["mantissa"])
    return doc["p_power"], coords, doc["mantissa_precision"]


def value_agreement(x, y, p):
    """Valuation of the difference of two report values, capped at the
    absolute precision both of them claim."""
    e1, c1, prec1 = parse_value(x, p)
    e2, c2, prec2 = parse_value(y, p)
    cap = min(e1 + prec1, e2 + prec2)
    e = min(e1, e2)
    if cap <= e:
        return cap
    mod = p ** (cap - e)
    width = max(len(c1), len(c2))
    c1 = c1 + (0,) * (width - len(c1))
    c2 = c2 + (0,) * (width - len(c2))
    best = cap
    for a, b in zip(c1, c2):
        d = (a * p ** (e1 - e) - b * p ** (e2 - e)) % mod
        if d:
            best = min(best, e + vp(d, p))
    return best


def _unit_root(a: int, p: int, digits: int):
    """The root of X^2 - a X + p^11 of smaller valuation, as p^v * x with x
    an integer unit correct mod p^digits (x = a/p^v - p^(11-2v)/x)."""
    v = vp(a, p)
    mod = p**digits
    a1 = a // p**v
    x = a1 % mod
    for _ in range(digits):
        x = (a1 - p ** (11 - 2 * v) * pow(x, -1, mod)) % mod
    return v, x


def euler_reference(p, w, s, kind, digits=40):
    """E(f*), E_p and E_0p for the demo data: f* = Delta with Hecke
    polynomial X^2 - tau(p) X + p^11, and g the weight-w Eisenstein
    eigenform with roots (1, N(P)^(w-1)) at each prime P above p."""
    v, x = _unit_root(TAU[p], p, digits)
    alpha = Fraction(p**v * x)
    beta = Fraction(p**11) / alpha
    t = -s - 1
    pt = Fraction(p) ** t
    if kind == "inert":
        roots = [1, p ** (2 * (w - 1))]
        e_p = Fraction(1)
        for r in roots:
            e_p *= 1 - pt * r / alpha
        e_0p = None
    else:
        roots = [1, p ** (w - 1)]
        e_p = Fraction(1)
        for r1 in roots:
            for r2 in roots:
                e_p *= 1 - pt * r1 * r2 / alpha
        prod = roots[0] * roots[1] * roots[0] * roots[1]
        e_0p = 1 - pt * pt * prod / (alpha * alpha)
    return {"E_fstar": 1 - beta / alpha, "E_p": e_p, "E_0p": e_0p}


def fraction_matches(q: Fraction, doc, p) -> bool:
    """Whether a reported value equals the rational q to its claimed
    absolute precision."""
    if doc is None:
        return q is None
    e, coords, prec = parse_value(doc, p)
    known = e + prec if not doc["zero"] else e
    if q == 0:
        return doc["zero"] or known <= e
    vq = vp(q.numerator, p) - vp(q.denominator, p)
    if doc["zero"]:
        return vq >= known
    if vq != e:
        return False
    unit = q / Fraction(p) ** vq
    mod = p**prec
    ref = unit.numerator * pow(unit.denominator, -1, mod) % mod
    if len(coords) > 1 and coords[1] % mod:
        return False
    return coords[0] % mod == ref


def convolve(f_coeffs, g_coeffs, bound, modulus, nonresidue):
    """Schoolbook product of two Hilbert expansions on 'dinv' keys (trace
    = second coordinate).  Coefficients are (a, b) pairs meaning a + b X
    with X^2 = nonresidue (b = 0 and nonresidue None in degree 1)."""
    out = {}
    for (k1, (a1, b1)) in f_coeffs.items():
        for (k2, (a2, b2)) in g_coeffs.items():
            if k1[1] + k2[1] > bound:
                continue
            key = (k1[0] + k2[0], k1[1] + k2[1])
            a = a1 * a2
            b = 0
            if nonresidue is not None:
                a += b1 * b2 * nonresidue
                b = a1 * b2 + b1 * a2
            old = out.get(key, (0, 0))
            out[key] = (old[0] + a, old[1] + b)
    return {
        k: (a % modulus, b % modulus)
        for k, (a, b) in out.items()
        if a % modulus or b % modulus
    }


def diagonal(f_coeffs, modulus):
    """Diagonal restriction on 'dinv' keys: sum the coefficients of each
    trace."""
    out = {}
    for (_, n), (a, b) in f_coeffs.items():
        old = out.get(n, (0, 0))
        out[n] = (old[0] + a, old[1] + b)
    return {
        n: (a % modulus, b % modulus)
        for n, (a, b) in out.items()
        if a % modulus or b % modulus
    }
