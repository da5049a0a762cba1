"""Exact arithmetic in Z/p^N approximations of Z_p and its unramified
quadratic extension.

Elements are stored on the basis {1, X} where X^2 equals a Teichmueller
lift of the smallest quadratic non-residue mod p.  With that choice the
ring Frobenius is the coordinate map (a, b) -> (a, -b), and X generates
the residue-field extension with X^(p^2-1) = 1.

All operations are exact modulo p^N.  The log and exp series (`plog`,
`pexp`) are evaluated with internal guard digits so the returned
truncation is correct to the full working precision.  p-adic powers
(`ppow`) are one modular power to the integer exponent `char_exponent`
and use neither series.  Integer powers run on int pairs (`pair_pow`, the
small-exponent path and the oracle of `series_power`, the 1-unit binomial
series for large powers of degree-2 units) and build one element at the
end; `batch_inverse` inverts many ints with one modular inverse.  Every
valuation is one builtin gcd with p^N (`PadicRing.valuation_of`):
gcd(p^N, x_1, ..., x_n) = p^min(v(x_i), N), read back in a table of the
powers p^k, k <= N.  `teichmuller`, `plog` and `pexp` stay as the
series definition that the tests check `ppow` against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    ConfigError,
    ConvergenceDomain,
    NonResidue,
    NonUnitInverse,
    PrecisionExhausted,
)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue mod an odd prime p."""
    for c in range(2, p):
        if pow(c, (p - 1) // 2, p) == p - 1:
            return c
    raise ConfigError(f"no non-residue mod {p}; p must be an odd prime")


class PadicRing:
    """Context object: fixed (p, N, degree) with degree in {1, 2}."""

    def __init__(self, p: int, N: int, degree: int = 1):
        if not _is_prime(p):
            raise ConfigError(f"p = {p} is not prime")
        if N < 1:
            raise ConfigError(f"precision exponent N = {N} must be >= 1")
        if degree not in (1, 2):
            raise ConfigError(f"degree f = {degree} must be 1 or 2")
        if degree == 2 and p == 2:
            raise ConfigError("degree-2 extension is only built for odd p")
        self.p = p
        self.N = N
        self.degree = degree
        self.modulus = p**N
        self._vals = {p**k: k for k in range(N + 1)}
        if degree == 2:
            c = smallest_nonresidue(p)
            # Teichmueller-adjust so that X = sqrt(c) satisfies X^(p^2-1) = 1.
            self.nonresidue = pow(c, p ** (N - 1), self.modulus)
        else:
            self.nonresidue = None

    def __repr__(self):
        return f"PadicRing(p={self.p}, N={self.N}, f={self.degree})"

    def __eq__(self, other):
        return other is self or (
            isinstance(other, PadicRing)
            and (self.p, self.N, self.degree) == (other.p, other.N, other.degree)
        )

    def __hash__(self):
        return hash((self.p, self.N, self.degree))

    def valuation_of(self, *xs: int) -> int:
        """The least valuation of the ints xs, capped at N (N when every
        one is 0), from one gcd with p^N."""
        return self._vals[math.gcd(self.modulus, *xs)]

    # -- construction ------------------------------------------------

    def make(self, a: int, b: int = 0) -> "PadicNum":
        if self.degree == 1 and b != 0:
            raise ConfigError("degree-1 ring has a single coordinate")
        return PadicNum(self, a % self.modulus, b % self.modulus)

    def from_int(self, a: int) -> "PadicNum":
        return self.make(a)

    @property
    def zero(self) -> "PadicNum":
        return self.make(0)

    @property
    def one(self) -> "PadicNum":
        return self.make(1)

    def embed(self, x: "PadicNum") -> "PadicNum":
        """Embed a degree-1 element diagonally, or pass through."""
        if x.ring == self:
            return x
        if x.ring.p != self.p or x.ring.N < self.N:
            raise ConfigError("cannot embed across primes or into higher precision")
        if x.ring.degree != 1:
            raise ConfigError("only degree-1 elements embed diagonally")
        return self.make(x.a % self.modulus)

    def residue_order(self) -> int:
        """Order of the residue field's unit group, p^f - 1."""
        return self.p**self.degree - 1


class PadicNum:
    """Element of Z/p^N (degree 1) or its unramified quadratic extension.

    Immutable; all arithmetic returns fresh elements.
    """

    __slots__ = ("ring", "a", "b")

    def __init__(self, ring: PadicRing, a: int, b: int = 0):
        self.ring = ring
        self.a = a
        self.b = b

    # -- basics -------------------------------------------------------

    def _check(self, other: "PadicNum"):
        if not isinstance(other, PadicNum) or other.ring != self.ring:
            raise ConfigError("mixed p-adic rings in arithmetic")

    def __eq__(self, other):
        return (
            isinstance(other, PadicNum)
            and self.ring == other.ring
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.ring, self.a, self.b))

    def __repr__(self):
        if self.ring.degree == 1:
            return f"PadicNum({self.a} mod {self.ring.p}^{self.ring.N})"
        return f"PadicNum({self.a} + {self.b}*X mod {self.ring.p}^{self.ring.N})"

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def valuation(self) -> int:
        """min coordinate valuation, capped at N (N is the zero sentinel)."""
        return self.ring.valuation_of(self.a, self.b)

    def is_unit(self) -> bool:
        return self.a % self.ring.p != 0 or self.b % self.ring.p != 0

    def lift(self) -> int:
        """Canonical integer representative in [0, p^N); degree 1 only."""
        if self.ring.degree != 1:
            raise ConfigError("lift() is only defined on the degree-1 ring")
        return self.a

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        self._check(other)
        m = self.ring.modulus
        return PadicNum(self.ring, (self.a + other.a) % m, (self.b + other.b) % m)

    def __sub__(self, other):
        self._check(other)
        m = self.ring.modulus
        return PadicNum(self.ring, (self.a - other.a) % m, (self.b - other.b) % m)

    def __neg__(self):
        m = self.ring.modulus
        return PadicNum(self.ring, (-self.a) % m, (-self.b) % m)

    def __mul__(self, other):
        if isinstance(other, int):
            m = self.ring.modulus
            return PadicNum(self.ring, self.a * other % m, self.b * other % m)
        self._check(other)
        m = self.ring.modulus
        if self.ring.degree == 1:
            return PadicNum(self.ring, self.a * other.a % m)
        c = self.ring.nonresidue
        a = (self.a * other.a + self.b * other.b % m * c) % m
        b = (self.a * other.b + self.b * other.a) % m
        return PadicNum(self.ring, a, b)

    __rmul__ = __mul__

    def inv(self) -> "PadicNum":
        if not self.is_unit():
            raise NonUnitInverse(f"cannot invert {self!r}: valuation > 0")
        m = self.ring.modulus
        if self.ring.degree == 1:
            return PadicNum(self.ring, pow(self.a, -1, m))
        # conjugate over norm; the norm of a unit is a unit
        n = (self.a * self.a - self.b * self.b % m * self.ring.nonresidue) % m
        ninv = pow(n, -1, m)
        return PadicNum(self.ring, self.a * ninv % m, (-self.b) * ninv % m)

    def __pow__(self, e: int) -> "PadicNum":
        return PadicNum(self.ring, *pair_pow(self.ring, self.a, self.b, e))

    def truncate(self, ring: PadicRing) -> "PadicNum":
        """Reduce to a ring of the same (p, f) at precision <= N."""
        if ring.p != self.ring.p or ring.degree != self.ring.degree:
            raise ConfigError("truncation must preserve (p, f)")
        if ring.N > self.ring.N:
            raise ConfigError("cannot truncate upward in precision")
        return ring.make(self.a, self.b)

    def divide_exact_ppow(self, v: int) -> "PadicNum":
        """Exact division by p^v; raises unless every coordinate is divisible.

        The quotient is correct modulo p^(N-v) only; callers must account
        for that in their precision budget.
        """
        if v == 0:
            return self
        pv = self.ring.p**v
        if self.a % pv or self.b % pv:
            raise NonUnitInverse(f"{self!r} is not divisible by p^{v}")
        return PadicNum(self.ring, self.a // pv, self.b // pv)


def pair_pow(ring: PadicRing, a: int, b: int, e: int, ca: int = 1, cb: int = 0):
    """(ca + cb*X) * (a + b*X)^e on reduced coordinates, as a pair of ints.

    With b = 0 (always on the degree-1 ring) this is one builtin modular
    power; otherwise square-and-multiply on int pairs with X^2 equal to
    `ring.nonresidue`, a negative e first inverting through the norm.
    Raises NonUnitInverse for a negative power of a non-unit.
    """
    m, p = ring.modulus, ring.p
    if e < 0 and a % p == 0 and b % p == 0:
        raise NonUnitInverse(f"negative power {e} of a non-unit")
    if not b:
        x = pow(a, e, m)
        return ca * x % m, cb * x % m
    c = ring.nonresidue
    if e < 0:
        ninv = pow((a * a - b * b % m * c) % m, -1, m)
        a, b, e = a * ninv % m, -b * ninv % m, -e
    while True:
        if e & 1:
            ca, cb = (ca * a + cb * b % m * c) % m, (ca * b + cb * a) % m
        e >>= 1
        if not e:
            return ca, cb
        a, b = (a * a + b * b % m * c) % m, 2 * a * b % m


def series_pays(ring: PadicRing, e: int) -> bool:
    """Whether series_power(ring, e) needs fewer pair products than pair_pow
    at e >= 0 on the degree-2 ring: with o = p^2 - 1 and e = r + o q, the
    squares and multiplies of o's chain, a multiply per set bit of r, a
    Horner step per binomial but the first and one product to join them."""
    o = ring.residue_order()
    q, r = divmod(e, o)
    series = o.bit_length() + o.bit_count() + r.bit_count() + min(q, ring.N - 1)
    return ring.degree == 2 and series < e.bit_length() - 1 + e.bit_count()


def series_power(ring: PadicRing, e: int):
    """The map (a, b, ca, cb) -> pair_pow(ring, a, b, e, ca, cb) on units
    a + b*X of the degree-2 ring, e >= 0.  With o = p^2 - 1, e = r + o q and
    w = x^o - 1 = 0 mod p on a unit, x^e = x^r sum_{j < N} binom(q, j) w^j
    exactly mod p^N: x^r and x^o off one chain of squares, then Horner."""
    m, c, o = ring.modulus, ring.nonresidue, ring.residue_order()
    q, r = divmod(e, o)
    top, *rest = [math.comb(q, j) % m for j in range(min(q, ring.N - 1), -1, -1)]

    def power(a, b, ca=1, cb=0):
        wa, wb, k, s = 1, 0, o, r
        while True:
            if s & 1:
                ca, cb = (ca * a + cb * b % m * c) % m, (ca * b + cb * a) % m
            if k & 1:
                wa, wb = (wa * a + wb * b % m * c) % m, (wa * b + wb * a) % m
            k, s = k >> 1, s >> 1
            if not k:
                break
            a, b = (a * a + b * b % m * c) % m, 2 * a * b % m
        wa, ha, hb = wa - 1, top, 0
        for cj in rest:
            ha, hb = (ha * wa + hb * wb % m * c + cj) % m, (ha * wb + hb * wa) % m
        return (ca * ha + cb * hb % m * c) % m, (ca * hb + cb * ha) % m

    return power


def batch_inverse(values, m: int) -> list:
    """The inverses mod m of the ints values, by Montgomery's trick: one
    builtin modular inverse of their product and three products per value.

    Raises NonUnitInverse when some value is not invertible mod m.
    """
    prefix, acc = [], 1
    for x in values:
        prefix.append(acc)
        acc = acc * x % m
    try:
        inv = pow(acc, -1, m)
    except ValueError:
        raise NonUnitInverse("batch inverse of a non-unit") from None
    out = [0] * len(prefix)
    for i in range(len(prefix) - 1, -1, -1):
        out[i] = inv * prefix[i] % m
        inv = inv * values[i] % m
    return out


def teichmuller(x: PadicNum) -> PadicNum:
    """The Teichmueller representative: omega == x mod p, omega^(p^f-1) = 1."""
    if not x.is_unit():
        raise NonUnitInverse("Teichmueller lift requires a unit")
    q = x.ring.p**x.ring.degree
    y = x
    for _ in range(x.ring.N):
        y = y**q
    return y


def _int_div_exact(x: PadicNum, n: int) -> PadicNum:
    """x / n for a positive integer n, exact on the p-part of n.

    Requires v_p(x) >= v_p(n) and v_p(n) < N; the guard digits of the
    series evaluation, its only caller, ensure both.  The result is correct
    mod p^(N - v_p(n)).
    """
    ring = x.ring
    v = ring.valuation_of(n)
    y = x * ring.from_int(pow(n // ring.p**v, -1, ring.modulus))
    return y.divide_exact_ppow(v)


def _guard_ring(ring: PadicRing, guard: int) -> PadicRing:
    return PadicRing(ring.p, ring.N + guard, ring.degree)


def plog(x: PadicNum) -> PadicNum:
    """p-adic logarithm of a 1-unit (x == 1 mod p; mod 4 if p = 2)."""
    ring = x.ring
    p, N = ring.p, ring.N
    one = ring.one
    z = x - one
    if z.is_zero():
        return ring.zero
    minval = 2 if p == 2 else 1
    if z.valuation() < minval:
        raise ConvergenceDomain(f"log requires x == 1 mod p^{minval}")
    # terms z^n/n vanish mod p^N once n - log_p(n) >= N
    nmax = N + 1
    while nmax - int(math.log(nmax, p)) < N + 1:
        nmax += 1
    guard = int(math.log(nmax, p)) + 2
    R = _guard_ring(ring, guard)
    zg = R.make(z.a, z.b)
    acc = R.zero
    power = R.one
    for n in range(1, nmax + 1):
        power = power * zg
        term = _int_div_exact(power, n)
        if n % 2 == 0:
            acc = acc - term
        else:
            acc = acc + term
    return acc.truncate(ring)


def pexp(x: PadicNum) -> PadicNum:
    """p-adic exponential; requires v(x) >= 1 (>= 2 if p = 2)."""
    ring = x.ring
    p, N = ring.p, ring.N
    minval = 2 if p == 2 else 1
    if not x.is_zero() and x.valuation() < minval:
        raise ConvergenceDomain(f"exp requires valuation >= {minval}")
    if x.is_zero():
        return ring.one

    def fact_val(n: int) -> int:
        v, q = 0, p
        while q <= n:
            v += n // q
            q *= p
        return v

    # v(x^n/n!) >= n*minval - (n-1)//(p-1), a bound that never decreases
    # in n (v_p(n!) itself jumps at powers of p), so every omitted term
    # vanishes mod p^N
    nmax = 1
    while nmax * minval - (nmax - 1) // (p - 1) < N + 1:
        nmax += 1
    guard = fact_val(nmax) + 2
    R = _guard_ring(ring, guard)
    xg = R.make(x.a, x.b)
    acc = R.one
    power = R.one
    factorial = 1
    for n in range(1, nmax + 1):
        power = power * xg
        factorial *= n
        acc = acc + _int_div_exact(power, factorial)
    return acc.truncate(ring)


def char_exponent(ring: PadicRing, u, chi: int) -> int:
    """The integer E >= 0 with t^E = t^k for every unit t of ring, where k
    is the character with finite part chi and analytic exponent u.

    E is the CRT lift of E == chi mod p^f - 1 and E == u mod p^(N-1).
    That is exact: the 1-units mod p^N have exponent dividing p^(N-1),
    which is prime to p^f - 1, the order of the Teichmueller part.  u may
    be an int or a degree-1 PadicNum (ConfigError if it comes from another
    prime or a lower precision).  At p = 2 the character must have chi
    even and u in 4Z_2; elsewhere ConvergenceDomain.
    """
    uval = u if isinstance(u, int) else u.lift()
    if ring.p == 2 and (chi % 2 != 0 or uval % 4 != 0):
        raise ConvergenceDomain("p = 2 requires chi even and u in 4Z_2")
    if not isinstance(u, int):
        ring.embed(u)  # ConfigError for u from another prime or lower precision
    order, pk = ring.residue_order(), ring.p ** (ring.N - 1)
    c = chi % order
    return c + order * ((uval - c) * pow(order, -1, pk) % pk)


def ppow(t: PadicNum, u, chi: int) -> PadicNum:
    """t^k for the character k with finite part chi and analytic exponent u.

    Equal to omega(t)^chi * exp(u * log(t / omega(t))), computed as one
    power t^E with E = char_exponent(t.ring, u, chi).  For an integer u
    with chi == u mod p^f - 1 this is t^u.

    At p = 2 only the corner with chi even, u in 4Z_2 and t == 1 mod 4 is
    defined (there log converges on t itself); elsewhere ConvergenceDomain.
    """
    if not t.is_unit():
        raise NonUnitInverse("ppow requires a unit base")
    e = char_exponent(t.ring, u, chi)
    if t.ring.p == 2 and t.a % 4 == 3:
        raise ConvergenceDomain("p = 2 requires t == 1 mod 4")
    return t**e


def pbinom(u, j: int, ring: PadicRing = None) -> PadicNum:
    """Interpolated binomial coefficient binom(u, j) as a p-adic integer.

    u may be an int (used exactly, sign included) or a degree-1 PadicNum
    (its canonical representative is used; the result is then correct
    mod p^(N - v_p(j!)), exact whenever j < p).
    """
    if isinstance(u, PadicNum):
        if ring is None:
            ring = u.ring
        r = u.lift()
    else:
        if ring is None:
            raise ConfigError("pbinom with integer u needs an explicit ring")
        r = u
    if j < 0:
        raise ConfigError("pbinom needs j >= 0")
    num = 1
    for i in range(j):
        num *= r - i
    val = num // math.factorial(j)  # falling factorials are divisible by j!
    return ring.from_int(val)


def hensel_sqrt(a: int, p: int, N: int) -> PadicNum:
    """Square root of a unit square a in Z/p^N, p odd.

    Returns the root whose residue mod p lies in [1, (p-1)/2]; the other
    root is its negative.
    """
    if p == 2:
        raise ConfigError("hensel_sqrt requires p odd")
    ring = PadicRing(p, N)
    a0 = a % p
    if a0 == 0:
        raise NonResidue("hensel_sqrt requires a unit argument")
    if pow(a0, (p - 1) // 2, p) != 1:
        raise NonResidue(f"{a} is not a quadratic residue mod {p}")
    r = _tonelli_shanks(a0, p)
    # Newton lifting x <- (x + a/x)/2 doubles the precision each step
    inv2 = pow(2, -1, p**N)
    prec = 1
    x = r
    m = p**N
    while prec < N:
        x = (x + a % m * pow(x, -1, m)) * inv2 % m
        prec *= 2
    if x % p > (p - 1) // 2:
        x = m - x
    return ring.make(x)


def _tonelli_shanks(n: int, p: int) -> int:
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = smallest_nonresidue(p)
    c = pow(z, q, p)
    x = pow(n, (q + 1) // 2, p)
    t = pow(n, q, p)
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        t = t * b % p * b % p
        c = b * b % p
        m = i
    return x


class ScaledPadic:
    """A p-adic number carried as (mantissa, exponent): value = mantissa * p^e.

    The exponent may be negative, which keeps all arithmetic in the
    integral ring with explicit bookkeeping.  `prec` is the number of
    digits to which the mantissa is claimed correct (absolute precision
    of the value = exponent + prec).
    """

    __slots__ = ("mantissa", "exponent", "prec")

    def __init__(self, mantissa: PadicNum, exponent: int = 0, prec: int = None):
        self.mantissa = mantissa
        self.exponent = exponent
        self.prec = mantissa.ring.N if prec is None else prec
        self._normalize()

    def _normalize(self):
        if self.prec <= 0:
            self.mantissa = self.mantissa.ring.zero
            self.prec = 0
            return
        v = self.mantissa.valuation()
        if v >= self.prec:
            # indistinguishable from zero at the claimed precision
            self.mantissa = self.mantissa.ring.zero
            return
        if v > 0:
            self.mantissa = self.mantissa.divide_exact_ppow(v)
            self.exponent += v
            self.prec -= v

    @property
    def ring(self):
        return self.mantissa.ring

    def is_zero(self) -> bool:
        return self.mantissa.is_zero()

    def valuation(self):
        """Valuation of the value; None when zero at claimed precision."""
        return None if self.is_zero() else self.exponent

    def __mul__(self, other):
        if isinstance(other, PadicNum):
            other = ScaledPadic(other)
        return ScaledPadic(
            self.mantissa * other.mantissa,
            self.exponent + other.exponent,
            min(self.prec, other.prec),
        )

    def __neg__(self):
        return ScaledPadic(-self.mantissa, self.exponent, self.prec)

    def inv(self) -> "ScaledPadic":
        if self.is_zero():  # its valuation needs more digits than are known
            known = self.exponent + self.prec
            raise PrecisionExhausted(f"inverse of a value known only as 0 mod p^{known}")
        return ScaledPadic(self.mantissa.inv(), -self.exponent, self.prec)

    def __truediv__(self, other):
        if isinstance(other, PadicNum):
            other = ScaledPadic(other)
        return self * other.inv()

    def __add__(self, other):
        if isinstance(other, PadicNum):
            other = ScaledPadic(other)
        # absolute precision of a sum is the worse of the two claims --
        # including claims carried by (truncation-)zero summands
        e = min(self.exponent, other.exponent)
        abs1 = self.exponent + self.prec
        abs2 = other.exponent + other.prec
        p = self.ring.p
        m = (
            self.mantissa * p ** (self.exponent - e)
            + other.mantissa * p ** (other.exponent - e)
        )
        return ScaledPadic(m, e, min(abs1, abs2) - e)

    def __sub__(self, other):
        if isinstance(other, PadicNum):
            other = ScaledPadic(other)
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, ScaledPadic):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        if self.is_zero():
            return f"ScaledPadic(0 to precision p^{self.exponent + self.prec})"
        return (
            f"ScaledPadic({self.mantissa!r} * {self.ring.p}^{self.exponent}, "
            f"prec={self.prec})"
        )


@dataclass
class PrecisionBudget:
    """Ledger of every division by a non-unit along a computation."""

    start: int
    losses: list = field(default_factory=list)

    def charge(self, tag: str, amount: int):
        if amount <= 0:
            return
        self.losses.append((tag, amount))
        if self.effective <= 0:
            raise PrecisionExhausted(
                f"precision exhausted after charging {amount} digits for {tag!r}"
            )

    @property
    def total_loss(self) -> int:
        return sum(v for _, v in self.losses)

    @property
    def effective(self) -> int:
        return self.start - self.total_loss

    def absorb(self, other: "PrecisionBudget"):
        for tag, v in other.losses:
            self.charge(tag, v)

    def trail(self) -> list:
        return [{"op": tag, "digits": v} for tag, v in self.losses]
