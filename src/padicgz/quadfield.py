"""Real quadratic fields with narrow class number one.

Integral elements are integer pairs (a, b) meaning a + b*phi with
phi = (1 + sqrt(D))/2; the supported table only contains D == 1 mod 4.
q-expansions have one index convention, 'dinv': they are supported on
the inverse different, and an index key (a, b) is stored by its
numerator, meaning (a + b*phi)/sqrt(D).  Its trace is b.

Total positivity and archimedean size comparisons are done with exact
integer arithmetic (sqrt(D) is irrational for every supported D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    ConfigError,
    FactorizationOverflow,
    RamifiedPrime,
    UnsupportedField,
)
from .padic import PadicNum, PadicRing, batch_inverse, hensel_sqrt, _tonelli_shanks

# D -> fundamental unit a + b*phi (all with norm -1, so narrow h = h = 1)
_NARROW_ONE_TABLE = {
    5: (0, 1),
    13: (1, 1),
    17: (3, 2),
    29: (2, 1),
    37: (5, 2),
    41: (27, 10),
    53: (3, 1),
    61: (17, 5),
    73: (943, 250),
}

SUPPORT_DINV = "dinv"


def check_support(support: str):
    """The only index convention is SUPPORT_DINV."""
    if support != SUPPORT_DINV:
        raise ConfigError(f"unknown support tag {support!r}; only {SUPPORT_DINV!r}")


def factorize(n: int):
    """[(q, e), ...] with n = prod q^e, by trial division, q ascending."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            out.append((q, e))
        q += 1
    if n > 1:
        out.append((n, 1))
    return out


@dataclass(frozen=True)
class RealQuadraticField:
    D: int

    @property
    def disc(self) -> int:
        return self.D  # all supported D are 1 mod 4

    @property
    def phi_norm(self) -> int:
        """N(phi) = (1 - D)/4."""
        return (1 - self.D) // 4

    # -- element arithmetic on (a, b) = a + b*phi ----------------------

    def mul(self, x, y):
        a, b = x
        c, d = y
        m = (self.D - 1) // 4  # phi^2 = phi + m
        return (a * c + b * d * m, a * d + b * c + b * d)

    def conj(self, x):
        a, b = x
        return (a + b, -b)

    def trace(self, x) -> int:
        return 2 * x[0] + x[1]

    def norm(self, x) -> int:
        a, b = x
        return a * a + a * b - b * b * (self.D - 1) // 4

    def divide_exact(self, x, y):
        """x / y in O_L, or None when y does not divide x."""
        n = self.norm(y)
        if n == 0:
            raise ZeroDivisionError("division by zero element")
        num = self.mul(x, self.conj(y))
        if num[0] % n or num[1] % n:
            return None
        return (num[0] // n, num[1] // n)

    def is_totally_positive(self, x) -> bool:
        t = self.trace(x)
        return t > 0 and t * t > self.D * x[1] * x[1]

    # archimedean bounds, exact via isqrt
    def floor_sigma_max(self, x) -> int:
        """floor(max(sigma_1, sigma_2)(a + b*phi)) for a totally positive x."""
        t = self.trace(x)
        s = math.isqrt(self.D * x[1] * x[1])
        return (t + s) // 2

    def ceil_sigma_max(self, x) -> int:
        t = self.trace(x)
        b2 = self.D * x[1] * x[1]
        if b2 == 0:
            return -((-t) // 2)
        return self.floor_sigma_max(x) + 1

    def floor_scaled_sigma_min(self, x, B: int) -> int:
        """Conservative floor(B * min(sigma)(x)) for totally positive x."""
        t = self.trace(x)
        if x[1] == 0:
            return B * t // 2
        u = math.isqrt(self.D * B * B * x[1] * x[1])
        return (B * t - u - 1) // 2


def make_field(D: int) -> RealQuadraticField:
    """Field constructor; certifies narrow class number one via the table."""
    if D <= 1:
        raise UnsupportedField(f"D = {D} must be > 1")
    if any(e > 1 for _, e in factorize(D)):
        raise UnsupportedField(f"D = {D} is not squarefree")
    if D not in _NARROW_ONE_TABLE:
        raise UnsupportedField(
            f"D = {D} is outside the built-in narrow-class-number-one table "
            f"{sorted(_NARROW_ONE_TABLE)}"
        )
    L = RealQuadraticField(D)
    eps = _NARROW_ONE_TABLE[D]
    if L.norm(eps) != -1:
        raise UnsupportedField(f"fundamental unit table broken for D = {D}")
    return L


class PrimeSplitting:
    """Splitting data of an odd unramified prime p, with the two p-adic
    embeddings at working precision.

    Split: sigma_i are maps into Z/p^N with sigma_i(pi_i) of valuation 1.
    Inert: sigma_1 maps into the quadratic extension, sigma_2 = Frob o sigma_1.
    prime_norm is the norm of a prime above p: p split, p^2 inert.
    Embeddings are labelled 1, 2 and primes 1, 2 (split) or 1 (inert); other
    labels are a ConfigError.  `entries` keeps, per index key and embedding,
    the ints (sigma_a, sigma_b, inv_a, inv_b) of sigma_i(key) and its inverse
    (None for a non-unit) for the splitting's life; `coprime_keys` decides
    membership in the primes from sigma_i(phi) mod p, kept per label.
    """

    def __init__(self, field: RealQuadraticField, p: int, N: int):
        if p == 2:
            raise ConfigError("p must be odd")
        if field.disc % p == 0:
            raise RamifiedPrime(f"p = {p} divides the discriminant {field.disc}")
        self.field = field
        self.p = p
        self.N = N
        D = field.D
        if pow(D % p, (p - 1) // 2, p) == 1:
            self.kind = "split"
            self.prime_norm = p
            self.ring = PadicRing(p, N, 1)
            self._sqrtD = hensel_sqrt(D, p, N)
        else:
            self.kind = "inert"
            self.prime_norm = p * p
            self.ring = PadicRing(p, N, 2)
            # sqrt(D) = w * X with w = sqrt(D / X^2) in Z/p^N
            c = self.ring.nonresidue
            w = hensel_sqrt(D * pow(c, -1, p**N) % p**N, p, N)
            self._sqrtD = self.ring.make(0, w.lift())
        inv2 = pow(2, -1, p**N)
        one, root = self.ring.one, self._sqrtD
        self._phi = {1: (one + root) * inv2, 2: (one - root) * inv2}
        # sigma_i of the key (a, b) is a * u + b * w, u = 1/sigma_i(sqrt D)
        # and w = sigma_i(phi) * u, kept as the coordinates (u_a, u_b, w_a, w_b)
        self._key_basis = {}
        for i, u in ((1, root.inv()), (2, (-root).inv())):
            w = self._phi[i] * u
            self._key_basis[i] = (u.a, u.b, w.a, w.b)
        self._cache = {1: {}, 2: {}}  # embedding -> key -> entry
        if self.kind == "split":
            # prime label -> sigma_i(phi) mod p, read by coprime_keys
            self._phi_mod = {i: self._phi[i].a % p for i in (1, 2)}
            self.pi1, self.pi2 = self._split_generators()
        else:
            self._phi_mod = {1: None}  # the one prime (p)
            self.pi1 = self.pi2 = None

    def _split_generators(self):
        """Totally positive generators (pi1, pi2) of the primes above p,
        with pi1 * pi2 = p and sigma_1(pi1) of valuation 1.

        Searches norm-p elements by ascending trace; any trace-positive
        solution of t^2 - D b^2 = 4p is automatically totally positive.
        """
        L, p = self.field, self.p
        t = math.isqrt(4 * p)
        while True:
            t += 1
            r = t * t - 4 * p
            if r < 0:
                continue
            if r % L.D == 0:
                b2 = r // L.D
                b = math.isqrt(b2)
                if b * b == b2 and (t - b) % 2 == 0:
                    pi = ((t - b) // 2, b)
                    break
        assert L.norm(pi) == p and L.is_totally_positive(pi)
        pib = L.conj(pi)
        s1 = self.embed(pi, 1)
        if s1.valuation() >= 1:
            return pi, pib
        return pib, pi

    def _embedding(self, which):
        if which not in (1, 2):
            raise ConfigError(f"embedding index {which!r} must be 1 or 2")
        return which

    def embed(self, x, which: int) -> PadicNum:
        """p-adic embedding sigma_which of the element a + b*phi of O_L."""
        a, b = x
        return self.ring.make(a) + self._phi[self._embedding(which)] * b

    def entries(self, keys, which: int) -> list:
        """The entries (sigma_a, sigma_b, inv_a, inv_b) of sigma_which at the
        index keys; the missing ones are added first, with one batch_inverse."""
        cache = self._cache[self._embedding(which)]
        try:
            return [cache[k] for k in keys]
        except KeyError:
            pass
        p, m, c = self.p, self.ring.modulus, self.ring.nonresidue or 0
        ua, ub, wa, wb = self._key_basis[which]
        fresh = {k: ((k[0] * ua + k[1] * wa) % m, (k[0] * ub + k[1] * wb) % m)
                 for k in keys if k not in cache}
        norms = [(a * a - b * b % m * c) % m for a, b in fresh.values()]
        # an element is a unit iff its norm is; a non-unit's norm stands in as 1
        inverses = batch_inverse([n if n % p else 1 for n in norms], m)
        for (k, (a, b)), n, x in zip(fresh.items(), norms, inverses):
            cache[k] = (a, b, a * x % m, -b * x % m) if n % p else (a, b, None, None)
        return [cache[k] for k in keys]

    def sigma(self, key, which: int) -> PadicNum:
        """p-adic embedding sigma_which of the index key (a + b*phi)/sqrt(D)."""
        sa, sb, _, _ = self.entries((key,), which)[0]
        return PadicNum(self.ring, sa, sb)

    def require(self, kind: str):
        """ConfigError unless p has the splitting kind a caller names."""
        if kind != self.kind:
            raise ConfigError(
                f"p = {self.p} is {self.kind} in D = {self.field.D}, not {kind}"
            )

    def _prime(self, which):
        if which not in self._phi_mod:
            raise ConfigError(
                f"p = {self.p} is {self.kind}: no prime above it labelled {which!r}"
            )
        return self._phi_mod[which]

    def coprime_keys(self, keys, labels) -> list:
        """The index keys in none of the labelled primes above p.  The key
        lies in p_i iff its numerator a + b*phi does: inert, iff p divides a
        and b; split, iff p divides a + b * sigma_i(phi), and in p_1 or p_2
        iff p divides the norm."""
        p, roots = self.p, {self._prime(w) for w in labels}
        if not roots:
            return list(keys)
        if self.kind == "inert":
            return [k for k in keys if k[0] % p or k[1] % p]
        if len(roots) == 1:
            (s,) = roots
            return [k for k in keys if (k[0] + k[1] * s) % p]
        n = self.field.phi_norm
        return [k for k in keys if (k[0] * (k[0] + k[1]) + n * k[1] * k[1]) % p]

    def prime_generator(self, which: int):
        self._prime(which)
        if self.kind == "inert":
            return (self.p, 0)
        return self.pi1 if which == 1 else self.pi2


def tot_pos_enum(field: RealQuadraticField, support: str, B: int):
    """The key of 0 and the keys of the totally positive elements of the
    inverse different of trace <= B, sorted by (trace, a).

    support must be SUPPORT_DINV.
    """
    check_support(support)
    if B < 0:
        raise ConfigError("trace bound must be >= 0")
    D = field.D
    out = [(0, 0)]
    # key (a,b): element (a + b*phi)/sqrt(D); trace = b;
    # totally positive iff b > 0 and (2a+b)^2 < D b^2; b and then t = 2a + b
    # ascend, so the keys come out sorted
    for b in range(1, B + 1):
        s = math.isqrt(D * b * b)
        # 2a + b ranges over integers of |.| < b*sqrt(D) with matching parity
        for t in range(-s, s + 1):
            if (t - b) % 2 == 0 and t * t < D * b * b:
                out.append(((t - b) // 2, b))
    return out


_NORM_BUDGET = 2**63
_DIVISOR_CACHE: dict = {}


def _splitting_mod_q(field: RealQuadraticField, q: int):
    """Return ('ram',), ('inert',) or ('split', s) with s = phi mod q_1."""
    D = field.D
    if D % q == 0:
        return ("ram",)
    if q == 2:
        # D == 1 mod 8: split with phi == 0 / 1; D == 5 mod 8: inert
        if D % 8 == 1:
            return ("split", 0)
        return ("inert",)
    if pow(D % q, (q - 1) // 2, q) != 1:
        return ("inert",)
    r = _tonelli_shanks(D % q, q)
    s = (1 + r) * pow(2, -1, q) % q
    return ("split", s)


def ideal_divisors(field: RealQuadraticField, key):
    """Integral ideal divisors of (beta) * different, with norms.

    beta must be a nonzero index key; (beta) * different is the ideal of
    its numerator.  Returns a sorted list of (label, norm) pairs where
    label is a tuple of (q, tag, exponent) entries identifying the divisor.
    """
    if key == (0, 0):
        raise ConfigError("ideal_divisors needs beta != 0")
    cache_key = (field.D, key)
    got = _DIVISOR_CACHE.get(cache_key)
    if got is not None:
        return got
    n = abs(field.norm(key))
    if n >= _NORM_BUDGET:
        raise FactorizationOverflow(f"norm {n} exceeds the 64-bit budget")
    prime_data = []  # (q, tag, norm_of_prime, valuation)
    for q, v in factorize(n):
        prime_data.extend(_prime_vals(field, key, q, v))
    divisors = [((), 1)]
    for (q, tag, nq, v) in prime_data:
        new = []
        for label, norm in divisors:
            for e in range(v + 1):
                lab = label + ((q, tag, e),) if e else label
                new.append((lab, norm * nq**e))
        divisors = new
    divisors.sort(key=lambda t: (t[1], t[0]))
    if len(_DIVISOR_CACHE) > 500_000:
        _DIVISOR_CACHE.clear()
    _DIVISOR_CACHE[cache_key] = divisors
    return divisors


def _prime_vals(field: RealQuadraticField, num, q: int, vq: int):
    """Valuations of (num) at the primes over q, given v_q(N(num)) = vq."""
    kind = _splitting_mod_q(field, q)
    if kind[0] == "ram":
        return [(q, "ram", q, vq)]
    if kind[0] == "inert":
        if vq % 2:
            raise ConfigError("odd inert valuation; norm bookkeeping broken")
        return [(q, "inert", q * q, vq // 2)] if vq else []
    s = kind[1]
    # common q-divisibility of the element gives equal valuation both sides
    common = 0
    x = num
    while x[0] % q == 0 and x[1] % q == 0:
        x = (x[0] // q, x[1] // q)
        common += 1
    rest = vq - 2 * common
    side1 = common
    side2 = common
    if rest:
        if (x[0] + x[1] * s) % q == 0:
            side1 += rest
        else:
            side2 += rest
    out = []
    if side1:
        out.append((q, "s1", q, side1))
    if side2:
        out.append((q, "s2", q, side2))
    return out
