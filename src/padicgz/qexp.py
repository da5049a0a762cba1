"""Truncated q-expansion rings: Hilbert over a real quadratic field and
elliptic over Q, with the index derivations d_i, depletion, the U/V/T
operators at p, and diagonal restriction.

Powers of d_i run on one ladder (`HilbertQExp.d_ladder`): the terms
c_j * d_i^(e - j) for consecutive j, for one or several scalar lists c,
come from one power per coefficient at the exponent in use nearest zero
(`pair_pow`, or `series_power` where that takes fewer products) and one
plain-int (degree 1) or int-pair (degree 2) multiply per step, up
by sigma_i(beta) and down by its inverse, summed unreduced, optionally
onto the diagonal, each term reduced mod p^N as it is read; `d_char` is
its one-term case.  sigma_i(beta) and its inverse come as ints from the
splitting's per-index entries (`PrimeSplitting.entries`), computed once
per context, so `d` and the ladder take no norm or inverse of their own.

Both products run on packed rows (`_product`): each trace row of
coefficients becomes one big integer per coordinate, in slots too wide to
carry, so a pair of rows costs one integer multiply per partial product;
an elliptic expansion is a single row, indexed by n.

Coefficients are sparse maps from index keys to p-adic numbers; absent
keys are zero.  Hilbert indices have one convention ('dinv', see
`quadfield`): the key (a, b) is the element (a + b*phi)/sqrt(D) of the
inverse different, of trace b.  Every expansion carries an explicit
trace bound and no operation reads a coefficient beyond a certified
bound: U-type operators shrink the declared bound conservatively, V-type
operators grow it.
"""

from __future__ import annotations

from .errors import ConfigError, ConvergenceDomain, IndexMismatch, NonUnitIndex
from .padic import PadicNum, char_exponent, pair_pow, series_pays, series_power
from .quadfield import SUPPORT_DINV, check_support
from .weights import WeightCharacter


class QExpContext:
    """Field + prime splitting + coefficient ring, shared by expansions."""

    def __init__(self, field, splitting):
        if splitting.field != field:
            raise ConfigError("splitting belongs to a different field")
        self.field = field
        self.sp = splitting
        self.ring = splitting.ring
        self.p = splitting.p
        self.N = splitting.N

    def __eq__(self, other):
        return (
            isinstance(other, QExpContext)
            and self.field == other.field
            and self.sp.p == other.sp.p
            and self.sp.N == other.sp.N
            and self.sp.kind == other.sp.kind
        )

    def __hash__(self):
        return hash((self.field, self.sp.p, self.sp.N, self.sp.kind))

    def primes_above_p(self):
        return (1, 2) if self.sp.kind == "split" else (1,)


class HilbertQExp:
    """Truncated Hilbert q-expansion over the context field; support must
    be SUPPORT_DINV, the only index convention."""

    __slots__ = ("ctx", "bound", "coeffs", "weight_tag")
    support = SUPPORT_DINV

    def __init__(self, ctx, support, bound, coeffs=None, weight_tag=None):
        check_support(support)
        self.ctx = ctx
        self.bound = bound
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v.a or v.b}
        self.weight_tag = weight_tag

    # -- plumbing -------------------------------------------------------

    @property
    def ring(self):
        return self.ctx.ring

    def _like(self, coeffs, bound=None, weight_tag=None):
        return HilbertQExp(
            self.ctx,
            SUPPORT_DINV,
            self.bound if bound is None else bound,
            coeffs,
            self.weight_tag if weight_tag is None else weight_tag,
        )

    def _compat(self, other):
        if not isinstance(other, HilbertQExp) or other.ctx != self.ctx:
            raise IndexMismatch("operands live on different index sets")

    def trace(self, key) -> int:
        return key[1]

    def coeff(self, key) -> PadicNum:
        if self.trace(key) > self.bound:
            raise IndexMismatch(
                f"coefficient at trace {self.trace(key)} beyond bound {self.bound}"
            )
        return self.coeffs.get(key, self.ctx.ring.zero)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        try:
            self._compat(other)
        except IndexMismatch:
            return False
        return self.bound == other.bound and self.coeffs == other.coeffs

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        self._compat(other)
        b = min(self.bound, other.bound)
        out = {}
        for k, v in self.coeffs.items():
            if k[1] <= b:
                out[k] = v
        for k, v in other.coeffs.items():
            if k[1] <= b:
                s = out.get(k)
                out[k] = v if s is None else s + v
        return self._like(out, bound=b)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        self._compat(other)
        b = min(self.bound, other.bound)
        return self._like(_product(self.ring, self.coeffs, other.coeffs, b), bound=b)

    def scale(self, c):
        return self._like({k: v * c for k, v in self.coeffs.items()})

    # -- index operators ---------------------------------------------------

    def d(self, i: int):
        """The derivation a_beta -> sigma_i(beta) a_beta."""
        ring, entries = self.ring, self.ctx.sp.entries(self.coeffs, i)
        m, c = ring.modulus, ring.nonresidue or 0
        out = {
            k: PadicNum(ring, (x.a * a + x.b * b % m * c) % m, (x.a * b + x.b * a) % m)
            for (k, x), (a, b, _, _) in zip(self.coeffs.items(), entries)
        }
        return self._like(out)

    def d_char(self, i: int, exponent):
        """sigma_i(beta)^exponent on coefficients.

        exponent: an int (exact powering; negative powers require unit
        indices) or a one-component WeightCharacter (one integer power,
        `char_exponent`; requires unit indices throughout, i.e. a suitably
        depleted input).  The one-term case of d_ladder.
        """
        return self.d_ladder(i, exponent, [(self.ring.one,)])[0][0]

    def d_ladder(self, i: int, exponent, scalars, restrict=False):
        """For each list c in scalars, the terms c[j] * d_i^(exponent - j)
        of self (None where c[j] is None), all read off one pass.

        exponent is as in d_char.  Each coefficient takes one power at the
        exponent in use nearest zero (in degree 2 on a units-only ladder, a
        character's or a negative one, by `series_power` where
        `series_pays`, else by `pair_pow`), then one multiply per step: by
        sigma_i(beta) up and by its inverse down, both read as ints from the
        splitting's per-index entries (`PrimeSplitting.entries`), which a
        None inverse marks as no unit.  Steps are summed unreduced; a term
        is reduced mod p^N as it is read off its row.  So non-unit indices
        are allowed while every term in use has a non-negative integer
        exponent; for a character the steps are exact on units (the CRT
        lift of u - j is E - j).  With restrict each term comes back as its
        elliptic zeta_star, summed by trace without the Hilbert term.
        """
        ring, keys = self.ring, list(self.coeffs)
        entries = self.ctx.sp.entries(keys, i)
        m, c = ring.modulus, ring.nonresidue or 0
        e, character = _power_exponent(exponent, ring)
        out = [[None] * len(s) for s in scalars]
        live = sorted({j for s in scalars for j, x in enumerate(s) if x is not None})
        if not live:
            return out
        top, low = live[0], live[-1]
        if character and low > top and exponent.torsion_order % ring.residue_order():
            raise ConfigError(
                "a character ladder needs a torsion order divisible by p^f - 1"
            )
        negative = next((e - j for j in live if e - j < 0), None)
        # a row holds the pairs at the exponents e - low .. e - top in turn;
        # each coefficient starts at the one nearest zero, pair at0 / 2
        start = min(max(0, e - low), e - top)
        at0, width = 2 * (start - (e - low)), 2 * (low - top + 1)
        units_only = character or negative is not None
        s = abs(start)
        power = series_power(ring, s) if units_only and series_pays(ring, s) else None
        rows = {}
        for k, v, (sa, sb, ia, ib) in zip(keys, self.coeffs.values(), entries):
            if units_only and ia is None:
                what = "d-power" if character else f"d^({negative})"
                raise NonUnitIndex(
                    f"{what} at index {k}: sigma_{i} not a unit (input not depleted)"
                )
            where = k[1] if restrict else k
            row = rows.get(where)
            if row is None:
                row = rows[where] = [0] * width
            if ring.degree == 1:  # plain ints in the a slots; the b slots stay 0
                x = w = v.a * pow(sa if start >= 0 else ia, s, m) % m
                row[at0] += w
                for at in range(at0 + 2, width, 2):
                    x *= sa
                    row[at] += x
                for at in range(at0 - 2, -1, -2):
                    w *= ia
                    row[at] += w
                continue
            base = (ia, ib) if start < 0 else (sa, sb)
            if power:
                wa, wb = power(*base, v.a, v.b)
            else:
                wa, wb = pair_pow(ring, *base, s, v.a, v.b)
            row[at0] += wa
            row[at0 + 1] += wb
            sbc, xa, xb = sb * c % m, wa, wb
            for at in range(at0 + 2, width, 2):
                xa, xb = xa * sa + xb * sbc, xa * sb + xb * sa
                row[at] += xa
                row[at + 1] += xb
            if at0:
                ibc = ib * c % m
                for at in range(at0 - 2, -1, -2):
                    wa, wb = wa * ia + wb * ibc, wa * ib + wb * ia
                    row[at] += wa
                    row[at + 1] += wb
        for s, terms in zip(scalars, out):
            for j, x in enumerate(s):
                if x is None:
                    continue
                if x.ring != ring:
                    raise ConfigError("mixed p-adic rings in arithmetic")
                at, ca, cb, cbc = 2 * (low - j), x.a, x.b, x.b * c % m
                coeffs = {
                    key: PadicNum(
                        ring,
                        (ca * r[at] + cbc * r[at + 1]) % m,
                        (ca * r[at + 1] + cb * r[at]) % m,
                    )
                    for key, r in rows.items()
                }
                if restrict:
                    terms[j] = EllipticQExp(ring, self.bound, coeffs, self.weight_tag)
                else:
                    terms[j] = self._like(coeffs)
        return out

    def deplete(self, which="all"):
        """Zero the coefficients with index in the chosen primes above p.

        which: 'all', or an iterable of labels from ctx.primes_above_p().
        The beta = 0 term is always killed.
        """
        labels = self.ctx.primes_above_p() if which == "all" else tuple(which)
        kept = self.ctx.sp.coprime_keys(self.coeffs, labels)
        out = {k: self.coeffs[k] for k in kept}
        out.pop((0, 0), None)
        return self._like(out)

    def v(self, which: int = 1):
        """V_0 at the chosen prime: pure index shift beta -> pi * beta."""
        gen = self.ctx.sp.prime_generator(which)
        fld = self.ctx.field
        out = {}
        for k, v in self.coeffs.items():
            out[fld.mul(k, gen)] = v
        return self._like(out, bound=fld.floor_scaled_sigma_min(gen, self.bound))

    def u(self, which: int = 1):
        """U_0 at the chosen prime: (U f)_beta = f_{pi beta}."""
        gen = self.ctx.sp.prime_generator(which)
        fld = self.ctx.field
        new_bound = self.bound // fld.ceil_sigma_max(gen)
        out = {}
        for k, v in self.coeffs.items():
            kk = fld.divide_exact(k, gen)
            if kk is not None and kk[1] <= new_bound:
                out[kk] = v
        return self._like(out, bound=new_bound)

    def v_rational_p(self):
        """V_0(p): index shift by the rational prime p (= V_1 V_2 if split)."""
        p = self.ctx.p
        out = {(k[0] * p, k[1] * p): v for k, v in self.coeffs.items()}
        return self._like(out, bound=self.bound * p)

    def t(self, which: int, weight: int, nebentype=1):
        """Normalized Hecke operator T_0 = U_0 + c V_0 at a prime above p,
        with c = N(prime)^(weight-1) * nebentype for parallel weight."""
        norm = self.ctx.sp.prime_norm
        c = self.ctx.ring.from_int(norm ** (weight - 1)) * nebentype
        return self.u(which) + self.v(which).scale(c)

    def truncated(self, bound: int):
        if bound > self.bound:
            raise IndexMismatch("cannot extend a declared bound")
        return self._like(
            {k: v for k, v in self.coeffs.items() if k[1] <= bound},
            bound=bound,
        )

    def zeta_star(self):
        """Diagonal restriction: b_n = sum of a_beta over trace(beta) = n."""
        out = {}
        for k, v in self.coeffs.items():
            n = k[1]
            s = out.get(n)
            out[n] = v if s is None else s + v
        return EllipticQExp(self.ctx.ring, self.bound, out, self.weight_tag)


class EllipticQExp:
    """Truncated elliptic q-expansion with coefficients in a p-adic ring."""

    __slots__ = ("ring", "bound", "coeffs", "weight_tag")

    def __init__(self, ring, bound, coeffs=None, weight_tag=None):
        self.ring = ring
        self.bound = bound
        self.coeffs = {n: v for n, v in (coeffs or {}).items() if v.a or v.b}
        self.weight_tag = weight_tag

    def _like(self, coeffs, bound=None, weight_tag=None):
        return EllipticQExp(
            self.ring,
            self.bound if bound is None else bound,
            coeffs,
            self.weight_tag if weight_tag is None else weight_tag,
        )

    def _compat(self, other):
        if not isinstance(other, EllipticQExp) or other.ring != self.ring:
            raise IndexMismatch("elliptic operands over different rings")

    def coeff(self, n: int) -> PadicNum:
        if n > self.bound:
            raise IndexMismatch(f"coefficient {n} beyond bound {self.bound}")
        return self.coeffs.get(n, self.ring.zero)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        try:
            self._compat(other)
        except IndexMismatch:
            return False
        return self.bound == other.bound and self.coeffs == other.coeffs

    def __add__(self, other):
        self._compat(other)
        b = min(self.bound, other.bound)
        out = {n: v for n, v in self.coeffs.items() if n <= b}
        for n, v in other.coeffs.items():
            if n <= b:
                s = out.get(n)
                out[n] = v if s is None else s + v
        return self._like(out, bound=b)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        self._compat(other)
        b = min(self.bound, other.bound)
        f = {(n, 0): v for n, v in self.coeffs.items() if n <= b}
        g = {(n, 0): v for n, v in other.coeffs.items()}
        out = _product(self.ring, f, g, float("inf"), cap=b)
        return self._like({k[0]: v for k, v in out.items()}, bound=b)

    def scale(self, c):
        return self._like({n: v * c for n, v in self.coeffs.items()})

    def d(self):
        return self._like({n: v * n for n, v in self.coeffs.items()})

    def d_char(self, exponent):
        """n^exponent on coefficients; exponent as in HilbertQExp.d_char.

        At p = 2 a character exponent also needs every index == 1 mod 4.
        """
        ring = self.ring
        m = ring.modulus
        e, character = _power_exponent(exponent, ring)
        units_only = character or e < 0
        out = {}
        for n, v in self.coeffs.items():
            if units_only and n % ring.p == 0:
                what = "d-power" if character else f"d^({e})"
                raise NonUnitIndex(f"{what} at non-unit index {n}")
            if character and ring.p == 2 and n % m % 4 == 3:
                raise ConvergenceDomain("p = 2 requires t == 1 mod 4")
            out[n] = PadicNum(ring, *pair_pow(ring, n % m, 0, e, v.a, v.b))
        return self._like(out)

    def deplete(self):
        p = self.ring.p
        return self._like({n: v for n, v in self.coeffs.items() if n % p})

    def v(self):
        p = self.ring.p
        return self._like(
            {n * p: v for n, v in self.coeffs.items()}, bound=self.bound * p
        )

    def u(self):
        p = self.ring.p
        b = self.bound // p
        return self._like(
            {n // p: v for n, v in self.coeffs.items() if n % p == 0 and n // p <= b},
            bound=b,
        )

    def t(self, weight: int, nebentype=1):
        c = self.ring.from_int(self.ring.p ** (weight - 1)) * nebentype
        return self.u() + self.v().scale(c)

    def truncated(self, bound: int):
        if bound > self.bound:
            raise IndexMismatch("cannot extend a declared bound")
        return self._like(
            {n: v for n, v in self.coeffs.items() if n <= bound}, bound=bound
        )


def _product(ring, f, g, bound, cap=float("inf")):
    """Product of coefficient maps keyed (column, row), by packed rows.

    Keys pair when f's row is at most bound and the rows sum to at most it;
    output columns above cap are dropped.  Column a of a row sits in slot
    a - lo (lo the row's least column) of w bits, room for min(#f, #g)
    products below (p^N)^2, or twice that for a*b' + b*a'.  Each output row
    is summed, then unpacked at its nonzero slots with X^2 = c, mod p^N.
    """
    m, c = ring.modulus, ring.nonresidue or 0
    w = (ring.degree * min(len(f), len(g)) * (m - 1) ** 2).bit_length()

    def rows(coeffs, top):
        grouped, packed = {}, {}
        for (a, t), v in coeffs.items():
            if t <= top:
                grouped.setdefault(t, []).append((a, v.a, v.b))
        for t, items in grouped.items():
            lo, x, y = min(items)[0], 0, 0
            for a, va, vb in items:
                x, y = x | va << w * (a - lo), y | vb << w * (a - lo)
            packed[t] = lo, x, y
        return packed

    by_row, grows = {}, rows(g, float("inf"))
    for t1, r1 in rows(f, bound).items():
        for t2, r2 in grows.items():
            if t1 + t2 <= bound:
                by_row.setdefault(t1 + t2, []).append((r1, r2))
    out, mask = {}, (1 << w) - 1
    for t, pairs in by_row.items():
        lo, xx, yy, xy = min(r1[0] + r2[0] for r1, r2 in pairs), 0, 0, 0
        for (lo1, x1, y1), (lo2, x2, y2) in pairs:
            s = w * (lo1 + lo2 - lo)
            xx, yy = xx + (x1 * x2 << s), yy + (y1 * y2 << s)
            xy += (x1 * y2 + y1 * x2) << s
        z = xx | yy | xy
        while z:
            s = ((z & -z).bit_length() - 1) // w * w
            a = lo + s // w
            if a > cap:
                break
            ra = ((xx >> s & mask) + c * (yy >> s & mask)) % m
            rb = (xy >> s & mask) % m
            if ra or rb:
                out[(a, t)] = PadicNum(ring, ra, rb)
            z = z >> (s + w) << (s + w)
    return out


def _power_exponent(exponent, ring):
    """(E, character) for d_char: the integer power E on the ring's units,
    and whether it came from a non-classical character, whose powers are
    defined on unit indices only."""
    if not isinstance(exponent, int):
        if not isinstance(exponent, WeightCharacter) or exponent.arity != 1:
            raise ConfigError("exponent must be an int or 1-component character")
        if exponent.classical is None:
            return char_exponent(ring, exponent.u[0], exponent.chi[0]), True
        exponent = exponent.classical[0]
    return exponent, False


def least_valuation(f) -> int:
    """The least valuation of f's coefficients, N when f is zero: one gcd."""
    vals = f.coeffs.values()
    return f.ring.valuation_of(*[v.a for v in vals], *[v.b for v in vals])


def agreement_valuation(f, g, bound=None) -> int:
    """Minimal p-adic valuation of (f - g) over indices up to the common
    bound; returns the working precision N when the truncations agree
    exactly (N is the 'exact at working precision' sentinel).  One gcd over
    the coordinate differences; f - g is never built."""
    f._compat(g)
    b = min(f.bound, g.bound) if bound is None else min(bound, f.bound, g.bound)
    hilbert = isinstance(f, HilbertQExp)
    fc, gc = f.coeffs, g.coeffs
    zero, diffs = f.ring.zero, []
    for k in fc.keys() | gc.keys():
        if (k[1] if hilbert else k) <= b:
            x, y = fc.get(k, zero), gc.get(k, zero)
            diffs += (x.a - y.a, x.b - y.b)
    return f.ring.valuation_of(*diffs)
