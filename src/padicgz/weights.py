"""Weight characters and classical weight-pair bookkeeping.

A weight character stores, per embedding, an analytic exponent u (a
degree-1 p-adic number) and a finite part chi (an integer mod the
torsion order p^f - 1 of the coefficient ring's residue field).  A
classical integer weight m carries u = image(m) and chi = m mod p^f - 1,
kept as a shortcut for exact integer paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import CentralCharMismatch, ConfigError
from .padic import PadicRing


class WeightCharacter:
    """Per-embedding (analytic exponent, finite part) with an optional
    classical integer shortcut."""

    __slots__ = ("ring1", "torsion_order", "u", "chi", "classical")

    def __init__(self, ring1: PadicRing, torsion_order: int, u, chi, classical=None):
        if ring1.degree != 1:
            raise ConfigError("analytic exponents live in the degree-1 ring")
        self.ring1 = ring1
        self.torsion_order = torsion_order
        self.u = tuple(u)
        self.chi = tuple(c % torsion_order for c in chi)
        self.classical = tuple(classical) if classical is not None else None
        if self.classical is not None:
            for m, uu, cc in zip(self.classical, self.u, self.chi):
                if uu != ring1.from_int(m) or cc != m % torsion_order:
                    raise ConfigError("classical shortcut disagrees with (u, chi)")

    @classmethod
    def from_classical(cls, ring1: PadicRing, torsion_order: int, ints):
        ints = tuple(ints)
        u = tuple(ring1.from_int(m) for m in ints)
        chi = tuple(m % torsion_order for m in ints)
        return cls(ring1, torsion_order, u, chi, ints)

    @property
    def arity(self) -> int:
        return len(self.u)

    def component(self, i: int) -> "WeightCharacter":
        cls_part = (self.classical[i],) if self.classical is not None else None
        return WeightCharacter(
            self.ring1, self.torsion_order, (self.u[i],), (self.chi[i],), cls_part
        )

    def shift_component(self, i: int, delta: int) -> "WeightCharacter":
        """Add the classical integer delta to the i-th embedding."""
        u = list(self.u)
        chi = list(self.chi)
        u[i] = u[i] + self.ring1.from_int(delta)
        chi[i] = chi[i] + delta
        cls_part = None
        if self.classical is not None:
            cls_part = list(self.classical)
            cls_part[i] += delta
        return WeightCharacter(self.ring1, self.torsion_order, u, chi, cls_part)

    def minus_int(self, m: int) -> "WeightCharacter":
        """The exponent character u - m (all embeddings), used for d-powers."""
        u = tuple(x - self.ring1.from_int(m) for x in self.u)
        chi = tuple(c - m for c in self.chi)
        cls_part = None
        if self.classical is not None:
            cls_part = tuple(x - m for x in self.classical)
        return WeightCharacter(self.ring1, self.torsion_order, u, chi, cls_part)

    def __eq__(self, other):
        return (
            isinstance(other, WeightCharacter)
            and self.ring1 == other.ring1
            and self.torsion_order == other.torsion_order
            and self.u == other.u
            and self.chi == other.chi
        )

    def __repr__(self):
        if self.classical is not None:
            return f"WeightCharacter(classical={self.classical})"
        return f"WeightCharacter(u={[x.lift() for x in self.u]}, chi={self.chi})"


def char_shift(k: WeightCharacter, r: WeightCharacter, op: str):
    """'add2r': k + 2r per embedding.  'restrict': push down to one embedding
    (u and chi add; chi reduces to the elliptic torsion order p - 1)."""
    if op == "add2r":
        if k.ring1 != r.ring1 or k.arity != r.arity:
            raise ConfigError("incompatible characters in add2r")
        u = tuple(a + b + b for a, b in zip(k.u, r.u))
        chi = tuple(a + 2 * b for a, b in zip(k.chi, r.chi))
        cls_part = None
        if k.classical is not None and r.classical is not None:
            cls_part = tuple(a + 2 * b for a, b in zip(k.classical, r.classical))
        return WeightCharacter(k.ring1, k.torsion_order, u, chi, cls_part)
    if op == "restrict":
        torsion = k.ring1.p - 1
        u = (sum(k.u[1:], k.u[0]),)
        chi = (sum(k.chi) % torsion,)
        cls_part = (sum(k.classical),) if k.classical is not None else None
        return WeightCharacter(k.ring1, torsion, u, chi, cls_part)
    raise ConfigError(f"unknown char_shift op {op!r}")


@dataclass(frozen=True)
class WeightPair:
    """Classical weights (v, n) for the quadratic field and (w, m) for Q."""

    v: Tuple[int, int]
    n: int
    w: int
    m: int

    @property
    def ell(self) -> Tuple[int, int]:
        return (2 * self.v[0] + self.n, 2 * self.v[1] + self.n)

    @property
    def k(self) -> int:
        return 2 * self.w + self.m

    @classmethod
    def from_ell_k(cls, ell, k):
        """Convenience constructor from (ell_1, ell_2) and k with n = 0
        (requires even ell_i and k)."""
        if ell[0] % 2 or ell[1] % 2 or k % 2:
            # fall back to n = m/2-compatible odd handling: n = 1
            if (ell[0] - 1) % 2 == 0 and (ell[1] - 1) % 2 == 0 and (k - 2) % 2 == 0:
                return cls(((ell[0] - 1) // 2, (ell[1] - 1) // 2), 1, (k - 2) // 2, 2)
            raise ConfigError(f"no integral (v, n), (w, m) for ell={ell}, k={k}")
        return cls((ell[0] // 2, ell[1] // 2), 0, k // 2, 0)


@dataclass(frozen=True)
class Classification:
    kind: str  # 'balanced' | 'f_dominated' | 'neither'
    s: Optional[int] = None
    t: Optional[int] = None
    weight2_special: bool = False  # the (parallel 2, 2) corner


def classify_pair(pair: WeightPair) -> Classification:
    """Balanced when k = ell_1 + ell_2 - 2(s+1) with 0 <= s <= min(ell) - 2;
    F-dominated when k = ell_1 + ell_2 + 2t with t >= 0."""
    if pair.m != 2 * pair.n:
        raise CentralCharMismatch(f"m = {pair.m} != 2n = {2 * pair.n}")
    ell, k = pair.ell, pair.k
    total = ell[0] + ell[1]
    if k >= total and (k - total) % 2 == 0:
        return Classification("f_dominated", t=(k - total) // 2)
    if (total - k) % 2 == 0 and total - k >= 2:
        s = (total - k) // 2 - 1
        if 0 <= s <= min(ell) - 2:
            special = ell == (2, 2) and k == 2
            return Classification("balanced", s=s, weight2_special=special)
    return Classification("neither")


def rho_lambda(k: WeightCharacter, r: WeightCharacter, n: int):
    """The denominator-control data: rho = sum over both embeddings of
    u_k + u_r, and lambda = prod_{i=0..n} (rho - i).

    Returns (rho, lam, degraded) where degraded flags a lambda of positive
    valuation (the locus where overconvergent-projection denominators
    degrade).  Never raises; the flag is informational.
    """
    if k.arity != 2 or r.arity != 2:
        raise ConfigError("rho_lambda expects two-embedding characters")
    ring = k.ring1
    rho = k.u[0] + r.u[0] + k.u[1] + r.u[1]
    lam = ring.one
    for i in range(n + 1):
        lam = lam * (rho - ring.from_int(i))
    degraded = lam.is_zero() or lam.valuation() > 0
    return rho, lam, degraded
