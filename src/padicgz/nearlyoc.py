"""The q-expansion shadow of nearly overconvergent forms.

A nearly overconvergent expansion is a finite polynomial in the fiber
coordinates V_sigma whose coefficients are q-expansions, together with a
weight tag.  The canonical internal form stores the full coefficient of
each V-monomial, p^j included at V-degree j; the overconvergent
projection divides the p^j out exactly and fails loudly.

Provided here: the Gauss-Manin operators nabla_i and their p-adic
iteration nabla_pow, diagonal restriction, the omega/eta monomial
wrapper (one dq/q factor raises the weight by 2), and the overconvergent
projection with its factorial denominators.  nabla_pow and its restricted
entry point zeta_star_nabla_pow (= zeta_star_noc o nabla_pow, without the
Hilbert terms) share one scalar loop, `nabla_scalars`, and one d_ladder pass.
"""

from __future__ import annotations

import math

from .errors import (
    ConfigError,
    InsufficientValuation,
    WeightMismatch,
    ZeroDenominator,
)
from .padic import PadicNum, PrecisionBudget, pbinom
from .qexp import EllipticQExp, HilbertQExp, agreement_valuation, least_valuation
from .weights import WeightCharacter, char_shift

HILBERT = "hilbert"
ELLIPTIC = "elliptic"


class NearlyOCExpansion:
    """V-polynomial with q-expansion coefficients and a weight tag."""

    __slots__ = ("flavor", "weight", "terms")

    def __init__(self, flavor, weight: WeightCharacter, terms):
        if flavor not in (HILBERT, ELLIPTIC):
            raise ConfigError(f"unknown flavor {flavor!r}")
        arity = 2 if flavor == HILBERT else 1
        if weight.arity != arity:
            raise ConfigError("weight arity does not match the flavor")
        self.flavor = flavor
        self.weight = weight
        self.terms = {}
        for deg, coeff in terms.items():
            key = (
                tuple(deg)
                if flavor == HILBERT
                else ((int(deg),) if not isinstance(deg, tuple) else deg)
            )
            self.terms[key] = coeff  # zero coefficients kept: they carry the ring
        if not self.terms:
            raise ConfigError("a nearly overconvergent expansion needs >= 1 term")

    @property
    def ring(self):
        for c in self.terms.values():
            return c.ring
        return None

    def term(self, deg):
        if isinstance(deg, tuple):
            key = deg
        else:
            key = (int(deg),)
        return self.terms.get(key)

    def degrees(self):
        return sorted(self.terms)

    def __add__(self, other):
        if (
            not isinstance(other, NearlyOCExpansion)
            or other.flavor != self.flavor
            or other.weight != self.weight
        ):
            raise ConfigError("nearly overconvergent operands do not match")
        out = dict(self.terms)
        for d, c in other.terms.items():
            out[d] = c if d not in out else out[d] + c
        return NearlyOCExpansion(self.flavor, self.weight, out)

    def scale(self, c):
        return NearlyOCExpansion(
            self.flavor, self.weight, {d: f.scale(c) for d, f in self.terms.items()}
        )

    def assert_divisibility(self):
        """Every V-degree-j coefficient must have valuation >= |j|: one gcd
        per term, the keys walked only to name the first failure."""
        for d, c in self.terms.items():
            need = sum(d)
            if need <= 0 or least_valuation(c) >= need:
                continue
            for key, v in c.coeffs.items():
                if v.valuation() < need:
                    raise InsufficientValuation(
                        f"V-degree {d} coefficient at {key} has valuation "
                        f"{v.valuation()} < {need}"
                    )
        return self


def wrap_fil0(f, weight: WeightCharacter) -> NearlyOCExpansion:
    """Degree-0 wrap f * (1 + beta_n Z)^weight."""
    if isinstance(f, HilbertQExp):
        return NearlyOCExpansion(HILBERT, weight, {(0, 0): f})
    return NearlyOCExpansion(ELLIPTIC, weight, {(0,): f})


def nabla_i(gamma: NearlyOCExpansion, i: int = 1) -> NearlyOCExpansion:
    """One Gauss-Manin step in the sigma_i direction.

    On a monomial a V^h (1+bZ)^k the image is
    d_i(a) V^h (1+bZ)^(k+2 s_i)  +  p (u_k,i - h_i) a V_i V^h (1+bZ)^(k+2 s_i);
    the filtration level grows by at most one.
    """
    if gamma.flavor == ELLIPTIC:
        i = 1
    if i not in (1, 2):
        raise ConfigError("embedding index must be 1 or 2")
    idx = i - 1
    weight = gamma.weight
    ring1 = weight.ring1
    out_weight = weight.shift_component(idx, 2)
    out = {}

    def add(deg, coeff):
        if deg in out:
            out[deg] = out[deg] + coeff
        else:
            out[deg] = coeff

    for deg, a in gamma.terms.items():
        add(deg, a.d(i) if gamma.flavor == HILBERT else a.d())
        ring = a.ring
        scalar = ring.embed(weight.u[idx] - ring1.from_int(deg[idx])) * ring.p
        raised = list(deg)
        raised[idx] += 1
        add(tuple(raised), a.scale(scalar))
    res = NearlyOCExpansion(gamma.flavor, out_weight, out)
    res.assert_divisibility()
    return res


def nabla_pow(
    g: HilbertQExp, k: WeightCharacter, r: WeightCharacter
) -> NearlyOCExpansion:
    """The iterated connection nabla^r applied to a depleted form g of
    weight k, with r supported on the first embedding:

        sum_j p^j binom(u_r, j) prod_{i<j} (u_k1 + u_r - 1 - i)
              d_1^(r-j) g * V_1^j (1+bZ)^(k+2r).

    The j-th term carries an explicit p^j, so the sum truncates at the
    working precision; for classical specializations the product factor
    reaches an exact zero first and the sum is finite.  All terms come
    from one `HilbertQExp.d_ladder` pass.
    """
    weight, exponent, scalars = nabla_scalars(g.ring, k, r)
    terms = g.d_ladder(1, exponent, [scalars])[0]
    res = NearlyOCExpansion(
        HILBERT, weight, {(j, 0): t for j, t in enumerate(terms) if t is not None}
    )
    res.assert_divisibility()
    return res


def zeta_star_nabla_pow(
    g: HilbertQExp, k: WeightCharacter, r: WeightCharacter
) -> NearlyOCExpansion:
    """zeta_star_noc(nabla_pow(g, k, r)), with each term restricted to the
    diagonal inside the ladder, so the Hilbert terms are never built."""
    weight, exponent, scalars = nabla_scalars(g.ring, k, r)
    return zeta_star_nabla_terms(weight, g.d_ladder(1, exponent, [scalars], True)[0])


def nabla_scalars(ring, k: WeightCharacter, r: WeightCharacter):
    """(weight k + 2r, the d_1 exponent r_1, the scalars of nabla^r by
    V-degree j, None where a scalar is zero) for nabla_pow on ring."""
    if k.arity != 2 or r.arity != 2:
        raise ConfigError("nabla_pow expects two-embedding weight characters")
    if not r.u[1].is_zero() or r.chi[1] % r.torsion_order:
        raise ConfigError("the iteration exponent must be supported on sigma_1")
    ring1 = k.ring1
    p, N = ring.p, ring.N
    uk1, ur = k.u[0], r.u[0]
    scalars = []
    falling = ring1.one
    prod = ring1.one
    for j in range(N):
        if j > 0:
            falling = falling * (ur - ring1.from_int(j - 1))
            prod = prod * (uk1 + ur - ring1.from_int(j))
            if falling.is_zero() or prod.is_zero():
                break  # the exact zero factor persists in every later term
        scalar = ring.embed(pbinom(ur, j, ring1) * prod) * (p**j)
        if scalar.is_zero():
            scalar = None
        elif scalar.valuation() < j:
            raise InsufficientValuation(
                f"nabla^r scalar at V-degree {j} has valuation "
                f"{scalar.valuation()} < {j}"
            )
        scalars.append(scalar)
    return char_shift(k, r, "add2r"), r.component(0), scalars


def zeta_star_nabla_terms(weight, terms) -> NearlyOCExpansion:
    """zeta_star_nabla_pow from its restricted d_ladder terms by V-degree j,
    where weight = k + 2r is the weight of nabla^r g."""
    res = NearlyOCExpansion(
        ELLIPTIC,
        char_shift(weight, None, "restrict"),
        {(j,): t for j, t in enumerate(terms) if t is not None},
    )
    res.assert_divisibility()
    return res


def zeta_star_noc(gamma: NearlyOCExpansion) -> NearlyOCExpansion:
    """Diagonal restriction: V-multidegree (j1, j2) lands in degree j1+j2
    and the weight restricts."""
    if gamma.flavor != HILBERT:
        raise ConfigError("zeta_star_noc expects a Hilbert expansion")
    out = {}
    for (j1, j2), c in gamma.terms.items():
        z = c.zeta_star()
        key = (j1 + j2,)
        out[key] = z if key not in out else out[key] + z
    return NearlyOCExpansion(ELLIPTIC, char_shift(gamma.weight, None, "restrict"), out)


def from_omega_eta(entries, weight: WeightCharacter):
    """Assemble an elliptic nearly overconvergent expansion from omega/eta
    monomials: entries (coefficient, omega_exp, eta_exp, dlog_flag) with
    omega_exp + eta_exp + 2*dlog == k.  The eta-power b contributes at
    V-degree b with the exact bookkeeping factor p^b.
    """
    if weight.classical is None:
        raise WeightMismatch("omega/eta assembly needs a classical weight tag")
    k = weight.classical[0]
    out = {}
    for coeff, a, b, dlog in entries:
        if a + b + 2 * int(dlog) != k:
            raise WeightMismatch(
                f"omega^{a} eta^{b} dlog^{int(dlog)} does not have weight {k}"
            )
        ring = coeff.ring
        term = coeff.scale(ring.from_int(ring.p**b))
        out[(b,)] = term if (b,) not in out else out[(b,)] + term
    res = NearlyOCExpansion(ELLIPTIC, weight, out)
    res.assert_divisibility()
    return res


class OCProjection:
    """Result of an overconvergent projection.

    The true projection is p^(-shift) times `form`; shift is the maximal
    denominator valuation, pulled out so the stored coefficients stay in
    the integral ring.  `budget` caps the precision claim by the worst
    degree's extraction-plus-denominator loss.
    """

    __slots__ = ("form", "budget", "shift")

    def __init__(self, form, budget, shift):
        self.form = form
        self.budget = budget
        self.shift = shift


def oc_project(gamma: NearlyOCExpansion, k: int = None) -> OCProjection:
    """Overconvergent projection of an elliptic expansion of weight k (its
    classical weight tag when it has one, which a given k must equal):

        sum_i (-1)^i d^i(gamma_i) / ((k-2-i+1) ... (k-2)),

    where gamma_i is the V-degree-i coefficient with p^i extracted.
    """
    if gamma.flavor != ELLIPTIC:
        raise ConfigError("oc_project expects an elliptic expansion")
    tag = gamma.weight.classical
    if k is None:
        if tag is None:
            raise ConfigError("oc_project needs a classical integer weight")
        k = tag[0]
    elif tag is not None and k != tag[0]:
        raise ConfigError(f"weight {k} differs from the expansion's weight {tag[0]}")
    ring = gamma.ring
    p, m = ring.p, ring.modulus
    budget = PrecisionBudget(ring.N)

    # denominator data per degree
    degrees = [d[0] for d in gamma.degrees()]
    denoms = {}
    for i in degrees:
        j = i + 2 - k  # the denominator's factors are k - 2 - i + j, 1 <= j <= i
        if 1 <= j <= i:
            raise ZeroDenominator(
                f"projection denominator factor k-2-{i}+{j} = 0 at weight {k}"
            )
        den, v = math.prod(range(k - 1 - i, k - 1)), 0
        while den % p ** (v + 1) == 0:
            v += 1
        denoms[i] = (den, v)

    # the worst degree's extraction and denominator losses; 0 charges nothing
    i_star = max(degrees, key=lambda i: i + denoms[i][1])
    budget.charge(f"V^{i_star} coefficient extraction", i_star)
    budget.charge(f"projection denominator at degree {i_star}", denoms[i_star][1])
    shift = max(denoms[i][1] for i in degrees)

    # one integer pass: (c_i(n) / p^i) * n^i * u_i summed per n, with the
    # unit u_i = (-1)^i (den_i / p^v_i)^(-1) p^(shift - v_i)
    bound = min(gamma.terms[(i,)].bound for i in degrees)
    acc_a, acc_b = {}, {}
    for i in degrees:
        c = gamma.terms[(i,)]
        if c.ring != ring:
            raise ConfigError("mixed p-adic rings in arithmetic")
        pi = p**i
        if i and least_valuation(c) < i:
            for x in c.coeffs.values():
                if x.a % pi or x.b % pi:
                    raise InsufficientValuation(f"{x!r} is not divisible by p^{i}")
        den, v = denoms[i]
        u = pow((-1) ** i * (den // p**v), -1, m) * p ** (shift - v) % m
        for n, x in c.coeffs.items():
            if n <= bound:
                t = n**i * u % m
                acc_a[n] = acc_a.get(n, 0) + x.a // pi * t
                acc_b[n] = acc_b.get(n, 0) + x.b // pi * t
    coeffs = {n: PadicNum(ring, a % m, acc_b[n] % m) for n, a in acc_a.items()}
    return OCProjection(EllipticQExp(ring, bound, coeffs, weight_tag=k), budget, shift)


def degree_agreements(a: NearlyOCExpansion, b: NearlyOCExpansion) -> list:
    """(V-degree, valuation of the difference) for every V-degree of either
    expansion, in degree order; a degree on one side only is measured by
    that side's least coefficient valuation (N when it has none)."""
    out = []
    for deg in sorted(set(a.degrees()) | set(b.degrees())):
        ca, cb = a.terms.get(deg), b.terms.get(deg)
        one_sided = ca is None or cb is None
        val = least_valuation(ca or cb) if one_sided else agreement_valuation(ca, cb)
        out.append((deg, val))
    return out


def noc_agreement(a: NearlyOCExpansion, b: NearlyOCExpansion) -> int:
    """Minimal valuation of the difference across all V-degrees; N when the
    two expansions agree exactly at working precision."""
    if a.flavor != b.flavor:
        raise ConfigError("cannot compare expansions of different flavors")
    ring = a.ring or b.ring
    if ring is None:
        return 0
    return min((val for _, val in degree_agreements(a, b)), default=ring.N)
