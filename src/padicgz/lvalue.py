"""Top-level evaluators: Euler factors, the split-case polynomial
decomposition, the auxiliary split/inert forms, L-value specialization at
balanced weights, and the Gross-Zagier-type q-expansion identity checks.

All operator normalizations follow the library's pure-index-shift
convention for U/V; the scalars that a weight-aware normalization would
carry are concentrated in the Hecke constants c_i = alpha_i beta_i and
in the explicit p-powers of the decomposition below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .errors import (
    ConfigError,
    DecompositionFailed,
    InsufficientValuation,
    NotEigenform,
    PrecisionExhausted,
    UnderDetermined,
)
from .nearlyoc import (
    NearlyOCExpansion,
    degree_agreements,
    from_omega_eta,
    nabla_scalars,
    oc_project,
    zeta_star_nabla_pow,
    zeta_star_nabla_terms,
)
from .padic import PadicNum, PadicRing, PrecisionBudget, ScaledPadic
from .qexp import HilbertQExp, agreement_valuation
from .heckeslope import ClassicalBasis, EigenBlock, canonical_rows, eigen_pair
from .serialize import basis_fingerprint, digits
from .weights import WeightCharacter, classify_pair

# ---------------------------------------------------------------------------
# Euler factors
# ---------------------------------------------------------------------------


@dataclass
class EulerFactorSet:
    kind: str  # 'split' | 'inert'
    t_F: int
    e_fstar: ScaledPadic
    e_p: ScaledPadic
    e_0p: Optional[ScaledPadic]  # split only

    def exceptional_zero(self) -> bool:
        """Whether E(f*) or E_p is known to vanish: zero with a known digit
        (a zero known only mod p^k, k <= 0, is no claim)."""
        known = [e.exponent + e.prec for e in (self.e_fstar, self.e_p) if e.is_zero()]
        return max(known, default=0) > 0


def euler_factors(g_roots, f_roots, t_F: int) -> EulerFactorSet:
    """The factor set at exponent t_F (balanced case: t_F = -s-1).

    g_roots are the Hecke roots of g at the primes above p: (alpha, beta)
    for an inert p, (alpha1, beta1, alpha2, beta2) for a split p, so their
    number fixes the kind; any other count is a ConfigError.  f_roots are
    (alpha*, beta*).  All roots are PadicNum; negative p-powers are carried
    as scaled values.
    """
    if len(g_roots) not in (2, 4):
        raise ConfigError(f"{len(g_roots)} g-roots: need 2 (inert) or 4 (split)")
    gr = [ScaledPadic(r) for r in g_roots]
    astar = ScaledPadic(f_roots[0])
    bstar = ScaledPadic(f_roots[1])
    ring = f_roots[0].ring
    one = ScaledPadic(ring.one)
    pt = ScaledPadic(ring.one, t_F)
    e_fstar = one - bstar / astar
    if len(gr) == 2:
        e_p = (one - pt * gr[0] / astar) * (one - pt * gr[1] / astar)
        return EulerFactorSet("inert", t_F, e_fstar, e_p, None)
    e_p = one
    for r1 in gr[:2]:
        for r2 in gr[2:]:
            e_p = e_p * (one - pt * r1 * r2 / astar)
    prod = gr[0] * gr[1] * gr[2] * gr[3]
    e_0p = one - ScaledPadic(ring.one, 2 * t_F) * prod / (astar * astar)
    return EulerFactorSet("split", t_F, e_fstar, e_p, e_0p)


# ---------------------------------------------------------------------------
# Split-case polynomial decomposition
# ---------------------------------------------------------------------------


def _poly_mul(a, b, ring):
    out = {}
    for (x1, y1), c1 in a.items():
        for (x2, y2), c2 in b.items():
            key = (x1 + x2, y1 + y2)
            v = c1 * c2
            out[key] = v if key not in out else out[key] + v
    return {k: v for k, v in out.items() if not v.is_zero()}


def _poly_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = v if k not in out else out[k] + v
    return {k: v for k, v in out.items() if not v.is_zero()}


def _quadratics(p1, p2, ring):
    """P1(T1) and P2(T2) from their (lam, c) pairs."""
    (lam1, c1), (lam2, c2) = p1, p2
    P1 = {(0, 0): ring.one, (1, 0): -lam1, (2, 0): c1}
    P2 = {(0, 0): ring.one, (0, 1): -lam2, (0, 2): c2}
    return P1, P2


def _quartic(lam1, c1, lam2, c2, ring):
    """P(T1 T2) = prod (1 - r1 r2 T1 T2) as a diagonal polynomial."""
    e1 = lam1 * lam2
    e2 = c2 * lam1 * lam1 + c1 * lam2 * lam2 - ring.from_int(2) * c1 * c2
    e3 = c1 * c2 * lam1 * lam2
    e4 = c1 * c1 * c2 * c2
    return {
        (0, 0): ring.one,
        (1, 1): -e1,
        (2, 2): e2,
        (3, 3): -e3,
        (4, 4): e4,
    }


def split_poly_decomp(p1, p2, ring: PadicRing):
    """Decompose P(T1 T2) = a2(T1,T2) P1(T1) + b1(T1,T2) P2(T2) with a2
    supported on monomials x <= y and b1 on x > y.

    p1, p2 are the quadratics given as (lam, c) = (alpha+beta, alpha*beta).
    The pair comes from the three-piece table of split_poly_decomp3:
    a2 = A + diag P2 and b1 = B; it is verified against the defining
    identity.
    """
    diag, A, B = split_poly_decomp3(p1, p2, ring)
    a2 = _poly_add(A, _poly_mul(diag, _quadratics(p1, p2, ring)[1], ring))
    _verify_decomp(a2, B, p1, p2, ring, three_piece=None)
    return a2, B


def split_poly_decomp3(p1, p2, ring: PadicRing):
    """The strict three-piece refinement
    P(T1 T2) = (1 - c1 c2 T1^2 T2^2) P1 P2 + A P1 + B P2
    with A strictly below the diagonal (x < y) and B strictly above."""
    lam1, c1 = p1
    lam2, c2 = p2
    A = {
        (0, 1): lam2,
        (0, 2): -c2,
        (1, 2): -c2 * lam1,
        (2, 4): c1 * c2 * c2,
    }
    B = {
        (1, 0): lam1,
        (2, 0): -c1,
        (2, 1): -c1 * lam2,
        (4, 2): c1 * c1 * c2,
    }
    A = {k: v for k, v in A.items() if not v.is_zero()}
    B = {k: v for k, v in B.items() if not v.is_zero()}
    diag = {(0, 0): ring.one, (2, 2): -c1 * c2}
    _verify_decomp(A, B, p1, p2, ring, three_piece=diag)
    return diag, A, B


def _verify_decomp(A, B, p1, p2, ring, three_piece):
    P1, P2 = _quadratics(p1, p2, ring)
    got = _poly_add(_poly_mul(A, P1, ring), _poly_mul(B, P2, ring))
    if three_piece is not None:
        got = _poly_add(got, _poly_mul(_poly_mul(three_piece, P1, ring), P2, ring))
    resid = _poly_add(_quartic(*p1, *p2, ring), {k: -v for k, v in got.items()})
    if resid:
        raise DecompositionFailed(f"decomposition residual at monomials {sorted(resid)}")
    for (x, y) in A:
        if three_piece is None and x > y:
            raise DecompositionFailed("a2 support leaked above the diagonal")
        if three_piece is not None and x >= y:
            raise DecompositionFailed("A support touched the diagonal")
    for (x, y) in B:
        if x <= y:
            raise DecompositionFailed("b1 support reached the diagonal")


def apply_vpoly(poly, f: HilbertQExp) -> HilbertQExp:
    """sum of coef * V_1^x V_2^y f over the monomials of poly."""
    cache = {(0, 0): f}

    def power(x, y):
        if (x, y) in cache:
            return cache[(x, y)]
        if x > 0:
            out = power(x - 1, y).v(1)
        else:
            out = power(x, y - 1).v(2)
        cache[(x, y)] = out
        return out

    acc = None
    for (x, y), coef in sorted(poly.items()):
        term = power(x, y).scale(coef)
        acc = term if acc is None else acc + term
    return acc


def apply_diag_poly(poly, f: HilbertQExp) -> HilbertQExp:
    """Apply a polynomial in V_0(p) given by its diagonal monomials."""
    acc = None
    degrees = {x for (x, y) in poly}
    top = max(degrees)
    current = {0: f}
    for j in range(1, top + 1):
        current[j] = current[j - 1].v_rational_p()
    for (x, y), coef in sorted(poly.items()):
        if x != y:
            raise ConfigError("apply_diag_poly needs a diagonal polynomial")
        term = current[x].scale(coef)
        acc = term if acc is None else acc + term
    return acc


# ---------------------------------------------------------------------------
# Auxiliary forms: h / h1 / h2 and the tau-images
# ---------------------------------------------------------------------------


def _echar(ring: PadicRing, k: int) -> WeightCharacter:
    return WeightCharacter.from_classical(
        PadicRing(ring.p, ring.N, 1), ring.p - 1, (k,)
    )


def _hchar(ctx, ints) -> WeightCharacter:
    return WeightCharacter.from_classical(
        PadicRing(ctx.p, ctx.N, 1), ctx.ring.residue_order(), ints
    )


def _tau_scalars(ring, ell1: int, s: int) -> list:
    """(-1)^j j! binom(ell1-2-s, j-s), j = s..ell1-2: the tau-sum scalars."""
    if s < 0 or s > ell1 - 2:
        raise ConfigError(f"s = {s} outside 0..ell1-2 = {ell1 - 2}")
    return [
        ring.from_int((-1) ** j * math.factorial(j) * math.comb(ell1 - 2 - s, j - s))
        for j in range(s, ell1 - 1)
    ]


def _tau_expansion(inner, k: int) -> NearlyOCExpansion:
    """sum_i inner[i] omega^(k-2-i) eta^i dq/q."""
    entries = [(z, k - 2 - i, i, True) for i, z in enumerate(inner)]
    return from_omega_eta(entries, _echar(inner[0].ring, k))


def _tau_sum(h: HilbertQExp, ell1: int, s: int, k: int, top: int):
    """sum_{j=s}^{ell1-2} (-1)^j j! binom(ell1-2-s, j-s)
        zeta*(d_1^(top-j) h) omega^(k-2-j+s) eta^(j-s) dq/q."""
    coefs = _tau_scalars(h.ring, ell1, s)
    return _tau_expansion(h.d_ladder(1, top - s, [coefs], restrict=True)[0], k)


def gz_sum(gdep: HilbertQExp, ell1: int, s: int, k: int) -> NearlyOCExpansion:
    """The displayed nearly overconvergent sum

        sum_{j=s}^{ell1-2} (-1)^j j! binom(ell1-2-s, j-s)
            zeta*(d_1^(-1-j) g) omega^(k-2-j+s) eta^(j-s) dq/q

    for a fully depleted g.  This is the split-case H' and, verbatim with
    the single inert depletion, the inert-case tau G.
    """
    return _tau_sum(gdep, ell1, s, k, -1)


def tau_image(h: HilbertQExp, ell1: int, s: int, k: int) -> NearlyOCExpansion:
    """tau of a primitive built from h in the sigma_1 direction:

        sum_{j=s}^{ell1-2} (-1)^j j! binom(ell1-2-s, j-s)
            zeta*(d_1^(ell1-2-j) h) omega^(k-2-j+s) eta^(j-s) dq/q.
    """
    return _tau_sum(h, ell1, s, k, ell1 - 2)


@dataclass
class SplitPrimitives:
    """The split-case pieces that the identity checks read, assembled and
    verified by build_split_primitives: h = h_main - h_corr, h1 and h2
    from the twisted three-piece polynomials poly_A_hat and poly_B_hat."""

    ell: tuple
    s: int
    k: int
    roots: tuple  # (alpha1, beta1, alpha2, beta2)
    g_pp: HilbertQExp
    g1: HilbertQExp  # d_1^(1-ell1) g^[p1]
    g2: HilbertQExp  # d_2^(1-ell2) g^[p2]
    u_scalar: PadicNum  # c1 c2 / p^(2(ell1-1))
    h: HilbertQExp
    h1: HilbertQExp
    h2: HilbertQExp
    poly_A_hat: dict
    poly_B_hat: dict
    h_main: HilbertQExp
    h_corr: HilbertQExp  # u * V_0(p)^2 h_main, so h = h_main - h_corr


def _untwist(poly, splitting, which_embed: int, exponent: int):
    """Divide the (x, y) coefficient by sigma(pi_1)^(x e) sigma(pi_2)^(y e)
    for sigma = sigma_which; exact p-power division or error."""
    s1 = splitting.embed(splitting.pi1, which_embed)
    s2 = splitting.embed(splitting.pi2, which_embed)
    # one of the two embeddings has valuation 1, the other is a unit
    out = {}
    for (x, y), coef in poly.items():
        val = ScaledPadic(coef)
        for base, mult in ((s1, x), (s2, y)):
            v = base.valuation()
            unit = base.divide_exact_ppow(v)
            val = val * ScaledPadic(unit.inv() ** (mult * exponent), -v * mult * exponent)
        if val.is_zero():
            out[(x, y)] = val.ring.zero
            continue
        if val.exponent < 0:
            raise InsufficientValuation(
                f"twisted coefficient at {(x, y)} is not p-integral "
                f"(p-exponent {val.exponent})"
            )
        out[(x, y)] = val.mantissa * val.ring.from_int(val.ring.p**val.exponent)
    return out


def build_split_primitives(
    g: HilbertQExp, roots, ell, s: int, k: int
) -> SplitPrimitives:
    """Assemble (h, h1, h2) for a split prime and a T_0-eigenform g with
    the given Hecke roots, keeping (ell, s, k) for the tau-sums that read
    them; s outside 0..ell1-2 is a ConfigError.

    The canonical one-sided splitting is used: g^[p_j] = d_j^(ell_j - 1)
    of an overconvergent form, which is valid because sigma_j is a unit on
    the p_j-coprime support.  The decomposition identity
        P(V_0(p)) g = d_1^(ell1-1) h + d_1^(ell1-1) h1 + d_2^(ell2-1) h2
    is verified exactly on the effective bound before returning, after
    the T_0 eigen check, the P_i(V_i) g = g^[p_i] cross-check and the
    self-checks of both polynomial decompositions.
    """
    ctx = g.ctx
    ring = ctx.ring
    ctx.sp.require("split")
    ell = tuple(ell)
    if ell[0] != ell[1]:
        raise ConfigError("eigen data normalization is pinned for parallel weights")
    if not 0 <= s <= ell[0] - 2:
        raise ConfigError(f"s = {s} outside 0..ell1-2 = {ell[0] - 2}")
    alpha1, beta1, alpha2, beta2 = roots
    lam = (alpha1 + beta1, alpha2 + beta2)
    c = (alpha1 * beta1, alpha2 * beta2)

    # eigen verification through t_op at both primes
    for i in (1, 2):
        te = g.t(i, ell[0])
        ref = g.scale(lam[i - 1])
        if agreement_valuation(te, ref, te.bound) < ring.N:
            raise NotEigenform(f"t_op residual nonzero at prime {i}")
        ci = ring.from_int(ctx.p ** (ell[0] - 1))
        if c[i - 1] != ci:
            raise NotEigenform(
                f"root product at prime {i} differs from the Hecke constant "
                f"p^(weight-1)"
            )

    dep1 = g.deplete((1,))
    dep2 = g.deplete((2,))
    g_pp = g.deplete("all")

    # cross-check: P_i(V_i) g = g^[p_i]
    for i, (lm, cc, dep) in enumerate(
        ((lam[0], c[0], dep1), (lam[1], c[1], dep2)), start=1
    ):
        poly = {(0, 0): ring.one}
        key1 = (1, 0) if i == 1 else (0, 1)
        key2 = (2, 0) if i == 1 else (0, 2)
        poly[key1] = -lm
        poly[key2] = cc
        lhs = apply_vpoly(poly, g)
        if agreement_valuation(lhs, dep, min(lhs.bound, dep.bound)) < ring.N:
            raise DecompositionFailed(f"P_{i}(V_{i}) g != g depleted at prime {i}")

    g1 = dep1.d_char(1, 1 - ell[0])
    g2 = dep2.d_char(2, 1 - ell[1])

    # u = c1 c2 / p^(2(ell1 - 1)); equal to 1 in the shipped normalization
    u_scaled = (ScaledPadic(c[0]) * ScaledPadic(c[1])) * ScaledPadic(
        ring.one, -2 * (ell[0] - 1)
    )
    if not u_scaled.is_zero() and u_scaled.exponent < 0:
        raise InsufficientValuation("c1 c2 has valuation below 2(ell1 - 1)")
    u_scalar = u_scaled.mantissa * ring.from_int(ring.p**max(u_scaled.exponent, 0))

    h_main = g_pp.d_char(1, 1 - ell[0])
    h_corr = h_main.v_rational_p().v_rational_p().scale(u_scalar)
    h = h_main - h_corr

    split_poly_decomp((lam[0], c[0]), (lam[1], c[1]), ring)  # self-checking
    _, A, B = split_poly_decomp3((lam[0], c[0]), (lam[1], c[1]), ring)
    poly_A_hat = _untwist(A, ctx.sp, 1, ell[0] - 1)
    poly_B_hat = _untwist(B, ctx.sp, 2, ell[1] - 1)

    h1 = apply_vpoly(poly_A_hat, g1)
    h2 = apply_vpoly(poly_B_hat, g2)

    # the decomposition identity, exact on the effective bound
    quartic = _quartic(lam[0], c[0], lam[1], c[1], ring)
    lhs = apply_diag_poly(quartic, g)
    rhs = h.d_char(1, ell[0] - 1) + h1.d_char(1, ell[0] - 1) + h2.d_char(2, ell[1] - 1)
    b = min(lhs.bound, rhs.bound)
    if agreement_valuation(lhs, rhs, b) < ring.N:
        raise DecompositionFailed(
            "P(V_0(p)) g != d^(ell-1) h + d^(ell-1) h1 + d^(ell-1) h2"
        )

    return SplitPrimitives(
        ell=ell,
        s=s,
        k=k,
        roots=tuple(roots),
        g_pp=g_pp,
        g1=g1,
        g2=g2,
        u_scalar=u_scalar,
        h=h,
        h1=h1,
        h2=h2,
        poly_A_hat=poly_A_hat,
        poly_B_hat=poly_B_hat,
        h_main=h_main,
        h_corr=h_corr,
    )


# ---------------------------------------------------------------------------
# Evaluation reports
# ---------------------------------------------------------------------------


def scaled_to_dict(x: Optional[ScaledPadic]) -> Optional[dict]:
    if x is None:
        return None
    if x.is_zero():
        return {
            "zero": True,
            "known_mod_p_power": x.exponent + x.prec,
        }
    return {
        "zero": False,
        "mantissa": digits(x.mantissa),
        "p_power": x.exponent,
        "mantissa_precision": x.prec,
    }


@dataclass
class EvaluationReport:
    """Value or identity-check result with full provenance."""

    kind: str
    config: dict
    value: Optional[ScaledPadic] = None
    effective_precision: Optional[int] = None
    budget: Optional[PrecisionBudget] = None
    lhs_agreement_table: Optional[list] = None
    agreement_valuation: Optional[int] = None
    certified_valuation: Optional[int] = None
    euler: Optional[EulerFactorSet] = None
    flags: list = dc_field(default_factory=list)
    notes: list = dc_field(default_factory=list)
    passed: Optional[bool] = None

    def to_dict(self) -> dict:
        from . import __version__

        out = {
            "version": __version__,
            "kind": self.kind,
            "config": dict(sorted(self.config.items())),
            "value": scaled_to_dict(self.value),
            "effective_precision": self.effective_precision,
            "budget": self.budget.trail() if self.budget else [],
            "agreement_valuation": self.agreement_valuation,
            "certified_valuation": self.certified_valuation,
            "agreement_table": self.lhs_agreement_table,
            "flags": sorted(self.flags),
            "notes": list(self.notes),
            "passed": self.passed,
        }
        if self.euler is not None:
            out["euler"] = {
                "kind": self.euler.kind,
                "t_F": self.euler.t_F,
                "E_fstar": scaled_to_dict(self.euler.e_fstar),
                "E_p": scaled_to_dict(self.euler.e_p),
                "E_0p": scaled_to_dict(self.euler.e_0p),
            }
        return out


# ---------------------------------------------------------------------------
# Gross-Zagier-type identity checks
# ---------------------------------------------------------------------------


def _classify_or_die(ell, s, k):
    from .weights import WeightPair

    c = classify_pair(WeightPair.from_ell_k(ell, k))
    if c.kind != "balanced" or c.s != s:
        raise ConfigError(
            f"(ell, k) = ({ell}, {k}) is not balanced with s = {s}: {c}"
        )
    return c


def gz_sides(gdep: HilbertQExp, ell, s: int, k: int):
    """(gz_sum, (-1)^s s! zeta_star_nabla_pow) of gdep at (ell, s, k): the
    two sides of the identity, read off one d_ladder pass."""
    ctx, ring = gdep.ctx, gdep.ring
    r = _hchar(ctx, (-s - 1, 0))
    weight, exponent, nabla = nabla_scalars(ring, _hchar(ctx, ell), r)
    rhs, lhs = gdep.d_ladder(1, exponent, [nabla, _tau_scalars(ring, ell[0], s)], True)
    sign = ring.from_int((-1) ** s * math.factorial(s))
    return _tau_expansion(lhs, k), zeta_star_nabla_terms(weight, rhs).scale(sign)


def verify_gz(g: HilbertQExp, ell, s: int, k: int, config=None):
    """Identity check for the splitting kind of g's prime (g.ctx.sp.kind):

    inert:  tau G  ==  (-1)^s s! zeta*(nabla^(-s-1,0) g^[p]),
            exact before any projection;
    split:  H(H')  ==  (-1)^s s! H(zeta* nabla^(-s-1,0) g^[P]),
            compared after the overconvergent projection at weight k.

    The sides share only the rows zeta*(d_1^(-s-1-j) g^[P]) of one ladder
    pass (`gz_sides`): the nabla^r scalars with their p^j, and the tau
    coefficients with from_omega_eta's p^b, stay independent.  Sides that
    both vanish mod p^N compare nothing: PrecisionExhausted, not a PASS.
    """
    config = dict(config or {})
    _classify_or_die(tuple(ell), s, k)
    ctx = g.ctx
    ring = ctx.ring
    kind = ctx.sp.kind
    gdep = g.deplete("all")
    if gdep.is_zero():
        raise ConfigError(
            f"the depleted input has no coefficient up to trace {g.bound}: "
            "nothing to compare"
        )
    lhs_noc, rhs_noc = gz_sides(gdep, ell, s, k)
    if all(f.is_zero() for x in (lhs_noc, rhs_noc) for f in x.terms.values()):
        raise PrecisionExhausted(
            f"both sides vanish mod p^{ring.N}: no coefficient to compare"
        )
    table = [
        {"v_degree": deg[0], "agreement": val}
        for deg, val in degree_agreements(lhs_noc, rhs_noc)
    ]
    pre_agreement = min((row["agreement"] for row in table), default=ring.N)

    report = EvaluationReport(
        kind=f"gz-{kind}",
        config={**config, "ell": list(ell), "s": s, "k": k, "p": ctx.p, "N": ring.N},
    )
    report.lhs_agreement_table = table

    if kind == "inert":
        report.agreement_valuation = pre_agreement
        report.certified_valuation = ring.N
        report.budget = PrecisionBudget(ring.N)
        report.passed = pre_agreement >= ring.N
        report.effective_precision = ring.N
        return report

    lhs_proj = oc_project(lhs_noc, k)
    rhs_proj = oc_project(rhs_noc, k)
    shift = max(lhs_proj.shift, rhs_proj.shift)
    f1 = lhs_proj.form.scale(ring.from_int(ring.p ** (shift - lhs_proj.shift)))
    f2 = rhs_proj.form.scale(ring.from_int(ring.p ** (shift - rhs_proj.shift)))
    observed = agreement_valuation(f1, f2, min(f1.bound, f2.bound))
    budget = PrecisionBudget(ring.N)
    loss = max(lhs_proj.budget.total_loss, rhs_proj.budget.total_loss)
    if loss:
        budget.charge("overconvergent projection (worst path)", loss)
    denom_loss = max(
        sum(v for t, v in lhs_proj.budget.losses if "denominator" in t),
        sum(v for t, v in rhs_proj.budget.losses if "denominator" in t),
    )
    report.notes.append(
        {"pre_projection_agreement": pre_agreement, "denominator_loss": denom_loss,
         "observed_agreement": observed}
    )
    report.budget = budget
    report.effective_precision = ring.N - budget.total_loss
    report.certified_valuation = report.effective_precision
    # never claim agreement beyond the certified precision
    report.agreement_valuation = min(observed, report.certified_valuation)
    report.passed = observed >= report.certified_valuation
    return report


# ---------------------------------------------------------------------------
# L-value and Abel-Jacobi evaluators
# ---------------------------------------------------------------------------


def _project_and_pair(build, gdep, k, basis, block, budget, flags):
    """< H(build(gdep)), f* > / < f*, f* > as a ScaledPadic, with the
    projection and pairing losses absorbed into budget and an out-of-span
    pairing input flagged.  Returns (value, projection shift).

    build and the projection act trace by trace, and the pairing reads
    the canonical rows, then residuals in increasing trace.  So gdep is
    cut at the last canonical row first, and built whole only when no
    residual shows by then; a canonical_rows error is left to eigen_pair.
    """
    try:
        canon = canonical_rows(basis)
    except UnderDetermined:
        canon = None
    top = canon[0][-1] if canon else gdep.bound
    for h in ([gdep.truncated(top)] if top < gdep.bound else []) + [gdep]:
        proj = oc_project(build(h), k)
        pair, pair_budget, in_span = eigen_pair(proj.form, basis, block, "flag", canon)
        if not in_span:
            break
    budget.absorb(proj.budget)
    budget.absorb(pair_budget)
    if not in_span:
        flags.append(
            "pairing input outside the classical span: the value is the "
            "isotypic coordinate of its span component"
        )
    return pair * ScaledPadic(proj.form.ring.one, -proj.shift), proj.shift


def lp_balanced(
    g: HilbertQExp,
    basis: ClassicalBasis,
    block: EigenBlock,
    ell,
    s: int,
    config=None,
) -> EvaluationReport:
    """The balanced-weight specialization

        < H^(dagger, <= a) (zeta* nabla^(-s-1,0) g^[P]), f* > / < f*, f* >

    at the slope bound a = slope of f* (block.slopes[0], recorded in the
    report config), realized by the pipeline deplete -> nabla_pow and
    diagonal restriction in one ladder (zeta_star_nabla_pow) ->
    overconvergent projection -> isotypic pairing in the classical basis.
    The pairing functional is coordinate extraction at the canonical rows;
    out-of-span residuals are flagged, not fatal, and the report documents
    them.  The ladder runs to g's bound only when no residual shows by the
    last canonical row (`_project_and_pair`).
    """
    config = dict(config or {})
    ell = tuple(ell)
    k = ell[0] + ell[1] - 2 * (s + 1)
    _classify_or_die(ell, s, k)
    ctx = g.ctx
    ring = ctx.ring
    if basis.ring != ring:
        raise ConfigError("basis and form live over different rings")
    if basis.weight != k:
        raise ConfigError(f"basis weight {basis.weight} != k = {k}")

    config.setdefault("basis", basis_fingerprint(basis))
    budget = PrecisionBudget(ring.N)
    gdep = g.deplete("all")
    k_ell, r = _hchar(ctx, ell), _hchar(ctx, (-s - 1, 0))
    flags = []
    value, shift = _project_and_pair(
        lambda h: zeta_star_nabla_pow(h, k_ell, r), gdep, k, basis, block, budget, flags
    )
    return EvaluationReport(
        kind="lp-balanced",
        config={
            **config,
            "ell": list(ell),
            "s": s,
            "k": k,
            "p": ctx.p,
            "N": ring.N,
            "slope_bound": str(block.slopes[0]),
            "splitting": ctx.sp.kind,
        },
        value=value,
        budget=budget,
        effective_precision=budget.effective,
        flags=flags,
        notes=[
            "stabilization eigen data is taken on trust from the supplied basis",
            {"projection_shift": shift},
        ],
    )


def aj_value(
    g: HilbertQExp,
    basis: ClassicalBasis,
    block: EigenBlock,
    roots,
    ell,
    s: int,
    config=None,
) -> EvaluationReport:
    """The Abel-Jacobi value, defined inside this artifact by the
    right-hand sides of the Gross-Zagier-type formulas:

        split:  E(f*) (E_0p / E_p) < e^(<=a) H(H'), f* > / < f*, f* >
        inert:  E(f*) (1 / E_p)   < e^(<=a) H(tau G), f* > / < f*, f* >

    at the slope bound a = slope of f* (block.slopes[0], recorded in the
    report notes), for the splitting kind of g's prime (g.ctx.sp.kind).
    roots are g's Hecke roots at the primes above p, two per prime (see
    euler_factors); a count that does not fit the prime is a ConfigError.
    The pairing realization is taken at tame level, so the stabilization
    comparison factor E(f*) = 1 - beta*/alpha* is applied explicitly; the
    main-theorem relation against lp_balanced then holds by construction,
    with the non-circular content living in the verified q-expansion
    identities (see verify_gz and the decomposition/vanishing checks).
    The ladder runs only for a value not withheld, and as in lp_balanced.
    """
    config = dict(config or {})
    ell = tuple(ell)
    k = ell[0] + ell[1] - 2 * (s + 1)
    _classify_or_die(ell, s, k)
    config.setdefault("basis", basis_fingerprint(basis))
    ctx = g.ctx
    ring = ctx.ring
    kind = ctx.sp.kind
    budget = PrecisionBudget(ring.N)
    want = 2 * len(ctx.primes_above_p())
    if len(roots) != want:
        raise ConfigError(
            f"{kind} p = {ctx.p} needs {want} Hecke roots, got {len(roots)}"
        )
    gdep = g.deplete("all")
    euler = euler_factors(roots, (block.alpha, block.beta), -s - 1)
    report = EvaluationReport(
        kind=f"aj-{kind}",
        config={
            **config,
            "ell": list(ell),
            "s": s,
            "k": k,
            "p": ctx.p,
            "N": ring.N,
            "splitting": ctx.sp.kind,
        },
        euler=euler,
    )
    report.notes.append(
        "AJ is defined by the q-expansion right-hand side of the "
        "Gross-Zagier-type formula; the cycle-theoretic side is not modeled."
    )
    if euler.exceptional_zero():
        report.flags.append("exceptional zero: vanishing Euler factor, value withheld")
        report.passed = False
        report.budget = budget
        return report

    pair, shift = _project_and_pair(
        lambda h: gz_sum(h, ell[0], s, k), gdep, k, basis, block, budget, report.flags
    )
    if kind == "split":
        value = euler.e_fstar * (euler.e_0p / euler.e_p) * pair
    else:
        value = euler.e_fstar * pair / euler.e_p
    report.value = value
    report.budget = budget
    report.effective_precision = budget.effective
    report.notes.append(
        {"projection_shift": shift, "slope_bound": str(block.slopes[0])}
    )
    return report


def main_theorem_residual(
    lp_report: EvaluationReport, aj_report: EvaluationReport, s: int
) -> ScaledPadic:
    """lp - (-1)^s/(s! E(f*)) * (E_p/E_0p | E_p) * AJ; zero by construction
    whenever the verified q-expansion identity holds."""
    euler = aj_report.euler
    ring = euler.e_fstar.ring
    factor = ScaledPadic(ring.from_int((-1) ** s)) / (
        ScaledPadic(ring.from_int(math.factorial(s))) * euler.e_fstar
    )
    if euler.kind == "split":
        factor = factor * (euler.e_p / euler.e_0p)
    else:
        factor = factor * euler.e_p
    return lp_report.value - factor * aj_report.value


# ---------------------------------------------------------------------------
# kappa calibration and the E_0p pairing relation
# ---------------------------------------------------------------------------


def kappa_empirical(basis: ClassicalBasis, block: EigenBlock) -> ScaledPadic:
    """The V-shift constant of the pairing functional, calibrated by brute
    force on the reference input V f: equal to 1/(alpha - beta), which
    agrees with the spectral constant 1/alpha to the slope gap."""
    val, _, _ = eigen_pair(
        basis.forms[block.vf_index], basis, block, on_residual="flag"
    )
    return val


def kappa_structural(block: EigenBlock) -> ScaledPadic:
    """1/alpha*: V acts as U^(-1) on the slope <= a quotient."""
    return ScaledPadic(block.alpha).inv()


def verify_e0p_relation(
    prim: SplitPrimitives, basis: ClassicalBasis, block: EigenBlock
):
    """The split-case pairing invariant

        pair(e H(tau H)) = E_0p * pair(e H(H'))

    with the V_p^2-graded part of tau H paired through kappa^2.  Returns a
    dict with the calibrated kappa, both sides, and the graded-part
    coefficient check w_2 == u p^(2(ell1-2-s)) H(tau(h_main))."""
    ctx = prim.g_pp.ctx
    ring = ctx.ring
    ell1, s, k = prim.ell[0], prim.s, prim.k
    kappa = kappa_empirical(basis, block)

    part0 = oc_project(tau_image(prim.h_main, ell1, s, k), k)
    corr = oc_project(tau_image(prim.h_corr, ell1, s, k), k)
    w2 = corr.form.u().u()  # strip the V_p^2

    expect = part0.form.scale(
        prim.u_scalar * ring.from_int(ctx.p ** (2 * (ell1 - 2 - s)))
    )
    b = min(w2.bound, expect.bound)
    graded_ok = agreement_valuation(w2, expect, b) >= ring.N - max(
        part0.budget.total_loss, corr.budget.total_loss
    )

    pair0, bud0, _ = eigen_pair(part0.form, basis, block, on_residual="flag")
    pair0 = pair0 * ScaledPadic(ring.one, -part0.shift)
    pair2, bud2, _ = eigen_pair(w2, basis, block, on_residual="flag")
    pair2 = pair2 * ScaledPadic(ring.one, -corr.shift)

    lhs = pair0 - kappa * kappa * pair2
    euler = euler_factors(prim.roots, (block.alpha, block.beta), -s - 1)
    hp = oc_project(gz_sum(prim.g_pp, ell1, s, k), k)
    pair_hp, _, _ = eigen_pair(hp.form, basis, block, on_residual="flag")
    pair_hp = pair_hp * ScaledPadic(ring.one, -hp.shift)
    rhs = euler.e_0p * pair_hp
    return {
        "kappa": kappa,
        "kappa_structural": kappa_structural(block),
        "graded_part_ok": graded_ok,
        "lhs": lhs,
        "rhs": rhs,
        "ok": (lhs - rhs).is_zero() and graded_ok,
    }


# ---------------------------------------------------------------------------
# U-annihilation certificates (the e^(<= a) vanishing of tau H_1 + tau H_2)
# ---------------------------------------------------------------------------


def u_annihilation_certificate(prim: SplitPrimitives) -> list:
    """Certify e^(<=a)(tau H_1 + tau H_2) = 0: every V_p-graded piece of
    every zeta*(d^n h_i) is annihilated by one application of U, exactly,
    on the effective bound.  Since the finite-slope projector is a
    convergent series in U without constant term, each piece has zero
    image.  Returns one record per (side, monomial, n)."""
    out = []
    ell1, ell2, s = prim.ell[0], prim.ell[1], prim.s
    for side, poly, gbase, elld in (
        (1, prim.poly_A_hat, prim.g1, ell1),
        (2, prim.poly_B_hat, prim.g2, ell2),
    ):
        top = elld - 1 - s
        # d_side^n gbase for n = 0..top, from one ladder
        powers = gbase.d_ladder(side, top, [[gbase.ring.one] * (top + 1)])[0][::-1]
        for (x, y), coef in sorted(poly.items()):
            vp_grade = min(x, y)
            for n, d in enumerate(powers):
                piece = d.scale(coef)
                for _ in range(x):
                    piece = piece.v(1)
                for _ in range(y):
                    piece = piece.v(2)
                w = piece.zeta_star()
                for _ in range(vp_grade):
                    w = w.u()
                killed = w.u()
                out.append(
                    {
                        "side": side,
                        "monomial": (x, y),
                        "d_power": n,
                        "checked_bound": killed.bound,
                        "ok": killed.is_zero() and killed.bound >= 1,
                    }
                )
    return out
