"""Seeded inputs and reference implementations shared by the unit tests."""

import random

from padicgz.errors import InsufficientValuation, NonUnitInverse, ZeroDenominator
from padicgz.heckeslope import eigen_pair
from padicgz.nearlyoc import OCProjection, oc_project
from padicgz.padic import PadicNum, PrecisionBudget, ScaledPadic
from padicgz.qexp import EllipticQExp, HilbertQExp
from padicgz.quadfield import SUPPORT_DINV, ideal_divisors, tot_pos_enum


def random_elliptic(seed: int, ring, B: int) -> EllipticQExp:
    """Pseudorandom coefficients at every index 0..B."""
    rng = random.Random(seed)
    return EllipticQExp(
        ring, B, {n: ring.make(rng.randrange(ring.modulus)) for n in range(B + 1)}
    )


def eisenstein_by_key(k: int, ctx, B: int) -> HilbertQExp:
    """Reference for formgen.hilbert_eisenstein: each key's divisors are
    factored and summed on their own, with no table and no sharing."""
    ring = ctx.ring
    coeffs = {}
    for key in tot_pos_enum(ctx.field, SUPPORT_DINV, B):
        if key == (0, 0):
            continue
        total = 0
        for norm in ideal_divisors(ctx.field, key):
            total += pow(norm, k - 1, ring.modulus)
        coeffs[key] = PadicNum(ring, total % ring.modulus)
    return HilbertQExp(ctx, SUPPORT_DINV, B, coeffs, weight_tag=(k, k))


def valuation_by_digits(ring, *xs) -> int:
    """Reference for PadicRing.valuation_of: p divided out of each nonzero
    int one digit at a time, capped at N (N when every one is 0)."""
    v = ring.N
    for c in xs:
        if c:
            w = 0
            while c % ring.p == 0 and w < v:
                c //= ring.p
                w += 1
            v = min(v, w)
    return v


def agreement_by_difference(f, g, bound=None) -> int:
    """Reference for qexp.agreement_valuation: the least valuation of the
    built difference f - g, truncated to the bound."""
    diff = f - g
    if bound is not None:
        diff = diff.truncated(min(bound, diff.bound))
    vals = [valuation_by_digits(v.ring, v.a, v.b) for v in diff.coeffs.values()]
    return min(vals) if vals else diff.ring.N


def divisibility_by_key(gamma):
    """Reference for NearlyOCExpansion.assert_divisibility: every key of
    every term, in order, at every V-degree."""
    for d, c in gamma.terms.items():
        need = sum(d)
        for key, v in c.coeffs.items():
            val = valuation_by_digits(v.ring, v.a, v.b)
            if val < need:
                raise InsufficientValuation(
                    f"V-degree {d} coefficient at {key} has valuation {val} < {need}"
                )
    return gamma


def oc_project_by_chain(gamma, k: int) -> OCProjection:
    """Reference for nearlyoc.oc_project at weight k: each degree's p^i is
    divided out coefficient by coefficient, d is applied i times, and the
    scaled terms are summed as q-expansions."""
    ring = gamma.ring
    p, N = ring.p, ring.N
    budget = PrecisionBudget(N)
    degrees = [d[0] for d in gamma.degrees()]
    denoms = {}
    for i in degrees:
        den = 1
        for m in range(1, i + 1):
            factor = k - 2 - i + m
            if factor == 0:
                raise ZeroDenominator(
                    f"projection denominator factor k-2-{i}+{m} = 0 at weight {k}"
                )
            den *= factor
        v, d0 = 0, abs(den)
        while d0 % p == 0:
            d0 //= p
            v += 1
        denoms[i] = (den, v)
    worst = max(i + denoms[i][1] for i in degrees)
    if worst:
        i_star = max(degrees, key=lambda i: i + denoms[i][1])
        if i_star:
            budget.charge(f"V^{i_star} coefficient extraction", i_star)
        if denoms[i_star][1]:
            budget.charge(
                f"projection denominator at degree {i_star}", denoms[i_star][1]
            )
    shift = max(denoms[i][1] for i in degrees)
    acc = None
    for i in degrees:
        c = gamma.terms[(i,)]
        try:
            num = c._like({key: v.divide_exact_ppow(i) for key, v in c.coeffs.items()})
        except NonUnitInverse as e:
            raise InsufficientValuation(str(e)) from None
        for _ in range(i):
            num = num.d()
        den, v = denoms[i]
        unit = ring.from_int((-1) ** i * (den // p**v)).inv()
        term = num.scale(unit * ring.from_int(p ** (shift - v)))
        acc = term if acc is None else acc + term
    out = EllipticQExp(ring, acc.bound, acc.coeffs, weight_tag=k)
    return OCProjection(out, budget, shift)


def project_and_pair_full(build, gdep, k, basis, block, budget, flags):
    """Reference for lvalue._project_and_pair: the pairing input built from
    the whole of gdep, projected and paired in one pass at its bound."""
    proj = oc_project(build(gdep), k)
    budget.absorb(proj.budget)
    pair, pair_budget, in_span = eigen_pair(proj.form, basis, block, on_residual="flag")
    budget.absorb(pair_budget)
    if not in_span:
        flags.append(
            "pairing input outside the classical span: the value is the "
            "isotypic coordinate of its span component"
        )
    return pair * ScaledPadic(proj.form.ring.one, -proj.shift), proj.shift
