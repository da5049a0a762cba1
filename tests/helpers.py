"""Seeded inputs and reference implementations shared by the unit tests."""

import random

from padicgz.padic import PadicNum
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
