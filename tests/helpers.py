"""Seeded inputs shared by the unit tests."""

import random

from padicgz.qexp import EllipticQExp


def random_elliptic(seed: int, ring, B: int) -> EllipticQExp:
    """Pseudorandom coefficients at every index 0..B."""
    rng = random.Random(seed)
    return EllipticQExp(
        ring, B, {n: ring.make(rng.randrange(ring.modulus)) for n in range(B + 1)}
    )
