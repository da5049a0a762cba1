"""Finite-slope linear algebra on classical q-expansion spaces.

A classical basis is a list of q-expansions organized in 2x2 blocks
(f, V f) per eigenform; the U operator acts on each block by the closed
matrix [[a_p, 1], [-c, 0]] with c = p^(k-1) * nebentype.  Slope
projectors and the isotypic pairing are computed through exact Cramer
solves at canonical coefficient rows; the determinant's valuation is the
basis's inherent coordinate-extraction loss and is charged to the
precision budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .errors import (
    ConfigError,
    EqualSlopes,
    NotInSpan,
    NotSeparated,
    NotUStable,
    UnderDetermined,
)
from .padic import PadicNum, PadicRing, PrecisionBudget, ScaledPadic
from .qexp import EllipticQExp


def sqrt_one_unit(y: PadicNum) -> PadicNum:
    """Square root of y == 1 mod p, the branch == 1 mod p (p odd)."""
    ring = y.ring
    if (y - ring.one).valuation() < 1:
        raise ConfigError("sqrt_one_unit needs y == 1 mod p")
    x = ring.one
    inv2 = ring.from_int(2).inv()
    for _ in range(ring.N.bit_length() + 2):
        x = (x + y * x.inv()) * inv2
    return x


def hecke_roots(a_p: PadicNum, k: int, nebentype, ring: PadicRing):
    """Roots (alpha, beta) of X^2 - a_p X + c, c = p^(k-1) * nebentype,
    ordered by slope (alpha smaller).  Raises EqualSlopes when the Newton
    polygon has a single segment."""
    if isinstance(nebentype, int):
        nebentype = ring.from_int(nebentype)
    c = ring.from_int(ring.p ** (k - 1)) * nebentype
    va = a_p.valuation()
    vc = k - 1 + nebentype.valuation()
    if 2 * va >= vc:
        raise EqualSlopes(
            f"Newton slopes of X^2 - a_p X + p^{k - 1} coincide (v(a_p) = {va})"
        )
    # alpha = a_p (1+s)/2 with s = sqrt(1 - 4c/a_p^2); the correction term
    # has valuation vc - 2va >= 1, so the root stays in the ring
    corr = (ScaledPadic(ring.from_int(4)) * ScaledPadic(c)) / (
        ScaledPadic(a_p) * ScaledPadic(a_p)
    )
    if corr.is_zero():
        y = ring.one
    else:
        y = ring.one - corr.mantissa * ring.from_int(ring.p**corr.exponent)
    s = sqrt_one_unit(y)
    inv2 = ring.from_int(2).inv()
    alpha = a_p * (ring.one + s) * inv2
    beta = a_p - alpha
    return alpha, beta, (va, vc - va)


def pstabilize(f: EllipticQExp, a_p: PadicNum, k: int, nebentype, root="alpha"):
    """f - beta V f (root='alpha') or f - alpha V f (root='beta'): the
    U-eigenform with the chosen eigenvalue."""
    alpha, beta, _ = hecke_roots(a_p, k, nebentype, f.ring)
    other = beta if root == "alpha" else alpha
    return f - f.v().scale(other)


@dataclass
class EigenBlock:
    f_index: int
    vf_index: int
    a_p: PadicNum
    nebentype: PadicNum
    alpha: Optional[PadicNum] = None
    beta: Optional[PadicNum] = None
    slopes: Optional[tuple] = None
    equal_slopes: bool = False


@dataclass
class ClassicalBasis:
    ring: PadicRing
    weight: int
    tame_level: int
    forms: List[EllipticQExp]
    blocks: List[EigenBlock]
    U_stable: bool = False

    @property
    def dim(self) -> int:
        return len(self.forms)

    @property
    def depth(self) -> int:
        return min(f.bound for f in self.forms)

    def __post_init__(self):
        covered = sorted(
            i for b in self.blocks for i in (b.f_index, b.vf_index)
        )
        if covered != list(range(self.dim)):
            raise NotSeparated("eigen blocks must cover the basis exactly once")
        for b in self.blocks:
            try:
                b.alpha, b.beta, b.slopes = hecke_roots(
                    b.a_p, self.weight, b.nebentype, self.ring
                )
            except EqualSlopes:
                b.equal_slopes = True
                vc = self.weight - 1 + (
                    b.nebentype.valuation() if isinstance(b.nebentype, PadicNum) else 0
                )
                b.slopes = (Fraction(vc, 2), Fraction(vc, 2))


def u_matrix(basis: ClassicalBasis):
    """The U matrix in the closed 2x2 block form, verified against u_op
    on every basis element to the certified depth."""
    ring = basis.ring
    p = ring.p
    n = basis.dim
    depth = basis.depth // p
    if depth < n:
        raise UnderDetermined(
            f"basis depth {basis.depth} gives only {depth} U-verified "
            f"coefficients for dimension {n}"
        )
    M = [[ring.zero for _ in range(n)] for _ in range(n)]
    c_of = {}
    for b in basis.blocks:
        c = ring.from_int(p ** (basis.weight - 1)) * b.nebentype
        c_of[b.f_index] = c
        M[b.f_index][b.f_index] = b.a_p
        M[b.vf_index][b.f_index] = -c
        M[b.f_index][b.vf_index] = ring.one
    # verification: u_op(b_i) == sum_j M[j][i] b_j coefficientwise
    for i in range(n):
        got = basis.forms[i].u()
        for m in range(min(depth, got.bound) + 1):
            want = ring.zero
            for j in range(n):
                if not M[j][i].is_zero():
                    want = want + M[j][i] * basis.forms[j].coeff(m)
            if got.coeff(m) != want:
                raise NotUStable(
                    f"U residual nonzero at basis element {i}, index {m}"
                )
    basis.U_stable = True
    return M


def mat_mul(A, B, ring):
    n = len(A)
    return [
        [
            sum((A[i][k] * B[k][j] for k in range(n)), ring.zero)
            for j in range(n)
        ]
        for i in range(n)
    ]


def mat_pow(A, e: int, ring):
    n = len(A)
    R = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    base = A
    while e:
        if e & 1:
            R = mat_mul(R, base, ring)
        base = mat_mul(base, base, ring)
        e >>= 1
    return R


def _det(mat, ring):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = ring.zero
    for j in range(n):
        if mat[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = mat[0][j] * _det(minor, ring)
        total = total + term if j % 2 == 0 else total - term
    return total


def canonical_rows(basis: ClassicalBasis):
    """Smallest coefficient indices certifying q-adic independence of the
    basis: rows are accepted greedily whenever they enlarge the rank (a
    nonzero minor at working precision).  Returns (indices, matrix, det).

    The determinant's valuation is the inherent coordinate-extraction
    loss of the basis; it can be positive (e.g. E_12 == V E_12 mod 7).
    """
    from itertools import combinations

    ring = basis.ring
    n = basis.dim
    rows, idx = [], []
    for m in range(basis.depth + 1):
        cand = [basis.forms[j].coeff(m) for j in range(n)]
        r = len(rows) + 1
        ok = False
        for cols in combinations(range(n), r):
            sub = [[row[c] for c in cols] for row in rows + [cand]]
            if not _det(sub, ring).is_zero():
                ok = True
                break
        if ok:
            rows.append(cand)
            idx.append(m)
            if len(rows) == n:
                break
    if len(rows) < n:
        raise UnderDetermined(
            "no coefficient rows certify independence at working precision"
        )
    det = _det(rows, ring)
    return idx, rows, det


def _cofactor_solve(rows, det, vec, ring):
    """Cramer solution of rows * x = vec as ScaledPadic entries."""
    n = len(rows)
    dets = []
    for i in range(n):
        mat = [
            [vec[r] if c == i else rows[r][c] for c in range(n)]
            for r in range(n)
        ]
        dets.append(_det(mat, ring))
    d = ScaledPadic(det)
    return [ScaledPadic(x) / d for x in dets]


@dataclass
class SlopeProjection:
    coords: list
    kept_coords: list  # ScaledPadic eigen-projected coordinates
    form: Optional[EllipticQExp]  # p^shift times the true projection
    shift: int
    in_span: bool
    budget: PrecisionBudget


def coordinates(
    basis: ClassicalBasis, gamma: EllipticQExp, on_residual="raise", canon=None
):
    """Coordinates of gamma in the basis (ScaledPadic entries, precision
    capped by the basis determinant valuation), with a residual check up
    to the common depth of the basis and gamma.  A nonzero residual raises
    NotInSpan, or with on_residual='flag' sets in_span to False.  A gamma
    whose bound stops short of the last canonical row is a ConfigError.
    canon is canonical_rows(basis) when the caller already has it.

    Returns (coords, det_loss, in_span).
    """
    ring = basis.ring
    idx, rows, det = canon or canonical_rows(basis)
    if gamma.bound < idx[-1]:
        raise ConfigError(
            f"input bound {gamma.bound} is below the basis's canonical row "
            f"{idx[-1]}: use a bound >= {idx[-1]}"
        )
    det_loss = det.valuation()
    vec = [gamma.coeff(m) for m in idx]
    coords = _cofactor_solve(rows, det, vec, ring)
    depth = min(basis.depth, gamma.bound)
    in_span = True
    for m in range(depth + 1):
        want = None
        for j in range(basis.dim):
            t = coords[j] * basis.forms[j].coeff(m)
            want = t if want is None else want + t
        if not (want - ScaledPadic(gamma.coeff(m))).is_zero():
            in_span = False
            if on_residual == "raise":
                raise NotInSpan(
                    f"residual nonzero at q^{m}: the classical basis is too "
                    "small for this input"
                )
            break
    return coords, det_loss, in_span


def slope_project(
    gamma: EllipticQExp,
    basis: ClassicalBasis,
    a,
    on_residual="raise",
) -> SlopeProjection:
    """Projection onto the slope <= a part of the basis span.

    The input must lie in the span to the checked depth (NotInSpan
    otherwise; on_residual='flag' records the failure instead, which
    makes the result the projection of the span-coordinate part).
    """
    ring = basis.ring
    coords, det_loss, in_span = coordinates(basis, gamma, on_residual)
    budget = PrecisionBudget(ring.N)
    if det_loss:
        budget.charge("basis coordinate determinant", det_loss)
    zero = ScaledPadic(ring.zero)
    kept = [zero] * basis.dim
    worst = 0
    for b in basis.blocks:
        cf = coords[b.f_index]
        cvf = coords[b.vf_index]
        if b.equal_slopes:
            if b.slopes[0] <= a:
                kept[b.f_index], kept[b.vf_index] = cf, cvf
            continue
        denom = ScaledPadic(b.alpha - b.beta)
        worst = max(worst, b.alpha.valuation())
        x = (cf * b.alpha + cvf) / denom
        y = -(cf * b.beta + cvf) / denom
        if b.slopes[0] <= a:
            kept[b.f_index] = kept[b.f_index] + x
            kept[b.vf_index] = kept[b.vf_index] - x * b.beta
        if b.slopes[1] <= a:
            kept[b.f_index] = kept[b.f_index] + y
            kept[b.vf_index] = kept[b.vf_index] - y * b.alpha
    if worst:
        budget.charge("slope separation alpha-beta", worst)
    # pull a common p-power so the reconstructed form stays integral
    shift = max((-c.exponent for c in kept if not c.is_zero()), default=0)
    shift = max(shift, 0)
    form = None
    p = ring.p
    for j in range(basis.dim):
        if kept[j].is_zero():
            continue
        c = kept[j].mantissa * p ** (kept[j].exponent + shift)
        contrib = basis.forms[j].scale(c)
        form = contrib if form is None else form + contrib
    if form is None:
        form = EllipticQExp(ring, basis.depth)
    return SlopeProjection(coords, kept, form, shift, in_span, budget)


def projector_matrix(basis: ClassicalBasis, a):
    """The e^(<= a) matrix on basis coordinates; requires integral block
    separations (v(alpha - beta) = 0 on every contributing block)."""
    ring = basis.ring
    n = basis.dim
    P = [[ring.zero for _ in range(n)] for _ in range(n)]
    for b in basis.blocks:
        if b.equal_slopes:
            if b.slopes[0] <= a:
                P[b.f_index][b.f_index] = ring.one
                P[b.vf_index][b.vf_index] = ring.one
            continue
        if b.slopes[0] > a and b.slopes[1] > a:
            continue
        denom = b.alpha - b.beta
        if denom.valuation() > 0:
            raise UnderDetermined(
                "projector matrix needs a unit alpha - beta; use slope_project"
            )
        dinv = denom.inv()
        for root, other, keep in (
            (b.alpha, b.beta, b.slopes[0] <= a),
            (b.beta, b.alpha, b.slopes[1] <= a),
        ):
            if not keep:
                continue
            # column vector (1, -other), row vector (root, 1) / (root - other)
            sign = dinv if root is b.alpha else -dinv
            P[b.f_index][b.f_index] = P[b.f_index][b.f_index] + root * sign
            P[b.f_index][b.vf_index] = P[b.f_index][b.vf_index] + sign
            P[b.vf_index][b.f_index] = P[b.vf_index][b.f_index] - other * root * sign
            P[b.vf_index][b.vf_index] = P[b.vf_index][b.vf_index] - other * sign
    return P


def ordinary_limit(basis: ClassicalBasis, n: int):
    """The matrix U^(n!) mod p^N: the iterate route to the ordinary
    projector."""
    M = u_matrix(basis)
    import math

    return mat_pow(M, math.factorial(n), basis.ring)


def eigen_pair(
    gamma: EllipticQExp,
    basis: ClassicalBasis,
    block: EigenBlock,
    on_residual="raise",
    canon=None,
):
    """The isotypic-coordinate functional: the coefficient of the
    stabilization f_alpha = f - beta V f in gamma, normalized by
    a_1(f) = 1.  The span residual is checked as in `coordinates`.

    Returns (value: ScaledPadic, budget, in_span).
    """
    ring = basis.ring
    if block.equal_slopes:
        raise EqualSlopes("cannot separate an equal-slope block")
    coords, det_loss, in_span = coordinates(basis, gamma, on_residual, canon)
    cf = coords[block.f_index]
    cvf = coords[block.vf_index]
    budget = PrecisionBudget(ring.N)
    if det_loss:
        budget.charge("basis coordinate determinant", det_loss)
    sep = block.alpha.valuation()
    if sep:
        budget.charge("isotypic separation alpha-beta", sep)
    denom = ScaledPadic(block.alpha - block.beta)
    return (cf * block.alpha + cvf) / denom, budget, in_span
