"""Named verification suites.

Each suite function runs one acceptance-grade battery on the shipped demo
configurations and returns a result dict {name, passed, seconds, details};
the CLI `verify` subcommand and the acceptance tests share these
implementations.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from .formgen import (
    delta_form,
    demo_basis,
    eisenstein_roots,
    hilbert_eisenstein,
    parallel_weight,
    random_depleted,
    random_form,
)
from .heckeslope import (
    hecke_roots,
    mat_mul,
    ordinary_limit,
    projector_matrix,
    pstabilize,
    u_matrix,
)
from .lvalue import (
    _hchar,
    aj_value,
    build_split_primitives,
    euler_factors,
    lp_balanced,
    main_theorem_residual,
    split_poly_decomp,
    u_annihilation_certificate,
    verify_e0p_relation,
    verify_gz,
)
from .nearlyoc import nabla_i, nabla_pow, noc_agreement, wrap_fil0
from .padic import PadicRing, ScaledPadic
from .qexp import agreement_valuation
from .quadfield import SUPPORT_DINV
from .serialize import context_for, dump
from .weights import WeightCharacter


def _result(name, passed, t0, details):
    return {
        "name": name,
        "passed": bool(passed),
        "seconds": round(time.perf_counter() - t0, 2),
        "details": details,
    }


def _sparse_random(seed, ctx, B, size=25):
    """Random form supported on `size` totally positive indices, seeded and
    reproducible: most of its trace rows hold one coefficient or none."""
    from .quadfield import tot_pos_enum
    from .qexp import HilbertQExp

    rng = random.Random(seed)
    keys = tot_pos_enum(ctx.field, SUPPORT_DINV, B)
    chosen = rng.sample(keys, min(size, len(keys)))
    ring = ctx.ring
    coeffs = {}
    for k in chosen:
        a = rng.randrange(1, ring.modulus)
        b = rng.randrange(ring.modulus) if ring.degree == 2 else 0
        coeffs[k] = ring.make(a, b)
    return HilbertQExp(ctx, SUPPORT_DINV, B, coeffs)


def suite_operators(D=5, primes=(7, 11), N=12, B=40, count=100):
    """Criterion 1: the operator algebra on seeded random forms.

    Coefficientwise identities run on dense bound-B forms; the two
    multiplicative identities (Leibniz, diagonal-restriction ring map) run
    on sparse seeded pairs, and on dense pairs for every 40th seed."""
    t0 = time.perf_counter()
    details = []
    ok = True
    for p in primes:
        ctx = context_for(D, p, N)
        failures = 0
        for seed in range(count):
            f = random_form(10_000 + seed, ctx, B)
            f1, f2 = f.d(1), f.d(2)
            good = True
            # d1 d2 commutation
            good &= f1.d(2) == f2.d(1)
            # U V = id and (1 - V U) = depletion, per prime above p
            for i in ctx.primes_above_p():
                uv = f.v(i).u(i)
                good &= agreement_valuation(uv, f, uv.bound) == N
                dep = f.deplete((i,))
                vu = f - f.u(i).v(i)
                good &= agreement_valuation(vu, dep, vu.bound) == N
            dep_all = f.deplete()
            good &= dep_all.deplete() == dep_all
            # d zeta* = zeta* (d1 + d2)
            good &= f.zeta_star().d() == (f1 + f2).zeta_star()
            # multiplicative identities
            pairs = [(_sparse_random(20_000 + seed, ctx, B),
                      _sparse_random(30_000 + seed, ctx, B))]
            if seed % 40 == 0:
                pairs.append((f, random_form(40_000 + seed, ctx, B)))
            for a, b in pairs:
                ab = a * b
                good &= ab.d(1) == a.d(1) * b + a * b.d(1)
                good &= ab.d(2) == a.d(2) * b + a * b.d(2)
                good &= ab.zeta_star() == a.zeta_star() * b.zeta_star()
            if not good:
                failures += 1
                ok = False
        details.append({"p": p, "forms": count, "failures": failures})
    return _result("operators", ok, t0, details)


def suite_nabla_iteration(D=5, primes=(7, 11), N=12, B=40, rmax=5):
    """Criterion 2: the closed iteration formula equals r-fold single
    steps on depleted parallel-weight Eisenstein input, split and inert."""
    t0 = time.perf_counter()
    details = []
    ok = True
    for p in primes:
        ctx = context_for(D, p, N)
        g = hilbert_eisenstein(8, ctx, B).deplete()
        k = _hchar(ctx, (8, 8))
        iterated = wrap_fil0(g, k)
        worst = N
        for r in range(0, rmax + 1):
            direct = nabla_pow(g, k, _hchar(ctx, (r, 0)))
            agree = noc_agreement(direct, iterated)
            worst = min(worst, agree)
            iterated = nabla_i(iterated, 1)
        details.append({"p": p, "agreement": worst})
        ok &= worst == N
    return _result("nabla-iteration", ok, t0, details)


def suite_continuity(D=5, primes=(7, 11), N=12, B=40, s=1):
    """Criterion 3: p-adic continuity of the iteration in the exponent:
    perturbing the analytic exponent by (p-1)p^m moves every coefficient
    by at most p^(m+1)."""
    t0 = time.perf_counter()
    details = []
    ok = True
    for p in primes:
        ctx = context_for(D, p, N)
        ring1 = PadicRing(p, N, 1)
        tor = ctx.ring.residue_order()
        g = hilbert_eisenstein(8, ctx, B).deplete()
        k = _hchar(ctx, (8, 8))
        base_u = ring1.from_int(-s - 1)
        chi = (-s - 1) % tor
        # strip the classical shortcut so both runs take the analytic route
        r_base = WeightCharacter(ring1, tor, (base_u, ring1.zero), (chi, 0))
        base = nabla_pow(g, k, r_base)
        for m in range(1, 5):
            u2 = base_u + ring1.from_int((p - 1) * p**m)
            r2 = WeightCharacter(ring1, tor, (u2, ring1.zero), (chi, 0))
            pert = nabla_pow(g, k, r2)
            agree = noc_agreement(base, pert)
            details.append({"p": p, "m": m, "congruence": agree})
            ok &= agree >= m + 1
    return _result("continuity", ok, t0, details)


def suite_gz_inert(D=5, p=7, N=12, B=40, s_values=(0, 1, 2), deltas=(0, 2, 4)):
    """Criterion 4: the inert identity tau G = (-1)^s s! zeta*(nabla^(-s-1,0) g)
    over the (s, delta) grid of parallel weights, exact on all coefficients."""
    t0 = time.perf_counter()
    ctx = context_for(D, p, N)
    ctx.sp.require("inert")
    details = []
    for s in s_values:
        for d in deltas:
            w = s + 2 + d
            k = 2 * d + 2
            g = hilbert_eisenstein(w, ctx, B)
            rep = verify_gz(g, (w, w), s, k)
            details.append(
                {
                    "ell": [w, w],
                    "s": s,
                    "k": k,
                    "agreement": rep.agreement_valuation,
                    "table": rep.lhs_agreement_table,
                    "passed": rep.passed,
                }
            )
    ok = all(row["passed"] and row["agreement"] >= N for row in details)
    return _result("gz-inert", ok, t0, details)


def suite_gz_split(D=5, p=11, N=12, B=40, ell=(8, 8), s_values=(0, 1)):
    """Criterion 5: the split identity through the overconvergent
    projection, with the denominator budget reported and bounded."""
    t0 = time.perf_counter()
    ctx = context_for(D, p, N)
    ctx.sp.require("split")
    g = hilbert_eisenstein(parallel_weight(ell), ctx, B)
    details = []
    ok = True
    for s in s_values:
        k = ell[0] + ell[1] - 2 * (s + 1)
        rep = verify_gz(g, ell, s, k)
        denom_loss = rep.notes[0]["denominator_loss"]
        details.append(
            {
                "s": s,
                "k": k,
                "agreement": rep.agreement_valuation,
                "certified": rep.certified_valuation,
                "denominator_loss": denom_loss,
                "table": rep.lhs_agreement_table,
                "passed": rep.passed,
            }
        )
        ok &= rep.passed and denom_loss <= 2
    return _result("gz-split", ok, t0, details)


def suite_decomposition(D=5, p=11, N=12, B=40, tuples=50, seed=77):
    """Criterion 6(a)+(b): the monomial-split polynomial decomposition on
    random root tuples, and the split decomposition identity on the
    Eisenstein eigenform (verified inside build_split_primitives)."""
    t0 = time.perf_counter()
    ctx = context_for(D, p, N)
    ctx.sp.require("split")
    ring = PadicRing(p, 10)
    rng = random.Random(seed)
    details = []
    ok = True
    for _ in range(tuples):
        roots = [ring.from_int(rng.randrange(1, 21)) for _ in range(4)]
        p1 = (roots[0] + roots[1], roots[0] * roots[1])
        p2 = (roots[2] + roots[3], roots[2] * roots[3])
        a2, b1 = split_poly_decomp(p1, p2, ring)  # raises on any failure
        ok &= all(x <= y for (x, y) in a2) and all(x > y for (x, y) in b1)
    details.append({"random_tuples": tuples, "monomial_split": ok})
    g = hilbert_eisenstein(8, ctx, B)
    try:
        build_split_primitives(g, eisenstein_roots(ctx, 8), (8, 8), 1, 12)
        details.append({"decomposition_identity": "exact on effective bound"})
    except Exception as e:  # noqa: BLE001 - reported, not swallowed
        details.append({"decomposition_identity": f"FAILED: {e}"})
        ok = False
    return _result("decomposition", ok, t0, details)


def suite_vanishing(D=5, p=11, N=12, B=40, count=20):
    """Criterion 6(c)+(d): exact vanishing of U zeta* V_0(p_2) on depleted
    inputs, and the U-annihilation certificate for e(tau H1 + tau H2) = 0."""
    t0 = time.perf_counter()
    ctx = context_for(D, p, N)
    ctx.sp.require("split")
    details = []
    ok = True
    fails = 0
    for seed in range(count):
        x = random_depleted(50_000 + seed, ctx, B).deplete((1,))
        if not x.v(2).zeta_star().u().is_zero():
            fails += 1
        y = random_depleted(60_000 + seed, ctx, B).deplete((2,))
        if not y.v(1).zeta_star().u().is_zero():
            fails += 1
    ok &= fails == 0
    details.append({"u_zeta_v_checks": 2 * count, "failures": fails})
    g = hilbert_eisenstein(8, ctx, B)
    prim = build_split_primitives(g, eisenstein_roots(ctx, 8), (8, 8), 1, 12)
    certs = u_annihilation_certificate(prim)
    bad = [c for c in certs if not c["ok"]]
    details.append({"graded_pieces": len(certs), "failures": len(bad)})
    ok &= not bad
    basis = demo_basis(ctx.ring, B)
    rel = verify_e0p_relation(prim, basis, basis.blocks[1])
    details.append(
        {
            "e0p_relation": rel["ok"],
            "kappa": str(rel["kappa"]),
            "kappa_structural": str(rel["kappa_structural"]),
        }
    )
    ok &= rel["ok"]
    return _result("vanishing", ok, t0, details)


def suite_slope(p=7, N=12, B=98):
    """Criterion 7: the slope machinery on the demo basis."""
    t0 = time.perf_counter()
    ring = PadicRing(p, N)
    basis = demo_basis(ring, B)
    details = []
    ok = True

    M = u_matrix(basis)
    D = delta_form(B, ring)
    c = ring.from_int(p ** 11)
    closed = M[0][0] == ring.from_int(1 + p**11) and M[1][0] == -c
    closed &= M[2][2] == D.coeff(p) and M[3][2] == -c and M[0][1] == ring.one
    details.append({"u_matrix_block_form": closed, "U_stable": basis.U_stable})
    ok &= closed and basis.U_stable

    P = projector_matrix(basis, 0)
    P2 = mat_mul(P, P, ring)
    idem = all((P[i][j] - P2[i][j]).is_zero() for i in range(4) for j in range(4))
    Q = ordinary_limit(basis, 6)
    limit_agree = min(
        (P[i][j] - Q[i][j]).valuation() for i in range(4) for j in range(4)
    )
    details.append({"projector_idempotent": idem, "unl_limit_agreement": limit_agree})
    ok &= idem and limit_agree >= 10

    ap = D.coeff(p)
    alpha, beta, slopes = hecke_roots(ap, 12, 1, ring)
    details.append({"delta_slopes": list(slopes)})
    expected_slopes = (1, 10) if p == 7 else (0, 11)
    ok &= slopes == expected_slopes

    fa = pstabilize(D, ap, 12, 1, "alpha")
    ua = fa.u()
    eig = agreement_valuation(ua, fa.scale(alpha).truncated(ua.bound), ua.bound)
    details.append({"u_eigen_equation": eig})
    ok &= eig == N
    return _result("slope", ok, t0, details)


def _value_agreement(v_low: ScaledPadic, v_high: ScaledPadic) -> int:
    """Valuation of the difference of two scaled values computed at
    precisions N_low <= N_high, measured in the lower ring."""
    rl = v_low.ring
    lifted = ScaledPadic(
        rl.make(v_high.mantissa.a % rl.modulus, v_high.mantissa.b % rl.modulus),
        v_high.exponent,
        min(v_high.prec, rl.N),
    )
    diff = v_low - lifted
    if diff.is_zero():
        return diff.exponent + diff.prec
    return diff.valuation()


def suite_end_to_end(D=5, N=12, B=40):
    """Criterion 8: byte-reproducibility, stability under N -> N + 2, and
    the main-theorem relation on both demo configurations."""
    t0 = time.perf_counter()
    details = []
    ok = True
    for p, kind in ((7, "inert"), (11, "split")):
        runs = []
        for trial in range(2):
            ctx = context_for(D, p, N)
            ring = ctx.ring
            g = hilbert_eisenstein(8, ctx, B)
            basis = demo_basis(ring, B)
            block = basis.blocks[1]
            roots = eisenstein_roots(ctx, 8)
            lp = lp_balanced(g, basis, block, (8, 8), 1, config={"D": D, "B": B})
            aj = aj_value(g, basis, block, roots, (8, 8), 1, config={"D": D, "B": B})
            runs.append((lp, aj, dump(lp.to_dict()) + dump(aj.to_dict())))
        reproducible = runs[0][2] == runs[1][2]
        lp, aj, _ = runs[0]
        resid = main_theorem_residual(lp, aj, 1)
        relation = resid.is_zero()

        # stability under N -> N + 2
        ctx2 = context_for(D, p, N + 2)
        ring2 = ctx2.ring
        g2 = hilbert_eisenstein(8, ctx2, B)
        basis2 = demo_basis(ring2, B)
        lp2 = lp_balanced(g2, basis2, basis2.blocks[1], (8, 8), 1)
        loss = lp.budget.total_loss
        stab = _value_agreement(lp.value, lp2.value)
        stable = stab >= N - loss
        details.append(
            {
                "p": p,
                "kind": kind,
                "byte_reproducible": reproducible,
                "main_theorem_relation": relation,
                "stability_valuation": stab,
                "required": N - loss,
                "flags": list(lp.flags),
                "circularity": "AJ is defined by the theorem right-hand side; "
                "the non-circular content is the identity/decomposition/"
                "vanishing suites",
            }
        )
        ok &= reproducible and relation and stable
    return _result("end-to-end", ok, t0, details)


def _frac_to_scaled(fr: Fraction, ring) -> ScaledPadic:
    p = ring.p
    num, den = fr.numerator, fr.denominator
    e = 0
    while num and num % p == 0:
        num //= p
        e += 1
    while den % p == 0:
        den //= p
        e -= 1
    if num == 0:
        return ScaledPadic(ring.zero)
    return ScaledPadic(ring.from_int(num) * ring.from_int(den).inv(), e)


def suite_euler_table(p=7, N=8):
    """Criterion 9: the Euler factor formulas against ten hand-substituted
    rational tuples, via exact Fraction arithmetic."""
    t0 = time.perf_counter()
    ring = PadicRing(p, N)
    F = Fraction
    # (kind, t, g-roots, f-roots, expected (E_fstar, E_p, E_0p))
    table = [
        ("inert", 0, (2, 3), (5, 1), (F(4, 5), F(6, 25), None)),
        ("inert", 0, (1, 1), (1, 1), (F(0), F(0), None)),  # exceptional zero
        ("inert", -1, (2, 3), (5, 1), (F(4, 5), F(33, 35) * F(32, 35), None)),
        ("inert", 1, (2, 3), (5, 1), (F(4, 5), F(-9, 5) * F(-16, 5), None)),
        ("split", 0, (0, 0, 0, 0), (1, 0), (F(1), F(1), F(1))),  # empty products
        ("split", 0, (1, 2, 1, 2), (3, 1), (F(2, 3), F(-2, 81), F(5, 9))),
        ("split", -1, (1, 2, 1, 2), (3, 1), (
            F(2, 3),
            (1 - F(1, 21)) * (1 - F(2, 21)) ** 2 * (1 - F(4, 21)),
            1 - F(4, 441),
        )),
        ("split", 0, (1, 1, 1, 1), (1, 0), (F(1), F(0), F(0))),  # exceptional
        ("inert", -2, (1, 49), (2, 3), (
            F(-1, 2),
            (1 - F(1, 98)) * (1 - F(1, 2)),
            None,
        )),
        ("split", 1, (2, 3, 5, 1), (4, 2), (
            F(1, 2),
            (1 - F(70, 4)) * (1 - F(14, 4)) * (1 - F(105, 4)) * (1 - F(21, 4)),
            1 - F(1470, 16),
        )),
    ]
    details = []
    ok = True
    for i, (kind, t, g, f, expected) in enumerate(table):
        g_roots = [ring.from_int(x) for x in g]
        es = euler_factors(g_roots, [ring.from_int(x) for x in f], t)
        good = es.kind == kind
        good &= es.e_fstar == _frac_to_scaled(expected[0], ring)
        good &= es.e_p == _frac_to_scaled(expected[1], ring)
        if expected[2] is not None:
            good &= es.e_0p == _frac_to_scaled(expected[2], ring)
        if expected[0] == 0 or expected[1] == 0:
            good &= es.exceptional_zero()
        details.append({"row": i, "ok": good})
        ok &= good
    return _result("euler-table", ok, t0, details)
