"""Command-line orchestration.

Exit codes: 0 success, 2 identity-check failure, 3 configuration error,
4 precision exhaustion.  Every error message names the failing stage.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .errors import ConfigError, PadicgzError, PrecisionExhausted, SchemaError
from .formgen import (
    delta_form,
    demo_basis,
    eisenstein_roots,
    elliptic_eisenstein,
    hilbert_eisenstein,
    parallel_weight,
    pointcount_newform,
    random_depleted,
)
from .lvalue import aj_value, lp_balanced, euler_factors, scaled_to_dict
from .nearlyoc import nabla_pow, oc_project
from .padic import PadicRing
from .qexp import HilbertQExp
from .serialize import (
    basis_from_dict,
    basis_to_dict,
    check_report,
    context_for,
    dump,
    form_from_dict,
    form_to_dict,
    noc_from_dict,
    noc_to_dict,
    read_json,
    write_json,
)
from .weights import WeightCharacter, WeightPair, classify_pair
from . import suites


def _ints(text: str):
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _int(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{flag} expects an integer, got {text!r}") from None


def _ell(text: str):
    """The two weights of --l."""
    ell = _ints(text)
    if len(ell) != 2:
        raise ConfigError(f"--l needs two weights l1,l2, got {text!r}")
    return ell


def _add_ring_args(sp):
    sp.add_argument("--p", type=int, required=True, help="working prime")
    sp.add_argument("--N", type=int, default=12, help="precision exponent")
    sp.add_argument("--B", type=int, default=40, help="trace bound")
    sp.add_argument("--D", type=int, default=5, help="real quadratic field")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 3 naming the flag; 2 is an identity failure
        raise ConfigError(f"{self.prog}: {message}")


# built once per process: no default is mutable, and parse_args returns a
# fresh namespace per call
@functools.cache
def _build_parser():
    ap = _Parser(
        prog="padicgz",
        description="exact p-adic q-expansion calculus over real quadratic fields",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate built-in test forms")
    g.add_argument(
        "recipe",
        choices=[
            "eisenstein",
            "delta",
            "curve",
            "hilbert-eisenstein",
            "random-depleted",
            "basis-demo",
        ],
    )
    _add_ring_args(g)
    g.add_argument("--k", type=int, default=8, help="weight (Eisenstein recipes)")
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--ainvs", type=str, default="0,-1,1,-10,-20")
    g.add_argument("--out", required=True)

    a = sub.add_parser("apply", help="apply an operator to a form file")
    a.add_argument("op", choices=["deplete", "dpow", "nabla", "diag", "ocproj"])
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--primes", default="all", help="deplete: all|p1|p2")
    a.add_argument("--i", type=int, default=1, help="dpow: embedding index")
    a.add_argument("--exponent", type=int, default=1, help="dpow: power of d_i")
    a.add_argument("--r", type=int, default=1, help="nabla: iteration exponent")
    a.add_argument("--weight", type=str, default=None, help="ocproj: weight k")

    e = sub.add_parser("euler", help="evaluate the Euler factor set")
    e.add_argument("--kind", choices=["split", "inert"], required=True)
    e.add_argument("--t", type=int, required=True)
    e.add_argument("--g-roots", dest="groots", required=True)
    e.add_argument("--f-roots", dest="froots", required=True)
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--N", type=int, default=12)

    c = sub.add_parser("classify", help="classify a classical weight pair")
    c.add_argument("--l", required=True, help="ell as l1,l2")
    c.add_argument("--k", type=int, required=True)

    lv = sub.add_parser("lvalue", help="balanced L-value specialization")
    lv.add_argument("--balanced", action="store_true", required=True)
    _add_ring_args(lv)
    lv.add_argument("--l", required=True)
    lv.add_argument("--s", type=int, required=True)
    lv.add_argument("--basis", default=None, help="basis file (default: demo basis)")
    lv.add_argument("--out", default=None, help="write the JSON report here")

    aj = sub.add_parser("aj", help="Abel-Jacobi value (theorem right-hand side)")
    kindgrp = aj.add_mutually_exclusive_group(required=True)
    kindgrp.add_argument("--split", action="store_true")
    kindgrp.add_argument("--inert", action="store_true")
    _add_ring_args(aj)
    aj.add_argument("--l", required=True)
    aj.add_argument("--s", type=int, required=True)
    aj.add_argument("--basis", default=None)
    aj.add_argument("--out", default=None)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument(
        "suite",
        choices=[
            "gz-split",
            "gz-inert",
            "operators",
            "decomposition",
            "vanishing",
        ],
    )
    _add_ring_args(v)
    v.add_argument("--l", default="8,8")
    v.add_argument("--s", type=int, default=1)
    v.add_argument("--out", default=None)

    r = sub.add_parser("report", help="render a stored evaluation report")
    r.add_argument("--in", dest="infile", required=True)
    return ap


def _cmd_gen(args) -> int:
    if args.B < 0:
        raise ConfigError(f"--B must be >= 0, got {args.B}")
    ring = PadicRing(args.p, args.N)
    if args.recipe == "eisenstein":
        out = form_to_dict(elliptic_eisenstein(args.k, args.B, ring))
    elif args.recipe == "delta":
        out = form_to_dict(delta_form(args.B, ring))
    elif args.recipe == "curve":
        out = form_to_dict(pointcount_newform(_ints(args.ainvs), args.B, ring))
    elif args.recipe == "hilbert-eisenstein":
        ctx = context_for(args.D, args.p, args.N)
        out = form_to_dict(hilbert_eisenstein(args.k, ctx, args.B))
    elif args.recipe == "random-depleted":
        ctx = context_for(args.D, args.p, args.N)
        out = form_to_dict(random_depleted(args.seed, ctx, args.B))
    elif args.recipe == "basis-demo":
        ctx = context_for(args.D, args.p, args.N)
        out = basis_to_dict(demo_basis(ctx.ring, args.B))
    write_json(args.out, out)
    print(f"wrote {args.out}")
    return 0


def _cmd_apply(args) -> int:
    doc = read_json(args.infile)
    if args.op == "ocproj":
        gamma = noc_from_dict(doc)
        k = _int(args.weight, "--weight") if args.weight else None
        res = oc_project(gamma, k)
        write_json(args.out, form_to_dict(res.form))
        print(
            f"wrote {args.out} (p-power shift {res.shift}, "
            f"budget {res.budget.trail()})"
        )
        return 0
    f = form_from_dict(doc)
    if args.op == "deplete":
        which = {"all": "all", "p1": (1,), "p2": (2,)}.get(args.primes)
        if which is None:
            raise ConfigError(f"--primes must be all|p1|p2, got {args.primes!r}")
        out = f.deplete(which) if isinstance(f, HilbertQExp) else f.deplete()
        write_json(args.out, form_to_dict(out))
    elif args.op == "dpow":
        if isinstance(f, HilbertQExp):
            out = f.d_char(args.i, args.exponent)
        else:
            out = f.d_char(args.exponent)
        write_json(args.out, form_to_dict(out))
    elif args.op == "nabla":
        if not isinstance(f, HilbertQExp) or f.weight_tag is None:
            raise ConfigError("nabla needs a Hilbert form file with a weight tag")
        ctx = f.ctx
        ring1 = PadicRing(ctx.p, ctx.N, 1)
        tor = ctx.ring.residue_order()
        k = WeightCharacter.from_classical(ring1, tor, f.weight_tag)
        r = WeightCharacter.from_classical(ring1, tor, (args.r, 0))
        gamma = nabla_pow(f, k, r)
        write_json(args.out, noc_to_dict(gamma))
    elif args.op == "diag":
        if isinstance(f, HilbertQExp):
            write_json(args.out, form_to_dict(f.zeta_star()))
        else:
            raise ConfigError("diag expects a Hilbert form file")
    print(f"wrote {args.out}")
    return 0


def _cmd_euler(args) -> int:
    ring = PadicRing(args.p, args.N)
    gr = [ring.from_int(x) for x in _ints(args.groots)]
    fr = [ring.from_int(x) for x in _ints(args.froots)]
    if len(gr) != {"inert": 2, "split": 4}[args.kind]:
        raise ConfigError(f"--kind {args.kind} does not fit {len(gr)} --g-roots")
    if len(fr) != 2:
        raise ConfigError(f"--f-roots needs two integers, got {len(fr)}")
    es = euler_factors(gr, fr, args.t)
    doc = {
        "kind": es.kind,
        "t_F": es.t_F,
        "E_fstar": scaled_to_dict(es.e_fstar),
        "E_p": scaled_to_dict(es.e_p),
        "E_0p": scaled_to_dict(es.e_0p),
        "exceptional_zero": es.exceptional_zero(),
    }
    sys.stdout.write(dump(doc))
    return 0


def _cmd_classify(args) -> int:
    ell = _ell(args.l)
    c = classify_pair(WeightPair.from_ell_k(ell, args.k))
    if c.kind == "balanced":
        extra = " (parallel-2 special corner)" if c.weight2_special else ""
        print(f"balanced, s={c.s}{extra}")
    elif c.kind == "f_dominated":
        print(f"F-dominated, t={c.t}")
    else:
        print("neither")
    return 0


def _demo_inputs(args, ell):
    ctx = context_for(args.D, args.p, args.N)
    ring = ctx.ring
    g = hilbert_eisenstein(parallel_weight(ell), ctx, args.B)
    if args.basis:
        basis = basis_from_dict(read_json(args.basis))
        if basis.ring != ring:
            raise ConfigError("basis file ring does not match the configuration")
    else:
        basis = demo_basis(ring, max(args.B, 2 * args.p))
    return ctx, g, basis, eisenstein_roots(ctx, ell[0])


def _emit_report(report, out) -> int:
    doc = report.to_dict()
    if out:
        write_json(out, doc)
        print(f"wrote {out}")
    else:
        sys.stdout.write(dump(doc))
    if report.passed is False:
        return 2
    return 0


def _cmd_lvalue(args) -> int:
    ell = _ell(args.l)
    ctx, g, basis, _ = _demo_inputs(args, ell)
    rep = lp_balanced(
        g,
        basis,
        basis.blocks[1],
        ell,
        args.s,
        config={"D": args.D, "B": args.B, "command": "lvalue"},
    )
    return _emit_report(rep, args.out)


def _cmd_aj(args) -> int:
    ell = _ell(args.l)
    kind = "split" if args.split else "inert"
    ctx, g, basis, roots = _demo_inputs(args, ell)
    ctx.sp.require(kind)
    rep = aj_value(
        g,
        basis,
        basis.blocks[1],
        roots,
        ell,
        args.s,
        config={"D": args.D, "B": args.B, "command": "aj"},
    )
    return _emit_report(rep, args.out)


def _cmd_verify(args) -> int:
    ell = _ell(args.l)
    if args.suite == "gz-inert":
        res = suites.suite_gz_inert(
            D=args.D, p=args.p, N=args.N, B=args.B,
            s_values=(args.s,), deltas=(parallel_weight(ell) - args.s - 2,),
        )
    elif args.suite == "gz-split":
        res = suites.suite_gz_split(
            D=args.D, p=args.p, N=args.N, B=args.B, ell=ell, s_values=(args.s,)
        )
    elif args.suite == "operators":
        res = suites.suite_operators(D=args.D, primes=(args.p,), N=args.N, B=args.B)
    elif args.suite == "decomposition":
        res = suites.suite_decomposition(D=args.D, p=args.p, N=args.N, B=args.B)
    elif args.suite == "vanishing":
        res = suites.suite_vanishing(D=args.D, p=args.p, N=args.N, B=args.B)
    doc = {"suite": res["name"], "passed": res["passed"],
           "details": res["details"], "version": __version__}
    if args.out:
        write_json(args.out, doc)
    line = "PASS" if res["passed"] else "FAIL"
    print(f"{line} {res['name']} ({res['seconds']} s)")
    for d in res["details"]:
        print(f"  {json.dumps(d, sort_keys=True, default=str)}")
    return 0 if res["passed"] else 2


def _cmd_report(args) -> int:
    doc = check_report(read_json(args.infile))
    print(f"kind: {doc.get('kind')}")
    print(f"config: {json.dumps(doc.get('config'), sort_keys=True)}")
    val = doc.get("value")
    if val is None:
        print("value: (none)")
    elif val.get("zero"):
        print(f"value: 0 (to precision p^{val['known_mod_p_power']})")
    else:
        print(
            f"value: mantissa digits {val['mantissa']} * p^{val['p_power']} "
            f"(mantissa precision {val['mantissa_precision']})"
        )
    print(f"effective precision: {doc.get('effective_precision')}")
    if doc.get("agreement_valuation") is not None:
        table = doc.get("agreement_table") or []
        if table:
            worst = min(row["agreement"] for row in table)
            print(f"identity agreement: min valuation {worst} across "
                  f"{len(table)} V-degrees")
        print(f"agreement valuation: {doc['agreement_valuation']}")
        print(f"certified valuation: {doc['certified_valuation']}")
    if doc.get("euler"):
        print(f"euler factors: {json.dumps(doc['euler'], sort_keys=True)}")
    for entry in doc.get("budget") or []:
        print(f"budget: {entry['op']}: {entry['digits']} digit(s)")
    for fl in doc.get("flags") or []:
        print(f"flag: {fl}")
    if doc.get("passed") is not None:
        print(f"passed: {doc['passed']}")
    return 0 if doc.get("passed") in (True, None) else 2


def dispatch(argv) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "apply": _cmd_apply,
        "euler": _cmd_euler,
        "classify": _cmd_classify,
        "lvalue": _cmd_lvalue,
        "aj": _cmd_aj,
        "verify": _cmd_verify,
        "report": _cmd_report,
    }
    return handlers[args.command](args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return dispatch(argv)
    except PrecisionExhausted as e:
        print(f"error [precision]: {e}", file=sys.stderr)
        return 4
    except (ConfigError, SchemaError) as e:
        print(f"error [configuration]: {e}", file=sys.stderr)
        return 3
    except PadicgzError as e:
        print(f"error [{type(e).__name__}]: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
