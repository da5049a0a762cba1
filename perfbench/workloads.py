"""The benchmark's three workloads.

A workload builds its inputs from the seed (``setup``), runs a fixed list
of requests back to back (``sweep``, one thread, closed loop), and checks
what the sweeps returned (``check``).  Every sweep of a run runs the same
requests in the same order; the seed only picks the inputs and the order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil

# The package's entry points are called through their modules, so that the
# traced run's wrappers (tracing.py) see the benchmark's own calls too.
from padicgz import cli, formgen, nearlyoc, qexp, quadfield
from padicgz.padic import PadicRing
from padicgz.serialize import context_for, dump, noc_to_dict
from padicgz.weights import WeightCharacter

import checks

D = 5
N = 12
PRIMES = ((7, "inert"), (11, "split"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Outcome:
    """What one request returned: whether it failed and its output."""

    __slots__ = ("failed", "output")

    def __init__(self, failed, output):
        self.failed = failed
        self.output = output


# ---------------------------------------------------------------------------
# cli-lvalue
# ---------------------------------------------------------------------------

# lvalue at p = 7, N = 8 spends every digit: oc_project charges 5 digits
# for the V^5 extraction on top of the denominator, determinant and
# isotypic-separation losses, and the CLI exits with code 4.
KEPT_FAILURE = ("lvalue", "--balanced", "--D", "5", "--p", "7", "--l", "8,8",
                "--s", "1", "--N", "8", "--B", "40")
KEPT_FAILURE_CODE = 4


def _cli_grid(n):
    """(command, p, w, s, argv) for the demo grid at precision n."""
    out = []
    for p, kind in PRIMES:
        for w in range(7, 11):
            s = w - 7
            base = ["--D", str(D), "--p", str(p), "--l", f"{w},{w}",
                    "--s", str(s), "--N", str(n), "--B", "40"]
            out.append(("lvalue", p, w, s, ["lvalue", "--balanced"] + base))
            out.append(("aj", p, w, s, ["aj", f"--{kind}"] + base))
            out.append(("verify", p, w, s, ["verify", f"gz-{kind}"] + base))
    return out


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class CliLvalue:
    """The CLI commands lvalue, aj and verify on the demo grid, in-process."""

    name = "cli-lvalue"

    def __init__(self, seed, workdir):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        requests = []
        for i, (cmd, p, w, s, argv) in enumerate(_cli_grid(N)):
            path = os.path.join(workdir, f"r{i:02d}-{cmd}-p{p}-w{w}.json")
            requests.append({"cmd": cmd, "p": p, "w": w, "s": s,
                             "argv": argv + ["--out", path], "out": path,
                             "label": " ".join(argv[:2] + argv[4:8])})
        path = os.path.join(workdir, "kept-failure.json")
        requests.append({"cmd": "kept-failure", "p": 7, "w": 8, "s": 1,
                         "argv": list(KEPT_FAILURE) + ["--out", path],
                         "out": path, "label": "lvalue N=8 (kept failure)"})
        random.Random(seed).shuffle(requests)
        self.requests = requests
        self.first = None  # report bytes of the first sweep, per request
        self.first_outcomes = None
        self.high = None
        self.observed = []
        self.mismatched = []

    def sweep(self, tag=None):
        outcomes = []
        for i, req in enumerate(self.requests):
            if tag:
                tag(i)
            code, out, err = _run_cli(req["argv"])
            outcomes.append(Outcome(code != 0, (code, out, err)))
        return outcomes

    def record(self, outcomes):
        """After a sweep (untimed): keep the report bytes of the first one,
        compare later ones with it."""
        files = {}
        for req in self.requests:
            if req["cmd"] != "kept-failure":
                files[req["out"]] = _read(req["out"])
        if self.first is None:
            self.first = files
            self.first_outcomes = outcomes
            return
        for path, data in files.items():
            if _stable(path, data) != _stable(path, self.first[path]):
                self.mismatched.append(os.path.basename(path))

    def fingerprint(self):
        """Digest of the first sweep's exit codes and report bytes, or None
        if a later sweep wrote different bytes."""
        if self.mismatched:
            return None
        parts = []
        for req, oc in zip(self.requests, self.first_outcomes):
            data = self.first.get(req["out"], b"")
            parts.append(f"{req['label']}|{oc.output[0]}|"
                         f"{_digest(_stable(req['out'], data).decode())}")
        return _digest("\n".join(sorted(parts)))

    def certified_digits(self):
        out = []
        for req in self.requests:
            if req["cmd"] in ("lvalue", "aj"):
                doc = json.loads(self.first[req["out"]])
                out.append(doc["effective_precision"])
        return out

    def check(self):
        errors = []
        if self.mismatched:
            errors.append(f"report bytes changed between sweeps: "
                          f"{sorted(set(self.mismatched))}")
        errors += self._check_outcomes(self.first_outcomes, self.first)
        errors += self._check_soundness(self.first)
        return errors

    def _check_outcomes(self, outcomes, files):
        errors = []
        for req, oc in zip(self.requests, outcomes):
            code, out, err = oc.output
            tag = " ".join(req["argv"][:-2])
            if req["cmd"] == "kept-failure":
                # exit 0 once the fault is mended; nothing else is allowed
                if code != 0 and (code != KEPT_FAILURE_CODE
                                  or "precision" not in err):
                    errors.append(f"{tag}: exit {code}, expected 0 or "
                                  f"{KEPT_FAILURE_CODE} (precision)")
                continue
            if code != 0:
                errors.append(f"{tag}: exit {code}: {err.strip()}")
                continue
            doc = json.loads(files[req["out"]])
            if req["cmd"] == "verify":
                if doc.get("passed") is not True or not out.startswith("PASS"):
                    errors.append(f"{tag}: identity check did not pass")
                continue
            if out.strip() != f"wrote {req['out']}":
                errors.append(f"{tag}: unexpected stdout {out!r}")
            if req["cmd"] == "aj":
                kind = "inert" if req["p"] == 7 else "split"
                ref = checks.euler_reference(req["p"], req["w"], req["s"], kind)
                for key in ("E_fstar", "E_p", "E_0p"):
                    if not checks.fraction_matches(
                        ref[key], doc["euler"][key], req["p"]
                    ):
                        errors.append(f"{tag}: Euler factor {key} differs from "
                                      "tau(p) and the demo Hecke roots")
        return errors

    def _high_reports(self):
        """lvalue and aj at N + 4, once per run."""
        if self.high is None:
            self.high = {}
            for cmd, p, w, s, argv in _cli_grid(N + 4):
                if cmd == "verify":
                    continue
                path = os.path.join(self.workdir, f"high-{cmd}-p{p}-w{w}.json")
                code, _, err = _run_cli(argv + ["--out", path])
                if code != 0:
                    raise RuntimeError(f"{' '.join(argv)}: exit {code}: {err}")
                self.high[(cmd, p, w)] = json.loads(_read(path))
        return self.high

    def _check_soundness(self, files):
        """Each value agrees with the same request at N + 4 to at least its
        claimed effective precision."""
        errors = []
        self.observed = []
        high = self._high_reports()
        for req in self.requests:
            key = (req["cmd"], req["p"], req["w"])
            if key not in high:
                continue
            doc = json.loads(files[req["out"]])
            agree = checks.value_agreement(doc["value"], high[key]["value"],
                                           req["p"])
            claim = doc["effective_precision"]
            self.observed.append((key, claim, agree))
            if agree < claim:
                errors.append(f"{' '.join(req['argv'][:-2])}: claims {claim} "
                              f"digits, agrees with N + 4 to {agree}")
        return errors

    def self_test(self):
        """Each kind of check must reject a corrupted output."""
        missed = []
        aj = next(r for r in self.requests if r["cmd"] == "aj")
        ver = next(r for r in self.requests if r["cmd"] == "verify")
        lv = next(r for r in self.requests if r["cmd"] == "lvalue")

        def corrupt(req, edit):
            files = dict(self.first)
            doc = json.loads(files[req["out"]])
            edit(doc, req["p"])
            files[req["out"]] = dump(doc).encode()
            return files

        bad = corrupt(aj, lambda d, p: _add_one(d["euler"]["E_fstar"], p))
        if not self._check_outcomes(self.first_outcomes, bad):
            missed.append("Euler factor")
        bad = corrupt(ver, lambda d, p: d.update(passed=False))
        if not self._check_outcomes(self.first_outcomes, bad):
            missed.append("identity check")
        bad = corrupt(lv, lambda d, p: _add_one(d["value"], p))
        if not self._check_soundness(bad):
            missed.append("precision soundness")
        path = aj["out"]
        if _stable(path, self.first[path] + b" ") == _stable(path, self.first[path]):
            missed.append("determinism")
        return missed

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _add_one(value, p):
    """Add 1 to a report value (scaled_to_dict form) in place."""
    e, coords, prec = checks.parse_value(value, p)
    width = len(value["mantissa"][0].split(",")) if not value["zero"] else N
    if value["zero"]:
        e, coords, prec = 0, (0,), width
    if e >= 0:
        mantissa, prec, e = 1 + coords[0] * p**e, min(prec + e, width), 0
    else:
        mantissa = coords[0] + p ** (-e)
    mantissa %= p**width
    digits = [str(mantissa // p**i % p) for i in range(width)]
    value.update(zero=False, p_power=e, mantissa_precision=prec)
    value["mantissa"] = [",".join(digits)] + list(value.get("mantissa", [])[1:])


def _stable(path, data):
    """Report bytes, with the verify reports' wall-clock field removed."""
    if "-verify-" in os.path.basename(path):
        doc = json.loads(data)
        doc.pop("seconds", None)
        return dump(doc).encode()
    return data


# ---------------------------------------------------------------------------
# analytic-nabla
# ---------------------------------------------------------------------------

NABLA_B = 16
NABLA_S = 1


def _hchar(ctx, ints):
    return WeightCharacter.from_classical(
        PadicRing(ctx.p, ctx.N, 1), ctx.ring.residue_order(), ints
    )


class AnalyticNabla:
    """nabla_pow(g^[p], (8, 8), r) with analytic exponents r: u = -s - 1
    and u = -s - 1 + (p - 1) p^m for m = 0..4, the classical shortcut
    stripped so every coefficient goes through ppow."""

    name = "analytic-nabla"

    def __init__(self, seed, workdir):
        requests = []
        self.inputs = {}
        for p, _ in PRIMES:
            ctx = context_for(D, p, N)
            ring1 = PadicRing(p, N, 1)
            tor = ctx.ring.residue_order()
            g = formgen.hilbert_eisenstein(8, ctx, NABLA_B).deplete("all")
            k = _hchar(ctx, (8, 8))
            base = ring1.from_int(-NABLA_S - 1)
            chi = (-NABLA_S - 1) % tor
            self.inputs[p] = (ctx, g, k)
            for m in (None, 0, 1, 2, 3, 4):
                u = base if m is None else base + ring1.from_int((p - 1) * p**m)
                r = WeightCharacter(ring1, tor, (u, ring1.zero), (chi, 0))
                requests.append({"p": p, "m": m, "r": r,
                                 "label": f"p={p} m={m}"})
        random.Random(seed).shuffle(requests)
        self.requests = requests
        self.first = None
        self.digests = None
        self.mismatched = 0

    def sweep(self, tag=None):
        outcomes = []
        for i, req in enumerate(self.requests):
            if tag:
                tag(i)
            ctx, g, k = self.inputs[req["p"]]
            outcomes.append(Outcome(False, nearlyoc.nabla_pow(g, k, req["r"])))
        return outcomes

    def record(self, outcomes):
        digests = [_digest(dump(noc_to_dict(o.output))) for o in outcomes]
        if self.first is None:
            self.first = [o.output for o in outcomes]
            self.digests = digests
        elif digests != self.digests:
            self.mismatched += 1

    def fingerprint(self):
        """Digest of the first sweep's outputs, or None if a later sweep
        gave different ones."""
        return None if self.mismatched else _digest("\n".join(self.digests))

    def certified_digits(self):
        return [N]

    def _by_key(self, outputs):
        return {(r["p"], r["m"]): o for r, o in zip(self.requests, outputs)}

    def check(self, outputs=None):
        outputs = self._by_key(outputs or self.first)
        errors = []
        if self.mismatched:
            errors.append(f"{self.mismatched} sweep(s) gave different expansions")
        for p, _ in PRIMES:
            ctx, g, k = self.inputs[p]
            base = outputs[(p, None)]
            classical = nearlyoc.nabla_pow(g, k, _hchar(ctx, (-NABLA_S - 1, 0)))
            agree = nearlyoc.noc_agreement(base, classical)
            if agree != N:
                errors.append(f"p = {p}: analytic route agrees with the "
                              f"classical route to {agree} < {N} digits")
            for m in range(5):
                agree = nearlyoc.noc_agreement(base, outputs[(p, m)])
                if agree < m + 1:
                    errors.append(f"p = {p}, m = {m}: perturbed exponent "
                                  f"agrees to {agree} < {m + 1} digits")
        return errors

    def self_test(self):
        outputs = list(self.first)
        i = next(j for j, r in enumerate(self.requests) if r["m"] is None)
        outputs[i] = _corrupt_noc(outputs[i])
        return [] if self.check(outputs) else ["analytic route"]

    def close(self):
        pass


def _corrupt_noc(gamma):
    deg, form = next(iter(sorted(gamma.terms.items())))
    key = next(iter(sorted(form.coeffs)))
    coeffs = dict(form.coeffs)
    coeffs[key] = coeffs[key] + form.ctx.ring.one
    terms = dict(gamma.terms)
    terms[deg] = form._like(coeffs)
    return type(gamma)(gamma.flavor, gamma.weight, terms)


# ---------------------------------------------------------------------------
# form-algebra
# ---------------------------------------------------------------------------

ALGEBRA_B = 20
ALGEBRA_PAIRS = 4


def _random_dense(rng, ctx, B):
    ring = ctx.ring
    coeffs = {}
    for key in quadfield.tot_pos_enum(ctx.field, quadfield.SUPPORT_DINV, B):
        a = rng.randrange(ring.modulus)
        b = rng.randrange(ring.modulus) if ring.degree == 2 else 0
        coeffs[key] = ring.make(a, b)
    return qexp.HilbertQExp(ctx, quadfield.SUPPORT_DINV, B, coeffs)


def _ints(f):
    """A form's coefficients as plain (a, b) integer pairs."""
    return {k: (v.a, v.b) for k, v in f.coeffs.items()}


class FormAlgebra:
    """Products of dense seeded Hilbert forms, then d_1, d_2, zeta_star,
    U and V at each prime above p, and depletion of the product."""

    name = "form-algebra"

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        requests = []
        for p, _ in PRIMES:
            ctx = context_for(D, p, N)
            for _ in range(ALGEBRA_PAIRS):
                f = _random_dense(rng, ctx, ALGEBRA_B)
                g = _random_dense(rng, ctx, ALGEBRA_B)
                requests.append({"p": p, "ctx": ctx, "f": f, "g": g,
                                 "label": f"p={p}"})
        rng.shuffle(requests)
        self.requests = requests
        self.first = None
        self.digests = None
        self.mismatched = 0

    def sweep(self, tag=None):
        outcomes = []
        for i, req in enumerate(self.requests):
            if tag:
                tag(i)
            ctx = req["ctx"]
            fg = req["f"] * req["g"]
            out = {"fg": fg, "d1": fg.d(1), "d2": fg.d(2),
                   "zeta": fg.zeta_star(), "dep": fg.deplete()}
            for j in ctx.primes_above_p():
                out[f"u{j}"] = fg.u(j)
                out[f"v{j}"] = fg.v(j)
            outcomes.append(Outcome(False, out))
        return outcomes

    def record(self, outcomes):
        digests = [
            _digest(repr(sorted((name, sorted(_ints(f).items()))
                                for name, f in o.output.items())))
            for o in outcomes
        ]
        if self.first is None:
            self.first = [o.output for o in outcomes]
            self.digests = digests
        elif digests != self.digests:
            self.mismatched += 1

    def fingerprint(self):
        """Digest of the first sweep's outputs, or None if a later sweep
        gave different ones."""
        return None if self.mismatched else _digest("\n".join(self.digests))

    def certified_digits(self):
        return [N]

    def check(self, outputs=None):
        outputs = outputs or self.first
        errors = []
        if self.mismatched:
            errors.append(f"{self.mismatched} sweep(s) gave different forms")
        for idx, (req, out) in enumerate(zip(self.requests, outputs)):
            ctx, f, g = req["ctx"], req["f"], req["g"]
            ring = ctx.ring
            ref = checks.convolve(_ints(f), _ints(g), ALGEBRA_B, ring.modulus,
                                  ring.nonresidue)
            if _ints(out["fg"]) != ref:
                errors.append(f"request {idx} (p = {req['p']}): f*g differs "
                              "from the schoolbook convolution")
            zeta = {n: (v.a, v.b) for n, v in out["zeta"].coeffs.items()}
            if zeta != checks.diagonal(ref, ring.modulus):
                errors.append(f"request {idx}: zeta_star(fg) differs from the "
                              "trace sums")
        # ring identities on one request per prime
        for p, _ in PRIMES:
            idx = next(j for j, r in enumerate(self.requests) if r["p"] == p)
            req, out = self.requests[idx], outputs[idx]
            f, g, fg = req["f"], req["g"], out["fg"]
            for i in (1, 2):
                if out[f"d{i}"] != f.d(i) * g + f * g.d(i):
                    errors.append(f"p = {p}: Leibniz rule fails for d_{i}")
            if out["zeta"] != f.zeta_star() * g.zeta_star():
                errors.append(f"p = {p}: zeta_star is not multiplicative")
            for i in req["ctx"].primes_above_p():
                uv = out[f"v{i}"].u(i)
                if qexp.agreement_valuation(uv, fg, uv.bound) != N:
                    errors.append(f"p = {p}: U_{i} V_{i} is not the identity")
        return errors

    def self_test(self):
        outputs = [dict(o) for o in self.first]
        fg = outputs[0]["fg"]
        key = next(iter(sorted(fg.coeffs)))
        coeffs = dict(fg.coeffs)
        coeffs[key] = coeffs[key] + fg.ctx.ring.one
        outputs[0]["fg"] = fg._like(coeffs)
        return [] if self.check(outputs) else ["product"]

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (CliLvalue, AnalyticNabla, FormAlgebra)}
