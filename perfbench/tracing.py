"""Timing and counting wrappers around padicgz's public entry points.

The tracer patches functions and methods from the outside; nothing in the
package changes.  A module-level function is replaced in every padicgz
module that holds a reference to it (``from .x import f`` copies the
name), a method is replaced on its class.  ``uninstall`` puts every
original back.

Three kinds of entry:

* ``span``  -- timed; every call is kept as a span record
  (name, start, end, span id, parent span id, request id);
* ``hot``   -- timed and counted, but not kept one by one, because it is
  called once per coefficient (``ppow``, ``sigma``, ...);
* ``count`` -- only counted, for the scalar operators whose timing would
  cost more than the operation (``PadicNum.__mul__``).

Self time of an entry is its duration minus the time of the timed entries
and garbage collections nested inside it.  Totals are kept per phase
("setup" and "sweep") so set-up work and warm-sweep work stay apart.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.request = None
        self.spans = []
        # (phase, name) -> {"calls": n, "self_s": t, <quantity>: x}
        self.totals = defaultdict(lambda: defaultdict(float))
        self._stack = []  # frames: [name, start, child_s, span_id]
        self._next_id = 0
        self._patches = []
        self._gc_start = None
        self._counters = {}

    # -- recording ---------------------------------------------------------

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def _timed(self, name, fn, keep_span, quantity):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span_id = None
            parent = None
            if keep_span:
                parent = tracer._parent_span()
                span_id = tracer._next_id
                tracer._next_id += 1
            outer = stack[-1][0] if stack else None
            frame = [name, _clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                tot = tracer.totals[(tracer.phase, name)]
                tot["calls"] += 1
                tot["self_s"] += dur - frame[2]
                if keep_span:
                    tracer.spans.append(
                        (name, frame[1], end, span_id, parent, tracer.request)
                    )
            # a recursive call (d_char on a classical character) counts once
            if quantity is not None and outer != name:
                qname, measure = quantity
                tot[qname] += measure(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        # a bare closure counter: these wrap the scalar operators, which run
        # millions of times a sweep; set_phase folds the count into totals
        cell = self._counters.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _flush_counters(self):
        for name, cell in self._counters.items():
            if cell[0]:
                self.totals[(self.phase, name)]["calls"] += cell[0]
                cell[0] = 0

    def set_phase(self, phase):
        self._flush_counters()
        self.phase = phase

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = _clock()
            return
        if self._gc_start is None:
            return
        dur = _clock() - self._gc_start
        self._gc_start = None
        if self._stack:
            self._stack[-1][2] += dur
        tot = self.totals[(self.phase, "runtime.gc")]
        tot["collections"] += 1
        tot["self_s"] += dur

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module, attr, name, kind="span", quantity=None):
        """Wrap module.attr and every padicgz module's copy of it."""
        orig = getattr(module, attr)
        wrapper = self._make(name, orig, kind, quantity)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "padicgz" or mod_name.startswith("padicgz.")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapper)

    def patch_method(self, cls, attr, name, kind="span", quantity=None):
        """Wrap cls.attr, and any alias of it on the same class."""
        orig = cls.__dict__[attr]
        wrapper = self._make(name, orig, kind, quantity)
        for key, value in list(vars(cls).items()):
            if value is orig:
                self._set(cls, key, wrapper)

    def _make(self, name, fn, kind, quantity):
        if kind == "count":
            return self._counted(name, fn)
        return self._timed(name, fn, kind == "span", quantity)

    def install(self, entries):
        for entry in entries:
            target, attr, name, kind, quantity = entry
            if isinstance(target, type):
                self.patch_method(target, attr, name, kind, quantity)
            else:
                self.patch_function(target, attr, name, kind, quantity)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def phase_totals(self, phase):
        self._flush_counters()
        return {
            name: dict(values)
            for (ph, name), values in self.totals.items()
            if ph == phase
        }


def _len_coeffs(args, result):
    return len(result.coeffs)


def _len_input_coeffs(args, result):
    return len(args[0].coeffs)


def _len_terms(args, result):
    return len(result.terms)


def _budget_loss(args, result):
    return result.budget.total_loss


def _pair_loss(args, result):
    return result[1].total_loss


def _file_bytes(args, result):
    import os

    return os.path.getsize(args[0])


def entries():
    """The traced entry points: (owner, attribute, name, kind, quantity).

    quantity is None or (quantity name, measure(args, result))."""
    from padicgz import (
        cli,
        formgen,
        heckeslope,
        lvalue,
        nearlyoc,
        padic,
        qexp,
        quadfield,
        serialize,
        suites,
    )

    out = [
        (padic, "ppow", "padic.ppow", "hot", None),
        (padic, "pexp", "padic.pexp", "hot", None),
        (padic, "plog", "padic.plog", "hot", None),
        (padic, "teichmuller", "padic.teichmuller", "hot", None),
        (padic.PadicNum, "__mul__", "padic.mul", "count", None),
        (padic.PadicNum, "__pow__", "padic.pow", "count", None),
        (quadfield.PrimeSplitting, "sigma", "quadfield.sigma", "hot", None),
        (quadfield, "ideal_divisors", "quadfield.ideal_divisors", "hot", None),
        (quadfield, "tot_pos_enum", "quadfield.tot_pos_enum", "span", None),
        (qexp, "agreement_valuation", "qexp.agreement", "span", None),
        (nearlyoc, "nabla_pow", "nearlyoc.nabla_pow", "span",
         ("terms", _len_terms)),
        (nearlyoc.NearlyOCExpansion, "assert_divisibility",
         "nearlyoc.assert_divisibility", "span", None),
        (nearlyoc, "from_omega_eta", "nearlyoc.from_omega_eta", "span", None),
        (nearlyoc, "zeta_star_noc", "nearlyoc.zeta_star_noc", "span", None),
        (nearlyoc, "oc_project", "nearlyoc.oc_project", "span",
         ("digits_charged", _budget_loss)),
        (nearlyoc, "noc_agreement", "nearlyoc.noc_agreement", "span", None),
        (heckeslope, "eigen_pair", "heckeslope.eigen_pair", "span",
         ("digits_charged", _pair_loss)),
        (heckeslope, "canonical_rows", "heckeslope.canonical_rows", "span", None),
        (lvalue, "lp_balanced", "lvalue.lp_balanced", "span", None),
        (lvalue, "aj_value", "lvalue.aj_value", "span", None),
        (lvalue, "verify_gz", "lvalue.verify_gz", "span", None),
        (lvalue, "gz_sum", "lvalue.gz_sum", "span", None),
        (formgen, "hilbert_eisenstein", "formgen.hilbert_eisenstein", "span", None),
        (formgen, "demo_basis", "formgen.demo_basis", "span", None),
        (serialize, "dump", "serialize.dump", "span", None),
        (serialize, "basis_fingerprint", "serialize.basis_fingerprint", "span",
         None),
        (serialize, "write_json", "serialize.write_json", "span",
         ("report_bytes", _file_bytes)),
        (cli, "main", "cli.main", "span", None),
        (suites, "suite_gz_inert", "suites.gz", "span", None),
        (suites, "suite_gz_split", "suites.gz", "span", None),
    ]
    for cls in (qexp.HilbertQExp, qexp.EllipticQExp):
        out += [
            (cls, "__mul__", "qexp.mul", "span", ("out_coeffs", _len_coeffs)),
            (cls, "d_char", "qexp.d_char", "span", ("coeffs", _len_input_coeffs)),
            (cls, "d", "qexp.d", "span", None),
            (cls, "deplete", "qexp.deplete", "span", None),
            (cls, "u", "qexp.shift", "span", None),
            (cls, "v", "qexp.shift", "span", None),
            (cls, "t", "qexp.shift", "span", None),
            (cls, "__add__", "qexp.linear", "span", None),
            (cls, "__sub__", "qexp.linear", "span", None),
            (cls, "scale", "qexp.linear", "span", None),
            (cls, "truncated", "qexp.linear", "span", None),
        ]
    out += [
        (qexp.HilbertQExp, "zeta_star", "qexp.zeta_star", "span", None),
        (qexp.HilbertQExp, "v_rational_p", "qexp.shift", "span", None),
    ]
    return out


# The per-layer metrics, with the tracer total each one reads:
# (metric name, unit, entry name, quantity).  Metrics under "setup." read
# the traced set-up (which includes the warm-up sweep); all others are the
# average per traced warm sweep.
LAYER_METRICS = [
    ("padic.ppow.calls", "count", "padic.ppow", "calls"),
    ("padic.ppow.self_s", "s", "padic.ppow", "self_s"),
    ("padic.pexp.self_s", "s", "padic.pexp", "self_s"),
    ("padic.plog.calls", "count", "padic.plog", "calls"),
    ("padic.teichmuller.self_s", "s", "padic.teichmuller", "self_s"),
    ("padic.mul.calls", "count", "padic.mul", "calls"),
    ("padic.pow.calls", "count", "padic.pow", "calls"),
    ("quadfield.sigma.calls", "count", "quadfield.sigma", "calls"),
    ("quadfield.sigma.self_s", "s", "quadfield.sigma", "self_s"),
    ("quadfield.ideal_divisors.self_s", "s", "quadfield.ideal_divisors", "self_s"),
    ("quadfield.tot_pos_enum.self_s", "s", "quadfield.tot_pos_enum", "self_s"),
    ("qexp.mul.calls", "count", "qexp.mul", "calls"),
    ("qexp.mul.self_s", "s", "qexp.mul", "self_s"),
    ("qexp.mul.out_coeffs", "count", "qexp.mul", "out_coeffs"),
    ("qexp.d_char.coeffs", "count", "qexp.d_char", "coeffs"),
    ("qexp.d_char.self_s", "s", "qexp.d_char", "self_s"),
    ("qexp.d.self_s", "s", "qexp.d", "self_s"),
    ("qexp.zeta_star.self_s", "s", "qexp.zeta_star", "self_s"),
    ("qexp.deplete.self_s", "s", "qexp.deplete", "self_s"),
    ("qexp.shift.self_s", "s", "qexp.shift", "self_s"),
    ("qexp.linear.self_s", "s", "qexp.linear", "self_s"),
    ("qexp.agreement.self_s", "s", "qexp.agreement", "self_s"),
    ("nearlyoc.nabla_pow.self_s", "s", "nearlyoc.nabla_pow", "self_s"),
    ("nearlyoc.nabla_pow.terms", "count", "nearlyoc.nabla_pow", "terms"),
    ("nearlyoc.assert_divisibility.self_s", "s",
     "nearlyoc.assert_divisibility", "self_s"),
    ("nearlyoc.from_omega_eta.self_s", "s", "nearlyoc.from_omega_eta", "self_s"),
    ("nearlyoc.zeta_star_noc.self_s", "s", "nearlyoc.zeta_star_noc", "self_s"),
    ("nearlyoc.oc_project.self_s", "s", "nearlyoc.oc_project", "self_s"),
    ("nearlyoc.oc_project.digits_charged", "digits", "nearlyoc.oc_project",
     "digits_charged"),
    ("nearlyoc.noc_agreement.self_s", "s", "nearlyoc.noc_agreement", "self_s"),
    ("heckeslope.eigen_pair.self_s", "s", "heckeslope.eigen_pair", "self_s"),
    ("heckeslope.canonical_rows.calls", "count", "heckeslope.canonical_rows",
     "calls"),
    ("heckeslope.canonical_rows.self_s", "s", "heckeslope.canonical_rows",
     "self_s"),
    ("heckeslope.digits_charged", "digits", "heckeslope.eigen_pair",
     "digits_charged"),
    ("lvalue.lp_balanced.self_s", "s", "lvalue.lp_balanced", "self_s"),
    ("lvalue.aj_value.self_s", "s", "lvalue.aj_value", "self_s"),
    ("lvalue.verify_gz.self_s", "s", "lvalue.verify_gz", "self_s"),
    ("lvalue.gz_sum.self_s", "s", "lvalue.gz_sum", "self_s"),
    ("formgen.hilbert_eisenstein.self_s", "s", "formgen.hilbert_eisenstein",
     "self_s"),
    ("formgen.demo_basis.self_s", "s", "formgen.demo_basis", "self_s"),
    ("serialize.dump.self_s", "s", "serialize.dump", "self_s"),
    ("serialize.basis_fingerprint.self_s", "s", "serialize.basis_fingerprint",
     "self_s"),
    ("serialize.report_bytes", "bytes", "serialize.write_json", "report_bytes"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("suites.gz.self_s", "s", "suites.gz", "self_s"),
    ("runtime.gc.self_s", "s", "runtime.gc", "self_s"),
    ("runtime.gc.collections", "count", "runtime.gc", "collections"),
]

SETUP_METRICS = [
    "padic.ppow.calls",
    "padic.plog.calls",
    "padic.teichmuller.self_s",
    "quadfield.ideal_divisors.self_s",
    "quadfield.tot_pos_enum.self_s",
    "formgen.hilbert_eisenstein.self_s",
    "formgen.demo_basis.self_s",
]


def layer_metrics(tracer, sweeps):
    """Per-layer metric values from a tracer that ran `sweeps` warm sweeps."""
    table = {m[0]: m for m in LAYER_METRICS}
    setup = tracer.phase_totals("setup")
    sweep = tracer.phase_totals("sweep")
    out = {}
    for name, unit, entry, quantity in LAYER_METRICS:
        value = sweep.get(entry, {}).get(quantity, 0) / sweeps
        out[name] = {"value": value, "unit": unit}
    for name in SETUP_METRICS:
        _, unit, entry, quantity = table[name]
        value = setup.get(entry, {}).get(quantity, 0)
        out["setup." + name] = {"value": value, "unit": unit}
    return out
