"""padicgz benchmark: one workload, one thread, closed loop.

    python3 perfbench/run.py --workload cli-lvalue --seed 1 --seconds 15 --trace 0

Run from the root of a source tree (the package is imported from
``src/``; nothing is installed).  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0  end-to-end metrics.  Three cold sessions run one after the
           other, each in a child process of its own: a timed set-up (one
           untimed warm-up sweep included), then warm sweeps for a third of
           --seconds, and at least four in the run.  setup_s is the median
           of the three set-ups, sweep_s the mean of all warm sweeps,
           peak_rss_mb the median peak resident set; the last session
           checks the outputs, and every session's outputs must equal its.
--trace 1  per-layer metrics: the set-up and the warm sweeps run in this
           process under timing and counting wrappers (see tracing.py); the
           spans are written to perfbench/out/.  The first half of the time
           runs untraced sweeps, so the tracing overhead is reported too.

Times of set-ups and sweeps are in seconds at the reference speed: wall
time scaled by the host's speed, which a fixed reference computation timed
between the requests measures (see hostspeed.py).  The wall times are kept
in perfbench/out/ and printed on standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SESSIONS = 3  # cold processes per plain run, one after the other
RUN_SWEEPS = 4  # warm sweeps per plain run at least; the last session adds
DEADLINE_S = 170  # a run ends within this, or fails


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--session", choices=("plain", "checked"),
                    help="run one cold session and print it (used internally)")
    ap.add_argument("--min-sweeps", type=int, default=1,
                    help="warm sweeps of a session at least (used internally)")
    return ap.parse_args(argv)


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "padicgz", "__init__.py")):
        sys.stderr.write(f"error: no padicgz sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import padicgz  # noqa: F401  (the package must import before timing)
    import workloads

    return workloads


def _workdir(args):
    return os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")


def _set_up(workloads, args):
    """Build the workload and run its untimed warm-up sweep.  Returns the
    workload and the set-up's wall time and reference times."""
    ref = hostspeed.sample()
    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, _workdir(args))
    build_s = time.perf_counter() - t0
    warm = _sweep(wl)
    return wl, {"wall_s": build_s + warm["wall_s"],
                "ref_s": [ref] + warm["ref_s"]}


def _sweep(wl, on_request=None):
    """One sweep, with the host's speed sampled before each request and
    after the last.  Returns the wall time of its requests (the samples
    left out), each request's time, the reference times and the failed
    requests; on_request(request) is called before each request."""
    clock = time.perf_counter
    spans, refs = [], []

    def tag(i):
        if spans:
            spans[-1][1] = clock()
        refs.append(hostspeed.sample())
        if on_request:
            on_request(i)
        spans.append([clock(), None])

    outcomes = wl.sweep(tag)
    spans[-1][1] = clock()
    refs.append(hostspeed.sample())
    wl.record(outcomes)
    request_s = [end - start for start, end in spans]
    return {"wall_s": sum(request_s), "request_s": request_s, "ref_s": refs,
            "failed": sum(o.failed for o in outcomes)}


def _sweeps(wl, seconds, on_request=None, min_sweeps=1):
    """Warm sweeps for about `seconds` of wall time: the whole number of
    sweeps nearest to it, at least min_sweeps.  on_request(sweep, request)
    is called before each request."""
    done = []
    while (len(done) < min_sweeps
           or sum(d["wall_s"] for d in done) + done[-1]["wall_s"] / 2 < seconds):
        n = len(done)
        tag = (lambda i: on_request(n, i)) if on_request else None
        done.append(_sweep(wl, tag))
    return done


def _at_ref(timed):
    """A timed piece of work's wall time in seconds at the reference speed."""
    return timed["wall_s"] * hostspeed.scale(timed["ref_s"])


def _verify(wl):
    errors = wl.check()
    missed = wl.self_test()
    if missed:
        errors.append(f"self-test: corrupted output not caught by {missed}")
    for e in errors:
        sys.stderr.write(f"check failed: {e}\n")
    return not errors


def _session(workloads, args):
    """One cold session in this process: set-up, warm sweeps, and with
    --session checked the output checks."""
    wl, setup = _set_up(workloads, args)
    try:
        sweeps = _sweeps(wl, args.seconds, min_sweeps=args.min_sweeps)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        doc = {
            "setup_s": _at_ref(setup), "setup_wall_s": setup["wall_s"],
            "sweep_s": [_at_ref(d) for d in sweeps],
            "sweep_wall_s": [d["wall_s"] for d in sweeps],
            "request_s": [d["request_s"] for d in sweeps],
            "ref_s": [setup["ref_s"]] + [d["ref_s"] for d in sweeps],
            "attempted": len(sweeps) * len(wl.requests),
            "failed": sum(d["failed"] for d in sweeps),
            "rss_mb": rss, "fingerprint": wl.fingerprint(),
            "digits": wl.certified_digits(),
            "requests": [r["label"] for r in wl.requests],
        }
        if args.session == "checked":
            doc["correct"] = _verify(wl)
    finally:
        wl.close()
    return doc


def _child_session(args, kind, min_sweeps, deadline):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           repr(args.seconds / SESSIONS), "--session", kind,
           "--min-sweeps", str(min_sweeps)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(res.stderr)
    if res.returncode != 0:
        raise RuntimeError(f"{kind} session exited {res.returncode}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def _run_plain(workloads, args):
    deadline = time.monotonic() + DEADLINE_S
    sessions = [_child_session(args, "plain", 1, deadline)
                for _ in range(SESSIONS - 1)]
    swept = sum(len(s["sweep_s"]) for s in sessions)
    sessions.append(_child_session(args, "checked",
                                   max(1, RUN_SWEEPS - swept), deadline))
    checked = sessions[-1]
    prints = {s["fingerprint"] for s in sessions}
    same = len(prints) == 1 and None not in prints
    if not same:
        sys.stderr.write("check failed: sessions gave different outputs, or "
                         "a session's sweeps differed\n")
    setups = [s["setup_s"] for s in sessions]
    times = [t for s in sessions for t in s["sweep_s"]]
    digits = checked["digits"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "sweep_s": (statistics.fmean(times), "s"),
        "peak_rss_mb": (statistics.median(s["rss_mb"] for s in sessions), "MB"),
        "certified_digits_min": (min(digits), "digits"),
        "certified_digits_mean": (statistics.fmean(digits), "digits"),
    }
    sys.stderr.write(
        f"{args.workload}: set-ups {[round(s, 3) for s in setups]} s, "
        f"sweeps {[[round(t, 3) for t in s['sweep_s']] for s in sessions]} s "
        "at the reference speed; wall "
        f"{[round(s['setup_wall_s'], 3) for s in sessions]} s and "
        f"{[[round(t, 3) for t in s['sweep_wall_s']] for s in sessions]} s\n"
    )
    _write(f"run-{args.workload}-seed{args.seed}.json", {
        "workload": args.workload, "seed": args.seed, "sessions": sessions,
    })
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    return checked["correct"] and same, attempted, failed, metrics


def _run_traced(workloads, args):
    import tracing

    tracer = tracing.Tracer()
    tracer.request = "setup"
    tracer.install(tracing.entries())
    try:
        wl, setup = _set_up(workloads, args)
        tracer.uninstall()
        plain = _sweeps(wl, args.seconds / 2, min_sweeps=2)
        tracer.install(tracing.entries())
        tracer.set_phase("sweep")

        def tag(sweep, i):
            tracer.request = f"s{sweep}r{i}"

        traced = _sweeps(wl, args.seconds / 2, tag, min_sweeps=2)
    finally:
        tracer.uninstall()
    try:
        correct = _verify(wl)
    finally:
        wl.close()
    # layer times too are given at the reference speed
    scales = {"setup": hostspeed.scale(setup["ref_s"]),
              "sweep": statistics.fmean(hostspeed.scale(d["ref_s"])
                                        for d in traced)}
    metrics = {}
    for name, v in tracing.layer_metrics(tracer, len(traced)).items():
        phase = "setup" if name.startswith("setup.") else "sweep"
        scale = scales[phase] if v["unit"] == "s" else 1
        metrics[name] = (v["value"] * scale, v["unit"])
    sweep_s = statistics.median(_at_ref(d) for d in traced)
    untraced = statistics.median(_at_ref(d) for d in plain)
    metrics["trace.sweep_s"] = (sweep_s, "s")
    metrics["trace.untraced_sweep_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (sweep_s - untraced, "s")
    sys.stderr.write(
        f"{args.workload}: traced sweep {sweep_s:.3f} s, untraced "
        f"{untraced:.3f} s, overhead {sweep_s - untraced:+.3f} s "
        "(at the reference speed)\n"
    )
    _write_spans(tracer, args)
    attempted = (len(plain) + len(traced)) * len(wl.requests)
    failed = sum(d["failed"] for d in plain + traced)
    return correct, attempted, failed, metrics


def _write(name, doc):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _write_spans(tracer, args):
    path = _write(f"trace-{args.workload}-seed{args.seed}.json", {
        "workload": args.workload,
        "seed": args.seed,
        "fields": ["name", "start", "end", "span", "parent", "request"],
        "spans": tracer.spans,
        "totals": {
            phase: tracer.phase_totals(phase) for phase in ("setup", "sweep")
        },
    })
    sys.stderr.write(f"wrote {len(tracer.spans)} spans to {path}\n")


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    workloads = _import_package()
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; one of "
                         f"{sorted(workloads.WORKLOADS)}\n")
        return 2
    gc.collect()
    if args.session:
        print(json.dumps(_session(workloads, args)))
        return 0
    run = _run_traced if args.trace else _run_plain
    correct, attempted, failed, metrics = run(workloads, args)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
