"""The host's speed, measured by a fixed reference computation.

The benchmark runs on a few cores of a shared host, whose speed drifts with
the other tenants' load: the same warm sweep took from 0.63 to 1.2 s within
four minutes in one process.  Every end-to-end time therefore travels with
a measurement of the host's speed at that moment.  Between the requests of a
sweep the benchmark times ``reference()``, a fixed piece of pure-Python work
that uses no padicgz code, in the style of the package's inner loops:
slotted number objects whose ``__mul__`` reduces big integers mod p^N, and a
dict keyed by index tuples.  Over that same four minutes the sweep's time
divided by the mean reference time varied 1.035x between blocks of ten
sweeps, against 1.77x for the sweep time alone.

A time multiplied by ``REF_S / mean reference time`` is in seconds at the
reference speed: the speed at which ``reference()`` takes ``REF_S``.  A
change to padicgz does not change the reference, so a slower program still
reads slower.
"""

from __future__ import annotations

import gc
import statistics
import time

REF_S = 0.005  # reference() takes this long at the reference speed
_MODULUS = 7**12
_STEPS = 4500


class _Num:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        return _Num(self.v * other.v % _MODULUS)

    def __add__(self, other):
        return _Num((self.v + other.v) % _MODULUS)


def reference():
    table = {}
    x, y = _Num(3), _Num(5)
    for i in range(_STEPS):
        x = x * y + x
        key = (i % 31, i % 29)
        table[key] = table[key] * x if key in table else x
    return len(table)


def sample():
    """Time one reference() call, with the garbage collector off so that a
    collection of the program's heap is not charged to the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(samples):
    """Factor from wall seconds to seconds at the reference speed."""
    return REF_S / statistics.fmean(samples)
