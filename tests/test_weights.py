"""Unit tests for weight characters and pair classification."""

import pytest

from padicgz.errors import CentralCharMismatch
from padicgz.padic import PadicRing
from padicgz.weights import (
    Classification,
    WeightCharacter,
    WeightPair,
    char_shift,
    classify_pair,
)

R = PadicRing(7, 6)


def wchar(*ints, torsion=6):
    return WeightCharacter.from_classical(R, torsion, ints)


def test_classify_balanced():
    c = classify_pair(WeightPair.from_ell_k((8, 8), 12))
    assert c == Classification("balanced", s=1)
    c = classify_pair(WeightPair.from_ell_k((2, 2), 2))
    assert c.kind == "balanced" and c.s == 0 and c.weight2_special
    c = classify_pair(WeightPair.from_ell_k((3, 5), 10))
    assert c == Classification("f_dominated", t=1)
    assert classify_pair(WeightPair.from_ell_k((4, 4), 0)).kind == "neither"
    # s beyond min(ell) - 2 is rejected
    assert classify_pair(WeightPair.from_ell_k((4, 8), 2)).kind == "neither"


def test_classify_central_char():
    with pytest.raises(CentralCharMismatch):
        classify_pair(WeightPair((1, 1), 0, 1, 2))


def test_classify_stable_under_rederivation():
    for v in [(4, 4), (1, 3), (2, 5)]:
        for n in (0, 2):
            for w in range(1, 8):
                pair = WeightPair(v, n, w, 2 * n)
                ell, k = pair.ell, pair.k
                c = classify_pair(pair)
                if c.kind == "balanced":
                    assert k == ell[0] + ell[1] - 2 * (c.s + 1)
                elif c.kind == "f_dominated":
                    assert k == ell[0] + ell[1] + 2 * c.t


def test_char_shift_restrict():
    k = wchar(8, 8)
    r = char_shift(k, k, "restrict")
    assert r.classical == (16,)
    assert r.u[0] == R.from_int(16)


def test_char_shift_add2r():
    ell = wchar(8, 8)
    r = wchar(-2, 0)
    shifted = char_shift(ell, r, "add2r")
    assert shifted.classical == (4, 8)
    assert char_shift(ell, wchar(0, 0), "add2r") == ell


def test_char_shift_associative():
    a, b, c = wchar(3, 5), wchar(1, 0), wchar(2, 2)
    lhs = char_shift(char_shift(a, b, "add2r"), c, "add2r")
    rhs = char_shift(a, WeightCharacter.from_classical(R, 6, (5, 4)), "add2r")
    # b + 2c = (1+4, 0+4) = (5, 4)... as characters 2(b+2c) vs 2b + 4c: check directly
    direct = char_shift(char_shift(a, c, "add2r"), b, "add2r")
    twice = char_shift(char_shift(a, b, "add2r"), c, "add2r")
    assert direct.u != None and twice.u != None
    assert char_shift(char_shift(a, b, "add2r"), c, "add2r").u == char_shift(
        char_shift(a, c, "add2r"), b, "add2r"
    ).u


def test_component_and_shift():
    k = wchar(8, 8)
    k2 = k.shift_component(0, 2)
    assert k2.classical == (10, 8)
    assert k.component(1).classical == (8,)

