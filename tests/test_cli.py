"""CLI dispatch, exit codes, and file plumbing."""

import hashlib
import json

import pytest

from padicgz.cli import main
from padicgz.formgen import hilbert_eisenstein
from padicgz.lvalue import verify_gz
from padicgz.nearlyoc import nabla_pow
from padicgz.padic import PadicRing
from padicgz.serialize import context_for, dump, noc_to_dict, read_json
from padicgz.weights import WeightCharacter


def test_classify(capsys):
    assert main(["classify", "--l", "3,5", "--k", "10"]) == 0
    assert "F-dominated, t=1" in capsys.readouterr().out
    assert main(["classify", "--l", "2,2", "--k", "2"]) == 0
    assert "special corner" in capsys.readouterr().out


def test_gen_apply_diag(tmp_path, capsys):
    g = tmp_path / "g.json"
    z = tmp_path / "z.json"
    assert main([
        "gen", "hilbert-eisenstein", "--k", "2", "--D", "5", "--p", "11",
        "--N", "8", "--B", "10", "--out", str(g),
    ]) == 0
    assert main(["apply", "diag", "--in", str(g), "--out", str(z)]) == 0
    doc = read_json(z)
    assert doc["flavor"] == "elliptic"
    # b_1 = 2: the two trace-one elements of the inverse different
    row = [c for c in doc["coeffs"] if c["n"] == 1][0]
    assert row["value"][0].startswith("2,")


def test_gen_deplete_support(tmp_path):
    g = tmp_path / "g.json"
    gd = tmp_path / "gd.json"
    main(["gen", "random-depleted", "--seed", "3", "--D", "5", "--p", "11",
          "--N", "8", "--B", "10", "--out", str(g)])
    assert main(["apply", "deplete", "--in", str(g), "--out", str(gd),
                 "--primes", "p1"]) == 0
    assert read_json(gd)["coeffs"]


def test_gen_deplete_at_a_large_split_prime(tmp_path):
    # 10^9 + 9 is split in Q(sqrt 5); depletion takes O(1) per key there too
    g = tmp_path / "g.json"
    gd = tmp_path / "gd.json"
    assert main(["gen", "random-depleted", "--seed", "3", "--D", "5", "--p",
                 "1000000009", "--N", "2", "--B", "4", "--out", str(g)]) == 0
    assert main(["apply", "deplete", "--in", str(g), "--out", str(gd),
                 "--primes", "p1"]) == 0
    assert read_json(gd)["coeffs"] == read_json(g)["coeffs"]


@pytest.mark.parametrize("p,args", [
    ("11", ["dpow", "--i", "3"]),
    ("11", ["dpow", "--i", "0"]),
    ("7", ["dpow", "--i", "3"]),
    ("7", ["deplete", "--primes", "p2"]),
])
def test_apply_out_of_range_index_exit_code(tmp_path, capsys, p, args):
    # no embedding 3 or 0; p = 7 is inert in Q(sqrt 5), so no prime p2
    g = tmp_path / "g.json"
    out = tmp_path / "out.json"
    assert main(["gen", "random-depleted", "--seed", "3", "--D", "5", "--p", p,
                 "--N", "6", "--B", "8", "--out", str(g)]) == 0
    capsys.readouterr()
    assert main(["apply", *args, "--in", str(g), "--out", str(out)]) == 3
    assert "configuration" in capsys.readouterr().err
    assert not out.exists()


def test_config_error_exit_code(tmp_path, capsys):
    assert main(["gen", "hilbert-eisenstein", "--k", "2", "--D", "6", "--p", "11",
                 "--N", "8", "--B", "10", "--out", str(tmp_path / "x.json")]) == 3
    err = capsys.readouterr().err
    assert "configuration" in err


def test_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["apply", "diag", "--in", str(bad), "--out",
                 str(tmp_path / "o.json")]) == 3


def _set(path, value):
    def edit(doc):
        *head, last = path
        for k in head:
            doc = doc[k]
        doc[last] = value
    return edit


MALFORMED = {
    "n not an integer": ("eisenstein", _set(("coeffs", 0, "n"), "abc")),
    "prime a string": ("random-depleted", _set(("prime",), "7")),
    "value not digit strings": ("random-depleted", _set(("coeffs", 0, "value"), [7])),
    "beta not integers": ("random-depleted", _set(("coeffs", 0, "beta"), ["a", "b"])),
    "bound a string": ("random-depleted", _set(("bound",), "x")),
    "support OL": ("random-depleted", _set(("support",), "OL")),
    "missing file": (None, None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exit_code(tmp_path, capsys, case):
    recipe, edit = MALFORMED[case]
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    if recipe is not None:
        assert main(["gen", recipe, "--D", "5", "--p", "11", "--N", "4",
                     "--B", "6", "--out", str(src)]) == 0
        doc = read_json(src)
        edit(doc)
        src.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["apply", "deplete", "--in", str(src), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "configuration" in err
    if recipe is None:
        assert str(src) in err
    assert not out.exists()


def test_verify_exit_codes(capsys):
    rc = main(["verify", "gz-inert", "--D", "5", "--p", "7", "--l", "4,4",
               "--s", "0", "--N", "8", "--B", "16"])
    assert rc == 0
    assert "PASS gz-inert" in capsys.readouterr().out


def test_verify_operators_runs_the_named_prime(tmp_path, capsys):
    out = tmp_path / "ops.json"
    assert main(["verify", "operators", "--p", "13", "--D", "5", "--N", "4",
                 "--B", "6", "--out", str(out)]) == 0
    assert "PASS operators" in capsys.readouterr().out
    assert read_json(out)["details"] == [{"p": 13, "forms": 100, "failures": 0}]


@pytest.mark.parametrize("suite,p,named,other", [
    ("gz-split", "7", "split", "inert"),
    ("gz-inert", "11", "inert", "split"),
    ("decomposition", "7", "split", "inert"),
    ("vanishing", "7", "split", "inert"),
])
def test_verify_wrong_prime_exit_code(capsys, suite, p, named, other):
    # a suite of one splitting kind is never reported as checked (or as an
    # identity failure) on a prime of the other kind
    rc = main(["verify", suite, "--D", "5", "--p", p, "--l", "8,8", "--s", "1",
               "--N", "12", "--B", "21"])
    assert rc == 3
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert f"p = {p} is {other} in D = 5, not {named}" in captured.err


RING7 = ["--D", "5", "--p", "7", "--N", "8", "--B", "10"]
MALFORMED_INTS = {
    "lvalue one weight": (
        ["lvalue", "--balanced", *RING7, "--l", "8", "--s", "1"], "two weights"),
    "lvalue non-integer weight": (
        ["lvalue", "--balanced", *RING7, "--l", "8,x", "--s", "1"], "integers"),
    "aj one weight": (["aj", "--inert", *RING7, "--l", "8", "--s", "1"], "two weights"),
    "aj non-integer weight": (
        ["aj", "--inert", *RING7, "--l", "8,x", "--s", "1"], "integers"),
    "classify one weight": (["classify", "--l", "8", "--k", "12"], "two weights"),
    "classify three weights": (["classify", "--l", "8,8,8", "--k", "12"], "two weights"),
    "euler non-integer root": (
        ["euler", "--kind", "inert", "--t", "0", "--g-roots", "2,x", "--f-roots", "5,1",
         "--p", "7"], "integers"),
    "gz-inert one weight": (["verify", "gz-inert", *RING7, "--l", "8"], "two weights"),
    "gz-inert non-parallel": (
        ["verify", "gz-inert", *RING7, "--l", "8,9"], "parallel-weight"),
    # the built-in weight-(l1, l1) family must not pass for a weight-(8, 10) l
    "gz-split non-parallel 8,10": (
        ["verify", "gz-split", "--D", "5", "--p", "11", "--l", "8,10", "--s", "1",
         "--B", "20"], "parallel-weight"),
    "gz-split non-parallel 10,8": (
        ["verify", "gz-split", "--D", "5", "--p", "11", "--l", "10,8", "--s", "1",
         "--B", "20"], "parallel-weight"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INTS))
def test_malformed_integer_list_exit_code(capsys, case):
    argv, reason = MALFORMED_INTS[case]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "configuration" in captured.err and reason in captured.err


OUT = ["--out", "{out}"]
BAD_INPUTS = {
    "ocproj non-integer weight": (
        ["apply", "ocproj", "--in", "{noc}", "--weight", "x", *OUT], "--weight"),
    "curve two a-invariants": (
        ["gen", "curve", "--p", "7", "--ainvs", "1,2", *OUT], "a-invariants"),
    "delta negative bound": (["gen", "delta", "--p", "7", "--B", "-1", *OUT], "--B"),
    "eisenstein negative bound": (
        ["gen", "eisenstein", "--p", "7", "--B", "-3", *OUT], "--B"),
    "report of a form file": (["report", "--in", "{form}"], "missing field 'kind'"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exit_code(tmp_path, capsys, case):
    # a named configuration error: no traceback, no form with a negative
    # bound, no report rendered with kind None
    form, noc, out = tmp_path / "form.json", tmp_path / "noc.json", tmp_path / "o.json"
    assert main(["gen", "hilbert-eisenstein", "--k", "4", "--D", "5", "--p", "7",
                 "--N", "4", "--B", "6", "--out", str(form)]) == 0
    assert main(["apply", "nabla", "--in", str(form), "--out", str(noc)]) == 0
    capsys.readouterr()
    argv, reason = BAD_INPUTS[case]
    assert main([a.format(form=form, noc=noc, out=out) for a in argv]) == 3
    captured = capsys.readouterr()
    assert "configuration" in captured.err and reason in captured.err
    assert "kind:" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("command,p", [(c, p) for c in ("lvalue", "aj") for p in (7, 11)])
def test_bound_grid_exit_codes(capsys, command, p):
    # exit 2 only when an identity was compared: a --B below the demo
    # basis's canonical rows is a configuration error, not a failed check
    kind = {"lvalue": "--balanced", "aj": "--inert" if p == 7 else "--split"}[command]
    for N in (1, 8, 12):
        for B in (0, 1, p - 1, p, 40):
            argv = [command, kind, "--D", "5", "--p", str(p), "--l", "8,8", "--s", "1",
                    "--N", str(N), "--B", str(B)]
            assert main(argv) in (0, 3, 4), " ".join(argv)
            capsys.readouterr()


@pytest.mark.parametrize("suite,p", [("gz-inert", "7"), ("gz-split", "11")])
def test_verify_empty_depleted_input_exit_code(capsys, suite, p):
    # at B = 0 the depleted form has no coefficient, so nothing is compared
    assert main(["verify", suite, "--D", "5", "--p", p, "--N", "8", "--B", "0"]) == 3
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "depleted input has no coefficient" in captured.err


DEMO7 = ["--D", "5", "--p", "7", "--l", "8,8", "--s", "1", "--B", "40"]
LOW_PRECISION = {
    # E_p has no known digit at N = 3 and 4: no exceptional zero is claimed
    "aj N=3": ["aj", "--inert", *DEMO7, "--N", "3"],
    "aj N=4": ["aj", "--inert", *DEMO7, "--N", "4"],
    # v(a_7(Delta)) = 1 is not seen at N = 1, so the Hecke roots are unknown
    "lvalue N=1": ["lvalue", "--balanced", *DEMO7, "--N", "1"],
    # E_p and E_0p are known only mod p^-6 and p^-2 at N = 2
    "aj split N=2": ["aj", "--split", "--D", "5", "--p", "11", "--l", "8,8", "--s", "1",
                     "--B", "40", "--N", "2"],
}


@pytest.mark.parametrize("case", sorted(LOW_PRECISION))
def test_low_precision_exit_code(capsys, case):
    # a value with too few known digits is precision exhaustion (exit 4),
    # never an identity failure (exit 2)
    assert main(LOW_PRECISION[case]) == 4
    captured = capsys.readouterr()
    assert "exceptional zero" not in captured.out
    assert "error [precision]" in captured.err


EULER_SHA256 = {
    "inert": "ff9e94e915470acb6862f783dbbaff008f909028fc9b5797d96a63c43a9cbf9c",
    "split": "e900dc5618fa1ab9a2ceb5c3978aca0dbd08ab178a1dda204628780d57056b63",
}
EULER_ARGS = {
    "inert": ["--g-roots", "2,3", "--f-roots", "5,1", "--t", "-1"],
    "split": ["--g-roots", "2,3,5,1", "--f-roots", "4,2", "--t", "1"],
}


@pytest.mark.parametrize("kind", sorted(EULER_SHA256))
def test_euler_golden_hashes(capsys, kind):
    # pins the euler stdout bytes of one inert and one split factor set
    assert main(["euler", "--kind", kind, *EULER_ARGS[kind], "--p", "7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == EULER_SHA256[kind]


@pytest.mark.parametrize("kind,groots,froots", [
    ("inert", "1,2,3,4", "5,1"),
    ("split", "1,2,3", "5,1"),
    ("inert", "2,3", "5"),
    ("split", "2,3,5,1", "4,2,1"),
])
def test_euler_root_counts_exit_code(capsys, kind, groots, froots):
    assert main(["euler", "--kind", kind, "--g-roots", groots, "--f-roots", froots,
                 "--t", "0", "--p", "7"]) == 3
    assert "configuration" in capsys.readouterr().err


def test_euler_zero_at_negative_t_flagged(capsys):
    # E_p = (1 - 7^-1 * 7)^2 = 0, known mod 7^7 at N = 8
    assert main(["euler", "--kind", "inert", "--p", "7", "--N", "8", "--g-roots", "7,7",
                 "--f-roots", "1,2", "--t", "-1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["E_p"] == {"known_mod_p_power": 7, "zero": True}
    assert out["exceptional_zero"] is True


def test_euler_and_report_render(tmp_path, capsys):
    assert main(["euler", "--kind", "split", "--t", "0",
                 "--g-roots", "0,0,0,0", "--f-roots", "1,0", "--p", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["E_p"]["mantissa"][0].startswith("1,")

    rep = tmp_path / "rep.json"
    assert main(["lvalue", "--balanced", "--D", "5", "--p", "7", "--N", "12",
                 "--B", "21", "--l", "8,8", "--s", "1", "--out", str(rep)]) == 0
    assert main(["report", "--in", str(rep)]) == 0
    out = capsys.readouterr().out
    assert "kind: lp-balanced" in out and "effective precision" in out


REPORT_MALFORMED = {
    "a list": [1, 2],
    "kind missing": {"value": None},
    "kind an int": {"kind": 3},
    "value an int": {"kind": "x", "value": 5},
    "value without mantissa": {"kind": "x", "value": {"zero": False}},
    "zero value without precision": {"kind": "x", "value": {"zero": True}},
    "budget entry a string": {"kind": "x", "budget": ["x"]},
    "budget digits a string": {"kind": "x", "budget": [{"op": "x", "digits": "1"}]},
    "flags a string": {"kind": "x", "flags": "abc"},
    "table row an int": {"kind": "x", "agreement_valuation": 3,
                         "certified_valuation": 3, "agreement_table": [3]},
    "table an int": {"kind": "x", "agreement_valuation": 3,
                     "certified_valuation": 3, "agreement_table": 3},
    "certified valuation missing": {"kind": "x", "agreement_valuation": 3,
                                    "agreement_table": []},
}


@pytest.mark.parametrize("case", sorted(REPORT_MALFORMED))
def test_report_malformed_exit_code(tmp_path, capsys, case):
    src = tmp_path / "rep.json"
    src.write_text(json.dumps(REPORT_MALFORMED[case]))
    assert main(["report", "--in", str(src)]) == 3
    assert "configuration" in capsys.readouterr().err


def test_report_counts_v_degrees(tmp_path, capsys):
    rep = verify_gz(hilbert_eisenstein(4, context_for(5, 7, 8), 8), (4, 4), 0, 6)
    path = tmp_path / "gz.json"
    path.write_text(dump(rep.to_dict()))
    assert main(["report", "--in", str(path)]) == 0
    rows = len(rep.lhs_agreement_table)
    assert f"across {rows} V-degrees" in capsys.readouterr().out


def test_report_byte_stability(tmp_path):
    args = ["lvalue", "--balanced", "--D", "5", "--p", "7", "--N", "12",
            "--B", "21", "--l", "8,8", "--s", "1"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_report_byte_stability(tmp_path, capsys):
    # B = 1 is the smallest trace bound that keeps coefficients; wall time
    # stays on the PASS line and out of the report file
    args = ["verify", "gz-split", "--D", "5", "--p", "11", "--l", "8,8",
            "--s", "1", "--N", "12", "--B", "1"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "seconds" not in read_json(a)
    assert " s)" in capsys.readouterr().out


REPORT_SHA256 = {
    ("lvalue", "7"): "67eedeea3ac7ab10dd9c89e47e751a2f9d692aec03c2200e1fbea860131d3056",
    ("aj", "7"): "758e496666596f2d67b2f32249d911ff7a9906992b92f37a7cd1e925b95d12a6",
    ("lvalue", "11"): "90299d5d7e1114b93c9ee2e18caf0081c8b21e21033ccf4969e599be0feac5d2",
    ("aj", "11"): "4be9861054c29250c84d291b5e442d687a9a22438f75dfef69bd87e8df0c4460",
}


@pytest.mark.parametrize("command,p", sorted(REPORT_SHA256))
def test_report_golden_hashes(tmp_path, command, p):
    # pins the report bytes of both evaluators at inert p = 7 and split
    # p = 11; B = 21 keeps each run near 0.1 s
    out = tmp_path / "r.json"
    if command == "lvalue":
        head = ["lvalue", "--balanced"]
    else:
        head = ["aj", "--inert" if p == "7" else "--split"]
    args = head + ["--D", "5", "--p", p, "--l", "8,8", "--s", "1",
                   "--N", "12", "--B", "21", "--out", str(out)]
    assert main(args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256[command, p]


VERIFY_SHA256 = {
    ("gz-inert", "7"): "e8352491587d6959576edeef49082c5799ac08c818eb54c56e77641ac5f10f0b",
    ("gz-split", "11"): "9691190450826506e1d78b964818644a837e47abd28f69993abddc23226cf779",
}


@pytest.mark.parametrize("suite,p", sorted(VERIFY_SHA256))
def test_verify_golden_hashes(tmp_path, capsys, suite, p):
    # pins the identity-check report bytes at inert p = 7 and split p = 11
    out = tmp_path / "v.json"
    assert main(["verify", suite, "--D", "5", "--p", p, "--l", "8,8", "--s", "1",
                 "--N", "12", "--B", "21", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_SHA256[suite, p]


NOC_SHA256 = {
    3: "d7e0bdc94579d1577332da84a5fc09d79e5ed2599d5709ec623a79b2c875651c",
    5: "13b3d4d00c972f6dff6b45cd6688e328bffe3dce9ac735ec17c02b7fb56bcab4",
    7: "a89c73b61bff9355d0d9ec7060eba6ecdd302ee58b4ff280b5199c5a3a576430",
    11: "67131f1d855eea8662898cffe656004ae80afcab55028e2b8e628a2e5e6bfcbd",
    13: "ce5d0cefe5a2743616799fc6fedd0c618ef71b928ae20130b5bae9ee3ac74b40",
}


@pytest.mark.parametrize("p", sorted(NOC_SHA256))
def test_analytic_nabla_golden_hashes(p):
    # nabla^r of the depleted weight-8 Eisenstein series for the analytic
    # exponent u = -2 + (p - 1) p, which has no classical shortcut; 5 is
    # ramified in Q(sqrt 5), so p = 5 runs over Q(sqrt 13)
    ctx = context_for(13 if p == 5 else 5, p, 8)
    ring1 = PadicRing(p, 8, 1)
    tor = ctx.ring.residue_order()
    g = hilbert_eisenstein(8, ctx, 12).deplete("all")
    k = WeightCharacter.from_classical(ring1, tor, (8, 8))
    u = ring1.from_int(-2 + (p - 1) * p)
    r = WeightCharacter(ring1, tor, (u, ring1.zero), (-2, 0))
    doc = dump(noc_to_dict(nabla_pow(g, k, r)))
    assert hashlib.sha256(doc.encode()).hexdigest() == NOC_SHA256[p]
