"""Lossless JSON form/basis/expansion files and report rendering.

Values serialize as little-endian base-p digit strings; degree-2
coefficients carry two digit strings.  Every writer sorts its keys so
identical inputs produce byte-identical files.  Hilbert form files carry
`"support": "dinv"`, the one index convention; readers reject any other
value, and any field of the wrong type, with a SchemaError.
"""

from __future__ import annotations

import json

from .errors import InsufficientValuation, SchemaError
from .heckeslope import ClassicalBasis, EigenBlock
from .nearlyoc import NearlyOCExpansion
from .padic import PadicNum, PadicRing
from .qexp import EllipticQExp, HilbertQExp, QExpContext
from .quadfield import SUPPORT_DINV, PrimeSplitting, make_field
from .weights import WeightCharacter

FORM_VERSION = 1

_CTX_CACHE: dict = {}


def context_for(D: int, p: int, N: int) -> QExpContext:
    key = (D, p, N)
    if key not in _CTX_CACHE:
        field = make_field(D)
        _CTX_CACHE[key] = QExpContext(field, PrimeSplitting(field, p, N))
    return _CTX_CACHE[key]


def digits(x: PadicNum) -> list:
    out = []
    for c in ([x.a] if x.ring.degree == 1 else [x.a, x.b]):
        ds = []
        for _ in range(x.ring.N):
            c, r = divmod(c, x.ring.p)
            ds.append(str(r))
        out.append(",".join(ds))
    return out


def undigits(ds, ring: PadicRing, where: str) -> PadicNum:
    if not isinstance(ds, list) or len(ds) != ring.degree:
        raise SchemaError(f"{where}: expected {ring.degree} digit strings")
    coords = []
    for s in ds:
        if not isinstance(s, str):
            raise SchemaError(f"{where}: expected a digit string, got {s!r}")
        try:
            parts = [int(t) for t in s.split(",")]
        except ValueError:
            raise SchemaError(f"{where}: malformed digit string {s!r}") from None
        if len(parts) != ring.N or any(d < 0 or d >= ring.p for d in parts):
            raise SchemaError(f"{where}: digit string has wrong length or digits")
        coords.append(sum(d * ring.p**i for i, d in enumerate(parts)))
    return ring.make(*coords)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _require(doc: dict, field: str, where: str, kind=None):
    """doc[field], checked to be of type kind (int, list or dict) if given."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
    if field not in doc:
        raise SchemaError(f"{where}: missing field {field!r}")
    value = doc[field]
    ok = kind is None or (_is_int(value) if kind is int else isinstance(value, kind))
    if not ok:
        raise SchemaError(
            f"{where}.{field}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _int_list(value, where: str, length=None) -> list:
    if not isinstance(value, list) or not all(_is_int(x) for x in value):
        raise SchemaError(f"{where}: expected a list of integers")
    if length is not None and len(value) != length:
        raise SchemaError(f"{where}: expected {length} integers")
    return value


def _optional_list(doc: dict, field: str, where: str) -> list:
    """doc[field] as a list; [] when it is missing or null."""
    value = doc.get(field)
    if value is None:
        return []
    if not isinstance(value, list):
        raise SchemaError(
            f"{where}.{field}: expected list, got {type(value).__name__}"
        )
    return value


def _check_version(doc: dict, where: str):
    v = _require(doc, "version", where)
    if v != FORM_VERSION:
        raise SchemaError(
            f"{where}: version {v} != {FORM_VERSION}; regenerate the file "
            "with this release"
        )


def form_to_dict(f) -> dict:
    if isinstance(f, HilbertQExp):
        ctx = f.ctx
        return {
            "format": "padicgz-form",
            "version": FORM_VERSION,
            "flavor": "hilbert",
            "field": {"D": ctx.field.D},
            "support": f.support,
            "prime": ctx.p,
            "precision": ctx.N,
            "degree": ctx.ring.degree,
            "bound": f.bound,
            "weight": list(f.weight_tag) if f.weight_tag else None,
            "coeffs": [
                {"beta": list(k), "value": digits(v)}
                for k, v in sorted(f.coeffs.items())
            ],
        }
    if isinstance(f, EllipticQExp):
        return {
            "format": "padicgz-form",
            "version": FORM_VERSION,
            "flavor": "elliptic",
            "prime": f.ring.p,
            "precision": f.ring.N,
            "degree": f.ring.degree,
            "field": None,
            "support": None,
            "bound": f.bound,
            "weight": f.weight_tag,
            "coeffs": [
                {"n": n, "value": digits(v)} for n, v in sorted(f.coeffs.items())
            ],
        }
    raise SchemaError(f"cannot serialize {type(f).__name__}")


def form_from_dict(doc: dict):
    where = "form"
    if _require(doc, "format", where) != "padicgz-form":
        raise SchemaError(f"{where}: not a form file")
    _check_version(doc, where)
    flavor = _require(doc, "flavor", where)
    p = _require(doc, "prime", where, int)
    N = _require(doc, "precision", where, int)
    bound = _require(doc, "bound", where, int)
    weight = doc.get("weight")
    if flavor == "hilbert":
        D = _require(_require(doc, "field", where, dict), "D", where + ".field", int)
        ctx = context_for(D, p, N)
        if doc.get("degree") != ctx.ring.degree:
            raise SchemaError(f"{where}.degree: inconsistent with the splitting of {p}")
        if _require(doc, "support", where) != SUPPORT_DINV:
            raise SchemaError(f"{where}.support: expected {SUPPORT_DINV!r}")
        coeffs = {}
        for i, entry in enumerate(_require(doc, "coeffs", where, list)):
            beta = _require(entry, "beta", f"{where}.coeffs[{i}]")
            _int_list(beta, f"{where}.coeffs[{i}].beta", 2)
            val = undigits(
                _require(entry, "value", f"{where}.coeffs[{i}]"),
                ctx.ring,
                f"{where}.coeffs[{i}].value",
            )
            coeffs[tuple(beta)] = val
        wt = tuple(_int_list(weight, f"{where}.weight")) if weight else None
        return HilbertQExp(ctx, SUPPORT_DINV, bound, coeffs, wt)
    if flavor == "elliptic":
        if weight is not None and not _is_int(weight):
            _int_list(weight, f"{where}.weight")  # a diagonal restriction keeps (k, k)
        degree = doc.get("degree", 1)
        ring = PadicRing(p, N, degree)
        coeffs = {}
        for i, entry in enumerate(_require(doc, "coeffs", where, list)):
            n = _require(entry, "n", f"{where}.coeffs[{i}]", int)
            coeffs[n] = undigits(
                _require(entry, "value", f"{where}.coeffs[{i}]"),
                ring,
                f"{where}.coeffs[{i}].value",
            )
        return EllipticQExp(ring, bound, coeffs, weight)
    raise SchemaError(f"{where}.flavor: unknown flavor {flavor!r}")


def noc_to_dict(gamma: NearlyOCExpansion) -> dict:
    wt = gamma.weight
    return {
        "format": "padicgz-noc",
        "version": FORM_VERSION,
        "flavor": gamma.flavor,
        "weight": {
            "classical": list(wt.classical) if wt.classical else None,
            "u": [digits(x)[0] for x in wt.u],
            "chi": list(wt.chi),
            "torsion_order": wt.torsion_order,
        },
        "terms": [
            {"degree": list(deg), "form": form_to_dict(c)}
            for deg, c in sorted(gamma.terms.items())
        ],
    }


def noc_from_dict(doc: dict) -> NearlyOCExpansion:
    where = "noc"
    if _require(doc, "format", where) != "padicgz-noc":
        raise SchemaError(f"{where}: not a nearly overconvergent file")
    _check_version(doc, where)
    flavor = _require(doc, "flavor", where)
    terms = {}
    for i, entry in enumerate(_require(doc, "terms", where, list)):
        at = f"{where}.terms[{i}]"
        deg = tuple(_int_list(_require(entry, "degree", at), at + ".degree"))
        terms[deg] = form_from_dict(_require(entry, "form", at, dict))
    if not terms:
        raise SchemaError(f"{where}.terms: empty expansion")
    any_form = next(iter(terms.values()))
    ring = any_form.ring
    wdoc = _require(doc, "weight", where, dict)
    at = where + ".weight"
    ring1 = PadicRing(ring.p, ring.N, 1)
    u = [
        undigits([s], ring1, f"{at}.u[{i}]")
        for i, s in enumerate(_require(wdoc, "u", at, list))
    ]
    torsion_order = _require(wdoc, "torsion_order", at, int)
    if torsion_order < 1:
        raise SchemaError(f"{at}.torsion_order: expected a positive integer")
    classical = wdoc.get("classical")
    wt = WeightCharacter(
        ring1,
        torsion_order,
        u,
        _int_list(_require(wdoc, "chi", at), at + ".chi"),
        tuple(_int_list(classical, at + ".classical")) if classical else None,
    )
    try:
        return NearlyOCExpansion(flavor, wt, terms).assert_divisibility()
    except InsufficientValuation as e:
        raise SchemaError(f"{where}.terms: {e}") from None


def basis_to_dict(basis: ClassicalBasis) -> dict:
    return {
        "format": "padicgz-basis",
        "version": FORM_VERSION,
        "weight": basis.weight,
        "tame_level": basis.tame_level,
        "p": basis.ring.p,
        "precision": basis.ring.N,
        "degree": basis.ring.degree,
        "forms": [form_to_dict(f) for f in basis.forms],
        "eigen": [
            {
                "index": b.f_index,
                "v_index": b.vf_index,
                "a_p": digits(b.a_p),
                "nebentype_at_p": digits(b.nebentype),
            }
            for b in basis.blocks
        ],
    }


def basis_from_dict(doc: dict) -> ClassicalBasis:
    where = "basis"
    if _require(doc, "format", where) != "padicgz-basis":
        raise SchemaError(f"{where}: not a basis file")
    _check_version(doc, where)
    ring = PadicRing(
        _require(doc, "p", where, int),
        _require(doc, "precision", where, int),
        doc.get("degree", 1),
    )
    forms = [form_from_dict(d) for d in _require(doc, "forms", where, list)]
    blocks = []
    for i, e in enumerate(_require(doc, "eigen", where, list)):
        blocks.append(
            EigenBlock(
                _require(e, "index", f"{where}.eigen[{i}]", int),
                _require(e, "v_index", f"{where}.eigen[{i}]", int),
                undigits(_require(e, "a_p", f"{where}.eigen[{i}]"), ring, "a_p"),
                undigits(
                    _require(e, "nebentype_at_p", f"{where}.eigen[{i}]"),
                    ring,
                    "nebentype_at_p",
                ),
            )
        )
    return ClassicalBasis(
        ring,
        _require(doc, "weight", where, int),
        _require(doc, "tame_level", where, int),
        forms,
        blocks,
    )


def basis_fingerprint(basis: ClassicalBasis) -> str:
    """Short stable identifier of a basis file's content."""
    import hashlib

    return hashlib.sha256(dump(basis_to_dict(basis)).encode()).hexdigest()[:12]


def check_report(doc) -> dict:
    """An evaluation report file's document, with every field that
    `padicgz report` reads type-checked; SchemaError otherwise."""
    where = "report"
    _require(doc, "kind", where, str)
    if doc.get("value") is not None:
        val = _require(doc, "value", where, dict)
        at = where + ".value"
        if val.get("zero"):
            _require(val, "known_mod_p_power", at, int)
        else:
            _require(val, "mantissa", at, list)
            _require(val, "p_power", at, int)
            _require(val, "mantissa_precision", at, int)
    if doc.get("agreement_valuation") is not None:
        for i, row in enumerate(_optional_list(doc, "agreement_table", where)):
            _require(row, "agreement", f"{where}.agreement_table[{i}]", int)
        _require(doc, "certified_valuation", where)
    for i, entry in enumerate(_optional_list(doc, "budget", where)):
        _require(entry, "op", f"{where}.budget[{i}]")
        _require(entry, "digits", f"{where}.budget[{i}]", int)
    _optional_list(doc, "flags", where)
    return doc


def dump(doc: dict) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_json(path: str, doc: dict):
    with open(path, "w") as fh:
        fh.write(dump(doc))


def read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise SchemaError(f"{path}: cannot read the file ({e.strerror})") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise SchemaError(f"{path}: truncated or malformed JSON ({e})") from None
