"""Round-trip and schema tests for the JSON file formats."""

import json

import pytest

from padicgz.errors import SchemaError
from padicgz.formgen import demo_basis, elliptic_eisenstein, random_depleted, random_form
from padicgz.nearlyoc import nabla_pow
from padicgz.padic import PadicRing
from padicgz.serialize import (
    basis_from_dict,
    basis_to_dict,
    context_for,
    dump,
    form_from_dict,
    form_to_dict,
    noc_from_dict,
    noc_to_dict,
)
from padicgz.weights import WeightCharacter


def test_hilbert_round_trip():
    ctx = context_for(5, 7, 10)
    for seed in range(3):
        f = random_form(seed, ctx, 12)
        doc = form_to_dict(f)
        g = form_from_dict(json.loads(dump(doc)))
        assert g == f
        assert g.support == f.support and g.bound == f.bound


def test_elliptic_round_trip():
    ring = PadicRing(7, 9)
    f = elliptic_eisenstein(6, 15, ring)
    g = form_from_dict(json.loads(dump(form_to_dict(f))))
    assert g == f and g.weight_tag == 6


def test_degree2_round_trip():
    ctx = context_for(5, 7, 8)  # inert: degree-2 coefficients
    f = random_form(9, ctx, 10)
    g = form_from_dict(json.loads(dump(form_to_dict(f))))
    assert g == f


def test_byte_stability():
    ctx = context_for(5, 11, 8)
    f = random_depleted(4, ctx, 10)
    assert dump(form_to_dict(f)) == dump(form_to_dict(f))


def test_schema_errors():
    ctx = context_for(5, 11, 8)
    doc = form_to_dict(random_form(2, ctx, 6))
    bad = dict(doc)
    bad["version"] = 99
    with pytest.raises(SchemaError, match="version"):
        form_from_dict(bad)
    bad = dict(doc)
    del bad["coeffs"]
    with pytest.raises(SchemaError, match="coeffs"):
        form_from_dict(bad)
    bad = json.loads(dump(doc))
    bad["coeffs"][0]["value"] = ["not-digits"]
    with pytest.raises(SchemaError, match="value"):
        form_from_dict(bad)


def test_noc_round_trip():
    ctx = context_for(5, 11, 8)
    g = random_depleted(3, ctx, 8)
    ring1 = PadicRing(11, 8, 1)
    tor = ctx.ring.residue_order()
    k = WeightCharacter.from_classical(ring1, tor, (8, 8))
    r = WeightCharacter.from_classical(ring1, tor, (-2, 0))
    gamma = nabla_pow(g, k, r)
    back = noc_from_dict(json.loads(dump(noc_to_dict(gamma))))
    assert back.weight == gamma.weight
    assert set(back.terms) == set(gamma.terms)
    for deg in gamma.terms:
        assert back.terms[deg] == gamma.terms[deg]


def test_basis_round_trip():
    ring = PadicRing(7, 10)
    basis = demo_basis(ring, 70)
    back = basis_from_dict(json.loads(dump(basis_to_dict(basis))))
    assert back.weight == basis.weight and back.dim == basis.dim
    for a, b in zip(back.forms, basis.forms):
        assert a == b
    assert back.blocks[1].a_p == basis.blocks[1].a_p


def test_noc_and_basis_field_types():
    ctx = context_for(5, 11, 6)
    ring1 = PadicRing(11, 6, 1)
    tor = ctx.ring.residue_order()
    k = WeightCharacter.from_classical(ring1, tor, (8, 8))
    r = WeightCharacter.from_classical(ring1, tor, (-2, 0))
    noc = noc_to_dict(nabla_pow(random_depleted(3, ctx, 4), k, r))
    basis = basis_to_dict(demo_basis(PadicRing(7, 6), 14))
    for doc, path, value in (
        (noc, ("terms", 0, "degree"), ["a", 0]),
        (noc, ("weight", "chi"), "8"),
        (noc, ("weight", "torsion_order"), 0),
        (noc, ("weight", "u"), [3]),
        (noc, ("terms",), {}),
        (basis, ("p",), "7"),
        (basis, ("forms",), None),
        (basis, ("eigen", 0, "index"), "0"),
        (basis, ("eigen", 0, "a_p"), 5),
        (basis, ("weight",), 12.0),
    ):
        bad = json.loads(dump(doc))
        target = bad
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(SchemaError):
            (noc_from_dict if doc is noc else basis_from_dict)(bad)
