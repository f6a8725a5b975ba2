"""Residue fields as F_{q^d} towers, checked against independent oracles.

- The Frobenius-orbit enumeration against the Rabin test run on every
  monic candidate, and against the necklace count.
- TowerResidueField against the coefficient-tuple ResidueField(P) on every
  result that leaves the field: lifts, roots, power tests, the element
  order, gp_roots and Kummer factor types.
- signature_at on tower places against signature_at on ResidueField places.
- The norm test of the biquadratic engine against a power-based square test
  in k(P)(sqrt(rho)).
"""

import random

import pytest

import funcfields.places as places_module
import funcfields.poly as poly_module
from funcfields import (
    GF,
    CubicModel,
    FinitePlace,
    FqPoly,
    QuarticModel,
    count_monic_irreducibles_necklace,
    kummer_signature,
    monic_irreducibles,
    parse_poly,
    signature_at,
)
from funcfields.poly import ResidueField, TowerResidueField, gp_irreducible, gp_roots, residue_field
from funcfields.signature import _inert_square

# (p, k) -> largest place degree covered
CELLS = {(2, 1): 6, (3, 1): 4, (7, 1): 3, (2, 2): 3, (2, 3): 2, (3, 2): 2, (5, 2): 2}
CELL_IDS = ["GF(%d^%d)" % pk for pk in CELLS]


def _rabin_irreducibles(F, d):
    out = []
    for idx in range(F.q ** d):
        cs = []
        for _ in range(d):
            cs.append(idx % F.q)
            idx //= F.q
        cs.append(1)
        if gp_irreducible(F, cs):
            out.append(FqPoly(F, cs))
    return out


@pytest.mark.parametrize("pk", list(CELLS), ids=CELL_IDS)
def test_orbit_enumeration_matches_rabin_and_necklace(pk):
    F = GF(*pk)
    for d in range(1, CELLS[pk] + 1):
        places = monic_irreducibles(F, d)
        assert list(places) == _rabin_irreducibles(F, d)
        assert len(places) == count_monic_irreducibles_necklace(F.q, d)


def _rand_poly(rng, F, deg):
    return FqPoly(F, [rng.randrange(F.q) for _ in range(deg + 1)])


def _agree_on_place(P, rng, thorough):
    T, R = residue_field(P), ResidueField(P)
    assert isinstance(T, TowerResidueField)
    F = P.field
    pairs = list(zip(T.iter_elements(), R.iter_elements()))
    assert len(pairs) == T.order == R.order
    # same order of the elements: the index-th lifts coincide
    assert [T.lift(t) for t, _ in pairs] == [R.lift(r) for _, r in pairs]
    for _ in range(20):
        f = _rand_poly(rng, F, rng.randrange(3 * T.deg + 4))
        assert T.lift(T.embed(f)) == R.lift(R.embed(f)) == f % P
    sample = pairs if thorough else rng.sample(pairs, 8)
    draws = 10 if thorough else 1

    def same(x, y):
        if x is None or y is None:
            return x is None and y is None
        return T.lift(x) == R.lift(y)

    for t, r in sample:
        assert T.is_square(t) == R.is_square(r)
        assert T.is_cube(t) == R.is_cube(r)
        if t:
            assert same(T.inv(t), R.inv(r))
        assert same(T.sqrt(t), R.sqrt(r))
        assert same(T.cube_root(t), R.cube_root(r))
    for _ in range(draws):
        coeffs = [_rand_poly(rng, F, T.deg) for _ in range(rng.choice((2, 3)))] + [FqPoly.one(F)]
        roots_t = gp_roots(T, [T.embed(c) for c in coeffs])
        roots_r = gp_roots(R, [R.embed(c) for c in coeffs])
        assert [T.lift(x) for x in roots_t] == [R.lift(x) for x in roots_r]
    for n in (3, 4):
        for _ in range(draws):
            coeffs = [_rand_poly(rng, F, T.deg) for _ in range(n)] + [FqPoly.one(F)]
            red_t = [T.embed(c) for c in coeffs]
            red_r = [R.embed(c) for c in coeffs]
            assert kummer_signature(red_t, T, n) == kummer_signature(red_r, R, n)


@pytest.mark.parametrize("pk", list(CELLS), ids=CELL_IDS)
def test_tower_agrees_with_tuple_residue_field(pk):
    F = GF(*pk)
    rng = random.Random(F.q)
    for d in range(1, CELLS[pk] + 1):
        places = monic_irreducibles(F, d)
        residue_field.cache_clear()  # drop tuple fields cached before the enumeration
        # ResidueField's cube root scans the field and its Kummer factor
        # types run on tuples, so in the fields of 343 and 625 elements three
        # places get every element and ten draws, the others a sample
        small = F.q ** d <= 100
        for i, P in enumerate(places):
            _agree_on_place(P, rng, small or i % (len(places) // 3) == 0)


def test_residue_field_choice(monkeypatch):
    F = GF(13)
    P = parse_poly(F, "x^2 + 2")  # irreducible: -2 is not a square mod 13
    monkeypatch.setattr(poly_module, "_TOWERS", {})
    residue_field.cache_clear()
    try:
        assert isinstance(residue_field(parse_poly(F, "x + 5")), TowerResidueField)
        assert residue_field(parse_poly(F, "x + 5")).alpha == 8
        # a place no enumeration reached keeps the tuple type
        assert type(residue_field(P)) is ResidueField
        residue_field.cache_clear()
        poly_module._orbit_irreducibles(F, 2)
        assert isinstance(residue_field(P), TowerResidueField)
        # above fq.TABLE_MAX_ORDER there is no tower: 13^5 > 2^16
        Q = parse_poly(F, "x^5 + 8*x + 1")
        assert poly_module.is_irreducible(Q)
        assert type(residue_field(Q)) is ResidueField
    finally:
        residue_field.cache_clear()


def test_residue_field_cache_follows_a_new_tower(monkeypatch):
    # a place asked for before its degree is enumerated gets the tower after it
    F = GF(3)
    P = parse_poly(F, "x^2 + 1")
    monkeypatch.setattr(poly_module, "_TOWERS", {})
    monic_irreducibles.cache_clear()
    residue_field.cache_clear()
    try:
        assert type(residue_field(P)) is ResidueField
        assert P in monic_irreducibles(F, 2)
        assert isinstance(residue_field(P), TowerResidueField)
    finally:
        monic_irreducibles.cache_clear()
        residue_field.cache_clear()


def _models():
    F7 = GF(7)
    p7 = lambda s: parse_poly(F7, s)
    out = [
        # demos/analyze_cubic_field.py, class_number_interval.py, quartic_signatures.py
        CubicModel(p7("x^2"), p7("1")),
        CubicModel(FqPoly.zero(F7), -p7("x^2 + x")),
        QuarticModel(p7("x"), p7("x"), p7("x^3")),
        QuarticModel(p7("x^2 + x"), FqPoly.zero(F7), p7("3*x^6 + x")),
        QuarticModel(p7("x"), p7("1"), p7("x^2")),
        QuarticModel(p7("x"), p7("x"), p7("x")),
    ]
    # extension fields: the char-2 and char-3 iterations and an inert biquadratic branch
    for (p, k), kind, coeffs in (
        ((2, 2), "cubic", ("x^3+1", "x^4+x+1")),
        ((2, 2), "cubic", ("0", "x^5+x+1")),
        ((3, 2), "cubic", ("x^2+1", "x^5+x+2")),
        ((5, 2), "quartic", ("x^2+x", "0", "3*x^5+x+1")),
    ):
        F = GF(p, k)
        polys = [parse_poly(F, c) for c in coeffs]
        out.append(CubicModel(*polys) if kind == "cubic" else QuarticModel(*polys))
    return out


def _result_key(res):
    return (res.signature, res.method, res.trace, res.unknown_reason)


def test_signature_at_agrees_with_tuple_residue_fields(monkeypatch):
    for model in _models():
        F = model.field
        top = 3 if F.q < 25 else 2
        places = [P for d in range(1, top + 1) for P in monic_irreducibles(F, d)]
        tower = [_result_key(signature_at(model, FinitePlace(P))) for P in places]
        monkeypatch.setattr(places_module, "residue_field", ResidueField)
        tuple_ = [_result_key(signature_at(model, FinitePlace(P))) for P in places]
        monkeypatch.undo()
        assert tower == tuple_


def _quad_ext_is_square(K, rho, x, y):
    """eta^((Q^2 - 1)/2) in k(P)(sqrt(rho)), with pairs (x, y) = x + y sqrt(rho)."""

    def mul(a, b):
        return (K.add(K.mul(a[0], b[0]), K.mul(rho, K.mul(a[1], b[1]))),
                K.add(K.mul(a[0], b[1]), K.mul(a[1], b[0])))

    e, acc, base = (K.order ** 2 - 1) // 2, (K.one, K.zero), (x, y)
    while e:
        if e & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        e >>= 1
    return acc in ((K.one, K.zero), (K.zero, K.zero))


@pytest.mark.parametrize("pk, d", [((7, 1), 1), ((7, 1), 2), ((5, 2), 1), ((3, 2), 2)])
def test_inert_norm_test_matches_power_test(pk, d):
    F = GF(*pk)
    rng = random.Random(d)
    for P in rng.sample(monic_irreducibles(F, d), 2):
        K = residue_field(P)
        rho = next(e for e in K.iter_elements() if e and not K.is_square(e))
        elems = list(K.iter_elements())
        for x in elems:
            for y in rng.sample(elems, min(len(elems), 12)):
                assert _inert_square(K, rho, x, y) == _quad_ext_is_square(K, rho, x, y)
