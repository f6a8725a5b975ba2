"""Distinct-degree factoring by the Frobenius matrix against repeated powers.

`gp_distinct_degree` reaches x^(q^d) mod f by applying the matrix of
h -> h^q to x^(q^(d-1)); `oracles.distinct_degree_by_powers` takes every
x^(q^d) by square-and-multiply.  Both must give the same monic products,
so `factorize` draws the same equal-degree splits and returns the same
factors, over prime fields, table-backed extensions, a digit field above
the tables and both residue-field kinds, including fields so large that
x^q has over 10^5 coefficients, and on both sides of q < deg f, where the
Frobenius rows come by shift or by products.  The rows and the matrix are
also checked against gp_pow_mod one by one.  `gp_factor_degrees`, which
reads a Kummer reduction's factor type from that one pass, is checked
against `factorize` over F_q and across both residue-field kinds.
"""

import random

import pytest

import funcfields.poly as poly_module
from funcfields import GF, FqPoly, factorize
from funcfields.poly import (
    ResidueField,
    TowerResidueField,
    gp_derivative,
    gp_factor_degrees,
    gp_gcd,
    gp_pow_mod,
    gp_trim,
    parse_poly,
    residue_field,
    tower_fields,
)
from oracles import distinct_degree_by_powers, is_irreducible


def _squarefree(K, rng, degrees):
    """Monic squarefree polynomials over K, one of each degree in `degrees`."""
    out = []
    for n in degrees:
        while True:
            f = [K.from_rand(rng) for _ in range(n)] + [K.one]
            if len(gp_gcd(K, f, gp_derivative(K, f))) == 1:
                out.append(f)
                break
    return out


# every field with tables gets 25 polynomials of degree up to 20; a field
# without them (GF(3^11) and the residue fields of order 7^6) three, of
# degree up to 14, since there a product of elements costs a polynomial
# product and the oracle's powers take seconds from degree 20 on
TABLE_FIELDS = [(2, 1), (3, 1), (7, 1), (13, 1), (2, 2), (2, 3), (3, 2), (5, 2)]
LARGE_DEGREES = (3, 8, 14)


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
def test_distinct_degree_matches_repeated_powers(p, k):
    F = GF(p, k)
    rng = random.Random(7919 * p + k)
    for f in _squarefree(F, rng, [rng.randrange(1, 21) for _ in range(25)]):
        assert poly_module.gp_distinct_degree(F, f) == distinct_degree_by_powers(F, f)


def _large_residue_fields():
    # a degree-1 tower over GF(7^6) (E = GF(7^6), digit arithmetic) and the
    # tuple field of a place of degree 6 over GF(7): both of order 7^6
    F = GF(7, 6)
    tower = residue_field(FqPoly(F, [F.from_int(3), 1]))
    P = parse_poly(GF(7), "x^6 + 4")  # x^6 - 3, 3 a primitive root mod 7
    tuple_field = ResidueField(P)
    assert is_irreducible(P) and isinstance(tower, TowerResidueField) and type(tuple_field) is ResidueField
    assert tower.order == tuple_field.order == 7 ** 6
    return [tower, tuple_field]


def test_distinct_degree_above_the_tables():
    # GF(3^11) and both residue-field kinds of order 7^6: x^q has degree
    # 177,147 or 117,649, so the rows come from powers mod f
    fields = [GF(3, 11)] + _large_residue_fields()
    for i, K in enumerate(fields):
        rng = random.Random(31 + i)
        for f in _squarefree(K, rng, LARGE_DEGREES):
            assert poly_module.gp_distinct_degree(K, f) == distinct_degree_by_powers(K, f)


def _fields_around_the_shift():
    # q = 7, q = 4 and a degree-1 tower over GF(7), whose elements are ints mod 7
    F7 = GF(7)
    tower = residue_field(FqPoly(F7, [3, 1]))
    assert isinstance(tower, TowerResidueField) and tower.order == 7
    return [F7, GF(2, 2), tower]


@pytest.mark.parametrize("i", range(3))
def test_both_sides_of_q_below_deg_f(i):
    # deg f = q keeps the products mod f, deg f = q + 1 takes the rows by shift
    K = _fields_around_the_shift()[i]
    q = K.order
    rng = random.Random(q + i)
    for f in _squarefree(K, rng, [q - 1, q, q, q + 1, q + 1, q + 2, 2 * q + 1]):
        assert poly_module.gp_distinct_degree(K, f) == distinct_degree_by_powers(K, f), f


@pytest.mark.parametrize("i", range(3))
def test_frobenius_rows_and_matrix(i, monkeypatch):
    # on both sides of q < deg f: the rows that gp_distinct_degree builds
    # are x^(q j) mod f, and the matrix maps h to h^q mod f with every
    # coefficient reduced
    K = _fields_around_the_shift()[i]
    q = K.order
    x = [K.zero, K.one]
    rows_of, built = poly_module._frobenius_rows, []

    def checked_rows(K_, f, h):
        rows = rows_of(K_, f, h)
        assert rows == [gp_pow_mod(K, x, q * j, f) for j in range(len(f) - 1)], f
        built.append(len(f) - 1)
        return rows

    monkeypatch.setattr(poly_module, "_frobenius_rows", checked_rows)
    rng = random.Random(17 * q + i)
    for f in _squarefree(K, rng, [q - 1, q, q, q + 1, q + 1, 2 * q + 3, 2 * q + 3]):
        poly_module.gp_distinct_degree(K, f)
        rows = rows_of(K, f, gp_pow_mod(K, x, q, f))
        for _ in range(5):
            h = gp_trim(K, [K.from_rand(rng) for _ in range(len(f) - 1)])
            assert poly_module._frobenius(K, h, rows) == gp_pow_mod(K, h, q, f), (f, h)
    assert min(built) <= q < max(built)


@pytest.mark.parametrize("p,k", TABLE_FIELDS + [(3, 11)])
def test_factorize_matches_repeated_powers(p, k, monkeypatch):
    F = GF(p, k)
    rng = random.Random(104729 * p + k)
    top, count = (21, 12) if F.q <= 2 ** 16 else (9, 4)
    polys = []
    for _ in range(count):
        f = FqPoly(F, [F.from_rand(rng) for _ in range(rng.randrange(2, top))] + [F.from_rand(rng)])
        if not f.is_zero():
            # some with repeated factors, so factorize splits a squarefree part
            polys.append(f * f.derivative() if rng.random() < 0.3 else f)
    new = [factorize(f).factors for f in polys]
    monkeypatch.setattr(poly_module, "gp_distinct_degree", distinct_degree_by_powers)
    old = [factorize(f).factors for f in polys]
    assert new == old


@pytest.mark.parametrize("p,k", [(7, 1), (13, 1), (2, 2), (3, 2), (5, 2)])
def test_factor_degrees_match_factorize(p, k):
    F = GF(p, k)
    rng = random.Random(1009 * p + k)
    for f in _squarefree(F, rng, [n for n in range(1, 9) for _ in range(6)]):
        expected = sorted(g.degree for g, _ in factorize(FqPoly(F, f)).factors)
        assert gp_factor_degrees(F, f) == expected, f


@pytest.mark.parametrize("P", ["x^2 + 1", "x^3 + 2"])
def test_factor_degrees_agree_on_both_residue_field_kinds(P):
    # the same reductions, embedded in the tower and in the tuple field of
    # one place of GF(7) of degree 2 and one of degree 3
    P = parse_poly(GF(7), P)
    T, R = dict(tower_fields(P.field, P.degree))[P], ResidueField(P)
    assert is_irreducible(P) and isinstance(T, TowerResidueField) and type(R) is ResidueField
    rng = random.Random(P.degree)
    for n in range(1, 7):
        for _ in range(4):
            coeffs = [FqPoly(P.field, [rng.randrange(7) for _ in range(P.degree)]) for _ in range(n)]
            coeffs.append(FqPoly.one(P.field))
            red_t, red_r = [T.embed(c) for c in coeffs], [R.embed(c) for c in coeffs]
            if len(gp_gcd(T, red_t, gp_derivative(T, red_t))) > 1:
                continue
            assert gp_factor_degrees(T, red_t) == gp_factor_degrees(R, red_r), coeffs
