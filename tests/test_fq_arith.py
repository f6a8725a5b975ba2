"""Base field and polynomial ring: construction, factorization, residues, CRT."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from funcfields import (
    GF,
    FqPoly,
    crt,
    factorize,
    monic_irreducibles,
    parse_poly,
    poly_gcd,
    residue_power_test,
)
from funcfields.places import InfinitePlace
from funcfields.poly import NEG_DEG, gp_count_roots, squarefree_decomposition, poly_sqrt, residue_root
from oracles import count_monic_irreducibles_necklace, factorization_value, is_irreducible

F5 = GF(5)
F7 = GF(7)
F3 = GF(3)


def rand_poly(rng, F, max_deg):
    return FqPoly(F, [rng.randrange(F.q) for _ in range(rng.randrange(max_deg + 2))])


# -- field construction ------------------------------------------------------


def test_field_construction_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        GF(6)


def test_extension_field_arithmetic():
    F4, F9, F8 = GF(2, 2), GF(3, 2), GF(2, 3)
    for F in (F4, F9, F8):
        for a in range(1, F.q):
            assert F.mul(a, F.inv(a)) == 1
        # Frobenius inverses: the only square root in characteristic 2
        if F.p == 2:
            for a in range(1, F.q):
                s = residue_root(F, a, 2)
                assert F.mul(s, s) == a
    for a in range(1, 9):
        c = residue_root(F9, a, 3)
        assert F9.mul(F9.mul(c, c), c) == a


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 41, 97, 101])
def test_prime_field_sqrt_is_least_root(p):
    F = GF(p)
    for a in range(1, p):
        roots = [x for x in range(p) if x * x % p == a]
        assert F.is_square(a) == bool(roots)
        if roots:
            assert residue_root(F, a, 2) == min(roots)


def test_digit_field_sqrt_is_least_root():
    # 3^11 > TABLE_MAX_ORDER: digit arithmetic, whose only roots of x^2 are +-x
    F = GF(3, 11)
    rng = random.Random(11)
    for _ in range(20):
        x = rng.randrange(1, F.q)
        a = F.mul(x, x)
        assert residue_root(F, a, 2) == min(x, F.neg(x))
        assert not F.is_square(F.mul(a, F._least_nonsquare()))


def test_digit_field_cube_root_is_least_root():
    # 7^6 > TABLE_MAX_ORDER: digit arithmetic, with three cube roots of unity
    # (q = 1 mod 3); the ascending scan of the field is the reference
    F = GF(7, 6)
    assert F._log is None and (F.q - 1) % 3 == 0
    non_cube = next(z for z in range(2, F.q) if not F.is_cube(z))
    w = F.pow(non_cube, (F.q - 1) // 3)  # a primitive cube root of unity
    rng = random.Random(7)
    for y in [rng.randrange(2, 3000) for _ in range(3)]:
        # the roots of (w y)^3 are y, w y and w^2 y, so the scan stops by y
        a = F.pow(F.mul(w, y), 3)
        assert residue_root(F, a, 3) == next(x for x in range(1, F.q) if F.pow(x, 3) == a)
    assert not F.is_cube(F.mul(F.pow(rng.randrange(1, F.q), 3), non_cube))


def test_deterministic_modulus_choice():
    # x^2 + x + 1 is the only irreducible quadratic over F_2
    assert GF(2, 2).modulus == (1, 1, 1)
    # x^3, x^3 + 1 and x^3 + x (encodings 0-2) have roots; x^3 + x + 1 has none
    assert GF(2, 3).modulus == (1, 1, 0, 1)
    # least encoding: x^2 + 1 over F_3 is irreducible and encodes below x^2 + x + 2
    assert GF(3, 2).modulus == (1, 0, 1)


# -- divrem / gcd -------------------------------------------------------------


def test_divrem_monomial():
    f = parse_poly(F5, "x^3 + 1")
    g = parse_poly(F5, "x")
    q, r = f.divmod(g)
    assert q == parse_poly(F5, "x^2") and r == parse_poly(F5, "1")


def test_divrem_identity_case():
    f = parse_poly(F5, "2*x^4 + x + 3")
    q, r = f.divmod(f)
    assert q == FqPoly.one(F5) and r.is_zero()


def test_divrem_remultiplication_oracle():
    f = parse_poly(F7, "x^4 - x")
    g = parse_poly(F7, "x^2 + 1")
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.degree < g.degree


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(0, 10 ** 9))
def test_divrem_property(seed_f, seed_g):
    rng = random.Random(seed_f * 2654435761 + seed_g)
    f = rand_poly(rng, F7, 6)
    g = rand_poly(rng, F7, 4)
    if g.is_zero():
        return
    q, r = f.divmod(g)
    assert q * g + r == f and r.degree < g.degree


def test_gcd_with_zero_and_explicit_factor():
    f = parse_poly(F7, "3*x^2 + 3")
    assert poly_gcd(f, FqPoly.zero(F7)) == f.monic()
    assert poly_gcd(parse_poly(F7, "x^2 - 1"), parse_poly(F7, "x - 1")) == parse_poly(F7, "x - 1")
    with pytest.raises(ValueError):
        poly_gcd(FqPoly.zero(F7), FqPoly.zero(F7))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_gcd_divides_and_cofactors_coprime(seed):
    rng = random.Random(seed)
    f, g = rand_poly(rng, F5, 5), rand_poly(rng, F5, 5)
    if f.is_zero() and g.is_zero():
        return
    d = poly_gcd(f, g)
    if not f.is_zero():
        assert (f % d).is_zero()
    if not g.is_zero():
        assert (g % d).is_zero()
    if not f.is_zero() and not g.is_zero():
        assert poly_gcd(f.exact_div(d), g.exact_div(d)).degree == 0


# -- factorization -----------------------------------------------------------


def test_factorize_quadratic_splits():
    fac = factorize(parse_poly(F7, "x^2 - 1"))
    assert [(str(p), m) for p, m in fac] == [("x + 1", 1), ("x + 6", 1)]


def test_factorize_frobenius_polynomial():
    for q, F in ((3, F3), (5, F5)):
        fac = factorize(FqPoly.x(F) ** q - FqPoly.x(F))
        assert len(fac.factors) == q
        assert all(m == 1 and p.degree == 1 for p, m in fac)


def test_factorize_reconstructs_known_products():
    rng = random.Random(11)
    irr2 = monic_irreducibles(F7, 2)
    for _ in range(25):
        p1, p2 = rng.choice(irr2), rng.choice(irr2)
        f = p1 * p1 * p2 * FqPoly.const(F7, 3)
        fac = factorize(f)
        assert factorization_value(fac, F7) == f
        got = sorted((str(p), m) for p, m in fac)
        want = sorted(
            {(str(p1), 2), (str(p2), 1)}.union() if p1 != p2 else {(str(p1), 3)}
        )
        assert got == sorted(set(want))


def test_factorize_roundtrip_bulk():
    for F in (GF(2), F3, F5, F7):
        rng = random.Random(F.q)
        for _ in range(1000):
            f = rand_poly(rng, F, 7)
            if f.is_zero():
                continue
            assert factorization_value(factorize(f), F) == f


@pytest.mark.parametrize("pk, coeffs", [((2, 2), [3, 1, 2]), ((5, 2), [7, 3, 13])])
def test_extension_constants_keep_their_encoding(pk, coeffs):
    # coefficients are element encodings, which from_int (mod p) would alter
    F = GF(*pk)
    rng = random.Random(F.q)
    polys = [FqPoly(F, coeffs)] + [rand_poly(rng, F, 4) for _ in range(40)]
    for f in polys:
        if f.is_zero():
            continue
        assert factorization_value(factorize(f), F) == f
        assert f.compose(FqPoly.x(F)) == f
    K = InfinitePlace(F).residue_field
    for c in range(F.q):
        assert K.lift(c) == FqPoly(F, (c,))


def test_factorize_deterministic_and_sorted():
    f = parse_poly(F7, "x^6 + x^2 + 1")
    a, b = factorize(f), factorize(f)
    assert [(p.coeffs, m) for p, m in a] == [(p.coeffs, m) for p, m in b]
    keys = [p.sort_key() for p, _ in a]
    assert keys == sorted(keys)
    assert a.seed == 0


def test_squarefree_decomposition_char_p_powers():
    f = (parse_poly(F3, "x + 1") ** 3) * parse_poly(F3, "x")
    dec = squarefree_decomposition(f)
    assert dict((m, str(g)) for m, g in dec) == {1: "x", 3: "x + 1"}


def test_poly_sqrt():
    s = parse_poly(F7, "x^2 + 3")
    assert poly_sqrt(s * s) in (s, -s)
    assert poly_sqrt(parse_poly(F7, "x")) is None


# -- irreducibility ----------------------------------------------------------


def test_irreducibility_examples():
    assert is_irreducible(FqPoly.x(F5))
    assert not is_irreducible(parse_poly(F5, "x^2 + 1"))  # roots +-2
    with pytest.raises(ValueError):
        is_irreducible(FqPoly.one(F5))


def test_irreducibility_exhaustive_against_factorize():
    for m in range(1, 5):
        for f in _all_monic(F3, m):
            fac = factorize(f)
            expected = len(fac.factors) == 1 and fac.factors[0][1] == 1
            assert is_irreducible(f) == expected


def _all_monic(F, m):
    for idx in range(F.q ** m):
        coeffs = []
        e = idx
        for _ in range(m):
            coeffs.append(e % F.q)
            e //= F.q
        coeffs.append(1)
        yield FqPoly(F, coeffs)


# -- enumeration --------------------------------------------------------------


def test_enumerate_linears():
    got = list(monic_irreducibles(F5, 1))
    assert [str(p) for p in got] == ["x", "x + 1", "x + 2", "x + 3", "x + 4"]


def test_enumeration_counts_match_necklace():
    for q, F in ((2, GF(2)), (3, F3), (5, F5), (7, F7)):
        for m in range(1, 6):
            assert len(monic_irreducibles(F, m)) == count_monic_irreducibles_necklace(q, m)


def test_enumeration_partitioned_iteration():
    full = list(monic_irreducibles(F7, 2))
    left = list(monic_irreducibles(F7, 2)[0:10])
    right = list(monic_irreducibles(F7, 2)[10:None])
    assert left + right == full and len(full) == 21


# -- root counting -------------------------------------------------------------


def count_roots(f, m):
    """Distinct roots in GF(p^m) of f over GF(p), whose encodings GF(p, m) shares."""
    return gp_count_roots(GF(f.field.p, m), list(f.coeffs))


def test_count_roots_examples():
    T = FqPoly.x(F7)
    assert count_roots(T * T - FqPoly.one(F7), 1) == 2
    assert count_roots(T * T + FqPoly.one(F7), 1) == 0
    assert count_roots(T * T + FqPoly.one(F7), 2) == 2
    # 2 is not a cube in F_7 (cubes are 1 and 6)
    assert count_roots(T ** 3 - FqPoly.const(F7, 2), 1) == 0
    assert count_roots(T ** 3 - FqPoly.const(F7, 6), 1) == 3


def test_count_roots_against_brute_scan():
    rng = random.Random(5)
    for (p, m) in ((7, 1), (7, 2), (5, 2), (3, 3), (7, 3)):
        if p ** m > 343:
            continue
        Fbig = GF(p, m)
        Fsmall = GF(p)
        for _ in range(10):
            f = rand_poly(rng, Fsmall, 4)
            if f.degree < 1:
                continue
            brute = 0
            for a in range(Fbig.q):
                acc = 0
                for c in reversed(f.coeffs):
                    acc = Fbig.add(Fbig.mul(acc, a), c)
                if acc == 0:
                    brute += 1
            assert count_roots(f, m) == brute


# -- residue power tests -------------------------------------------------------


def test_residue_square_with_constructed_witness():
    rng = random.Random(3)
    P = parse_poly(F7, "x^2 + 1")
    for _ in range(20):
        c = rand_poly(rng, F7, 1)
        if (c % P).is_zero():
            continue
        assert residue_power_test(c * c, P, 2)


def test_residue_nonresidue_by_scan():
    P = parse_poly(F5, "x")
    squares = set()
    for a in range(5):
        squares.add((a * a) % 5)
    for a in range(1, 5):
        expect = a in squares
        assert residue_power_test(FqPoly.const(F5, a), P, 2) == expect


def test_residue_square_mod_P_squared_with_witness():
    ok, w = residue_power_test(FqPoly.const(F7, 4), parse_poly(F7, "x"), 2, 2, want_witness=True)
    assert ok
    P2 = parse_poly(F7, "x^2")
    assert ((w * w - FqPoly.const(F7, 4)) % P2).is_zero()


def test_cube_root_witness_in_a_field_above_the_tables():
    # k(P) has 13^5 elements, a tuple field; its cube root is the first root
    # of T^3 - a, not the result of a scan of the field
    F13 = GF(13)
    P = parse_poly(F13, "x^5 + 8*x + 1")
    a = parse_poly(F13, "2*x^4 + x + 1") ** 3
    ok, w = residue_power_test(a, P, 3, want_witness=True)
    assert ok
    assert ((w ** 3 - a) % P).is_zero()


def test_residue_power_unsupported_exponent():
    with pytest.raises(ValueError):
        residue_power_test(FqPoly.one(F7), parse_poly(F7, "x"), 5)


# -- CRT ------------------------------------------------------------------------


def test_crt_single_modulus_reduces():
    m = parse_poly(F5, "x^2 + 2")
    r = parse_poly(F5, "x^3")
    assert crt([r], [m]) == r % m


def test_crt_linear_interpolation():
    mods = [parse_poly(F5, "x"), parse_poly(F5, "x - 1")]
    sol = crt([FqPoly.const(F5, 2), FqPoly.const(F5, 4)], mods)
    assert sol.evaluate(0) == 2 and sol.evaluate(1) == 4


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_crt_roundtrip(seed):
    rng = random.Random(seed)
    mods = [parse_poly(F7, "x"), parse_poly(F7, "x + 1"), parse_poly(F7, "x^2 + 1")]
    total_deg = sum(int(m.degree) for m in mods)
    f = FqPoly(F7, [rng.randrange(7) for _ in range(total_deg)])
    assert crt([f % m for m in mods], mods) == f


def test_crt_rejects_common_factor():
    with pytest.raises(ValueError):
        crt(
            [FqPoly.one(F7), FqPoly.one(F7)],
            [parse_poly(F7, "x^2"), parse_poly(F7, "x")],
        )


# -- text grammar ----------------------------------------------------------------


def test_parser_reduces_large_coefficients():
    assert parse_poly(F7, "9*x + 14") == parse_poly(F7, "2*x")


def test_parser_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly(F7, "x^")
    with pytest.raises(ValueError):
        parse_poly(F7, "y + 1")


def test_zero_degree_sentinel_orders_below_integers():
    z = FqPoly.zero(F7)
    assert z.degree == NEG_DEG
    assert z.degree < 0 and z.degree < -10 ** 9
