"""The prime-field polynomial kernels against sympy's galoistools.

fq.fp_mul, fq.fp_divmod and fq.fp_gcd, the engine above them (gp_pow_mod,
gp_gcd, gp_inverse_mod, factorize), FqPoly's arithmetic and the tuple
residue field over GF(p), each compared with the matching dense F_p routine
of sympy (big-endian lists there, little-endian here), over small and
word-sized primes.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_add,
    gf_div,
    gf_factor,
    gf_gcd,
    gf_gcdex,
    gf_mul,
    gf_mul_ground,
    gf_neg,
    gf_pow_mod,
    gf_rem,
    gf_sub,
)

from funcfields import GF, FqPoly, factorize
from funcfields.fq import fp_divmod, fp_gcd, fp_mul
from funcfields.poly import ResidueField, gp_gcd, gp_inverse_mod, gp_pow_mod, poly_gcd, poly_inverse_mod

PRIMES = (2, 3, 7, 13, 65537, 2**31 - 1)


def to_gf(a):
    """Little-endian ints -> sympy's big-endian dense list, stripped."""
    out = [ZZ(c) for c in reversed(a)]
    while out and out[0] == 0:
        out.pop(0)
    return out


def from_gf(f):
    return [int(c) for c in reversed(f)]


def trimmed(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


@st.composite
def prime_and_polys(draw, count, max_len=9):
    """A prime of PRIMES and `count` coefficient lists, trailing zeros allowed."""
    p = draw(st.sampled_from(PRIMES))
    coeff = st.one_of(st.integers(0, p - 1), st.sampled_from([0, 1, p - 1]))
    polys = [draw(st.lists(coeff, max_size=max_len)) for _ in range(count)]
    return (p, *polys)


@settings(max_examples=300, deadline=None)
@given(prime_and_polys(2))
def test_fp_mul_matches_gf_mul(args):
    p, a, b = args
    assert fp_mul(a, b, p) == from_gf(gf_mul(to_gf(a), to_gf(b), p, ZZ))


@settings(max_examples=300, deadline=None)
@given(prime_and_polys(2))
def test_fp_divmod_matches_gf_div(args):
    p, a, b = args
    if not trimmed(b):
        with pytest.raises(ZeroDivisionError):
            fp_divmod(a, b, p)
        return
    q, r = fp_divmod(a, b, p)
    sq, sr = gf_div(to_gf(a), to_gf(b), p, ZZ)
    assert (q, r) == (from_gf(sq), from_gf(sr))
    assert len(r) < len(trimmed(b))
    assert all(0 <= c < p for c in q + r)


@settings(max_examples=150, deadline=None)
@given(prime_and_polys(2, max_len=7), st.integers(0, 10**12))
def test_gp_pow_mod_matches_gf_pow_mod(args, e):
    p, a, m = args
    m = trimmed(m)
    if len(m) < 2:
        return
    got = gp_pow_mod(GF(p), trimmed(a), e, m)
    assert got == from_gf(gf_pow_mod(to_gf(a), e, to_gf(m), p, ZZ))


@settings(max_examples=200, deadline=None)
@given(prime_and_polys(3, max_len=6))
def test_gp_gcd_matches_gf_gcd(args):
    # a common factor c makes nontrivial gcds frequent
    p, a, b, c = args
    F = GF(p)
    a, b = fp_mul(a, c, p), fp_mul(b, c, p)
    assert gp_gcd(F, a, b) == from_gf(gf_gcd(to_gf(a), to_gf(b), p, ZZ))


def _gcd_edge_operands(p):
    """Named edge cases (a, b) of gp_gcd over F_p."""
    c = p - 1 if p > 2 else 1  # a leading coefficient other than 1 where p > 2
    x1 = [1, 1]  # x + 1
    a = fp_mul([c], fp_mul(x1, [0, 1], p), p)  # c x (x + 1)
    b = fp_mul([2 % p or 1], fp_mul(x1, [1, 0, 1], p), p)  # 2 (x + 1)(x^2 + 1)
    return {
        "zero-left": ([], a),
        "zero-right": (b, []),
        "zero-with-trailing-zeros": ([0, 0], a + [0]),
        "constant-gcd": ([0, c], x1),  # c x and x + 1
        "constant-operand": (a, [c]),
        "non-monic": (a, b),
        "trailing-zeros": (a + [0, 0], b + [0]),
        "equal": (a, list(a)),
        "equal-with-trailing-zeros": (b + [0], b),
    }


GCD_EDGE_CASES = tuple(_gcd_edge_operands(7))


@pytest.mark.parametrize("case", GCD_EDGE_CASES)
@pytest.mark.parametrize("p", PRIMES)
def test_gp_gcd_edge_cases(p, case):
    a, b = _gcd_edge_operands(p)[case]
    F = GF(p)
    want = from_gf(gf_gcd(to_gf(a), to_gf(b), p, ZZ))
    assert want and want[-1] == 1
    a_in, b_in = list(a), list(b)
    assert gp_gcd(F, a, b) == gp_gcd(F, b, a) == fp_gcd(a, b, p) == want
    assert (a, b) == (a_in, b_in)  # the operands are left as they were
    assert poly_gcd(FqPoly(F, a), FqPoly(F, b)).coeffs == tuple(want)


@pytest.mark.parametrize("p", PRIMES)
def test_gp_gcd_of_two_zeros(p):
    F = GF(p)
    assert gp_gcd(F, [], []) == gp_gcd(F, [0, 0], [0]) == fp_gcd([0], [], p) == []
    with pytest.raises(ValueError):
        poly_gcd(FqPoly(F, []), FqPoly(F, [0, 0]))


@settings(max_examples=80, deadline=None)
@given(prime_and_polys(2, max_len=5), st.integers(1, 3))
def test_factorize_matches_gf_factor(args, power):
    # a repeated factor exercises the squarefree decomposition
    p, a, b = args
    f = fp_mul(a, fp_mul(b, b, p) if power > 1 else b, p)
    if not f:
        return
    F = GF(p)
    fact = factorize(FqPoly(F, f))
    lc, factors = gf_factor(to_gf(f), p, ZZ)
    assert fact.unit == int(lc)
    got = sorted((list(g.coeffs), m) for g, m in fact)
    want = sorted((from_gf(g), m) for g, m in factors)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(prime_and_polys(2), st.integers(0, 2**31))
def test_fqpoly_arithmetic_over_prime_fields(args, c):
    p, a, b = args
    F = GF(p)
    fa, fb = FqPoly(F, a), FqPoly(F, b)
    A, B = to_gf(fa.coeffs), to_gf(fb.coeffs)
    assert list((fa + fb).coeffs) == from_gf(gf_add(A, B, p, ZZ))
    assert list((fa - fb).coeffs) == from_gf(gf_sub(A, B, p, ZZ))
    assert list((-fa).coeffs) == from_gf(gf_neg(A, p, ZZ))
    assert list((fa * fb).coeffs) == from_gf(gf_mul(A, B, p, ZZ))
    assert list(fa.scale(c % p).coeffs) == from_gf(gf_mul_ground(A, ZZ(c % p), p, ZZ))
    if fb:
        q, r = fa.divmod(fb)
        sq, sr = gf_div(A, B, p, ZZ)
        assert (list(q.coeffs), list(r.coeffs)) == (from_gf(sq), from_gf(sr))


# -- edge cases ---------------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_zero_and_constant_operands(p):
    a = [1, 2 % p, p - 1]
    assert fp_mul([], a, p) == fp_mul(a, [], p) == fp_mul([0, 0], a, p) == []
    assert fp_mul([1], a, p) == a
    assert fp_mul([p - 1], a, p) == [(-c) % p for c in a]
    assert fp_divmod([], a, p) == ([], [])
    assert fp_divmod([0, 0, 0], a, p) == ([], [])
    with pytest.raises(ZeroDivisionError):
        fp_divmod(a, [], p)
    with pytest.raises(ZeroDivisionError):
        fp_divmod(a, [0, 0], p)


@pytest.mark.parametrize("p", PRIMES)
def test_division_by_a_constant(p):
    a = [3 % p, 0, 5 % p, 1]
    c = p - 1 if p > 2 else 1
    q, r = fp_divmod(a, [c], p)
    assert r == []
    assert fp_mul(q, [c], p) == trimmed(a)


@pytest.mark.parametrize("p", [3, 7, 13, 65537, 2**31 - 1])
def test_non_monic_divisor(p):
    rng = random.Random(p)
    for _ in range(50):
        b = [rng.randrange(p) for _ in range(3)] + [rng.randrange(2, p)]
        a = [rng.randrange(p) for _ in range(7)] + [rng.randrange(1, p)]
        q, r = fp_divmod(a, b, p)
        assert (q, r) == tuple(from_gf(x) for x in gf_div(to_gf(a), to_gf(b), p, ZZ))
        back, r = fp_mul(q, b, p), r + [0] * (len(a) - len(r))
        assert [(x + y) % p for x, y in zip(back, r)] == a


@pytest.mark.parametrize("p", PRIMES)
def test_dividend_of_lower_degree(p):
    a = [1, p - 1, 0]  # trailing zero: degree 1
    b = [0, 0, 2 % p or 1]
    assert fp_divmod(a, b, p) == ([], [1, p - 1])


def test_trailing_zeros_are_stripped():
    p = 7
    # leading terms cancel in a difference, and inputs carry trailing zeros
    f, g = FqPoly(GF(p), [1, 2, 3]), FqPoly(GF(p), [5, 2, 3])
    assert (f - g).coeffs == (3,)
    assert (f + FqPoly(GF(p), [0, 5, 4])).coeffs == (1,)
    assert fp_mul([2, 3, 0, 0], [1, 0], p) == [2, 3]
    assert fp_divmod([1, 0, 1, 0], [0, 1, 0], p) == ([0, 1], [1])
    assert fp_divmod([1, 2, 3], [1, 2, 3], p) == ([1], [])


def test_tuple_residue_field_matches_galoistools():
    # the tuple field runs on the engine (gp_mul, gp_mod, gp_inverse_mod), so
    # its products and inverses are checked against sympy's dense F_p[x]/(P)
    rng = random.Random(5)
    for p, d in ((7, 5), (13, 3), (65537, 2)):
        F = GF(p)
        while True:
            P = FqPoly(F, [rng.randrange(p) for _ in range(d)] + [1])
            if factorize(P).factors == ((P, 1),):
                break
        K, mod = ResidueField(P), to_gf(P.coeffs)
        for _ in range(40):
            a, b = K.from_rand(rng), K.from_rand(rng)
            want = gf_rem(gf_mul(to_gf(a), to_gf(b), p, ZZ), mod, p, ZZ)
            assert list(K.mul(a, b)) == from_gf(want)
            if a:
                s, _, g = gf_gcdex(to_gf(a), mod, p, ZZ)
                assert g == [1]
                assert list(K.inv(a)) == from_gf(gf_rem(s, mod, p, ZZ))


@pytest.mark.parametrize("p", [2, 7, 13, 65537])
def test_inverse_mod_matches_gf_gcdex(p):
    rng = random.Random(p)
    F = GF(p)
    for _ in range(60):
        m = FqPoly(F, [rng.randrange(p) for _ in range(rng.randrange(1, 6))] + [rng.randrange(1, p)])
        a = FqPoly(F, [rng.randrange(p) for _ in range(rng.randrange(0, 8))])
        s, _, g = gf_gcdex(to_gf(a.coeffs), to_gf(m.coeffs), p, ZZ)
        if g == [1]:
            want = from_gf(gf_rem(s, to_gf(m.coeffs), p, ZZ))
            assert gp_inverse_mod(F, a.coeffs, m.coeffs) == want
            assert list(poly_inverse_mod(a, m).coeffs) == want
        else:
            # a non-unit modulo m: a shares a factor with m, or is 0
            with pytest.raises(ValueError):
                gp_inverse_mod(F, a.coeffs, m.coeffs)
            with pytest.raises(ValueError):
                poly_inverse_mod(a, m)
    f = FqPoly(F, [1, 1])
    with pytest.raises(ValueError):
        poly_inverse_mod(f * f, f * FqPoly(F, [2, 0, 1]))
