"""Signature tables: infinite and finite places, all characteristics."""

import random

import pytest

from funcfields import (
    GF,
    CubicModel,
    FinitePlace,
    FqPoly,
    InfinitePlace,
    QuarticModel,
    Signature,
    element_valuations,
    infinite_signature,
    kummer_signature,
    monic_irreducibles,
    parse_poly,
    signature_at,
)
from funcfields.poly import (
    POS_INF,
    FuncFieldError,
    InternalFault,
    ResidueField,
    UnknownSignature,
    factorize,
    pth_root,
    tower_fields,
)
from funcfields.signature import signature_quartic

F3 = GF(3)
F5 = GF(5)
F7 = GF(7)


def pp(s, F=F7):
    return parse_poly(F, s)


def flat(result):
    return result.require().flat()


# -- fundamental identity ------------------------------------------------------


def test_signature_constructor_enforces_fundamental_identity():
    with pytest.raises(InternalFault):
        Signature([(1, 1), (1, 1)], 3)
    s = Signature.from_flat((1, 1, 2, 1), 3)
    assert s.pairs == ((1, 1), (2, 1))
    assert s.ramification_defect() == 1


# -- Kummer engine ---------------------------------------------------------------


def test_kummer_three_linear_factors():
    K = InfinitePlace(F7).residue_field
    # T^3 - T = T(T-1)(T+1)
    red = [0, K.neg(1), 0, 1]
    sig = kummer_signature(red, K, 3)
    assert sig.flat() == (1, 1, 1, 1, 1, 1)


def test_kummer_noncube_gives_inert():
    K = InfinitePlace(F7).residue_field
    red = [K.neg(2), 0, 0, 1]  # T^3 - 2, and 2 is not a cube mod 7
    sig = kummer_signature(red, K, 3)
    assert sig.flat() == (1, 3)


def test_kummer_inconclusive_on_multiple_root():
    K = InfinitePlace(F7).residue_field
    # T^2 (T - 1)
    red = [0, 0, K.neg(1), 1]
    assert kummer_signature(red, K, 3) is None


def test_kummer_refuses_a_degree_other_than_the_reductions():
    K = InfinitePlace(F7).residue_field
    red = [0, K.neg(1), 0, 1]  # T^3 - T, squarefree
    for n in (2, 4):
        with pytest.raises(ValueError):
            kummer_signature(red, K, n)
    with pytest.raises(ValueError):
        kummer_signature([0, 0, 1], K, 3)  # T^2, whose repeated root would answer None


# -- cubic infinite signatures, characteristic >= 5 ------------------------------


def test_cubic_infinite_table_char_ge5():
    # 3n1 > 2n0, n1 even, sgn A square
    assert flat(infinite_signature(CubicModel(pp("x^2"), pp("1")))) == (1, 1, 1, 1, 1, 1)
    # 3n1 > 2n0, n1 odd
    assert flat(infinite_signature(CubicModel(pp("x^3"), pp("x")))) == (1, 1, 2, 1)
    # 3n1 > 2n0, n1 even, sgn A not a square (3 is not a square mod 7)
    assert flat(infinite_signature(CubicModel(pp("3*x^2"), pp("1")))) == (1, 1, 1, 2)
    # 3n1 < 2n0, n0 not divisible by 3
    assert flat(infinite_signature(CubicModel(pp("x"), pp("x^2 + x")))) == (3, 1)
    # 3n1 < 2n0, 3 | n0, sgn B a cube, q = 1 mod 3
    assert flat(infinite_signature(CubicModel(pp("x"), pp("x^3 + x + 1")))) == (1, 1, 1, 1, 1, 1)
    # same but sgn B not a cube (2 is not a cube mod 7)
    assert flat(infinite_signature(CubicModel(pp("x"), pp("2*x^3 + x + 1")))) == (1, 3)
    # q = 5 = -1 mod 3, cube leading coefficient
    assert flat(
        infinite_signature(CubicModel(pp("x", F5), pp("x^3 + x + 1", F5)))
    ) == (1, 1, 1, 2)
    # 3n1 = 2n0 with separable reduction: T^3 - T + 1 has one root mod 7
    assert flat(infinite_signature(CubicModel(pp("x^2 + 1"), pp("x^3")))) == (1, 1, 1, 2)


def test_cubic_infinite_transform_chain():
    # 4a^3 = 27b^2 over F_7 with a=3, b=2: both sides equal 3
    m = CubicModel(pp("3*x^2"), pp("2*x^3 + 1"))
    D = m.discriminant()
    assert D.degree == 3  # odd offset -> ramified pair
    r = infinite_signature(m)
    assert flat(r) == (1, 1, 2, 1)
    assert r.method == "TransformChain"
    # even offset with square leading coefficient of D
    m2 = CubicModel(pp("3*x^2 + x"), pp("2*x^3 + 1"))
    r2 = infinite_signature(m2)
    assert r2.known and sum(e * f for e, f in r2.signature.pairs) == 3


# -- cubic finite signatures -------------------------------------------------------


def test_cubic_finite_table_char_ge5():
    X = pp("x")
    # 1 <= m0 <= m1 -> (3,1)
    assert flat(signature_at(CubicModel(X, X), FinitePlace(X))) == (3, 1)
    # m1 = 1 < m0 -> (1,1,2,1)
    assert flat(signature_at(CubicModel(X, pp("x^2")), FinitePlace(X))) == (1, 1, 2, 1)
    # m1 = 0 < m0, A square mod P: A=1 at P=x
    assert flat(signature_at(CubicModel(pp("x + 1"), pp("x^2 + x")), FinitePlace(X))) == (
        1, 1, 1, 1, 1, 1,
    )
    # m1 = 0 < m0, A nonsquare mod P (3 mod 7)
    assert flat(signature_at(CubicModel(pp("x + 3"), pp("x^2 + x")), FinitePlace(X))) == (1, 1, 1, 2)
    # m1 > 0 = m0: -B cube test; B = 1 -> -1 = 6 is a cube mod 7, q = 1 mod 3
    assert flat(signature_at(CubicModel(X, pp("1")), FinitePlace(X))) == (1, 1, 1, 1, 1, 1)
    # m1 = m0 = 0, D a unit, Kummer on the full reduction
    m = CubicModel(X, pp("x^3 + x + 1"))
    r = signature_at(m, FinitePlace(pp("x + 1")))
    assert r.known and r.method == "Kummer"


def test_cubic_finite_D_chain_square_branch():
    # m1 = m0 = 0 with P | D: v_P(D) parity decides, then the D/P^d square test
    rng = random.Random(7)
    seen_odd = seen_even = False
    for _ in range(400):
        A = FqPoly(F7, [rng.randrange(7) for _ in range(3)])
        B = FqPoly(F7, [rng.randrange(7) for _ in range(4)])
        try:
            m = CubicModel(A, B)
        except Exception:
            continue
        D = m.discriminant()
        for P in monic_irreducibles(F7, 1):
            if (m.A % P).is_zero() or (m.B % P).is_zero():
                continue
            v = FinitePlace(P).val(D)
            if v == 0:
                continue
            r = signature_at(m, FinitePlace(P))
            assert r.known
            if v % 2:
                seen_odd = True
                assert r.signature.flat() == (1, 1, 2, 1)
            else:
                seen_even = True
                assert r.signature.flat() in ((1, 1, 1, 1, 1, 1), (1, 1, 1, 2))
        if seen_odd and seen_even:
            break
    assert seen_odd and seen_even


# -- characteristic 2 and 3 ---------------------------------------------------------


def test_cubic_char2_exact_rows():
    F2 = GF(2)
    F4 = GF(2, 2)
    # 3n1 > 2n0, n1 odd
    assert flat(infinite_signature(CubicModel(parse_poly(F2, "x^3"), parse_poly(F2, "x")))) == (1, 1, 2, 1)
    # 3n1 < 2n0, n0 not divisible by 3
    assert flat(
        infinite_signature(CubicModel(parse_poly(F2, "x"), parse_poly(F2, "x^2 + x + 1")))
    ) == (3, 1)
    # 3n1 < 2n0, 3 | n0 over F_4 (= 1 mod 3): leading coefficient 1 is a cube
    m4 = CubicModel(parse_poly(F4, "x"), parse_poly(F4, "x^3 + x + 1"))
    r = infinite_signature(m4)
    assert flat(r) == (1, 1, 1, 1, 1, 1)


def test_cubic_char2_iteration_resolves():
    F2 = GF(2)
    m = CubicModel(parse_poly(F2, "x^2 + x"), parse_poly(F2, "1"))
    r = infinite_signature(m)
    assert r.known and r.method == "Char2Iteration"
    assert flat(r) == (1, 1, 2, 1)


def test_cubic_char2_finite_iteration():
    F2 = GF(2)
    # m1 = 0 < m0 at P = x: A must be a unit at x, B divisible
    m = CubicModel(parse_poly(F2, "x^2 + x + 1"), parse_poly(F2, "x^2"))
    r = signature_at(m, FinitePlace(parse_poly(F2, "x")))
    assert r.known
    assert sum(e * f for e, f in r.signature.pairs) == 3


def test_cubic_char3_exact_rows():
    m = CubicModel(parse_poly(F3, "x^2"), FqPoly.one(F3))
    assert flat(infinite_signature(m)) == (1, 1, 1, 1, 1, 1)
    # 3n1 < 2n0 with n0 not divisible by 3
    m2 = CubicModel(parse_poly(F3, "x"), parse_poly(F3, "x^2 + x"))
    assert flat(infinite_signature(m2)) == (3, 1)


def test_cubic_char3_iteration_resolves_to_totally_ramified():
    m = CubicModel(parse_poly(F3, "x"), parse_poly(F3, "x^3 + 2*x + 1"))
    r = infinite_signature(m)
    assert r.known and r.method == "Char3Iteration"
    assert flat(r) == (3, 1)


def test_cubic_char3_remark_degree_rule():
    # deg(-cAB0 + B1) = deg(B1) forces (3,1): B = x^3 + 2x + 1 decomposes with
    # B0 = x, B1 = 2x + 1; c = cube root of 2 = 2; -cAB0 + B1 = -2Ax + 2x + 1
    F = F3
    A, B = parse_poly(F, "x"), parse_poly(F, "x^3 + 2*x + 1")
    c = pth_root(F, 2)
    assert c == 2
    B0, B1 = parse_poly(F, "x"), parse_poly(F, "2*x + 1")
    assert B0 ** 3 + B1 == B
    new_B = B1 - (A * B0).scale(c)
    assert new_B.degree == B1.degree or new_B.degree == (A * B0).degree
    r = infinite_signature(CubicModel(A, B))
    assert flat(r) == (3, 1)


# -- quartic signatures ---------------------------------------------------------------


def test_quartic_infinite_table_rows():
    zero = FqPoly.zero(F7)
    # n0 > 2n2, 3n0 > 4n1, n0 odd -> (4,1)
    assert flat(infinite_signature(QuarticModel(pp("x"), pp("x"), pp("x^3")))) == (4, 1)
    # biquadratic, n0 = 2 mod 4, -c square (-3 = 4 mod 7)
    assert flat(
        infinite_signature(QuarticModel(pp("x^2 + x"), zero, pp("3*x^6 + x")))
    ) == (2, 1, 2, 1)
    # 3n2 > 2n1, 2n2 > n0, 2n1 > n0 + n2, n2 odd
    assert flat(
        infinite_signature(QuarticModel(pp("x^3"), pp("x^3 + 1"), pp("x^2")))
    ) == (1, 1, 1, 1, 2, 1)
    # B-corner: 2n1 > 3n2, 4n1 > 3n0, n1 not divisible by 3
    assert flat(
        infinite_signature(QuarticModel(pp("x"), pp("x^2"), pp("x^2 + 1")))
    ) == (1, 1, 3, 1)


def test_quartic_char_lt5_refused():
    with pytest.raises(UnknownSignature):
        infinite_signature(QuarticModel(parse_poly(F3, "x"), parse_poly(F3, "1"), parse_poly(F3, "x"), _skip_checks=True))


def test_quartic_finite_rows():
    X = pp("x")
    # m0 < 2m2, 3m0 < 4m1, m0 odd -> (4,1): valuations at P=x: m2>=1, m1>=1, m0=1
    m = QuarticModel(pp("x^2 + x"), pp("x + x^2"), pp("x + x^3"))
    r = signature_at(m, FinitePlace(X))
    assert flat(r) == (4, 1)
    # m2 = m1 = m0 = 0 with squarefree reduction: plain Kummer
    m2 = QuarticModel(pp("x"), pp("x^2"), pp("x^5"))
    r2 = signature_at(m2, FinitePlace(pp("x + 1")))
    assert r2.known and r2.method == "Kummer"


def test_quartic_case4_odd_forces_even_ramification():
    # u2 odd at infinity, no cancellation: every e is even
    m = QuarticModel(pp("x"), pp("1"), pp("x^2"))
    r = infinite_signature(m)
    assert flat(r) in ((2, 1, 2, 1), (2, 2))
    assert all(e % 2 == 0 for e, _ in r.signature.pairs)


def test_quartic_biquadratic_complete_at_all_small_places():
    zero = FqPoly.zero(F7)
    models = [
        QuarticModel(pp("x^2 + 1"), zero, pp("x")),
        QuarticModel(pp("x"), zero, pp("x^3 + x + 1")),
        QuarticModel(pp("x^2"), zero, pp("x^3 + 1")),
    ]
    for m in models:
        assert infinite_signature(m).known
        for d in (1, 2):
            for P in monic_irreducibles(F7, d):
                r = signature_at(m, FinitePlace(P))
                assert r.known, (m, P, r.unknown_reason)


def test_quartic_unknown_is_first_class():
    # a model with a leftover place: full reduction with repeated factors
    m = QuarticModel(pp("x"), pp("x"), pp("x"))
    found_unknown = False
    for d in (1, 2):
        for P in monic_irreducibles(F7, d):
            r = signature_at(m, FinitePlace(P))
            if not r.known:
                found_unknown = True
                assert r.unknown_reason
                assert r.to_json().get("unknown")
    assert found_unknown


# -- the quartic fully balanced case: v(D) = 12 t against the gcd -----------------

# (q, (A, B, C)) coefficient lists, constant term first: the quartics of the
# benchmark's seed-1 ledger corpus (perfbench/workloads.py), whose places
# over D have degree up to 11
LEDGER_QUARTICS = [
    (7, ((6, 1, 5), (4, 6, 2, 6), (4, 6, 0, 1))),
    (7, ((5, 4, 2), (5, 6, 5, 6), (5, 5, 2, 1))),
    (7, ((1, 5, 4), (3, 2, 1, 3), (0, 3, 3, 3))),
    (7, ((2, 4, 1), (1, 2, 2, 6), (4, 0, 2, 4))),
    (7, ((5, 3, 6), (1, 0, 6, 2), (6, 0, 0, 6))),
    (7, ((5, 4, 4), (1, 5, 0, 6), (6, 1, 0, 6))),
    (7, ((6, 1, 3), (3, 6, 0, 1), (5, 1, 0, 1))),
    (7, ((4, 5, 3), (6, 3, 4, 4), (0, 1, 2, 5))),
    (11, ((1, 4, 5), (8, 6, 0, 6), (2, 2, 1, 7))),
    (11, ((2, 1, 4), (10, 3, 9, 2), (8, 10, 4, 8))),
    (11, ((8, 6, 5), (10, 0, 0, 7), (5, 2, 3, 4))),
    (11, ((10, 3, 4), (5, 8, 10, 4), (3, 7, 6, 2))),
    (11, ((7, 7, 3), (0, 3, 6, 7), (6, 2, 8, 8))),
    (11, ((5, 3, 8), (1, 8, 10, 2), (2, 1, 1, 3))),
    (11, ((8, 3, 1), (7, 8, 9, 9), (0, 0, 7, 3))),
    (11, ((4, 9, 6), (8, 3, 3, 3), (3, 0, 1, 7))),
    (13, ((0, 1, 3), (1, 9, 9, 3), (1, 7, 5, 10))),
    (13, ((5, 6, 5), (3, 1, 9, 4), (5, 2, 1, 10))),
    (13, ((5, 5, 7), (9, 2, 3, 11), (4, 7, 8, 3))),
    (13, ((12, 2, 2), (2, 11, 5, 11), (4, 8, 0, 3))),
    (13, ((9, 1, 3), (7, 11, 7, 2), (8, 5, 0, 7))),
    (13, ((3, 12, 2), (0, 8, 3, 9), (10, 5, 2, 1))),
    (13, ((11, 9, 10), (6, 9, 11, 10), (4, 10, 12, 12))),
    (13, ((5, 0, 2), (7, 9, 11, 8), (5, 8, 6, 9))),
]


def _seeded_quartics(q, count, rng):
    """`count` non-biquadratic quartics over GF(q) with deg A, B, C = 2, 3, 4."""
    F = GF(q)
    out = []
    while len(out) < count:
        A, B, C = (FqPoly(F, [rng.randrange(q) for _ in range(d)] + [rng.randrange(1, q)]) for d in (2, 3, 4))
        try:
            out.append(QuarticModel(A, B, C))
        except FuncFieldError:
            pass
    return out


def _balanced_rule_cases():
    """(model, place) pairs: small places of seeded quartics, places over D of the ledger ones."""
    rng = random.Random(20261019)
    for q in (7, 11, 13):
        F = GF(q)
        places = [FinitePlace(P, K) for d in (1, 2) for P, K in tower_fields(F, d)] + [InfinitePlace(F)]
        for m in _seeded_quartics(q, 3, rng):
            for place in places:
                yield m, place
    for q, coeffs in LEDGER_QUARTICS:
        F = GF(q)
        m = QuarticModel(*(FqPoly(F, list(cs)) for cs in coeffs))
        for P, _ in factorize(m.discriminant()):
            yield m, FinitePlace(P)


def test_quartic_balanced_case_squarefree_iff_disc_at_generic_level():
    # where u(A)/2 = u(B)/3 = u(C)/4 = t, the dispatcher reads squarefreeness
    # of the reduction off v(D) = 12 t; kummer_signature's gcd decides it here
    seen = {True: 0, False: 0}
    tuple_places = 0
    for model, place in _balanced_rule_cases():
        for m in [model] + [sub for _, sub in model.substitutes()]:
            if m.biquadratic:
                continue
            u2, u1, u0 = (place.val(f) for f in (m.A, m.B, m.C))
            if POS_INF in (u2, u1, u0) or not 6 * u2 == 4 * u1 == 3 * u0:
                continue
            K = place.residue_field
            a, b, c = place.residue(m.A, u2), place.residue(m.B, u1), place.residue(m.C, u0)
            red = [c, K.neg(b), K.neg(a), K.zero, K.one]
            oracle = kummer_signature(red, K, 4)
            rule = place.val(m.discriminant()) == 12 * (u0 // 4)
            assert rule == (oracle is not None), (m.to_json(), place.describe())
            seen[rule] += 1
            tuple_places += isinstance(K, ResidueField)
            r = signature_quartic(m, place, allow_transforms=False)
            assert "fully balanced: Kummer on the full reduction" in r.trace
            if rule:
                assert r.method == "Kummer" and r.signature == oracle and r.kummer_reduction == (K, red)
            else:
                assert r.trace[r.trace.index("fully balanced: Kummer on the full reduction") + 1] == (
                    "reduction has repeated factors"
                )
    assert seen[True] > 0 and seen[False] > 0 and tuple_places > 0


# -- Dedekind: ramified implies P | D ---------------------------------------------


def test_ramified_places_divide_D():
    rng = random.Random(13)
    for q in (5, 7, 11):
        F = GF(q)
        tried = 0
        while tried < 15:
            A = FqPoly(F, [rng.randrange(q) for _ in range(rng.randrange(1, 4))])
            B = FqPoly(F, [rng.randrange(q) for _ in range(rng.randrange(1, 5))])
            try:
                m = CubicModel(A, B)
            except Exception:
                continue
            tried += 1
            D = m.discriminant()
            for d in (1, 2):
                for P, K in tower_fields(F, d):
                    r = signature_at(m, FinitePlace(P, K))
                    if any(e > 1 for e, _ in r.signature.pairs):
                        assert FinitePlace(P).val(D) > 0


# -- element valuations --------------------------------------------------------------


def test_element_valuations_of_y_totally_ramified():
    m = CubicModel(pp("x"), pp("x^2 + x"))  # (3,1) at infinity
    assigns, sig = element_valuations(m, m.y(), InfinitePlace(F7))
    assert sig.flat() == (3, 1)
    assert assigns == [(-2,)]  # v = -e n0 / 3 = -n0


def test_element_valuations_of_constants():
    m = CubicModel(pp("x"), pp("x^2 + x"))
    c = m.element(FqPoly.const(F7, 3))
    assigns, _ = element_valuations(m, c, InfinitePlace(F7))
    assert assigns == [(0,)]


def test_element_valuations_rank2_family():
    m = CubicModel(pp("x^2"), FqPoly.const(F7, 6))  # y^3 = x^2 y + 1
    assigns, sig = element_valuations(m, m.y(), InfinitePlace(F7))
    assert sig.flat() == (1, 1, 1, 1, 1, 1)
    assert all(sorted(a) == [-1, -1, 2] for a in assigns)
