"""Models, standard forms, order arithmetic, norms and minimal polynomials."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from funcfields import (
    GF,
    CubicModel,
    FqPoly,
    HypothesisRefused,
    OrderElement,
    QuarticModel,
    RationalFunction,
    cubic_disc,
    cubic_standard_form,
    is_integral,
    minimal_polynomial,
    minimal_polynomial_fq,
    model_from_text,
    norm,
    norm_cubic,
    parse_poly,
    quartic_disc,
    quartic_standard_form,
)
from funcfields.models import (
    _binom_shift,
    _cubic_irreducible,
    _monic_divisors,
    _quartic_irreducible,
    _standard_form_divisor,
    char_poly,
    multiplication_matrix,
    poly_sqrt,
    reduce_coeffs,
)
from funcfields.poly import FuncFieldError, gp_factor_degrees
from oracles import Frac, fracs, pole_divisor_degree, trace

F5 = GF(5)
F7 = GF(7)
F11 = GF(11)


def pp(s, F=F7):
    return parse_poly(F, s)


def rand_poly(rng, F, d):
    return FqPoly(F, [rng.randrange(F.q) for _ in range(d + 1)])


# -- construction and standard form -------------------------------------------


def test_cubic_rejects_reducible():
    # T = 1 is a root of T^3 - x T + (x - 1)
    with pytest.raises(FuncFieldError):
        CubicModel(pp("x"), pp("x - 1"))


def test_cubic_rejects_nonstandard_form():
    with pytest.raises(HypothesisRefused):
        CubicModel(pp("x^2"), pp("x^3"))


def test_cubic_standard_form_identity():
    m, tr = cubic_standard_form(FqPoly.one(F7), FqPoly.zero(F7), -pp("x^2"), FqPoly.one(F7))
    assert m == CubicModel(pp("x^2"), pp("1"))
    assert tr.scale == FqPoly.one(F7) and tr.shift.is_zero() and tr.divide == FqPoly.one(F7)


def test_cubic_standard_form_forced_reduction():
    Q = pp("x + 1")
    m, tr = cubic_standard_form(FqPoly.one(F7), FqPoly.zero(F7), -(pp("x^2") * Q * Q), Q ** 3)
    assert m.A == pp("x^2") and m.B == FqPoly.one(F7)
    assert tr.divide == Q


def test_cubic_standard_form_char3_path():
    # T^3 - A'T^2 + B' becomes (A'B', B'^2)
    F3 = GF(3)
    Ap, Bp = parse_poly(F3, "x"), parse_poly(F3, "x")
    m, _ = cubic_standard_form(
        FqPoly.one(F3), -Ap, FqPoly.zero(F3), Bp
    )
    assert m.A == Ap * Bp and m.B == Bp * Bp


def test_cubic_standard_form_char3_refusal():
    F3 = GF(3)
    # nonzero quadratic and linear terms with a2 not dividing a1
    with pytest.raises(HypothesisRefused):
        cubic_standard_form(
            FqPoly.one(F3), parse_poly(F3, "x^2"), parse_poly(F3, "x + 1"), FqPoly.one(F3)
        )


def test_quartic_standard_form_roundtrip():
    a3, a2, a1, a0 = FqPoly.const(F7, 4), pp("x"), pp("x^2"), pp("x^3 + x + 1")
    m, tr = quartic_standard_form(a3, a2, a1, a0)
    comp = _binom_shift([a0, a1, a2, a3, FqPoly.one(F7)], tr.shift)
    assert comp[3].is_zero()
    assert comp[2] == -m.A and comp[1] == -m.B and comp[0] == m.C


def test_quartic_standard_form_forced_reduction():
    Q = FqPoly.x(F7)
    m, _ = quartic_standard_form(
        FqPoly.zero(F7), -(pp("x^2") * Q * Q), FqPoly.zero(F7), Q ** 4
    )
    assert (m.A, m.B, m.C) == (pp("x^2"), FqPoly.zero(F7), FqPoly.one(F7))


def _largest_standard_form_divisor(coeffs):
    """Largest monic Q with Q^k | f (k = 2, 3, 4), by enumerating the monic Q up to min(deg f // k)."""
    F = coeffs[0].field
    top = min(int(f.degree) // k for k, f in enumerate(coeffs, 2) if not f.is_zero())
    found = [FqPoly.one(F)]
    for d in range(1, top + 1):
        for idx in range(F.q ** d):
            Q = FqPoly(F, [idx // F.q ** i % F.q for i in range(d)] + [1])
            if all((f % Q ** k).is_zero() for k, f in enumerate(coeffs, 2)):
                found.append(Q)
    largest = [Q for Q in found if Q.degree == found[-1].degree]
    assert len(largest) == 1  # the Q that qualify are closed under lcm
    return largest[0]


ZERO_PATTERNS = [(2, z) for z in ((), (0,), (1,))] + [
    (3, z) for z in ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2))
]


@pytest.mark.parametrize("pk", [(5, 1), (7, 1), (3, 2)], ids=["GF(5)", "GF(7)", "GF(9)"])
@pytest.mark.parametrize("n, zeros", ZERO_PATTERNS)
def test_standard_form_divisor_matches_brute_force(pk, n, zeros):
    # (A, B) for n = 2, (A, B, C) for n = 3; the coefficients at `zeros` are 0
    F = GF(*pk)
    rng = random.Random("%s %d %s" % (pk, n, zeros))

    def nonzero_poly(d):
        return FqPoly(F, [rng.randrange(F.q) for _ in range(d)] + [rng.randrange(1, F.q)])

    for _ in range(6):
        # Q0^e with e in {k - 1, k, 2k - 1, 2k} times a cofactor, so each coefficient can bind
        Q0 = nonzero_poly(rng.randrange(3)).monic()
        coeffs = tuple(
            FqPoly.zero(F) if k - 2 in zeros
            else Q0 ** (k * rng.randrange(1, 3) - rng.randrange(2)) * nonzero_poly(rng.randrange(3))
            for k in range(2, n + 2)
        )
        Q = _standard_form_divisor(*coeffs)
        assert Q == _largest_standard_form_divisor(coeffs)
        reduced = reduce_coeffs(*coeffs)
        assert reduced[-1] == Q
        assert all(g * Q ** k == f for k, (f, g) in enumerate(zip(coeffs, reduced), 2))
        assert _standard_form_divisor(*reduced[:-1]) == FqPoly.one(F)


@pytest.mark.parametrize("n", [2, 3])
def test_standard_form_divisor_refuses_the_zero_model(n):
    zero = FqPoly.zero(F7)
    with pytest.raises(FuncFieldError, match="zero model"):
        _standard_form_divisor(*[zero] * n)
    with pytest.raises(FuncFieldError, match="zero model"):
        reduce_coeffs(*[zero] * n)


def test_quartic_char2_refused():
    F2 = GF(2)
    with pytest.raises(HypothesisRefused):
        QuarticModel(parse_poly(F2, "x"), parse_poly(F2, "1"), parse_poly(F2, "x"))


# -- discriminants ---------------------------------------------------------------


def test_cubic_disc_purely_cubic():
    m = CubicModel(FqPoly.zero(F7), pp("x^2 + 1"))
    assert cubic_disc(m) == -(FqPoly.const(F7, 27) * pp("x^2+1") ** 2)


def test_cubic_disc_char2_is_B_squared():
    F2 = GF(2)
    m = CubicModel(parse_poly(F2, "x^2 + x"), parse_poly(F2, "1"))
    assert cubic_disc(m) == FqPoly.one(F2)


def test_cubic_disc_direct_substitution():
    m = CubicModel(pp("x^2"), FqPoly.one(F7))
    assert cubic_disc(m) == pp("4*x^6 - 27")


def test_quartic_disc_specializations():
    A, C = pp("x^2 + 1"), pp("x")
    D = quartic_disc(QuarticModel(A, FqPoly.zero(F7), C))
    assert D == FqPoly.const(F7, 16) * C * (A * A - C.scale(4)) ** 2
    D2 = quartic_disc(QuarticModel(FqPoly.zero(F7), FqPoly.zero(F7), FqPoly.x(F7)))
    assert D2 == FqPoly.const(F7, 256 % 7) * FqPoly.x(F7) ** 3


def test_quartic_disc_two_forms_random():
    rng = random.Random(9)
    found = 0
    while found < 120:
        try:
            m = QuarticModel(rand_poly(rng, F11, 2), rand_poly(rng, F11, 2), rand_poly(rng, F11, 3))
        except Exception:
            continue
        quartic_disc(m)  # internally asserts both closed forms agree
        found += 1


# -- order arithmetic ---------------------------------------------------------


def test_order_mul_one_and_relation():
    m = CubicModel(pp("x^2"), FqPoly.one(F7))
    y = m.y()
    one = m.element(FqPoly.one(F7))
    alpha = m.element(pp("x"), pp("x + 1"), pp("3"))
    assert (alpha * one).coords == alpha.coords
    yy2 = y * (y * y)
    assert yy2.coords == (-m.B, m.A, FqPoly.zero(F7))


def test_order_mul_associativity():
    rng = random.Random(1)
    m = CubicModel(pp("x^2"), FqPoly.one(F7))
    for _ in range(200):
        a = m.element(*[rand_poly(rng, F7, 2) for _ in range(3)])
        b = m.element(*[rand_poly(rng, F7, 2) for _ in range(3)])
        c = m.element(*[rand_poly(rng, F7, 2) for _ in range(3)])
        assert ((a * b) * c).coords == (a * (b * c)).coords


def test_order_mul_model_mismatch():
    m1 = CubicModel(pp("x^2"), FqPoly.one(F7))
    m2 = CubicModel(pp("x"), pp("x^3 + x + 1"))
    with pytest.raises(ValueError):
        m1.y() * m2.y()


def test_quartic_order_relation():
    m = QuarticModel(pp("x"), pp("x^2"), pp("x^5"))
    y = m.y()
    y4 = y * (y * y * y)
    assert y4.coords == (-m.C, m.B, m.A, FqPoly.zero(F7))


# -- norms ----------------------------------------------------------------------


def test_norm_constant_cubes():
    m = CubicModel(pp("x^2"), FqPoly.one(F7))
    assert norm_cubic(m.element(FqPoly.const(F7, 5))) == FqPoly.const(F7, pow(5, 3, 7))


def test_norm_of_y_is_minus_B():
    m = CubicModel(pp("x^2"), pp("x + 3"))
    assert norm_cubic(m.y()) == -m.B


def test_norm_matches_matrix_determinant_and_multiplicativity():
    rng = random.Random(2)
    m = CubicModel(pp("x"), pp("x^3 + x + 1"))
    for _ in range(500):
        a = m.element(*[rand_poly(rng, F7, 2) for _ in range(3)])
        b = m.element(*[rand_poly(rng, F7, 2) for _ in range(3)])
        na = norm_cubic(a)  # asserts equality with the matrix determinant
        nb = norm_cubic(b)
        assert norm_cubic(a * b) == na * nb


def test_quartic_norm_of_y_is_C():
    m = QuarticModel(pp("x"), pp("x^2"), pp("x^5"))
    assert norm(m.y()).as_polynomial() == m.C


# -- minimal polynomials -----------------------------------------------------------


def test_minimal_polynomial_of_y_reproduces_model():
    m = CubicModel(pp("x^2"), FqPoly.one(F7))
    mp = minimal_polynomial_fq(m.y())
    assert mp == [m.B, -m.A, FqPoly.zero(F7), FqPoly.one(F7)]


def test_minimal_polynomial_of_y_squared_resultant_oracle():
    # Res_Z(Z^3 - A Z + B, T - Z^2) = T^3 - 2A T^2 + A^2 T - B^2
    m = CubicModel(pp("x"), pp("x^3 + x + 1"))
    A, B = m.A, m.B
    mp = minimal_polynomial_fq(m.y() * m.y())
    assert mp[2] == -(A + A)
    assert mp[1] == A * A
    assert mp[0] == -(B * B)


def test_minimal_polynomial_quartic_shift_formula():
    # minimal polynomial of y^2 - A/2 per the alternative-presentation formula
    m = QuarticModel(pp("x"), pp("x + 1"), pp("x^3 + 2"))
    A, B, C = m.A, m.B, m.C
    half = F7.inv(2)
    alpha = m.element(A.scale(F7.neg(half)), None, FqPoly.one(F7), None)
    mp = minimal_polynomial_fq(alpha)
    assert mp[3].is_zero()
    assert mp[2] == -((A * A - C.scale(4)).scale(half))
    assert mp[1] == -(B * B)
    t = A * A.scale(F7.inv(4)) - C
    assert mp[0] == t * t - (A * B * B).scale(half)


def _squared(cs):
    cs = fracs(cs)
    out = [Frac(FqPoly.zero(cs[0].num.field))] * (2 * len(cs) - 1)
    for i, a in enumerate(cs):
        for j, b in enumerate(cs):
            out[i + j] = out[i + j] + a * b
    return out


def _evaluate(mp, alpha):
    """mp(alpha) with OrderElement arithmetic; coefficients enter as constants."""
    m, zero = alpha.model, FqPoly.zero(alpha.model.field)
    acc = OrderElement(m, [zero] * m.degree)
    power = m.element(FqPoly.one(m.field))
    for c in mp:
        acc = acc + OrderElement(m, [c.num] + [zero] * (m.degree - 1), c.den) * power
        power = power * alpha
    return acc


def test_minimal_polynomial_quadratic_subfield_of_biquadratic():
    # y^4 - A y^2 + C: y^2 is a root of T^2 - A T + C, so every element of
    # F_q(x)(y^2) outside F_q(x) has a quadratic minimal polynomial mp, and
    # its characteristic polynomial is mp^2
    m = QuarticModel(pp("x^2 + x"), FqPoly.zero(F7), pp("3*x^6 + x"))
    zero, one = FqPoly.zero(F7), FqPoly.one(F7)
    y2 = m.element(zero, None, one, None)
    elements = [
        y2,
        y2 + m.element(pp("x + 3")),
        m.element(zero, None, pp("x"), None),
        OrderElement(m, [one, zero, pp("2*x"), zero], pp("x^2 + 1")),
    ]
    for alpha in elements:
        mp = minimal_polynomial(alpha)
        assert len(mp) == 3 and mp[2] == Frac.one(F7)
        assert all(c.is_zero() for c in _evaluate(mp, alpha).coords)
        assert _squared(mp) == fracs(char_poly(alpha))
    assert minimal_polynomial(y2)[:2] == [Frac(m.C), Frac(-m.A)]
    # a generator of the whole field keeps its degree 4 characteristic polynomial
    for alpha in (m.y(), m.y() + y2):
        mp = minimal_polynomial(alpha)
        assert len(mp) == 5 and fracs(mp) == fracs(char_poly(alpha))
        assert all(c.is_zero() for c in _evaluate(mp, alpha).coords)


def test_min_poly_constant_term_vs_norm():
    # N(alpha) = ((-1)^3 c0)^1 for generators of a cubic field
    rng = random.Random(4)
    m = CubicModel(pp("x"), pp("x^3 + x + 1"))
    for _ in range(20):
        alpha = m.element(*[rand_poly(rng, F7, 1) for _ in range(3)])
        if alpha.is_constant():
            continue
        mp = minimal_polynomial_fq(alpha)
        assert norm(alpha).as_polynomial() == -mp[0]


def test_minimal_polynomial_of_a_constant_is_t_minus_alpha():
    cubic = CubicModel(pp("x^2"), FqPoly.one(F7))
    quartic = QuarticModel(pp("x"), pp("x^2"), pp("x^5"))
    one = FqPoly.one(F7)
    for m in (cubic, quartic):
        zero = [FqPoly.zero(F7)] * (m.degree - 1)
        # no denominator, and one that cancels: (x + 2)(x + 5) / (3x + 6) = 5x + 4
        for a0, den, value in ((pp("3*x^2 + 1"), None, pp("3*x^2 + 1")),
                               (pp("x^2 + 3"), pp("3*x + 6"), pp("5*x + 4"))):
            alpha = OrderElement(m, [a0] + zero, den)
            assert minimal_polynomial(alpha) == [Frac(-value), Frac(one)]
            assert minimal_polynomial_fq(alpha) == [-value, one]
        # a denominator that stays: T - (x + 1)/x
        alpha = OrderElement(m, [pp("x + 1")] + zero, pp("x"))
        assert minimal_polynomial(alpha) == [Frac(pp("6*x + 6"), pp("x")), Frac(one)]
        with pytest.raises(FuncFieldError, match=r"\(6\*x \+ 6\)/\(x\)"):
            minimal_polynomial_fq(alpha)


def test_non_polynomial_messages_show_the_fraction():
    m = CubicModel(pp("x^2"), FqPoly.one(F7))
    # y/x has minimal polynomial T^3 - T + 1/x^3
    with pytest.raises(FuncFieldError) as err:
        minimal_polynomial_fq(OrderElement(m, [FqPoly.zero(F7), FqPoly.one(F7), FqPoly.zero(F7)], pp("x")))
    assert "(1)/(x^3)" in str(err.value)
    with pytest.raises(ValueError) as err:
        RationalFunction(pp("x + 1"), pp("x^2 + 3")).as_polynomial()
    assert str(err.value) == "(x + 1)/(x^2 + 3) is not a polynomial"


def test_integrality_detection():
    m = CubicModel(pp("x^2"), FqPoly.one(F7))
    assert is_integral(m.y())
    assert not is_integral(OrderElement(m, [FqPoly.zero(F7), FqPoly.one(F7), FqPoly.zero(F7)], FqPoly.x(F7)))


def _is_integral_by_char_poly(alpha):
    """The definition: every characteristic-polynomial coefficient is a polynomial."""
    return all(c.is_polynomial() for c in char_poly(alpha))


def _integrality_models():
    out = []
    for F in (F7, GF(5, 2)):
        # the last two have y^2/x integral: nonconstant denominators that
        # are integral without being cleared
        for A, B in (("x^2", "1"), ("x^2+1", "x^4+x+2"), ("0", "x^3+x^2")):
            out.append(CubicModel(pp(A, F), pp(B, F)))
        for A, B, C in (("x", "x^2+1", "x^3+2"), ("0", "0", "x^3+x^2")):
            out.append(QuarticModel(pp(A, F), pp(B, F), pp(C, F)))
    return out


INTEGRALITY_MODELS = _integrality_models()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_is_integral_matches_char_poly_definition(data):
    m = data.draw(st.sampled_from(INTEGRALITY_MODELS))
    F = m.field
    poly = st.lists(st.integers(0, F.q - 1), max_size=3).map(lambda cs: FqPoly(F, cs))
    coords = [data.draw(poly) for _ in range(m.degree)]
    kind = data.draw(st.sampled_from(["constant", "cleared", "x", "random"]))
    if kind == "constant":
        den = FqPoly(F, [data.draw(st.integers(1, F.q - 1))])
    elif kind == "x":
        den = FqPoly.x(F)
    else:
        den = FqPoly(F, data.draw(st.lists(st.integers(0, F.q - 1), min_size=1, max_size=2)) + [1])
        if kind == "cleared":
            coords = [a * den for a in coords]
    alpha = OrderElement(m, coords, den)
    assert is_integral(alpha) == _is_integral_by_char_poly(alpha)
    if kind in ("constant", "cleared"):
        assert is_integral(alpha)


def test_is_integral_sees_nonconstant_denominators():
    # y^2/x is integral on y^3 = -(x^3 + x^2) and y/x is not
    m = INTEGRALITY_MODELS[2]
    zero, one = FqPoly.zero(F7), FqPoly.one(F7)
    assert is_integral(OrderElement(m, [zero, zero, one], FqPoly.x(F7)))
    assert not is_integral(OrderElement(m, [zero, one, zero], FqPoly.x(F7)))


# -- misc --------------------------------------------------------------------------


def test_pole_divisor_degree():
    assert pole_divisor_degree(CubicModel(pp("x^3"), pp("x"))) == 3
    assert pole_divisor_degree(QuarticModel(pp("x"), pp("x^2"), pp("x^5"))) == 5
    assert pole_divisor_degree(CubicModel(FqPoly.zero(F7), pp("x^2 + 1"))) == 2


def test_model_text_roundtrip():
    m = CubicModel(pp("x^2"), FqPoly.one(F7))
    assert model_from_text(m.text_form()) == m
    qm = QuarticModel(pp("x"), pp("x^2"), pp("x^5"))
    assert model_from_text(qm.text_form()) == qm


# -- irreducibility: the degree-pruned root search against the exhaustive one --


def _roots_exhaustive(f, last, divisors):
    """Does f(T) vanish at some c * d, c a nonzero scalar and d a monic divisor of `last`?"""
    F = last.field
    return any(f(d.scale(c)).is_zero() for d in divisors for c in range(1, F.q))


def _cubic_irreducible_reference(A, B):
    if B.is_zero():
        return False
    return not _roots_exhaustive(lambda r: r ** 3 - A * r + B, B, _monic_divisors(B))


def _quartic_irreducible_reference(A, B, C):
    """No root among all divisors of C, and no (T^2 + uT + v)(T^2 - uT + w) split."""
    if C.is_zero():
        return False
    F = A.field
    divisors = _monic_divisors(C)
    if _roots_exhaustive(lambda r: r ** 4 - A * r * r - B * r + C, C, divisors):
        return False
    if B.is_zero():
        if poly_sqrt(A * A - C.scale(F.from_int(4))) is not None:
            return False
        s = poly_sqrt(C)
        if s is not None:
            for v in (s, -s):
                if poly_sqrt(v.scale(F.from_int(2)) + A) is not None:
                    return False
        return True
    for d in divisors:
        for c in range(1, F.q):
            v = d.scale(c)
            w, r = C.divmod(v)
            if not r.is_zero():
                continue
            u = poly_sqrt(w + v + A)
            if u is not None and any(uu * (w - v) == -B for uu in (u, -u)):
                return False
    return True


# (p, k): the prime fields, and GF(4), GF(8), GF(9), GF(25), GF(11); "pure"
# over GF(5), GF(8) and GF(11) (q = 2 mod 3) has a root at every degree-1
# place, so only the divisor search can decide it
IRREDUCIBILITY_FIELDS = [(5, 1), (7, 1), (13, 1), (2, 2), (2, 3), (3, 2), (5, 2), (11, 1)]


@settings(max_examples=160, deadline=None)
@given(st.sampled_from(IRREDUCIBILITY_FIELDS), st.integers(0, 10 ** 9), st.sampled_from(["random", "root", "pure"]))
def test_cubic_irreducible_pruned_matches_exhaustive(pk, seed, shape):
    rng = random.Random(seed)
    F = GF(*pk)
    A = rand_poly(rng, F, rng.randrange(-1, 4)) if rng.random() < 0.8 and shape != "pure" else FqPoly.zero(F)
    if shape == "root":  # plant a root r: B = A r - r^3
        r = rand_poly(rng, F, rng.randrange(0, 3))
        B = A * r - r ** 3
    else:
        B = rand_poly(rng, F, rng.randrange(0, 5))
    assert _cubic_irreducible(A, B) == _cubic_irreducible_reference(A, B)


def test_cubic_irreducible_certificate_skips_the_divisor_search(monkeypatch):
    import funcfields.models as models_module

    calls = []
    monkeypatch.setattr(models_module, "_monic_divisors", lambda f: calls.append(f) or _monic_divisors(f))
    # T^3 - T + 2 has no root in F_7, so x certifies y^3 - (x + 1) y + x + 2
    assert _cubic_irreducible(pp("x + 1"), pp("x + 2")) and not calls
    # a pure cubic over F_5 has a root at every place: the search decides
    assert _cubic_irreducible(FqPoly.zero(F5), parse_poly(F5, "x^2 + x")) and calls
    # the root x of a reducible cubic reduces to a root at every place
    calls.clear()
    assert not _cubic_irreducible(pp("x + 1"), pp("-x^3 + x^2 + x")) and calls


def test_quartic_irreducible_certificate_skips_the_divisor_search(monkeypatch):
    import funcfields.models as models_module

    calls = []
    monkeypatch.setattr(models_module, "_monic_divisors", lambda f: calls.append(f) or _monic_divisors(f))
    # T^4 - T^2 - 2 T + 3 is irreducible over F_7, so x = 0 certifies
    # y^4 - (x + 1) y^2 - (x + 2) y + x + 3
    assert _quartic_irreducible(pp("x + 1"), pp("x + 2"), pp("x + 3")) and not calls
    # T^4 - c splits over F_7 (q = 3 mod 4) at every c: the search decides
    assert _quartic_irreducible(FqPoly.zero(F7), FqPoly.zero(F7), pp("-x")) and calls
    # (T^2 - 3 - x)(T^2 - 3 + x) reduces to (T^2 - 3)^2 at x = 0, whose
    # factor degrees read [4]; only its repeated factor keeps it from certifying
    assert gp_factor_degrees(F7, list(pp("x^4 - 6*x^2 + 9").coeffs)) == [4]
    calls.clear()
    assert not _quartic_irreducible(pp("6"), FqPoly.zero(F7), pp("-x^2 + 2")) and calls
    # the root x of a reducible quartic reduces to a root at every place
    calls.clear()
    assert not _quartic_irreducible(pp("x + 1"), pp("1"), pp("-x^4 + x^3 + x^2 + x")) and calls


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([5, 7, 13]), st.integers(0, 10 ** 9), st.sampled_from(["random", "root", "split"]))
def test_quartic_irreducible_pruned_matches_exhaustive(q, seed, shape):
    rng = random.Random(seed)
    F = GF(q)
    A = rand_poly(rng, F, rng.randrange(-1, 3)) if rng.random() < 0.8 else FqPoly.zero(F)
    B = rand_poly(rng, F, rng.randrange(-1, 4)) if rng.random() < 0.8 else FqPoly.zero(F)
    if shape == "root":  # plant a root r: C = A r^2 + B r - r^4
        r = rand_poly(rng, F, rng.randrange(0, 2))
        C = A * r * r + B * r - r ** 4
    elif shape == "split":  # (T^2 + uT + v)(T^2 - uT + w) = T^4 - A T^2 - B T + C
        u, v, w = (rand_poly(rng, F, rng.randrange(-1, 2)) for _ in range(3))
        A, B, C = u * u - v - w, u * (v - w), v * w
    else:
        C = rand_poly(rng, F, rng.randrange(0, 4))
    assert _quartic_irreducible(A, B, C) == _quartic_irreducible_reference(A, B, C)


def _trace_reference(alpha):
    """Tr(alpha) as the diagonal sum of the multiplication matrix."""
    rows = multiplication_matrix(alpha)
    t = FqPoly.zero(alpha.model.field)
    for i in range(alpha.model.degree):
        t = t + rows[i][i]
    return Frac(t, alpha.denominator)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(7, 1), (5, 2), (3, 2), (2, 2)]), st.sampled_from([3, 4]), st.integers(0, 10 ** 9))
def test_closed_trace_matches_matrix_diagonal(pk, n, seed):
    # the power-sum identity holds for any A, B, C, so the model checks are skipped
    rng = random.Random(seed)
    F = GF(*pk)
    coeffs = [rand_poly(rng, F, rng.randrange(-1, 4)) for _ in range(n - 1)]
    model = CubicModel(*coeffs, _skip_checks=True) if n == 3 else QuarticModel(*coeffs, _skip_checks=True)
    coords = [rand_poly(rng, F, rng.randrange(-1, 4)) for _ in range(n)]
    den = rand_poly(rng, F, rng.randrange(0, 3)) if rng.random() < 0.5 else None
    if den is not None and den.is_zero():
        den = None
    alpha = OrderElement(model, coords, den)
    assert trace(alpha) == _trace_reference(alpha)
