"""Maximum values, unit constructions and regulators."""

import random
from fractions import Fraction

import pytest

from funcfields import (
    GF,
    CubicModel,
    FqPoly,
    construct_rank1,
    construct_rank2,
    max_value,
    norm_cubic,
    parse_poly,
    regulator,
)
from funcfields.poly import HypothesisRefused
from oracles import is_unit

F5 = GF(5)
F7 = GF(7)
F11 = GF(11)


def pp(s, F=F7):
    return parse_poly(F, s)


# -- maximum value --------------------------------------------------------------


def test_max_value_of_y_high_A():
    # 3n1 > 2n0, n1 even: y_max = n1/2
    m = CubicModel(pp("x^2"), FqPoly.one(F7))
    assert max_value(m, m.y()).value == 1


def test_max_value_constant_is_zero():
    m = CubicModel(pp("x^2"), FqPoly.one(F7))
    mv = max_value(m, m.element(FqPoly.const(F7, 3)))
    assert mv.value == 0 and mv.unique


def test_max_value_refuses_balanced_degrees():
    m = CubicModel(pp("x^2 + 1"), pp("x^3"))
    with pytest.raises(HypothesisRefused):
        max_value(m, m.y())


def test_max_value_scaling_with_odd_ramification():
    # 3n1 > 2n0 with n1 odd: e = 2 doubles the value
    m = CubicModel(pp("x^3"), pp("x"))
    assert max_value(m, m.y()).value == 3  # 2 * (3/2)


def test_max_value_additivity_on_certificate_units():
    model, cert = construct_rank2(F7, FqPoly.x(F7))
    for eps in cert.units:
        base = max_value(model, eps).value
        for k in range(2, 7):
            assert max_value(model, eps ** k).value == k * base


def test_max_value_submultiplicative():
    model, cert = construct_rank2(F7, FqPoly.x(F7))
    rng = random.Random(3)
    units = []
    e1, e2 = cert.units
    for _ in range(40):
        k1, k2 = rng.randrange(3), rng.randrange(3)
        u = (e1 ** (k1 + 1)) * (e2 ** (k2 + 1))
        units.append(u)
    for a in units[:10]:
        for b in units[:10]:
            assert max_value(model, a * b).value <= max_value(model, a).value + max_value(model, b).value


# -- unit detection ---------------------------------------------------------------


def test_is_unit_examples():
    model, _ = construct_rank2(F7, FqPoly.x(F7))
    assert is_unit(model, model.y())
    assert norm_cubic(model.y()).degree == 0
    assert is_unit(model, model.element(FqPoly.x(F7), FqPoly.one(F7)))  # A + y
    generic = CubicModel(pp("x"), pp("x^3 + x + 1"))
    assert not is_unit(generic, generic.y())  # N(y) = -B nonconstant


# -- rank-1 constructions ------------------------------------------------------------


def test_thm245a_regulator_is_n1():
    model, cert = construct_rank1(F7, pp("x^3"), pp("x"), 1, "Thm245")
    assert cert.construction == "Thm245a"
    assert cert.rank == 1
    assert cert.regulator_R == Fraction(3)
    assert cert.regulator_RSq == Fraction(3)
    eps = cert.units[0]
    assert norm_cubic(eps).degree == 0


def test_thm245b_regulator_is_half_n1():
    model, cert = construct_rank1(F7, pp("3*x^2"), FqPoly.one(F7), 1, "Thm245")
    assert cert.construction == "Thm245b"
    assert cert.regulator_R == Fraction(1)
    assert cert.regulator_RSq == Fraction(2)  # f-scaled


def test_thm245_refusals():
    with pytest.raises(HypothesisRefused):
        construct_rank1(F7, pp("x^3"), pp("x^2"), 1, "Thm245")  # deg a >= n1/2
    with pytest.raises(HypothesisRefused):
        construct_rank1(F7, pp("x^2"), FqPoly.one(F7), 1, "Thm245")  # sgn square for even deg
    with pytest.raises(HypothesisRefused):
        construct_rank1(GF(3), parse_poly(GF(3), "x^3"), parse_poly(GF(3), "x"), 1, "Thm245")


def test_thm246_runtime_checked_construction():
    model, cert = construct_rank1(F11, parse_poly(F11, "x"), parse_poly(F11, "x^2"), 1, "Thm246")
    assert cert.construction == "Thm246"
    assert cert.rank == 1
    assert cert.regulator_R > 0
    # no closed regulator form is asserted for this family
    assert "q=-1-mod-3" in cert.hypotheses


def test_thm246_requires_q_mod_3():
    with pytest.raises(HypothesisRefused):
        construct_rank1(F7, pp("x"), pp("x^2"), 1, "Thm246")


# -- rank-2 construction ------------------------------------------------------------


def test_thm247_certificate():
    model, cert = construct_rank2(F7, FqPoly.x(F7))
    assert cert.construction == "Thm247"
    assert cert.rank == 2
    n1 = 2
    assert Fraction(n1, 2) <= cert.regulator_R <= Fraction(3 * n1 * n1, 4)
    assert cert.hypotheses["no-intermediate-unit"]
    for eps in cert.units:
        assert norm_cubic(eps).degree == 0


def test_thm247_refuses_non_squarefree_D():
    # A = x^2 + 7 over F_11: x^2 divides 4A^6 - 27, so D is not squarefree
    from funcfields.poly import is_squarefree

    A = parse_poly(F11, "x^2 + 7")
    D = FqPoly.const(F11, F11.from_int(4)) * A ** 6 - FqPoly.const(F11, F11.from_int(27))
    assert not is_squarefree(D)
    with pytest.raises(HypothesisRefused):
        construct_rank2(F11, A)


def test_thm247_search_space_scales():
    # deg A = 2 forces an exhaustive intermediate-unit search over deg b = 1
    model, cert = construct_rank2(F5, parse_poly(F5, "x^2"))
    assert cert.rank == 2


# -- regulator machinery ----------------------------------------------------------------


def test_regulator_rank0():
    m = CubicModel(pp("x"), pp("x^2 + x"))
    R, RS = regulator(m, [])
    assert R == 1 and RS == 1


def test_regulator_rejects_dependent_units():
    model, cert = construct_rank2(F7, FqPoly.x(F7))
    e1 = cert.units[0]
    with pytest.raises(Exception):
        regulator(model, [e1, e1])


def test_unit_degree_zero_divisor():
    # certificate units have sum of f * v over infinite places equal to 0
    from funcfields import InfinitePlace, element_valuations

    model, cert = construct_rank2(F7, FqPoly.x(F7))
    place = InfinitePlace(F7)
    for eps in cert.units:
        assigns, sig = element_valuations(model, eps, place)
        fs = [f for _, f in sig.pairs]
        assert any(sum(f * v for f, v in zip(fs, a)) == 0 for a in assigns)
