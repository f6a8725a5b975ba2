"""Model-independence: invariants agree across presentations of one field.

Substituting y -> y + t (or rescaling) gives a different defining equation
for the same function field, usually routed through different rows of the
case tables.  Genus, class number, unit rank, per-place ramification
defects and the discriminant degree ledger must all be unchanged.
"""

import random

import pytest

from funcfields import (
    GF,
    CubicModel,
    FqPoly,
    QuarticModel,
    ZetaData,
    exact_h,
    field_discriminant,
    genus,
    minimal_polynomial_fq,
    parse_poly,
    unit_rank,
)
from funcfields.models import OrderElement, reduce_coeffs
from funcfields.poly import FuncFieldError, HypothesisRefused, UnknownSignature


def _shifted_cubic(model, t):
    """Model of y + t for polynomial t (same field, different table rows)."""
    alpha = OrderElement(model, [t, FqPoly.one(model.field), FqPoly.zero(model.field)])
    mp = minimal_polynomial_fq(alpha)
    # T^3 + c2 T^2 + c1 T + c0 with c2 = -3t; depress by the cubic shift
    F = model.field
    third = F.inv(F.from_int(3))
    shift = mp[2].scale(F.neg(third))
    from funcfields.models import _binom_shift

    comp = _binom_shift(list(mp), shift)
    assert comp[2].is_zero()
    A2, B2, _ = reduce_coeffs(-comp[1], comp[0])
    return CubicModel(A2, B2)


def _shifted_quartic(model, t):
    zero = FqPoly.zero(model.field)
    alpha = OrderElement(model, [t, FqPoly.one(model.field), zero, zero])
    mp = minimal_polynomial_fq(alpha)
    F = model.field
    quarter = F.inv(F.from_int(4))
    shift = mp[3].scale(F.neg(quarter))
    from funcfields.models import _binom_shift

    comp = _binom_shift(list(mp), shift)
    assert comp[3].is_zero()
    A2, B2, C2, _ = reduce_coeffs(-comp[2], -comp[1], comp[0])
    return QuarticModel(A2, B2, C2)


def _full_data(model):
    rep = field_discriminant(model)
    rep.require_complete()
    g = genus(model, rep).genus
    r = unit_rank(model)
    if g > 4:
        return g, r, rep.Delta.degree, None
    h = exact_h(model, genus_value=g).h
    return g, r, rep.Delta.degree, h


def test_cubic_invariants_survive_generator_shift():
    rng = random.Random(31415)
    F7 = GF(7)
    checked = 0
    while checked < 12:
        A = FqPoly(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 4))])
        B = FqPoly(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 5))])
        try:
            m = CubicModel(A, B)
            base = _full_data(m)
        except (FuncFieldError, HypothesisRefused, UnknownSignature):
            continue
        t = FqPoly(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 3))])
        m2 = _shifted_cubic(m, t)
        try:
            other = _full_data(m2)
        except (HypothesisRefused, UnknownSignature):
            continue
        assert base == other, (m, m2, base, other)
        checked += 1


def test_cubic_invariants_survive_rescaling():
    rng = random.Random(2718)
    F5 = GF(5)
    checked = 0
    while checked < 8:
        A = FqPoly(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 3))])
        B = FqPoly(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 5))])
        try:
            m = CubicModel(A, B)
            base = _full_data(m)
        except (FuncFieldError, HypothesisRefused, UnknownSignature):
            continue
        # y -> y / Q for a random nonconstant Q scales (A, B) to (A Q^2, B Q^3)
        Q = FqPoly(F5, [rng.randrange(5), 1])
        A2, B2, _ = reduce_coeffs(m.A * Q * Q, m.B * Q ** 3)
        m2 = CubicModel(A2, B2)
        try:
            other = _full_data(m2)
        except (HypothesisRefused, UnknownSignature):
            continue
        assert base == other, (m, m2, base, other)
        checked += 1


def test_quartic_invariants_survive_generator_shift():
    rng = random.Random(1618)
    F7 = GF(7)
    checked = 0
    attempts = 0
    while checked < 8 and attempts < 3000:
        attempts += 1
        A = FqPoly(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 3))])
        B = FqPoly(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 3))])
        C = FqPoly(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 4))])
        try:
            m = QuarticModel(A, B, C)
            base = _full_data(m)
        except (FuncFieldError, HypothesisRefused, UnknownSignature):
            continue
        t = FqPoly(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 3))])
        try:
            m2 = _shifted_quartic(m, t)
            other = _full_data(m2)
        except (FuncFieldError, HypothesisRefused, UnknownSignature):
            continue
        assert base == other, (m, m2, base, other)
        checked += 1
    assert checked >= 5


def test_unit_rank2_family_h_consistent_with_regulator():
    # h = (R / f) h' with h' integral: for the rank-2 family R = 3, f = 1,
    # so the exact class number must be divisible by 3
    from funcfields.units import construct_rank2
    from oracles import h_prime

    F7 = GF(7)
    model, cert = construct_rank2(F7, FqPoly.x(F7))
    h = exact_h(model).h
    hp = h_prime(h, cert.regulator_R, 1)
    assert hp * cert.regulator_R == h
    assert h % 3 == 0


def test_rank1_family_h_consistent_with_regulator():
    from funcfields.units import construct_rank1
    from oracles import h_prime

    F7 = GF(7)
    model, cert = construct_rank1(F7, parse_poly(F7, "x^3"), FqPoly.x(F7), 1, "Thm245")
    h = exact_h(model).h
    hp = h_prime(h, cert.regulator_R, 1)
    assert hp >= 1 and hp * cert.regulator_R == h


# -- base change: L_{q^2}(t^2) = L_q(t) L_q(-t) -------------------------------------

# Coefficient lists (constant term first) of A, B for cubics y^3 - A y + B and
# A, B, C for quartics.  The integers below p encode the same elements of F_p
# in GF(p) and in GF(p, 2), so each model is read once over each field.
# The demo models over GF(7) come first, then the prime-field models of the
# benchmark's seed-1 zeta corpus (perfbench/workloads.py) with (p^2)^g <= 2^16
# whose places up to degree g are decided over both fields.
BASE_CHANGE_MODELS = [
    (7, ((0, 0, 1), (1,))),  # y^3 - x^2 y + 1
    (7, ((), (0, 6, 6))),  # y^3 = x^2 + x
    (7, ((0, 1), (1,), (0, 0, 1))),  # y^4 - x y^2 - y + x^2
    (7, ((0, 1), (0, 1), (0, 1))),  # y^4 - x y^2 - x y + x, genus 0
    (7, ((0, 0, 1), (6,))),  # y^3 - x^2 y - 1, the rank-2 unit family with A = x
    (7, ((), (6, 5, 1, 2))),
    (7, ((), (6, 2, 2))),
    (7, ((4, 1), (4, 3, 4))),
    (7, ((3, 3), (0, 0, 5))),
    (7, ((2, 3), (), (2, 0, 1, 4))),
    (7, ((1, 5, 1), (), (2, 2))),
    (7, ((5, 6, 2), (), (0, 2, 6, 3, 2))),
    (11, ((), (7, 4, 9))),
    (11, ((), (9, 7, 6))),
    (11, ((8, 4, 1), (8, 7, 2))),
    (11, ((2,), (), (1, 8, 2, 7))),
    (11, ((7,), (), (4, 1, 3, 5))),
    (11, ((2, 6, 10), (), (2, 10, 9))),
    (11, ((2, 4), (), (9, 4, 2, 3, 4))),
    (13, ((), (3, 3, 6))),
    (13, ((), (5, 12, 7))),
    (13, ((8, 11), (5, 3, 10))),
    (13, ((0, 2, 3), (1, 11, 4, 6))),
    (13, ((7, 1), (), (8, 8, 1))),
    (13, ((6, 1), (), (8, 8, 1))),
    (13, ((8,), (), (0, 4, 7))),
    (13, ((11,), (), (7, 7, 9, 7, 9))),
    (13, ((4, 7), (), (0, 0, 11, 1, 2))),
    (13, ((9,), (), (0, 0, 0, 6, 11))),
]


@pytest.mark.parametrize("p, coeffs", BASE_CHANGE_MODELS)
def test_base_change_to_the_quadratic_extension(p, coeffs):
    # Stichtenoth, Algebraic Function Fields and Codes, ch. 5: the constant field
    # extension of degree 2 has L_{q^2}(t^2) = L_q(t) L_q(-t).  Over GF(p, 2) the
    # places, residue towers and case branches are all different ones.
    L = {}
    for F in (GF(p), GF(p, 2)):
        polys = [FqPoly(F, cs) for cs in coeffs]
        model = CubicModel(*polys) if len(polys) == 2 else QuarticModel(*polys)
        L[F.q] = exact_h(model).L.coeffs
    Lq = L[p]
    square = [0] * (2 * len(Lq) - 1)
    for i, a in enumerate(Lq):
        for j, b in enumerate(Lq):
            square[i + j] += a * b * (-1) ** j
    assert square[1::2] == [0] * (len(Lq) - 1)
    assert square[::2] == L[p * p]
