"""Discriminant valuations, field discriminant ledger, genus, unit rank."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import funcfields.invariants as invariants_module
import funcfields.signature as signature_module
from funcfields import (
    GF,
    CubicModel,
    FinitePlace,
    FqPoly,
    QuarticModel,
    disc_valuation_cubic,
    disc_valuation_quartic,
    field_discriminant,
    genus,
    monic_irreducibles,
    parse_poly,
    unit_rank,
)
from funcfields.poly import FuncFieldError, HypothesisRefused, InternalFault, UnknownSignature, factorize
from funcfields.units import construct_rank2

F3 = GF(3)
F5 = GF(5)
F7 = GF(7)
CHAR2_FIELDS = (GF(2), GF(2, 2), GF(2, 3))
CHAR3_FIELDS = (F3, GF(3, 2))


def pp(s, F=F7):
    return parse_poly(F, s)


# -- cubic discriminant valuations (Llorente-Nart style criterion) -----------------


def test_cubic_disc_valuation_both_divisible():
    X = pp("x")
    m = CubicModel(X, X)  # v_x(A) = v_x(B) = 1
    assert disc_valuation_cubic(m, X) == 2


def test_cubic_disc_valuation_odd_vD():
    X = pp("x")
    m = CubicModel(X, pp("x^2"))  # v(D) = v(4x^3 - 27x^4) = 3
    assert disc_valuation_cubic(m, X) == 1


def test_cubic_disc_valuation_even_vD_unramified():
    # m1 = m0 = 0, v_P(D) even > 0 somewhere
    rng = random.Random(3)
    hits = 0
    while hits < 3:
        A = FqPoly(F7, [rng.randrange(7) for _ in range(3)])
        B = FqPoly(F7, [rng.randrange(7) for _ in range(4)])
        try:
            m = CubicModel(A, B)
        except Exception:
            continue
        D = m.discriminant()
        for P in monic_irreducibles(F7, 1):
            v = FinitePlace(P).val(D)
            if v > 0 and v % 2 == 0 and not (A % P).is_zero() and not (B % P).is_zero():
                val = disc_valuation_cubic(m, P)
                assert val in (0, 2) and val == (0 if True else 2)
                # v_P(A) v_P(B) = 0 here, so the criterion gives 0
                assert val == 0
                hits += 1


def _cubic_case_table(model, place):
    """v_P(Delta) for p >= 5 from v_P(A), v_P(B) and the parity of v_P(D).

    A case table independent of the signature: the reference the library's
    defect rule is compared against.
    """
    A, B = model.A, model.B
    m1 = None if A.is_zero() else int(place.val(A))
    m0 = int(place.val(B))
    if m0 >= 1 and (m1 is None or m1 >= m0):
        return 2
    if int(place.val(model.discriminant())) % 2:
        return 1
    if m0 == 0 or m1 == 0:
        return 0
    # v_P(D) even with P | A, P | B and v(A) < v(B): standard form makes
    # v(A) = 1 and then v(D) = 3, so this is unreachable
    raise InternalFault("cubic discriminant case analysis fell through")


@pytest.mark.parametrize("p, k", [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (7, 2)])
def test_cubic_defect_rule_matches_case_table(p, k):
    F = GF(p, k)
    rng = random.Random(p * 10 + k)
    L = FqPoly.x(F)
    values = []
    models = 0
    while models < 40:
        # a shared factor x^a, x^b makes P | A, P | B common enough to reach every row
        A = FqPoly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 5))]) * L ** rng.randrange(3)
        B = FqPoly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 6))]) * L ** rng.randrange(3)
        if models % 4 == 3:
            # T^3 - 3t^2 T + 2t^3 = (T - t)^2 (T + 2t); x^2 added to B keeps x
            # out of A and B and gives v_x(D) = 2, the even unramified row
            t = FqPoly(F, [1, rng.randrange(F.q)])
            A = (t * t).scale(F.from_int(3))
            B = (t ** 3).scale(F.from_int(2)) + L * L * FqPoly.const(F, rng.randrange(1, F.q))
        try:
            m = CubicModel(A, B)
        except FuncFieldError:
            continue
        models += 1
        for P, _ in factorize(m.discriminant()):
            place = FinitePlace(P)
            expected = _cubic_case_table(m, place)
            assert disc_valuation_cubic(m, place) == expected, (m, P)
            values.append(expected)
    assert set(values) == {0, 1, 2}


def test_field_discriminant_squarefree_D():
    m = CubicModel(pp("x^2"), FqPoly.one(F7))
    rep = field_discriminant(m)
    assert rep.complete
    assert rep.Delta == m.discriminant().monic()
    assert rep.index == FqPoly.one(F7)


def test_field_discriminant_ledger_identities():
    rng = random.Random(17)
    checked = 0
    while checked < 25:
        A = FqPoly(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 4))])
        B = FqPoly(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 5))])
        try:
            m = CubicModel(A, B)
        except Exception:
            continue
        rep = field_discriminant(m)  # internally asserts v(D) = 2v(I) + v(Delta)
        assert rep.complete
        assert rep.D.degree == 2 * rep.index.degree + rep.Delta.degree
        prod = rep.index * rep.index * rep.Delta
        assert (rep.D % prod).is_zero()
        checked += 1


def test_prop_241_shape_gives_constant_index():
    # D = D1 D2^2 with D2 | B forces I constant; Thm 2.4.7 models satisfy it
    model, _ = construct_rank2(F7, FqPoly.x(F7))
    rep = field_discriminant(model)
    assert rep.index.degree == 0


def test_char2_discriminant_cases():
    for F in CHAR2_FIELDS:
        X = parse_poly(F, "x")
        # case 1: 3 v(A) > 2 v(B), v(B) = 1 -> v(Delta) = 2, v(I) = 0
        m = CubicModel(parse_poly(F, "x"), parse_poly(F, "x"))
        rep = field_discriminant(m)
        assert rep.complete
        row = [r for r in rep.rows if r.P == X][0]
        assert row.vDelta == 2 and row.vI == 0
        # v(B) = 2 in case 1 gives v(I) = 1 (the relation B^2 = I^2 Delta forces it)
        m2 = CubicModel(parse_poly(F, "x^3 + x^2"), parse_poly(F, "x^2"))
        rep2 = field_discriminant(m2)
        assert rep2.complete
        row2 = [r for r in rep2.rows if r.P == X][0]
        assert (row2.vD, row2.vI, row2.vDelta) == (4, 1, 2)


def test_char2_case22_square_test():
    # v_x(B) = 2, v_x(A) = 0: v(I) = 1 iff A is a square mod x^2; squares mod
    # x^2 in characteristic 2 are the constants, so A = x^2 + x + 1 gives
    # v(I) = 0 and A = x^3 + x^2 + 1 gives v(I) = 1
    for F in CHAR2_FIELDS:
        for A, vI in (("x^2 + x + 1", 0), ("x^3 + x^2 + 1", 1)):
            rep = field_discriminant(CubicModel(parse_poly(F, A), parse_poly(F, "x^2")))
            assert rep.complete
            row = [r for r in rep.rows if r.P == parse_poly(F, "x")][0]
            assert not row.tame
            assert (row.vD, row.vI, row.vDelta) == (4, vI, 4 - 2 * vI)


def test_char3_discriminant_requires_A_cubefree():
    for F in CHAR3_FIELDS:
        m = CubicModel(parse_poly(F, "x"), parse_poly(F, "x^3 + 2*x + 1"))
        rep = field_discriminant(m)
        assert rep.complete
        with pytest.raises(HypothesisRefused, match="A-nonzero"):
            field_discriminant(CubicModel(FqPoly.zero(F), parse_poly(F, "x^2 + 1"), _skip_checks=True))
        with pytest.raises(HypothesisRefused, match="A-cubefree"):
            field_discriminant(CubicModel(parse_poly(F, "x^3"), parse_poly(F, "x + 1"), _skip_checks=True))


def test_char3_case_22_cube_test():
    # v_P(A) = 2, v_P(B) = 0 at P = x: v(I) = 1 iff -B is a cube mod P^2, and
    # cubes mod x^2 in characteristic 3 are the constants
    for F in CHAR3_FIELDS:
        for B, vI in (("x^3 + 2*x + 1", 0), ("x^2 + 1", 1)):
            rep = field_discriminant(CubicModel(parse_poly(F, "x^2"), parse_poly(F, B)))
            assert rep.complete
            (row,) = rep.rows
            assert not row.tame
            assert (row.vD, row.vI, row.vDelta) == (6, vI, 6 - 2 * vI)


@pytest.mark.parametrize("p, A, B", [(2, "x^2 + x + 1", "x^3 + x^2"), (3, "x^2 + x", "x^3 + 2*x + 1")])
def test_field_discriminant_one_signature_per_place(monkeypatch, p, A, B):
    # each has a wild and a tame place over D
    F = GF(p)
    m = CubicModel(parse_poly(F, A), parse_poly(F, B))
    real = invariants_module.signature_at
    calls = []

    def counted(model, place):
        calls.append(place.P)
        return real(model, place)

    monkeypatch.setattr(invariants_module, "signature_at", counted)
    rep = field_discriminant(m)
    assert sorted(r.tame for r in rep.rows) == [False, True]
    assert sorted(map(str, calls)) == sorted(str(P) for P, _ in factorize(m.discriminant()))


# -- quartic discriminant valuations ------------------------------------------------


def test_quartic_disc_valuation_totally_ramified():
    X = pp("x")
    m = QuarticModel(pp("x^2 + x"), pp("x + x^2"), pp("x + x^3"))
    assert disc_valuation_quartic(m, X) == 3  # (4,1) tame defect


def test_quartic_disc_valuation_biquadratic_case21():
    zero = FqPoly.zero(F7)
    # v_P(A^2 - 4C) odd at a place with m2 = m0 = 0 gives v(Delta) = 2
    A = pp("x + 1")
    C = (A * A - pp("x")).scale(F7.inv(4))  # A^2 - 4C = x
    m = QuarticModel(A, zero, C)
    assert disc_valuation_quartic(m, pp("x")) == 2


def test_quartic_disc_valuation_leftover_parity():
    m = QuarticModel(pp("x"), pp("1"), pp("x^2"))
    D = m.discriminant()
    for P, mult in [(P, FinitePlace(P).val(D)) for P in monic_irreducibles(F7, 1)]:
        if mult:
            v = disc_valuation_quartic(m, P)
            assert 0 <= v <= mult


# -- genus ---------------------------------------------------------------------------


def test_genus_purely_cubic_formula():
    # y^3 = B, squarefree, 3 does not divide deg B: g = deg B - 1
    for Btxt in ("x^2 + x", "x^2 + 1", "x^4 + x + 1"):
        B = pp(Btxt)
        m = CubicModel(FqPoly.zero(F7), -B)
        assert genus(m).genus == B.degree - 1


def test_genus_rational_degenerate():
    m = CubicModel(FqPoly.zero(F7), -pp("x"))
    assert genus(m).genus == 0


def test_genus_rank2_family_closed_form():
    # Thm 2.4.7 models: g = 3 n1/2 - 2 with n1 = 2 deg A
    model, _ = construct_rank2(F7, FqPoly.x(F7))
    assert genus(model).genus == 3 * 2 // 2 - 2 == 1


def test_genus_refuses_wild_infinite_place():
    F2 = GF(2)
    m = CubicModel(parse_poly(F2, "x^3"), parse_poly(F2, "x"))  # (1,1,2,1) wild at infinity
    with pytest.raises(UnknownSignature):
        genus(m)


# -- genus from the squarefull part of D ---------------------------------------------

# The zeta and ledger corpora of the benchmark (perfbench/workloads.py) on seeds
# 1, 2 and 20261017: [workload, seed, p, k, coefficient lists of A, B (, C)].
CORPUS = json.loads((Path(__file__).parent / "data" / "genus_corpus.json").read_text())["models"]


def _outcome(run):
    try:
        return run()
    except FuncFieldError as exc:
        return type(exc), str(exc)


def _assert_genus_is_the_ledgers(model):
    # genus(model) factors and signs only the places with v_P(D) >= 2.  The
    # ledger decides every place with v_P(D) = 1 as well (a cubic in
    # characteristic >= 5 has u(A) = u(B) = 0 and an odd offset there, the
    # quartic falls back on v_P(D) < 2, and a wild cubic has none), so the
    # two agree in value or in refusal, reason and listed places included.
    assert _outcome(lambda: genus(model)) == _outcome(lambda: genus(model, field_discriminant(model)))


@pytest.mark.parametrize("workload", ["zeta", "ledger"])
@pytest.mark.parametrize("seed", [1, 2, 20261017])
def test_genus_from_the_squarefull_part_matches_the_ledger_on_the_corpora(monkeypatch, workload, seed):
    monkeypatch.setattr(signature_module, "SELF_CHECK", False)  # genus would run the comparison itself
    rows = [r for r in CORPUS if r[:2] == [workload, seed]]
    assert len(rows) == (97 if workload == "zeta" else 42)
    for _, _, p, k, coeffs in rows:
        F = GF(p, k)
        polys = [FqPoly(F, cs) for cs in coeffs]
        _assert_genus_is_the_ledgers(CubicModel(*polys) if len(polys) == 2 else QuarticModel(*polys))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_genus_from_the_squarefull_part_matches_the_ledger_on_square_factors(data):
    # every coefficient carries S^e, so v_S(D) >= 2; the cofactor of D adds
    # places of every multiplicity.  Quartics need characteristic >= 5 (in
    # characteristic 3 their discriminant refuses before any place).
    p, k = data.draw(st.sampled_from([(2, 2), (3, 2), (7, 1), (13, 1), (5, 2)]))
    F = GF(p, k)

    def poly(lo, hi, monic=False):
        low = data.draw(st.lists(st.integers(0, F.q - 1), min_size=lo, max_size=hi))
        return FqPoly(F, low + [1 if monic else data.draw(st.integers(1, F.q - 1))])

    S, e = poly(1, 2, monic=True), data.draw(st.integers(1, 2))
    quartic = p >= 5 and data.draw(st.booleans())
    cofactors = [poly(0, 2), poly(0, 3)] + ([poly(0, 3)] if quartic else [])
    if not quartic and p != 3 and data.draw(st.booleans()):
        cofactors[0] = FqPoly.zero(F)  # y^3 = -B
    coeffs = [S ** e * c for c in cofactors]
    try:
        model = QuarticModel(*coeffs) if quartic else CubicModel(*coeffs)
    except FuncFieldError:
        return
    _assert_genus_is_the_ledgers(model)


# -- unit rank -----------------------------------------------------------------------


def test_unit_rank_examples():
    assert unit_rank(CubicModel(pp("x"), pp("x^2 + x"))) == 0  # (3,1)
    assert unit_rank(CubicModel(pp("x^3"), pp("x"))) == 1  # (1,1,2,1)
    model, _ = construct_rank2(F7, FqPoly.x(F7))
    assert unit_rank(model) == 2
