"""Quartic discriminant ledger: Dedekind's index test runs only where P^2 | D.

D = ind(y)^2 Delta gives v_P(D) = 2 v_P(I) + v_P(Delta), so v_P(D) <= 1
forces v_P(I) = 0 and `disc_valuation_quartic` returns v_P(D) there without
running the criterion.  The oracles below run the criterion anyway: at every
place with v_P(D) = 1 it must find P coprime to the index, and a reference
ledger that runs it at every Unknown place must give the same rows.  The
criterion itself, which takes g-bar and h-bar from gcd(f-bar, f-bar'), is
checked against its statement from the factors of f-bar over k(P).
"""

import random

import pytest

from funcfields import GF, FinitePlace, FqPoly, QuarticModel, factorize, field_discriminant, parse_poly
from funcfields import invariants
from funcfields.fq import digits
from funcfields.invariants import dedekind_index_coprime, disc_valuation_quartic
from funcfields.poly import FuncFieldError, gp_roots
from funcfields.signature import signature_at

# Quartics of the benchmark's ledger corpus (coefficient degrees 2/3/3).
# Each has Unknown places with v_P(D) = 1; the GF(7) one also an Unknown
# place with v_P(D) = 2 where P divides ind(y), the GF(11) one an Unknown
# place with v_P(D) = 2 where it does not.
MODELS = {
    7: ("x^2 + 4*x + 2", "6*x^3 + 2*x^2 + 2*x + 1", "4*x^3 + 2*x^2 + 4"),
    11: ("8*x^2 + 3*x + 5", "2*x^3 + 10*x^2 + 8*x + 1", "3*x^3 + x^2 + x + 2"),
    13: ("2*x^2 + 5", "8*x^3 + 11*x^2 + 9*x + 7", "9*x^3 + 6*x^2 + 8*x + 5"),
}
# the Unknown place with v_P(D) = 2, and whether P is coprime to ind(y) there
INDEX_PLACES = {7: ("x + 6", False), 11: ("x + 9", True), 13: None}


def _model(q):
    F = GF(q)
    return QuarticModel(*(parse_poly(F, c) for c in MODELS[q]))


def _reference_ledger(model):
    """(P, vD, vI, vDelta, signature) per place over D, Dedekind at every Unknown place."""
    rows = []
    for P, vD in factorize(model.discriminant()):
        place = FinitePlace(P)
        sig = signature_at(model, place)
        if sig.known:
            vDelta = sig.require().ramification_defect()
        elif dedekind_index_coprime(model, place):
            vDelta = vD
        else:
            assert vD <= 3
            vDelta = vD - 2
        rows.append((P, vD, (vD - vDelta) // 2, vDelta, sig.to_json()))
    return rows


@pytest.mark.parametrize("q", sorted(MODELS))
def test_dedekind_finds_no_index_where_v_D_is_one(q):
    m = _model(q)
    simple = [P for P, vD in factorize(m.discriminant()) if vD == 1]
    assert simple
    for P in simple:
        assert dedekind_index_coprime(m, FinitePlace(P))


@pytest.mark.parametrize("q", sorted(MODELS))
def test_ledger_rows_match_dedekind_everywhere(q):
    m = _model(q)
    rep = field_discriminant(m)
    assert rep.complete
    got = [(r.P, r.vD, r.vI, r.vDelta, r.signature.to_json()) for r in rep.rows]
    assert got == _reference_ledger(m)
    for P, _, _, vDelta, _ in got:
        assert disc_valuation_quartic(m, P) == vDelta


@pytest.mark.parametrize("q", sorted(MODELS))
def test_dedekind_runs_exactly_at_unknown_places_over_P_squared(q, monkeypatch):
    m = _model(q)
    D = m.discriminant()
    calls = []

    def recording(model, place):
        answer = dedekind_index_coprime(model, place)
        calls.append((place.P, answer))
        return answer

    monkeypatch.setattr(invariants, "dedekind_index_coprime", recording)
    field_discriminant(m)
    unknown_simple = 0
    expected = []
    for P, vD in factorize(D):
        if signature_at(m, FinitePlace(P)).known:
            continue
        if vD >= 2:
            expected.append(P)
        else:
            unknown_simple += 1
    assert unknown_simple > 0  # places the shortcut skips
    assert [P for P, _ in calls] == expected
    if INDEX_PLACES[q] is None:
        assert calls == []
    else:
        P, coprime = INDEX_PLACES[q]
        assert calls == [(parse_poly(GF(q), P), coprime)]


def _coprime_by_factors(model, P):
    """Dedekind's criterion as stated: factor f-bar over k(P) = GF(p, deg P), lift each factor.

    f-bar = prod g_i^{e_i}; with g = prod G_i and h = prod G_i^{e_i - 1}
    for lifts G_i, P is coprime to ind(y) exactly when no g_i with e_i >= 2
    divides ((g h - f)/P) mod P.  k(P) is E = GF(p, d) through x -> alpha,
    alpha a root of P, and a residue lifts through a table of all q^d
    polynomials of degree < d.
    """
    F, d = model.field, int(P.degree)
    E = GF(F.p, d)
    alpha = gp_roots(E, list(P.coeffs))[0]  # F_p encodes the same in E

    def at_alpha(c):
        return FqPoly(E, c.coeffs).evaluate(alpha)

    lift = {}
    for idx in range(F.q ** d):
        r = FqPoly(F, digits(idx, F.q, d))
        lift[at_alpha(r)] = r
    fc = model.defining_coeffs() + [FqPoly.one(F)]
    factors = list(factorize(FqPoly(E, [at_alpha(c) for c in fc])))
    g = h = [FqPoly.one(F)]
    for gi, ei in factors:
        Gi = [lift[c] for c in gi.coeffs]
        g = _mul(g, Gi)
        for _ in range(ei - 1):
            h = _mul(h, Gi)
    t = [at_alpha((a - b).exact_div(P)) for a, b in zip(_mul(g, h), fc)]
    tbar = FqPoly(E, t)
    return not any((tbar % gi).is_zero() for gi, ei in factors if ei >= 2)


def _mul(a, b):
    out = [FqPoly.zero(a[0].field)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def _seeded_quartics(q, count):
    F, rng = GF(q), random.Random(q)
    out = []
    while len(out) < count:
        A, B, C = (FqPoly(F, [rng.randrange(q) for _ in range(d + 1)]) for d in (2, 3, 3))
        try:
            out.append(QuarticModel(A, B, C))
        except (FuncFieldError, ValueError):
            continue
    return out


def test_dedekind_matches_the_criterion_from_factors():
    answers = []
    for q in (5, 7, 11, 13):
        for m in _seeded_quartics(q, 25):
            for P, vD in factorize(m.discriminant()):
                if vD >= 2:
                    got = dedekind_index_coprime(m, FinitePlace(P))
                    assert got == _coprime_by_factors(m, P), (m.text_form(), P)
                    answers.append((q, int(P.degree), got))
    assert {got for _, _, got in answers} == {True, False}
    assert any(d >= 2 for _, d, _ in answers)


def test_dedekind_refuses_characteristic_at_most_the_degree():
    F = GF(3)
    m = QuarticModel(parse_poly(F, "x"), parse_poly(F, "x + 1"), parse_poly(F, "x"))
    with pytest.raises(ValueError):
        dedekind_index_coprime(m, FinitePlace(parse_poly(F, "x")))
