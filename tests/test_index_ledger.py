"""Quartic discriminant ledger: Dedekind's index test runs only where P^2 | D.

D = ind(y)^2 Delta gives v_P(D) = 2 v_P(I) + v_P(Delta), so v_P(D) <= 1
forces v_P(I) = 0 and `disc_valuation_quartic` returns v_P(D) there without
running the criterion.  The oracles below run the criterion anyway: at every
place with v_P(D) = 1 it must find P coprime to the index, and a reference
ledger that runs it at every Unknown place must give the same rows.
"""

import pytest

from funcfields import GF, FinitePlace, QuarticModel, factorize, field_discriminant, parse_poly
from funcfields import invariants
from funcfields.invariants import dedekind_index_coprime, disc_valuation_quartic
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
