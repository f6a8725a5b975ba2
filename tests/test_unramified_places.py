"""Signatures at unramified places by evaluation and closed forms, against oracles.

- The closed-form factor type of T^3 - a T + b (Stickelberger's parity and
  Cardano's cube test) against gp_factor_degrees on random (a, b).
- log_rule, the census's factor type at a place off D, on the logs of the
  coefficients, against kummer_signature on random squarefree cubic and
  quartic reductions over towers of characteristic 2, 3, 5, 7, 11 and 13,
  degree-1 ones included.
- signature_at at every place up to degree 3 of the demo cubic and of one
  non-pure cubic per field of characteristic >= 5 of the class-number
  corpus, against kummer_signature on the place's reduction.
- FinitePlace.val and residue, one loop over both residue-field kinds,
  against a divmod reference kept here; only poly names the two kinds.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import funcfields
import funcfields.signature as signature_module
from funcfields import GF, CubicModel, FinitePlace, FqPoly, kummer_signature, monic_irreducibles, parse_poly
from funcfields.poly import POS_INF, ResidueField, TowerResidueField, gp_factor_degrees, tower_fields
from funcfields.signature import _depressed_cubic_type, log_rule, signature_at
from oracles import is_irreducible

GENERIC_LINE = "3u1=2u0, disc at generic level: Kummer on T^3 - Abar T + Bbar"


def _tower(F, d, i=0):
    """The residue field of the i-th place of degree d, as a sweep's tower."""
    K = tower_fields(F, d)[i][1]
    assert isinstance(K, TowerResidueField)
    return K


def _fields():
    F7 = GF(7)
    out = {"GF(%d)" % q: _tower(GF(q), 1) for q in (7, 13, 19)}
    out.update({"GF(%d^2)" % p: _tower(GF(p, 2), 1) for p in (5, 7)})
    out["GF(7) deg 2"] = _tower(F7, 2, 3)
    out["GF(7) deg 3"] = _tower(F7, 3, 5)
    # the tuple field takes its square roots by Tonelli-Shanks, not from tables
    out["GF(7) deg 2, tuple"] = ResidueField(monic_irreducibles(F7, 2)[3])
    return out


FIELDS = _fields()


def _flat_type(K, a, b):
    degs = gp_factor_degrees(K, [b, K.neg(a), K.zero, K.one])
    return tuple(x for d in degs for x in (1, d))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.integers(0, 10 ** 9))
def test_closed_cubic_type_matches_factoring(name, seed):
    K = FIELDS[name]
    assert K.order % 3 == 1 and K.char >= 5
    rng = random.Random(seed)
    a, b = K.from_rand(rng), K.from_rand(rng)
    if rng.random() < 0.2:
        a = K.zero  # T^3 + b: one of Cardano's two values of u^3 is 0
    got = _depressed_cubic_type(K, a, b)
    four, t27 = (K.from_base(K.base.from_int(n)) for n in (4, 27))
    disc = K.sub(K.mul(four, K.pow(a, 3)), K.mul(t27, K.mul(b, b)))
    if K.is_zero(disc):
        assert got is None
    else:
        assert got == _flat_type(K, a, b)


def test_closed_cubic_type_exhaustive_small_field():
    K = FIELDS["GF(7)"]
    seen = set()
    for a in range(7):
        for b in range(7):
            got = _depressed_cubic_type(K, a, b)
            if got is not None:
                assert got == _flat_type(K, a, b)
                seen.add(got)
    assert seen == {(1, 1, 1, 1, 1, 1), (1, 1, 1, 2), (1, 3)}


# towers of characteristics 2, 3, 5, 7, 11 and 13; |E| = 1 mod 3 over
# GF(7)/2, GF(2)/4, GF(7)/1 and GF(13)/1, 2 mod 3 over GF(11)/3, GF(5)/2 and
# GF(11)/1; at degree 1, E = F_p and the closed forms read F_p's log tables
UNRAMIFIED_TOWERS = {"GF(7)/2": (7, 2), "GF(11)/3": (11, 3), "GF(2)/4": (2, 4), "GF(3)/3": (3, 3),
                     "GF(5)/2": (5, 2), "GF(7)/1": (7, 1), "GF(11)/1": (11, 1), "GF(13)/1": (13, 1)}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(UNRAMIFIED_TOWERS)), st.integers(0, 10 ** 9))
def test_unramified_signature_matches_kummer(name, seed):
    """The census's factor types against factoring, on squarefree T^3 - a T + b and T^4 - a T^2 - b T + c."""
    p, d = UNRAMIFIED_TOWERS[name]
    rng = random.Random(seed)
    F = GF(p)
    K = _tower(F, d, rng.randrange(len(monic_irreducibles(F, d))))

    def draw():
        return K.zero if rng.random() < 0.3 else K.from_rand(rng)

    a, b, c = draw(), draw(), draw()
    quartic = p > 2 and rng.random() < 0.5
    if quartic:
        if rng.random() < 0.6:
            b = K.zero  # T^4 - a T^2 + c
        red, args = [c, K.neg(b), K.neg(a), K.zero, K.one], (a, b, c)
    else:
        red, args = [b, K.neg(a), K.zero, K.one], (a, b)
    want = kummer_signature(red, K, len(red) - 1)
    if want is not None:  # squarefree
        log = K.E.log_tables()[1]
        assert log_rule(K.E, quartic)(*(log[r] for r in args)) is want


def _cubic(pk, A, B):
    F = GF(*pk)
    return CubicModel(FqPoly(F, A), FqPoly(F, B))


# the demo cubic (demos/analyze_cubic_field.py) and one non-pure cubic per
# field of characteristic >= 5 of the class-number corpus
MODELS = {
    "demo GF(7)": CubicModel(parse_poly(GF(7), "x^2"), parse_poly(GF(7), "1")),
    "GF(7)": _cubic((7, 1), [4, 1], [4, 3, 4]),
    "GF(11)": _cubic((11, 1), [8, 4, 1], [8, 7, 2]),
    "GF(13)": _cubic((13, 1), [8, 11], [5, 3, 10]),
    "GF(25)": _cubic((5, 2), [10, 21, 24], [10, 1, 21, 14]),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_every_place_to_degree_3_matches_kummer(name, monkeypatch):
    model = MODELS[name]
    F = model.field
    calls = []

    def closed(K, a, b):
        calls.append("closed")
        return _depressed_cubic_type(K, a, b)

    def kummer(red, K, n):
        calls.append("kummer")
        return kummer_signature(red, K, n)

    def factor_degrees(K, f):
        calls.append("factor")
        return gp_factor_degrees(K, f)

    monkeypatch.setattr(signature_module, "SELF_CHECK", False)  # the oracle runs below
    monkeypatch.setattr(signature_module, "_depressed_cubic_type", closed)
    monkeypatch.setattr(signature_module, "kummer_signature", kummer)
    monkeypatch.setattr(signature_module, "gp_factor_degrees", factor_degrees)
    generic = {"closed": 0, "factor": 0}
    for d in range(1, 4):
        for P, K in tower_fields(F, d):
            del calls[:]
            res = signature_at(model, FinitePlace(P, K))
            route = list(calls)
            assert "kummer" not in route
            if res.kummer_reduction is not None:
                K, red = res.kummer_reduction
                assert kummer_signature(red, K, 3) == res.signature, P
            if res.trace[-1] != GENERIC_LINE:
                assert "closed" not in route
                continue
            assert res.method == "Kummer"
            Q = F.q ** d
            # v(D) = 3 u1 proves the reduction squarefree: its factor degrees, no gcd
            want = "closed" if Q % 3 == 1 else "factor"
            assert route == [want], (P, route)
            generic[want] += 1
    if F.q == 11:
        # Q = 11^d is 1 mod 3 only for even d
        assert generic["closed"] > 0 and generic["factor"] > 0
    else:
        assert generic["closed"] > 0 and generic["factor"] == 0


# -- valuations and residues by evaluation -------------------------------------


def _val_reference(P, f):
    """(v_P(f), f / P^v) by division until the remainder is nonzero."""
    v = 0
    while True:
        q, r = f.divmod(P)
        if not r.is_zero():
            return v, f
        v += 1
        f = q


def _places():
    """name -> ([(P, k(P) or None)], kind): sweep towers, and tuple fields from residue_field."""
    out = {}
    for pk, top in (((7, 1), 3), ((3, 2), 3)):
        F = GF(*pk)
        for d in range(1, top + 1):
            out["GF(%d^%d) deg %d" % (pk + (d,))] = (tower_fields(F, d), TowerResidueField)
    # a place of degree 2 outside a sweep, and 13^5 and 25^4 >
    # fq.TABLE_MAX_ORDER (no tower): the tuple field, over a prime base and
    # over an extension base
    out["GF(7) deg 2, tuple"] = ([(P, None) for P in monic_irreducibles(GF(7), 2)], ResidueField)
    out["GF(13) deg 5, tuple"] = ([(parse_poly(GF(13), "x^5 + 8*x + 1"), None)], ResidueField)
    out["GF(5^2) deg 4, tuple"] = ([(parse_poly(GF(5, 2), "x^4 + 6*x + 1"), None)], ResidueField)
    return out


PLACES = _places()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(PLACES)), st.integers(0, 10 ** 9), st.booleans())
def test_val_and_residue_match_division(name, seed, residue_first):
    candidates, kind = PLACES[name]
    rng = random.Random(seed)
    P, K = rng.choice(candidates)
    F = P.field
    k = rng.randrange(4)
    g = FqPoly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 3 * len(P.coeffs)))])
    f = P ** k * g
    place = FinitePlace(P, K)
    assert type(place.residue_field) is kind
    if f.is_zero():
        assert place.val(f) == POS_INF
        return
    v, cof = _val_reference(P, f)
    assert v >= k
    levels = list(range(v + 1))
    rng.shuffle(levels)
    if not residue_first:
        assert place.val(f) == v
    for s in levels:
        want = cof % P if s == v else FqPoly.zero(F)
        assert place.residue(f, s) == place.residue_field.embed(want)
    assert place.val(f) == v
    with pytest.raises(ValueError):
        place.residue(f, v + 1)


def test_tuple_places_are_irreducible():
    for name, (candidates, kind) in PLACES.items():
        if kind is ResidueField:
            assert all(is_irreducible(P) for P, _ in candidates), name


def test_only_poly_names_the_residue_field_classes():
    # places and signatures reach both kinds through the shared protocol
    src = Path(funcfields.__file__).resolve().parent
    naming = sorted(m.name for m in src.glob("*.py") if "ResidueField" in m.read_text())
    assert naming == ["poly.py"]


def test_val_of_zero_is_infinite():
    for candidates, _ in PLACES.values():
        place = FinitePlace(*candidates[0])
        zero = FqPoly.zero(place.field)
        assert place.val(zero) == POS_INF
        assert place.residue_field.is_zero(place.residue(zero, 5))
