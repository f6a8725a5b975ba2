"""The class-number place sweep: Horner kernels, shared signatures, the census.

- FqField.horner and TowerResidueField.embed against the add/mul Horner
  loop, on prime fields, table fields of characteristic 2, 3, 5 and 7,
  towers with a non-identity embedding of F_q, and GF(2^17) above the
  tables.
- Signature(pairs, n) and Signature.from_flat hand out one instance per
  value, for the pairs in any order, as lists or tuples, and a key that
  breaks the fundamental identity raises every time it is asked for; every
  signature of the seed-1 zeta and ledger corpora is that instance.
- ZetaData's census against the rows of finite(d) and the per-place sums
  it replaced, for place_count, S and the Eprime of estimate_h, on the demo
  models, one extension-field model per characteristic and one model per
  branch of the census's factor types, and on random models of every kind
  over fields of characteristic 2, 3, 5, 7, 11 and 13, places of degree 1
  to 3; with a degree's tower dropped, every place takes signature_at; and
  exact_h dispatches only the places over D.
"""

import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from funcfields import (
    GF,
    CubicModel,
    FqPoly,
    QuarticModel,
    Signature,
    ZetaData,
    estimate_h,
    exact_h,
    field_discriminant,
    genus,
    monic_irreducibles,
    parse_poly,
    zeta_tuple_for_signature,
)
import funcfields.class_number as class_number_module
import funcfields.signature as signature_module
from funcfields import poly
from funcfields.poly import (
    FuncFieldError,
    HypothesisRefused,
    InternalFault,
    TowerResidueField,
    UnknownSignature,
    tower_fields,
)
from oracles import local_factor, require_finite


def horner_reference(E, coeffs, x, emb=None):
    acc = 0
    for c in reversed(coeffs):
        acc = E.add(E.mul(acc, x), c if emb is None else emb[c])
    return acc


# -- Horner -------------------------------------------------------------------

# (p, k): GF(7) on ints mod p, GF(4), GF(8), GF(9), GF(25) and GF(7^3) by
# Zech logarithms, GF(2^17) by digit arithmetic
HORNER_FIELDS = ((7, 1), (2, 2), (2, 3), (3, 2), (5, 2), (7, 3), (2, 17))


def test_digit_field_has_no_tables():
    assert GF(2, 17)._log is None and GF(5, 2)._log is not None


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(HORNER_FIELDS), st.integers(0, 10 ** 9))
def test_horner_matches_add_mul_loop(pk, seed):
    rng = random.Random(seed)
    E = GF(*pk)
    n = rng.randrange(0, 9)
    coeffs = [rng.randrange(E.q) if rng.random() < 0.7 else 0 for _ in range(n)]
    x = rng.choice([0, 1, rng.randrange(E.q), rng.randrange(E.q)])
    assert E.horner(coeffs, x) == horner_reference(E, coeffs, x)
    assert FqPoly(E, coeffs).evaluate(x) == horner_reference(E, coeffs, x)


def _tower(F, d, i):
    K = tower_fields(F, d)[i][1]
    assert isinstance(K, TowerResidueField)
    return K


# (F, degree of the place): E = F for degree 1; GF(4) and GF(9) places of
# degree 2 embed F_q into GF(16) and GF(81) by a map that is not the identity
TOWERS = {
    "GF(7) deg 1": (GF(7), 1),
    "GF(8) deg 1": (GF(2, 3), 1),
    "GF(25) deg 1": (GF(5, 2), 1),
    "GF(7) deg 3": (GF(7), 3),
    "GF(4) deg 2": (GF(2, 2), 2),
    "GF(9) deg 2": (GF(3, 2), 2),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(TOWERS)), st.integers(0, 10 ** 9))
def test_tower_embed_matches_add_mul_loop(name, seed):
    rng = random.Random(seed)
    F, d = TOWERS[name]
    K = _tower(F, d, rng.randrange(len(monic_irreducibles(F, d))))
    f = FqPoly(F, [rng.randrange(F.q) for _ in range(rng.randrange(0, 9))])
    assert K.embed(f) == horner_reference(K.E, f.coeffs, K.alpha, K._emb)


def test_tower_embedding_is_not_the_identity():
    K = _tower(GF(2, 2), 2, 0)
    assert any(K._emb[c] != c for c in range(4))


# -- shared signatures --------------------------------------------------------


def test_from_flat_returns_the_shared_instance():
    s = Signature.from_flat((1, 1, 2, 1), 3)
    assert Signature.from_flat((1, 1, 2, 1), 3) is s
    assert Signature.from_flat([1, 1, 2, 1], 3) is s
    assert Signature(((2, 1), (1, 1)), 3) is s
    assert Signature(((1, 1), (2, 1)), 3) is s
    assert Signature([[2, 1], [1, 1]], 3) is s
    assert Signature([(1, 1), (2, 1)], 3) is s
    assert Signature(s.pairs, 3) is s
    assert Signature.from_flat((2, 1, 1, 1), 3) is s
    assert Signature.from_flat((1, 1, 1, 2), 3) is not s


def test_bad_flat_signature_raises_every_time():
    for _ in range(2):
        with pytest.raises(InternalFault):
            Signature.from_flat((1, 1, 1, 1), 3)
        with pytest.raises(InternalFault):
            Signature(((1, 1), (1, 1)), 3)
        with pytest.raises(InternalFault):
            Signature([(1, 1), (2, 1)], 4)
        with pytest.raises(ValueError):
            Signature.from_flat((1, 1, 2), 3)


def test_places_share_signature_instances():
    F = GF(7)
    mb = QuarticModel(parse_poly(F, "x^2 + x"), FqPoly.zero(F), parse_poly(F, "3*x^6 + x"))
    sigs = [res.signature for d in (1, 2) for _, res in ZetaData(mb).finite(d)]
    assert all(s is Signature.from_flat(s.flat(), s.n) for s in sigs)
    assert len({id(s) for s in sigs}) < len(sigs)


# the seed-1 zeta and ledger corpora of the benchmark (perfbench/workloads.py):
# [workload, seed, p, k, coefficient lists of A, B (, C)]
CORPUS = json.loads((Path(__file__).parent / "data" / "genus_corpus.json").read_text())["models"]


@pytest.mark.parametrize("workload", ["zeta", "ledger"])
def test_every_corpus_signature_is_the_interned_instance(workload):
    sigs = []
    for _, _, p, k, coeffs in (r for r in CORPUS if r[:2] == [workload, 1]):
        F = GF(p, k)
        polys = [FqPoly(F, cs) for cs in coeffs]
        model = CubicModel(*polys) if len(polys) == 2 else QuarticModel(*polys)
        if workload == "ledger":
            rows = field_discriminant(model).rows
            sigs += [r.signature.signature for r in rows if r.signature is not None and r.signature.known]
            continue
        try:
            g = genus(model).genus
        except FuncFieldError:
            continue  # the quartic over GF(9), whose genus is refused
        zeta = ZetaData(model)
        sigs.append(zeta.infinite.signature)
        for d in range(1, g + 1):
            sigs += [res.signature for _, res in zeta.finite(d) if res.known]
            try:
                sigs += list(zeta.census(d))  # under SELF_CHECK, checked against finite(d) place by place
            except UnknownSignature:
                break
    assert len(sigs) > 50
    assert all(s is Signature.from_flat(s.flat(), s.n) for s in sigs)


# -- the census ---------------------------------------------------------------


def _pp(F, s):
    return parse_poly(F, s)


def _census_models():
    F7 = GF(7)
    out = {
        "demo pure cubic y^3 = x^2 + x": CubicModel(FqPoly.zero(F7), -_pp(F7, "x^2 + x")),
        "demo cubic A = x^2, B = 1": CubicModel(_pp(F7, "x^2"), _pp(F7, "1")),
        "demo quartic A = x, B = 1, C = x^2": QuarticModel(_pp(F7, "x"), _pp(F7, "1"), _pp(F7, "x^2")),
        "biquadratic A = x, C = x^3 + 2": QuarticModel(_pp(F7, "x"), FqPoly.zero(F7), _pp(F7, "x^3 + 2")),
    }
    # one extension-field model per characteristic, by encodings
    for (p, k), coeffs in (((2, 2), ([1], [0, 3, 3, 0, 3])), ((3, 2), ([2, 3, 3, 1], [5, 2, 3])),
                           ((5, 2), ([8, 23], [18, 3, 10]))):
        F = GF(p, k)
        out["cubic over GF(%d)" % F.q] = CubicModel(FqPoly(F, coeffs[0]), FqPoly(F, coeffs[1]))
    # one model per branch of the census's factor types, by encodings: the
    # cube test at |E| = 1 and 2 mod 3 (GF(8) at odd degree), factoring in
    # characteristic 2 and 3, a quartic with B != 0, T^4 - a T^2 + c
    for name, (p, k), coeffs in (
        ("pure cubic over GF(11)", (11, 1), ([], [6, 6, 0, 5])),
        ("pure cubic over GF(8)", (2, 3), ([], [6, 6, 0, 4, 5])),
        ("cubic over GF(4), A nonconstant", (2, 2), ([3, 2], [0, 2, 3, 3, 2])),
        ("cubic over GF(9), g = 2", (3, 2), ([0, 7, 5, 5], [7, 0, 7])),
        ("quartic over GF(13)", (13, 1), ([2, 5], [2, 2], [9, 12, 5])),
        ("biquadratic over GF(25)", (5, 2), ([12, 14], [], [1, 8, 17])),
    ):
        F = GF(p, k)
        out[name] = (CubicModel if len(coeffs) == 2 else QuarticModel)(*(FqPoly(F, cs) for cs in coeffs))
    return out


CENSUS_MODELS = _census_models()


def _reference_place_count(zeta, m):
    count = list(zeta.infinite.require().relative_degrees()).count(m)
    for d in range(1, m + 1):
        if m % d == 0:
            for _, res in require_finite(zeta, d):
                count += list(res.signature.relative_degrees()).count(m // d)
    return count


def _reference_S(zeta, m, j):
    return sum(zeta_tuple_for_signature(res.signature).power_sum(j) for _, res in require_finite(zeta, m))


def _reference_Eprime(model, zeta, lam, g):
    q = model.field.q
    u = Fraction(1, q)
    den = Fraction(1)
    for f in zeta.infinite.require().relative_degrees():
        den *= 1 - u ** f
    E = Fraction(q) ** g * (1 - u) / den
    for m in range(1, lam + 1):
        for _, res in require_finite(zeta, m):
            E *= local_factor(zeta_tuple_for_signature(res.signature), q, m)
    return E


@pytest.mark.parametrize("name", sorted(CENSUS_MODELS))
def test_census_matches_per_place_sums(name):
    model = CENSUS_MODELS[name]
    g = genus(model).genus
    assert 1 <= g <= 3
    zeta = ZetaData(model)
    for m in range(1, g + 1):
        assert zeta.census(m) == Counter(res.signature for _, res in zeta.finite(m))
        assert zeta.place_count(m) == _reference_place_count(zeta, m)
        for j in range(1, 13):
            assert zeta.S(m, j) == _reference_S(zeta, m, j)
        est = estimate_h(model, m, zeta=zeta, genus_value=g)
        assert est.Eprime == _reference_Eprime(model, zeta, m, g)


# quartics whose degree-1 rows hold an Unknown at a place over D where B is a unit
UNDECIDED = {"GF(7)": (7, ([0, 1, 1], [3, 2], [4, 0, 5])), "GF(13)": (13, ([0, 2, 2], [7, 4], [8, 1, 10]))}


@pytest.mark.parametrize("name", sorted(UNDECIDED))
def test_census_raises_at_the_first_undecided_place(name):
    q, coeffs = UNDECIDED[name]
    zeta = ZetaData(QuarticModel(*(FqPoly(GF(q), cs) for cs in coeffs)))
    with pytest.raises(UnknownSignature) as census:
        zeta.census(1)
    with pytest.raises(UnknownSignature) as rows:
        require_finite(zeta, 1)
    assert str(census.value) == str(rows.value)


def test_census_without_a_tower_dispatches_every_place(monkeypatch):
    model = CENSUS_MODELS["cubic over GF(9), g = 2"]
    want = ZetaData(model).census(2)
    monkeypatch.delitem(poly._TOWERS, (model.field, 2))
    assert all(K is None for _, K in tower_fields(model.field, 2))
    zeta = ZetaData(model)
    assert zeta.census(2) == want == Counter(res.signature for _, res in zeta.finite(2))


@pytest.mark.parametrize("name", sorted(CENSUS_MODELS))
def test_class_numbers_dispatch_only_the_places_over_D(name, monkeypatch):
    """exact_h reaches signature_at at the places P | D alone; the others are factor types."""
    model = CENSUS_MODELS[name]
    places, signature_at = [], class_number_module.signature_at

    def counted(model_, place):
        places.append(place)
        return signature_at(model_, place)

    monkeypatch.setattr(signature_module, "SELF_CHECK", False)  # it would build finite(d) too
    monkeypatch.setattr(class_number_module, "signature_at", counted)
    exact_h(model)
    D = model.discriminant()
    assert all((D % place.P).is_zero() for place in places)


# the census's fields; quartics only where p >= 5 (none exists in
# characteristic 2, and a quartic in characteristic 3 has no census)
CENSUS_FIELDS = [(2, 2), (2, 3), (3, 2), (7, 1), (11, 1), (13, 1), (5, 2)]
CENSUS_KINDS = ["pure cubic", "cubic", "biquadratic", "quartic with B != 0"]


def _random_model(rng, F, kind):
    """A model of the kind, each coefficient times x with chance 0.4 (so that the
    root 0 of the place x meets a = 0, b = 0 or c = 0), or None where refused."""
    x, zero = FqPoly(F, [0, 1]), FqPoly.zero(F)

    def coefficient(top):
        f = FqPoly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, top + 2))])
        return x * f if rng.random() < 0.4 else f

    try:
        if kind == "pure cubic":
            return CubicModel(zero, coefficient(4))
        if kind == "cubic":
            return CubicModel(coefficient(2), coefficient(4))
        return QuarticModel(coefficient(2), zero if kind == "biquadratic" else coefficient(2), coefficient(4))
    except (HypothesisRefused, FuncFieldError):
        return None


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(CENSUS_FIELDS), st.sampled_from(CENSUS_KINDS), st.integers(1, 3), st.integers(0, 10 ** 9))
def test_census_in_logs_matches_the_rows_on_random_models(pk, kind, degree, seed):
    """census(d) against the rows of finite(d), SELF_CHECK off so the comparison is this test's own."""
    F = GF(*pk)
    assume(F.q ** degree <= 1 << 16 and (kind.endswith("cubic") or F.p >= 5))
    model = _random_model(random.Random(seed), F, kind)
    assume(model is not None)
    old, signature_module.SELF_CHECK = signature_module.SELF_CHECK, False
    try:
        zeta = ZetaData(model)
        try:
            census = zeta.census(degree)
        except UnknownSignature as exc:
            with pytest.raises(UnknownSignature) as rows:
                require_finite(zeta, degree)
            assert (rows.value.reason, str(rows.value)) == (exc.reason, str(exc))
            return
        assert census == Counter(res.signature for _, res in zeta.finite(degree))
    finally:
        signature_module.SELF_CHECK = old
