"""The class-number place sweep: Horner kernels, shared signatures, the census.

- FqField.horner and TowerResidueField.embed against the add/mul Horner
  loop, on prime fields, table fields of characteristic 2, 3, 5 and 7,
  towers with a non-identity embedding of F_q, and GF(2^17) above the
  tables.
- Signature.from_flat and Signature.shared hand out one instance per
  value, and a flat signature that breaks the fundamental identity raises
  every time it is asked for.
- ZetaData's census against the per-place sums it replaced, for
  place_count, S and the Eprime of estimate_h, on the demo models and on
  one extension-field model per characteristic.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from funcfields import (
    GF,
    CubicModel,
    FqPoly,
    QuarticModel,
    Signature,
    ZetaData,
    estimate_h,
    genus,
    monic_irreducibles,
    parse_poly,
    zeta_tuple_for_signature,
)
from funcfields.poly import InternalFault, TowerResidueField, tower_fields
from oracles import local_factor


def horner_reference(E, coeffs, x, emb=None):
    acc = 0
    for c in reversed(coeffs):
        acc = E.add(E.mul(acc, x), c if emb is None else emb[c])
    return acc


# -- Horner -------------------------------------------------------------------

# (p, k): GF(7) on ints mod p, GF(4) and GF(8) by XOR, GF(9), GF(25) and
# GF(7^3) by Zech logarithms, GF(2^17) by digit arithmetic
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
    assert Signature.shared(((2, 1), (1, 1)), 3) is s
    assert Signature.shared(((1, 1), (2, 1)), 3) is s
    assert Signature.from_flat((2, 1, 1, 1), 3) is s
    assert Signature.from_flat((1, 1, 1, 2), 3) is not s


def test_bad_flat_signature_raises_every_time():
    for _ in range(2):
        with pytest.raises(InternalFault):
            Signature.from_flat((1, 1, 1, 1), 3)
        with pytest.raises(InternalFault):
            Signature.shared(((1, 1), (1, 1)), 3)
        with pytest.raises(ValueError):
            Signature.from_flat((1, 1, 2), 3)


def test_places_share_signature_instances():
    F = GF(7)
    mb = QuarticModel(parse_poly(F, "x^2 + x"), FqPoly.zero(F), parse_poly(F, "3*x^6 + x"))
    sigs = [res.signature for d in (1, 2) for _, res in ZetaData(mb).finite(d)]
    assert len({id(s) for s in sigs}) == len(set(sigs)) < len(sigs)


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
    return out


CENSUS_MODELS = _census_models()


def _reference_place_count(zeta, m):
    count = list(zeta.infinite.require().relative_degrees()).count(m)
    for d in range(1, m + 1):
        if m % d == 0:
            for _, res in zeta.require_finite(d):
                count += list(res.signature.relative_degrees()).count(m // d)
    return count


def _reference_S(zeta, m, j):
    return sum(zeta_tuple_for_signature(res.signature).power_sum(j) for _, res in zeta.require_finite(m))


def _reference_Eprime(model, zeta, lam, g):
    q = model.field.q
    u = Fraction(1, q)
    den = Fraction(1)
    for f in zeta.infinite.require().relative_degrees():
        den *= 1 - u ** f
    E = Fraction(q) ** g * (1 - u) / den
    for m in range(1, lam + 1):
        for _, res in zeta.require_finite(m):
            E *= local_factor(zeta_tuple_for_signature(res.signature), q, m)
    return E


@pytest.mark.parametrize("name", sorted(CENSUS_MODELS))
def test_census_matches_per_place_sums(name):
    model = CENSUS_MODELS[name]
    g = genus(model).genus
    assert 1 <= g <= 3
    zeta = ZetaData(model)
    for m in range(1, g + 1):
        assert sum(zeta.census(m).values()) == len(zeta.finite(m))
        assert zeta.place_count(m) == _reference_place_count(zeta, m)
        for j in range(1, 13):
            assert zeta.S(m, j) == _reference_S(zeta, m, j)
        est = estimate_h(model, m, zeta=zeta, genus_value=g)
        assert est.Eprime == _reference_Eprime(model, zeta, m, g)
