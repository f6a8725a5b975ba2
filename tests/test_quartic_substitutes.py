"""Closed-form substitute generators of quartic models against their derivation.

`QuarticModel.substitutes` writes the minimal polynomials of y^2 - A/2 and
y^3 - (A/2) y as fixed formulas in A, B and C.  The oracles here are sympy
resultants for the formulas, and the matrix path the formulas replace
(characteristic polynomial -> depression -> Q-reduction), kept below as
`reference_substitutes`, for the models and for the signatures dispatched
through them.  A substitute's discriminant comes from its parent's by the
index formula; quartic_disc of a fresh model with the same coefficients is
its oracle.
"""

import random

import pytest
import sympy as sp
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import funcfields.signature as signature_module
from funcfields import GF, FqPoly, QuarticModel, model_from_text, monic_irreducibles, signature_at
from funcfields.models import _binom_shift, _standard_form_divisor, minimal_polynomial_fq, quartic_disc, reduce_coeffs
from funcfields.places import FinitePlace, InfinitePlace
from funcfields.poly import FuncFieldError, InternalFault, factorize, tower_fields
from test_signature import LEDGER_QUARTICS, _seeded_quartics


def reference_substitutes(model):
    """The substitutes through multiplication matrices, as one dispatch built them per place."""
    F = model.field
    A, B, C = model.A, model.B, model.C
    half = F.inv(F.from_int(2))
    zero, one = FqPoly.zero(F), FqPoly.one(F)
    candidates = [
        ("y^2 - A/2", model.element(A.scale(F.neg(half)), None, one, None)),
        ("y^3 - (A/2) y", model.element(zero, A.scale(F.neg(half)), None, one)),
    ]
    out = []
    for label, alpha in candidates:
        mp = minimal_polynomial_fq(alpha)
        if len(mp) != 5:
            out.append("%s generates a subfield" % label)
            continue
        coeffs = mp
        if not coeffs[3].is_zero():
            t = coeffs[3].scale(F.neg(F.inv(F.from_int(4))))
            coeffs = _binom_shift(list(coeffs), t)
            assert coeffs[3].is_zero()
        A2, B2, C2, _ = reduce_coeffs(-coeffs[2], -coeffs[1], coeffs[0])
        out.append((label, QuarticModel(A2, B2, C2, _skip_checks=True)))
    lam = B.scale(F.from_int(3))
    A2, B2, C2, _ = reduce_coeffs(A * lam * lam, B * lam ** 3, C * lam ** 4)
    out.append(("3By", QuarticModel(A2, B2, C2, _skip_checks=True)))
    return out


def reference_transform(model, place, trace, reason, allow_transforms):
    """The leftover-case transform over `reference_substitutes`."""
    if not allow_transforms:
        return signature_module._unknown(place, reason, trace + ["transform already applied; giving up"])
    for item in reference_substitutes(model):
        if isinstance(item, str):
            trace.append(item)
            continue
        label, nxt = item
        sub = signature_module.signature_quartic(nxt, place, allow_transforms=False)
        if sub.known:
            trace.append("resolved through the substitute generator %s" % label)
            return signature_module.SignatureResult(
                sub.signature, sub.method, trace + sub.trace,
                kummer_reduction=sub.kummer_reduction, place=place,
            )
        trace.append("substitute %s still undecided" % label)
    return signature_module._unknown(place, reason, trace)


def _key(subs):
    return [s if isinstance(s, str) else (s[0], s[1].A, s[1].B, s[1].C) for s in subs]


# -- the formulas --------------------------------------------------------------

A_, B_, C_, y_, T_ = sp.symbols("A B C y T")
S_ = A_ ** 2 - 4 * C_


def test_closed_forms_are_resultants():
    f = y_ ** 4 - A_ * y_ ** 2 - B_ * y_ + C_
    forms = [
        (y_ ** 2 - A_ / 2, 0, (S_ / 2, B_ ** 2, (S_ ** 2 - 8 * A_ * B_ ** 2) / 16)),
        (
            y_ ** 3 - A_ / 2 * y_,
            sp.Rational(3, 4) * B_,
            (
                (2 * A_ * S_ + 3 * B_ ** 2) / 8,
                B_ * (2 * A_ * S_ - B_ ** 2) / 8,
                (16 * C_ * S_ ** 2 - 4 * A_ * B_ ** 2 * (3 * S_ + 32 * C_) - 3 * B_ ** 4) / 256,
            ),
        ),
    ]
    for g, shift, (A2, B2, C2) in forms:
        mp = sp.resultant(f, T_ - g, y_).subs(T_, T_ + shift)
        assert sp.expand(mp - (T_ ** 4 - A2 * T_ ** 2 - B2 * T_ + C2)) == 0


def test_cubic_generator_subfield_needs_a_repeated_root():
    # B' = 0 with B != 0 means B^2 = 2AS; then 4C' - A'^2 = -S (S + 4A^2)^2 / 16,
    # so a square minimal polynomial needs S = 0 (then B = 0) or S = -4A^2,
    # where f = (y - m)^2 (y^2 + 2my + 5m^2) with A = -2m^2
    s, b2 = sp.symbols("S b2")
    C = (A_ ** 2 - s) / 4
    A3 = (2 * A_ * s + 3 * b2) / 8
    C3 = (16 * C * s ** 2 - 4 * A_ * b2 * (3 * s + 32 * C) - 3 * b2 ** 2) / 256
    gap = (4 * C3 - A3 ** 2).subs(b2, 2 * A_ * s)
    assert sp.expand(gap + s * (s + 4 * A_ ** 2) ** 2 / 16) == 0
    m = sp.symbols("m")
    f = y_ ** 4 + 2 * m ** 2 * y_ ** 2 - 8 * m ** 3 * y_ + 5 * m ** 4
    assert sp.expand(f - (y_ - m) ** 2 * (y_ ** 2 + 2 * m * y_ + 5 * m ** 2)) == 0


# -- the models ----------------------------------------------------------------


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (13, 1), (5, 2)])
def test_substitutes_match_the_matrix_path(p, k):
    F = GF(p, k)
    coeff = st.lists(st.integers(0, F.q - 1), min_size=1, max_size=4)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(coeff, coeff, coeff)
    def check(a, b, c):
        try:
            model = QuarticModel(FqPoly(F, a), FqPoly(F, b), FqPoly(F, c))
        except FuncFieldError:
            assume(False)
        assume(not model.biquadratic)
        assert _key(model.substitutes()) == _key(reference_substitutes(model))

    check()


def test_substitutes_are_built_once_per_model():
    model = model_from_text("quartic q=7 A=x B=x^2+1 C=x^3+2")
    assert model.substitutes() is model.substitutes()
    assert [s[0] for s in model.substitutes()] == ["y^2 - A/2", "y^3 - (A/2) y", "3By"]


def test_biquadratic_models_have_no_substitutes():
    model = model_from_text("quartic q=7 A=x B=0 C=x^3+2")
    with pytest.raises(InternalFault):
        model.substitutes()


def test_reduction_divides_a_substitute():
    model = model_from_text("quartic q=5 A=4 B=2*x^2 C=3*x^2+4")
    F = model.field
    S, BB = model.ac_discriminant(), model.B * model.B
    c = F.from_int
    raw = (S.scale(F.inv(c(2))), BB, (S * S - (model.A * BB).scale(c(8))).scale(F.inv(c(16))))
    assert _standard_form_divisor(*raw) == FqPoly.x(F)
    subs = model.substitutes()
    assert _key(subs) == _key(reference_substitutes(model))
    assert _key(subs)[0] == ("y^2 - A/2", FqPoly(F, [4]), FqPoly(F, [0, 4]), FqPoly(F, [1]))


def test_cubic_generator_with_b_squared_2as():
    # B^2 = 2A(A^2 - 4C): y^3 - (A/2) y - 3B/4 has B' = 0, a biquadratic substitute
    model = model_from_text("quartic q=7 A=x B=2*x C=2*x^2+3*x")
    assert model.B * model.B == (model.A * model.ac_discriminant()).scale(model.field.from_int(2))
    subs = model.substitutes()
    assert subs[1][0] == "y^3 - (A/2) y" and subs[1][1].biquadratic
    assert _key(subs) == _key(reference_substitutes(model))


# -- the discriminants ------------------------------------------------------------

# (q, (A, B, C)) coefficient lists, constant term first: the quartics of the
# benchmark's ledger corpus on seed 2 (perfbench/workloads.py); seed 1's are
# test_signature.LEDGER_QUARTICS
LEDGER_QUARTICS_SEED2 = [
    (7, ((6, 4, 3), (4, 1, 6, 6), (1, 1, 3, 6))),
    (7, ((4, 5, 1), (4, 4, 0, 1), (2, 5, 0, 1))),
    (7, ((6, 3, 4), (2, 5, 5, 3), (1, 4, 3, 5))),
    (7, ((1, 4, 2), (6, 3, 6, 1), (1, 0, 2, 1))),
    (7, ((2, 2, 3), (5, 3, 0, 5), (0, 6, 3, 4))),
    (7, ((5, 4, 4), (3, 2, 4, 6), (6, 2, 3, 1))),
    (7, ((4, 2, 6), (3, 4, 2, 1), (6, 2, 4, 2))),
    (7, ((1, 5, 5), (5, 6, 3, 3), (1, 5, 5, 1))),
    (11, ((5, 10, 3), (6, 9, 4, 10), (10, 9, 9, 9))),
    (11, ((5, 1, 3), (8, 5, 6, 1), (5, 1, 7, 7))),
    (11, ((8, 4, 3), (0, 10, 3, 8), (3, 8, 5, 9))),
    (11, ((10, 0, 4), (8, 8, 0, 4), (6, 7, 9, 5))),
    (11, ((10, 8, 4), (0, 8, 4, 3), (10, 10, 10, 8))),
    (11, ((4, 1, 8), (2, 9, 4, 2), (6, 0, 10, 2))),
    (11, ((8, 2, 4), (10, 4, 6, 6), (3, 10, 7, 6))),
    (11, ((3, 1, 10), (9, 1, 5, 7), (6, 3, 10, 1))),
    (13, ((10, 0, 3), (8, 4, 6, 3), (8, 6, 0, 8))),
    (13, ((7, 10, 5), (8, 3, 5, 9), (11, 9, 11, 11))),
    (13, ((3, 6, 5), (8, 9, 8, 10), (1, 11, 4, 4))),
    (13, ((7, 0, 6), (3, 6, 4, 11), (7, 3, 11, 7))),
    (13, ((0, 10, 12), (1, 1, 0, 10), (8, 0, 2, 1))),
    (13, ((0, 5, 7), (11, 0, 1, 7), (0, 11, 10, 6))),
    (13, ((1, 5, 9), (3, 2, 1, 2), (7, 10, 6, 1))),
    (13, ((1, 1, 11), (12, 2, 3, 1), (8, 10, 5, 8))),
]


def _ledger_quartics():
    for q, coeffs in LEDGER_QUARTICS + LEDGER_QUARTICS_SEED2:
        F = GF(q)
        yield QuarticModel(*(FqPoly(F, list(cs)) for cs in coeffs))


def _check_substitute_discriminants(model):
    for label, sub in model.substitutes():
        fresh = QuarticModel(sub.A, sub.B, sub.C, _skip_checks=True)
        assert sub.discriminant() == quartic_disc(fresh), (label, model.to_json())


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (13, 1), (5, 2)])
def test_substitute_discriminants_by_the_index_formula(p, k):
    F = GF(p, k)
    coeff = st.lists(st.integers(0, F.q - 1), min_size=1, max_size=4)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(coeff, coeff, coeff)
    def check(a, b, c):
        try:
            model = QuarticModel(FqPoly(F, a), FqPoly(F, b), FqPoly(F, c))
        except FuncFieldError:
            assume(False)
        assume(not model.biquadratic)
        _check_substitute_discriminants(model)

    check()


def test_substitute_discriminants_of_the_ledger_quartics():
    models = list(_ledger_quartics())
    assert len(models) == 48 and not any(m.biquadratic for m in models)
    for model in models:
        _check_substitute_discriminants(model)


def test_substitute_discriminant_of_a_biquadratic_substitute():
    model = model_from_text("quartic q=7 A=x B=2*x C=2*x^2+3*x")
    assert model.substitutes()[1][1].biquadratic
    _check_substitute_discriminants(model)


def test_self_check_catches_a_parent_discriminant_off_by_a_unit(monkeypatch):
    # a D off by a unit still divides exactly by Q^12; only the comparison
    # with quartic_disc run under SELF_CHECK sees it
    model = next(_ledger_quartics())
    model._disc = model.discriminant().scale(model.field.from_int(2))
    with pytest.raises(InternalFault, match="disagrees with quartic_disc"):
        model.substitutes()[0][1].discriminant()
    monkeypatch.setattr(signature_module, "SELF_CHECK", False)
    assert not model.substitutes()[1][1].discriminant().is_zero()


def test_3by_is_the_model_rescaled():
    # for a standard-form model 3By is (c^2 A, c^3 B, c^4 C) with c = 3 lc(B)
    rng = random.Random(20261020)
    models = list(_ledger_quartics())
    for q in (5, 7, 13):
        models += _seeded_quartics(q, 6, rng)
    for model in models:
        F = model.field
        c = F.mul(F.from_int(3), model.B.sgn)
        label, sub = model.substitutes()[2]
        assert label == "3By"
        assert (sub.A, sub.B, sub.C) == (model.A.scale(F.pow(c, 2)), model.B.scale(F.pow(c, 3)), model.C.scale(F.pow(c, 4)))


def test_3by_dispatches_as_the_model():
    # a constant rescaling of y scales every residue the tables read by a power
    # of c, so 3By lands in the same row as the model: the same signature where
    # that row decides, the same leftover case where it does not
    rng = random.Random(20261021)
    cases = []
    for model in _ledger_quartics():
        F = model.field
        cases += [(model, FinitePlace(P)) for P, _ in factorize(model.discriminant())]
        cases.append((model, InfinitePlace(F)))
    for q in (7, 13):
        F = GF(q)
        places = [FinitePlace(P, K) for d in (1, 2) for P, K in tower_fields(F, d)] + [InfinitePlace(F)]
        cases += [(m, place) for m in _seeded_quartics(q, 3, rng) for place in places]
    leftover = 0
    for model, place in cases:
        sub = model.substitutes()[2][1]
        r = signature_module.signature_quartic(model, place, allow_transforms=False)
        s = signature_module.signature_quartic(sub, place, allow_transforms=False)
        assert (r.signature, r.method, r.unknown_reason) == (s.signature, s.method, s.unknown_reason)
        leftover += not r.known
    assert leftover > 0


# -- the signatures ------------------------------------------------------------

SIGNATURE_MODELS = [
    ("quartic q=5 A=x+4 B=x+1 C=2*x^3+2*x^2+3*x+4", 2),
    ("quartic q=7 A=x B=x^2+1 C=x^3+2", 2),
    ("quartic q=7 A=x B=2*x C=2*x^2+3*x", 2),
    ("quartic q=13 A=7*x+2 B=1 C=9*x^2+6*x+12", 1),
]


def _gf25_model():
    F = GF(5, 2)
    return QuarticModel(FqPoly(F, [12]), FqPoly(F, [7, 23, 13, 4]), FqPoly(F, [8]))


def _signatures(build, max_deg):
    model = build()
    F = model.field
    places = [FinitePlace(P) for d in range(1, max_deg + 1) for P in monic_irreducibles(F, d)]
    out = []
    for place in places + [InfinitePlace(F)]:
        r = signature_at(model, place)
        out.append((r.signature and r.signature.pairs, r.method, r.unknown_reason, r.trace))
    return out


def test_signatures_match_the_reference_transform(monkeypatch):
    builds = [((lambda t=text: model_from_text(t)), d) for text, d in SIGNATURE_MODELS]
    builds.append((_gf25_model, 1))
    new = [_signatures(build, d) for build, d in builds]
    monkeypatch.setattr(signature_module, "_quartic_transform", reference_transform)
    old = [_signatures(build, d) for build, d in builds]
    assert new == old
    traces = [line for sigs in new for s in sigs for line in s[3]]
    assert sum("still undecided" in line for line in traces) > 10
    assert any("resolved through the substitute generator" in line for line in traces)
