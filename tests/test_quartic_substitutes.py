"""Closed-form substitute generators of quartic models against their derivation.

`QuarticModel.substitutes` writes the minimal polynomials of y^2 - A/2 and
y^3 - (A/2) y as fixed formulas in A, B and C.  The oracles here are sympy
resultants for the formulas, and the matrix path the formulas replace
(characteristic polynomial -> depression -> Q-reduction), kept below as
`reference_substitutes`, for the models and for the signatures dispatched
through them.
"""

import pytest
import sympy as sp
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import funcfields.signature as signature_module
from funcfields import GF, FqPoly, QuarticModel, model_from_text, monic_irreducibles, signature_at
from funcfields.models import _binom_shift, _standard_form_divisor_quartic, minimal_polynomial_fq, reduce_quartic
from funcfields.places import FinitePlace, InfinitePlace
from funcfields.poly import FuncFieldError, InternalFault


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
        A2, B2, C2, _ = reduce_quartic(-coeffs[2], -coeffs[1], coeffs[0])
        out.append((label, QuarticModel(A2, B2, C2, _skip_checks=True)))
    lam = B.scale(F.from_int(3))
    A2, B2, C2, _ = reduce_quartic(A * lam * lam, B * lam ** 3, C * lam ** 4)
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
    assert _standard_form_divisor_quartic(*raw) == FqPoly.x(F)
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
