"""Integral bases: the congruence solutions and the from-scratch verifier."""

import random

from funcfields import (
    GF,
    CubicModel,
    FqPoly,
    OrderElement,
    QuarticModel,
    field_discriminant,
    integral_basis_cubic,
    integral_basis_quartic,
    is_integral,
    parse_poly,
    verify_basis,
)
from funcfields.integral_basis import IntegralBasis, basis_discriminant
from funcfields.models import laplace_det
from funcfields.poly import HypothesisRefused
from oracles import trace

F2 = GF(2)
F3 = GF(3)
F7 = GF(7)


def pp(s, F=F7):
    return parse_poly(F, s)


def rand_cubic_models(rng, F, count, need_index=False):
    out = []
    while len(out) < count:
        A = FqPoly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 4))])
        B = FqPoly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 5))])
        try:
            m = CubicModel(A, B)
            rep = field_discriminant(m)
        except Exception:
            continue
        if not rep.complete:
            continue
        if need_index and rep.index.degree < 1:
            continue
        out.append((m, rep))
    return out


def test_constant_index_gives_power_basis():
    m = CubicModel(pp("x^2"), FqPoly.one(F7))  # squarefree D
    basis = integral_basis_cubic(m)
    assert basis.index_used.degree == 0
    assert verify_basis(basis, m)


def test_cubic_basis_with_nontrivial_index():
    rng = random.Random(23)
    models = rand_cubic_models(rng, F7, 4, need_index=True)
    assert models
    for m, rep in models:
        basis = integral_basis_cubic(m, rep)
        assert basis.index_used == rep.index
        diag = verify_basis(basis, m, rep)
        assert diag, (m, diag)
        assert all(diag.integral)
        assert diag.disc_matches and diag.index_degree_ok


def test_gcd_split_invariants_enforced():
    # char >= 5: P | gcd(A, I) forces v_P(B) >= 2 and v_P(I) = 1 (Lemma);
    # the solver asserts G squarefree, G^3 | D, gcd(I/G, A) = 1 before solving
    rng = random.Random(5)
    for m, rep in rand_cubic_models(rng, F7, 6, need_index=True):
        basis = integral_basis_cubic(m, rep)
        assert verify_basis(basis, m, rep)


def test_perturbed_U_fails_with_named_congruence():
    rng = random.Random(29)
    models = rand_cubic_models(rng, F7, 3, need_index=True)
    for m, rep in models:
        basis = integral_basis_cubic(m, rep)
        beta = basis.elements[2]
        bad_beta = OrderElement(
            m, [beta.coords[0], beta.coords[1] + FqPoly.one(m.field), beta.coords[2]], beta.denominator
        )
        bad = IntegralBasis(m, [basis.elements[0], basis.elements[1], bad_beta], basis.index_used, {})
        diag = verify_basis(bad, m, rep)
        assert not diag
        assert diag.failing_congruence  # names which congruence broke


def test_basis_closure_under_multiplication():
    # products of basis elements re-expressed over the basis stay polynomial
    rng = random.Random(31)
    for m, rep in rand_cubic_models(rng, F7, 3, need_index=True):
        basis = integral_basis_cubic(m, rep)
        I = basis.index_used
        for e1 in basis.elements:
            for e2 in basis.elements:
                prod = e1 * e2
                assert is_integral(prod)


def test_char2_theorem_basis():
    m = CubicModel(parse_poly(F2, "x^2 + x + 1"), parse_poly(F2, "x^2"))
    rep = field_discriminant(m)
    basis = integral_basis_cubic(m, rep)
    assert verify_basis(basis, m, rep)


def _wild_bases_with_index(F, seed, max_degree):
    """Verify the solved basis of up to two models over F with nonconstant index; return how many."""
    rng = random.Random(seed)
    tried = 0
    found = 0
    while found < 2 and tried < 4000:
        tried += 1
        A = FqPoly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, max_degree))])
        B = FqPoly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 6))])
        try:
            m = CubicModel(A, B)
            rep = field_discriminant(m)
        except Exception:
            continue
        if not rep.complete or rep.index.degree < 1:
            continue
        try:
            basis = integral_basis_cubic(m, rep)
        except HypothesisRefused:
            continue
        diag = verify_basis(basis, m, rep)
        assert diag, (m, diag)
        found += 1
    return found


def test_char2_basis_with_index():
    # find char-2 models with nonconstant index and verify the solved bases
    for F in (F2, GF(2, 2), GF(2, 3)):
        assert _wild_bases_with_index(F, 41, 6), F


def test_char3_theorem_basis():
    for F in (F3, GF(3, 2)):
        assert _wild_bases_with_index(F, 43, 5), F


# -- quartic ------------------------------------------------------------------------


def _quartic_with_index(rng, count=2):
    out = []
    tried = 0
    while len(out) < count and tried < 6000:
        tried += 1
        A = FqPoly(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 4))])
        B = FqPoly(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 4))])
        C = FqPoly(F7, [rng.randrange(7) for _ in range(rng.randrange(2, 5))])
        try:
            m = QuarticModel(A, B, C)
            rep = field_discriminant(m)
        except Exception:
            continue
        if not rep.complete or rep.index.degree < 1:
            continue
        from funcfields.poly import is_squarefree

        if not is_squarefree(rep.index):
            continue
        out.append((m, rep))
    return out


def test_quartic_power_basis_for_constant_index():
    m = QuarticModel(pp("x"), pp("x^2"), pp("x^5"))
    rep = field_discriminant(m)
    if rep.index.degree == 0:
        basis = integral_basis_quartic(m, rep)
        assert len(basis.elements) == 4
        assert verify_basis(basis, m, rep)


def test_quartic_case_bases_satisfy_star_system():
    rng = random.Random(47)
    models = _quartic_with_index(rng)
    assert models, "no quartic with squarefree nontrivial index found"
    for m, rep in models:
        try:
            basis = integral_basis_quartic(m, rep)
        except HypothesisRefused as exc:
            # excluded Lemma case 3 or case 3.2 hypothesis; allowed refusals
            assert exc.hypothesis in ("excluded-case", "case-3.2-hypothesis", "index-squarefree")
            continue
        diag = verify_basis(basis, m, rep)
        assert diag, (m, diag, basis.congruences)


def test_quartic_case11_constructed():
    # P = x with C = 0 mod P^2, B = 0 mod P: U=0, V=-A, W=-B/2
    m = None
    rng = random.Random(53)
    while m is None:
        A = FqPoly(F7, [rng.randrange(7) for _ in range(2)])
        try:
            cand = QuarticModel(A, pp("x") * FqPoly(F7, [rng.randrange(7) for _ in range(2)]), pp("x^2") * FqPoly(F7, [rng.randrange(1, 7)]))
            rep = field_discriminant(cand)
        except Exception:
            continue
        if rep.complete and (rep.index % pp("x")).is_zero():
            from funcfields.poly import is_squarefree

            if is_squarefree(rep.index):
                m = cand
    basis = integral_basis_quartic(m, rep)
    assert verify_basis(basis, m, rep)
    assert basis.congruences["cases"][str(pp("x"))] in ("1.1", "1.2", "2.1")


def test_quartic_case12_pinned():
    # C = 0 mod P^2, B a unit and A a unit at P = x + 4: case 1.2's printed
    # U, V, W solve the system, so the direct search does not run
    F5 = GF(5)
    m = QuarticModel(pp("x^2 + 3*x + 4", F5), pp("2", F5), pp("4*x^3 + 2*x^2 + 4*x", F5))
    rep = field_discriminant(m)
    assert rep.complete and rep.index == pp("x + 4", F5)
    basis = integral_basis_quartic(m, rep)
    assert basis.congruences["cases"] == {"x + 4": "1.2"}
    assert verify_basis(basis, m, rep)


# -- the discriminant of a basis, over F_q[x] -----------------------------------------


def basis_discriminant_reference(basis):
    """det Tr(alpha_i alpha_j) over F_q(x) entries (Frac)."""
    els = basis.elements
    return laplace_det([[trace(a * b) for b in els] for a in els])


def _ledger_shaped(rng, p, degs, count):
    """Models with the coefficient degrees of the benchmark's ledger: (6, 9) cubics, (2, 3, 3) quartics."""
    F = GF(p)
    out = []
    while len(out) < count:
        coeffs = [FqPoly(F, [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]) for d in degs]
        try:
            m = CubicModel(*coeffs) if len(degs) == 2 else QuarticModel(*coeffs)
            rep = field_discriminant(m)
        except Exception:
            continue
        if rep.complete:
            out.append((m, rep))
    return out


def test_basis_discriminant_matches_rational_function_determinant():
    rng = random.Random(61)
    cases = [(CubicModel(pp("x^2"), FqPoly.one(F7)), None)]  # the analyze and basis demo model
    cases += rand_cubic_models(rng, F7, 3, need_index=True) + _quartic_with_index(rng)
    for p in (7, 11, 13):
        cases += _ledger_shaped(rng, p, (6, 9), 1) + _ledger_shaped(rng, p, (2, 3, 3), 1)
    denominators = 0
    for m, rep in cases:
        build = integral_basis_cubic if m.degree == 3 else integral_basis_quartic
        try:
            basis = build(m, rep)
        except HypothesisRefused:
            continue
        denominators += basis.index_used.degree > 0
        assert basis_discriminant(basis) == basis_discriminant_reference(basis), m
    assert denominators >= 4
