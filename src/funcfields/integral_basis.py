"""Integral bases of the maximal order.

Cubic: {1, y + W, (y^2 + U y + V)/I}, with U, V solved from per-modulus
congruences and glued by CRT; the two congruence families are the
characteristic >= 5 one and the wild one shared by characteristics 2 and
3.  Quartic: {1, y, y^2, (y^3 + U y^2 + V y + W)/I} for squarefree I, with
(U, V, W) chosen per place from the case table and verified against the
full congruence system mod I^2 afterwards.  The places of I and their
v_P(I) are read off the discriminant report's rows, the places of D that
field_discriminant signed.  verify_basis re-checks integrality, the
discriminant match and the change-of-basis degree from scratch.
"""

from dataclasses import dataclass

from .fq import digits
from .poly import (
    FqPoly,
    HypothesisRefused,
    InternalFault,
    crt,
    gp_roots,
    is_squarefree,
    poly_gcd,
    poly_inverse_mod,
    pth_power_witness,
)
from .places import FinitePlace
from .models import OrderElement, RationalFunction, is_integral, laplace_det, order_mul_coords, trace_coords
from .invariants import field_discriminant, wild_cubic_terms


@dataclass
class IntegralBasis:
    model: object
    elements: list  # OrderElement
    index_used: FqPoly
    congruences: dict  # name -> (value, modulus) used, for diagnostics

    def to_json(self):
        return {
            "elements": [e.to_json() for e in self.elements],
            "index": list(self.index_used.coeffs),
        }


def integral_basis_cubic(model, report=None):
    """F_q[x]-basis {1, y + W, (y^2 + U y + V)/I} of the maximal order."""
    F = model.field
    if report is None:
        report = field_discriminant(model)
    report.require_complete()
    I = report.index
    zero = FqPoly.zero(F)
    one = FqPoly.one(F)
    W = zero  # admissible for every W; fixed for determinism
    if I.degree == 0:
        basis = [model.element(one), model.element(W, one), model.element(zero, zero, one)]
        return IntegralBasis(model, basis, one, {})
    if F.p >= 5:
        U, V, cong = _cubic_uv_generic(model, I)
    else:
        U, V, cong = _cubic_uv_wild(model, report)
    beta = OrderElement(model, [V, U, one], I)
    basis = [model.element(one), model.element(W, one), beta]
    return IntegralBasis(model, basis, I, cong)


def _cubic_uv_generic(model, I):
    """U = 3B/2A mod I/G, U = 0 mod G; V = -(U^2 + A)/2 mod I^2."""
    F = model.field
    A, B = model.A, model.B
    G = poly_gcd(I, A) if not A.is_zero() else I.monic()
    IG = I.exact_div(G)
    # structural guarantees (Cor 2.3.2): G squarefree, G^3 | D, gcd(I/G, A) = 1
    if not is_squarefree(G):
        raise InternalFault("gcd(I, A) must be squarefree")
    D = model.discriminant()
    if not (D % G ** 3).is_zero():
        raise InternalFault("G^3 must divide D")
    if not A.is_zero() and IG.degree > 0 and poly_gcd(IG, A).degree != 0:
        raise InternalFault("I/G must be coprime to A")
    parts_r, parts_m = [], []
    if IG.degree > 0:
        two_A = A.scale(F.from_int(2))
        u1 = (B.scale(F.from_int(3)) * poly_inverse_mod(two_A % IG, IG)) % IG
        parts_r.append(u1)
        parts_m.append(IG)
    if G.degree > 0:
        parts_r.append(FqPoly.zero(F))
        parts_m.append(G)
    U = crt(parts_r, parts_m) if parts_r else FqPoly.zero(F)
    I2 = I * I
    half = F.inv(F.from_int(2))
    V = (-(U * U + A)).scale(half) % I2
    cong = {"U mod I/G": (U % IG if IG.degree else None, IG), "U mod G": (U % G if G.degree else None, G)}
    return U, V, cong


def _cubic_uv_wild(model, report):
    """U^p = c mod (I/G)^2, U = 0 mod G with G = gcd(I, c); V = 0 (p = 2) or U^2 mod I (p = 3).

    (c, wild signature) are those of wild_cubic_terms.  Every place with
    v_P(D) > (5 - p) v_P(c) must carry the wild signature (Theorem hypotheses).
    """
    F = model.field
    p = F.p
    I = report.index
    _, c, wild = wild_cubic_terms(model)
    for row in report.rows:
        if row.vD > (5 - p) * FinitePlace(row.P).val(c):
            sig = row.signature.require()
            if sig.flat() != wild:
                raise HypothesisRefused(
                    "signature-%s" % str(wild).replace(" ", ""), "place %s has signature %s" % (row.P, sig)
                )
    if any(row.vI > 1 for row in report.rows):
        raise InternalFault("index must be squarefree under the stated hypotheses")
    G = poly_gcd(I, c)
    IG = I.exact_div(G)
    parts_r, parts_m = [], []
    for P in [row.P for row in report.rows if row.vI]:
        if (c % P).is_zero():  # P | G
            w = FqPoly.zero(F)
        else:
            w = pth_power_witness(c, P)
            if w is None:
                raise InternalFault("c must be a p-th power mod P^2 whenever P | I/G")
        parts_r.append(w)
        parts_m.append(P)
    U = crt(parts_r, parts_m) if parts_r else FqPoly.zero(F)
    V = FqPoly.zero(F) if p == 2 else (U * U) % I
    return U, V, {"U^p = c mod (I/G)^2": (U, IG * IG)}


# ---------------------------------------------------------------------------
# quartic
# ---------------------------------------------------------------------------


def integral_basis_quartic(model, report=None):
    """{1, y, y^2, (y^3 + U y^2 + V y + W)/I} for squarefree index I."""
    F = model.field
    if F.p < 5:
        raise HypothesisRefused("characteristic", "quartic bases need characteristic >= 5")
    if report is None:
        report = field_discriminant(model)
    report.require_complete()
    I = report.index
    zero, one = FqPoly.zero(F), FqPoly.one(F)
    if I.degree == 0:
        basis = [
            model.element(one),
            model.element(zero, one),
            model.element(zero, zero, one),
            model.element(zero, zero, zero, one),
        ]
        return IntegralBasis(model, basis, one, {})
    if any(row.vI > 1 for row in report.rows):
        raise HypothesisRefused("index-squarefree", "quartic basis requires squarefree ind(y)")
    A, B, C = model.A, model.B, model.C
    third = F.inv(F.from_int(3))
    crit = (A * A).scale(third) + C.scale(F.from_int(4))  # A^2/3 + 4C
    inv2 = F.inv(F.from_int(2))
    parts = {"U": ([], []), "V": ([], []), "W": ([], [])}
    case_used = {}
    for P in [row.P for row in report.rows if row.vI]:
        if (crit % P).is_zero():
            raise HypothesisRefused(
                "excluded-case", "v_P(I)=1 with A^2/3 + 4C = 0 mod %s (Lemma case 3)" % P
            )
        P2 = P * P
        place = FinitePlace(P)
        vC = place.val(C) if not C.is_zero() else 3
        vB = place.val(B) if not B.is_zero() else 2
        vA = place.val(A) if not A.is_zero() else 2
        case, U, V, W = None, None, None, None
        if vC >= 2:
            if vB >= 1:
                case, U, V, W = "1.1", FqPoly.zero(F), (-A) % P2, (-B).scale(inv2) % P2
            elif vA == 0:
                case = "1.2"
                U = (-(B.scale(F.from_int(3)) * poly_inverse_mod((A + A) % P, P))) % P
                V = (-A).scale(F.mul(F.from_int(2), third)) % P2
                W = FqPoly.zero(F)
        elif vA >= 1:
            if vB == 0:
                case = "2.1"
                U = (C.scale(F.from_int(4)) * poly_inverse_mod(B.scale(F.from_int(3)) % P, P)) % P
                V = ((C * C).scale(F.mul(F.from_int(16), F.inv(F.from_int(9)))) * poly_inverse_mod((B * B) % P2, P2) - A - A) % P2
                W = (-B).scale(F.mul(F.from_int(3), F.inv(F.from_int(4)))) % P2
        elif vB >= 1:
            # case 3 with neither C = 0 mod P^2 nor A = 0 mod P
            disc2 = A * A - C.scale(F.from_int(4))
            if (disc2 % P).is_zero():
                raise HypothesisRefused(
                    "case-3.2-hypothesis",
                    "configuration the analysis supposes impossible at %s" % P,
                )
        if case is not None:
            res = _quartic_star_residues(model, U, V, W, P2)
            if any(not r.is_zero() for r in res.values()):
                # the printed congruences pin U mod P only; the system can
                # require a specific lift, so fall back to the direct solver
                case = None
        if case is None:
            case, U, V, W = _solve_star_at_place(model, P)
        case_used[str(P)] = case
        for name, val in (("U", U), ("V", V), ("W", W)):
            parts[name][0].append(val % P2)
            parts[name][1].append(P2)
    U = crt(*parts["U"]) if parts["U"][0] else zero
    V = crt(*parts["V"]) if parts["V"][0] else zero
    W = crt(*parts["W"]) if parts["W"][0] else zero
    resid = _quartic_star_residues(model, U, V, W, I * I)
    bad = [name for name, r in resid.items() if not r.is_zero()]
    if bad:
        raise InternalFault(
            "congruence system fails mod I^2 for %s: %s"
            % (", ".join(bad), {k: str(v) for k, v in resid.items()})
        )
    gamma = OrderElement(model, [W, V, U, one], I)
    basis = [
        model.element(one),
        model.element(zero, one),
        model.element(zero, zero, one),
        gamma,
    ]
    return IntegralBasis(model, basis, I, {"cases": case_used})


def _solve_star_at_place(model, P):
    """Solve the full congruence system mod P^2 for one place with v_P(I) = 1.

    U mod P must be a root of (A/2) U^2 + (3B/4) U - C in the residue field;
    each lift of U is tried with every V mod P^2, W following from the linear
    congruence, and the remaining congruences checked exactly.
    """
    F = model.field
    A, B, C = model.A, model.B, model.C
    K = FinitePlace(P).residue_field
    d = K.deg
    if F.q ** (3 * d) > 10 ** 6:
        raise HypothesisRefused("degree-budget", "congruence solving at %s is out of budget" % P)
    a_bar, b_bar, c_bar = K.embed(A), K.embed(B), K.embed(C)
    inv2 = K.from_base(F.inv(F.from_int(2)))
    inv4 = K.from_base(F.inv(F.from_int(4)))
    quad = [K.neg(c_bar), K.mul(K.mul(K.from_base(F.from_int(3)), b_bar), inv4), K.mul(a_bar, inv2)]
    while quad and quad[-1] == K.zero:
        quad.pop()
    if not quad or len(quad) == 1:
        candidates = list(K.iter_elements()) if not quad else []
    else:
        candidates = gp_roots(K, quad)
    P2 = P * P
    inv2_poly = F.inv(F.from_int(2))
    for u0 in candidates:
        base = K.lift(u0)
        for t in K.iter_elements():
            U = (base + K.lift(t) * P) % P2
            for V in _residues_mod(F, P2):
                W = ((-B - (U * (A + V)).scale(F.from_int(2))).scale(inv2_poly)) % P2
                res = _quartic_star_residues(model, U, V, W, P2)
                if all(r.is_zero() for r in res.values()):
                    return "solved", U, V, W
    raise InternalFault("no solution of the congruence system at %s despite v_P(I) = 1" % P)


def _residues_mod(F, modulus):
    d = int(modulus.degree)
    for idx in range(F.q ** d):
        yield FqPoly(F, digits(idx, F.q, d))


def _quartic_star_residues(model, U, V, W, mod):
    """The four congruences of the (star) system, reduced mod I^2."""
    A, B, C = model.A, model.B, model.C
    F = model.field
    two = FqPoly.const(F, F.from_int(2))
    S = A + U * U + V + V
    eq1 = (W * W - C * S) % mod
    eq2 = (B * S - two * (C * U - V * W)) % mod
    eq3 = (A * S - (C - two * U * (B + W) - V * V)) % mod
    eq4 = (two * U * (A + V) + B + two * W) % mod
    return {"W^2=C(A+U^2+2V)": eq1, "B(A+U^2+2V)=2(CU-VW)": eq2,
            "A(A+U^2+2V)=C-2U(B+W)-V^2": eq3, "2U(A+V)=-B-2W": eq4}


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass
class BasisDiagnostics:
    ok: bool
    integral: list
    disc_matches: bool
    index_degree_ok: bool
    failing_congruence: str = ""

    def __bool__(self):
        return self.ok


def basis_discriminant(basis):
    """disc(alpha_1, ..., alpha_n) = det Tr(alpha_i alpha_j), exact.

    With alpha_i = a_i / d_i for integral a_i, Tr(alpha_i alpha_j) =
    Tr(a_i a_j) / (d_i d_j), so the discriminant is det Tr(a_i a_j) over
    F_q[x], a symmetric matrix, divided once by (d_1 ... d_n)^2.
    """
    model = basis.model
    els = basis.elements
    n = len(els)
    rows = [[None] * n for _ in range(n)]
    for i, a in enumerate(els):
        for j in range(i, n):
            prod = order_mul_coords(model, a.coords, els[j].coords)
            rows[i][j] = rows[j][i] = trace_coords(model, prod)
    den = FqPoly.one(model.field)
    for e in els:
        den = den * e.denominator
    return RationalFunction(laplace_det(rows), den * den)


def verify_basis(basis, model=None, report=None):
    """Integrality, discriminant match and change-of-basis degree check."""
    if model is None:
        model = basis.model
    if report is None:
        report = field_discriminant(model)
    report.require_complete()
    integral_flags = [is_integral(e) for e in basis.elements]
    disc = basis_discriminant(basis)
    ok_disc = False
    if disc.is_polynomial():
        d = disc.as_polynomial()
        Delta = report.Delta
        if not d.is_zero() and d.degree == Delta.degree:
            # disc(basis) * I^2 = D up to a nonzero square constant of F_q
            ratio = model.field.div(d.sgn, report.D.sgn)
            ok_disc = d.monic() == Delta and model.field.is_square(ratio)
    # change of basis from {1, y, y^2 [, y^3]} has determinant of degree deg I
    deg_I = basis.index_used.degree
    dens = [e.denominator for e in basis.elements]
    prod_deg = sum(int(dd.degree) for dd in dens)
    index_ok = prod_deg == deg_I
    failing = ""
    if basis.index_used.degree > 0:
        if model.degree == 4:
            gamma = basis.elements[3]
            resid = _quartic_star_residues(
                model, gamma.coords[2], gamma.coords[1], gamma.coords[0], basis.index_used ** 2
            )
        else:
            beta = basis.elements[2]
            resid = _cubic_congruence_residues(model, beta.coords[1], beta.coords[0], basis.index_used)
        for name, r in resid.items():
            if not r.is_zero():
                failing = name
                break
    ok = all(integral_flags) and ok_disc and index_ok and not failing
    return BasisDiagnostics(ok, integral_flags, ok_disc, index_ok, failing)


def _cubic_congruence_residues(model, U, V, I):
    """Residues of the congruence system the basis element was solved from.

    This is the constructive (sufficient) system, modulo I^2 for the index
    I; verify_basis uses it to name the failing congruence for perturbed
    inputs.
    """
    A, B = model.A, model.B
    F = model.field
    mod = I * I
    if F.p < 5:
        # f = T^3 - A T + B: f'(U) = 0 mod I and f(U) = 0 mod I^2
        three = FqPoly.const(F, F.from_int(3))
        eq1 = (three * U * U - A) % I
        eq2 = (U ** 3 - A * U + B) % mod
        return {"f'(U)=0 mod I": eq1, "f(U)=0 mod I^2": eq2}
    two = FqPoly.const(F, F.from_int(2))
    eq1 = (V * V - two * B * U) % mod
    eq2 = (two * U * (A + V) - B) % mod
    eq3 = (A + V + V + U * U) % mod
    return {"V^2=2BU": eq1, "2U(A+V)=B": eq2, "A+2V+U^2=0": eq3}

