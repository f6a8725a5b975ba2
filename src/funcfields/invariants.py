"""Field discriminant, index of y, genus and unit rank.

The model discriminant D and the field discriminant Delta are tied by
D = I^2 Delta with I = ind(y).  For tame places (always, in characteristic
at least 5) v_P(Delta) is the ramification defect of the P-signature; the
characteristic 2 and 3 cases use the wild-place case tables instead, and
the quartic leftover cases fall back to parity rules on v_P(D).
"""

from dataclasses import dataclass, field as dc_field

from .poly import (
    FqPoly,
    HypothesisRefused,
    InternalFault,
    UnknownSignature,
    factorize,
    gp_factorize_separable,
    gp_gcd,
    gp_mul,
    residue_power_test,
    squarefree_decomposition,
)
from .places import FinitePlace
from .signature import infinite_signature, signature_at


def disc_valuation_cubic(model, P):
    """v_P(Delta) for a cubic model; P a monic irreducible or FinitePlace."""
    place = P if isinstance(P, FinitePlace) else FinitePlace(P)
    p = model.field.p
    if p >= 5:
        return _disc_val_cubic_generic(model, place)
    if p == 2:
        return _disc_val_cubic_char2(model, place)[0]
    return _disc_val_cubic_char3(model, place)[0]


def _disc_val_cubic_generic(model, place):
    A, B = model.A, model.B
    m1 = int(place.val(A)) if not A.is_zero() else None
    m0 = int(place.val(B))
    if m1 is None:
        m1_ge = True  # v(0) dominates everything
    else:
        m1_ge = m1 >= m0
    if m0 >= 1 and m1_ge:
        return 2
    vD = int(place.val(model.discriminant()))
    if vD % 2:
        return 1
    if m0 == 0 or (m1 is not None and m1 == 0):
        return 0
    # v_P(D) even with both coefficients divisible by P but v(A) < v(B):
    # then v(A) = 1 by standard form and v(D) = 3, odd -- unreachable.
    raise InternalFault("cubic discriminant case analysis fell through")


def _disc_val_cubic_char2(model, place):
    """(v_P(Delta), v_P(I)) in characteristic 2 (Lemma 2.3.4 logic); B cubefree."""
    A, B = model.A, model.B
    if not _is_cubefree(B):
        raise HypothesisRefused("B-cubefree", "characteristic 2 discriminant needs B cubefree")
    m0 = int(place.val(B))
    if m0 == 0:
        return 0, 0
    vD = 2 * m0
    m1 = place.val(A)
    sig_res = signature_at(model, place)
    sig = sig_res.require()
    if sig.is_tame(2):
        vd = sig.ramification_defect()
        return vd, (vD - vd) // 2
    # wild: the (1,1,2,1) shape; index per the case table
    if sig.flat() != (1, 1, 2, 1):
        raise InternalFault("unexpected wild signature %s in characteristic 2" % sig)
    if m0 == 1:
        vI = 0
    elif m1 == 0:
        vI = 1 if residue_power_test(A, place.P, 2, 2) else 0
    else:
        vI = 1
    return vD - 2 * vI, vI


def _disc_val_cubic_char3(model, place):
    """(v_P(Delta), v_P(I)) in characteristic 3 (Lemma 2.3.6 logic); A nonzero cubefree."""
    A, B = model.A, model.B
    if A.is_zero():
        raise HypothesisRefused("A-nonzero", "characteristic 3 needs A != 0 (else D = 0)")
    if not _is_cubefree(A):
        raise HypothesisRefused("A-cubefree", "characteristic 3 discriminant needs A cubefree")
    m1 = int(place.val(A))
    if m1 == 0:
        return 0, 0
    vD = 3 * m1
    m0 = place.val(B)
    sig_res = signature_at(model, place)
    sig = sig_res.require()
    if sig.is_tame(3):
        vd = sig.ramification_defect()
        return vd, (vD - vd) // 2
    if sig.flat() != (3, 1):
        raise InternalFault("unexpected wild signature %s in characteristic 3" % sig)
    if m1 == 1:
        vI = 0
    elif m0 == 0:
        vI = 1 if residue_power_test(-B, place.P, 3, 2) else 0
    else:
        vI = 1 if int(m0) == 2 else 0
    return vD - 2 * vI, vI


def _is_cubefree(f):
    return all(mult <= 2 for mult, _ in squarefree_decomposition(f))


def disc_valuation_quartic(model, P, sig_result=None):
    """v_P(Delta) for a quartic model (characteristic >= 5).

    Places with a decided signature are tame, so the defect applies.  For
    the leftover cases the published parity rules are not always sound (two
    repeated reduction factors can hide a second ramified place), so the
    index side is settled exactly.  v_P(D) = 2 v_P(I) + v_P(Delta) makes
    v_P(I) = 0 when v_P(D) <= 1; otherwise Dedekind's criterion decides
    whether P divides ind(y), and v_P(D) <= 3 then pins v_P(Delta) down.
    `sig_result` is the P-signature when the caller already has it.
    """
    place = P if isinstance(P, FinitePlace) else FinitePlace(P)
    if sig_result is None:
        sig_result = signature_at(model, place)
    if sig_result.known:
        return sig_result.require().ramification_defect()
    vD = int(place.val(model.discriminant()))
    if vD < 2 or dedekind_index_coprime(model, place):
        return vD
    if vD <= 3:
        # v_P(I) >= 1 together with v_P(D) = 2 v_P(I) + v_P(Delta) >= 0
        return vD - 2
    raise UnknownSignature(
        sig_result.unknown_reason or "unknown",
        "P divides ind(y) and v_P(D) = %d leaves v_P(Delta) ambiguous" % vD,
    )


def dedekind_index_coprime(model, place):
    """Dedekind's criterion: does P not divide the index ind(y)?

    With f-bar = prod g_i^{e_i} over the residue field, lift g = prod G_i and
    h = prod G_i^{e_i - 1}; then P does not divide [O : F_q[x][y]] exactly
    when ((g h - f)/P) mod P is coprime to gcd(g-bar, h-bar).
    """
    K = place.residue_field
    F = model.field
    fc = [c for c in model.defining_coeffs()] + [FqPoly.one(F)]
    fbar = [K.embed(c) for c in fc]
    factors = gp_factorize_separable(K, fbar, seed=0)
    one_t = [FqPoly.one(F)]
    g_lift = one_t
    h_lift = one_t
    gbar = [K.one]
    hbar = [K.one]
    for gi, ei in factors:
        lift = [K.lift(c) for c in gi]
        g_lift = _tv_mul(g_lift, lift)
        gbar = gp_mul(K, gbar, list(gi))
        for _ in range(ei - 1):
            h_lift = _tv_mul(h_lift, lift)
            hbar = gp_mul(K, hbar, list(gi))
    prod = _tv_mul(g_lift, h_lift)
    diff = _tv_sub(prod, fc, F)
    tbar = []
    for c in diff:
        tbar.append(K.embed(c.exact_div(place.P)) if not c.is_zero() else K.zero)
    while tbar and tbar[-1] == K.zero:
        tbar.pop()
    common = gp_gcd(K, gbar, hbar)
    if len(common) <= 1:
        return True
    if not tbar:
        return False
    return len(gp_gcd(K, tbar, common)) <= 1


def _tv_mul(a, b):
    """Product of polynomials in T with FqPoly coefficients."""
    F = a[0].field
    out = [FqPoly.zero(F)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai.is_zero():
            for j, bj in enumerate(b):
                if not bj.is_zero():
                    out[i + j] = out[i + j] + ai * bj
    return out


def _tv_sub(a, b, F):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else FqPoly.zero(F)
        y = b[i] if i < len(b) else FqPoly.zero(F)
        out.append(x - y)
    return out


@dataclass
class PlaceRow:
    P: FqPoly
    vD: int
    vI: int
    vDelta: int
    signature: object  # SignatureResult or None when only the valuation is known
    tame: bool


@dataclass
class DiscriminantReport:
    model: object
    D: FqPoly
    Delta: FqPoly  # monic
    index: FqPoly  # monic
    unit: int  # constant with D = unit * index^2 * Delta
    rows: list
    unknown_places: list = dc_field(default_factory=list)

    @property
    def complete(self):
        return not self.unknown_places

    def require_complete(self):
        if not self.complete:
            raise UnknownSignature(
                "partial-discriminant",
                "unresolved places: %s" % ", ".join(str(p) for p in self.unknown_places),
            )
        return self

    def to_json(self):
        return {
            "D": list(self.D.coeffs),
            "Delta": list(self.Delta.coeffs),
            "index": list(self.index.coeffs),
            "unit": self.unit,
            "places": [
                {
                    "P": str(r.P),
                    "vD": r.vD,
                    "vI": r.vI,
                    "vDelta": r.vDelta,
                    "signature": r.signature.to_json() if r.signature is not None else None,
                }
                for r in self.rows
            ],
            "unknown": [str(p) for p in self.unknown_places],
        }


def field_discriminant(model):
    """Delta and I = ind(y) from the per-place case analysis; may be partial."""
    F = model.field
    p = F.p
    if model.degree == 3 and p == 2 and not _is_cubefree(model.B):
        raise HypothesisRefused("B-cubefree", "characteristic 2 discriminant needs B cubefree")
    if model.degree == 3 and p == 3:
        if model.A.is_zero():
            raise HypothesisRefused("A-nonzero", "characteristic 3 needs A != 0 (else D = 0)")
        if not _is_cubefree(model.A):
            raise HypothesisRefused("A-cubefree", "characteristic 3 discriminant needs A cubefree")
    D = model.discriminant()
    rows = []
    unknown = []
    Delta = FqPoly.one(F)
    index = FqPoly.one(F)
    for P, mult in factorize(D):
        place = FinitePlace(P)
        vD = mult
        try:
            if model.degree == 3:
                if p >= 5:
                    vDelta = _disc_val_cubic_generic(model, place)
                    vI = (vD - vDelta) // 2
                    sig_res = None
                elif p == 2:
                    vDelta, vI = _disc_val_cubic_char2(model, place)
                    sig_res = None
                else:
                    vDelta, vI = _disc_val_cubic_char3(model, place)
                    sig_res = None
            else:
                sig_res = signature_at(model, place)
                vDelta = disc_valuation_quartic(model, place, sig_res)
                vI = (vD - vDelta) // 2
        except (UnknownSignature, HypothesisRefused):
            unknown.append(P)
            continue
        if vD != 2 * vI + vDelta:
            raise InternalFault(
                "v_P(D) = %d but 2 v_P(I) + v_P(Delta) = %d at P = %s" % (vD, 2 * vI + vDelta, P)
            )
        if sig_res is None:
            sig_res = signature_at(model, place)
        rows.append(PlaceRow(P, vD, vI, vDelta, sig_res,
                             tame=bool(sig_res.known and sig_res.signature.is_tame(p))))
        Delta = Delta * P ** vDelta
        index = index * P ** vI
    report = DiscriminantReport(model, D, Delta, index, unit=D.sgn, rows=rows, unknown_places=unknown)
    if report.complete and D.degree != 2 * index.degree + Delta.degree:
        raise InternalFault("degree ledger broken: deg D != 2 deg I + deg Delta")
    return report


@dataclass
class GenusReport:
    genus: int
    delta_infinity: int
    disc_degree: int

    def to_json(self):
        return {
            "genus": self.genus,
            "delta_infinity": self.delta_infinity,
            "disc_degree": self.disc_degree,
        }


def genus(model, report=None, infinite=None):
    """Hurwitz genus from deg(Delta) and the infinite ramification defect."""
    if report is None:
        report = field_discriminant(model)
    report.require_complete()
    if infinite is None:
        infinite = infinite_signature(model)
    sig = infinite.require()
    p = model.field.p
    if not sig.is_tame(p):
        # wild infinite place: Dedekind equality fails; the Hurwitz input would
        # need the true different degree, which the tables do not provide
        raise UnknownSignature("wild-infinite-place", "genus needs a tame infinite place")
    d_inf = sig.ramification_defect()
    num = report.Delta.degree + d_inf - 2 * model.degree
    if num % 2:
        raise InternalFault("Hurwitz numerator is odd")
    g = num // 2 + 1
    if g < 0:
        # impossible for a function field with exact constant field F_q; the
        # model hides a constant subextension the formula cannot see
        raise HypothesisRefused(
            "constant-field", "Hurwitz genus is negative; constants must extend F_q"
        )
    return GenusReport(genus=g, delta_infinity=d_inf, disc_degree=int(report.Delta.degree))


def unit_rank(model, infinite=None):
    """Number of infinite places minus one (Dirichlet)."""
    if infinite is None:
        infinite = infinite_signature(model)
    return infinite.require().place_count - 1
