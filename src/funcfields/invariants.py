"""Field discriminant, index of y, genus and unit rank.

The model discriminant D and the field discriminant Delta are tied by
D = I^2 Delta with I = ind(y).  For tame places (always, in characteristic
at least 5) v_P(Delta) is the ramification defect of the P-signature; wild
cubic places in characteristic 2 and 3 use one case table instead, and
the quartic leftover cases fall back to parity rules on v_P(D).  The genus
needs only deg Delta: without a report it comes from the squarefree
decomposition of D, where a part of multiplicity 1 adds its degree and
only the places with v_P(D) >= 2 are factored and signed.
"""

from dataclasses import dataclass, field as dc_field

from . import signature
from .poly import (
    FqPoly,
    HypothesisRefused,
    InternalFault,
    UnknownSignature,
    factorize,
    gp_derivative,
    gp_divmod,
    gp_gcd,
    gp_trim,
    irreducible_factors,
    pth_power_witness,
    squarefree_decomposition,
)
from .places import FinitePlace
from .signature import infinite_signature, signature_at


def disc_valuation_cubic(model, P, sig_result=None):
    """v_P(Delta) for a cubic model; P a monic irreducible or FinitePlace.

    At a tame place (every place, in characteristic at least 5) this is the
    ramification defect of the P-signature; wild places in characteristic 2
    and 3 follow the one case table of _disc_val_cubic_wild.  `sig_result`
    is the P-signature when the caller already has it.
    """
    place = P if isinstance(P, FinitePlace) else FinitePlace(P)
    wild = model.field.p < 5
    if wild:
        _check_wild_hypotheses(model)
    if sig_result is None:
        sig_result = signature_at(model, place)
    if wild:
        return _disc_val_cubic_wild(model, place, sig_result)[0]
    return sig_result.require().ramification_defect()


def wild_cubic_terms(model):
    """(W, c, wild signature) for a cubic in characteristic p in {2, 3}.

    D = W^p: W = B and c = A for p = 2, W = A and c = -B for p = 3.  The
    basis theorems suppose the wild signature at every place with
    v_P(D) > (5 - p) v_P(c), that is 3 v_P(A) < 2 v_P(B) for p = 2 and
    3 v_P(A) > 2 v_P(B) for p = 3.
    """
    if model.field.p == 2:
        return model.B, model.A, (1, 1, 2, 1)
    return model.A, -model.B, (3, 1)


def _check_wild_hypotheses(model):
    """Characteristic 2 needs B cubefree; characteristic 3 needs A nonzero and cubefree."""
    if model.field.p == 2:
        if not _is_cubefree(model.B):
            raise HypothesisRefused("B-cubefree", "characteristic 2 discriminant needs B cubefree")
        return
    if model.A.is_zero():
        raise HypothesisRefused("A-nonzero", "characteristic 3 needs A != 0 (else D = 0)")
    if not _is_cubefree(model.A):
        raise HypothesisRefused("A-cubefree", "characteristic 3 discriminant needs A cubefree")


def _is_cubefree(f):
    return all(mult <= 2 for mult, _ in squarefree_decomposition(f))


def _disc_val_cubic_wild(model, place, sig_result):
    """(v_P(Delta), v_P(I)) in characteristic p in {2, 3} (Lemmas 2.3.4, 2.3.6).

    v_P(D) = p m with m = v_P(W) <= 2, W being cubefree.  A tame place gives
    the defect.  At a wild one v_P(I) = 0 when m = 1; when m = 2 and P does
    not divide c, v_P(I) = 1 exactly when c is a p-th power mod P^2, and
    otherwise v_P(I) = 1 for p = 2 and [v_P(B) = 2] for p = 3.
    """
    p = model.field.p
    W, c, wild = wild_cubic_terms(model)
    m = int(place.val(W))
    if m == 0:
        return 0, 0
    vD = p * m
    sig = sig_result.require()
    if sig.is_tame(p):
        vd = sig.ramification_defect()
        return vd, (vD - vd) // 2
    if sig.flat() != wild:
        raise InternalFault("unexpected wild signature %s in characteristic %d" % (sig, p))
    vc = place.val(c)
    if m == 1:
        vI = 0
    elif vc == 0:
        vI = 0 if pth_power_witness(c, place.P) is None else 1
    else:
        vI = 1 if p == 2 or vc == 2 else 0
    return vD - 2 * vI, vI


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

    With f-bar = prod g_i^{e_i} over k(P), g-bar = prod g_i and h-bar =
    prod g_i^{e_i - 1} lifted to g and h, P does not divide [O : F_q[x][y]]
    exactly when ((g h - f)/P) mod P is coprime to gcd(g-bar, h-bar).  Here
    char k(P) > deg f, so h-bar = gcd(f-bar, f-bar') and g-bar = f-bar /
    h-bar need no factoring, and any lifts do: g + P u moves the residue of
    (g h - f)/P by u-bar h-bar.
    """
    K = place.residue_field
    F = model.field
    fc = model.defining_coeffs() + [FqPoly.one(F)]
    if K.char <= len(fc) - 1:
        raise ValueError("Dedekind's criterion needs characteristic > degree")
    fbar = [K.embed(c) for c in fc]
    hbar = gp_gcd(K, fbar, gp_derivative(K, fbar))
    gbar = gp_divmod(K, fbar, hbar)[0]
    common = gp_gcd(K, gbar, hbar)
    if len(common) <= 1:
        return True
    g, h = ([K.lift(c) for c in cs] for cs in (gbar, hbar))
    # g h and f are both monic of degree deg f
    tbar = gp_trim(K, [K.embed((a - b).exact_div(place.P)) for a, b in zip(_tv_mul(g, h), fc)])
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
            raise _unresolved(self.unknown_places)
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


def _unresolved(places):
    return UnknownSignature("partial-discriminant", "unresolved places: %s" % ", ".join(map(str, places)))


def _place_valuations(model, P, vD, wild):
    """(v_P(Delta), v_P(I), P-signature) where v_P(D) = vD > 0; raises where the
    place is undecided, and InternalFault when v_P(D) != 2 v_P(I) + v_P(Delta)."""
    place = FinitePlace(P)
    sig_res = signature_at(model, place)
    if wild:
        vDelta, vI = _disc_val_cubic_wild(model, place, sig_res)
    else:
        valuation = disc_valuation_cubic if model.degree == 3 else disc_valuation_quartic
        vDelta = valuation(model, place, sig_res)
        vI = (vD - vDelta) // 2
    if vD != 2 * vI + vDelta:
        raise InternalFault("v_P(D) = %d but 2 v_P(I) + v_P(Delta) = %d at P = %s" % (vD, 2 * vI + vDelta, P))
    return vDelta, vI, sig_res


def field_discriminant(model):
    """Delta and I = ind(y) from the per-place case analysis; may be partial."""
    F = model.field
    p = F.p
    wild = model.degree == 3 and p < 5
    if wild:
        _check_wild_hypotheses(model)
    D = model.discriminant()
    rows = []
    unknown = []
    Delta = FqPoly.one(F)
    index = FqPoly.one(F)
    for P, vD in factorize(D):
        try:
            vDelta, vI, sig_res = _place_valuations(model, P, vD, wild)
        except (UnknownSignature, HypothesisRefused):
            unknown.append(P)
            continue
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


def _delta_degree(model):
    """deg Delta from the squarefree decomposition of D, with field_discriminant's checks.

    Where v_P(D) = 1, D = I^2 Delta gives v_P(Delta) = 1, so that part adds
    its degree unfactored; only the places with v_P(D) >= 2 are signed.  Under
    signature.SELF_CHECK the degree and the unresolved places are field_discriminant's.
    """
    wild = model.degree == 3 and model.field.p < 5
    if wild:
        _check_wild_hypotheses(model)
    n, unknown = 0, []
    for vD, part in squarefree_decomposition(model.discriminant()):
        if vD == 1:
            n += part.degree
            continue
        for P in irreducible_factors(part):
            try:
                n += P.degree * _place_valuations(model, P, vD, wild)[0]
            except (UnknownSignature, HypothesisRefused):
                unknown.append(P)
    unknown.sort(key=FqPoly.sort_key)
    if signature.SELF_CHECK:
        report = field_discriminant(model)
        if unknown != report.unknown_places or (not unknown and n != report.Delta.degree):
            raise InternalFault("deg Delta = %d, unresolved %s from the squarefull part of D; %d, %s from the ledger"
                                % (n, unknown, report.Delta.degree, report.unknown_places))
    if unknown:
        raise _unresolved(unknown)
    return n


def genus(model, report=None, infinite=None):
    """Hurwitz genus from deg(Delta) and the infinite ramification defect.

    Without a report deg Delta comes from _delta_degree, which factors D only
    where v_P(D) >= 2.
    """
    disc_degree = _delta_degree(model) if report is None else report.require_complete().Delta.degree
    if infinite is None:
        infinite = infinite_signature(model)
    sig = infinite.require()
    p = model.field.p
    if not sig.is_tame(p):
        # wild infinite place: Dedekind equality fails; the Hurwitz input would
        # need the true different degree, which the tables do not provide
        raise UnknownSignature("wild-infinite-place", "genus needs a tame infinite place")
    d_inf = sig.ramification_defect()
    num = disc_degree + d_inf - 2 * model.degree
    if num % 2:
        raise InternalFault("Hurwitz numerator is odd")
    g = num // 2 + 1
    if g < 0:
        # impossible for a function field with exact constant field F_q; the
        # model hides a constant subextension the formula cannot see
        raise HypothesisRefused(
            "constant-field", "Hurwitz genus is negative; constants must extend F_q"
        )
    return GenusReport(genus=g, delta_infinity=d_inf, disc_degree=int(disc_degree))


def unit_rank(model, infinite=None):
    """Number of infinite places minus one (Dirichlet)."""
    if infinite is None:
        infinite = infinite_signature(model)
    return infinite.require().place_count - 1
