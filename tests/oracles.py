"""Reference checks that the tests run against the package.

Each restates a count, a definition or an identity directly: the necklace
count of monic irreducibles, distinct-degree factoring by repeated powers,
a factorization multiplied out, the standard-form divisor place by place,
Tr(alpha) as a fraction, the local Euler factor of a zeta tuple, the rows
of a ZetaData degree with every signature decided, h' = h f / R, the
divisor search with the closed norm of every triple and the valuation sum
over the places above P.  The tests compare the package's
own paths with them; no command needs them, so they live here.
"""

from fractions import Fraction

from funcfields import (
    FinitePlace,
    FqPoly,
    HypothesisRefused,
    InfinitePlace,
    InternalFault,
    RationalFunction,
    UnknownSignature,
    newton_slopes,
    signature_at,
)
from funcfields.class_number import _check_witness, _is_pth_power_up_to_unit
from funcfields.fq import _prime_factors, digits
from funcfields.models import closed_norm_cubic, norm, trace_coords
from funcfields.poly import factorize, gp_divmod, gp_gcd, gp_irreducible, gp_mod, gp_pow_mod, gp_sub, poly_gcd
from funcfields.signature import valuation_assignments


# -- F_q[x] -----------------------------------------------------------------------


def count_monic_irreducibles_necklace(q, m):
    """(1/m) sum_{d|m} mu(d) q^(m/d)."""
    total = 0
    for d in range(1, m + 1):
        if m % d == 0:
            total += _moebius(d) * q ** (m // d)
    return total // m


def _moebius(n):
    if n == 1:
        return 1
    fac = _prime_factors(n)
    if len(set(fac)) != len(fac):
        return 0
    return -1 if len(fac) % 2 else 1


def is_irreducible(f):
    if f.degree < 1:
        raise ValueError("irreducibility undefined for constants")
    return gp_irreducible(f.field, list(f.monic().coeffs))


def distinct_degree_by_powers(K, f):
    """gp_distinct_degree's output, each x^(q^d) by square-and-multiply modulo what is left of f."""
    out = []
    h = x = [K.zero, K.one]
    rest = list(f)
    d = 0
    while len(rest) - 1 >= 1:
        d += 1
        if 2 * d > len(rest) - 1:
            out.append((len(rest) - 1, rest))
            break
        h = gp_pow_mod(K, h, K.order, rest)
        g = gp_gcd(K, gp_sub(K, h, x), rest)
        if len(g) > 1:
            out.append((d, g))
            rest = gp_divmod(K, rest, g)[0]
            h = gp_mod(K, h, rest)
    return out


def factorization_value(fac, field):
    """unit * prod factor^mult of a Factorization, multiplied out."""
    out = FqPoly(field, (fac.unit,))
    for f, m in fac.factors:
        out = out * f ** m
    return out


def standard_form_divisor_by_places(*coeffs):
    """Largest monic Q with Q^k | f (k = 2, 3, 4) for nonzero-not-all (A, B[, C]):
    prod P^e over the P dividing every nonzero f, e = min v_P(f) // k."""
    nonzero = [(f, k) for k, f in enumerate(coeffs, 2) if not f.is_zero()]
    basis = nonzero[0][0]
    for f, _ in nonzero[1:]:
        basis = poly_gcd(basis, f)
    out = FqPoly.one(basis.field)
    for P, _ in factorize(basis):
        place = FinitePlace(P)
        out = out * P ** min(place.val(f) // k for f, k in nonzero)
    return out


# -- F_q(x) and the order ---------------------------------------------------------


class Frac(RationalFunction):
    """RationalFunction with + - * and ==, for reference computations over F_q(x)."""

    __slots__ = ()

    def __add__(self, other):
        return Frac(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return Frac(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return Frac(self.num * other.num, self.den * other.den)

    def __eq__(self, other):
        return isinstance(other, RationalFunction) and (self.num, self.den) == (other.num, other.den)

    __hash__ = None


def fracs(cs):
    """RationalFunction coefficients as Frac, so lists of them compare."""
    return [Frac(c.num, c.den) for c in cs]


def trace(alpha):
    """Tr(alpha) to F_q(x), from the power sums of y (models.trace_coords)."""
    return Frac(trace_coords(alpha.model, alpha.coords), alpha.denominator)


def pole_divisor_degree(model):
    """deg div(y)_- = max of the coefficient degrees (Cor 2.1.2 / Prop 3.1.1)."""
    degs = [model.n1, model.n0] if model.degree == 3 else [model.n2, model.n1, model.n0]
    degs = [d for d in degs if d != float("-inf")]
    return int(max(degs))


def is_unit(model, alpha):
    """alpha in O*: its norm is a nonzero constant."""
    if alpha.denominator.degree > 0:
        return False
    n = norm(alpha).as_polynomial()
    return (not n.is_zero()) and n.degree == 0


# -- zeta tuples and class numbers ------------------------------------------------


def _root_name(exp):
    return {0: "1", 3: "w4", 4: "w3", 6: "-1", 8: "w3^2", 9: "w4^3"}.get(exp, "z^%d" % exp)


def zeta_symbols(tup):
    """The entries of a ZetaFactorTuple as names of 12th roots of unity, "0" for zero."""
    return tuple("0" if e is None else _root_name(e) for e in tup.entries)


def local_factor(tup, q, m):
    """Exact rational q^{(n-1)m} / prod (q^m - z_i) = prod 1/(1 - z_i q^-m)."""
    u = Fraction(1, q ** m)
    num = 1 - u
    den = Fraction(1)
    for f in tup.degrees:
        den *= 1 - u ** f
    return num / den


def search_h_divisor_reference(model, p, max_coord_degree=1):
    """search_h_divisor's walk over the triples (a, b, c), with N(a + b y + c y^2)
    from closed_norm_cubic at every triple; no budget or hypothesis checks."""
    F = model.field
    q, d = F.q, max_coord_degree
    size = q ** (d + 1)
    inf = signature_at(model, InfinitePlace(F))
    single_infinite = inf.require().place_count == 1
    spent = [0]
    for c_idx in range(size):
        c = FqPoly(F, digits(c_idx, q, d + 1))
        for b_idx in range(size):
            bb = FqPoly(F, digits(b_idx, q, d + 1))
            if bb.is_zero() and c.is_zero():
                continue
            for a_idx in range(size):
                a = FqPoly(F, digits(a_idx, q, d + 1))
                nrm = closed_norm_cubic(model, a, bb, c)
                if nrm.is_zero() or not _is_pth_power_up_to_unit(nrm, p):
                    continue
                witness = _check_witness(model, model.element(a, bb, c), nrm, p, inf, single_infinite, d, spent)
                if witness is not None:
                    return witness
    return None


def require_finite(zeta, degree):
    """zeta.finite(degree), raising UnknownSignature at its first undecided row."""
    rows = zeta.finite(degree)
    for P, res in rows:
        if not res.known:
            raise UnknownSignature(
                res.unknown_reason or "unknown",
                "signature of P = %s unresolved (needed to degree %d)" % (P, degree),
            )
    return rows


def h_prime(h, R, f):
    """Ideal class number h' = h f / R; integrality asserted."""
    val = Fraction(h) * Fraction(f) / Fraction(R)
    if val.denominator != 1:
        raise InternalFault("h' = h f / R is not integral: %s" % val)
    return int(val)


# -- the valuation-sum identity -----------------------------------------------------


def verify_valuation_sum(model, P):
    """For standard-form cubics: sum over P'|P of v_{P'}(y) f(P'|P) = v_P(B)."""
    place = P if isinstance(P, FinitePlace) else FinitePlace(P)
    return _valuation_sum(model, place, int(place.val(model.B)))


def verify_valuation_sum_infinite(model):
    """Infinite analogue: sum v_{P'}(y) f = -deg(B) when 0 <= deg A <= deg B."""
    return _valuation_sum(model, InfinitePlace(model.field), -int(model.B.degree))


def _valuation_sum(model, place, target):
    """(ok, msg): does sum over P'|place of v_{P'}(y) f(P'|place) equal target?

    One check for both kinds of place.  The left side is evaluated through
    the signature tables plus the Newton-slope matching, so this genuinely
    cross-checks the case analysis.
    """
    if model.degree != 3:
        raise ValueError("valuation-sum identity implemented for cubic models")
    if place.is_infinite and not model.A.is_zero() and model.A.degree > model.B.degree:
        raise HypothesisRefused("degree-order", "needs deg A <= deg B")
    sig = signature_at(model, place).require()
    coeffs = [model.B, -model.A, FqPoly.zero(model.field), FqPoly.one(model.field)]
    assigns = valuation_assignments(sig, newton_slopes(coeffs, place))
    if not assigns:
        return False, "no consistent valuation assignment for signature %s" % sig
    fs = [f for _, f in sig.pairs]
    for a in assigns:
        total = sum(f * v for f, v in zip(fs, a))
        if total != target:
            return False, "assignment %s sums to %s != %s" % (a, total, target)
    return True, "ok"
