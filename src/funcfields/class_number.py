"""Divisor class numbers: estimates with proven intervals, and an exact oracle.

The zeta function splits into an infinite part and local factors indexed by
the finite places; each factor is determined by the multiset of relative
degrees of the signature through a tuple of roots of unity.  Power sums of
those tuples are exact integers (sum over f of f*[f divides n], minus one),
so the truncated Euler product E' is an exact rational; only the tail bound
Psi is floating point, computed with an upward nudge.

At desk scale the class number itself is exact: place counts up to degree g
determine the first half of the L-polynomial, the functional equation the
rest, and h = L(1), validated against the Hasse-Weil bounds and the
root-modulus condition.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .fq import digits, is_prime
from .poly import (
    FqPoly,
    HypothesisRefused,
    InternalFault,
    UnknownSignature,
    factorize,
    gp_derivative,
    gp_gcd,
    gp_roots,
    monic_irreducibles,
    poly_gcd,
)
from .places import FinitePlace, InfinitePlace
from .models import closed_norm_cubic, norm, minimal_polynomial_fq
from .signature import (
    element_valuations,
    infinite_signature,
    newton_slopes,
    signature_at,
    valuation_assignments,
)
from .invariants import genus


# ---------------------------------------------------------------------------
# symbolic zeta tuples
# ---------------------------------------------------------------------------

def _root_name(exp):
    return {0: "1", 3: "w4", 4: "w3", 6: "-1", 8: "w3^2", 9: "w4^3"}.get(exp, "z^%d" % exp)


@dataclass(frozen=True)
class ZetaFactorTuple:
    """(z_1, ..., z_{n-1}) for one place, entries 12th roots of unity or zero.

    Entries are stored as exponents mod 12 (None encodes the zero entry); the
    tuple is determined by the multiset of relative degrees f of the place's
    signature: each f contributes all f-th roots of unity, one entry 1 is
    dropped, and zeros pad to length n - 1.
    """

    entries: tuple
    degrees: tuple  # the relative-degree multiset it came from

    @classmethod
    def from_signature(cls, sig):
        n = sig.n
        fs = sorted(sig.relative_degrees())
        exps = []
        for f in fs:
            exps.extend(k * (12 // f) for k in range(f))
        exps.sort()
        exps.remove(0)  # the base factor 1/(1 - t^deg P)
        entries = tuple(exps) + (None,) * (n - 1 - len(exps))
        return cls(entries=entries, degrees=tuple(fs))

    def power_sum(self, n):
        """Exact integer value of z_1^n + ... + z_{n-1}^n."""
        return sum(f for f in self.degrees if n % f == 0) - 1

    def symbols(self):
        return tuple("0" if e is None else _root_name(e) for e in self.entries)

    def local_factor(self, q, m):
        """Exact rational q^{(n-1)m} / prod (q^m - z_i) = prod 1/(1 - z_i q^-m)."""
        u = Fraction(1, q ** m)
        num = 1 - u
        den = Fraction(1)
        for f in self.degrees:
            den *= 1 - u ** f
        return num / den

    def __repr__(self):
        return "(" + ", ".join(self.symbols()) + ")"


def zeta_tuple_for_signature(sig):
    """Table row for a signature (quartic: Thms 3.4.1/3.4.3; cubic analogue)."""
    if isinstance(sig, (tuple, list)):
        raise TypeError("expected a Signature")
    return _zeta_tuple(sig)


@lru_cache(maxsize=None)
def _zeta_tuple(sig):
    # one entry per distinct signature; Signature hashes and compares by pairs
    tup = ZetaFactorTuple.from_signature(sig)
    # the tables guarantee |sum z_i^n| <= n - 1
    for n in range(1, 13):
        if abs(tup.power_sum(n)) > sig.n - 1:
            raise InternalFault("tuple power sum out of range")
    return tup


# ---------------------------------------------------------------------------
# per-model zeta data with caching
# ---------------------------------------------------------------------------


class ZetaData:
    """Signatures of all places up to a degree bound, with tuple caching."""

    def __init__(self, model):
        self.model = model
        self.field = model.field
        self.infinite = infinite_signature(model)
        self._finite = {}  # degree -> list of (P, SignatureResult)

    def finite(self, degree):
        if degree not in self._finite:
            out = []
            for P in monic_irreducibles(self.field, degree):
                out.append((P, signature_at(self.model, FinitePlace(P))))
            self._finite[degree] = out
        return self._finite[degree]

    def require_finite(self, degree):
        rows = self.finite(degree)
        for P, res in rows:
            if not res.known:
                raise UnknownSignature(
                    res.unknown_reason or "unknown",
                    "signature of P = %s unresolved (needed to degree %d)" % (P, degree),
                )
        return rows

    def S(self, m, j):
        """S_m(j) = sum over deg P = m of the tuple power sums at exponent j."""
        total = 0
        for _, res in self.require_finite(m):
            total += zeta_tuple_for_signature(res.signature).power_sum(j)
        return total

    def place_count(self, m):
        """Number of places of the extension field of degree exactly m."""
        count = 0
        inf_sig = self.infinite.require()
        for f in inf_sig.relative_degrees():
            if f == m:
                count += 1
        for d in range(1, m + 1):
            if m % d == 0:
                f_target = m // d
                for _, res in self.require_finite(d):
                    for f in res.signature.relative_degrees():
                        if f == f_target:
                            count += 1
        return count


# ---------------------------------------------------------------------------
# the estimate E(lambda) with interval radius L^2
# ---------------------------------------------------------------------------


@dataclass
class HEstimate:
    lam: int
    Eprime: Fraction
    E: int
    Psi: float
    L: int
    genus: int
    signature_at_infinity: tuple

    @property
    def interval(self):
        return (self.E - self.L ** 2, self.E + self.L ** 2)

    def to_json(self):
        lo, hi = self.interval
        return {
            "lambda": self.lam,
            "E": self.E,
            "L": self.L,
            "interval": [lo, hi],
            "Psi": self.Psi,
            "genus": self.genus,
            "signature_at_infinity": list(self.signature_at_infinity),
        }


def estimate_h(model, lam, zeta=None, genus_value=None):
    """Truncated-Euler-product estimate; exact h lies in [E - L^2, E + L^2].

    E' is the exact rational obtained from the product over all places of
    degree <= lambda (together with the closed infinite part); Psi bounds the
    discarded tail as in the logarithmic expansion, with the cubic variant
    using 2 in place of the quartic constant 3.
    """
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    if zeta is None:
        zeta = ZetaData(model)
    q = model.field.q
    n = model.degree
    g = genus_value if genus_value is not None else genus(model).genus
    inf_sig = zeta.infinite.require()
    # infinite part q^{g+n-1} / prod (q - x_i) collapses to q^g (1 - 1/q) / prod (1 - q^-f_i)
    u = Fraction(1, q)
    den = Fraction(1)
    for f in inf_sig.relative_degrees():
        den *= 1 - u ** f
    E = Fraction(q) ** g * (1 - u) / den
    for m in range(1, lam + 1):
        # one power per distinct tuple: the places of degree m share few of them
        counts = Counter(zeta_tuple_for_signature(res.signature) for _, res in zeta.require_finite(m))
        for tup, count in counts.items():
            E = E * tup.local_factor(q, m) ** count
    psi = _psi_bound(q, g, n, lam)
    E_rounded = (E.numerator * 2 + E.denominator) // (2 * E.denominator)  # floor(E + 1/2)
    radius = float(E) * math.expm1(psi) + 0.5
    Lval = math.isqrt(max(0, math.ceil(radius * (1 + 2 ** -40))))
    while Lval * Lval < radius:
        Lval += 1
    return HEstimate(
        lam=lam,
        Eprime=E,
        E=int(E_rounded),
        Psi=psi,
        L=int(Lval),
        genus=g,
        signature_at_infinity=inf_sig.flat(),
    )


def _psi_bound(q, g, n, lam):
    """2g(log(sqrt q/(sqrt q - 1)) - sum) + (n-1)(log(q/(q-1)) - sum), nudged up."""
    rq = math.sqrt(q)
    t1 = math.log(rq / (rq - 1)) - sum(1.0 / (k * rq ** k) for k in range(1, lam + 1))
    t2 = math.log(q / (q - 1)) - sum(1.0 / (k * q ** k) for k in range(1, lam + 1))
    psi = 2 * g * max(t1, 0.0) + (n - 1) * max(t2, 0.0)
    return psi * (1 + 2 ** -40) + 2 ** -48


# ---------------------------------------------------------------------------
# exact oracle via the L-polynomial
# ---------------------------------------------------------------------------


@dataclass
class LPolynomial:
    q: int
    genus: int
    coeffs: list  # integers, length 2g + 1, L(t) = sum c_i t^i

    def value_at_one(self):
        return sum(self.coeffs)

    def alpha_power_sum(self, k):
        """sum alpha_i^k of the reciprocal roots, by Newton's identities."""
        c = self.coeffs
        p = [0] * (k + 1)
        for j in range(1, k + 1):
            acc = -j * (c[j] if j < len(c) else 0)
            for i in range(1, j):
                acc -= (c[i] if i < len(c) else 0) * p[j - i]
            p[j] = acc
        return p[k]

    def functional_equation_ok(self):
        g = self.genus
        for i in range(0, g + 1):
            if self.coeffs[2 * g - i] != self.q ** (g - i) * self.coeffs[i]:
                return False
        return True

    def hasse_weil_ok(self):
        h = self.value_at_one()
        lo = (math.sqrt(self.q) - 1) ** (2 * self.genus)
        hi = (math.sqrt(self.q) + 1) ** (2 * self.genus)
        return lo * (1 - 1e-9) - 1e-9 <= h <= hi * (1 + 1e-9) + 1e-9

    def root_moduli_ok(self, tol=1e-6):
        if self.genus == 0:
            return True
        import numpy as np

        roots = np.roots(list(reversed(self.coeffs)))
        target = 1.0 / math.sqrt(self.q)  # roots of L are reciprocals of the alphas
        return bool(all(abs(abs(r) - target) <= tol * target for r in roots))

    def to_json(self):
        return {"q": self.q, "genus": self.genus, "coeffs": self.coeffs}


@dataclass
class ExactClassNumber:
    model: object
    L: LPolynomial
    h: int
    place_counts: list  # b_m for m = 1..g

    def to_json(self):
        g = self.L.genus
        lo = (math.sqrt(self.L.q) - 1) ** (2 * g)
        hi = (math.sqrt(self.L.q) + 1) ** (2 * g)
        return {
            "h": self.h,
            "L_coeffs": self.L.coeffs,
            "hasse_weil": [lo, hi],
            "place_counts": self.place_counts,
        }


def exact_h(model, zeta=None, genus_value=None, max_genus=8, place_budget=10 ** 7):
    """L-polynomial and h = L(1) from place counts up to degree g."""
    if zeta is None:
        zeta = ZetaData(model)
    q = model.field.q
    g = genus_value if genus_value is not None else genus(model).genus
    if g > max_genus:
        raise HypothesisRefused("genus-budget", "genus %d exceeds the oracle budget %d" % (g, max_genus))
    if g and q ** g > place_budget:
        raise HypothesisRefused("place-budget", "q^g = %d exceeds the enumeration budget" % q ** g)
    b = [0] * (g + 1)  # b[m] = number of degree-m places, m = 1..g
    for m in range(1, g + 1):
        b[m] = zeta.place_count(m)
    # N_n = sum_{m | n} m b_m ; a_n = N_n - q^n - 1
    cs = [0] * (2 * g + 1)
    cs[0] = 1
    a = [0] * (g + 1)
    for n_ in range(1, g + 1):
        N = sum(m * b[m] for m in range(1, n_ + 1) if n_ % m == 0)
        a[n_] = N - q ** n_ - 1
    for i in range(1, g + 1):
        acc = 0
        for k in range(1, i + 1):
            acc += a[k] * cs[i - k]
        if acc % i:
            raise InternalFault("L-coefficient recurrence produced a non-integer")
        cs[i] = acc // i
    for i in range(0, g):
        cs[2 * g - i] = q ** (g - i) * cs[i]
    L = LPolynomial(q=q, genus=g, coeffs=cs)
    h = L.value_at_one()
    if h <= 0:
        raise InternalFault("class number must be positive, got %d" % h)
    if not L.functional_equation_ok():
        raise InternalFault("functional equation violated")
    if not L.hasse_weil_ok():
        raise InternalFault("class number %d outside the Hasse-Weil range" % h)
    if not L.root_moduli_ok():
        raise InternalFault("reciprocal roots of L do not have modulus sqrt(q)")
    return ExactClassNumber(model=model, L=L, h=h, place_counts=b[1:])


def h_prime(h, R, f):
    """Ideal class number h' = h f / R; integrality asserted."""
    val = Fraction(h) * Fraction(f) / Fraction(R)
    if val.denominator != 1:
        raise InternalFault("h' = h f / R is not integral: %s" % val)
    return int(val)


def eq_310_sides(model, n, zeta=None, oracle=None):
    """Both sides of the coefficient identity for exponent n.

    Left: sum over m | n of m S_m(n/m) from the finite-place tuples.
    Right: -(sum x_i^n) - sum alpha_i^n from the infinite tuple and the
    exact L-polynomial.
    """
    if zeta is None:
        zeta = ZetaData(model)
    if oracle is None:
        oracle = exact_h(model, zeta=zeta)
    lhs = 0
    for m in range(1, n + 1):
        if n % m == 0:
            lhs += m * zeta.S(m, n // m)
    inf_tup = zeta_tuple_for_signature(zeta.infinite.require())
    rhs = -inf_tup.power_sum(n) - oracle.L.alpha_power_sum(n)
    return lhs, rhs


# ---------------------------------------------------------------------------
# divisibility certificates (purely cubic shapes)
# ---------------------------------------------------------------------------


@dataclass
class DivisibilityCertificate:
    modulus: int
    rule: str
    checks: dict
    detail: str = ""

    def to_json(self):
        return {
            "modulus": self.modulus,
            "rule": self.rule,
            "checks": {k: bool(v) for k, v in self.checks.items()},
            "detail": self.detail,
        }


def pure_cubic_rhs(model):
    """B with y^3 = B for a purely cubic model (stored as y^3 - Ay + B_std = 0)."""
    if model.degree != 3 or not model.A.is_zero():
        return None
    return -model.B


def divisibility_certificates(model):
    """Certified divisors of h for models matching the purely cubic shapes."""
    out = []
    B = pure_cubic_rhs(model)
    if B is None:
        return out
    F = model.field
    fac = list(factorize(B))
    squarefree = all(m == 1 for _, m in fac)
    r = len(fac)
    checks = {
        "B-squarefree": squarefree,
        "3-not-divides-degB": int(B.degree) % 3 != 0,
        "3-not-characteristic": F.p != 3,
        "r>=2": r >= 2,
    }
    if all(checks.values()):
        out.append(
            DivisibilityCertificate(
                modulus=3 ** (r - 1),
                rule="class-group-3-rank-from-ramified-split",
                checks=checks,
                detail="B factors into %d distinct irreducibles" % r,
            )
        )
    # two-term shape beta x^m + gamma: a x^m + b y^3 = c with a=-beta, b=1, c=gamma
    nonzero = [(i, c) for i, c in enumerate(B.coeffs) if c != 0]
    if len(nonzero) == 2 and nonzero[0][0] == 0:
        m = nonzero[1][0]
        gamma = nonzero[0][1]
        checks2 = {
            "m-prime": is_prime(m),
            "m-not-3": m != 3,
            "m-not-characteristic": m != F.p,
            "x-side-squarefree-split": squarefree and r >= 2,
            "y-side-splits": _cubic_side_splits(F, gamma),
        }
        if all(checks2.values()):
            out.append(
                DivisibilityCertificate(
                    modulus=3 * m,
                    rule="two-term-curve-double-cover",
                    checks=checks2,
                    detail="a x^%d + y^3 = c shape over F_%d" % (m, F.q),
                )
            )
    return out


def _cubic_side_splits(F, gamma):
    """y^3 - gamma squarefree with >= 2 irreducible factors over F_q[y]."""
    if gamma == 0:
        return False
    if F.q % 3 == 2:
        return True  # cube map bijective: one root plus an irreducible quadratic
    return F.is_cube(gamma)


# ---------------------------------------------------------------------------
# divisor search (five-step algorithm for purely cubic models)
# ---------------------------------------------------------------------------


@dataclass
class DivisorWitness:
    prime: int
    element: object
    norm: FqPoly
    min_poly: list
    checks: dict

    def to_json(self):
        return {
            "prime": self.prime,
            "element": self.element.to_json(),
            "norm": list(self.norm.coeffs),
            "checks": {k: bool(v) for k, v in self.checks.items()},
        }


def search_h_divisor(model, p, max_coord_degree=1, skip_constants=True):
    """Search alpha = a + by + cy^2 certifying p | h; NotFound is None.

    Steps: norm is a p-th power (up to a unit), minimal polynomial computed,
    p divides all infinite valuations, alpha is not itself a p-th power, and
    gcd(a0, a1) = gcd(a0, a2) = 1 for the minimal polynomial coefficients.
    """
    B = pure_cubic_rhs(model)
    if B is None:
        raise HypothesisRefused("purely-cubic", "divisor search needs y^3 = B(x)")
    F = model.field
    q = F.q
    inf = infinite_signature(model)
    inf_sig = inf.require()
    single_infinite = inf_sig.place_count == 1
    d = max_coord_degree
    size = q ** (d + 1)
    for c_idx in range(size):
        c = FqPoly(F, digits(c_idx, q, d + 1))
        for b_idx in range(size):
            bb = FqPoly(F, digits(b_idx, q, d + 1))
            if skip_constants and bb.is_zero() and c.is_zero():
                continue  # alpha in F_q[x] never passes the gcd step
            for a_idx in range(size):
                a = FqPoly(F, digits(a_idx, q, d + 1))
                nrm = closed_norm_cubic(model, a, bb, c)
                if nrm.is_zero():
                    continue
                if not _is_pth_power_up_to_unit(nrm, p):
                    continue
                alpha = model.element(a, bb, c)
                witness = _check_witness(model, alpha, nrm, p, inf, single_infinite, d)
                if witness is not None:
                    return witness
    return None


def _is_pth_power_up_to_unit(f, p):
    if f.degree == 0:
        return True
    if int(f.degree) % p:
        return False
    g = f.monic()
    d = g.derivative()
    if not d.is_zero():
        h = poly_gcd(g, d)
        # a p-th power u^p has gcd(g, g') of degree >= (p-1) deg u
        if p * int(h.degree) < (p - 1) * int(g.degree):
            return False
    return all(m % p == 0 for _, m in factorize(f))


def _check_witness(model, alpha, nrm, p, inf, single_infinite, d):
    checks = {"norm-pth-power": True}
    mp = minimal_polynomial_fq(alpha)
    if len(mp) - 1 != model.degree:
        return None  # proper subfield element; handled by gcd test anyway
    # step 3: p | v_P'(alpha) at every infinite place
    if single_infinite:
        checks["infinite-valuations"] = True
    else:
        place = InfinitePlace(model.field)
        assigns, _ = element_valuations(model, alpha, place, inf)
        if not all(all(v % p == 0 for v in a) for a in assigns):
            return None
        checks["infinite-valuations"] = True
    # step 4: alpha is not a p-th power in the field
    if _is_power_in_order(model, alpha, p, d):
        return None
    checks["not-a-pth-power"] = True
    # step 5: gcd(a0, a1) = gcd(a0, a2) = 1
    a0, a1, a2 = mp[0], mp[1], mp[2]
    if a0.is_zero():
        return None
    g1 = poly_gcd(a0, a1) if not (a0.is_zero() and a1.is_zero()) else None
    g2 = poly_gcd(a0, a2) if not (a0.is_zero() and a2.is_zero()) else None
    if g1 is None or g2 is None or g1.degree != 0 or g2.degree != 0:
        return None
    checks["coprime-coefficients"] = True
    return DivisorWitness(prime=p, element=alpha, norm=nrm, min_poly=[list(c.coeffs) for c in mp], checks=checks)


def _is_power_in_order(model, alpha, p, d):
    """Decide whether alpha = beta^p for integral beta.

    First, a sound disproof: at any unramified finite place, a p-th power
    reduces to a p-th power of the residue field, so one non-residue value
    settles the question.  Only if every sampled residue is a p-th power
    does the bounded coordinate search run (with a valuation-based bound,
    tight for totally ramified infinity).
    """
    F = model.field
    for deg in (1, 2):
        for P in monic_irreducibles(F, deg):
            K = FinitePlace(P).residue_field
            if (K.order - 1) % p:
                continue
            red = [K.embed(model.B), K.embed(-model.A), K.zero, K.one]
            der = gp_derivative(K, red)
            if not der or len(gp_gcd(K, red, der)) > 1:
                continue  # ramified or inseparable reduction; skip
            for theta in gp_roots(K, red):
                val = K.add(
                    K.embed(alpha.coords[0]),
                    K.add(
                        K.mul(K.embed(alpha.coords[1]), theta),
                        K.mul(K.embed(alpha.coords[2]), K.mul(theta, theta)),
                    ),
                )
                if not K.is_zero(val) and not K.is_nth_power(val, p):
                    return False
    n_alpha = closed_norm_cubic(model, *alpha.coords)
    n0 = int(model.B.degree)
    inf_sig = infinite_signature(model).require()
    if inf_sig.place_count == 1 and n0 % 3:
        # totally ramified infinity: coordinate degrees of a p-th root are
        # bounded by (d + 2 n0/3)/p since the three term valuations never tie
        bound = int((Fraction(d) + Fraction(2 * n0, 3)) / p)
    else:
        bound = max(0, -(-d // p))
    size = F.q ** (bound + 1)
    for ci in range(size):
        c = FqPoly(F, digits(ci, F.q, bound + 1))
        for bi in range(size):
            bb = FqPoly(F, digits(bi, F.q, bound + 1))
            for ai in range(size):
                a = FqPoly(F, digits(ai, F.q, bound + 1))
                if closed_norm_cubic(model, a, bb, c) ** p != n_alpha:
                    continue
                beta = model.element(a, bb, c)
                if (beta ** p).coords == alpha.coords:
                    return True
    return False


# ---------------------------------------------------------------------------
# valuation-sum identity (cross-module property)
# ---------------------------------------------------------------------------


def verify_valuation_sum(model, P):
    """For standard-form cubics: sum over P'|P of v_{P'}(y) f(P'|P) = v_P(B).

    The left side is evaluated through the signature tables plus the
    Newton-slope matching, so this genuinely cross-checks the case analysis.
    """
    if model.degree != 3:
        raise ValueError("valuation-sum identity implemented for cubic models")
    place = P if isinstance(P, FinitePlace) else FinitePlace(P)
    res = signature_at(model, place)
    sig = res.require()
    coeffs = [model.B, -model.A, FqPoly.zero(model.field), FqPoly.one(model.field)]
    slopes = newton_slopes(coeffs, place)
    assigns = valuation_assignments(sig, slopes)
    if not assigns:
        return False, "no consistent valuation assignment for signature %s" % sig
    target = int(place.val(model.B))
    fs = [f for _, f in sig.pairs]
    for a in assigns:
        if sum(f * v for f, v in zip(fs, a)) != target:
            return False, "assignment %s sums to %s != %s" % (a, sum(f * v for f, v in zip(fs, a)), target)
    return True, "ok"


def verify_valuation_sum_infinite(model):
    """Infinite analogue: sum v_{P'}(y) f = -deg(B) when 0 <= deg A <= deg B."""
    if model.degree != 3:
        raise ValueError("cubic models only")
    if not model.A.is_zero() and model.A.degree > model.B.degree:
        raise HypothesisRefused("degree-order", "needs deg A <= deg B")
    place = InfinitePlace(model.field)
    res = signature_at(model, place)
    sig = res.require()
    coeffs = [model.B, -model.A, FqPoly.zero(model.field), FqPoly.one(model.field)]
    slopes = newton_slopes(coeffs, place)
    assigns = valuation_assignments(sig, slopes)
    target = -int(model.B.degree)
    fs = [f for _, f in sig.pairs]
    ok = bool(assigns) and all(
        sum(f * v for f, v in zip(fs, a)) == target for a in assigns
    )
    return ok, ("ok" if ok else "mismatch")
