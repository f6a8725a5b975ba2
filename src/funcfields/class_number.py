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

Both need one signature per place, and nothing more of a place: the place
counts, the power sums S_m(j) and the Euler factors depend only on how many
places of each degree have each signature.  ZetaData keeps that census per
degree (a Counter of interned Signature values) with the exact Euler
factor of the degree, so a class-number computation costs one step per
distinct signature once it is taken.  Taking it builds no place: off D the
signature is the factor type of the reduction (Dedekind-Kummer), read off
logarithms in k(P) or factored, with the dispatcher's closed forms as oracle.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .fq import digits, is_prime, log_horner
from .poly import (
    FqPoly,
    HypothesisRefused,
    InternalFault,
    UnknownSignature,
    gp_derivative,
    gp_factor_degrees,
    gp_gcd,
    gp_roots,
    is_squarefree,
    poly_gcd,
    residue_field,
    squarefree_decomposition,
    tower_fields,
    tower_roots,
)
from .places import FinitePlace, InfinitePlace
from .models import closed_norm_cubic, minimal_polynomial_fq
from . import signature
from .signature import element_valuations, infinite_signature, signature_at
from .invariants import genus


# ---------------------------------------------------------------------------
# symbolic zeta tuples
# ---------------------------------------------------------------------------

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


def zeta_tuple_for_signature(sig):
    """Table row for a signature (quartic: Thms 3.4.1/3.4.3; cubic analogue)."""
    if isinstance(sig, (tuple, list)):
        raise TypeError("expected a Signature")
    return _zeta_tuple(sig)


@lru_cache(maxsize=None)
def _zeta_tuple(sig):
    # one entry per distinct signature; Signatures are interned, so keyed by identity
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
    """The census of signatures per degree, and the rows of the places behind it.

    census(d) counts the places of degree d per signature (interned
    values, counted by identity); place_count, S and the Euler factor of
    estimate_h cost one step per distinct signature, and the exact Euler
    factor of each degree is kept, so the estimates for lambda = 1, ..., g
    and the sides of eq. (3.10) for n = 1, ..., g walk no place twice.  The
    census builds no place: off D its one rule, signature.log_rule, reads
    the factor type of the reduction off the logs of the residues of the
    coefficients, or factors it, and only the places over D go through
    signature_at.  finite(d) holds one (P, SignatureResult) row per place
    from signature_at, whose closed forms on values are the census's
    oracle under SELF_CHECK.
    """

    def __init__(self, model):
        self.model = model
        self.field = model.field
        self.infinite = infinite_signature(model)
        self._finite = {}  # degree -> list of (P, SignatureResult)
        self._census = {}  # degree -> Counter of the signatures of its places
        self._euler = {}  # degree m -> prod over deg P = m of the local factors

    def finite(self, degree):
        rows = self._finite.get(degree)
        if rows is None:
            model = self.model
            rows = self._finite[degree] = [
                (P, signature_at(model, FinitePlace(P, K))) for P, K in tower_fields(self.field, degree)
            ]
        return rows

    def census(self, degree):
        """Counter: signature -> number of places of this degree with it.

        Raises UnknownSignature at the first place of the degree whose
        signature is undecided.  Under signature.SELF_CHECK the signature
        of every place is compared with its row in finite(degree).
        """
        counts = self._census.get(degree)
        if counts is None:
            sigs = self._signatures(degree)
            if signature.SELF_CHECK:
                sigs = list(sigs)
                rows = self.finite(degree)
                for sig, (P, res) in zip(sigs, rows):
                    if sig != res.signature:
                        raise InternalFault("census/row mismatch at %s: %s != %s" % (P, sig, res.signature))
            counts = self._census[degree] = Counter(sigs)
        return counts

    def _signatures(self, degree):
        """The signature of each place of the degree, in the order of tower_fields.

        One pass in the logs of E = k(P): the coefficients become logs once,
        each residue is fq.log_horner at the root alpha, and log_rule answers
        with the Signature, or None where P divides D.  The places over D, and
        every place of a degree without a tower with tables, take
        signature_at.  (A quartic in characteristic 3 has no census:
        ZetaData's infinite signature raises for it.)
        """
        model, F = self.model, self.field
        places, K, alphas = tower_roots(F, degree)
        tables = K and K.E.log_tables()
        if not tables:
            for P in places:
                yield self._dispatch(P, None, degree)
            return
        _, log, zech = tables
        quartic = model.degree == 4
        n, rule = K.E.q - 1, signature.log_rule(K.E, quartic)
        # A, B (, C) as the logs of their coefficients in E, highest first
        coeffs = (model.A, model.B, model.C) if quartic else (model.A, model.B)
        polys = [[log[K.from_base(c)] for c in reversed(f.coeffs)] for f in coeffs]
        for P, x in zip(places, alphas):
            lx = log[x]
            sig = rule(*[log_horner(f, lx, zech, n) for f in polys])
            yield self._dispatch(P, K.sibling(P, x), degree) if sig is None else sig

    def _dispatch(self, P, K, degree):
        res = signature_at(self.model, FinitePlace(P, K))
        if not res.known:
            raise UnknownSignature(
                res.unknown_reason or "unknown",
                "signature of P = %s unresolved (needed to degree %d)" % (P, degree),
            )
        return res.signature

    def S(self, m, j):
        """S_m(j) = sum over deg P = m of the tuple power sums at exponent j."""
        return sum(count * _zeta_tuple(sig).power_sum(j) for sig, count in self.census(m).items())

    def place_count(self, m):
        """Number of places of the extension field of degree exactly m."""
        count = self.infinite.require().relative_degrees().count(m)
        for d in range(1, m + 1):
            if m % d == 0:
                f_target = m // d
                for sig, n in self.census(d).items():
                    count += n * sig.relative_degrees().count(f_target)
        return count

    def euler_factor(self, m):
        """prod over deg P = m of the exact local factors prod 1/(1 - z_i q^-m).

        With Q = q^m, a place whose signature has relative degrees
        f_1, ..., f_r has the factor (1 - 1/Q) / prod (1 - Q^-f_i) =
        (Q - 1) Q^(f_1 + ... + f_r - 1) / prod (Q^f_i - 1), so the product
        over the census is a power of Q times powers of the Q^f - 1: one
        Fraction, reduced once.
        """
        E = self._euler.get(m)
        if E is None:
            Q = self.field.q ** m
            q_exp, exps = 0, Counter()  # f -> exponent of Q^f - 1 in the denominator
            for sig, count in self.census(m).items():
                fs = sig.relative_degrees()
                q_exp += count * (sum(fs) - 1)
                exps[1] -= count
                for f in fs:
                    exps[f] += count
            num, den = Q ** q_exp, 1
            for f, e in exps.items():
                if e > 0:
                    den *= (Q ** f - 1) ** e
                elif e < 0:
                    num *= (Q ** f - 1) ** -e
            E = self._euler[m] = Fraction(num, den)
        return E


# the most places a sweep of all degrees <= d may stand for (q^d); exact_h,
# estimate_h and the places command refuse a larger one before enumerating
PLACE_BUDGET = 10 ** 7


def check_place_budget(q, d, name):
    """Refuse (place-budget) a sweep of the places of degree <= d when q^d > PLACE_BUDGET.

    q^d is not formed: d is compared with the largest e with q^e <= PLACE_BUDGET.
    """
    if d < 0:
        raise ValueError("the %s bound %d is negative" % (name, d))
    e, qe = 0, q
    while qe <= PLACE_BUDGET:
        e, qe = e + 1, qe * q
    if d > e:
        raise HypothesisRefused(
            "place-budget", "q^%s = %d^%d exceeds the enumeration budget of %d places" % (name, q, d, PLACE_BUDGET)
        )


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
    q = model.field.q
    check_place_budget(q, lam, "lambda")
    if zeta is None:
        zeta = ZetaData(model)
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
        E = E * zeta.euler_factor(m)
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
    # plain left-to-right float sums: the builtin sum() is compensated from
    # Python 3.12 on, and Psi must not depend on the interpreter
    s1 = s2 = 0.0
    for k in range(1, lam + 1):
        s1 += 1.0 / (k * rq ** k)
        s2 += 1.0 / (k * q ** k)
    t1 = math.log(rq / (rq - 1)) - s1
    t2 = math.log(q / (q - 1)) - s2
    psi = 2 * g * max(t1, 0.0) + (n - 1) * max(t2, 0.0)
    return psi * (1 + 2 ** -40) + 2 ** -48


# ---------------------------------------------------------------------------
# exact oracle via the L-polynomial
# ---------------------------------------------------------------------------


def _zp_primitive(a):
    """a with trailing zeros dropped, divided by the gcd of its coefficients."""
    while a and a[-1] == 0:
        a.pop()
    d = math.gcd(*a)
    return [x // d for x in a] if d > 1 else a


def _zp_derivative(a):
    return _zp_primitive([i * a[i] for i in range(1, len(a))])


def _zp_prem(a, b):
    """A positive multiple of the remainder of a by b in Q[s], made primitive.

    Little-endian int lists, b trimmed and nonzero.  Each step scales by
    |lead b|, never by a negative number, so signs stay those of the remainder.
    """
    r, m, lb = list(a), len(b), b[-1]
    e, lb = (1, lb) if lb > 0 else (-1, -lb)
    for i in range(len(a) - m, -1, -1):
        t = e * r.pop()
        r = [lb * x for x in r]
        for j in range(m - 1):
            r[i + j] -= t * b[j]
    return _zp_primitive(r)


def _zp_exact_quotient(a, b):
    """a / b for int lists where b divides a in Z[s]."""
    r, m = list(a), len(b)
    quot = [0] * (len(a) - m + 1)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = f = r[i + m - 1] // b[-1]
        for j in range(m):
            r[i + j] -= f * b[j]
    return quot


def _sign_at_2sqrt(p, e, q):
    """Sign of p(2 e sqrt q), e = +1 or -1, taken exactly as a + b sqrt q."""
    a = b = 0
    for k, c in enumerate(p):
        if k % 2:
            b += e * 2 * c * (4 * q) ** (k // 2)
        else:
            a += c * (4 * q) ** (k // 2)
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa * ((a * a > b * b * q) - (a * a < b * b * q))


def _variations(signs):
    nz = [s for s in signs if s]
    return sum(x != y for x, y in zip(nz, nz[1:]))


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
        """(sqrt q - 1)^(2g) <= h <= (sqrt q + 1)^(2g), decided exactly in Z[sqrt q].

        (sqrt q +- 1)^2 = (q + 1) +- 2 sqrt q, so (sqrt q +- 1)^(2g) = a +- b sqrt q
        with integers a, b >= 0, and both bounds together say (h - a)^2 <= b^2 q.
        """
        q, a, b = self.q, 1, 0
        for _ in range(self.genus):
            a, b = a * (q + 1) + 2 * b * q, 2 * a + b * (q + 1)
        d = self.value_at_one() - a
        return d * d <= b * b * q

    def root_moduli_ok(self):
        """Every reciprocal root of L has modulus sqrt(q), decided exactly.

        With the functional equation, t^(2g) L(1/t) = t^g h(t + q/t) for the
        monic h = c_g + sum_k c_(g-k) D_k(s) in Z[s], where D_0 = 2, D_1 = s,
        D_(k+1) = s D_k - q D_(k-1) (so D_k(t + q/t) = t^k + (q/t)^k).  A root
        alpha has |alpha| = sqrt q exactly when s = alpha + q/alpha is real
        with s^2 <= 4q, so the test is that the squarefree part of h has all
        its roots in [-2 sqrt q, 2 sqrt q], ends included: a Sturm count with
        the end signs taken in Z[sqrt q] (Kedlaya, "Search techniques for
        root-unitary polynomials", Contemp. Math. 463, 2008).
        """
        q, g, c = self.q, self.genus, self.coeffs
        h = [c[g]] + [0] * g
        prev, cur = [2], [0, 1]
        for k in range(1, g + 1):
            for i, d in enumerate(cur):
                h[i] += c[g - k] * d
            nxt = [0] + cur
            for i, d in enumerate(prev):
                nxt[i] -= q * d
            prev, cur = cur, nxt
        # h is monic, so its primitive gcd with h' divides it in Z[s] (Gauss)
        a, b = h, _zp_derivative(h)
        while b:
            a, b = b, _zp_prem(a, b)
        sf = _zp_exact_quotient(h, a)
        chain = [sf, _zp_derivative(sf)]
        while len(chain[-1]) > 1:
            chain.append([-x for x in _zp_prem(chain[-2], chain[-1])])
        lo = [_sign_at_2sqrt(p, -1, q) for p in chain]
        hi = [_sign_at_2sqrt(p, 1, q) for p in chain]
        inside = _variations(lo) - _variations(hi) + (lo[0] == 0)
        return inside == len(sf) - 1


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


def exact_h(model, zeta=None, genus_value=None, max_genus=8):
    """L-polynomial and h = L(1) from place counts up to degree g."""
    if max_genus < 0:
        raise ValueError("the genus budget %d is negative" % max_genus)
    if zeta is None:
        zeta = ZetaData(model)
    q = model.field.q
    g = genus_value if genus_value is not None else genus(model).genus
    if g > max_genus:
        raise HypothesisRefused("genus-budget", "genus %d exceeds the oracle budget %d" % (g, max_genus))
    if g:
        check_place_budget(q, g, "g")
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
    """Certified divisors of h for models matching the purely cubic shapes.

    Both need B squarefree; only then is r, the number of irreducible
    factors of B, read from its factor degrees (no equal-degree split)."""
    out = []
    B = pure_cubic_rhs(model)
    if B is None:
        return out
    F = model.field
    squarefree = is_squarefree(B)
    r = len(gp_factor_degrees(F, list(B.monic().coeffs))) if squarefree else 0
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


# most coordinate triples search_h_divisor will walk: it walked 35,000 to
# 105,000 a second on a 2-vCPU Xeon host (all 117,649 of q = 7, d = 1 took
# 1.1-3.4 s), so this refuses what would run past a few seconds
DIVISOR_SEARCH_BUDGET = 200_000


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


def search_h_divisor(model, p, max_coord_degree=1):
    """Search alpha = a + by + cy^2 certifying p | h; NotFound is None.

    Steps: norm is a p-th power (up to a unit), minimal polynomial computed,
    p divides all infinite valuations, alpha is not itself a p-th power, and
    gcd(a0, a1) = gcd(a0, a2) = 1 for the minimal polynomial coefficients.
    It walks the q^(3(d+1)) triples of coordinate degree <= d; a search of
    more than DIVISOR_SEARCH_BUDGET triples is refused before it starts, and
    so are the p-th root searches of step 4 once their triples, summed over
    the candidates, would pass the same budget.
    """
    if not is_prime(p):
        raise ValueError("p = %d is not a prime" % p)
    if max_coord_degree < 0:
        raise ValueError("the coordinate degree bound %d is negative" % max_coord_degree)
    B = pure_cubic_rhs(model)
    if B is None:
        raise HypothesisRefused("purely-cubic", "divisor search needs y^3 = B(x)")
    F = model.field
    q = F.q
    d = max_coord_degree
    size = q ** (d + 1)
    if size ** 3 > DIVISOR_SEARCH_BUDGET:
        raise HypothesisRefused(
            "search-budget",
            "the divisor search has %d triples, above the budget of %d" % (size ** 3, DIVISOR_SEARCH_BUDGET),
        )
    inf = infinite_signature(model)
    inf_sig = inf.require()
    single_infinite = inf_sig.place_count == 1
    spent = [0]  # triples the p-th root searches of step 4 have taken so far
    coords = [FqPoly(F, digits(i, q, d + 1)) for i in range(size)]
    cubes, M = [], model.B  # a^3 for the a of coords taken so far; the model is y^3 + M = 0
    for c in coords:
        for bb in coords:
            if bb.is_zero() and c.is_zero():
                continue  # alpha in F_q[x] never passes the gcd step
            # closed_norm_cubic at A = 0: N = a^3 - M (b^3 - c^3 M) + a (3 M b c)
            rest, mixed = M * (bb ** 3 - c ** 3 * M), (M * bb * c).scale(F.from_int(3))
            for i, a in enumerate(coords):
                if i == len(cubes):
                    cubes.append(a ** 3)
                nrm = cubes[i] - rest + a * mixed
                if nrm.is_zero():
                    continue
                if not _is_pth_power_up_to_unit(nrm, p):
                    continue
                alpha = model.element(a, bb, c)
                witness = _check_witness(model, alpha, nrm, p, inf, single_infinite, d, spent)
                if witness is not None:
                    return witness
    return None


def _is_pth_power_up_to_unit(f, p):
    """f is a unit times a p-th power: p divides every multiplicity of its
    squarefree decomposition (in characteristic p too, by p-th roots).  First
    p | deg f and deg gcd(f, f') >= (p - 1) deg f / p, necessary for u^p,
    reject most norms of the divisor search at a fraction of the cost."""
    g = f.monic()
    d = g.derivative()
    if int(f.degree) % p or not d.is_zero() and p * int(poly_gcd(g, d).degree) < (p - 1) * int(g.degree):
        return False
    return all(m % p == 0 for m, _ in squarefree_decomposition(f))


def _check_witness(model, alpha, nrm, p, inf, single_infinite, d, spent):
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
    if _is_power_in_order(model, alpha, p, d, spent):
        return None
    checks["not-a-pth-power"] = True
    # step 5: gcd(a0, a1) = gcd(a0, a2) = 1, where a0 = +-N(alpha) != 0
    a0, a1, a2 = mp[0], mp[1], mp[2]
    if poly_gcd(a0, a1).degree != 0 or poly_gcd(a0, a2).degree != 0:
        return None
    checks["coprime-coefficients"] = True
    return DivisorWitness(prime=p, element=alpha, norm=nrm, min_poly=[list(c.coeffs) for c in mp], checks=checks)


def _is_power_in_order(model, alpha, p, d, spent):
    """Decide whether alpha = beta^p for integral beta.

    First, a sound disproof: at any unramified finite place, a p-th power
    reduces to a p-th power of the residue field, so one non-residue value
    settles the question.  Only if every sampled residue is a p-th power
    does the bounded coordinate search run (with a valuation-based bound,
    tight for totally ramified infinity).  Its triples are added to spent[0],
    the running total of one search_h_divisor call, and the search is
    refused when that total would pass DIVISOR_SEARCH_BUDGET.
    """
    F = model.field
    for deg in (1, 2):
        for P, K in tower_fields(F, deg):
            K = K or residue_field(P)
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
    if spent[0] + size ** 3 > DIVISOR_SEARCH_BUDGET:
        raise HypothesisRefused(
            "search-budget",
            "the p-th root searches come to %d triples, above the budget of %d"
            % (spent[0] + size ** 3, DIVISOR_SEARCH_BUDGET),
        )
    spent[0] += size ** 3
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
