"""Splitting signatures of places in cubic and quartic function fields.

One engine serves both the infinite place and the finite places: every
case test in the splitting tables is a statement about valuations u_i and
normalized residues of the model coefficients, and those are exactly what
the place abstraction provides (for the infinite place, u = -deg and the
residue is a leading coefficient).  The dispatcher evaluates each three-way
comparison once and branches on the outcome, so no bullet of a table is
ever re-derived with a flipped inequality.

Results are SignatureResult records; Unknown is a first-class outcome that
names the remark of the source analysis that leaves the case open.  A
Kummer branch reads the squarefreeness of its reduction off its case and
v(D), and keeps the reduction on the result so `kummer_signature`, an
independent factorization oracle, can re-derive the signature (enabled
for every call via the SELF_CHECK flag in test builds).
"""

from fractions import Fraction
from functools import lru_cache

from .poly import (
    FqPoly,
    InternalFault,
    POS_INF,
    UnknownSignature,
    gp_count_roots,
    gp_factor_degrees,
    gp_gcd,
    gp_derivative,
    pth_root,
    residue_field,
)
from .places import InfinitePlace
from .models import CubicModel, minimal_polynomial_fq

SELF_CHECK = False

ITERATION_CAP = 32

# degrees grow geometrically along nonresolving iterations; beyond this the
# remaining rounds could not finish at desk scale anyway
ITERATION_DEGREE_CAP = 600


# (pairs as given or sorted, or flat tuple, n) -> the one Signature of it
_SHARED = {}


class Signature:
    """Sorted multiset of (ramification index e, relative degree f) pairs.

    Signatures are interned values: Signature(pairs, n) checks the
    fundamental identity once per value and hands out that instance from
    then on, for the pairs in any order, so equality and hashing are
    identity and a sweep over thousands of places builds a handful of
    them.  A key that breaks the identity raises every time: it is never stored.
    """

    __slots__ = ("pairs", "n")

    def __new__(cls, pairs, n):
        pairs = tuple(map(tuple, pairs))
        sig = _SHARED.get((pairs, n))
        if sig is None:
            key = tuple(sorted(pairs))
            if sum(e * f for e, f in key) != n:
                raise InternalFault("fundamental identity violated: sum ef != %d for %s" % (n, key))
            sig = object.__new__(cls)
            sig.pairs, sig.n = key, n
            sig = _SHARED[pairs, n] = _SHARED.setdefault((key, n), sig)
        return sig

    @classmethod
    def from_flat(cls, flat, n):
        """The Signature of the flat tuple notation, e.g. (1,1,2,1)."""
        flat = tuple(flat)
        sig = _SHARED.get((flat, n))
        if sig is None:
            if len(flat) % 2:
                raise ValueError("flat signature needs an even number of entries")
            sig = _SHARED[flat, n] = cls(zip(flat[::2], flat[1::2]), n)
        return sig

    def flat(self):
        out = []
        for e, f in self.pairs:
            out.extend((e, f))
        return tuple(out)

    @property
    def place_count(self):
        return len(self.pairs)

    def relative_degrees(self):
        return tuple(f for _, f in self.pairs)

    def ramification_defect(self):
        """delta = sum (e - 1) f, the tame different exponent."""
        return sum((e - 1) * f for e, f in self.pairs)

    def is_tame(self, p):
        return all(e % p != 0 for e, _ in self.pairs)

    def __repr__(self):
        return "(" + ",".join(str(v) for v in self.flat()) + ")"


class SignatureResult:
    """Signature or Unknown, with the resolution method and a derivation log.

    The log (trace) is formatted on first read.  The dispatchers store the
    line that describes the place as (format, args, place), the place's
    describe() taking the last %s, and the iteration and transform steps
    carry such entries over unformatted, so a class-number sweep that never
    reads a trace never formats a place.  Every read sees the same text.
    """

    __slots__ = ("signature", "method", "_trace", "unknown_reason", "kummer_reduction", "place")

    def __init__(self, signature, method, trace, unknown_reason=None, kummer_reduction=None, place=None):
        self.signature = signature
        self.method = method
        self._trace = list(trace)  # lines, and (format, args, place) entries not yet formatted
        self.unknown_reason = unknown_reason
        self.kummer_reduction = kummer_reduction  # (protocol field, coeff list) or None
        self.place = place

    @property
    def trace(self):
        """The derivation log as a list of lines."""
        t = self._trace
        for i, line in enumerate(t):
            if type(line) is tuple:
                fmt, args, place = line
                t[i] = fmt % (args + (place.describe(),))
        return t

    @property
    def known(self):
        return self.signature is not None

    def require(self):
        if self.signature is None:
            raise UnknownSignature(self.unknown_reason or "unknown", "; ".join(self.trace))
        return self.signature

    def to_json(self):
        if self.signature is None:
            return {"unknown": self.unknown_reason, "trace": self.trace}
        return {
            "pairs": [list(p) for p in self.signature.pairs],
            "method": self.method,
            "trace": self.trace,
        }


def kummer_signature(reduction, K, n):
    """Signature from a reduction polynomial over the residue field K.

    Returns a Signature when the reduction is squarefree (all e_i = 1 with
    f_i the factor degrees); None when a repeated factor leaves the splitting
    undecided.  The dispatchers know squarefreeness from the case and v(D);
    this gcd test is their oracle in SELF_CHECK and the tests.  n, the
    degree of the field, must be that of the reduction.
    """
    f = list(reduction)
    if n != len(f) - 1:
        raise ValueError("a reduction of degree %d in a field of degree %d" % (len(f) - 1, n))
    d = gp_derivative(K, f)
    if not d or len(gp_gcd(K, f, d)) > 1:
        return None
    return _factor_type(K, f)


def _factor_type(K, red):
    """The Signature of the factor degrees of a squarefree monic reduction over K."""
    return Signature(((1, d) for d in gp_factor_degrees(K, red)), len(red) - 1)


def _finish(place, sig_flat_or_pairs, n, method, trace, reduction=None, K=None):
    if isinstance(sig_flat_or_pairs, Signature):
        sig = sig_flat_or_pairs
    else:
        sig = Signature.from_flat(sig_flat_or_pairs, n)
    res = SignatureResult(sig, method, trace, kummer_reduction=(K, reduction) if reduction else None, place=place)
    if SELF_CHECK and res.kummer_reduction is not None:
        K2, red = res.kummer_reduction
        oracle = kummer_signature(red, K2, n)
        if oracle is not sig:
            raise InternalFault(
                "dispatch/Kummer mismatch at %s: table=%s oracle=%s" % (place.describe(), sig, oracle)
            )
    return res


def _squarefree_kummer(place, trace, red, K):
    """Kummer result of a degree-n reduction that its case proves squarefree: its factor degrees."""
    return _finish(place, _factor_type(K, red), len(red) - 1, "Kummer", trace, red, K)


def _unknown(place, reason, trace):
    return SignatureResult(None, "Unknown", trace, unknown_reason=reason, place=place)


# ---------------------------------------------------------------------------
# cubic dispatcher
# ---------------------------------------------------------------------------


def signature_cubic(model, place, _depth=0):
    """P-signature of a cubic model at a finite or infinite place.

    The dispatch depends only on data invariant under rescalings y -> y/Q,
    so models produced by the iteration steps are reduced locally at the
    place (never globally) before the case analysis.
    """
    F = model.field
    p = F.p
    A, B = model.A, model.B
    u1 = place.val(A)
    u0 = place.val(B)
    if u1 >= 2 and u0 >= 3:
        # a finite place (u0 <= 0 at infinity): divide out P^2 from A and P^3 from B
        P2, P3 = place.P ** 2, place.P ** 3
        while u1 >= 2 and u0 >= 3:
            if not A.is_zero():
                A = A.exact_div(P2)
            B = B.exact_div(P3)
            u1, u0 = u1 - 2, u0 - 3
        model = CubicModel(A, B, _skip_checks=True)
    K = place.residue_field
    trace = [("u(A)=%s u(B)=%s at %s", (u1, u0), place)]

    three_u1 = 3 * u1 if u1 is not POS_INF else POS_INF
    two_u0 = 2 * u0

    if three_u1 < two_u0:
        if int(u1) % 2:
            trace.append("3u1<2u0 with u1 odd: ramified pair forced")
            return _finish(place, (1, 1, 2, 1), 3, "DegreeCase", trace)
        if p == 2:
            return _cubic_iteration(model, place, trace, _depth)
        r = place.residue(A, int(u1))
        red = [K.zero, K.neg(r), K.zero, K.one]  # T^3 - r T
        sq = K.is_square(r)
        trace.append("3u1<2u0, u1 even: reduction T(T^2 - Abar), Abar square=%s" % sq)
        sig = (1, 1, 1, 1, 1, 1) if sq else (1, 1, 1, 2)
        return _finish(place, sig, 3, "Kummer", trace, red, K)

    if three_u1 > two_u0:
        if int(u0) % 3:
            trace.append("3u1>2u0 with u0 not divisible by 3: totally ramified")
            return _finish(place, (3, 1), 3, "DegreeCase", trace)
        if p == 3:
            return _cubic_iteration(model, place, trace, _depth)
        b = place.residue(B, int(u0))
        red = [b, K.zero, K.zero, K.one]  # T^3 + Bbar
        sig = _cube_type(K, b)
        trace.append("3u1>2u0, 3|u0: reduction T^3 + Bbar, -Bbar cube=%s" % (sig != (1, 3)))
        return _finish(place, sig, 3, "Kummer", trace, red, K)

    # 3u1 == 2u0
    u1 = int(u1)
    u0 = int(u0)
    a = place.residue(A, u1)
    b = place.residue(B, u0)
    D = model.discriminant()
    vD = place.val(D)
    delta = int(vD) - 3 * u1
    if delta < 0:
        raise InternalFault("discriminant valuation below generic level")
    if delta == 0:
        # the reduction's discriminant is the unit residue of D at 3 u1, so it is squarefree
        red = [b, K.neg(a), K.zero, K.one]  # T^3 - a T + b
        trace.append("3u1=2u0, disc at generic level: Kummer on T^3 - Abar T + Bbar")
        if not (p >= 5 and K.order % 3 == 1):
            return _squarefree_kummer(place, trace, red, K)
        sig = _depressed_cubic_type(K, a, b)
        if sig is None:
            raise InternalFault("squarefree reduction expected when v(D) = 3 u1")
        return _finish(place, sig, 3, "Kummer", trace, red, K)
    # balanced case with discriminant cancellation (char >= 5 only)
    if delta % 2:
        trace.append("3u1=2u0, v(D) offset %d odd: transform chain gives a ramified pair" % delta)
        return _finish(place, (1, 1, 2, 1), 3, "TransformChain", trace)
    rho = place.residue(D, int(vD))
    nine = K.from_base(F.from_int(9))
    r = K.mul(K.mul(nine, K.mul(b, b)), K.inv(rho))
    red = [K.zero, K.neg(r), K.zero, K.one]
    sq = K.is_square(rho)
    trace.append("3u1=2u0, v(D) offset even: chain reduction T(T^2 - 9 Bbar^2/Dbar), Dbar square=%s" % sq)
    sig = (1, 1, 1, 1, 1, 1) if sq else (1, 1, 1, 2)
    return _finish(place, sig, 3, "TransformChain", trace, red, K)


def _int(K, n):
    """The image of the integer n in K."""
    return K.from_base(K.base.from_int(n))


def _cube_type(K, b):
    """Flat signature of the factor type of T^3 + b over K, b != 0, char K != 3.

    -b a non-cube gives (3).  A cube root r of -b gives the roots r times
    the cube roots of unity: three of them in K when |K| = 1 mod 3, else
    only r, and the quotient is an irreducible quadratic.
    """
    if not K.is_cube(K.neg(b)):
        return (1, 3)
    return (1, 1, 1, 1, 1, 1) if K.order % 3 == 1 else (1, 1, 1, 2)


def _depressed_cubic_type(K, a, b):
    """Flat signature of the factor type of T^3 - a T + b over K, or None.

    For char K >= 5 and |K| = 1 mod 3, without factoring.  With
    Delta = 4a^3 - 27b^2 (None when Delta = 0, a repeated root), the number
    of irreducible factors is odd exactly when Delta is a square
    (Stickelberger; Swan, Pacific J. Math. 12, 1962), so a non-square gives
    (1)(2).  Otherwise the type is (1)(1)(1) or (3), and Cardano decides:
    the roots are u + a/(3u) with u^3 = -b/2 + sqrt(-Delta/108), which lies
    in K because -3 is a square there; they lie in K exactly when u does,
    i.e. when u^3 is a cube.  The two values of u^3 have product (a/3)^3,
    so either square root gives the same answer, and when one is 0 (a = 0)
    the other, -b, is used.
    """
    disc = K.sub(K.mul(_int(K, 4), K.pow(a, 3)), K.mul(_int(K, 27), K.mul(b, b)))
    if K.is_zero(disc):
        return None
    if not K.is_square(disc):
        return (1, 1, 1, 2)
    s = K.any_sqrt(K.mul(K.neg(disc), K.inv(_int(K, 108))))
    half_b = K.mul(b, K.inv(_int(K, 2)))
    u3 = K.sub(s, half_b)
    if K.is_zero(u3):
        u3 = K.neg(b)
    return (1, 1, 1, 1, 1, 1) if K.is_cube(u3) else (1, 3)


@lru_cache(maxsize=None)
def log_rule(E, quartic):
    """rule(la, lb, lc=None): the Signature of T^3 - a T + b, or T^4 - a T^2 - b T + c, over E.

    la, lb, lc: the logs of a, b, c in E.log_tables(), None for 0.  The
    answer is None where the residue of D is 0, else the factor type of
    the reduction, squarefree by Dedekind-Kummer: its factor degrees
    (_factor_type on the values) where no log decides it (a != 0 in a
    cubic of characteristic 2 or 3 or with |E| = 2 mod 3, b != 0 in a
    quartic), else the closed form, read off an even log (a square) or a
    log divisible by 3 (a cube), of _cube_type, _depressed_cubic_type, or
    T^4 - a T^2 + c = (T^2 - r)(T^2 - r') with r, r' = (a +- sqrt s)/2,
    s = a^2 - 4c: for s a square, T^2 - r splits when r is a square, and
    r r' = c; else the roots lie in E(sqrt s), as two quadratic factors,
    exactly when the norm c of r is a square.
    """
    exp, log, zech = E.log_tables()
    p, n, q3, m1 = E.p, E.q - 1, E.q % 3, log[E.neg(1)]  # -1 = g^m1
    l2, l4, l16, l108 = (log[E.from_int(k)] for k in (2, 4, 16, 108))
    l27, l144 = (log[E.neg(E.from_int(k))] for k in (27, 144))  # of -27, -144

    def add(x, y):  # the log of g^x + g^y, None for 0
        if x is None or y is None:
            return y if x is None else x
        z = zech[(y - x) % n]
        return None if z is None else x + z

    def mul(*xs):
        return None if None in xs else sum(xs)

    def factor(la, lb, lc=None):  # the factor degrees of the reduction
        a, b, c = (0 if l is None else exp[l % n] for l in (la, lb, lc))
        return _factor_type(E, [c, E.neg(b), E.neg(a), 0, 1] if quartic else [b, E.neg(a), 0, 1])

    if quartic:
        split, ones, twos, inert = (Signature.from_flat(f, 4) for f in ((1,) * 8, (1,) * 5 + (2,), (1, 2) * 2, (1, 4)))

        def rule(la, lb, lc):
            ls = add(mul(la, la), mul(l4, m1, lc))  # s = a^2 - 4c
            if lb is not None:  # quartic_disc's first form: 16 c s^2 + b^2 (4a^3 - 27b^2 - 144ac)
                inner = add(add(mul(l4, la, la, la), mul(l27, lb, lb)), mul(l144, la, lc))
                return None if add(mul(l16, lc, ls, ls), mul(lb, lb, inner)) is None else factor(la, lb, lc)
            if lc is None or ls is None:  # D = 16 c s^2
                return None
            if ls % 2:
                return inert if lc % 2 else twos
            if lc % 2:
                return ones
            return twos if (add(la, ls // 2) - l2) % 2 else split  # r = (a + sqrt s)/2

        return rule
    split, one_two, inert = (Signature.from_flat(f, 3) for f in ((1,) * 6, (1, 1, 1, 2), (1, 3)))

    def cube(l):  # T^3 - g^l
        return one_two if q3 == 2 else inert if l % 3 else split

    def rule(la, lb, lc=None):
        if p < 5:  # D = b^2 for p = 2, a^3 for p = 3
            return None if (lb if p == 2 else la) is None else factor(la, lb) if la is not None else cube(lb)
        if la is None:  # T^3 + b, -b = g^(lb + m1)
            return None if lb is None else cube(lb + m1)
        ld = add(l4 + 3 * la, None if lb is None else l27 + 2 * lb)  # D = 4a^3 - 27b^2
        if ld is None or q3 == 2:
            return None if ld is None else factor(la, lb)
        if ld % 2:
            return one_two
        lu = add((ld + m1 - l108) % n // 2, None if lb is None else lb + m1 - l2)  # sqrt(-D/108) - b/2
        return cube(lb + m1 if lu is None else lu)

    return rule


def _max_finite_degree(*polys):
    degs = [int(f.degree) for f in polys if not f.is_zero()]
    return max(degs) if degs else 0


def _cubic_iteration(model, place, trace, depth):
    """Inconclusive case in characteristic p = 2 or 3: iterate on a p-th power split.

    The split coefficient f (A for p = 2, B for p = 3) becomes
    f = f0^p + f1, where f0 is the p-th root of the part of f that is a
    p-th power: at infinity the part in degrees divisible by p, at a finite
    place the residue of f (pth_root, the inverse Frobenius).  For p = 2
    the next model is the reciprocal one, for p = 3 the shift with constant
    2, the cube root of 2 (2 = -1 is its own cube); both are dispatched
    again at the same place.
    """
    F = model.field
    p = F.p
    A, B = model.A, model.B
    if depth >= ITERATION_CAP:
        return _unknown(place, "char%d-iteration-cap" % p, trace + ["iteration cap %d reached" % ITERATION_CAP])
    if _max_finite_degree(A, B) > ITERATION_DEGREE_CAP:
        return _unknown(place, "char%d-iteration-degree-cap" % p,
                        trace + ["iterates exceeded degree %d" % ITERATION_DEGREE_CAP])
    name, f = ("A", A) if p == 2 else ("B", B)
    if place.is_infinite:
        f0 = FqPoly(F, [pth_root(F, c) for c in f.coeffs[::p]])
    else:
        K = residue_field(place.P)  # a sweep's tower has no lift
        f0 = K.lift(pth_root(K, K.embed(f)))
    if f0.is_zero():
        return _unknown(place, "char%d-iteration-stagnated" % p,
                        trace + ["decomposition has no %s part" % ("square" if p == 2 else "cube")])
    f1 = f - f0 ** p
    if p == 2:
        # reciprocal model: A' = A1 A + A0 B, B' = (A1 A0 + B) B
        tail = f1 * f0 + B
        A, B = f1 * A + f0 * B, tail * B
    else:
        # shift: B' = B1 - c A B0 with c^3 = 2, so c = 2 (= -1, its own cube)
        tail = B = f1 - (A * f0).scale(F.from_int(2))
    if tail.is_zero():
        raise InternalFault("char-%d iteration hit a reducible presentation" % p)
    trace.append("char-{p} decomposition {f} = {f}0^{p} + {f}1 with deg {f}0 = {d}; iterate"
                 .format(p=p, f=name, d=f0.degree))
    sub = signature_cubic(CubicModel(A, B, _skip_checks=True), place, depth + 1)
    return SignatureResult(
        sub.signature,
        "Char%dIteration" % p if sub.known else sub.method,
        trace + sub._trace,
        unknown_reason=sub.unknown_reason,
        kummer_reduction=sub.kummer_reduction,
        place=place,
    )


# ---------------------------------------------------------------------------
# quartic dispatcher (characteristic >= 5)
# ---------------------------------------------------------------------------


def signature_quartic(model, place, allow_transforms=True):
    F = model.field
    if F.p < 5:
        raise UnknownSignature("quartic-small-characteristic", "tables assume characteristic >= 5")
    if model.biquadratic:
        return _biquadratic_signature(model, place)
    A, B, C = model.A, model.B, model.C
    K = place.residue_field
    u2, u1, u0 = place.val(A), place.val(B), place.val(C)
    trace = [("u(A)=%s u(B)=%s u(C)=%s at %s", (u2, u1, u0), place)]

    alpha = Fraction(int(u2), 2) if u2 is not POS_INF else POS_INF
    beta = Fraction(int(u1), 3)
    gamma = Fraction(int(u0), 4)
    lo = min(x for x in (alpha, beta, gamma))
    at = (alpha == lo, beta == lo, gamma == lo)

    def res(f, u):
        return place.residue(f, int(u))

    if at == (True, False, False):
        return _quartic_case1(model, place, K, trace, u2, u1, u0, allow_transforms)
    if at == (False, True, False):
        # 2u1 < 3u2 and 4u1 < 3u0
        if int(u1) % 3:
            trace.append("B-corner strict with u1 not divisible by 3")
            return _finish(place, (1, 1, 3, 1), 4, "DegreeCase", trace)
        b = res(B, u1)
        red = [K.zero, K.neg(b), K.zero, K.zero, K.one]  # T^4 - Bbar T
        return _squarefree_kummer(place, trace + ["B-corner: Kummer on T(T^3 - Bbar)"], red, K)
    if at == (False, False, True):
        # u0 < 2u2 and 3u0 < 4u1
        m = int(u0) % 4
        if m % 2:
            trace.append("C-corner with u0 odd: totally ramified")
            return _finish(place, (4, 1), 4, "DegreeCase", trace)
        c = res(C, u0)
        if m == 2:
            sq = K.is_square(K.neg(c))
            trace.append("C-corner, u0 = 2 mod 4: -Cbar square=%s" % sq)
            sig = (2, 1, 2, 1) if sq else (2, 2)
            return _finish(place, sig, 4, "TransformChain", trace)
        red = [c, K.zero, K.zero, K.zero, K.one]  # T^4 + Cbar
        return _squarefree_kummer(place, trace + ["C-corner, 4 | u0: Kummer on T^4 + Cbar"], red, K)
    if at == (True, False, True):
        return _quartic_case4(model, place, K, trace, u2, u1, u0, allow_transforms)
    if at == (True, True, False):
        # u2/2 = u1/3 < u0/4
        a, b = res(A, u2), res(B, u1)
        four_a3 = K.mul(K.from_base(F.from_int(4)), K.pow(a, 3))
        t27b2 = K.mul(K.from_base(F.from_int(27)), K.mul(b, b))
        if four_a3 == t27b2:
            trace.append("leftover case: 4 Abar^3 = 27 Bbar^2")
            return _quartic_transform(model, place, trace, "case-AB-balanced", allow_transforms)
        red = [K.zero, K.neg(b), K.neg(a), K.zero, K.one]  # T^4 - Abar T^2 - Bbar T
        return _squarefree_kummer(place, trace + ["AB-balanced corner: Kummer on T(T^3 - Abar T - Bbar)"], red, K)
    if at == (False, True, True):
        # u1/3 = u0/4 < u2/2
        b, c = res(B, u1), res(C, u0)
        t27b4 = K.mul(K.from_base(F.from_int(27)), K.pow(b, 4))
        t256c3 = K.mul(K.from_base(F.from_int(256)), K.pow(c, 3))
        if t27b4 == t256c3:
            trace.append("leftover case: 27 Bbar^4 = 256 Cbar^3")
            return _quartic_transform(model, place, trace, "case-BC-balanced", allow_transforms)
        red = [c, K.neg(b), K.zero, K.zero, K.one]  # T^4 - Bbar T + Cbar
        return _squarefree_kummer(place, trace + ["BC-balanced corner: Kummer on T^4 - Bbar T + Cbar"], red, K)
    # all three equal to t = u0/4: the reduction's discriminant is the
    # residue of D at 12 t, so it is squarefree exactly when v(D) = 3 u0
    trace.append("fully balanced: Kummer on the full reduction")
    if place.val(model.discriminant()) != 3 * int(u0):
        trace.append("reduction has repeated factors")
        return _quartic_transform(model, place, trace, "case-full-reduction-multiple-roots", allow_transforms)
    a, b, c = res(A, u2), res(B, u1), res(C, u0)
    red = [c, K.neg(b), K.neg(a), K.zero, K.one]
    return _squarefree_kummer(place, trace, red, K)


def _quartic_case1(model, place, K, trace, u2, u1, u0, allow_transforms):
    F = model.field
    A, B, C = model.A, model.B, model.C
    u2, u1, u0 = int(u2), int(u1), int(u0)
    a = place.residue(A, u2)
    lhs = 2 * u1
    rhs = u0 + u2
    if lhs < rhs:
        if u2 % 2:
            trace.append("A-corner, 2u1 < u0+u2, u2 odd")
            return _finish(place, (1, 1, 1, 1, 2, 1), 4, "DegreeCase", trace)
        sq = K.is_square(a)
        trace.append("A-corner, 2u1 < u0+u2, u2 even: Abar square=%s" % sq)
        sig = (1, 1, 1, 1, 1, 1, 1, 1) if sq else (1, 1, 1, 1, 1, 2)
        return _finish(place, sig, 4, "TransformChain", trace)
    c = place.residue(C, u0)
    if lhs > rhs:
        ac = K.mul(a, c)
        if u2 % 2 and u0 % 2 == 0:
            trace.append("A-corner, 2u1 > u0+u2, u2 odd, u0 even")
            return _finish(place, (2, 1, 2, 1), 4, "DegreeCase", trace)
        if u2 % 2 and u0 % 2:
            sq = K.is_square(ac)
            trace.append("A-corner, u2 odd, u0 odd: Abar*Cbar square=%s" % sq)
            sig = (1, 1, 1, 1, 2, 1) if sq else (1, 2, 2, 1)
            return _finish(place, sig, 4, "TransformChain", trace)
        if u0 % 2:
            sq = K.is_square(a)
            trace.append("A-corner, u2 even, u0 odd: Abar square=%s" % sq)
            sig = (1, 1, 1, 1, 2, 1) if sq else (1, 2, 2, 1)
            return _finish(place, sig, 4, "TransformChain", trace)
        sq_a = K.is_square(a)
        sq_ac = K.is_square(ac)
        trace.append("A-corner, u2, u0 even: Abar square=%s, Abar*Cbar square=%s" % (sq_a, sq_ac))
        if sq_a and sq_ac:
            sig = (1, 1, 1, 1, 1, 1, 1, 1)
        elif sq_a or sq_ac:
            sig = (1, 1, 1, 1, 1, 2)
        else:
            sig = (1, 2, 1, 2)
        return _finish(place, sig, 4, "TransformChain", trace)
    # 2u1 == u0 + u2
    b = place.residue(B, u1)
    ac = K.mul(a, c)
    b2 = K.mul(b, b)
    neg4ac = K.neg(K.mul(K.from_base(F.from_int(4)), ac))
    if b2 == neg4ac:
        trace.append("leftover case: Bbar^2 = -4 Abar Cbar")
        return _quartic_transform(model, place, trace, "case-quadratic-resolvent-degenerate", allow_transforms)
    # roots of T^2 - Bbar T - Abar Cbar in k(P)
    quad = [K.neg(ac), K.neg(b), K.one]
    nroots = gp_count_roots(K, quad)
    if u2 % 2:
        trace.append("A-corner balanced, u2 odd: resolvent roots=%d" % nroots)
        sig = (1, 1, 1, 1, 2, 1) if nroots == 2 else (1, 2, 2, 1)
        return _finish(place, sig, 4, "TransformChain", trace)
    sq = K.is_square(a)
    trace.append("A-corner balanced, u2 even: Abar square=%s, resolvent roots=%d" % (sq, nroots))
    if sq:
        sig = (1, 1, 1, 1, 1, 1, 1, 1) if nroots == 2 else (1, 1, 1, 1, 1, 2)
    else:
        sig = (1, 1, 1, 1, 1, 2) if nroots == 2 else (1, 2, 1, 2)
    return _finish(place, sig, 4, "TransformChain", trace)


def _quartic_case4(model, place, K, trace, u2, u1, u0, allow_transforms):
    """u2 = u0/2 < 2u1/3 with B != 0."""
    F = model.field
    A, B, C = model.A, model.B, model.C
    u2, u0 = int(u2), int(u0)
    S = model.ac_discriminant()
    w = place.val(S)
    a = place.residue(A, u2)
    half = K.inv(K.from_base(F.from_int(2)))
    if u2 % 2 == 0:
        if w == 2 * u2:
            c = place.residue(C, u0)
            red = [c, K.zero, K.neg(a), K.zero, K.one]  # T^4 - Abar T^2 + Cbar
            return _squarefree_kummer(place, trace + ["AC-balanced corner, u2 even, no cancellation: Kummer"], red, K)
        a_half_sq = K.is_square(K.mul(a, half))
        reason = "thm-3.2.5-case-2" if a_half_sq else "case-AC-cancel-nonsquare"
        trace.append("AC-balanced corner with Abar^2 = 4 Cbar, Abar/2 square=%s" % a_half_sq)
        return _quartic_transform(model, place, trace, reason, allow_transforms)
    # u2 odd: every place has v(y) = -e u2 / 2, so every e is even; the
    # square class of the (A^2 - 4C)-residue decides two places versus one
    if w == 2 * u2:
        rho = place.residue(S, int(w))
        sq = K.is_square(rho)
        trace.append("AC-balanced corner, u2 odd: (A^2-4C)-residue square=%s" % sq)
        sig = (2, 1, 2, 1) if sq else (2, 2)
        return _finish(place, sig, 4, "TransformChain", trace)
    trace.append("AC-balanced corner, u2 odd, with cancellation in A^2 - 4C")
    return _quartic_transform(model, place, trace, "case-AC-cancel-odd", allow_transforms)


def _quartic_transform(model, place, trace, reason, allow_transforms):
    """Leftover cases: retry with alternative generators, else Unknown.

    The alternative presentations of the same field are y^2 - A/2,
    y^3 - (A/2) y and the rescaled 3By; `QuarticModel.substitutes` builds
    them once per model from closed-form minimal polynomials, so a place
    only dispatches them.  A dispatch of any of them at the same place
    yields the true signature whenever it lands in a decided row.  The
    published shift 3By - 4C is not attempted separately: after the
    depression our models require, it coincides with the rescaling.
    """
    if not allow_transforms:
        return _unknown(place, reason, trace + ["transform already applied; giving up"])
    for label, nxt in model.substitutes():
        sub = signature_quartic(nxt, place, allow_transforms=False)
        if sub.known:
            trace.append("resolved through the substitute generator %s" % label)
            return SignatureResult(sub.signature, sub.method, trace + sub._trace,
                                   kummer_reduction=sub.kummer_reduction, place=place)
        trace.append("substitute %s still undecided" % label)
    return _unknown(place, reason, trace)


# ---------------------------------------------------------------------------
# biquadratic engine: y^4 - A y^2 + C via the quadratic subfield
# ---------------------------------------------------------------------------


def _biquadratic_signature(model, place):
    """Two-step analysis of y^4 - A y^2 + C = 0 through z = 2y^2 - A, z^2 = A^2 - 4C.

    Complete for characteristic >= 5: level one splits P in the quadratic
    subfield, level two tests eta = (A + z)/2 as a square in each completion.
    """
    F = model.field
    A, C = model.A, model.C
    K = place.residue_field
    S = model.ac_discriminant()
    if S.is_zero():
        raise InternalFault("biquadratic model with square defining quadratic")
    u2, u0, w = place.val(A), place.val(C), place.val(S)
    trace = [("biquadratic: u(A)=%s u(C)=%s u(A^2-4C)=%s at %s", (u2, u0, w), place)]
    w = int(w)
    two = K.from_base(F.from_int(2))
    half = K.inv(two)
    pairs = []

    def level2(e1, f1, v_eta, square):
        """Places of F above one place of the quadratic subfield; square: is eta-bar a square."""
        if v_eta % 2:
            pairs.append((2 * e1, f1))
        elif square:
            pairs.append((e1, f1))
            pairs.append((e1, f1))
        else:
            pairs.append((e1, 2 * f1))

    if w % 2:
        # ramified below: e1=2, f1=1; v_Q doubles base valuations, v_Q(z) = w
        sigma = place.residue(S, w)
        va = 2 * int(u2) if u2 is not POS_INF else POS_INF
        if va > w:
            trace.append("ramified subfield place, v(eta) = w odd: total ramification")
            level2(2, 1, w, None)  # v odd -> ramified
        else:
            if va == w:
                raise InternalFault("parity clash in biquadratic ramified case")
            a = place.residue(A, int(u2))
            cls = K.mul(a, half)
            if int(u2) % 2:
                cls = K.mul(cls, sigma)
            sq = K.is_square(cls)
            trace.append("ramified subfield place, even v(eta): unit class square=%s" % sq)
            level2(2, 1, 0, sq)
        sig = Signature(pairs, 4)
        return SignatureResult(sig, "Biquadratic", trace, place=place)

    rho = place.residue(S, w)
    if K.is_square(rho):
        # both roots are dispatched and the pairs sorted, so any root will do
        zeta = K.any_sqrt(rho)
        branches = [zeta, K.neg(zeta)]
        trace.append("subfield splits")
        for z in branches:
            v_eta, cls = _eta_data(place, K, A, C, u2, u0, w, z, half)
            level2(1, 1, v_eta, K.is_square(cls))
        sig = Signature(pairs, 4)
        return SignatureResult(sig, "Biquadratic", trace, place=place)
    trace.append("subfield inert")
    v_eta, (x, y) = _eta_data_inert(place, K, A, u2, w, half)
    level2(1, 2, v_eta, _inert_square(K, rho, x, y))
    sig = Signature(pairs, 4)
    return SignatureResult(sig, "Biquadratic", trace, place=place)


def _eta_data(place, K, A, C, u2, u0, w, zeta, half):
    """(v(eta), residue class) for eta = (A + z)/2 on a split branch z = zeta * pi^(w/2)."""
    vz = w // 2
    va = int(u2) if u2 is not POS_INF else POS_INF
    if va < vz:
        a = place.residue(A, va)
        return va, K.mul(a, half)
    if va > vz:
        return vz, K.mul(zeta, half)
    a = place.residue(A, va)
    s = K.mul(K.add(a, zeta), half)
    if not K.is_zero(s):
        return va, s
    # cancellation: use eta * eta' = C with the other branch regular
    c = place.residue(C, int(u0))
    other = K.mul(K.sub(a, zeta), half)
    return int(u0) - va, K.mul(c, K.inv(other))


def _eta_data_inert(place, K, A, u2, w, half):
    """(v(eta), (x, y)) with eta-bar = x + y sqrt(rho) on the inert branch z = sqrt(rho) pi^(w/2)."""
    vz = w // 2
    va = int(u2) if u2 is not POS_INF else POS_INF
    if va < vz:
        return va, (K.mul(place.residue(A, va), half), K.zero)
    if va > vz:
        return vz, (K.zero, half)
    # y = 1/2, so eta-bar cannot vanish
    return va, (K.mul(place.residue(A, va), half), half)


def _inert_square(K, rho, x, y):
    """Is x + y sqrt(rho) a square in k(P)(sqrt(rho)), rho a non-square of k(P)?

    Exactly when its norm x^2 - rho y^2 is a square in k(P): for Q = |k(P)|
    odd, eta^((Q^2 - 1)/2) = N(eta)^((Q - 1)/2) with N(eta) = eta^(Q + 1).
    """
    return K.is_square(K.sub(K.mul(x, x), K.mul(rho, K.mul(y, y))))


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def signature_at(model, place):
    if model.degree == 3:
        return signature_cubic(model, place)
    return signature_quartic(model, place)


def infinite_signature(model):
    return signature_at(model, InfinitePlace(model.field))


# ---------------------------------------------------------------------------
# Newton polygons and valuations of elements at the places above P
# ---------------------------------------------------------------------------


def newton_slopes(coeffs, place):
    """Root valuations of a monic polynomial, as [(Fraction value, multiplicity)].

    coeffs is little-endian [c0, ..., c_{n-1}, 1] over F_q[x]; the returned
    values are the valuations (in the v_P normalization) of the roots in an
    algebraic closure of the completion at the place.
    """
    n = len(coeffs) - 1
    pts = []
    for i, c in enumerate(coeffs):
        v = place.val(c)
        if v is not POS_INF:
            pts.append((i, int(v)))
    if pts[0][0] != 0:
        raise ValueError("polynomial has zero constant term")
    # lower convex hull, left to right
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        out.append((-slope, x2 - x1))
    got = sum(m for _, m in out)
    if got != n:
        raise InternalFault("Newton polygon lengths %d != degree %d" % (got, n))
    return out


def valuation_assignments(sig, slopes):
    """All ways to give each place of sig a root valuation consistent with the polygon.

    Each assignment maps place index i -> integer valuation e_i * s.  A slope s
    of multiplicity m must absorb places with sum e_i f_i = m, and e_i * s must
    be an integer.
    """
    places = sig.pairs
    results = []

    def feasible(i, remaining, acc):
        if i == len(places):
            if all(m == 0 for m in remaining.values()):
                results.append(tuple(acc))
            return
        e, f = places[i]
        for s in remaining:
            if remaining[s] >= e * f and (e * s).denominator == 1:
                remaining[s] -= e * f
                acc.append(int(e * s))
                feasible(i + 1, remaining, acc)
                acc.pop()
                remaining[s] += e * f
        return

    feasible(0, {s: m for s, m in slopes}, [])
    uniq = sorted(set(results))
    return uniq


def element_valuations(model, alpha, place, sig_result=None):
    """Valuations of alpha at the places above `place`.

    Returns (assignments, sig): each assignment is a tuple of integers, one
    per (e, f) pair of the signature in sorted order.  Multiple assignments
    are returned when the Newton data does not pin the labeling down.
    """
    if sig_result is None:
        sig_result = signature_at(model, place)
    sig = sig_result.require()
    if alpha.is_constant():
        c = alpha.coords[0]
        if c.is_zero():
            raise ValueError("valuations of zero are undefined")
        base = int(place.val(c)) - int(place.val(alpha.denominator))
        return [tuple(e * base for e, _ in sig.pairs)], sig
    mp = minimal_polynomial_fq(alpha)
    if len(mp) - 1 != model.degree:
        raise ValueError("element generates a proper subfield; valuations not implemented")
    slopes = newton_slopes(mp, place)
    assignments = valuation_assignments(sig, slopes)
    if not assignments:
        raise InternalFault("no valuation assignment matches the signature %s" % sig)
    return assignments, sig
