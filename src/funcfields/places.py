"""Places of the rational function field F_q(x).

A finite place is a monic irreducible polynomial P; the infinite place is
the degree valuation, v(f) = -deg f.  Both expose the same interface:

    val(f)             -- normalized valuation (POS_INF for f = 0)
    residue_field      -- a field-protocol object k(P)
    residue(f, s)      -- image of f / pi^s in k(P), for any s <= val(f);
                          zero when s < val(f), the unit residue at s = val(f)

residue() is the workhorse of the signature tables: every "A-bar is a
square mod P" test and every "sgn(A) is a square" test is the same call.

A finite place's residue field is F_q or F_{q^d} = GF(p, k d) with the
residue map f -> f(alpha), at degree 1 and at the places that the
enumeration of monic irreducibles reached as Frobenius orbits, because
the class-number and zeta computations spend their time in one signature
per place at exactly these places; otherwise coefficient tuples mod P.
The sweep over the places of one degree (ZetaData.finite) takes its towers
from the enumeration (poly.tower_fields) and hands each place its field;
every other place asks poly.residue_field(P), a cache keyed by P, on first
use.  Either kind gives the residue of f as K.embed(f), and the two agree
through x -> alpha, so results do not depend on which kind a place gets;
a root that leaves the field is poly.residue_root's, the first in gp_roots
order on both kinds as on F_q, which has no root rule of its own.
The infinite place's residue field is F_q as the degree-1 field of the
place x.

One valuation rule serves both kinds: P divides f exactly when the residue
of f is zero, so val embeds f and, only while that residue is zero,
divides by P, once per unit of valuation.  On an evaluation field
v_P(f) = 0 costs one Horner pass and no division, as P is the minimal
polynomial of alpha; on a tuple field the embedding is one reduction mod
P.  A place remembers, per polynomial, v_P(f) and the residue of f / P^v,
so a residue() after val() computes nothing more.
"""

from .poly import FqPoly, POS_INF, residue_field


class FinitePlace:
    """Finite place, identified with a monic irreducible P in F_q[x]."""

    __slots__ = ("P", "field", "_rf", "_split")

    def __init__(self, P, residue_field=None):
        """residue_field, when given, is k(P) (from poly.tower_fields); else residue_field(P) on first use."""
        if P.sgn != 1:
            P = P.monic()
        self.P = P
        self.field = P.field
        self._rf = residue_field
        # coefficient tuple of f -> (v_P(f), residue of f / P^v); every f a
        # place sees is over the place's own field
        self._split = {}

    @property
    def degree(self):
        """deg P; the traced benchmark run (perfbench/tracing.py) groups signatures by it."""
        return len(self.P.coeffs) - 1

    @property
    def is_infinite(self):
        return False

    @property
    def residue_field(self):
        if self._rf is None:
            self._rf = residue_field(self.P)
        return self._rf

    def _split_off(self, f):
        """(v, residue of f / P^v) for nonzero f, v = v_P(f)."""
        key = f.coeffs
        hit = self._split.get(key)
        if hit is not None:
            return hit
        P, K = self.P, self._rf or self.residue_field
        zero = K.zero
        v = 0
        # P | f exactly when f has residue zero; the first nonzero one is kept
        r = K.embed(f)
        while r == zero:
            f = f.divmod(P)[0]
            v += 1
            r = K.embed(f)
        hit = self._split[key] = (v, r)
        return hit

    def val(self, f):
        """v_P(f): POS_INF for f = 0, else the exponent of P in f.

        f(alpha) != 0 on a tower place gives 0 without a division; see the
        module docstring.
        """
        if f.is_zero():
            return POS_INF
        return self._split_off(f)[0]

    def residue(self, f, s):
        """Residue of f / P^s; requires s <= val(f)."""
        if f.is_zero():
            return self.residue_field.zero
        v, r = self._split_off(f)
        if s > v:
            raise ValueError("residue level exceeds valuation")
        return r if s == v else self.residue_field.zero

    def describe(self):
        return str(self.P)


class InfinitePlace:
    """The place at infinity of F_q(x); v(f) = -deg f, uniformizer 1/x."""

    __slots__ = ("field", "_rf")

    def __init__(self, field):
        self.field = field
        self._rf = None

    @property
    def is_infinite(self):
        return True

    @property
    def residue_field(self):
        """F_q as the degree-1 residue field of the place x.

        Its operations are F_q's own.  Residues at infinity come from
        residue(), never from its embed, which would evaluate at x = 0.
        """
        if self._rf is None:
            self._rf = residue_field(FqPoly.x(self.field))
        return self._rf

    def val(self, f):
        if f.is_zero():
            return POS_INF
        return -f.degree

    def residue(self, f, s):
        """Residue of f * x^s at infinity: the coefficient of x^(-s)."""
        if f.is_zero():
            return 0
        if -s < f.degree:
            raise ValueError("residue level exceeds valuation")
        return f.coeff(-s)

    def describe(self):
        return "infinity"
