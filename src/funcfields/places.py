"""Places of the rational function field F_q(x).

A finite place is a monic irreducible polynomial P; the infinite place is
the degree valuation, v(f) = -deg f.  Both expose the same interface:

    val(f)             -- normalized valuation (POS_INF for f = 0)
    degree             -- residue field degree over F_q
    residue_field      -- a field-protocol object k(P)
    residue(f, s)      -- image of f / pi^s in k(P), for any s <= val(f);
                          zero when s < val(f), the unit residue at s = val(f)

residue() is the workhorse of the signature tables: every "A-bar is a
square mod P" test and every "sgn(A) is a square" test is the same call.

Which residue field a finite place gets (poly.residue_field): a place of
degree 1 gets F_q itself with the residue map f -> f(-P(0)); a place of
degree d >= 2 that monic_irreducibles reached as a Frobenius orbit (all
places of degree d once they are enumerated, when q^d <=
fq.TABLE_MAX_ORDER) gets F_{q^d} = GF(p, k d) with the map f -> f(alpha)
at the root alpha of P that the enumeration found.  Both compute with
the ints of that field (plain ints mod p, or table lookups), because the
class-number and zeta computations spend their time in Kummer factor
types at exactly these places.  Every other place, such as
a place over D of degree >= 2 met without enumeration, keeps the
coefficient-tuple ResidueField: building F_{q^d} tables for it would cost
more than the few residue operations it needs.  The two agree through
x -> alpha, so results do not depend on which one a place gets.  The
infinite place's residue field is F_q as a TowerResidueField too.
"""

from .poly import FqPoly, POS_INF, residue_field


class FinitePlace:
    """Finite place, identified with a monic irreducible P in F_q[x]."""

    __slots__ = ("P", "field", "_rf")

    def __init__(self, P):
        if P.sgn != 1:
            P = P.monic()
        self.P = P
        self.field = P.field
        self._rf = None

    @property
    def degree(self):
        return len(self.P.coeffs) - 1

    @property
    def is_infinite(self):
        return False

    @property
    def residue_field(self):
        if self._rf is None:
            self._rf = residue_field(self.P)
        return self._rf

    def val(self, f):
        if f.is_zero():
            return POS_INF
        v = 0
        while True:
            q, r = f.divmod(self.P)
            if not r.is_zero():
                return v
            v += 1
            f = q

    def residue(self, f, s):
        """Residue of f / P^s; requires s <= val(f)."""
        K = self.residue_field
        for _ in range(s):
            q, r = f.divmod(self.P)
            if not r.is_zero():
                raise ValueError("residue level exceeds valuation")
            f = q
        return K.embed(f)

    def __eq__(self, other):
        return isinstance(other, FinitePlace) and self.P == other.P

    def __hash__(self):
        return hash(("fin", self.P))

    def __repr__(self):
        return "FinitePlace(%s)" % (self.P,)

    def describe(self):
        return str(self.P)


class InfinitePlace:
    """The place at infinity of F_q(x); v(f) = -deg f, uniformizer 1/x."""

    __slots__ = ("field", "_rf")

    def __init__(self, field):
        self.field = field
        self._rf = None

    @property
    def degree(self):
        return 1

    @property
    def is_infinite(self):
        return True

    @property
    def residue_field(self):
        """F_q as the degree-1 TowerResidueField of the place x.

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

    def __eq__(self, other):
        return isinstance(other, InfinitePlace) and self.field == other.field

    def __hash__(self):
        return hash(("inf", self.field))

    def __repr__(self):
        return "InfinitePlace(%s)" % self.field.describe()

    def describe(self):
        return "infinity"
