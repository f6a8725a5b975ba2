"""Cubic and quartic function field models in standard form.

A cubic field is F_q(x, y) with y^3 - A y + B = 0, a quartic field is
F_q(x, y) with y^4 - A y^2 - B y + C = 0, coefficients in F_q[x].
Standard form means no nonconstant Q with Q^2 | A and Q^3 | B (and
Q^4 | C); construction enforces it together with irreducibility, so every
model handed to the signature and invariant machinery already satisfies
the hypotheses the case tables assume.

Order elements are coordinate vectors over the power basis {1, y, y^2[, y^3]}
with an optional monic denominator; multiplication reduces y-powers against
the defining relation, mirroring the closed product formulas the proofs use.
"""

from dataclasses import dataclass

from .poly import (
    POS_INF,
    FqPoly,
    FuncFieldError,
    HypothesisRefused,
    InternalFault,
    factorize,
    parse_poly,
    poly_gcd,
    poly_sqrt,
)
from .places import FinitePlace


class RationalFunction:
    """Reduced fraction num/den of FqPoly with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = FqPoly.one(num.field)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not num.is_zero():
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        else:
            den = FqPoly.one(num.field)
        if den.sgn != 1:
            c = num.field.inv(den.sgn)
            num, den = num.scale(c), den.scale(c)
        self.num = num
        self.den = den

    @classmethod
    def zero(cls, field):
        return cls(FqPoly.zero(field))

    @classmethod
    def one(cls, field):
        return cls(FqPoly.one(field))

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den.degree == 0

    def as_polynomial(self):
        if not self.is_polynomial():
            raise ValueError("%s is not a polynomial" % self)
        return self.num

    def __add__(self, other):
        other = _coerce_rf(other, self.num.field)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        other = _coerce_rf(other, self.num.field)
        return RationalFunction(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other):
        other = _coerce_rf(other, self.num.field)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = _coerce_rf(other, self.num.field)
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.is_polynomial():
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)


def _coerce_rf(v, field):
    if isinstance(v, RationalFunction):
        return v
    if isinstance(v, FqPoly):
        return RationalFunction(v)
    raise TypeError(v)


@dataclass(frozen=True)
class Transformation:
    """Record of a generator substitution y_new = (scale * y_old + shift) / divide.

    The standard-form reductions return it, so valuation arguments that
    rescale y stay auditable.
    """

    scale: FqPoly
    shift: FqPoly
    divide: FqPoly

    def is_identity(self):
        return (
            self.scale.degree == 0
            and self.scale.sgn == 1
            and self.shift.is_zero()
            and self.divide.degree == 0
            and self.divide.sgn == 1
        )


def _check_char(field, minimum, context):
    if field.p < minimum:
        raise HypothesisRefused(
            "characteristic", "%s requires characteristic >= %d, got %d" % (context, minimum, field.p)
        )


class CubicModel:
    """y^3 - A y + B = 0 over F_q[x], irreducible, standard form."""

    degree = 3

    def __init__(self, A, B, _skip_checks=False):
        self.field = A.field
        self.A = A
        self.B = B
        self._disc = None
        if not _skip_checks:
            if A.is_constant() and B.is_constant():
                raise HypothesisRefused("nonconstant-coefficient", "A or B must be nonconstant")
            q = _standard_form_divisor_cubic(A, B)
            if q.degree > 0:
                raise HypothesisRefused("standard-form", "Q=%s with Q^2|A, Q^3|B" % q)
            if not _cubic_irreducible(A, B):
                raise FuncFieldError("T^3 - (%s) T + (%s) is not irreducible" % (A, B))

    @property
    def n1(self):
        return self.A.degree

    @property
    def n0(self):
        return self.B.degree

    def defining_coeffs(self):
        """Coefficients [c0, c1, c2] of T^3 + c2 T^2 + c1 T + c0."""
        F = self.field
        return [self.B, -self.A, FqPoly.zero(F)]

    def discriminant(self):
        """cubic_disc(self), computed once per model."""
        if self._disc is None:
            self._disc = cubic_disc(self)
        return self._disc

    def y(self):
        return OrderElement(self, [FqPoly.zero(self.field), FqPoly.one(self.field), FqPoly.zero(self.field)])

    def element(self, a0, a1=None, a2=None, denominator=None):
        F = self.field
        zero = FqPoly.zero(F)
        coords = [a0, a1 if a1 is not None else zero, a2 if a2 is not None else zero]
        return OrderElement(self, coords, denominator)

    def __eq__(self, other):
        return isinstance(other, CubicModel) and (self.A, self.B) == (other.A, other.B)

    def __hash__(self):
        return hash(("cubic", self.A, self.B))

    def __repr__(self):
        return "CubicModel(q=%s, A=%s, B=%s)" % (self.field.describe(), self.A, self.B)

    def to_json(self):
        return {
            "kind": "cubic",
            "q": self.field.describe(),
            "A": list(self.A.coeffs),
            "B": list(self.B.coeffs),
        }

    def text_form(self):
        return "cubic q=%s A=%s B=%s" % (
            self.field.describe(),
            str(self.A).replace(" ", ""),
            str(self.B).replace(" ", ""),
        )


class QuarticModel:
    """y^4 - A y^2 - B y + C = 0 over F_q[x], char != 2, standard form."""

    degree = 4

    def __init__(self, A, B, C, _skip_checks=False):
        self.field = A.field
        self.A = A
        self.B = B
        self.C = C
        self._disc = self._ac_disc = None
        if not _skip_checks:
            if self.field.p == 2:
                raise HypothesisRefused("characteristic", "quartic models require characteristic != 2")
            if A.is_constant() and B.is_constant() and C.is_constant():
                raise HypothesisRefused("nonconstant-coefficient", "A, B or C must be nonconstant")
            q = _standard_form_divisor_quartic(A, B, C)
            if q.degree > 0:
                raise HypothesisRefused("standard-form", "Q=%s with Q^2|A, Q^3|B, Q^4|C" % q)
            if not _quartic_irreducible(A, B, C):
                raise FuncFieldError(
                    "T^4 - (%s) T^2 - (%s) T + (%s) is not irreducible" % (A, B, C)
                )
            if B.is_zero():
                # constants must not extend: A^2 - 4C = c u^2 with c a nonsquare
                # would put F_{q^2}(x) inside the field
                S = self.ac_discriminant()
                root = poly_sqrt(S.monic())
                if root is not None and not self.field.is_square(S.sgn):
                    raise HypothesisRefused(
                        "constant-field",
                        "A^2 - 4C is a nonsquare constant times a square; the "
                        "quadratic subfield is a constant extension",
                    )

    @property
    def n2(self):
        return self.A.degree

    @property
    def n1(self):
        return self.B.degree

    @property
    def n0(self):
        return self.C.degree

    @property
    def biquadratic(self):
        return self.B.is_zero()

    def defining_coeffs(self):
        F = self.field
        return [self.C, -self.B, -self.A, FqPoly.zero(F)]

    def discriminant(self):
        """quartic_disc(self), computed once per model."""
        if self._disc is None:
            self._disc = quartic_disc(self)
        return self._disc

    def ac_discriminant(self):
        """A^2 - 4C, the discriminant of T^2 - A T + C, computed once per model."""
        if self._ac_disc is None:
            self._ac_disc = self.A * self.A - self.C.scale(self.field.from_int(4))
        return self._ac_disc

    def y(self):
        F = self.field
        zero = FqPoly.zero(F)
        return OrderElement(self, [zero, FqPoly.one(F), zero, zero])

    def element(self, a0, a1=None, a2=None, a3=None, denominator=None):
        F = self.field
        zero = FqPoly.zero(F)
        coords = [
            a0,
            a1 if a1 is not None else zero,
            a2 if a2 is not None else zero,
            a3 if a3 is not None else zero,
        ]
        return OrderElement(self, coords, denominator)

    def __eq__(self, other):
        return isinstance(other, QuarticModel) and (self.A, self.B, self.C) == (
            other.A,
            other.B,
            other.C,
        )

    def __hash__(self):
        return hash(("quartic", self.A, self.B, self.C))

    def __repr__(self):
        return "QuarticModel(q=%s, A=%s, B=%s, C=%s)" % (
            self.field.describe(),
            self.A,
            self.B,
            self.C,
        )

    def to_json(self):
        return {
            "kind": "quartic",
            "q": self.field.describe(),
            "A": list(self.A.coeffs),
            "B": list(self.B.coeffs),
            "C": list(self.C.coeffs),
        }

    def text_form(self):
        return "quartic q=%s A=%s B=%s C=%s" % (
            self.field.describe(),
            str(self.A).replace(" ", ""),
            str(self.B).replace(" ", ""),
            str(self.C).replace(" ", ""),
        )


def model_from_text(text):
    """Parse 'cubic q=7 A=x^2 B=1' / 'quartic q=7 A=.. B=.. C=..' (values space-free)."""
    parts = text.split()
    if not parts or parts[0] not in ("cubic", "quartic"):
        raise ValueError("model text must start with 'cubic' or 'quartic'")
    kv = {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise ValueError("expected key=value, got %r" % tok)
        k, v = tok.split("=", 1)
        kv[k] = v
    keys = ("q", "A", "B") if parts[0] == "cubic" else ("q", "A", "B", "C")
    missing = [k for k in keys if k not in kv]
    if missing:
        raise ValueError("%s model text lacks %s" % (parts[0], ", ".join(k + "=" for k in missing)))
    from .fq import parse_field

    F = parse_field(kv["q"])
    if parts[0] == "cubic":
        return CubicModel(parse_poly(F, kv["A"]), parse_poly(F, kv["B"]))
    return QuarticModel(parse_poly(F, kv["A"]), parse_poly(F, kv["B"]), parse_poly(F, kv["C"]))


# ---------------------------------------------------------------------------
# standard form
# ---------------------------------------------------------------------------


def _standard_form_divisor_cubic(A, B):
    """Largest monic Q with Q^2 | A and Q^3 | B (A=0 allows any Q^3 | B)."""
    F = A.field
    out = FqPoly.one(F)
    basis = B if A.is_zero() else (A if B.is_zero() else poly_gcd(A, B))
    if basis.is_zero() or basis.degree < 1:
        return out
    for P, _ in factorize(basis):
        place = FinitePlace(P)
        va, vb = place.val(A), place.val(B)
        e = min(va // 2 if va is not POS_INF else POS_INF, vb // 3 if vb is not POS_INF else POS_INF)
        if e is POS_INF:
            raise FuncFieldError("zero model")
        if e > 0:
            out = out * P ** e
    return out


def _standard_form_divisor_quartic(A, B, C):
    F = A.field
    out = FqPoly.one(F)
    nonzero = [f for f in (A, B, C) if not f.is_zero()]
    if not nonzero:
        raise FuncFieldError("zero model")
    basis = nonzero[0]
    for f in nonzero[1:]:
        basis = poly_gcd(basis, f)
    if basis.degree < 1:
        return out
    for P, _ in factorize(basis):
        place = FinitePlace(P)
        caps = []
        for f, k in ((A, 2), (B, 3), (C, 4)):
            caps.append(POS_INF if f.is_zero() else place.val(f) // k)
        e = min(caps)
        if e > 0:
            out = out * P ** int(e)
    return out


def reduce_cubic(A, B):
    """Apply Q-reduction until standard form; returns (A', B', Q_total)."""
    total = FqPoly.one(A.field)
    while True:
        q = _standard_form_divisor_cubic(A, B)
        if q.degree < 1:
            return A, B, total
        A = A.exact_div(q ** 2)
        B = B.exact_div(q ** 3)
        total = total * q


def reduce_quartic(A, B, C):
    total = FqPoly.one(A.field)
    while True:
        q = _standard_form_divisor_quartic(A, B, C)
        if q.degree < 1:
            return A, B, C, total
        A = A.exact_div(q ** 2)
        B = B.exact_div(q ** 3)
        C = C.exact_div(q ** 4)
        total = total * q


def cubic_standard_form(S, U, V, W):
    """Normalize S T^3 + U T^2 + V T + W to y^3 - A y + B = 0.

    For characteristic >= 5 the cubic term is removed by the shift U/3 after
    scaling by S; in characteristic 3 the quadratic term survives and the
    substitution y -> B' / y from the T^3 - A'T^2 + B' shape is used instead.
    Returns (CubicModel, Transformation) with y_new = (scale*y_old + shift)/divide.
    """
    F = S.field
    if S.is_zero() or W.is_zero():
        raise HypothesisRefused("nonzero-ends", "need S != 0 and W != 0")
    p = F.p
    if p == 3:
        return _cubic_standard_form_char3(S, U, V, W)
    # z = S*y has z^3 + U z^2 + SV z + S^2 W = 0; w = z + U/3 depresses it
    inv3 = FqPoly.const(F, F.inv(F.from_int(3)))
    third_U = U * inv3
    A = third_U * U - S * V
    inv27 = FqPoly.const(F, F.inv(F.from_int(27)))
    B = S * S * W - S * U * V * inv3 + (U ** 3) * inv27 * FqPoly.const(F, 2)
    A2, B2, Q = reduce_cubic(A, B)
    model = CubicModel(A2, B2)
    trans = Transformation(scale=S, shift=third_U, divide=Q)
    return model, trans


def _cubic_standard_form_char3(S, U, V, W):
    F = S.field
    # scale first: z = S y satisfies z^3 + U z^2 + SV z + S^2 W
    a2, a1, a0 = U, S * V, S * S * W
    shift = FqPoly.zero(F)
    if not a2.is_zero():
        if a1.is_zero():
            t = FqPoly.zero(F)
        else:
            # translation t must satisfy 2*a2*t + a1 = 0 with t polynomial
            q, r = a1.divmod(a2)
            if not r.is_zero():
                raise HypothesisRefused(
                    "char3-translation", "cannot remove linear term: a2 does not divide a1"
                )
            t = q.scale(F.inv(F.from_int(2)))
            t = -t
        # after T -> T + t:  T^3 + a2 T^2 + (2 a2 t + a1) T + (t^3 + a2 t^2 + a1 t + a0)
        lin = a2 * t * FqPoly.const(F, 2) + a1
        if not lin.is_zero():
            raise InternalFault("char-3 linear elimination failed")
        const = t ** 3 + a2 * t * t + a1 * t + a0
        shift = t
        Aprime, Bprime = -a2, const
        if Bprime.is_zero():
            raise FuncFieldError("reducible cubic (zero constant after translation)")
        # T^3 - A'T^2 + B': substitute y -> B'/y, giving T^3 - A'B' T + B'^2
        A, B = Aprime * Bprime, Bprime * Bprime
        A2, B2, Q = reduce_cubic(A, B)
        model = CubicModel(A2, B2)
        # record is informational: the final generator is B'/(S y + shift) / Q
        trans = Transformation(scale=S, shift=shift, divide=Q)
        return model, trans
    A, B = -a1, a0
    A2, B2, Q = reduce_cubic(A, B)
    return CubicModel(A2, B2), Transformation(scale=S, shift=shift, divide=Q)


def quartic_standard_form(a3, a2, a1, a0):
    """Normalize T^4 + a3 T^3 + a2 T^2 + a1 T + a0 to y^4 - A y^2 - B y + C.

    Shift T -> T - a3/4, then Q-reduce.  Characteristic must differ from 2.
    """
    F = a3.field
    if F.p == 2:
        raise HypothesisRefused("characteristic", "quartic normalization requires char != 2")
    inv4 = FqPoly.const(F, F.inv(F.from_int(4)))
    t = -(a3 * inv4)
    # expand (T + t)^4 + a3 (T + t)^3 + a2 (T + t)^2 + a1 (T + t) + a0
    c4 = FqPoly.one(F)
    n2 = _binom_shift([a0, a1, a2, a3, c4], t)
    if not n2[3].is_zero():
        raise InternalFault("quartic depression failed")
    A = -n2[2]
    B = -n2[1]
    C = n2[0]
    A2, B2, C2, Q = reduce_quartic(A, B, C)
    model = QuarticModel(A2, B2, C2)
    return model, Transformation(scale=FqPoly.one(F), shift=t, divide=Q)


def _binom_shift(coeffs, t):
    """Coefficients of f(T + t) given little-endian coeffs of f."""
    F = t.field
    # Horner: repeatedly multiply by (T + t) and add the next coefficient
    acc = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        nxt = [FqPoly.zero(F)] * (len(acc) + 1)
        for i, a in enumerate(acc):
            nxt[i + 1] = nxt[i + 1] + a
            nxt[i] = nxt[i] + a * t
        nxt[0] = nxt[0] + c
        acc = nxt
    return acc


# ---------------------------------------------------------------------------
# model discriminants
# ---------------------------------------------------------------------------


def cubic_disc(model):
    """D = 4A^3 - 27B^2 = d(1, y, y^2); specializes to B^2 (char 2), A^3 (char 3)."""
    F = model.field
    A, B = model.A, model.B
    D = FqPoly.const(F, F.from_int(4)) * A ** 3 - FqPoly.const(F, F.from_int(27)) * B * B
    if F.p == 2 and D != B * B:
        raise InternalFault("char-2 discriminant mismatch")
    if F.p == 3 and D != A ** 3:
        raise InternalFault("char-3 discriminant mismatch")
    if D.is_zero():
        raise FuncFieldError("degenerate model: discriminant vanishes")
    return D


def quartic_disc(model):
    """D = d(1, y, y^2, y^3), via both closed forms, which must agree."""
    F = model.field
    _check_char(F, 5, "quartic discriminant")
    A, B, C = model.A, model.B, model.C

    def c(n):
        return FqPoly.const(F, F.from_int(n))

    form1 = c(16) * C * (A * A - c(4) * C) ** 2 + B * B * (
        c(4) * A ** 3 - c(27) * B * B - c(144) * A * C
    )
    inv9 = FqPoly.const(F, F.inv(F.from_int(9)))
    inv3 = FqPoly.const(F, F.inv(F.from_int(3)))
    t1 = c(2) * A ** 3 * inv9 - c(8) * A * C - c(3) * B * B
    t2 = A * A * inv3 + c(4) * C
    form2 = -(c(3) * t1 * t1) + c(4) * t2 ** 3
    if form1 != form2:
        raise InternalFault("the two closed forms of the quartic discriminant disagree")
    if form1.is_zero():
        raise FuncFieldError("degenerate model: discriminant vanishes")
    return form1


# ---------------------------------------------------------------------------
# order elements
# ---------------------------------------------------------------------------


class OrderElement:
    """a0 + a1 y + a2 y^2 (+ a3 y^3), over F_q[x], divided by an optional monic denominator."""

    __slots__ = ("model", "coords", "denominator")

    def __init__(self, model, coords, denominator=None):
        n = model.degree
        coords = list(coords)
        if len(coords) != n:
            raise ValueError("expected %d coordinates" % n)
        self.model = model
        self.coords = tuple(coords)
        if denominator is None:
            denominator = FqPoly.one(model.field)
        if denominator.is_zero():
            raise ZeroDivisionError("zero denominator")
        if denominator.sgn != 1:
            # scale into the coordinates so the denominator stays monic
            c = model.field.inv(denominator.sgn)
            self.coords = tuple(a.scale(c) for a in self.coords)
            denominator = denominator.scale(c)
        self.denominator = denominator

    def is_constant(self):
        return all(a.is_zero() for a in self.coords[1:])

    def __eq__(self, other):
        return (
            isinstance(other, OrderElement)
            and self.model == other.model
            and self.coords == other.coords
            and self.denominator == other.denominator
        )

    def __hash__(self):
        return hash((self.model, self.coords, self.denominator))

    def __add__(self, other):
        _same_model(self, other)
        if self.denominator == other.denominator:
            return OrderElement(
                self.model,
                [a + b for a, b in zip(self.coords, other.coords)],
                self.denominator,
            )
        d = self.denominator * other.denominator
        return OrderElement(
            self.model,
            [a * other.denominator + b * self.denominator for a, b in zip(self.coords, other.coords)],
            d,
        )

    def __neg__(self):
        return OrderElement(self.model, [-a for a in self.coords], self.denominator)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        _same_model(self, other)
        c = order_mul_coords(self.model, self.coords, other.coords)
        den = self.denominator * other.denominator
        return OrderElement(self.model, c, den)

    def __pow__(self, k):
        F = self.model.field
        out = self.model.element(FqPoly.one(F))
        b = self
        while k:
            if k & 1:
                out = out * b
            b = b * b
            k >>= 1
        return out

    def __repr__(self):
        names = ["", "*y", "*y^2", "*y^3"]
        parts = ["(%s)%s" % (a, names[i]) for i, a in enumerate(self.coords) if not a.is_zero()]
        body = " + ".join(parts) if parts else "0"
        if self.denominator.degree > 0:
            return "(%s)/(%s)" % (body, self.denominator)
        return body

    def to_json(self):
        return {
            "coords": [list(a.coeffs) for a in self.coords],
            "denominator": list(self.denominator.coeffs),
        }


def _same_model(a, b):
    if a.model != b.model:
        raise ValueError("elements live in different models")


def order_mul_coords(model, a, b):
    """Coordinates of the product over the power basis, denominators ignored."""
    if model.degree == 3:
        A, B = model.A, model.B
        a0, a1, a2 = a
        b0, b1, b2 = b
        c0 = a0 * b0 - a1 * b2 * B - a2 * b1 * B
        c1 = a0 * b1 + a1 * b0 + a1 * b2 * A + a2 * b1 * A - a2 * b2 * B
        c2 = a0 * b2 + a1 * b1 + a2 * b0 + a2 * b2 * A
        return [c0, c1, c2]
    # quartic: multiply as polynomials in y, reduce y^4..y^6 by the relation
    F = model.field
    zero = FqPoly.zero(F)
    prod = [zero] * 7
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            if not bj.is_zero():
                prod[i + j] = prod[i + j] + ai * bj
    A, B, C = model.A, model.B, model.C
    # y^4 = A y^2 + B y - C; higher powers by multiplying through by y
    reds = {4: [-C, B, A, zero]}
    reds[5] = _mul_y(reds[4], model)
    reds[6] = _mul_y(reds[5], model)
    out = prod[:4]
    for k in (4, 5, 6):
        if not prod[k].is_zero():
            out = [o + prod[k] * r for o, r in zip(out, reds[k])]
    return out


def _mul_y(vec, model):
    F = model.field
    zero = FqPoly.zero(F)
    A, B, C = model.A, model.B, model.C
    shifted = [zero] + list(vec[:-1])
    top = vec[-1]
    if not top.is_zero():
        shifted[0] = shifted[0] - top * C
        shifted[1] = shifted[1] + top * B
        shifted[2] = shifted[2] + top * A
    return shifted


def multiplication_matrix(alpha):
    """Matrix of multiplication by alpha over {1, y, ..., y^(n-1)} (denominator-free part)."""
    model = alpha.model
    n = model.degree
    F = model.field
    zero = FqPoly.zero(F)
    rows = []
    basis = []
    for i in range(n):
        coords = [zero] * n
        coords[i] = FqPoly.one(F)
        basis.append(coords)
    for e in basis:
        rows.append(order_mul_coords(model, e, list(alpha.coords)))
    # rows[i] = coordinates of y^i * alpha
    return rows


def norm(alpha):
    """Norm to F_q(x); exact determinant of the multiplication matrix."""
    model = alpha.model
    det = laplace_det(multiplication_matrix(alpha))
    if alpha.denominator.degree > 0:
        return RationalFunction(det, alpha.denominator ** model.degree)
    return RationalFunction(det)


def norm_cubic(alpha):
    """Prop 2.4.2-style closed norm for cubic integral elements (a polynomial)."""
    model = alpha.model
    if model.degree != 3:
        raise ValueError("norm_cubic needs a cubic model")
    if alpha.denominator.degree > 0:
        raise ValueError("closed form expects a denominator-free element")
    val = closed_norm_cubic(model, *alpha.coords)
    if val != norm(alpha).as_polynomial():
        raise InternalFault("closed cubic norm disagrees with matrix determinant")
    return val


def closed_norm_cubic(model, a, b, c):
    """N(a + b y + c y^2) on y^3 - A y + B = 0, for polynomials a, b, c.

    a^3 - B (b^3 - c^3 B - 3abc) - A (a b^2 - 2 a^2 c - c^2 (a A + b B)).
    The c-terms are skipped when c = 0 and the A-term when A = 0, so the
    exhaustive searches over a + b y and over purely cubic models do no
    extra work.
    """
    F, A, B = model.field, model.A, model.B
    t1 = b ** 3
    if c:
        t1 = t1 - c ** 3 * B - (a * b * c).scale(F.from_int(3))
    val = a ** 3 - B * t1
    if A.is_zero():
        return val
    t2 = a * b * b
    if c:
        t2 = t2 - (a * a * c).scale(F.from_int(2)) - c * c * (a * A + b * B)
    return val - A * t2


def trace(alpha):
    rows = multiplication_matrix(alpha)
    F = alpha.model.field
    t = FqPoly.zero(F)
    for i in range(alpha.model.degree):
        t = t + rows[i][i]
    if alpha.denominator.degree > 0:
        return RationalFunction(t, alpha.denominator)
    return RationalFunction(t)


def laplace_det(mat):
    """Determinant of a small square matrix by Laplace expansion along the first row.

    The entries need only + - *, so the one routine serves int, FqPoly and
    RationalFunction matrices.
    """
    if len(mat) == 1:
        return mat[0][0]
    det = None
    for j, a in enumerate(mat[0]):
        term = a * laplace_det([row[:j] + row[j + 1 :] for row in mat[1:]])
        det = term if det is None else (det - term if j % 2 else det + term)
    return det


def char_poly(alpha):
    """Characteristic polynomial of multiplication by alpha.

    Returned little-endian as RationalFunction coefficients [c0..c_{n-1}, 1]
    of T^n + c_{n-1} T^(n-1) + ... + c0.
    """
    model = alpha.model
    F = model.field
    n = model.degree
    rows = multiplication_matrix(alpha)  # integral part
    # char poly of M/d = det(T I - M/d): compute for M then substitute T -> dT, divide by d^n
    coeffs = _char_poly_int(rows, F)  # for the numerator matrix
    d = alpha.denominator
    if d.degree == 0:
        return [RationalFunction(c) for c in coeffs[:-1]] + [RationalFunction.one(F)]
    out = []
    for i, c in enumerate(coeffs[:-1]):
        # coefficient of T^i picks up d^i / d^n = 1/d^(n-i)
        out.append(RationalFunction(c, d ** (n - i)))
    out.append(RationalFunction.one(F))
    return out


def _char_poly_int(rows, F):
    """Characteristic polynomial via principal-minor sums (exact, small n)."""
    n = len(rows)
    import itertools

    sums = []
    for k in range(1, n + 1):
        s = FqPoly.zero(F)
        for idx in itertools.combinations(range(n), k):
            sub = [[rows[i][j] for j in idx] for i in idx]
            s = s + laplace_det(sub)
        sums.append(s)
    # char(T) = T^n - e1 T^(n-1) + e2 T^(n-2) - ...
    out = [FqPoly.zero(F)] * (n + 1)
    out[n] = FqPoly.one(F)
    sign = -1
    for k in range(1, n + 1):
        out[n - k] = sums[k - 1] if sign > 0 else -sums[k - 1]
        sign = -sign
    return out


def minimal_polynomial(alpha):
    """Minimal polynomial over F_q(x), as little-endian RationalFunction coeffs.

    On the field L of the model, the characteristic polynomial cp of
    multiplication by alpha is mp^[L : F_q(x)(alpha)] (Lang, Algebra, on
    norm and trace).  An alpha in F_q(x) gets T - alpha.  A cubic alpha
    outside F_q(x) generates L, so mp = cp.  A quartic one generates a
    field of degree 2 or 4, so cp = mp^2 or cp = mp: with cp = T^4 + c3 T^3
    + c2 T^2 + c1 T + c0, u = c3/2 and v = (c2 - u^2)/2, cp = (T^2 + u T +
    v)^2 exactly when c1 = 2uv and c0 = v^2 (quartic models have odd
    characteristic, so 1/2 exists).
    """
    F = alpha.model.field
    one = RationalFunction.one(F)
    if alpha.is_constant():
        return [-RationalFunction(alpha.coords[0], alpha.denominator), one]
    cp = char_poly(alpha)
    if alpha.model.degree == 3:
        return cp
    c0, c1, c2, c3 = cp[:4]
    half = RationalFunction(FqPoly(F, (F.inv(F.from_int(2)),)))
    u = c3 * half
    v = (c2 - u * u) * half
    uv = u * v
    if c1 == uv + uv and c0 == v * v:
        return [v, u, one]
    return cp


def minimal_polynomial_fq(alpha):
    """Minimal polynomial with F_q[x] coefficients; errors if any is not polynomial."""
    mp = minimal_polynomial(alpha)
    out = []
    for c in mp:
        if not c.is_polynomial():
            raise FuncFieldError("element is not integral: %r has denominator" % c)
        out.append(c.as_polynomial())
    return out


def is_integral(alpha):
    """True iff all minimal (equivalently characteristic) polynomial coefficients are polynomials."""
    cp = char_poly(alpha)
    return all(c.is_polynomial() for c in cp)


def pole_divisor_degree(model):
    """deg div(y)_- = max of the coefficient degrees (Cor 2.1.2 / Prop 3.1.1)."""
    degs = [model.n1, model.n0] if model.degree == 3 else [model.n2, model.n1, model.n0]
    degs = [d for d in degs if d != float("-inf")]
    return int(max(degs))


# ---------------------------------------------------------------------------
# irreducibility of the defining polynomials over F_q(x)
# ---------------------------------------------------------------------------


def _monic_divisors(f):
    """All monic divisors of nonzero f (desk scale)."""
    F = f.field
    out = [FqPoly.one(F)]
    for P, m in factorize(f):
        new = []
        for d in out:
            acc = d
            for _ in range(m + 1):
                new.append(acc)
                acc = acc * P
        out = new
    # dedupe (factors are distinct so no dupes, but keep deterministic order)
    seen = []
    keys = set()
    for d in out:
        k = d.coeffs
        if k not in keys:
            keys.add(k)
            seen.append(d)
    return seen


def _top_degree_ties(degrees):
    """True when the largest of `degrees` occurs at least twice.

    A polynomial root r of degree t makes the terms of the defining
    polynomial at r sum to zero, so their leading terms must cancel: the
    top degree is reached twice (the Newton polygon at infinity).  A zero
    coefficient has degree -inf and never reaches the top.
    """
    top = max(degrees)
    return degrees.count(top) >= 2


def _cubic_irreducible(A, B):
    """T^3 - A T + B irreducible over F_q(x) iff it has no polynomial root."""
    if B.is_zero():
        return False
    F = A.field
    for d in _monic_divisors(B):
        t = d.degree
        if not _top_degree_ties([3 * t, A.degree + t, B.degree]):
            continue
        for c in range(1, F.q):
            r = d.scale(c)
            if (r ** 3 - A * r + B).is_zero():
                return False
    return True


def _quartic_irreducible(A, B, C):
    """No linear factor (root divides C) and no quadratic split."""
    if C.is_zero():
        return False
    F = A.field
    divisors = _monic_divisors(C)
    for d in divisors:
        t = d.degree
        if not _top_degree_ties([4 * t, A.degree + 2 * t, B.degree + t, C.degree]):
            continue
        for c in range(1, F.q):
            r = d.scale(c)
            if (r ** 4 - A * r * r - B * r + C).is_zero():
                return False
    # quadratic split (T^2 + uT + v)(T^2 - uT + w): vw = C, v + w - u^2 = -A, u(w - v) = -B
    if B.is_zero():
        # u = 0 branch: v + w = -A, vw = C -> z^2 + A z + C reducible over F_q[x]
        disc = A * A - C.scale(F.from_int(4))
        if poly_sqrt(disc) is not None:
            return False
        # u != 0 branch with B = 0 needs w = v, v^2 = C, 2v - u^2 = -A
        s = poly_sqrt(C)
        if s is not None:
            for v in (s, -s):
                t = v.scale(F.from_int(2)) + A
                u = poly_sqrt(t)
                if u is not None:
                    return False
        return True
    for d in divisors:
        for c in range(1, F.q):
            v = d.scale(c)
            w_num = C
            # w = C / v must be a polynomial
            q, r = w_num.divmod(v)
            if not r.is_zero():
                continue
            w = q
            t = w + v + A  # u^2 = A + v + w
            u = poly_sqrt(t)
            if u is None:
                continue
            for uu in (u, -u):
                if uu * (w - v) == -B:
                    return False
    return True
