"""Maximum values, unit detection, fundamental-system constructions, regulators.

The maximum value is the degree surrogate for -v_{P_1} at the distinguished
infinite place; it is additive on units, which is what certifies the
constructed systems as fundamental without any lattice reduction.  All
regulator arithmetic is exact rational, since valuations can be
half-integral before the ramification scaling.
"""

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd

from .fq import digits
from .poly import FqPoly, HypothesisRefused, InternalFault, is_squarefree, squarefree_split
from .places import InfinitePlace
from .models import CubicModel, closed_norm_cubic, laplace_det, norm, norm_cubic
from .signature import element_valuations, infinite_signature
from .invariants import unit_rank


@dataclass
class MaxValue:
    value: Fraction  # already scaled by e_{P_1}; integral for honest inputs
    attained_terms: tuple  # subset of ("a0", "a1*y", "a2*y^2")
    unique: bool

    def __int__(self):
        if self.value.denominator != 1:
            raise InternalFault("maximum value failed to be an integer")
        return int(self.value)


def max_value(model, alpha):
    """Maximum value of a cubic order element (characteristic >= 5, 3n1 != 2n0)."""
    if model.degree != 3:
        raise ValueError("maximum values are defined for cubic models")
    F = model.field
    if F.p < 5:
        raise HypothesisRefused("characteristic", "maximum value needs characteristic >= 5")
    n1 = model.n1 if not model.A.is_zero() else None
    n0 = model.n0
    big_A = 3 * n1 if n1 is not None else None
    if big_A is not None and big_A == 2 * n0:
        raise HypothesisRefused("balanced-degrees", "maximum value undefined when 3 deg A = 2 deg B")
    if alpha.denominator.degree > 0:
        raise ValueError("maximum value expects a denominator-free element")
    m = [a.degree for a in alpha.coords]  # NEG_DEG for zero coordinates
    if big_A is not None and big_A > 2 * n0:
        steps = (Fraction(0), Fraction(n1, 2), Fraction(n1))
        e = 2 if n1 % 2 else 1
    else:
        steps = (Fraction(0), Fraction(n0, 3), Fraction(2 * n0, 3))
        e = 3 if n0 % 3 else 1
    terms = []
    names = ("a0", "a1*y", "a2*y^2")
    for name, deg, step in zip(names, m, steps):
        if deg != float("-inf"):
            terms.append((Fraction(int(deg)) + step, name))
    if not terms:
        raise ValueError("maximum value of zero is undefined")
    best = max(t[0] for t in terms)
    attained = tuple(name for val, name in terms if val == best)
    return MaxValue(value=e * best, attained_terms=attained, unique=len(attained) == 1)


def is_unit(model, alpha):
    """alpha in O*: its norm is a nonzero constant."""
    if alpha.denominator.degree > 0:
        return False
    n = norm(alpha).as_polynomial()
    return (not n.is_zero()) and n.degree == 0


@dataclass
class UnitCertificate:
    model: object
    units: list
    rank: int
    regulator_R: Fraction
    regulator_RSq: Fraction
    construction: str  # Thm245a / Thm245b / Thm246 / Thm247 / UserSupplied
    hypotheses: dict  # name -> bool
    notes: list = dc_field(default_factory=list)

    def to_json(self):
        return {
            "construction": self.construction,
            "rank": self.rank,
            "R": [self.regulator_R.numerator, self.regulator_R.denominator],
            "R_S": [self.regulator_RSq.numerator, self.regulator_RSq.denominator],
            "units": [u.to_json() for u in self.units],
            "hypotheses": {k: bool(v) for k, v in self.hypotheses.items()},
            "notes": self.notes,
        }


def _refuse(checks, name, detail=""):
    checks[name] = False
    raise HypothesisRefused(name, detail)


def construct_rank1(field, A, a, kappa, variant):
    """Rank-1 fields with fundamental unit a + y (variants Thm245 and Thm246)."""
    F = field
    checks = {}
    if variant not in ("Thm245", "Thm246"):
        raise ValueError("variant must be Thm245 or Thm246")
    if F.p < 5:
        _refuse(checks, "characteristic>=5")
    checks["characteristic>=5"] = True
    if kappa == 0:
        _refuse(checks, "kappa-nonzero")
    checks["kappa-nonzero"] = True
    if a.is_zero():
        _refuse(checks, "a-nonzero")
    checks["a-nonzero"] = True
    n1 = A.degree
    case = None
    if variant == "Thm245":
        if not (n1 > 0):
            _refuse(checks, "degA-positive")
        checks["degA-positive"] = True
        if 2 * a.degree >= n1:
            _refuse(checks, "deg-a<degA/2")
        checks["deg-a<degA/2"] = True
        if n1 % 2:
            case = "a"
            checks["degA-odd"] = True
        else:
            if F.is_square(A.sgn):
                _refuse(checks, "sgnA-nonsquare", "even deg A requires a nonsquare leading coefficient")
            checks["sgnA-nonsquare"] = True
            case = "b"
    else:
        if F.q % 3 != 2:
            _refuse(checks, "q=-1-mod-3")
        checks["q=-1-mod-3"] = True
        if 2 * a.degree <= n1:
            _refuse(checks, "deg-a>degA/2")
        checks["deg-a>degA/2"] = True
    B = a * (a * a - A) + FqPoly(F, (kappa,))
    D = FqPoly.const(F, F.from_int(4)) * A ** 3 - FqPoly.const(F, F.from_int(27)) * B * B
    try:
        D1, D2 = squarefree_split(D)
    except ValueError:
        _refuse(checks, "D-squarefree-split", "D is not of the form D1 * D2^2")
    if not (B % D2).is_zero():
        _refuse(checks, "D2-divides-B")
    checks["D-squarefree-split"] = True
    checks["D2-divides-B"] = True
    try:
        model = CubicModel(A, B)
    except Exception as exc:
        _refuse(checks, "irreducible", str(exc))
    checks["irreducible"] = True
    eps = model.element(a, FqPoly.one(F))
    n = norm_cubic(eps)
    if n.degree != 0:
        raise InternalFault("construction produced a non-unit")
    checks["unit-norm"] = True
    rank = unit_rank(model)
    if rank != 1:
        raise InternalFault("construction produced rank %d, expected 1" % rank)
    checks["rank-1"] = True
    R, RS = regulator(model, [eps])
    if variant == "Thm245":
        expect = Fraction(n1) if case == "a" else Fraction(n1, 2)
        if R != expect:
            raise InternalFault("regulator %s does not match the closed form %s" % (R, expect))
        construction = "Thm245a" if case == "a" else "Thm245b"
    else:
        construction = "Thm246"
    return model, UnitCertificate(model, [eps], 1, R, RS, construction, checks)


def construct_rank2(field, A):
    """Thm 2.4.7 family y^3 = A^2 y + 1 with fundamental system {y, A + y}."""
    F = field
    checks = {}
    if F.p < 5:
        _refuse(checks, "characteristic>=5")
    checks["characteristic>=5"] = True
    if A.degree < 1:
        _refuse(checks, "A-nonconstant")
    checks["A-nonconstant"] = True
    D = FqPoly.const(F, F.from_int(4)) * A ** 6 - FqPoly.const(F, F.from_int(27))
    if not is_squarefree(D):
        _refuse(checks, "D-squarefree")
    checks["D-squarefree"] = True
    # model: y^3 - A^2 y - 1 = 0, so B = -1 in the y^3 - Ay + B convention
    model = CubicModel(A * A, FqPoly.const(F, F.neg(F.one)))
    n1 = model.n1  # = 2 deg A, even
    witness = _intermediate_unit_search(model, A)
    if witness is not None:
        checks["no-intermediate-unit"] = False
        raise HypothesisRefused(
            "no-intermediate-unit", "found alpha = %s with intermediate maximum value" % (witness,)
        )
    checks["no-intermediate-unit"] = True
    eps1 = model.y()
    eps2 = model.element(A, FqPoly.one(F))
    for eps in (eps1, eps2):
        if norm_cubic(eps).degree != 0:
            raise InternalFault("expected unit in the rank-2 construction")
    checks["unit-norms"] = True
    rank = unit_rank(model)
    if rank != 2:
        raise InternalFault("construction produced rank %d, expected 2" % rank)
    checks["rank-2"] = True
    R, RS = regulator(model, [eps1, eps2])
    lo, hi = Fraction(n1, 2), Fraction(3 * n1 * n1, 4)
    if not (lo <= R <= hi):
        raise InternalFault("regulator %s outside [%s, %s]" % (R, lo, hi))
    checks["regulator-bounds"] = True
    cert = UnitCertificate(model, [eps1, eps2], 2, R, RS, "Thm247", checks)
    return model, cert


def _intermediate_unit_search(model, A):
    """Remark 2.4.8: search for alpha = a + b y with deg a = deg b + deg A < 2 deg A.

    Returns a witness (a, b) when a unit with intermediate maximum value
    exists, else None.  Exhaustive over the stated degree window.
    """
    F = model.field
    half_n1 = A.degree  # n1/2
    zero = FqPoly.zero(F)
    # deg b = 0 gives maximum value exactly n1/2 (the units y, A + y themselves);
    # only deg b >= 1 can land strictly between n1/2 and n1
    for db in range(1, half_n1):
        da = db + half_n1
        for b_idx in range(F.q ** db):
            for b_lead in range(1, F.q):
                b = FqPoly(F, digits(b_idx, F.q, db) + [b_lead])
                for a_idx in range(F.q ** da):
                    for a_lead in range(1, F.q):
                        a = FqPoly(F, digits(a_idx, F.q, da) + [a_lead])
                        n = closed_norm_cubic(model, a, b, zero)
                        if not n.is_zero() and n.degree == 0:
                            return (a, b)
    return None


def regulator(model, units, infinite=None):
    """(R, R_S^(q)) from the unit valuation matrix; exact rationals.

    Well-definedness is asserted by comparing two different r x r minors and,
    when the Newton data leaves several place labelings open, by checking
    that every consistent labeling yields the same absolute determinant.
    """
    if infinite is None:
        infinite = infinite_signature(model)
    sig = infinite.require()
    r = len(units)
    if sig.place_count - 1 != r:
        raise ValueError("need exactly rank = %d units, got %d" % (sig.place_count - 1, r))
    fs = [f for _, f in sig.pairs]
    if r == 0:
        return Fraction(1), Fraction(1)
    place = InfinitePlace(model.field)
    y_assigns, _ = element_valuations(model, model.y(), place, infinite)
    options = []
    for eps in units:
        if norm(eps).as_polynomial().degree != 0:
            raise HypothesisRefused("unit-norm", "element %r is not a unit" % (eps,))
        assigns, _ = element_valuations(model, eps, place, infinite)
        # units have degree-zero principal divisor above infinity
        assigns = [a for a in assigns if sum(f * v for f, v in zip(fs, a)) == 0]
        if not assigns:
            raise InternalFault("no unit valuation assignment with zero degree")
        options.append(assigns)
    results = set()
    import itertools

    for y_vals in y_assigns:
        filtered = []
        for eps, assigns in zip(units, options):
            bounds = _termwise_bounds(model, eps, y_vals, place, sig)
            ok = [
                a
                for a in assigns
                if all(
                    v >= mn and (not forced or v == mn)
                    for v, (mn, forced) in zip(a, bounds)
                )
            ]
            filtered.append(ok)
        if any(not f for f in filtered):
            continue
        for combo in itertools.product(*filtered):
            M = [[-fs[j] * combo[i][j] for j in range(r + 1)] for i in range(r)]
            minors = []
            for drop in range(r + 1):
                sub = [[row[j] for j in range(r + 1) if j != drop] for row in M]
                minors.append(abs(laplace_det(sub)))
            if len(set(minors)) != 1:
                raise InternalFault("r x r minors disagree: %s" % minors)
            results.add(minors[0])
    if len(results) != 1:
        raise InternalFault("place labelings give different regulators: %s" % sorted(results))
    RS = Fraction(results.pop())
    if RS == 0:
        raise ValueError("units are multiplicatively dependent (singular matrix)")
    prod_f = 1
    for f in fs:
        prod_f *= f
    g = fs[0]
    for f in fs[1:]:
        g = gcd(g, f)
    R = RS * g / prod_f
    return R, RS


def _termwise_bounds(model, alpha, y_vals, place, sig):
    """Per-place lower bounds (and forced equalities) for v(alpha) from its coordinates."""
    out = []
    for i, (e, f) in enumerate(sig.pairs):
        vy = y_vals[i]
        cands = []
        for j, c in enumerate(alpha.coords):
            if not c.is_zero():
                cands.append(e * int(place.val(c)) + j * vy)
        mn = min(cands)
        out.append((mn, cands.count(mn) == 1))
    return out

