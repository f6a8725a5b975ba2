"""Univariate polynomials over F_q and the residue rings F_q[x]/(P^e).

FqPoly is the universal coefficient object of the package.  Coefficients
are int-encoded field elements (see fq), stored little-endian with no
trailing zeros; the zero polynomial has an empty coefficient tuple and
degree NEG_DEG, a float sentinel that orders below every integer but is
never silently usable as an array index.

The factorization stack (squarefree split, distinct-degree, equal-degree)
is written over an abstract finite-field protocol so the same engine
factors over F_q and over residue fields F_q[x]/(P).  Equal-degree
splitting draws randomness from a seeded PRNG recorded in the output.

Residue fields come in two kinds, both from residue_field(P).  When
monic_irreducibles enumerates the places of degree d >= 2 with q^d <=
fq.TABLE_MAX_ORDER, it walks the Frobenius orbits of E = GF(p, k d)
instead of testing every monic candidate, and records the tower: an
embedding F_q -> E and a root alpha in E of each place P.  It then clears
the cache of residue_field, so a place asked for earlier gets the tower
too.  Those places and every place of degree 1 (E = F_q, alpha = -P(0))
get a TowerResidueField, which is E with the residue map f -> f(alpha),
so every operation of the Kummer factor types that dominate class-number
work is a table lookup.  The tower is fixed once per (q, d) and built only
by enumeration; a place that no enumeration reached (a place over D of
degree >= 2, say) or with q^d above the threshold gets the tuple
ResidueField, whose few operations would not repay building E.  Both
agree through x -> alpha on every result that leaves the field.
"""

import operator
import random
import re
from functools import lru_cache

from .fq import GF, TABLE_MAX_ORDER, _prime_factors, digits

NEG_DEG = float("-inf")
POS_INF = float("inf")


class FuncFieldError(Exception):
    """Base class for structured errors of this package."""


class HypothesisRefused(FuncFieldError):
    """A required hypothesis failed; .hypothesis names the check."""

    def __init__(self, hypothesis, detail=""):
        self.hypothesis = hypothesis
        super().__init__("%s%s" % (hypothesis, (": " + detail) if detail else ""))


class UnknownSignature(FuncFieldError):
    """The paper itself is inconclusive here; .reason ties to its remark."""

    def __init__(self, reason, detail=""):
        self.reason = reason
        super().__init__("%s%s" % (reason, (": " + detail) if detail else ""))


class InternalFault(FuncFieldError):
    """An identity that must hold by theorem failed; indicates a bug."""


class FqPoly:
    """Immutable univariate polynomial over an FqField."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors --------------------------------------------------
    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def const(cls, field, c):
        return cls(field, (field.from_int(c) if isinstance(c, int) else c,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    # -- basic structure -------------------------------------------------
    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_DEG

    @property
    def sgn(self):
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def constant(self):
        return self.coeffs[0] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, FqPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def sort_key(self):
        return (len(self.coeffs), self.coeffs)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return FqPoly(F, out)

    def __neg__(self):
        F = self.field
        return FqPoly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FqPoly.zero(F)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = F.add(out[i + j], F.mul(ai, bj))
        return FqPoly(F, out)

    def scale(self, c):
        F = self.field
        return FqPoly(F, [F.mul(c, a) for a in self.coeffs])

    def __pow__(self, e):
        r = FqPoly.one(self.field)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        a = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        inv = F.inv(b[-1])
        q = [0] * max(0, len(a) - db)
        while len(a) - 1 >= db and a:
            c = F.mul(a[-1], inv)
            pos = len(a) - 1 - db
            q[pos] = c
            for j in range(db + 1):
                a[pos + j] = F.sub(a[pos + j], F.mul(c, b[j]))
            while a and a[-1] == 0:
                a.pop()
        return FqPoly(F, q), FqPoly(F, a)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise InternalFault("division %s / %s is not exact" % (self, other))
        return q

    def monic(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no monic normalization")
        if self.sgn == 1:
            return self
        return self.scale(self.field.inv(self.sgn))

    def derivative(self):
        F = self.field
        return FqPoly(F, [F.mul(F.from_int(i), c) for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, v):
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, v), c)
        return acc

    def compose(self, other):
        """self(other(x)), by Horner over FqPoly."""
        F = self.field
        acc = FqPoly.zero(F)
        for c in reversed(self.coeffs):
            acc = acc * other + FqPoly(F, (c,))
        return acc

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- formatting ----------------------------------------------------------
    def __repr__(self):
        return "FqPoly(%s, %s)" % (self.field.describe(), format_poly(self))

    def __str__(self):
        return format_poly(self)


def poly_divrem(f, g):
    """Quotient and remainder with deg r < deg g."""
    return f.divmod(g)


def poly_gcd(f, g):
    """Monic gcd; gcd(f, 0) = monic(f), gcd(0, 0) is an error."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_xgcd(f, g):
    """(d, u, v) with d = u*f + v*g monic."""
    F = f.field
    r0, r1 = f, g
    s0, s1 = FqPoly.one(F), FqPoly.zero(F)
    t0, t1 = FqPoly.zero(F), FqPoly.one(F)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        raise ValueError("xgcd(0, 0) is undefined")
    c = F.inv(r0.sgn)
    return r0.scale(c), s0.scale(c), t0.scale(c)


def poly_inverse_mod(f, m):
    d, u, _ = poly_xgcd(f, m)
    if d.degree != 0:
        raise ValueError("%s is not invertible modulo %s" % (f, m))
    return u % m


def crt(residues, moduli):
    """Unique solution of x = r_i mod m_i for pairwise coprime moduli."""
    if len(residues) != len(moduli) or not moduli:
        raise ValueError("need matching nonempty residue/modulus lists")
    for m in moduli:
        if m.is_zero():
            raise ValueError("zero modulus")
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            if poly_gcd(moduli[i], moduli[j]).degree != 0:
                raise ValueError("moduli are not pairwise coprime")
    x = residues[0] % moduli[0]
    m = moduli[0]
    for r, mi in zip(residues[1:], moduli[1:]):
        # x + m*t = r (mod mi)
        t = (poly_inverse_mod(m, mi) * (r - x)) % mi
        x = x + m * t
        m = m * mi
    return x % m


# ---------------------------------------------------------------------------
# Generic finite-field polynomial engine.
#
# A "field protocol" object K provides: zero, one, char, order, add, sub,
# neg, mul, inv, from_rand, and optionally sort_key (the order gp_roots
# returns roots in; the elements' own order without it).  FqField,
# ResidueField and TowerResidueField are such objects.  Polynomials over K
# are little-endian lists of elements with no trailing zeros.
# ---------------------------------------------------------------------------


def gp_trim(K, cs):
    z = K.zero
    while cs and cs[-1] == z:
        cs.pop()
    return cs


def gp_add(K, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = K.add(out[i], c)
    return gp_trim(K, out)


def gp_sub(K, a, b):
    out = list(a) + [K.zero] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = K.sub(out[i], c)
    return gp_trim(K, out)


def gp_mul(K, a, b):
    if not a or not b:
        return []
    out = [K.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai != K.zero:
            for j, bj in enumerate(b):
                if bj != K.zero:
                    out[i + j] = K.add(out[i + j], K.mul(ai, bj))
    return gp_trim(K, out)


def gp_divmod(K, a, b):
    if not b:
        raise ZeroDivisionError
    a = list(a)
    z = K.zero
    db = len(b) - 1
    one = K.one
    inv = one if b[-1] == one else K.inv(b[-1])
    q = [z] * max(0, len(a) - db)
    while a and len(a) - 1 >= db:
        c = a[-1] if inv == one else K.mul(a[-1], inv)
        pos = len(a) - 1 - db
        q[pos] = c
        for j in range(db + 1):
            a[pos + j] = K.sub(a[pos + j], K.mul(c, b[j]))
        while a and a[-1] == z:
            a.pop()
    return gp_trim(K, q), a


def gp_mod(K, a, b):
    return gp_divmod(K, a, b)[1]


def gp_monic(K, a):
    if not a:
        raise ValueError("zero polynomial")
    if a[-1] == K.one:
        return list(a)
    inv = K.inv(a[-1])
    return [K.mul(inv, c) for c in a]


def gp_gcd(K, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, gp_mod(K, a, b)
    return gp_monic(K, a) if a else []


def gp_pow_mod(K, base, e, mod):
    r = [K.one]
    b = gp_mod(K, list(base), mod)
    while e:
        if e & 1:
            r = gp_mod(K, gp_mul(K, r, b), mod)
        b = gp_mod(K, gp_mul(K, b, b), mod)
        e >>= 1
    return r

def gp_derivative(K, a):
    out = []
    for i in range(1, len(a)):
        n = i % K.char
        c = a[i]
        acc = K.zero
        for _ in range(n):
            acc = K.add(acc, c)
        out.append(acc)
    return gp_trim(K, out)


def gp_distinct_degree(K, f):
    """[(degree d, product of irreducible factors of degree d)] for squarefree monic f."""
    out = []
    h = [K.zero, K.one]  # x
    rest = list(f)
    d = 0
    x = [K.zero, K.one]
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


def gp_factor_degrees(K, f):
    """Degrees (with multiplicity) of the irreducible factors of monic squarefree f."""
    n = len(f) - 1
    if n in (2, 3, 4):
        # the factor type of a squarefree polynomial of degree <= 4 follows
        # from root counts over one or two extensions, which is cheaper than
        # a full distinct-degree pass
        x = [K.zero, K.one]
        h = gp_pow_mod(K, x, K.order, f)
        r1 = len(gp_gcd(K, gp_sub(K, h, x), f)) - 1 if gp_sub(K, h, x) else n
        if n == 2:
            return [1, 1] if r1 == 2 else [2]
        if n == 3:
            return {3: [1, 1, 1], 1: [1, 2], 0: [3]}[r1]
        if r1 == 4:
            return [1, 1, 1, 1]
        if r1 == 2:
            return [1, 1, 2]
        if r1 == 1:
            return [1, 3]
        h2 = gp_pow_mod(K, h, K.order, f)
        diff = gp_sub(K, h2, x)
        r2 = len(gp_gcd(K, diff, f)) - 1 if diff else n
        return [2, 2] if r2 == 4 else [4]
    degs = []
    for d, g in gp_distinct_degree(K, f):
        degs.extend([d] * ((len(g) - 1) // d))
    return sorted(degs)


def gp_equal_degree_split(K, f, d, rng):
    """Cantor-Zassenhaus split of monic squarefree f, all factors of degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = [K.from_rand(rng) for _ in range(n)]
        a = gp_trim(K, a)
        if len(a) <= 0:
            continue
        if K.char == 2:
            # trace map sum_{i<log2(order^d)} a^(2^i)
            t = list(a)
            acc = list(a)
            bits = d * (K.order.bit_length() - 1)
            for _ in range(bits - 1):
                t = gp_mod(K, gp_mul(K, t, t), f)
                acc = gp_add(K, acc, t)
            if not acc:
                continue
            g = gp_gcd(K, acc, f)
        else:
            g0 = gp_gcd(K, a, f)
            if 1 <= len(g0) - 1 < n:
                g = g0
            else:
                e = (K.order ** d - 1) // 2
                b = gp_sub(K, gp_pow_mod(K, a, e, f), [K.one])
                if not b:
                    continue
                g = gp_gcd(K, b, f)
        if g and 1 <= len(g) - 1 < n:
            rest = gp_divmod(K, f, g)[0]
            return gp_equal_degree_split(K, g, d, rng) + gp_equal_degree_split(K, rest, d, rng)


def gp_roots(K, f):
    """Distinct roots of f in K (via gcd with x^order - x, then split)."""
    if not f:
        raise ValueError("zero polynomial")
    x = [K.zero, K.one]
    h = gp_pow_mod(K, x, K.order, f)
    g = gp_gcd(K, gp_sub(K, h, x), f)
    if len(g) <= 1:
        return []
    rng = random.Random(0xF0F0)
    linears = gp_equal_degree_split(K, g, 1, rng)
    # factors are monic x + c
    return sorted((K.neg(l[0]) for l in linears), key=getattr(K, "sort_key", None))


def gp_count_roots(K, f):
    """Number of distinct roots of f in K."""
    x = [K.zero, K.one]
    h = gp_pow_mod(K, x, K.order, f)
    g = gp_gcd(K, gp_sub(K, h, x), f)
    return len(g) - 1 if g else 0


def gp_factorize_separable(K, f, seed=0):
    """[(irreducible monic factor, multiplicity)] for monic f with char > deg f.

    The derivative of every nonconstant divisor is nonzero under that
    hypothesis, so plain squarefree-part peeling suffices.
    """
    rng = random.Random(seed)
    rest = gp_monic(K, f)
    out = []
    while len(rest) > 1:
        der = gp_derivative(K, rest)
        if not der:
            raise ValueError("factorization needs characteristic > degree")
        sqf = gp_divmod(K, rest, gp_gcd(K, rest, der))[0]
        if len(sqf) <= 1:
            raise ValueError("factorization needs characteristic > degree")
        for d, g in gp_distinct_degree(K, sqf):
            for piece in gp_equal_degree_split(K, g, d, rng):
                mult = 0
                while True:
                    q, r = gp_divmod(K, rest, piece)
                    if r:
                        break
                    rest = q
                    mult += 1
                out.append((piece, mult))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


def gp_irreducible(K, f):
    """Rabin irreducibility test for monic f of degree >= 1."""
    n = len(f) - 1
    if n < 1:
        raise ValueError("constant polynomial")
    if n == 1:
        return True
    x = [K.zero, K.one]
    h = gp_pow_mod(K, x, K.order ** n, f)
    if gp_sub(K, h, x):
        return False
    for r in set(_prime_factors(n)):
        h = gp_pow_mod(K, x, K.order ** (n // r), f)
        if len(gp_gcd(K, gp_sub(K, h, x), f)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Residue fields k(P) = F_q[x]/(P) as field-protocol objects.  ResidueField
# holds little-endian coefficient tuples of fixed length deg P and serves
# every P; TowerResidueField (below) serves the places that enumeration
# reached as Frobenius orbits, and the places of degree 1.
# ---------------------------------------------------------------------------


class ResidueField:
    """The field F_q[x]/(P) for monic irreducible P, protocol-compatible."""

    def __init__(self, P):
        self.P = P
        self.base = P.field
        self.deg = len(P.coeffs) - 1
        self.char = self.base.p
        self.order = self.base.q ** self.deg
        self._invs = {}
        self._nonsquare = None
        self._prime_base = self.base.k == 1
        self.zero = (0,) * self.deg
        one = [0] * self.deg
        if self.deg:
            one[0] = 1
        self.one = tuple(one)
        # reduction table: x^(deg+i) mod P for i in range(deg-1)
        F = self.base
        red = []
        cur = [F.neg(c) for c in P.coeffs[:-1]]  # x^deg == -(P - x^deg)
        red.append(tuple(cur))
        for _ in range(self.deg - 2):
            nxt = [0] + cur[:-1]
            top = cur[-1]
            if top:
                for j in range(self.deg):
                    nxt[j] = F.add(nxt[j], F.mul(top, red[0][j]))
            cur = nxt
            red.append(tuple(cur))
        self._red = red

    def embed(self, poly):
        """Reduce an FqPoly mod P into a residue element."""
        r = poly % self.P
        cs = list(r.coeffs) + [0] * (self.deg - len(r.coeffs))
        return tuple(cs)

    def lift(self, elem):
        """Canonical lift (degree < deg P)."""
        return FqPoly(self.base, elem)

    def from_base(self, c):
        out = [0] * self.deg
        out[0] = c
        return tuple(out)

    def from_rand(self, rng):
        return tuple(rng.randrange(self.base.q) for _ in range(self.deg))

    def add(self, a, b):
        if self._prime_base:
            p = self.char
            return tuple((x + y) % p for x, y in zip(a, b))
        F = self.base
        return tuple(F.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        if self._prime_base:
            p = self.char
            return tuple((x - y) % p for x, y in zip(a, b))
        F = self.base
        return tuple(F.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        if self._prime_base:
            p = self.char
            return tuple((-x) % p for x in a)
        F = self.base
        return tuple(F.neg(x) for x in a)

    def mul(self, a, b):
        d = self.deg
        if self._prime_base:
            # plain ints mod p: defer the reductions to the very end
            p = self.char
            if d == 1:
                return (a[0] * b[0] % p,)
            prod = [0] * (2 * d - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        prod[i + j] += ai * bj
            out = prod[:d]
            for i in range(d - 1):
                c = prod[d + i] % p
                if c:
                    row = self._red[i]
                    for j in range(d):
                        out[j] += c * row[j]
            return tuple(v % p for v in out)
        F = self.base
        if d == 1:
            return (F.mul(a[0], b[0]),)
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] = F.add(prod[i + j], F.mul(ai, bj))
        out = prod[:d]
        for i, c in enumerate(prod[d:]):
            if c:
                row = self._red[i]
                for j in range(d):
                    out[j] = F.add(out[j], F.mul(c, row[j]))
        return tuple(out)

    def inv(self, a):
        if a == self.one:
            return a
        cached = self._invs.get(a)
        if cached is not None:
            return cached
        if all(c == 0 for c in a):
            raise ZeroDivisionError("inverse of zero residue")
        _, u, _ = poly_xgcd(self.lift(a), self.P)
        out = self.embed(u)
        self._invs[a] = out
        return out

    def is_zero(self, a):
        return all(c == 0 for c in a)

    # -- residue tests -----------------------------------------------------
    def is_nth_power(self, a, n):
        if self.is_zero(a):
            return True
        from math import gcd

        g = gcd(n, self.order - 1)
        return self.pow_elem(a, (self.order - 1) // g) == self.one

    def is_square(self, a):
        if self.char == 2:
            return True
        return self.is_nth_power(a, 2)

    def is_cube(self, a):
        return self.is_nth_power(a, 3)

    def pow_elem(self, a, e):
        r = self.one
        b = a
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    def sqrt(self, a):
        if self.char == 2:
            return self.pow_elem(a, self.order // 2)
        if not self.is_square(a):
            return None
        return _tonelli_shanks(self, a)

    def cube_root(self, a):
        if self.char == 3:
            return self.pow_elem(a, self.order // 3)
        if self.is_zero(a):
            return a
        from math import gcd

        g = gcd(3, self.order - 1)
        if g == 1:
            return self.pow_elem(a, pow(3, -1, self.order - 1))
        if not self.is_cube(a):
            return None
        # search deterministically; residue fields in play are small
        for elem in self.iter_elements():
            if self.pow_elem(elem, 3) == a:
                return elem
        return None  # pragma: no cover

    def iter_elements(self):
        q, d = self.base.q, self.deg
        for idx in range(self.order):
            yield tuple(digits(idx, q, d))


def _first_nonsquare(K):
    """The first non-square of an odd-order field in iter_elements order, cached on K."""
    if K._nonsquare is None:
        for elem in K.iter_elements():
            if not K.is_zero(elem) and not K.is_square(elem):
                K._nonsquare = elem
                break
    return K._nonsquare


def _tonelli_shanks(K, a):
    """Square root in an odd-order field protocol object."""
    Q = K.order
    if K.pow_elem(a, (Q - 1) // 2) != K.one:
        return None
    if Q % 4 == 3:
        return K.pow_elem(a, (Q + 1) // 4)
    z = _first_nonsquare(K)
    s, t = 0, Q - 1
    while t % 2 == 0:
        s += 1
        t //= 2
    m, c = s, K.pow_elem(z, t)
    x = K.pow_elem(a, (t + 1) // 2)
    b = K.pow_elem(a, t)
    while b != K.one:
        i, b2 = 0, b
        while b2 != K.one:
            b2 = K.mul(b2, b2)
            i += 1
        e = K.pow_elem(c, 1 << (m - i - 1))
        x = K.mul(x, e)
        c = K.mul(e, e)
        b = K.mul(b, c)
        m = i
    return x


class TowerResidueField:
    """k(P) as E = F_{q^d}, d = deg P, with the residue map f -> f(alpha).

    alpha is a root of P in E and F_q sits in E through the embedding
    `emb` (an indexable map from F_q encodings to E encodings), so k(P) is
    E itself and its elements are E's ints: add, mul, inv, pow_elem and the
    power tests are E's table operations.  x^i mod P corresponds to
    alpha^i, so iter_elements, from_rand, lift and sort_key follow the
    coefficient vectors of ResidueField(P), and every result that leaves
    the field (a lift, a root order, the first element with a property) is
    the image of the one ResidueField(P) gives.
    """

    def __init__(self, P, E, emb, alpha):
        F = P.field
        self.P, self.base, self.E = P, F, E
        self.deg = len(P.coeffs) - 1
        self.char = F.p
        self.order = E.q
        self.zero, self.one = 0, 1
        self.alpha = alpha
        self._emb = emb
        self._powers = [E.pow(alpha, i) for i in range(self.deg)]
        self._solve = None  # inverse basis matrix over F_p, built by the first lift
        self._nonsquare = None
        self.add, self.sub, self.neg = E.add, E.sub, E.neg
        self.mul, self.inv, self.pow_elem = E.mul, E.inv, E.pow
        self.is_nth_power, self.is_square, self.is_cube = E.is_nth_power, E.is_square, E.is_cube

    def embed(self, poly):
        """Residue of an FqPoly: Horner evaluation at alpha."""
        add, mul, emb, a = self.E.add, self.E.mul, self._emb, self.alpha
        acc = 0
        for c in reversed(poly.coeffs):
            acc = add(mul(acc, a), emb[c])
        return acc

    def from_base(self, c):
        return self._emb[c]

    def _from_coords(self, cs):
        add, mul, emb = self.E.add, self.E.mul, self._emb
        acc = 0
        for c, ap in zip(cs, self._powers):
            acc = add(acc, mul(emb[c], ap))
        return acc

    def from_rand(self, rng):
        q = self.base.q
        return self._from_coords([rng.randrange(q) for _ in range(self.deg)])

    def coords(self, a):
        """F_q encodings c_i with a = sum c_i alpha^i (the ResidueField tuple)."""
        if self.deg == 1:
            return [a]  # E is F_q
        if self._solve is None:
            self._solve = self._basis_inverse()
        p, F = self.char, self.base
        ds = self.E._dec(a)
        x = [sum(map(operator.mul, row, ds)) % p for row in self._solve]
        k = F.k
        return [F._enc(x[i * k:(i + 1) * k]) for i in range(self.deg)]

    def _basis_inverse(self):
        # columns: base-p digits of beta^j alpha^i, beta the image of F's
        # generator x (encoding p^j is x^j); the inverse maps E's digits to
        # the coordinates in that F_p-basis, (i, j) in column i k + j
        E, F, p = self.E, self.base, self.char
        cols = [E._dec(E.mul(self._emb[p ** j], ap)) for ap in self._powers for j in range(F.k)]
        return _fp_inverse([list(r) for r in zip(*cols)], p)

    def lift(self, elem):
        """Canonical lift (degree < deg P)."""
        return FqPoly(self.base, self.coords(elem))

    def sort_key(self, a):
        return tuple(self.coords(a))

    def is_zero(self, a):
        return a == 0

    def sqrt(self, a):
        if self.char == 2:
            return self.E.pow(a, self.order // 2)
        if not self.is_square(a):
            return None
        return _tonelli_shanks(self, a)

    def cube_root(self, a):
        """ResidueField's cube root: when there are three, the first in iter_elements order."""
        E = self.E
        if self.deg == 1 or self.char == 3 or not a or (self.order - 1) % 3:
            # E's own rule: the Frobenius inverse, the unique root, or (E
            # being F_q) the least encoding, which is the first element
            return E.cube_root(a)
        r = E.nth_root(a, 3)
        if r is None:
            return None
        w = E._exp[(self.order - 1) // 3]  # a primitive cube root of unity
        roots = (r, E.mul(r, w), E.mul(r, E.mul(w, w)))
        return min(roots, key=lambda x: self.coords(x)[::-1])

    def iter_elements(self):
        q, d = self.base.q, self.deg
        for idx in range(self.order):
            yield self._from_coords(digits(idx, q, d))


def _fp_inverse(M, p):
    """Inverse of an invertible square matrix over F_p (rows of ints), Gauss-Jordan."""
    n = len(M)
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    for c in range(n):
        r = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[r] = rows[r], rows[c]
        inv = pow(rows[c][c], p - 2, p)
        rows[c] = [v * inv % p for v in rows[c]]
        for r in range(n):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


# (F_q, d) -> (E, emb, {coefficient tuple of P: alpha}), recorded by the
# Frobenius-orbit enumeration of the places of degree d, read by residue_field
_TOWERS = {}


@lru_cache(maxsize=65536)
def residue_field(P):
    """Shared residue fields; places are constructed freely.

    A TowerResidueField when deg P = 1 (E = F_q, alpha = -P(0)) or when
    monic_irreducibles recorded a tower for (F_q, deg P); otherwise, for
    places of higher degree over D that no enumeration reached and for
    q^deg P above fq.TABLE_MAX_ORDER, the tuple ResidueField.
    """
    F = P.field
    d = len(P.coeffs) - 1
    if d == 1:
        return TowerResidueField(P, F, range(F.q), F.neg(F.div(P.coeffs[0], P.coeffs[1])))
    tower = _TOWERS.get((F, d))
    if tower is not None:
        E, emb, roots = tower
        alpha = roots.get(P.coeffs)
        if alpha is not None:
            return TowerResidueField(P, E, emb, alpha)
    return ResidueField(P)


# bound once, so it still clears the cache when a profiler rebinds the
# module name residue_field to a wrapper
_clear_residue_fields = residue_field.cache_clear


# ---------------------------------------------------------------------------
# Factorization over F_q
# ---------------------------------------------------------------------------


class Factorization:
    """unit * prod factor^mult, factors monic irreducible, sorted, distinct."""

    __slots__ = ("unit", "factors", "seed")

    def __init__(self, unit, factors, seed):
        self.unit = unit
        self.factors = tuple(sorted(factors, key=lambda fm: fm[0].sort_key()))
        self.seed = seed

    def value(self, field):
        out = FqPoly(field, (self.unit,))
        for f, m in self.factors:
            out = out * f ** m
        return out

    def __iter__(self):
        return iter(self.factors)

    def __repr__(self):
        parts = " * ".join("(%s)^%d" % (f, m) for f, m in self.factors)
        return "Factorization(%s, %s)" % (self.unit, parts or "1")


def squarefree_decomposition(f):
    """[(g_i, i)] with f = sgn * prod g_i^i, g_i monic squarefree coprime."""
    F = f.field
    f = f.monic()
    out = {}

    def absorb(g, mult):
        if g.degree >= 1:
            out[mult] = out.get(mult, FqPoly.one(F)) * g

    def rec(f, outer):
        if f.degree < 1:
            return
        d = f.derivative()
        if d.is_zero():
            # f = g(x^p): take p-th root coefficientwise
            p = F.p
            root = FqPoly(F, [F.pow(c, F.q // p) for c in f.coeffs[::p]])
            rec(root, outer * p)
            return
        a = poly_gcd(f, d)
        b = f.exact_div(a)  # product of distinct factors
        i = 1
        while b.degree >= 1:
            c = poly_gcd(a, b)
            piece = b.exact_div(c)
            absorb(piece, outer * i)
            b = c
            a = a.exact_div(c)
            i += 1
        if a.degree >= 1:
            rec(a, outer)

    rec(f, 1)
    return sorted(out.items())


def factorize(f, seed=0):
    """Complete factorization of nonzero f over F_q, deterministic per seed."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    F = f.field
    unit = f.sgn
    if f.degree < 1:
        return Factorization(unit, [], seed)
    rng = random.Random(seed)
    factors = []
    for mult, part in squarefree_decomposition(f):
        for d, g in gp_distinct_degree(F, list(part.monic().coeffs)):
            for piece in gp_equal_degree_split(F, g, d, rng):
                factors.append((FqPoly(F, piece), mult))
    fact = Factorization(unit, factors, seed)
    return fact


def is_irreducible(f):
    if f.degree < 1:
        raise ValueError("irreducibility undefined for constants")
    return gp_irreducible(f.field, list(f.monic().coeffs))


def is_squarefree(f):
    return all(mult == 1 for mult, _ in squarefree_decomposition(f))


def squarefree_split(f):
    """(D1, D2) with f = sgn * D1 * D2^2 * (rest), exact when f is cubefree."""
    dec = squarefree_decomposition(f)
    F = f.field
    d1 = FqPoly.one(F)
    d2 = FqPoly.one(F)
    for mult, g in dec:
        if mult == 1:
            d1 = d1 * g
        elif mult == 2:
            d2 = d2 * g
        else:
            raise ValueError("polynomial is not cubefree")
    return d1, d2


def poly_sqrt(f):
    """Exact square root of f in F_q[x], or None (coefficient recursion)."""
    if f.is_zero():
        return f
    F = f.field
    n = int(f.degree)
    if n % 2:
        return None
    lead = F.sqrt(f.sgn)
    if lead is None:
        return None
    if F.p == 2:
        # squares have even exponents only, with square coefficients
        cs = []
        for i, c in enumerate(f.coeffs):
            if i % 2:
                if c != 0:
                    return None
            else:
                cs.append(F.sqrt(c))
        s = FqPoly(F, cs)
        return s if s * s == f else None
    half = n // 2
    s = FqPoly(F, [0] * half + [lead])
    inv2lead = F.inv(F.mul(F.from_int(2), lead))
    while True:
        r = f - s * s
        if r.is_zero():
            return s
        d = int(r.degree) - half
        if d < 0 or d >= half:
            return None
        s = s + FqPoly(F, [0] * d + [F.mul(r.sgn, inv2lead)])


@lru_cache(maxsize=None)
def monic_irreducibles(field, m):
    """Tuple of all monic irreducibles of degree m, in base-q lex order.

    For m >= 2 and q^m <= fq.TABLE_MAX_ORDER they are the minimal
    polynomials of the Frobenius orbits of size m in E = F_{q^m}, and the
    tower they come from is recorded for residue_field; otherwise every
    monic candidate gets a Rabin test.
    """
    if m < 1:
        raise ValueError("degree must be >= 1")
    q = field.q
    if m > 1 and q ** m <= TABLE_MAX_ORDER:
        return _orbit_irreducibles(field, m)
    out = []
    for idx in range(q ** m):
        cs = digits(idx, q, m) + [1]
        if m == 1 or gp_irreducible(field, cs):
            out.append(FqPoly(field, cs))
    return tuple(out)


def _orbit_irreducibles(F, d):
    """Degree-d places as Frobenius orbits x -> x^q of E = GF(p, k d); records the tower.

    An element of E lies in no proper subfield containing F_q exactly when
    its orbit has d members, and then prod (T - r) over the orbit is its
    minimal polynomial P over F_q.  The root kept for P is the orbit
    member of least encoding.
    """
    q = F.q
    E = GF(F.p, F.k * d)
    emb = _base_embedding(F, E)
    pull = {e: c for c, e in enumerate(emb)}
    n = E.q - 1
    exp, add, mul, neg = E._exp, E.add, E.mul, E.neg
    seen = bytearray(n)
    roots = {}
    for j0 in range(n):  # g^j -> g^(j q) on the exponents of E's generator g
        if seen[j0]:
            continue
        orbit, j = [], j0
        while not seen[j]:
            seen[j] = 1
            orbit.append(exp[j])
            j = j * q % n
        if len(orbit) < d:
            continue
        cs = [1]
        for r in orbit:  # times (T - r)
            r = neg(r)
            cs = [mul(r, cs[0])] + [add(a, mul(r, b)) for a, b in zip(cs, cs[1:])] + [1]
        roots[tuple(pull[c] for c in cs)] = min(orbit)
    _TOWERS[F, d] = (E, emb, roots)
    # residue fields cached before the tower existed are tuple ResidueFields
    _clear_residue_fields()
    # base-q order of the index sum c_i q^i is the order of (c_(d-1), ..., c_0)
    return tuple(FqPoly(F, cs) for cs in sorted(roots, key=lambda cs: cs[-2::-1]))


def _base_embedding(F, E):
    """E-encodings of F's elements, sending F's generator to the least root of its modulus."""
    if F.k == 1:
        return range(F.p)
    n = E.q - 1
    modulus = FqPoly(E, F.modulus)  # F_p coefficients encode the same in E
    # the roots lie in the subfield of order q, {g^j : (q - 1) j = 0 mod n}
    beta = min(r for r in (E._exp[j] for j in range(0, n, n // (F.q - 1))) if modulus.evaluate(r) == 0)
    powers = [E.pow(beta, j) for j in range(F.k)]
    emb = []
    for c in range(F.q):
        acc = 0
        for digit, bp in zip(F._dec(c), powers):
            acc = E.add(acc, E.mul(digit, bp))
        emb.append(acc)
    return emb


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


def count_roots_in_extension(f, m):
    """Distinct roots of f in F_{q^m}, as deg gcd(f, X^{q^m} - X)."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree < 1:
        return 0
    F = f.field
    fc = list(f.monic().coeffs)
    x = [0, 1]
    h = gp_pow_mod(F, x, F.q ** m, fc)
    g = gp_gcd(F, gp_sub(F, h, x), fc)
    return len(g) - 1 if g else 0


def residue_power_test(a, P, n, e=1, want_witness=False):
    """Is a an n-th power in F_q[x]/(P^e)?  n in {2, 3}, e in {1, 2}.

    For e = 2 with n coprime to the characteristic, Hensel lifting reduces
    the question to e = 1; when n equals the characteristic the Frobenius
    on the residue field settles it.  Returns bool, or (bool, witness).
    """
    if n not in (2, 3):
        raise ValueError("unsupported exponent n=%d" % n)
    if e not in (1, 2):
        raise ValueError("unsupported modulus power e=%d" % e)
    K = residue_field(P)
    r = K.embed(a)
    p = K.char

    def done(ok, w):
        return (ok, w) if want_witness else ok

    if e == 1:
        if K.is_zero(r):
            return done(True, FqPoly.zero(P.field))
        ok = K.is_nth_power(r, n)
        if not ok or not want_witness:
            return done(ok, None)
        w = K.sqrt(r) if n == 2 else K.cube_root(r)
        return done(True, K.lift(w))

    if K.is_zero(r):
        raise ValueError("e=2 test requires gcd(a, P) = 1")
    if p != n:
        ok = K.is_nth_power(r, n)
        if not ok:
            return done(False, None)
        if not want_witness:
            return done(True, None)
        w0 = K.lift(K.sqrt(r) if n == 2 else K.cube_root(r))
        # Hensel: w = w0 + t*P with t = (a - w0^n)/P * (n w0^(n-1))^-1 mod P
        diff = (a - w0 ** n) % (P * P)
        t = K.embed(diff.exact_div(P))
        dinv = K.inv(K.embed(FqPoly.const(P.field, P.field.from_int(n)) * w0 ** (n - 1)))
        w = (w0 + K.lift(K.mul(t, dinv)) * P) % (P * P)
        return done(True, w)
    # n == char: n-th powers mod P^2 are exactly n-th powers of residues mod P
    w0 = K.lift(K.sqrt(r) if n == 2 else K.cube_root(r))
    ok = ((a - w0 ** n) % (P * P)).is_zero()
    return done(ok, w0 if ok else None)


# ---------------------------------------------------------------------------
# Text grammar:  coefficients as decimal ints, variable x, operators + - * ^
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|x|\^|\*|\+|-)")


def parse_poly(field, text):
    """Parse e.g. 'x^4 - 3*x + 1'.  Coefficients reduce mod p (documented)."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError("bad polynomial at %r" % text[pos:])
            break
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise ValueError("empty polynomial text")

    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else None

    def parse_factor():
        nonlocal idx
        t = peek()
        if t is None:
            raise ValueError("unexpected end of polynomial")
        if t == "x":
            idx += 1
            if peek() == "^":
                idx += 1
                t2 = peek()
                if t2 is None or not t2.isdigit():
                    raise ValueError("exponent expected after ^")
                idx += 1
                return FqPoly.x(field) ** int(t2)
            return FqPoly.x(field)
        if t.isdigit():
            idx += 1
            base = FqPoly(field, (field.from_encoding(int(t)),))
            if peek() == "^":
                idx += 1
                t2 = peek()
                if t2 is None or not t2.isdigit():
                    raise ValueError("exponent expected after ^")
                idx += 1
                return base ** int(t2)
            return base
        raise ValueError("unexpected token %r" % t)

    def parse_term():
        nonlocal idx
        acc = parse_factor()
        while peek() == "*":
            idx += 1
            acc = acc * parse_factor()
        return acc

    acc = FqPoly.zero(field)
    sign = 1
    first = True
    while idx < len(tokens):
        t = peek()
        if t == "+":
            idx += 1
            sign = 1
        elif t == "-":
            idx += 1
            sign = -1
        elif not first:
            raise ValueError("expected + or - between terms")
        term = parse_term()
        acc = acc + (term if sign == 1 else -term)
        sign = 1
        first = False
    return acc


def format_poly(f):
    if f.is_zero():
        return "0"
    parts = []
    for i in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("x" if c == 1 else "%d*x" % c)
        else:
            parts.append("x^%d" % i if c == 1 else "%d*x^%d" % (c, i))
    return " + ".join(parts)
