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

FqPoly's +, -, * and divmod are the engine's gp_add, gp_sub, gp_mul and
gp_divmod.  Over a prime field (an FqField with k = 1) an element is its
residue mod p, so there the engine, and with it gp_mod, gp_gcd,
gp_pow_mod, the factoring stack and FqPoly, runs on plain ints: products
and quotients through fq.fp_mul and fq.fp_divmod (sums of products
reduced mod p once per coefficient, the divisor made monic once), sums
and differences reduced termwise; so does a degree-1 tower over F_p.
Over a table-backed F_{p^k}, and over a tower whose E is one, products
and quotients run on E's log/exp tables (_log_mul, _log_divmod): one log
per coefficient, then per term a sum of logs and an XOR (p = 2) or a Zech
addition.  Every result is the same reduced int that the per-term
K.add/K.mul loop gives, so no output changes.  Polynomials over a tuple
residue field, and over a field above the tables, keep that loop.

Residue fields come in two kinds.  When
monic_irreducibles enumerates the places of degree d >= 2 with q^d <=
fq.TABLE_MAX_ORDER, it walks the Frobenius orbits of E = GF(p, k d)
instead of testing every monic candidate, and records the tower: an
embedding F_q -> E and a root alpha in E of each place P.  It then clears
the cache of residue_field, so a place asked for earlier gets the tower
too.  Those places and every place of degree 1 (E = F_q, alpha = -P(0))
get a TowerResidueField, which is E with the residue map f -> f(alpha),
so every operation of the Kummer factor types that dominate class-number
work is a table lookup, and a residue f(alpha) is one call of E's Horner
kernel (fq.FqField.horner: plain ints mod p, or logarithms with Zech
additions, so one step is a few list lookups).  The tower is fixed once
per (q, d) and built only by enumeration; a place that no enumeration
reached (a place over D of degree >= 2, say) or with q^d above the
threshold gets the tuple ResidueField, whose few operations would not
repay building E.  Its residues are the coefficient tuples of the lifts
(FqPoly.coeffs of f mod P), and its arithmetic is the engine's over F_q
modulo P, so it has no product or Euclid of its own.  Both agree through
x -> alpha on every result that leaves the field.  The sweep over the
places of one degree gets its TowerResidueFields from tower_fields(F, d),
which reads the tower once and copies one field per place;
residue_field(P), cached by P, serves every other caller.

Both kinds present one protocol on top of the engine's: embed (the
residue of an FqPoly, zero exactly when P divides it), lift, from_base,
pow, the power tests and any_sqrt (a square root where the choice of root
does not matter).  pow, the power tests and any_sqrt are also FqField's
names, so where a root's choice matters, residue_root picks it by one rule
for F_q and both kinds: the first root in gp_roots order.  Places and
signatures use that protocol only, so no other module names either class.
"""

import operator
import random
import re
from functools import lru_cache
from itertools import zip_longest

from .fq import GF, TABLE_MAX_ORDER, FqField, _fp_trim, _prime_factors, digits, fp_divmod, fp_mul, tonelli_shanks

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

    # -- arithmetic (through the engine below, and so the F_p kernels) ------
    def __add__(self, other):
        return FqPoly(self.field, gp_add(self.field, self.coeffs, other.coeffs))

    def __neg__(self):
        F = self.field
        if F.k == 1:
            p = F.p
            return FqPoly(F, [(-c) % p for c in self.coeffs])
        return FqPoly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return FqPoly(self.field, gp_sub(self.field, self.coeffs, other.coeffs))

    def __mul__(self, other):
        return FqPoly(self.field, gp_mul(self.field, self.coeffs, other.coeffs))

    def scale(self, c):
        F = self.field
        if F.k == 1:
            p = F.p
            return FqPoly(F, [c * a % p for a in self.coeffs])
        return FqPoly(F, [F.mul(c, a) for a in self.coeffs])

    def __pow__(self, e):
        r = FqPoly.one(self.field)
        b = self
        while e:
            if e & 1:
                r = r * b
            e >>= 1
            if e:
                b = b * b
        return r

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        q, r = gp_divmod(F, self.coeffs, other.coeffs)
        return FqPoly(F, q), FqPoly(F, r)

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
        return self.field.horner(self.coeffs, v)

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
    def __str__(self):
        return format_poly(self)


def poly_gcd(f, g):
    """Monic gcd; gcd(f, 0) = monic(f), gcd(0, 0) is an error."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    return FqPoly(f.field, gp_gcd(f.field, f.coeffs, g.coeffs))


def poly_inverse_mod(f, m):
    """The inverse of f modulo m, of degree < deg m; ValueError when gcd(f, m) != 1."""
    return FqPoly(f.field, gp_inverse_mod(f.field, f.coeffs, m.coeffs))


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


def _prime(K):
    """p when K's elements are ints mod p (F_p, or a degree-1 tower over it); else None."""
    E = K if type(K) is FqField else K.E
    return E.p if E is not None and E.k == 1 else None


def gp_add(K, a, b):
    p = _prime(K)
    if p:
        return gp_trim(K, [(x + y) % p for x, y in zip_longest(a, b, fillvalue=0)])
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = K.add(out[i], c)
    return gp_trim(K, out)


def gp_sub(K, a, b):
    p = _prime(K)
    if p:
        return gp_trim(K, [(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])
    out = list(a) + [K.zero] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = K.sub(out[i], c)
    return gp_trim(K, out)


def gp_mul(K, a, b):
    E = K if type(K) is FqField else K.E
    if E is not None:
        if E.k == 1:
            return fp_mul(a, b, E.p)
        if E._log is not None:
            return _log_mul(E, a, b)
    if not a or not b:
        return []
    z, add, mul = K.zero, K.add, K.mul
    out = [z] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai != z:
            for j, bj in enumerate(b, i):
                if bj != z:
                    out[j] = add(out[j], mul(ai, bj))
    return gp_trim(K, out)


def gp_divmod(K, a, b):
    E = K if type(K) is FqField else K.E
    if E is not None:
        if E.k == 1:
            return fp_divmod(a, b, E.p)
        if E._log is not None:
            return _log_divmod(E, a, b)
    if not b:
        raise ZeroDivisionError
    a = list(a)
    z = K.zero
    db = len(b) - 1
    one, sub, mul = K.one, K.sub, K.mul
    inv = one if b[-1] == one else K.inv(b[-1])
    q = [z] * max(0, len(a) - db)
    while a and len(a) - 1 >= db:
        c = a[-1] if inv == one else mul(a[-1], inv)
        pos = len(a) - 1 - db
        q[pos] = c
        for j, bj in enumerate(b, pos):
            a[j] = sub(a[j], mul(c, bj))
        while a and a[-1] == z:
            a.pop()
    return gp_trim(K, q), a


def _log_mul(E, a, b):
    """a * b over a table-backed F_{p^k}: one log per coefficient, then per term
    a sum of logs and an XOR (p = 2) or a Zech addition into the output's logs."""
    if not a or not b:
        return []
    log, exp = E._log, E._exp
    lb = [(j, log[c]) for j, c in enumerate(b) if c]
    if E.p == 2:
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                la = log[c]
                for j, m in lb:
                    out[i + j] ^= exp[la + m]
        return _fp_trim(out)
    # odd p: the output as logs, None for 0; g^s + g^t = g^(s + zech[t - s])
    zech, n = E._zech, E.q - 1
    out = [None] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            la = log[c]
            for j, m in lb:
                t = la + m
                if t >= n:
                    t -= n
                s = out[i + j]
                if s is None:
                    out[i + j] = t
                else:
                    z = zech[t - s]
                    if z is None:
                        out[i + j] = None
                    else:
                        s += z
                        out[i + j] = s - n if s >= n else s
    return _fp_trim([0 if s is None else exp[s] for s in out])


def _log_divmod(E, a, b):
    """(quotient, remainder) over a table-backed F_{p^k}, deg remainder < deg b.

    The divisor's coefficients below the top are kept as the logs of -b_j,
    with -1 = g^((q - 1)/2) folded in (1 for p = 2), so a step costs one
    log and, per term, a sum of logs and an XOR or a Zech addition; for odd
    p the remainder stays in the log domain throughout.
    """
    b = _fp_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    r = _fp_trim(list(a))
    if len(r) <= db:
        return [], r
    log, exp, n = E._log, E._exp, E.q - 1
    lead = log[b[-1]]
    inv = n - lead if lead else 0  # log of 1 / lead(b)
    minus = n // 2 if E.p != 2 else 0  # log of -1
    low = [(j, (log[c] + minus) % n) for j, c in enumerate(b[:-1]) if c]
    q = [0] * (len(r) - db)
    if E.p == 2:
        for pos in range(len(r) - 1 - db, -1, -1):
            c = r[pos + db]
            if c:
                t = log[c] + inv
                if t >= n:
                    t -= n
                q[pos] = exp[t]
                for j, m in low:
                    r[pos + j] ^= exp[t + m]
        return q, _fp_trim(r[:db])
    zech = E._zech
    r = [log[c] for c in r]  # log[0] is None
    for pos in range(len(r) - 1 - db, -1, -1):
        lt = r[pos + db]
        if lt is not None:
            t = lt + inv
            if t >= n:
                t -= n
            q[pos] = exp[t]
            for j, m in low:
                u = t + m
                if u >= n:
                    u -= n
                k = pos + j
                s = r[k]
                if s is None:
                    r[k] = u
                else:
                    z = zech[u - s]
                    if z is None:
                        r[k] = None
                    else:
                        s += z
                        r[k] = s - n if s >= n else s
    return q, _fp_trim([0 if s is None else exp[s] for s in r[:db]])


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


def gp_inverse_mod(K, a, m):
    """The inverse of a modulo m, of degree < deg m, by the extended Euclidean
    algorithm; ValueError when a and m are not coprime."""
    # r_i = s_i a (mod m) along the remainder sequence of m and a mod m
    r0, r1 = list(m), gp_mod(K, a, m)
    s0, s1 = [], [K.one]
    while r1:
        q, r = gp_divmod(K, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, gp_sub(K, s0, gp_mul(K, q, s1))
    if len(r0) != 1:
        raise ValueError("not invertible modulo a polynomial of degree %d" % (len(m) - 1))
    inv = K.inv(r0[0])
    return [K.mul(inv, c) for c in s0]


def gp_pow_mod(K, base, e, mod):
    """base^e mod `mod`, by left-to-right square-and-multiply."""
    if not e:
        return [K.one]
    b = r = gp_mod(K, list(base), mod)
    for bit in bin(e)[3:]:
        r = gp_mod(K, gp_mul(K, r, r), mod)
        if bit == "1":
            r = gp_mod(K, gp_mul(K, r, b), mod)
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
# holds the coefficient tuples of the lifts and serves every P;
# TowerResidueField (below) serves the places that enumeration reached as
# Frobenius orbits, and the places of degree 1.
# ---------------------------------------------------------------------------


class ResidueField:
    """The field F_q[x]/(P) for monic irreducible P, protocol-compatible.

    A residue is the coefficient tuple of its lift, the remainder mod P with
    no trailing zeros (FqPoly.coeffs), so () is 0 and (1,) is 1.  Sums are
    gp_add and gp_sub over F_q, products and powers gp_mul and gp_pow_mod
    modulo P, inverses gp_inverse_mod, so they run on the F_p or log-table
    kernels wherever F_q's polynomials do.
    """

    E = None  # its elements are tuples, so polynomials over it take the per-term loop

    def __init__(self, P):
        self.P = P
        self.base = P.field
        self.deg = len(P.coeffs) - 1
        self.char = self.base.p
        self.order = self.base.q ** self.deg
        self._nonsquare = None
        self.zero, self.one = (), (1,)

    def embed(self, poly):
        """Reduce an FqPoly mod P into a residue element."""
        return (poly % self.P).coeffs

    def lift(self, elem):
        """Canonical lift (degree < deg P)."""
        return FqPoly(self.base, elem)

    def from_base(self, c):
        return (c,) if c else ()

    def from_rand(self, rng):
        return tuple(_fp_trim([rng.randrange(self.base.q) for _ in range(self.deg)]))

    def add(self, a, b):
        return tuple(gp_add(self.base, a, b))

    def sub(self, a, b):
        return tuple(gp_sub(self.base, a, b))

    def neg(self, a):
        return tuple(gp_sub(self.base, (), a))

    def mul(self, a, b):
        F = self.base
        return tuple(gp_mod(F, gp_mul(F, a, b), self.P.coeffs))

    def pow(self, a, e):
        return tuple(gp_pow_mod(self.base, a, e, self.P.coeffs))

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero residue")
        return tuple(gp_inverse_mod(self.base, a, self.P.coeffs))

    def is_zero(self, a):
        return not a

    # -- residue tests -----------------------------------------------------
    def is_nth_power(self, a, n):
        if self.is_zero(a):
            return True
        from math import gcd

        g = gcd(n, self.order - 1)
        return self.pow(a, (self.order - 1) // g) == self.one

    def is_square(self, a):
        if self.char == 2:
            return True
        return self.is_nth_power(a, 2)

    def is_cube(self, a):
        return self.is_nth_power(a, 3)

    def any_sqrt(self, a):
        """A square root of a, or None (fq.tonelli_shanks)."""
        return tonelli_shanks(self, a, self._first_nonsquare)

    def _first_nonsquare(self):
        if self._nonsquare is None:
            self._nonsquare = next(e for e in self.iter_elements() if e and not self.is_square(e))
        return self._nonsquare

    def iter_elements(self):
        q, d = self.base.q, self.deg
        for idx in range(self.order):
            yield tuple(_fp_trim(digits(idx, q, d)))


class TowerResidueField:
    """k(P) as E = F_{q^d}, d = deg P, with the residue map f -> f(alpha).

    alpha is a root of P in E and F_q sits in E through the embedding
    `emb` (an indexable map from F_q encodings to E encodings), so k(P) is
    E itself and its elements are E's ints: add, mul, inv, pow and the
    power tests are E's table operations.  x^i mod P corresponds to
    alpha^i, so iter_elements, lift and sort_key follow the coefficient
    tuples of ResidueField(P) (padded to length d here, which orders them
    as the trimmed tuples are ordered), and every result that leaves the
    field (a lift, a root order, the first element with a property) is the
    image of the one ResidueField(P) gives.
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
        self._solve = None  # inverse basis matrix over F_p, built by the first lift
        self.add, self.sub, self.neg = E.add, E.sub, E.neg
        self.mul, self.inv, self.pow = E.mul, E.inv, E.pow
        self.is_nth_power, self.is_square, self.is_cube = E.is_nth_power, E.is_square, E.is_cube
        # E's own draws: every consumer of gp_equal_degree_split sorts its output
        self.from_rand = E.from_rand
        # a square root where the choice does not matter: E's (half the log where E has tables)
        self.any_sqrt = E.any_sqrt

    def sibling(self, P, alpha):
        """k(P) for another place P of the same tower, with its root alpha.

        A copy of this field's attributes (E's operations, bound once per
        tower) with its own P and alpha, so a sweep over the places of one
        degree builds the field once.
        """
        K = object.__new__(TowerResidueField)
        K.__dict__.update(self.__dict__)
        K.P, K.alpha, K._solve = P, alpha, None
        return K

    def embed(self, poly):
        """Residue of an FqPoly: Horner evaluation at alpha, one E.horner call."""
        return self.E.horner(poly.coeffs, self.alpha, self._emb)

    def from_base(self, c):
        return self._emb[c]

    def _from_coords(self, cs):
        # sum c_i alpha^i, the image of the ResidueField tuple cs
        return self.E.horner(cs, self.alpha, self._emb)

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
        powers = [E.pow(self.alpha, i) for i in range(self.deg)]
        cols = [E._dec(E.mul(self._emb[p ** j], ap)) for ap in powers for j in range(F.k)]
        return _fp_inverse([list(r) for r in zip(*cols)], p)

    def lift(self, elem):
        """Canonical lift (degree < deg P)."""
        return FqPoly(self.base, self.coords(elem))

    def sort_key(self, a):
        return tuple(self.coords(a))

    def is_zero(self, a):
        return a == 0

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


def tower_fields(F, d):
    """[(P, k(P))] over monic_irreducibles(F, d), from the tower the enumeration recorded.

    E = F_q with alpha = -P(0) for d = 1; otherwise E, its embedding of F_q
    and the roots come from _TOWERS, read once.  Every field is a sibling of
    the first, and no place is hashed or looked up through residue_field's
    cache.  Where (F, d) has no tower (q^d above fq.TABLE_MAX_ORDER) k(P)
    is None, and the place asks residue_field for its field.
    """
    places = monic_irreducibles(F, d)
    if d == 1:
        E, emb = F, range(F.q)
        alphas = [F.neg(P.coeffs[0]) for P in places]
    else:
        tower = _TOWERS.get((F, d))
        if tower is None:
            return [(P, None) for P in places]
        E, emb, roots = tower
        alphas = [roots[P.coeffs] for P in places]
    first = TowerResidueField(places[0], E, emb, alphas[0])
    return [(P, first.sibling(P, alpha)) for P, alpha in zip(places, alphas)]


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

    def __iter__(self):
        return iter(self.factors)


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
    """A square root of f in F_q[x] (either sign), or None (coefficient recursion)."""
    if f.is_zero():
        return f
    F = f.field
    n = int(f.degree)
    if n % 2:
        return None
    lead = F.any_sqrt(f.sgn)
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
                cs.append(F.any_sqrt(c))
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


def residue_root(K, r, n):
    """The n-th root of a nonzero n-th power r of K, n in {2, 3}: the first in gp_roots order.

    K is F_q or a residue field of either kind.  That order is the same for
    both residue-field kinds, so the root is too; on F_q it is the least
    encoding.  The root is the only one, r^(n^-1 mod |K| - 1), when n does
    not divide |K| - 1 (as for n = char K), the lesser of the two square
    roots under K's sort_key (the int order on F_q) when n = 2, else the
    first root of T^3 - r.
    """
    if (K.order - 1) % n:
        return K.pow(r, pow(n, -1, K.order - 1))
    if n == 2:
        s = K.any_sqrt(r)
        return min(s, K.neg(s), key=getattr(K, "sort_key", None))
    return gp_roots(K, [K.neg(r), K.zero, K.zero, K.one])[0]


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
        return done(True, K.lift(residue_root(K, r, n)))

    if K.is_zero(r):
        raise ValueError("e=2 test requires gcd(a, P) = 1")
    if p != n:
        ok = K.is_nth_power(r, n)
        if not ok:
            return done(False, None)
        if not want_witness:
            return done(True, None)
        w0 = K.lift(residue_root(K, r, n))
        # Hensel: w = w0 + t*P with t = (a - w0^n)/P * (n w0^(n-1))^-1 mod P
        diff = (a - w0 ** n) % (P * P)
        t = K.embed(diff.exact_div(P))
        dinv = K.inv(K.embed(FqPoly.const(P.field, P.field.from_int(n)) * w0 ** (n - 1)))
        w = (w0 + K.lift(K.mul(t, dinv)) * P) % (P * P)
        return done(True, w)
    # n == char: n-th powers mod P^2 are exactly n-th powers of residues mod P
    w0 = K.lift(residue_root(K, r, n))
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
