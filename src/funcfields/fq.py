"""Exact arithmetic in the finite field F_q with q = p^k.

Elements are plain Python ints in range(q).  For k = 1 an element is its
residue mod p.  For k > 1 the int encodes the coefficient vector of the
element over F_p in base p (little-endian digits), relative to a fixed
monic irreducible modulus of degree k over F_p.  The modulus is chosen
deterministically as the lexicographically least monic irreducible, where
polynomials are ordered by their base-p integer encoding, so two runs (or
two machines) always build the same field.

This integer encoding keeps elements hashable and totally ordered, which
the rest of the package relies on for deterministic output.

For k > 1 and q <= TABLE_MAX_ORDER (2^16) the constructor builds, once:

- exp, of length 2(q - 1), with exp[i] the encoding of g^(i mod (q - 1)),
  where g is the primitive element of least encoding, and log, its inverse
  on the nonzero elements (log[0] is None);
- Zech logarithms zech[n] = log(1 + g^n), None where 1 + g^n = 0 (Huber,
  "Some comments on Zech's logarithms", IEEE Trans. Inf. Theory 36(4),
  1990), and for odd p a negation table.

Products, quotients, inverses, powers, n-th power tests and any_sqrt (the
square root that half the log gives) are then one to three list lookups,
and a sum is a Zech lookup; for p = 2 sums are XOR of encodings at every
k.  The tables index the elements without changing them: the modulus and
the base-p encoding are the same, so every result is the same int as with
the base-p digit arithmetic, which builds the tables and serves the
fields above the threshold.  FqField also serves
the generic polynomial protocol of poly (zero, one, char, order, from_rand).

log_tables() hands (exp, log, zech) to the class-number census.  For k = 1
it builds F_p's on the first call (p <= TABLE_MAX_ORDER), which no k = 1
operation reads: they stay on ints mod p.

FqField.horner evaluates a polynomial, given by coefficient encodings and
an optional embedding of a subfield, in one call: on plain ints mod p for
k = 1, by log_horner (Zech additions in the log domain) when there are
tables, and by add/mul above them.  FqPoly.evaluate and every residue
of a polynomial at a place whose residue field is an evaluation tower
(poly.tower_fields, and poly.residue_field at degree 1) are this loop.
"""

import operator
from functools import lru_cache
from math import gcd

# largest order q = p^k, k > 1, served by exp/log/Zech tables; larger
# fields use base-p digit arithmetic
TABLE_MAX_ORDER = 1 << 16


def is_prime(n):
    if n < 2:
        return False
    for d in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % d == 0:
            return n == d
    d = 41
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# -- polynomial kernels over F_p ----------------------------------------------
# Polynomials over the prime field F_p as little-endian lists of ints in
# range(p).  Products are accumulated unreduced and reduced mod p once per
# output coefficient; division makes the divisor monic once.  Inputs may
# carry trailing zeros; outputs carry none.


def _fp_trim(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def fp_mul(a, b, p):
    """Product of the F_p polynomials a and b."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return _fp_trim([c % p for c in out])


def fp_divmod(a, b, p):
    """(quotient, remainder) of the F_p polynomials a and b, deg remainder < deg b."""
    if not b or not b[-1]:
        b = _fp_trim(list(b))
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    r = _fp_trim(list(a))
    if len(r) <= db:
        return [], r
    # the monic divisor below its leading term
    if b[-1] == 1:
        inv, low = 1, b[:-1]
    else:
        inv = pow(b[-1], p - 2, p)
        low = [c * inv % p for c in b[:-1]]
    q = [0] * (len(r) - db)
    for pos in range(len(r) - 1 - db, -1, -1):
        c = r[pos + db] % p
        if c:
            q[pos] = c * inv % p
            for j, bj in enumerate(low, pos):
                r[j] -= c * bj
    return q, _fp_trim([c % p for c in r[:db]])


def _fp_monic(cs, p):
    """cs reduced mod p, stripped and divided by its leading coefficient, in one pass."""
    top = len(cs)
    while top and not cs[top - 1] % p:
        top -= 1
    if not top:
        return []
    inv = pow(cs[top - 1] % p, p - 2, p)
    return [c * inv % p for c in cs[:top]]


def fp_gcd(a, b, p):
    """Monic gcd of the F_p polynomials a and b; [] when both are zero.

    Euclid in place: the divisor is monic, so each remainder is taken from
    the top down on unreduced ints and then reduced mod p and made monic in
    one pass.
    """
    a, b = list(a), _fp_monic(b, p)
    if not b:
        return _fp_monic(a, p)
    while True:
        db = len(b) - 1
        if not db:
            return b  # a unit divides everything: the gcd is 1
        low = b[:-1]
        for pos in range(len(a) - 1 - db, -1, -1):
            c = a[pos + db] % p
            if c:
                for j, bj in enumerate(low, pos):
                    a[j] -= c * bj
        r = _fp_monic(a[:db], p)
        if not r:
            return b
        a, b = b, r


def digits(n, base, length):
    """The `length` lowest base-`base` digits of n, least significant first.

    Decodes an index into the coefficient list of a polynomial over F_q
    (base q) or an element encoding into its F_p digits (base p).
    """
    out = []
    for _ in range(length):
        out.append(n % base)
        n //= base
    return out


def tonelli_shanks(K, a, nonsquare):
    """A square root of a in the finite field K, or None when a is not a square.

    0 for 0, the Frobenius inverse a^(|K|/2) in characteristic 2, else
    K's square test and then Tonelli-Shanks on K's mul and pow.
    nonsquare() returns a fixed non-square and is called only when
    |K| = 1 mod 4.  The root is a function of a and that non-square alone.
    """
    q, one, mul, pow_ = K.order, K.one, K.mul, K.pow
    if not a:
        return a
    if K.char == 2:
        return pow_(a, q // 2)
    if not K.is_square(a):
        return None
    if q % 4 == 3:
        return pow_(a, (q + 1) // 4)
    s, t = 0, q - 1
    while t % 2 == 0:
        s += 1
        t //= 2
    m, c = s, pow_(nonsquare(), t)
    x = pow_(a, (t + 1) // 2)
    b = pow_(a, t)
    while b != one:
        i, b2 = 0, b
        while b2 != one:
            b2 = mul(b2, b2)
            i += 1
        e = pow_(c, 1 << (m - i - 1))
        x = mul(x, e)
        c = mul(e, e)
        b = mul(b, c)
        m = i
    return x


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FqField:
    """The finite field with q = p^k elements, with int-encoded elements."""

    __slots__ = (
        "p", "k", "q", "modulus", "zero", "one", "char", "order",
        "_inv_cache", "_exp", "_log", "_zech", "_neg", "_nonsquare", "_prime_logs",
    )

    def __init__(self, p, k=1):
        if not is_prime(p):
            raise ValueError("characteristic %r is not prime" % (p,))
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = self.char = p
        self.k = k
        self.q = self.order = p ** k
        self.zero, self.one = 0, 1
        self.modulus = None if k == 1 else self._least_irreducible(p, k)
        self._inv_cache = {}
        self._exp = self._log = self._zech = self._neg = self._nonsquare = self._prime_logs = None
        if k > 1 and self.q <= TABLE_MAX_ORDER:
            self._exp, self._log, self._zech, self._neg = self._build_tables()

    @staticmethod
    def _least_irreducible(p, k):
        # monic degree-k polynomial with least base-p integer encoding
        from .poly import gp_irreducible

        Fp = GF(p)
        for enc in range(p ** k):
            coeffs = digits(enc, p, k) + [1]
            if coeffs[0] != 0 and gp_irreducible(Fp, coeffs):
                return tuple(coeffs)
        raise RuntimeError("no irreducible modulus found")  # pragma: no cover

    # -- encoding helpers -------------------------------------------------
    def _dec(self, a):
        return digits(a, self.p, self.k)

    def _enc(self, digits):
        p = self.p
        v = 0
        for d in reversed(digits):
            v = v * p + d
        return v

    # -- digit arithmetic (builds the tables; serves q > TABLE_MAX_ORDER) --
    def _digit_mul(self, a, b):
        p = self.p
        return self._enc(fp_divmod(fp_mul(self._dec(a), self._dec(b), p), self.modulus, p)[1])

    def _digit_pow(self, a, e):
        r, b = 1, a
        while e:
            if e & 1:
                r = self._digit_mul(r, b)
            b = self._digit_mul(b, b)
            e >>= 1
        return r

    # -- exp/log/Zech tables -------------------------------------------------
    def _least_primitive(self):
        n = self.q - 1
        cofactors = [n // r for r in set(_prime_factors(n))]
        for g in range(1, self.q):  # 1 only for q = 2
            if all(self.pow(g, c) != 1 for c in cofactors):
                return g
        raise RuntimeError("no primitive element found")  # pragma: no cover

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        n = q - 1
        # row i, column j: digit i of g * x^j, the matrix of multiplication by g
        cols = [self._dec(self._least_primitive())]
        for _ in range(k - 1):
            cols.append(self._dec(self._digit_mul(self._enc(cols[-1]), p)))
        rows = list(zip(*cols))
        exp = []
        digits = [1] + [0] * (k - 1)
        for _ in range(n):
            exp.append(self._enc(digits))
            digits = [sum(map(operator.mul, row, digits)) % p for row in rows]
        log = [None] * q
        for i, a in enumerate(exp):
            log[a] = i
        # 1 + g^i differs from g^i in the lowest digit only; log[0] is None,
        # so zech[i] is None exactly where 1 + g^i = 0; -1 = g^(n/2) for odd p
        zech = [log[a - a % p + (a + 1) % p] for a in exp]
        neg = None if p == 2 else [0] + [exp[(log[a] + n // 2) % n] for a in range(1, q)]
        return exp + exp, log, zech, neg

    def log_tables(self):
        """(exp, log, zech) as above, or None above TABLE_MAX_ORDER; F_p's for k = 1."""
        if self.k > 1:
            return self._log and (self._exp, self._log, self._zech)
        if self._prime_logs is None and self.q <= TABLE_MAX_ORDER:
            self._prime_logs = self._build_tables()[:3]
        return self._prime_logs

    # -- ring operations ---------------------------------------------------
    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        zech = self._zech
        if zech is None:
            da, db = self._dec(a), self._dec(b)
            return self._enc([(x + y) % self.p for x, y in zip(da, db)])
        if not a:
            return b
        if not b:
            return a
        # g^i + g^j = g^i (1 + g^(j - i)); a negative index wraps mod q - 1
        log = self._log
        i = log[a]
        z = zech[log[b] - i]
        return 0 if z is None else self._exp[i + z]

    def sub(self, a, b):
        if self.k == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        if self._neg is None:
            da, db = self._dec(a), self._dec(b)
            return self._enc([(x - y) % self.p for x, y in zip(da, db)])
        return self.add(a, self._neg[b])

    def neg(self, a):
        if self.k == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        if self._neg is None:
            return self._enc([(-x) % self.p for x in self._dec(a)])
        return self._neg[a]

    def mul(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        log = self._log
        if log is None:
            return self._digit_mul(a, b)
        if a and b:
            return self._exp[log[a] + log[b]]
        return 0

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.k == 1:
            return pow(a, e, self.p)
        if self._log is None:
            return self._digit_pow(a, e)
        if a:
            return self._exp[self._log[a] * e % (self.q - 1)]
        return 0 if e else 1

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_%d" % self.q)
        if self._log is not None:
            return self._exp[self.q - 1 - self._log[a]]
        c = self._inv_cache.get(a)
        if c is None:
            c = self.pow(a, self.q - 2)
            self._inv_cache[a] = c
        return c

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def horner(self, coeffs, x, emb=None):
        """sum of emb[c_i] x^i over the little-endian encodings c_i; emb None is the identity.

        emb maps the encodings of a subfield into this field (a residue
        field's embedding of F_q).  The loop runs on plain ints mod p for
        k = 1, where the only subfield is F_p and emb can only be the
        identity; with tables it is log_horner on the logs of the
        coefficients; above the tables it steps through add and mul.  Same
        ints as the add/mul loop in every case.
        """
        if self.k == 1:
            p, acc = self.p, 0
            for c in reversed(coeffs):
                acc = (acc * x + c) % p
            return acc
        if emb is None:
            emb = range(self.q)
        log = self._log
        if log is None:
            add, mul, acc = self.add, self.mul, 0
            for c in reversed(coeffs):
                acc = add(mul(acc, x), emb[c])
            return acc
        n = self.q - 1
        la = log_horner([log[emb[c]] for c in reversed(coeffs)], log[x], self._zech, n)
        return 0 if la is None else self._exp[la % n]

    def from_int(self, n):
        """Image of the integer n under the ring homomorphism Z -> F_q."""
        return n % self.p

    def from_encoding(self, n):
        """Element with base-p digit encoding n (mod q); from_int for k = 1."""
        return n % self.q

    def from_rand(self, rng):
        """Uniform random element drawn from the random.Random instance rng."""
        return rng.randrange(self.q)

    # -- power residues ----------------------------------------------------
    def is_nth_power(self, a, n):
        if a == 0:
            return True
        g = gcd(n, self.q - 1)
        if self._log is not None:
            return self._log[a] % g == 0
        return self.pow(a, (self.q - 1) // g) == 1

    def _least_nonsquare(self):
        if self._nonsquare is None:
            self._nonsquare = next(z for z in range(2, self.q) if not self.is_nth_power(z, 2))
        return self._nonsquare

    def is_square(self, a):
        if self.p == 2:
            return True
        return self.is_nth_power(a, 2)

    def any_sqrt(self, a):
        """A square root of a, or None: half the log with tables for odd p, else tonelli_shanks."""
        if a and self.p != 2 and self._log is not None:
            la = self._log[a]
            return None if la % 2 else self._exp[la // 2]
        return tonelli_shanks(self, a, self._least_nonsquare)

    def is_cube(self, a):
        return self.is_nth_power(a, 3)

    # -- dunder ------------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, FqField) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))

    def describe(self):
        return "%d" % self.p if self.k == 1 else "%d^%d" % (self.p, self.k)


def log_horner(lcs, lx, zech, n):
    """The log of f(x), any representative mod n = q - 1 (None for 0, as in log),
    from the logs lcs of f's coefficients, highest first, and lx = log x: a step
    multiplies by x, la += lx, and adds g^lc as g^la (1 + g^(lc - la))."""
    if lx is None:
        return lcs[-1] if lcs else None
    la = None
    for lc in lcs:
        if la is not None:
            la += lx
        if lc is not None:
            if la is None:
                la = lc
            else:
                z = zech[(lc - la) % n]
                la = None if z is None else la + z
    return la


@lru_cache(maxsize=None)
def GF(p, k=1):
    """Cached field constructor; GF(7), GF(3, 2), ..."""
    return FqField(p, k)


def parse_field(text):
    """Parse a field descriptor 'p^k' or the order q itself ('7', '4' = 2^2)."""
    text = text.strip()
    if "^" in text:
        ps, ks = text.split("^", 1)
        return GF(int(ps), int(ks))
    q = int(text)
    factors = _prime_factors(q)
    if not factors or factors.count(factors[0]) != len(factors):
        raise ValueError("q = %d is not a prime power; write the field as p or p^k" % q)
    return GF(q) if len(factors) == 1 else GF(factors[0], len(factors))
