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
- for odd p, Zech logarithms zech[n] = log(1 + g^n), None where
  1 + g^n = 0 (Huber, "Some comments on Zech's logarithms", IEEE Trans.
  Inf. Theory 36(4), 1990), and a negation table.

Products, quotients, inverses, powers, n-th power tests and roots are then
one to three list lookups, and a sum is a Zech lookup; for p = 2 sums are
XOR of encodings at every k.  The tables index the elements without
changing them: the modulus and the base-p encoding are the same, so every
result is the same int as with the base-p digit arithmetic, which builds
the tables and serves the fields above the threshold.  FqField also serves
the generic polynomial protocol of poly (zero, one, char, order, from_rand).
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


def _fp_poly_mulmod(a, b, mod, p):
    """Product of F_p coefficient tuples a, b reduced mod the monic tuple `mod`."""
    k = len(mod) - 1
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    for i in range(len(res) - 1, k - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(k):
                res[i - k + j] = (res[i - k + j] - c * mod[j]) % p
    while res and res[-1] == 0:
        res.pop()
    return tuple(res)


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
        "_inv_cache", "_exp", "_log", "_zech", "_neg",
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
        self._exp = self._log = self._zech = self._neg = None
        if k > 1 and self.q <= TABLE_MAX_ORDER:
            self._build_tables()

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
        t = _fp_poly_mulmod(tuple(self._dec(a)), tuple(self._dec(b)), self.modulus, self.p)
        return self._enc(list(t) + [0] * (self.k - len(t)))

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
        for g in range(2, self.q):
            if all(self._digit_pow(g, c) != 1 for c in cofactors):
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
        if p != 2:
            # 1 + g^i differs from g^i in the lowest digit only; log[0] is
            # None, so zech[i] is None exactly where 1 + g^i = 0
            self._zech = [log[a - a % p + (a + 1) % p] for a in exp]
            # -1 = g^(n/2)
            self._neg = [0] + [exp[(log[a] + n // 2) % n] for a in range(1, q)]
        self._exp = exp + exp
        self._log = log

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

    def from_int(self, n):
        """Image of the integer n under the ring homomorphism Z -> F_q."""
        return n % self.p

    def from_encoding(self, n):
        """Element with base-p digit encoding n (mod q); from_int for k = 1."""
        if self.k == 1:
            return n % self.p
        return n % self.q

    def from_rand(self, rng):
        """Uniform random element drawn from the random.Random instance rng."""
        return rng.randrange(self.q)

    def elements(self):
        return range(self.q)

    # -- power residues ----------------------------------------------------
    def is_nth_power(self, a, n):
        if a == 0:
            return True
        g = gcd(n, self.q - 1)
        if self._log is not None:
            return self._log[a] % g == 0
        return self.pow(a, (self.q - 1) // g) == 1

    def nth_root(self, a, n):
        """Some n-th root of a, or None.  Deterministic (least root)."""
        if a == 0:
            return 0
        g = gcd(n, self.q - 1)
        if self._log is not None:
            # x = gen^j is a root iff n j = log a (mod q - 1): g solutions
            # spaced m apart, of which the least encoding is returned
            la = self._log[a]
            if la % g:
                return None
            m = (self.q - 1) // g
            j = la // g * pow(n // g, -1, m) % m
            return min(self._exp[j + t * m] for t in range(g))
        if self.pow(a, (self.q - 1) // g) != 1:
            return None
        if g == 1:
            return self.pow(a, pow(n, -1, self.q - 1))
        # small-field search, ascending for determinism
        for x in range(1, self.q):
            if self.pow(x, n) == a:
                return x
        return None  # pragma: no cover

    def is_square(self, a):
        if self.p == 2:
            return True
        return self.is_nth_power(a, 2)

    def sqrt(self, a):
        if self.p == 2:
            # Frobenius x -> x^2 is bijective; inverse is x -> x^(q/2)
            return self.pow(a, self.q // 2)
        return self.nth_root(a, 2)

    def is_cube(self, a):
        return self.is_nth_power(a, 3)

    def cube_root(self, a):
        if self.p == 3:
            return self.pow(a, self.q // 3)
        return self.nth_root(a, 3)

    # -- dunder ------------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, FqField) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))

    def __repr__(self):
        if self.k == 1:
            return "FqField(%d)" % self.p
        return "FqField(%d, %d)" % (self.p, self.k)

    def describe(self):
        return "%d" % self.p if self.k == 1 else "%d^%d" % (self.p, self.k)


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
