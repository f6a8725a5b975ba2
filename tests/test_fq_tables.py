"""Table-backed F_{p^k} arithmetic against sympy's galoistools as an oracle.

The oracle multiplies and reduces the F_p coefficient vectors of the
base-p encodings modulo F.modulus, so it shares nothing with the exp, log
and Zech tables, nor with the digit arithmetic used above the threshold.
"""

import random

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_gcdex, gf_mul, gf_neg, gf_rem, gf_sub

from funcfields import GF
from funcfields.fq import TABLE_MAX_ORDER

EXHAUSTIVE = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2)]

# least monic irreducible by base-p encoding, little-endian; fixed by the
# element encoding, which the tables must not change
MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (3, 2): (1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (5, 2): (2, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (7, 2): (1, 0, 1),
    (2, 16): (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,),
    (3, 10): (1, 0, 2) + (0,) * 7 + (1,),
    (2, 17): (1, 0, 0, 1) + (0,) * 13 + (1,),
}


class Oracle:
    """F_p[x]/(modulus) on sympy's big-endian coefficient lists."""

    def __init__(self, F):
        self.p, self.k = F.p, F.k
        self.mod = [ZZ(c) for c in reversed(F.modulus)]

    def to_gf(self, a):
        digits = []
        for _ in range(self.k):
            digits.append(ZZ(a % self.p))
            a //= self.p
        while digits and digits[-1] == 0:
            digits.pop()
        return digits[::-1]

    def from_gf(self, f):
        v = 0
        for c in f:
            v = v * self.p + int(c)
        return v

    def mul(self, a, b):
        prod = gf_mul(self.to_gf(a), self.to_gf(b), self.p, ZZ)
        return self.from_gf(gf_rem(prod, self.mod, self.p, ZZ))

    def add(self, a, b):
        return self.from_gf(gf_add(self.to_gf(a), self.to_gf(b), self.p, ZZ))

    def sub(self, a, b):
        return self.from_gf(gf_sub(self.to_gf(a), self.to_gf(b), self.p, ZZ))

    def neg(self, a):
        return self.from_gf(gf_neg(self.to_gf(a), self.p, ZZ))

    def inv(self, a):
        s, _, h = gf_gcdex(self.to_gf(a), self.mod, self.p, ZZ)
        assert h == [1]
        return self.from_gf(gf_rem(s, self.mod, self.p, ZZ))


@pytest.mark.parametrize("pk", EXHAUSTIVE)
def test_exhaustive_against_oracle(pk):
    F = GF(*pk)
    O = Oracle(F)
    assert F._log is not None
    for a in range(F.q):
        assert F.neg(a) == O.neg(a)
        if a:
            assert F.inv(a) == O.inv(a)
        for b in range(F.q):
            assert F.mul(a, b) == O.mul(a, b)
            assert F.add(a, b) == O.add(a, b)
            assert F.sub(a, b) == O.sub(a, b)
            if b:
                assert F.div(a, b) == O.mul(a, O.inv(b))


@pytest.mark.parametrize("pk, tables", [((2, 16), True), ((3, 10), True), ((2, 17), False)])
def test_random_pairs_at_and_above_threshold(pk, tables):
    F = GF(*pk)
    O = Oracle(F)
    assert (F._log is not None) == tables == (F.q <= TABLE_MAX_ORDER)
    rng = random.Random(20261018)
    for _ in range(300):
        a, b = rng.randrange(F.q), rng.randrange(1, F.q)
        assert F.mul(a, b) == O.mul(a, b)
        assert F.add(a, b) == O.add(a, b)
        assert F.sub(a, b) == O.sub(a, b)
        assert F.neg(a) == O.neg(a)
        assert F.inv(b) == O.inv(b)
        e = rng.randrange(-F.q, 3 * F.q)
        if a or e >= 0:
            expect = 1
            base = a if e >= 0 else O.inv(a)
            for bit in bin(abs(e))[2:]:
                expect = O.mul(expect, expect)
                if bit == "1":
                    expect = O.mul(expect, base)
            assert F.pow(a, e) == expect


@pytest.mark.parametrize("pk", EXHAUSTIVE)
def test_roots_are_least_by_encoding(pk):
    F = GF(*pk)
    O = Oracle(F)
    powers = {}
    for n in (2, 3, 4, 6):
        powers[n] = []
        for x in range(F.q):
            y = 1
            for _ in range(n):
                y = O.mul(y, x)
            powers[n].append(y)
    for a in range(F.q):
        for n, table in powers.items():
            roots = [x for x in range(F.q) if table[x] == a]
            least = roots[0] if roots else None
            assert F.nth_root(a, n) == least
            assert F.is_nth_power(a, n) == bool(roots)
            if n == 2:
                assert F.sqrt(a) == least
            if n == 3:
                assert F.cube_root(a) == least


@pytest.mark.parametrize("pk", sorted(MODULI))
def test_modulus_unchanged(pk):
    assert GF(*pk).modulus == MODULI[pk]
