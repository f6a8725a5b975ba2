"""The log-table polynomial kernels over F_{p^k} against the per-term loop.

Over a table-backed FqField with k > 1, and over a tower residue field whose
E is one, gp_mul and gp_divmod run poly._log_mul and poly._log_divmod.  The
oracle is the engine's generic per-term loop over the field's own add, sub,
mul and inv (which tests/test_fq_tables.py checks against sympy), copied
here.  gp_gcd, gp_pow_mod and factorize are checked by running them twice,
once with the log kernels and once with the oracle patched in for them:
the results must be the same lists, factor for factor, since the splitting
randomness is seeded.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import funcfields.poly as poly_module
from funcfields import GF, FqPoly, factorize
from funcfields.poly import gp_divmod, gp_gcd, gp_mul, gp_pow_mod, tower_fields
from oracles import factorization_value

FIELDS = [(2, 2), (2, 3), (3, 2), (5, 2), (7, 2), (2, 8), (3, 5)]
TOWERS = [((7, 1), 3), ((5, 2), 2)]  # k(P) = GF(7^3) and GF(25^2)


def ref_trim(K, cs):
    while cs and cs[-1] == K.zero:
        cs.pop()
    return cs


def ref_mul(K, a, b):
    a, b = ref_trim(K, list(a)), ref_trim(K, list(b))
    if not a or not b:
        return []
    out = [K.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b, i):
            out[j] = K.add(out[j], K.mul(ai, bj))
    return ref_trim(K, out)


def ref_divmod(K, a, b):
    a, b = ref_trim(K, list(a)), ref_trim(K, list(b))
    if not b:
        raise ZeroDivisionError
    db = len(b) - 1
    inv = K.inv(b[-1])
    q = [K.zero] * max(0, len(a) - db)
    while len(a) - 1 >= db:
        c = K.mul(a[-1], inv)
        pos = len(a) - 1 - db
        q[pos] = c
        for j, bj in enumerate(b, pos):
            a[j] = K.sub(a[j], K.mul(c, bj))
        ref_trim(K, a)
    return ref_trim(K, q), a


def _fields():
    out = [(GF(*pk), "GF(%d^%d)" % pk) for pk in FIELDS]
    for (p, k), d in TOWERS:
        F = GF(p, k)
        K = tower_fields(F, d)[1][1]  # the second place's field in the sweep
        assert K.E.k == k * d and K.E._log is not None
        out.append((K, "tower GF(%d^%d)" % (F.q, d)))
    return out


FIELD_CASES = _fields()


@st.composite
def polys(draw, K, count, max_len=8):
    """`count` coefficient lists over K; zeros, ones and trailing zeros are common."""
    elem = st.one_of(st.integers(0, K.order - 1), st.sampled_from([0, 1, K.order - 1]))
    return [draw(st.lists(elem, max_size=max_len)) for _ in range(count)]


@pytest.mark.parametrize("K", [c[0] for c in FIELD_CASES], ids=[c[1] for c in FIELD_CASES])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mul_and_divmod_match_the_per_term_loop(K, data):
    a, b = data.draw(polys(K, 2))
    assert gp_mul(K, a, b) == ref_mul(K, a, b)
    if not ref_trim(K, list(b)):
        with pytest.raises(ZeroDivisionError):
            gp_divmod(K, a, b)
        return
    q, r = gp_divmod(K, a, b)
    assert (q, r) == ref_divmod(K, a, b)
    assert len(r) < len(ref_trim(K, list(b)))


@pytest.mark.parametrize("K", [c[0] for c in FIELD_CASES], ids=[c[1] for c in FIELD_CASES])
def test_edge_cases(K):
    rng = random.Random(K.order)
    a = [rng.randrange(K.order) for _ in range(6)] + [rng.randrange(1, K.order)]
    c = rng.randrange(2, K.order)
    # zero operands
    assert gp_mul(K, [], a) == gp_mul(K, a, []) == []
    assert gp_divmod(K, [], a) == ([], [])
    with pytest.raises(ZeroDivisionError):
        gp_divmod(K, a, [])
    with pytest.raises(ZeroDivisionError):
        gp_divmod(K, a, [0, 0])
    # constant divisors, 1 and not 1: a zero remainder
    for d in ([1], [c]):
        q, r = gp_divmod(K, a, d)
        assert r == [] and (q, r) == ref_divmod(K, a, d)
    # a non-monic divisor
    b = [rng.randrange(K.order), 1, c]
    assert gp_divmod(K, a, b) == ref_divmod(K, a, b)
    # a dividend of lower degree is its own remainder
    assert gp_divmod(K, a[:2], b) == ([], ref_trim(K, a[:2]))


def _with_oracle(monkeypatch, fn):
    """fn() with the log kernels replaced by the per-term loop."""
    monkeypatch.setattr(poly_module, "_log_mul", ref_mul)
    monkeypatch.setattr(poly_module, "_log_divmod", ref_divmod)
    try:
        return fn()
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("K", [c[0] for c in FIELD_CASES], ids=[c[1] for c in FIELD_CASES])
def test_gcd_and_pow_mod_match_the_per_term_loop(K, monkeypatch):
    rng = random.Random(3 * K.order)

    def draw():
        return [rng.randrange(K.order) for _ in range(rng.randrange(0, 8))] + [rng.randrange(1, K.order)]

    for _ in range(20):
        a, b, m = draw(), draw(), draw()
        if rng.random() < 0.5:  # a common factor
            c = [rng.randrange(K.order), 1]
            a, b = gp_mul(K, a, c), gp_mul(K, b, c)
        e = rng.choice([0, 1, 2, K.order, K.order ** 2 - 1, rng.randrange(1, 10 ** 6)])
        def results():
            return gp_gcd(K, a, b), gp_gcd(K, a, []), gp_pow_mod(K, a, e, m)

        assert results() == _with_oracle(monkeypatch, results)


@pytest.mark.parametrize("pk", FIELDS, ids=["GF(%d^%d)" % pk for pk in FIELDS])
def test_factorize_matches_the_per_term_loop(pk, monkeypatch):
    F = GF(*pk)
    rng = random.Random(F.q)
    for _ in range(6):
        parts = [FqPoly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 4))] + [1]) for _ in range(3)]
        f = parts[0] * parts[1] ** 2 * parts[2]
        fact = factorize(f)
        assert fact.factors == _with_oracle(monkeypatch, lambda: factorize(f).factors)
        assert factorization_value(fact, F) == f
