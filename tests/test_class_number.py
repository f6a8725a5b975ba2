"""Zeta tuples, estimates with intervals, the exact oracle, certificates."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import funcfields
from funcfields import (
    GF,
    CubicModel,
    FqPoly,
    LPolynomial,
    QuarticModel,
    Signature,
    ZetaData,
    divisibility_certificates,
    eq_310_sides,
    estimate_h,
    exact_h,
    factorize,
    genus,
    monic_irreducibles,
    parse_poly,
    search_h_divisor,
    unit_rank,
    zeta_tuple_for_signature,
)
from funcfields.class_number import _is_pth_power_up_to_unit
from funcfields.cli import EXIT_OK, run
from funcfields.poly import HypothesisRefused, InternalFault, UnknownSignature
from funcfields.units import construct_rank1, regulator
from oracles import (
    h_prime,
    local_factor,
    search_h_divisor_reference,
    verify_valuation_sum,
    verify_valuation_sum_infinite,
    zeta_symbols,
)

F5 = GF(5)
F7 = GF(7)
F11 = GF(11)


def pp(s, F=F7):
    return parse_poly(F, s)


def pure_cubic(B, F=F7):
    return CubicModel(FqPoly.zero(F), -B)


# -- tuple tables ------------------------------------------------------------------


QUARTIC_ROWS = {
    (4, 1): ("0", "0", "0"),
    (1, 4): ("w4", "-1", "w4^3"),
    (2, 2): ("-1", "0", "0"),
    (1, 1, 3, 1): ("1", "0", "0"),
    (1, 1, 1, 3): ("1", "w3", "w3^2"),
    (1, 2, 1, 2): ("-1", "1", "-1"),
    (1, 2, 2, 1): ("1", "-1", "0"),
    (2, 1, 2, 1): ("1", "0", "0"),
    (1, 1, 1, 1, 2, 1): ("1", "1", "0"),
    (1, 1, 1, 1, 1, 2): ("1", "1", "-1"),
    (1, 1, 1, 1, 1, 1, 1, 1): ("1", "1", "1"),
}


def test_quartic_tuple_table():
    for flat, symbols in QUARTIC_ROWS.items():
        tup = zeta_tuple_for_signature(Signature.from_flat(flat, 4))
        assert sorted(zeta_symbols(tup)) == sorted(symbols), flat


def test_cubic_tuple_table():
    rows = {
        (3, 1): ("0", "0"),
        (1, 3): ("w3", "w3^2"),
        (1, 1, 2, 1): ("1", "0"),
        (1, 1, 1, 2): ("1", "-1"),
        (1, 1, 1, 1, 1, 1): ("1", "1"),
    }
    for flat, symbols in rows.items():
        tup = zeta_tuple_for_signature(Signature.from_flat(flat, 3))
        assert sorted(zeta_symbols(tup)) == sorted(symbols), flat


def test_tuple_power_sums_bounded():
    for flat in QUARTIC_ROWS:
        tup = zeta_tuple_for_signature(Signature.from_flat(flat, 4))
        for n in range(1, 25):
            assert abs(tup.power_sum(n)) <= 3


def test_local_factor_values():
    q = 7
    t = zeta_tuple_for_signature(Signature.from_flat((4, 1), 4))
    assert local_factor(t, q, 1) == 1
    t = zeta_tuple_for_signature(Signature.from_flat((1, 1, 1, 1, 1, 1, 1, 1), 4))
    assert local_factor(t, q, 1) == Fraction(q ** 3, (q - 1) ** 3)
    t = zeta_tuple_for_signature(Signature.from_flat((1, 4), 4))
    assert local_factor(t, q, 1) == Fraction(q ** 3 * (q - 1), q ** 4 - 1)


# -- exact oracle -------------------------------------------------------------------


def test_oracle_genus_zero():
    m = pure_cubic(pp("x"))
    o = exact_h(m)
    assert o.h == 1 and o.L.coeffs == [1]


def test_oracle_elliptic_h_equals_degree_one_places():
    # for g = 1 the class number equals the number of degree-1 places
    for Btxt, F in (("x^2 + x", F7), ("x^2 + 1", F5)):
        m = pure_cubic(parse_poly(F, Btxt), F)
        if genus(m).genus != 1:
            continue
        o = exact_h(m)
        assert o.h == ZetaData(m).place_count(1)


def test_oracle_three_divides_h_for_split_pure_cubic():
    # y^3 = B with B squarefree splitting into 2 factors: 3 | h
    m = pure_cubic(pp("x^2 + x"))
    o = exact_h(m)
    assert o.h % 3 == 0
    assert o.L.functional_equation_ok()
    assert o.L.hasse_weil_ok()
    assert o.L.root_moduli_ok()


def test_oracle_next_place_count_consistency():
    # N_{g+1} predicted by L matches the direct count of places
    m = pure_cubic(pp("x^2 + x"))
    o = exact_h(m)
    zd = ZetaData(m)
    g = o.L.genus
    n = g + 1
    q = 7
    predicted = q ** n + 1 - o.L.alpha_power_sum(n)
    direct = sum(d * zd.place_count(d) for d in range(1, n + 1) if n % d == 0)
    assert predicted == direct


@pytest.mark.parametrize(
    "q,g", [(q, g) for q in (5, 7, 9, 25) for g in (1, 2, 3)] + [(10007, 3), (101 ** 2, 3)]
)
def test_hasse_weil_bounds_are_exact(q, g):
    # exact bounds from sympy; h sits on, just inside and just outside each.
    # At q^g near 10^12 a relative float tolerance of 1e-9 spans about 1000
    lo = sp.expand((sp.sqrt(q) - 1) ** (2 * g))
    hi = sp.expand((sp.sqrt(q) + 1) ** (2 * g))

    def ok(h):
        return LPolynomial(q, g, [1, h - 1] + [0] * (2 * g - 1)).hasse_weil_ok()

    lo_in, hi_in = int(sp.ceiling(lo)), int(sp.floor(hi))
    assert ok(lo_in) and ok(hi_in) and ok(lo_in + 1) and ok(hi_in - 1)
    assert not ok(lo_in - 1) and not ok(hi_in + 1)
    assert (lo_in == lo and hi_in == hi) == (sp.sqrt(q).is_integer)


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _product(factors):
    out = [1]
    for f in factors:
        out = _mul(out, f)
    return out


@pytest.mark.parametrize(
    "B, q, factor, h",
    [("x^5+x+1", 5, [1, 0, 5], 1296), ("x^4+1", 11, [1, 0, 11], 1728)],
)
def test_repeated_l_roots_are_not_faults(capsys, B, q, factor, h):
    # L = (1 + q t^2)^g: every reciprocal root is repeated g times
    F = GF(q)
    o = exact_h(pure_cubic(parse_poly(F, B), F))
    g = o.L.genus
    assert o.L.coeffs == _product([factor] * g) and o.h == h
    assert o.L.root_moduli_ok()
    assert run(["hexact", "--pure-B", B, "--q", str(q)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("h = %d\n" % h)


def test_repeated_weil_factor_over_gf49():
    # y^3 = x^4 + 2x^3 + 4x^2 + 3x: over GF(7), L = (1 + 5t + 7t^2)(1 - 5t + 7t^2)^2,
    # so over GF(49) L = (1 - 11t + 49t^2)^3 by L_49(t^2) = L_7(t) L_7(-t).
    # exact_h over GF(49) takes about a minute, so only the L-polynomial is checked there.
    o = exact_h(pure_cubic(pp("x^4 + 2*x^3 + 4*x^2 + 3*x")))
    assert o.L.coeffs == _product([[1, 5, 7], [1, -5, 7], [1, -5, 7]])
    L49 = _product([[1, -11, 49]] * 3)
    square = _mul(o.L.coeffs, [c * (-1) ** i for i, c in enumerate(o.L.coeffs)])
    assert square == [c for c49 in L49 for c in (c49, 0)][:-1]
    assert LPolynomial(49, 3, L49).root_moduli_ok()
    assert LPolynomial(49, 3, L49).value_at_one() == 59319


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_weil_products_are_accepted_exactly_when_every_factor_is_weil(data):
    # L = prod (1 - a t + q t^2) has all reciprocal roots of modulus sqrt(q) exactly
    # when every a^2 <= 4q; square q puts a = +-2 sqrt(q) (a double root) on the edge.
    # A factor 1 - u t + (2q + v) t^2 - u q t^3 + q^2 t^4 with u^2 < 4v is
    # t^-2 (s^2 - u s + v) at s = t + q/t: its s are not real, so it never passes.
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 25, 49, 121, 10007]))
    r = math.isqrt(4 * q)
    a_strategy = st.one_of(st.integers(-r - 2, r + 2), st.sampled_from([-r - 1, -r, r, r + 1]))
    a_values = data.draw(st.lists(a_strategy, max_size=5))
    a_values += data.draw(st.lists(st.sampled_from(a_values), max_size=3)) if a_values else []
    factors = [[1, -a, q] for a in a_values]
    complex_pairs = data.draw(st.lists(st.tuples(st.integers(-r, r), st.integers(0, 3 * q)), max_size=2))
    for u, k in complex_pairs:
        v = u * u // 4 + 1 + k
        factors.append([1, -u, 2 * q + v, -u * q, q * q])
    L = LPolynomial(q, len(a_values) + 2 * len(complex_pairs), _product(factors))
    assert L.functional_equation_ok()
    assert L.root_moduli_ok() == (not complex_pairs and all(a * a <= 4 * q for a in a_values))


def test_exact_paths_run_without_numpy():
    # exact_h leaves numpy unimported, and with numpy blocked hexact still decides
    code = """
import sys
from funcfields import GF, CubicModel, FqPoly, exact_h, parse_poly
from funcfields.cli import run
F = GF(5)
assert exact_h(CubicModel(FqPoly.zero(F), -parse_poly(F, "x^5+x+1"))).h == 1296
assert "numpy" not in sys.modules
sys.modules["numpy"] = None
assert run(["hexact", "--pure-B", "x^2+x", "--q", "7"]) == 0
assert not [m for m in sys.modules if m.startswith("numpy.")]
"""
    src = os.path.dirname(os.path.dirname(funcfields.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("h = 9\n")


def test_oracle_budget_refusals():
    m = pure_cubic(pp("x^2 + x"))
    with pytest.raises(HypothesisRefused):
        exact_h(m, max_genus=0)


# -- estimates ------------------------------------------------------------------------


def test_estimate_interval_contains_h_and_tightens():
    m = pure_cubic(pp("x^2 + x"))
    o = exact_h(m)
    zd = ZetaData(m)
    radii = []
    for lam in (1, 2, 3, 4):
        est = estimate_h(m, lam, zeta=zd, genus_value=o.L.genus)
        lo, hi = est.interval
        assert lo <= o.h <= hi
        radii.append(est.L ** 2)
    assert radii[-1] <= radii[0]


def test_estimate_requires_positive_lambda():
    m = pure_cubic(pp("x^2 + x"))
    with pytest.raises(ValueError):
        estimate_h(m, 0)


def test_estimate_refuses_unknown_places():
    # a quartic with an unresolved low-degree place must refuse
    m = QuarticModel(pp("x"), pp("x"), pp("x"))
    with pytest.raises(UnknownSignature):
        estimate_h(m, 2)


def test_eq_310_identity():
    m = pure_cubic(pp("x^2 + x"))
    o = exact_h(m)
    zd = ZetaData(m)
    for n in (1, 2, 3, 4):
        lhs, rhs = eq_310_sides(m, n, zeta=zd, oracle=o)
        assert lhs == rhs


def test_power_sum_bound_cor_347():
    # |sum_{m|n} m S_m(n/m)| <= (number of tuple entries) + 2 g q^{n/2};
    # quartic model to n = 3, and the cubic variant (constant 2) to n = 6
    m = QuarticModel(pp("x"), pp("1"), pp("x^2"))
    zd = ZetaData(m)
    o = exact_h(m)
    g, q = o.L.genus, 7
    for n in (1, 2, 3):
        lhs = 0
        for d in range(1, n + 1):
            if n % d == 0:
                lhs += d * zd.S(d, n // d)
        assert abs(lhs) <= 3 + 2 * g * q ** (n / 2)
    mc = pure_cubic(parse_poly(F5, "x^2 + 1"), F5)
    zdc = ZetaData(mc)
    oc = exact_h(mc, zeta=zdc)
    g, q = oc.L.genus, 5
    for n in (1, 2, 3, 4, 5, 6):
        lhs = 0
        for d in range(1, n + 1):
            if n % d == 0:
                lhs += d * zdc.S(d, n // d)
        assert abs(lhs) <= 2 + 2 * g * q ** (n / 2)


# -- h' and the regulator identity -----------------------------------------------------


def test_h_prime_trivial():
    assert h_prime(9, 1, 1) == 9


def test_h_prime_rank0_model():
    # (3,1) at infinity: R = 1, f = 1, so h' = h
    m = CubicModel(pp("x"), pp("x^2 + x"))
    assert unit_rank(m) == 0
    R, _ = regulator(m, [])
    assert h_prime(exact_h(m).h, R, 1) == exact_h(m).h


def test_h_prime_thm245a_integrality():
    model, cert = construct_rank1(F7, pp("x^3"), pp("x"), 1, "Thm245")
    o = exact_h(model)
    fs = [1, 1]
    f = 1
    val = h_prime(o.h, cert.regulator_R, f)
    assert val * cert.regulator_R == o.h * f


# -- divisibility certificates ---------------------------------------------------------


def test_cor42_certificates():
    m = pure_cubic(pp("x^2 + x"))
    certs = divisibility_certificates(m)
    assert any(c.modulus == 3 for c in certs)
    o = exact_h(m)
    for c in certs:
        assert o.h % c.modulus == 0


def test_cor42_r3_gives_nine():
    # B with three distinct linear factors, 3 not dividing deg B... deg 3 is out,
    # so use deg 4 with r = 3: B = x(x+1)(x^2+1) over F_7
    B = pp("x") * pp("x + 1") * pp("x^2 + 1")
    m = pure_cubic(B)
    certs = divisibility_certificates(m)
    assert any(c.modulus == 9 for c in certs)
    o = exact_h(m)
    assert o.h % 9 == 0


def test_no_certificate_for_irreducible_B():
    m = pure_cubic(pp("x^2 + 1"))  # irreducible over F_7
    assert divisibility_certificates(m) == []


def test_cor43_two_term_shape():
    # y^3 = 1 + x^2 over F_5: a x^2 + y^3 = c shape with m = 2
    F = F5
    B = parse_poly(F, "x^2 + 1")
    m = pure_cubic(B, F)
    certs = divisibility_certificates(m)
    assert any(c.modulus == 6 for c in certs), certs
    o = exact_h(m)
    assert o.h % 6 == 0


def test_cor43_skips_when_y_side_fails():
    # over F_7 (q = 1 mod 3) the y-side splits only for cube constants;
    # gamma = 3 is not a cube mod 7, so only the 3-power certificate remains
    B = pp("3*x^2 + 3")  # = 3(x^2 + 1): two-term shape with gamma = 3
    m = pure_cubic(B)
    certs = divisibility_certificates(m)
    assert all(c.modulus != 6 for c in certs)


# -- divisor search ----------------------------------------------------------------------


def test_search_finds_witness_and_oracle_agrees():
    m = pure_cubic(pp("x^2 + x"))
    w = search_h_divisor(m, 3, max_coord_degree=1)
    assert w is not None
    assert exact_h(m).h % 3 == 0
    assert all(w.checks.values())


def test_search_single_infinite_place_autopasses_step3():
    m = pure_cubic(pp("x^2 + x"))
    w = search_h_divisor(m, 3, max_coord_degree=1)
    assert w.checks["infinite-valuations"]


def test_search_not_found_is_none():
    # y^3 = irreducible B: no reason for 3 | h; tiny budget gives NotFound
    m = pure_cubic(pp("x^2 + 1"))
    w = search_h_divisor(m, 5, max_coord_degree=0)
    assert w is None or exact_h(m).h % 5 == 0


# pure models y^3 = B: (p, k), B by encodings, the prime, the coordinate
# degree.  At d = 1 over GF(7) a full walk is 117,649 triples, so there the
# models are ones whose search ends early, with or without a witness
DIVISOR_SEARCHES = [
    ((2, 2), [0, 1, 1], 3, 1), ((2, 2), [1, 2, 0, 1], 3, 1), ((2, 2), [3, 0, 1], 2, 1), ((2, 2), [1, 1, 1], 2, 0),
    ((5, 1), [1, 0, 1], 3, 1), ((5, 1), [2, 1, 0, 1], 2, 1), ((5, 1), [0, 1, 1], 3, 0), ((5, 1), [3, 0, 1], 2, 0),
    ((7, 1), [0, 1, 1], 3, 1), ((7, 1), [3, 0, 1], 3, 0), ((7, 1), [1, 0, 1], 2, 0), ((7, 1), [1, 1, 0, 1], 3, 0),
]


@pytest.mark.parametrize("pk, B, p, d", DIVISOR_SEARCHES)
def test_divisor_search_matches_the_per_triple_norms(pk, B, p, d):
    F = GF(*pk)
    m = pure_cubic(FqPoly(F, B), F)
    got, want = search_h_divisor(m, p, max_coord_degree=d), search_h_divisor_reference(m, p, d)
    assert (got is None) == (want is None)
    assert got is None or got.to_json() == want.to_json()


def test_search_requires_purely_cubic():
    m = CubicModel(pp("x"), pp("x^3 + x + 1"))
    with pytest.raises(HypothesisRefused):
        search_h_divisor(m, 3)


@pytest.mark.parametrize("pk", [(2, 2), (2, 3), (3, 2), (7, 1), (5, 2)],
                         ids=["GF(4)", "GF(8)", "GF(9)", "GF(7)", "GF(25)"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pth_power_test_matches_the_factorization(pk, data):
    # unit * prod g^e with e drawn so that p-th powers, and in characteristic
    # p the g(x^p) the derivative misses, are common
    F = GF(*pk)
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    f = FqPoly(F, [data.draw(st.integers(1, F.q - 1), label="unit")])
    for _ in range(data.draw(st.integers(0, 3))):
        g = FqPoly(F, data.draw(st.lists(st.integers(0, F.q - 1), min_size=1, max_size=3)) + [1])
        f = f * g ** data.draw(st.sampled_from([1, 2, 3, 4, 5, 6, 10]), label="e")
    assert _is_pth_power_up_to_unit(f, p) == all(m % p == 0 for _, m in factorize(f))


# -- valuation sums ------------------------------------------------------------------------


def test_valuation_sum_trivial_when_coprime():
    m = CubicModel(pp("x"), pp("x^3 + x + 1"))
    ok, msg = verify_valuation_sum(m, pp("x + 2"))
    assert ok, msg


def test_valuation_sum_at_ramified_places():
    m = pure_cubic(pp("x^2 + x"))
    for Ptxt in ("x", "x + 1", "x + 3"):
        ok, msg = verify_valuation_sum(m, pp(Ptxt))
        assert ok, (Ptxt, msg)


def test_valuation_sum_random_models():
    rng = random.Random(71)
    count = 0
    while count < 10:
        A = FqPoly(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 3))])
        B = FqPoly(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 5))])
        try:
            m = CubicModel(A, B)
        except Exception:
            continue
        count += 1
        for d in (1, 2):
            for P in monic_irreducibles(F7, d):
                if (m.B % P).is_zero():
                    ok, msg = verify_valuation_sum(m, P)
                    assert ok, (m, P, msg)


def test_char2_class_number_pipeline():
    # purely cubic fields in characteristic 2 are everywhere tame, so the
    # full genus/estimate/oracle chain applies; Cor 4.2-style divisibility too
    F2 = GF(2)
    B = parse_poly(F2, "x^2 + x")
    m = CubicModel(FqPoly.zero(F2), -B)
    g = genus(m).genus
    assert g == 1
    o = exact_h(m)
    assert o.h == 3 and o.h % 3 == 0
    zd = ZetaData(m)
    for lam in (1, 2, 3):
        lo, hi = estimate_h(m, lam, zeta=zd, genus_value=g).interval
        assert lo <= o.h <= hi
    assert any(c.modulus == 3 for c in divisibility_certificates(m))
    # extension base field F_4 = 1 mod 3 splits more: h = 9
    F4 = GF(2, 2)
    m4 = CubicModel(FqPoly.zero(F4), -parse_poly(F4, "x^2 + x"))
    assert exact_h(m4).h == 9


def test_valuation_sum_infinite():
    m = CubicModel(pp("x"), pp("x^3 + x + 1"))
    ok, msg = verify_valuation_sum_infinite(m)
    assert ok, msg
