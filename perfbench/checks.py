"""Oracle checks and canonical results, written apart from the timed path.

Each check returns a list of failure messages (empty when the op is
right).  The canonical result of an op is a JSON value with sorted keys;
its SHA-256 is the digest stored in ``digests.json`` for the default seed.
"""

import hashlib
import json

import funcfields as ff
from funcfields import signature as sigmod

# derivation-log openings of the cubic cases whose signature comes from a
# table and not from kummer_signature (funcfields.signature.signature_cubic)
TABLE_CASES = ("3u1<2u0, u1 even: reduction", "3u1>2u0, 3|u0: reduction")


def digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def undecided_result(exc):
    if isinstance(exc, ff.HypothesisRefused):
        return {"refused": exc.hypothesis}
    return {"unknown": exc.reason}


def _flat(res):
    return None if res.signature is None else list(res.signature.flat())


def _sign_a_plus_b_sqrt(a, b, q):
    """Sign of a + b sqrt(q) for integers a, b (q not necessarily a square)."""
    if a >= 0 and b >= 0:
        return 1 if (a or b) else 0
    if a <= 0 and b <= 0:
        return -1
    lhs, rhs = a * a, b * b * q
    if a > 0:
        return 1 if lhs > rhs else (0 if lhs == rhs else -1)
    return -1 if lhs > rhs else (0 if lhs == rhs else 1)


def _power_sqrt(c, g, q):
    """(sqrt(q) + c)^(2g) as (a, b) with value a + b sqrt(q), c = +1 or -1."""
    a, b = 1, 0
    for _ in range(2 * g):
        a, b = a * c + b * q, a + b * c
    return a, b


def check_lpoly(q, g, coeffs, h):
    out = []
    if len(coeffs) != 2 * g + 1 or coeffs[0] != 1:
        return ["L has %d coefficients, leading %r" % (len(coeffs), coeffs[:1])]
    if sum(coeffs) != h:
        out.append("h = %d but L(1) = %d" % (h, sum(coeffs)))
    for i in range(g + 1):
        if coeffs[2 * g - i] != q ** (g - i) * coeffs[i]:
            out.append("functional equation fails at i = %d" % i)
            break
    lo, hi = _power_sqrt(-1, g, q), _power_sqrt(1, g, q)
    if _sign_a_plus_b_sqrt(h - lo[0], -lo[1], q) < 0 or _sign_a_plus_b_sqrt(hi[0] - h, hi[1], q) < 0:
        out.append("h = %d outside the Hasse-Weil range" % h)
    return out


def check_kummer(rows, n):
    """Re-derive every table-decided Kummer signature from its reduction.

    Most Kummer-method places got their signature from kummer_signature on
    the same reduction, so re-running it there proves nothing.  The cubic
    cases 3u1 != 2u0 read theirs off a table (whether Abar is a square,
    whether -Bbar is a cube); their derivation log names the reduction.
    """
    out = []
    for res in rows:
        if res.method != "Kummer" or res.kummer_reduction is None:
            continue
        if not any(line.startswith(TABLE_CASES) for line in res.trace):
            continue
        K, red = res.kummer_reduction
        again = sigmod.kummer_signature(red, K, n)
        if again != res.signature:
            out.append("Kummer re-derivation %s != %s at %s" % (again, res.signature, res.place.describe()))
    return out


def zeta_check(key, q, g, zeta, exact, ests, sides):
    """(canonical result, failures) of one zeta op."""
    rows = [res for d in range(1, g + 1) for _, res in zeta.finite(d)]
    result = {
        "genus": g,
        "h": exact.h,
        "L": list(exact.L.coeffs),
        "estimates": [[e.lam, e.E, e.L] for e in ests],
        "eq310": [list(s) for s in sides],
        "infinite": _flat(zeta.infinite),
        "finite": [[list(P.coeffs), _flat(res)] for d in range(1, g + 1) for P, res in zeta.finite(d)],
    }
    fails = check_lpoly(q, g, result["L"], exact.h)
    for e in ests:
        if not e.E - e.L ** 2 <= exact.h <= e.E + e.L ** 2:
            fails.append("h = %d outside [E - L^2, E + L^2] at lambda = %d" % (exact.h, e.lam))
    for n, (lhs, rhs) in enumerate(sides, 1):
        if lhs != rhs:
            fails.append("eq. (3.10) fails at n = %d: %d != %d" % (n, lhs, rhs))
    fails += check_kummer(rows, exact.model.degree)
    return result, fails


def _val(f, P):
    v = 0
    while True:
        quo, rem = f.divmod(P)
        if not rem.is_zero():
            return v
        v += 1
        f = quo


def ledger_check(key, report, g, rank, basis, diag):
    D, I, Delta = report.D, report.index, report.Delta
    result = {
        "D": list(D.coeffs),
        "Delta": list(Delta.coeffs),
        "index": list(I.coeffs),
        "unit": report.unit,
        "rows": [[list(r.P.coeffs), r.vD, r.vI, r.vDelta, _flat(r.signature)] for r in report.rows],
        "genus": g,
        "unit_rank": rank,
        "basis": basis.to_json(),
    }
    fails = []
    if D.degree != 2 * I.degree + Delta.degree:
        fails.append("deg D != 2 deg I + deg Delta")
    if D != (I * I * Delta).scale(report.unit):
        fails.append("D != unit * I^2 * Delta")
    for r in report.rows:
        got = (_val(D, r.P), _val(I, r.P), _val(Delta, r.P))
        if got != (r.vD, r.vI, r.vDelta) or r.vD != 2 * r.vI + r.vDelta:
            fails.append("ledger row at %s reads %s, valuations are %s" % (r.P, (r.vD, r.vI, r.vDelta), got))
    if not diag:
        fails.append("verify_basis failed: %s" % (diag,))
    rows = [r.signature for r in report.rows if r.signature is not None]
    fails += check_kummer(rows, basis.model.degree)
    return result, fails


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

DOCUMENTED_EXITS = (0, 3, 4)


def cli_check(argv, expect, rc, stdout, stderr):
    """Failures of one invocation; every invocation in the list is valid input."""
    fails = []
    if rc not in DOCUMENTED_EXITS:
        fails.append("exit %d: %s" % (rc, stderr.strip().splitlines()[-1:] or ""))
    if "Traceback" in stderr:
        fails.append("traceback on stderr")
    payload = None
    if stdout.strip():
        try:
            payload = json.loads(stdout)
        except ValueError:
            fails.append("stdout is not JSON")
    if rc == 0 and argv[0] == "hexact" and payload is not None:
        q = _cli_q(argv)
        g = (len(payload["L_coeffs"]) - 1) // 2
        fails += check_lpoly(q, g, payload["L_coeffs"], payload["h"])
    if expect is not None:
        want = int(expect.split("=")[1])
        if rc != 0 or payload is None or payload.get("h") != want:
            fails.append("expected %s" % expect)
    return fails


def _cli_q(argv):
    q = argv[argv.index("--q") + 1]
    p, _, k = q.partition("^")
    return int(p) ** int(k or 1)
