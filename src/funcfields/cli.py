"""Command line front end.

Subcommands: analyze, places, basis, units, hbound, hexact, certify,
search-divisor.  Exit codes: 0 success, 2 usage error, 3 hypothesis
refusal, 4 unknown-signature blockage, 5 internal fault (a bug).  All
output is deterministic; --format json emits the documented schemas with
sorted keys.
"""

import argparse
import json
import sys

from .fq import parse_field
from .poly import (
    FuncFieldError,
    FqPoly,
    HypothesisRefused,
    InternalFault,
    UnknownSignature,
    monic_irreducibles,
    parse_poly,
)
from .places import FinitePlace
from .models import CubicModel, QuarticModel, model_from_text
from .signature import infinite_signature, signature_at
from .invariants import field_discriminant, genus, unit_rank
from .integral_basis import integral_basis_cubic, integral_basis_quartic, verify_basis
from .units import construct_rank1, construct_rank2
from .class_number import (
    divisibility_certificates,
    estimate_h,
    exact_h,
    search_h_divisor,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REFUSED = 3
EXIT_UNKNOWN = 4
EXIT_FAULT = 5


def _model_from_args(args):
    if getattr(args, "model_file", None):
        with open(args.model_file) as fh:
            return model_from_text(fh.read().strip())
    F = _field_from_args(args)
    if getattr(args, "pure_B", None):
        B = parse_poly(F, args.pure_B)
        return CubicModel(FqPoly.zero(F), -B)
    if args.cubic:
        return CubicModel(parse_poly(F, args.A), parse_poly(F, args.B))
    if args.quartic:
        return QuarticModel(parse_poly(F, args.A), parse_poly(F, args.B), parse_poly(F, args.C))
    raise SystemExit2("one of --cubic, --quartic, --pure-B is required")


class SystemExit2(Exception):
    pass


def _field_from_args(args):
    if args.q is None:
        raise SystemExit2("--q is required")
    return parse_field(args.q)


def _emit(args, payload, table_lines):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


def _add_field_flags(p):
    p.add_argument("--q", help="field size: p, p^k or the prime power q (4 = 2^2)")
    p.add_argument("--A", default="0")
    p.add_argument("--format", choices=("table", "json"), default="table")


def _add_model_flags(p):
    p.add_argument("--cubic", action="store_true", help="cubic model y^3 - A y + B = 0")
    p.add_argument("--quartic", action="store_true", help="quartic model y^4 - A y^2 - B y + C = 0")
    p.add_argument("--pure-B", dest="pure_B", help="purely cubic model y^3 = B(x)")
    _add_field_flags(p)
    p.add_argument("--B", default="0")
    p.add_argument("--C", default="0")
    p.add_argument("--model-file", help="file containing the model text form")


def build_parser():
    ap = argparse.ArgumentParser(prog="funcfields", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    for name in ("analyze", "places", "basis", "hbound", "hexact", "certify", "search-divisor"):
        p = sub.add_parser(name)
        _add_model_flags(p)
        if name == "places":
            p.add_argument("--max-deg", type=int, default=2)
        if name == "hbound":
            p.add_argument("--lambda", dest="lam", type=int, default=2)
        if name == "hexact":
            p.add_argument("--max-genus", type=int, default=8)
        if name == "search-divisor":
            p.add_argument("--p", type=int, required=True)
            p.add_argument("--budget", type=int, default=1, help="max coordinate degree")

    pu = sub.add_parser("units")
    _add_field_flags(pu)
    pu.add_argument("--construct", choices=("thm245", "thm246", "thm247"), required=True)
    pu.add_argument("--a", default="0", help="parameter a for the rank-1 constructions")
    pu.add_argument("--kappa", type=int, default=1)
    return ap


def cmd_analyze(args):
    model = _model_from_args(args)
    inf = infinite_signature(model)
    report = field_discriminant(model)
    payload = {
        "model": model.to_json(),
        "infinite_signature": inf.to_json(),
        "discriminant": report.to_json(),
    }
    lines = [
        "model: %s" % model.text_form(),
        "infinite signature: %s" % (inf.signature if inf.known else "unknown (%s)" % inf.unknown_reason),
        "D = %s" % report.D,
        "Delta = %s" % report.Delta,
        "index = %s" % report.index,
    ]
    if report.complete and inf.known:
        g = genus(model, report, inf)
        r = unit_rank(model, inf)
        payload["genus"] = g.to_json()
        payload["unit_rank"] = r
        lines.append("genus = %d (delta_inf = %d)" % (g.genus, g.delta_infinity))
        lines.append("unit rank = %d" % r)
    _emit(args, payload, lines)
    if not report.complete or not inf.known:
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_places(args):
    model = _model_from_args(args)
    rows = []
    lines = []
    blocked = False
    inf = infinite_signature(model)
    rows.append({"place": "infinity", "result": inf.to_json()})
    lines.append("infinity: %s" % (inf.signature if inf.known else "unknown"))
    for d in range(1, args.max_deg + 1):
        for P in monic_irreducibles(model.field, d):
            res = signature_at(model, FinitePlace(P))
            rows.append({"place": str(P), "result": res.to_json()})
            lines.append("%s: %s" % (P, res.signature if res.known else "unknown (%s)" % res.unknown_reason))
            blocked = blocked or not res.known
    _emit(args, {"places": rows}, lines)
    return EXIT_UNKNOWN if (blocked or not inf.known) else EXIT_OK


def cmd_basis(args):
    model = _model_from_args(args)
    report = field_discriminant(model)
    basis = (
        integral_basis_cubic(model, report)
        if model.degree == 3
        else integral_basis_quartic(model, report)
    )
    diag = verify_basis(basis, model, report)
    payload = {"basis": basis.to_json(), "verified": bool(diag)}
    lines = ["element %d: %r" % (i, e) for i, e in enumerate(basis.elements)]
    lines.append("verified: %s" % bool(diag))
    _emit(args, payload, lines)
    return EXIT_OK if diag else EXIT_REFUSED


def cmd_units(args):
    F = _field_from_args(args)
    if args.construct == "thm247":
        A = parse_poly(F, args.A)
        model, cert = construct_rank2(F, A)
    else:
        A = parse_poly(F, args.A)
        a = parse_poly(F, args.a)
        variant = "Thm245" if args.construct == "thm245" else "Thm246"
        model, cert = construct_rank1(F, A, a, F.from_int(args.kappa), variant)
    payload = {"model": model.to_json(), "certificate": cert.to_json()}
    lines = [
        "model: %s" % model.text_form(),
        "construction: %s" % cert.construction,
        "rank: %d" % cert.rank,
        "R = %s, R_S = %s" % (cert.regulator_R, cert.regulator_RSq),
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_hbound(args):
    model = _model_from_args(args)
    est = estimate_h(model, args.lam)
    payload = est.to_json()
    lo, hi = est.interval
    lines = [
        "lambda = %d" % est.lam,
        "E = %d, L = %d" % (est.E, est.L),
        "interval = [%d, %d]" % (lo, hi),
        "Psi = %.6g" % est.Psi,
        "genus = %d" % est.genus,
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_hexact(args):
    model = _model_from_args(args)
    oracle = exact_h(model, max_genus=args.max_genus)
    payload = oracle.to_json()
    lines = [
        "h = %d" % oracle.h,
        "L coefficients = %s" % (oracle.L.coeffs,),
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_certify(args):
    model = _model_from_args(args)
    certs = divisibility_certificates(model)
    payload = {"certificates": [c.to_json() for c in certs]}
    lines = ["%s: %d | h" % (c.rule, c.modulus) for c in certs] or ["no certificate applies"]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_search_divisor(args):
    model = _model_from_args(args)
    witness = search_h_divisor(model, args.p, max_coord_degree=args.budget)
    if witness is None:
        _emit(args, {"found": False}, ["no witness within budget"])
        return EXIT_OK
    _emit(args, {"found": True, "witness": witness.to_json()},
          ["witness: %r" % witness.element, "norm: %s" % witness.norm])
    return EXIT_OK


_HANDLERS = {
    "analyze": cmd_analyze,
    "places": cmd_places,
    "basis": cmd_basis,
    "units": cmd_units,
    "hbound": cmd_hbound,
    "hexact": cmd_hexact,
    "certify": cmd_certify,
    "search-divisor": cmd_search_divisor,
}


def run(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except (SystemExit2, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except HypothesisRefused as exc:
        print("hypothesis refused: %s" % exc, file=sys.stderr)
        return EXIT_REFUSED
    except UnknownSignature as exc:
        print("unknown signature: %s" % exc, file=sys.stderr)
        return EXIT_UNKNOWN
    except InternalFault as exc:
        print("internal fault: %s" % exc, file=sys.stderr)
        return EXIT_FAULT
    except FuncFieldError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
