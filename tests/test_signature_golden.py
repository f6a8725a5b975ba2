"""Pinned signature records of cubics in characteristic 2 and 3.

For each model below, SignatureResult.to_json() (pairs, method and the
derivation trace, or the Unknown reason and its trace) at infinity and at
every place of degree <= 2 must equal the recorded file byte for byte.
The models cover Char2Iteration and Char3Iteration resolutions and the
char-2 iteration caps, so a change to either iteration step that alters a
signature, a method label, an Unknown reason or a trace line fails here.

Regenerate the file (only when a change of output is intended) with
    PYTHONPATH=src python tests/test_signature_golden.py
"""

import json
from pathlib import Path

from funcfields.fq import GF
from funcfields.models import CubicModel
from funcfields.places import FinitePlace, InfinitePlace
from funcfields.poly import monic_irreducibles, parse_poly
from funcfields.signature import signature_at

GOLDEN = Path(__file__).resolve().parent / "data" / "signatures_char2_char3.json"

# ((p, k), A, B) of y^3 - A y + B over GF(p^k)
MODELS = [
    ((2, 1), "x^2 + x", "1"),
    ((2, 1), "x^2 + x + 1", "x^2"),
    ((2, 1), "x", "x^5 + 1"),
    ((2, 1), "x^2 + x + 1", "x^4 + x^3"),
    ((2, 2), "x^2 + 3", "x^2 + 1"),
    ((2, 2), "3*x + 2", "2*x^3 + 2*x^2 + x + 1"),
    ((2, 3), "6*x + 6", "5*x^2 + 4*x + 1"),
    ((3, 1), "x^3 + 2", "2"),
    ((3, 1), "x", "x^3 + 2*x + 1"),
    ((3, 2), "5*x^2 + 3*x + 6", "4"),
    ((3, 2), "4*x", "8*x^4 + 3*x^3 + 7*x^2 + x + 3"),
]


def records():
    out = []
    for (p, k), a, b in MODELS:
        F = GF(p, k)
        model = CubicModel(parse_poly(F, a), parse_poly(F, b))
        places = [InfinitePlace(F)] + [FinitePlace(P) for d in (1, 2) for P in monic_irreducibles(F, d)]
        out.append({
            "q": F.describe(),
            "A": a,
            "B": b,
            "places": [[pl.describe(), signature_at(model, pl).to_json()] for pl in places],
        })
    return out


def dump(recs):
    return json.dumps(recs, indent=1, sort_keys=True) + "\n"


def test_golden_file_covers_both_iterations_and_an_unknown():
    results = [r for rec in json.loads(GOLDEN.read_text()) for _, r in rec["places"]]
    methods = {r.get("method") for r in results}
    assert {"Char2Iteration", "Char3Iteration"} <= methods
    assert {r["unknown"] for r in results if "unknown" in r} == {
        "char2-iteration-cap", "char2-iteration-degree-cap"}


def test_signatures_match_recorded_output():
    assert dump(records()) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(dump(records()))
