"""Signatures in quartic function fields, including the undecided cases.

Quartic splitting at a place follows an eleven-row case table driven by
coefficient valuations and residue tests; biquadratic models (B = 0) go
through a complete two-step analysis via their quadratic subfield.  A few
configurations are genuinely undecidable by the published tables; those
come back as first-class Unknown results carrying the reason.
"""

from funcfields import (
    GF,
    FinitePlace,
    QuarticModel,
    FqPoly,
    infinite_signature,
    monic_irreducibles,
    parse_poly,
    signature_at,
)

F = GF(7)
pp = lambda s: parse_poly(F, s)

print("totally ramified infinity: y^4 - x y^2 - x y + x^3")
m = QuarticModel(pp("x"), pp("x"), pp("x^3"))
print("   ", infinite_signature(m).signature)

print("\nbiquadratic model y^4 - (x^2+x) y^2 + 3x^6 + x:")
mb = QuarticModel(pp("x^2 + x"), FqPoly.zero(F), pp("3*x^6 + x"))
rb = infinite_signature(mb)
print("   ", rb.signature, "via", rb.method)

print("\nper-place scan of y^4 - x y^2 - y + x^2 (degree <= 2):")
mq = QuarticModel(pp("x"), pp("1"), pp("x^2"))
print("    infinity:", infinite_signature(mq).signature)
for d in (1, 2):
    for P in monic_irreducibles(F, d):
        res = signature_at(mq, FinitePlace(P))
        label = str(res.signature) if res.known else "unknown (%s)" % res.unknown_reason
        if res.known and all(e == 1 for e, _ in res.signature.pairs):
            continue  # print only the interesting places
        print("    %s: %s" % (P, label))

print("\na model with an undecided place (the tables' leftover case):")
mu = QuarticModel(pp("x"), pp("x"), pp("x"))
for d in (1, 2):
    for P in monic_irreducibles(F, d):
        res = signature_at(mu, FinitePlace(P))
        if not res.known:
            print("    %s: unknown, reason = %s" % (P, res.unknown_reason))
