"""Walk through the full analysis of one cubic function field.

The field is F_7(x, y) with y^3 - x^2 y + 1 = 0.  We compute the signature
of the infinite place, the ramified finite places, the field discriminant
with its per-place ledger, the genus, and the unit rank, printing each
quantity as it appears.
"""

from funcfields import (
    GF,
    CubicModel,
    FinitePlace,
    field_discriminant,
    genus,
    infinite_signature,
    parse_poly,
    signature_at,
    unit_rank,
)

F = GF(7)
model = CubicModel(parse_poly(F, "x^2"), parse_poly(F, "1"))
print("model:", model.text_form())

inf = infinite_signature(model)
print("\nsignature at infinity:", inf.signature, "via", inf.method)
for line in inf.trace:
    print("   ", line)

report = field_discriminant(model)
print("\nmodel discriminant D =", report.D)
print("field discriminant Delta =", report.Delta)
print("index ind(y) =", report.index)
print("per-place ledger (P, vD, vI, vDelta, signature):")
for row in report.rows:
    print("   ", row.P, row.vD, row.vI, row.vDelta, row.signature.signature)

g = genus(model, report, inf)
print("\ngenus =", g.genus, " (deg Delta = %d, delta_infinity = %d)" % (g.disc_degree, g.delta_infinity))
print("unit rank =", unit_rank(model, inf))

print("\nsignatures at a few more places:")
for Ptxt in ("x", "x + 1", "x^2 + 1"):
    P = parse_poly(F, Ptxt)
    res = signature_at(model, FinitePlace(P))
    print("   ", Ptxt, "->", res.signature)
