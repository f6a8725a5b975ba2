"""Exact arithmetic invariants of cubic and quartic function fields over F_q(x).

Place signatures, discriminants, genus, integral bases, fundamental units
and divisor class numbers (estimated with a proven interval, and exact at
desk scale through the L-polynomial), all in exact arithmetic.
"""

from .fq import FqField, GF, parse_field
from .poly import (
    FqPoly,
    Factorization,
    FuncFieldError,
    HypothesisRefused,
    InternalFault,
    UnknownSignature,
    NEG_DEG,
    crt,
    count_monic_irreducibles_necklace,
    count_roots_in_extension,
    factorize,
    is_irreducible,
    is_squarefree,
    monic_irreducibles,
    parse_poly,
    poly_divrem,
    poly_gcd,
    residue_power_test,
)
from .places import FinitePlace, InfinitePlace
from .models import (
    CubicModel,
    OrderElement,
    QuarticModel,
    RationalFunction,
    cubic_disc,
    cubic_standard_form,
    is_integral,
    minimal_polynomial,
    minimal_polynomial_fq,
    model_from_text,
    norm,
    norm_cubic,
    pole_divisor_degree,
    quartic_disc,
    quartic_standard_form,
    trace,
)
from .signature import (
    Signature,
    SignatureResult,
    element_valuations,
    infinite_signature,
    kummer_signature,
    newton_slopes,
    signature_at,
)
from .invariants import (
    DiscriminantReport,
    GenusReport,
    disc_valuation_cubic,
    disc_valuation_quartic,
    field_discriminant,
    genus,
    unit_rank,
)
from .integral_basis import (
    IntegralBasis,
    integral_basis_cubic,
    integral_basis_quartic,
    verify_basis,
)
from .units import (
    MaxValue,
    UnitCertificate,
    construct_rank1,
    construct_rank2,
    is_unit,
    max_value,
    regulator,
)
from .class_number import (
    DivisibilityCertificate,
    ExactClassNumber,
    HEstimate,
    LPolynomial,
    ZetaData,
    ZetaFactorTuple,
    divisibility_certificates,
    eq_310_sides,
    estimate_h,
    exact_h,
    h_prime,
    search_h_divisor,
    verify_valuation_sum,
    verify_valuation_sum_infinite,
    zeta_tuple_for_signature,
)

__version__ = "0.1.0"
