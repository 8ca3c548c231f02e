"""Powers of 1 + x inside the one-units of F_p[[x]].

The package turns one question into executable checks: which truncated
series with constant term 1 arise as (1+x)^y for a p-adic integer y,
how to read y back off the coefficients, and how the rationality of the
series reflects the integrality of y.
"""

from .errors import (
    DenominatorNotCoprime,
    DivisionByZero,
    InconsistentReport,
    ModulusMismatch,
    NonUnitConstantTerm,
    NonUnitExponent,
    NonzeroConstantInner,
    NotAnEndomorphism,
    NotAPthPower,
    OneUnitsError,
    PrecisionExhausted,
    ShapeMismatch,
    TooLargeToEnumerate,
    WindowTooSmall,
)
from .fp import FpElement, Prime, binom_digit, lucas_binom
from .padic import IntegerVerdict, PadicApprox
from .periodic import PeriodReport, find_period
from .ratfn import RationalFn, from_period
from .series import TruncSeries
from .units import (
    BoxVerdict,
    EndoVerdict,
    OneUnit,
    RationalityReport,
    coeffs_to_rational,
    compose_unit,
    detect_coeff_period,
    digits_for_precision,
    enumerate_endomorphisms,
    hasse_identity_check,
    invert_automorphism,
    is_automorphism,
    is_endomorphism_bivariate,
    is_endomorphism_via_theorem,
    pow_binomial,
    pow_product,
    rationality_report,
    recover_exponent,
)

__version__ = "0.1.0"

__all__ = [
    "BoxVerdict",
    "DenominatorNotCoprime",
    "DivisionByZero",
    "EndoVerdict",
    "FpElement",
    "InconsistentReport",
    "IntegerVerdict",
    "ModulusMismatch",
    "NonUnitConstantTerm",
    "NonUnitExponent",
    "NonzeroConstantInner",
    "NotAnEndomorphism",
    "NotAPthPower",
    "OneUnit",
    "OneUnitsError",
    "PadicApprox",
    "PeriodReport",
    "PrecisionExhausted",
    "Prime",
    "RationalFn",
    "RationalityReport",
    "ShapeMismatch",
    "TooLargeToEnumerate",
    "TruncSeries",
    "WindowTooSmall",
    "binom_digit",
    "coeffs_to_rational",
    "compose_unit",
    "detect_coeff_period",
    "digits_for_precision",
    "enumerate_endomorphisms",
    "find_period",
    "from_period",
    "hasse_identity_check",
    "invert_automorphism",
    "is_automorphism",
    "is_endomorphism_bivariate",
    "is_endomorphism_via_theorem",
    "lucas_binom",
    "pow_binomial",
    "pow_product",
    "rationality_report",
    "recover_exponent",
    "__version__",
]
