"""The package surface: what ``import oneunits`` exports."""

from types import ModuleType

import oneunits

SURFACE = [
    "BoxVerdict", "DenominatorNotCoprime", "EndoVerdict", "InconsistentReport",
    "IntegerVerdict", "ModulusMismatch", "NonUnitConstantTerm",
    "NonUnitExponent", "NonzeroConstantInner", "NotAnEndomorphism", "OneUnit",
    "OneUnitsError", "PadicApprox", "PeriodReport", "PrecisionExhausted",
    "Prime", "RationalFn", "RationalityReport", "ShapeMismatch",
    "TooLargeToEnumerate", "TruncSeries", "WindowTooSmall", "__version__",
    "coeffs_to_rational", "compose_unit", "detect_coeff_period",
    "digits_for_precision", "enumerate_endomorphisms", "find_period",
    "from_period", "hasse_identity_check", "invert_automorphism",
    "is_automorphism", "is_endomorphism_bivariate",
    "is_endomorphism_via_theorem", "pow_binomial", "pow_product",
    "rationality_report", "recover_exponent",
]


def test_package_exports_exactly_its_surface():
    assert sorted(oneunits.__all__) == SURFACE
    public = {name for name in dir(oneunits) if not name.startswith("_")
              and not isinstance(getattr(oneunits, name), ModuleType)}
    assert public == set(SURFACE) - {"__version__"}
    assert all(getattr(oneunits, name) is not None for name in SURFACE)


def test_from_pade_stays_in_ratfn():
    from oneunits.ratfn import from_pade
    assert callable(from_pade)
    assert not hasattr(oneunits, "from_pade")
    assert "from_pade" not in oneunits.ratfn.__all__
