"""The package surface: what ``import oneunits`` exports."""

from types import ModuleType

import pytest

import oneunits
from oneunits import PadicApprox, Prime, RationalFn, TruncSeries

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


P5 = Prime(5)


@pytest.mark.parametrize("build, text", [
    (lambda: TruncSeries(P5, [1, 2.7]), "residues"),
    (lambda: TruncSeries(P5, ["3", "1"]), "residues"),
    (lambda: TruncSeries(P5, 3), "1-d"),
    (lambda: PadicApprox(P5, (1.9, 2)), "integers"),
    (lambda: PadicApprox(P5, "12"), "integers"),
    (lambda: RationalFn(P5, (1.5,), (1,)), "integers"),
    (lambda: RationalFn(P5, (1,), (1, "2")), "integers"),
], ids=["float-coeff", "str-coeffs", "0-d-coeffs", "float-digit",
        "str-digits", "float-numerator", "str-denominator"])
def test_constructors_refuse_non_integers(build, text):
    """A float, a string or a scalar is refused with ValueError, as Prime
    refuses a non-integer modulus, instead of being truncated or parsed."""
    with pytest.raises(ValueError, match=text):
        build()
