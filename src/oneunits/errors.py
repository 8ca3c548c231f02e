"""Domain exceptions shared by every module in the package."""

__all__ = [
    "OneUnitsError",
    "ModulusMismatch",
    "ShapeMismatch",
    "NonUnitConstantTerm",
    "PrecisionExhausted",
    "NonzeroConstantInner",
    "DenominatorNotCoprime",
    "NonUnitExponent",
    "WindowTooSmall",
    "InconsistentReport",
    "NotAnEndomorphism",
    "TooLargeToEnumerate",
]


class OneUnitsError(Exception):
    """Base class for every arithmetic and decision-procedure error."""


class ModulusMismatch(OneUnitsError):
    """Operands were built over different prime moduli."""


class ShapeMismatch(OneUnitsError):
    """Operands carry different truncation precisions."""


class NonUnitConstantTerm(OneUnitsError):
    """Series inversion needs a nonzero constant term."""


class PrecisionExhausted(OneUnitsError):
    """The operation needs more digits or coefficients than the operand carries."""


class NonzeroConstantInner(OneUnitsError):
    """Series composition needs an inner series with zero constant term."""


class DenominatorNotCoprime(OneUnitsError):
    """The denominator shares a factor with the prime modulus."""


class NonUnitExponent(OneUnitsError):
    """Inversion mod p^K needs a unit, i.e. a nonzero first digit."""


class WindowTooSmall(OneUnitsError):
    """The window cannot certify what it is asked for.

    A period scan needs the preperiod plus two full periods; a fraction
    needs the preperiod plus twice the degree of its denominator.
    """


class InconsistentReport(OneUnitsError):
    """A periodicity report does not reproduce the sequence it claims to describe."""


class NotAnEndomorphism(OneUnitsError):
    """A one-unit is no power of 1+x.

    ``stage`` is the least v_p(n), n >= 1, with u (1+x)^(-y) nonzero at x^n,
    y read off u: the round at which the staged p-th-root descent rejects u,
    and the number of orders p^0, p^1, ... at which the Hasse identity holds.
    """

    def __init__(self, stage: int):
        self.stage = stage
        super().__init__(f"not an endomorphism (stage {stage})")


class TooLargeToEnumerate(OneUnitsError):
    """The exhaustive scan would exceed the enumeration guard."""
