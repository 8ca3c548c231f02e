"""p-adic integers at finite precision.

A :class:`PadicApprox` is a little-endian digit vector (d_0, ..., d_(K-1))
with digits in [0, p), representing a residue mod p^K.  Negative integers
and fractions with denominator coprime to p embed by complement: -1 is the
all-(p-1) vector.  Binary operations meet at the smaller precision of the
two operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DenominatorNotCoprime,
    InconsistentReport,
    ModulusMismatch,
    NonUnitExponent,
    PrecisionExhausted,
    WindowTooSmall,
)
from .fp import Prime, _integers, _parse_fields
from .periodic import PeriodReport, find_period

__all__ = ["PadicApprox", "IntegerVerdict"]


def _from_digits(digits, p: int) -> int:
    """sum d_i p^i over little-endian base-p digits d_0, d_1, ..."""
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


@dataclass(frozen=True)
class IntegerVerdict:
    """What a digit window says about integrality.

    kind is one of "nonneg-integer", "negative-integer",
    "not-integer-in-window"; value carries the integer when one was read
    off.  A verdict is only as strong as the window that produced it.
    """

    kind: str
    value: int | None = None

    @property
    def is_integer(self) -> bool:
        return self.kind != "not-integer-in-window"


@dataclass(frozen=True)
class PadicApprox:
    """A residue mod p^K stored as K base-p digits, least significant first."""

    modulus: Prime
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.digits) < 1:
            raise ValueError("at least one digit is required")
        p = self.modulus.p
        clean = tuple(_integers(self.digits, "digits"))
        for d in clean:
            if not 0 <= d < p:
                raise ValueError(f"digit {d} out of range for p={p}")
        object.__setattr__(self, "digits", clean)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_value(cls, modulus: Prime, value: int, precision: int) -> "PadicApprox":
        """Digits of value mod p^precision (negatives wrap by complement)."""
        if precision < 1:
            raise ValueError("precision must be at least 1")
        p = modulus.p
        v = value % p**precision
        out = []
        for _ in range(precision):
            v, d = divmod(v, p)
            out.append(d)
        return cls(modulus, tuple(out))

    @classmethod
    def from_integer(cls, modulus: Prime, y: int, precision: int) -> "PadicApprox":
        return cls.from_value(modulus, y, precision)

    @classmethod
    def from_fraction(cls, modulus: Prime, value, precision: int) -> "PadicApprox":
        """Embed a rational with denominator coprime to p."""
        frac = Fraction(value)
        if frac.denominator % modulus.p == 0:
            raise DenominatorNotCoprime(
                f"denominator {frac.denominator} is divisible by p={modulus.p}")
        if precision < 1:
            raise ValueError("precision must be at least 1")
        mod = modulus.p**precision
        residue = frac.numerator * pow(frac.denominator, -1, mod) % mod
        return cls.from_value(modulus, residue, precision)

    # -- structure ---------------------------------------------------------

    @property
    def precision(self) -> int:
        return len(self.digits)

    @property
    def value(self) -> int:
        """The canonical residue in [0, p^K)."""
        return _from_digits(self.digits, self.modulus.p)

    def truncate(self, precision: int) -> "PadicApprox":
        if not 1 <= precision <= self.precision:
            raise PrecisionExhausted(
                f"cannot truncate {self.precision} digits to {precision}")
        return PadicApprox(self.modulus, self.digits[:precision])

    def __repr__(self) -> str:
        return f"<PadicApprox {self.serialize()}>"

    # -- arithmetic (min-precision semantics) --------------------------------

    def _meet(self, other: "PadicApprox") -> int:
        if self.modulus != other.modulus:
            raise ModulusMismatch(
                f"p={self.modulus.p} vs p={other.modulus.p}")
        return min(self.precision, other.precision)

    def __add__(self, other: "PadicApprox") -> "PadicApprox":
        k = self._meet(other)
        return PadicApprox.from_value(self.modulus, self.value + other.value, k)

    def __sub__(self, other: "PadicApprox") -> "PadicApprox":
        k = self._meet(other)
        return PadicApprox.from_value(self.modulus, self.value - other.value, k)

    def __mul__(self, other: "PadicApprox") -> "PadicApprox":
        k = self._meet(other)
        return PadicApprox.from_value(self.modulus, self.value * other.value, k)

    def __neg__(self) -> "PadicApprox":
        return PadicApprox.from_value(self.modulus, -self.value, self.precision)

    def unit_inverse(self) -> "PadicApprox":
        """The inverse mod p^K; the first digit must be nonzero."""
        if self.digits[0] == 0:
            raise NonUnitExponent("first digit is 0, not a unit mod p^K")
        mod = self.modulus.p**self.precision
        return PadicApprox.from_value(
            self.modulus, pow(self.value, -1, mod), self.precision)

    # -- window decisions ------------------------------------------------------

    def is_integer_window(self) -> IntegerVerdict:
        """Read integrality off a constant digit tail.

        The tail must be all 0 (nonnegative) or all p-1 (negative) and
        occupy at least the last two digits; anything else is inconclusive
        at this window.
        """
        k = self.precision
        if k < 2:
            raise WindowTooSmall("need at least 2 digits to judge a tail")
        tail = self.digits[-1]
        if tail != 0 and tail != self.modulus.p - 1:
            return IntegerVerdict("not-integer-in-window")
        start = k
        while start > 0 and self.digits[start - 1] == tail:
            start -= 1
        if k - start < 2:
            return IntegerVerdict("not-integer-in-window")
        if tail == 0:
            return IntegerVerdict("nonneg-integer",
                                  _from_digits(self.digits[:start], self.modulus.p))
        return IntegerVerdict("negative-integer", self.value - self.modulus.p**k)

    def detect_digit_period(self, max_preperiod: int, max_period: int) -> PeriodReport | None:
        """Minimal in-window period of the digit stream (see find_period)."""
        return find_period(self.digits, max_preperiod, max_period)

    def reconstruct_rational(self, report: PeriodReport) -> Fraction:
        """The rational whose digits repeat as reported.

        head + p^w * rep / (1 - p^r), reduced.  The result is re-expanded
        and checked against every digit in the window; a report that does
        not reproduce them raises InconsistentReport.
        """
        w, r = report.preperiod, report.period
        if w + r > self.precision:
            raise InconsistentReport(
                f"report ({w}, {r}) spans beyond {self.precision} digits")
        p = self.modulus.p
        head = _from_digits(self.digits[:w], p)
        rep = _from_digits(self.digits[w:w + r], p)
        total = Fraction(head) + Fraction(p**w) * Fraction(rep, 1 - p**r)
        if PadicApprox.from_fraction(self.modulus, total, self.precision) != self:
            raise InconsistentReport(
                f"report ({w}, {r}) does not reproduce the digit window")
        return total

    # -- text form ---------------------------------------------------------

    def serialize(self) -> str:
        body = ",".join(str(d) for d in self.digits)
        return f"p={self.modulus.p};K={self.precision};digits={body}"

    @classmethod
    def parse(cls, text: str) -> "PadicApprox":
        modulus, k, body = _parse_fields(text, "K", "digits")
        precision, digits = int(k), tuple(int(tok) for tok in body.split(","))
        if len(digits) != precision:
            raise ValueError(f"K={precision} but {len(digits)} digits given")
        return cls(modulus, digits)
