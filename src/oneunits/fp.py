"""Arithmetic in the prime field F_p.

Residues are plain integers in [0, p).  :class:`FpElement` ties a residue to
its (validated) modulus so that mixed-modulus arithmetic fails loudly.  The
binomial helpers work digit-by-digit in base p and never divide by p, which
keeps them valid in characteristic p; one Lucas kernel expands whole runs.
The serialized forms of the package share one field parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import DivisionByZero, ModulusMismatch

__all__ = ["Prime", "FpElement", "binom_digit", "lucas_binom"]


@dataclass(frozen=True)
class Prime:
    """A prime modulus p with 2 <= p <= 2**31, verified by trial division."""

    p: int

    def __post_init__(self) -> None:
        p = self.p
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"modulus must be an integer, got {p!r}")
        if not 2 <= p <= 2**31:
            raise ValueError(f"modulus must lie in [2, 2^31], got {p}")
        if p > 2 and p % 2 == 0:
            raise ValueError(f"{p} is not prime")
        d = 3
        while d <= isqrt(p):
            if p % d == 0:
                raise ValueError(f"{p} is not prime")
            d += 2

    def element(self, value: int) -> "FpElement":
        """Reduce an arbitrary integer into F_p."""
        return FpElement(value % self.p, self)

    def __str__(self) -> str:
        return str(self.p)


@dataclass(frozen=True)
class FpElement:
    """A residue in [0, p) together with its modulus."""

    value: int
    modulus: Prime

    def __post_init__(self) -> None:
        if not isinstance(self.value, int) or isinstance(self.value, bool):
            raise ValueError(f"residue must be an integer, got {self.value!r}")
        if not 0 <= self.value < self.modulus.p:
            raise ValueError(
                f"residue {self.value} out of range for p={self.modulus.p}")

    def _check(self, other: "FpElement") -> None:
        if self.modulus != other.modulus:
            raise ModulusMismatch(
                f"p={self.modulus.p} vs p={other.modulus.p}")

    def __add__(self, other: "FpElement") -> "FpElement":
        self._check(other)
        return FpElement((self.value + other.value) % self.modulus.p, self.modulus)

    def __sub__(self, other: "FpElement") -> "FpElement":
        self._check(other)
        return FpElement((self.value - other.value) % self.modulus.p, self.modulus)

    def __neg__(self) -> "FpElement":
        return FpElement(-self.value % self.modulus.p, self.modulus)

    def __mul__(self, other: "FpElement") -> "FpElement":
        self._check(other)
        return FpElement(self.value * other.value % self.modulus.p, self.modulus)

    def inv(self) -> "FpElement":
        if self.value == 0:
            raise DivisionByZero("0 has no inverse in F_p")
        return FpElement(pow(self.value, -1, self.modulus.p), self.modulus)

    def __pow__(self, exponent: int) -> "FpElement":
        if exponent < 0:
            return self.inv() ** (-exponent)
        return FpElement(pow(self.value, exponent, self.modulus.p), self.modulus)

    def __bool__(self) -> bool:
        return self.value != 0

    def __int__(self) -> int:
        return self.value


def _binom_digit(a: int, b: int, p: int) -> int:
    # single base-p digits, so the multiplicative formula never meets p
    if b > a:
        return 0
    b = min(b, a - b)
    num = den = 1
    for i in range(b):
        num = num * (a - i) % p
        den = den * (i + 1) % p
    return num * pow(den, -1, p) % p


def binom_digit(a: int, b: int, modulus: Prime) -> FpElement:
    """C(a, b) mod p for single base-p digits a and b."""
    p = modulus.p
    if not (0 <= a < p and 0 <= b < p):
        raise ValueError(f"digits must lie in [0, {p}), got a={a}, b={b}")
    return FpElement(_binom_digit(a, b, p), modulus)


def lucas_binom(n: int, k: int, modulus: Prime) -> FpElement:
    """C(n, k) mod p for nonnegative integers, as a base-p digit product."""
    if n < 0 or k < 0:
        raise ValueError("lucas_binom expects nonnegative arguments")
    p = modulus.p
    out = 1
    while (n or k) and out:
        n, nd = divmod(n, p)
        k, kd = divmod(k, p)
        out = out * _binom_digit(nd, kd, p) % p
    return FpElement(out, modulus)


def _pascal_row(a: int, length: int, p: int) -> list[int]:
    """C(a, j) mod p for j < length <= p, a single digit a < p."""
    out = [1] + [0] * (length - 1)
    for j in range(1, min(length, a + 1)):
        out[j] = out[j - 1] * (a - j + 1) * pow(j, -1, p) % p
    return out


def _pascal_column(b: int, length: int, p: int) -> list[int]:
    """C(k, b) mod p for k < length <= p, a single digit b < p."""
    out = [0] * length
    for k in range(b, length):
        out[k] = 1 if k == b else out[k - 1] * k * pow(k - b, -1, p) % p
    return out


def _lucas_kron(m: int, n: int, p: int, table=_pascal_row) -> np.ndarray:
    """The first n values of prod_i table(m_i, .)[n_i] over the base-p digits.

    m_i and n_i are digit i of m and of the index n.  With the default
    table, _pascal_row, value n is C(m, n) mod p; with _pascal_column it
    is C(n, m) mod p.  The values are the Kronecker product of the digit
    vectors, digit 0 innermost.  Vector i is cut to min(p, ceil(n / p^i))
    entries, so a large p never needs a p-long vector.  Digits of m with
    p^i >= n are not read, which is exact for _pascal_row (entry 0 is 1)
    and for _pascal_column when m < n.
    """
    out = np.ones(1, dtype=np.int64)
    q = 1
    while q < n:
        m, digit = divmod(m, p)
        row = np.array(table(digit, min(p, -(-n // q)), p), dtype=np.int64)
        out = np.multiply.outer(row, out).ravel()   # kron of two vectors
        out %= p
        q *= p
    return out[:n].copy()       # a view would keep up to 2n entries alive


def _parse_fields(text: str, *keys: str) -> tuple:
    """Split a serialized form "p=..;<key>=..;..." into its parts.

    Returns the modulus, then the text of each further field in order.
    Malformed text raises ValueError.
    """
    parts = text.strip().split(";")
    keys = ("p",) + keys
    if len(parts) != len(keys):
        raise ValueError(
            f"expected {len(keys)} ';'-separated fields, got {len(parts)}")
    for part, key in zip(parts, keys):
        if not part.startswith(key + "="):
            raise ValueError(f"expected field {key!r}, got {part!r}")
    p, *fields = (part.split("=", 1)[1] for part in parts)
    return (Prime(int(p)), *fields)
