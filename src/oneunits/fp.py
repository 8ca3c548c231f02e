"""The prime field F_p: its modulus and binomials mod p.

Residues are plain integers in [0, p) and :class:`Prime` is the validated
modulus.  Binomials mod p come from one Lucas kernel: a Kronecker product
of single-digit Pascal rows or columns, which never divides by p and so
stays valid in characteristic p.  The serialized forms of the package
share one field parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

__all__ = ["Prime"]


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
        for d in range(3, isqrt(p) + 1, 2):
            if p % d == 0:
                raise ValueError(f"{p} is not prime")

    def __str__(self) -> str:
        return str(self.p)


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
