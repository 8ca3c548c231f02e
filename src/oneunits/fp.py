"""The prime field F_p: its modulus and binomials mod p.

Residues are plain integers in [0, p) and :class:`Prime` is the validated
modulus.  Binomials mod p come from one Lucas kernel for (1+x)^m mod x^n,
:func:`_lucas_kron`, which never divides by p and so stays valid in
characteristic p.  The serialized forms share one field parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import isqrt
from operator import index

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
    out, inv = [1] + [0] * (length - 1), [0, 1]     # inv[j] = 1/j mod p
    for j in range(1, min(length, a + 1)):
        out[j] = out[j - 1] * (a - j + 1) * inv[j] % p
        inv.append(-(p // (j + 1)) * inv[p % (j + 1)] % p)
    return out


# the largest block base B = p^j a cached table is built for
_BLOCK = 64
_ONE = np.ones(1, dtype=np.int64)        # the empty product, never written
_ONE.flags.writeable = False


@cache
def _block_table(p: int) -> np.ndarray:
    """T[a, b] = C(a, b) mod p for a, b < B = p^j, B the largest power of
    p <= _BLOCK: the j-fold Kronecker power of the single-digit Pascal
    table, read-only, as int64 so that rows are sliced with no cast.
    """
    digit = np.array([_pascal_row(a, p, p) for a in range(p)], dtype=np.int64)
    out = digit
    while len(out) * p <= _BLOCK:
        out = np.kron(digit, out) % p
    out.flags.writeable = False
    return out


def _lucas_kron(m: int, n: int, p: int) -> np.ndarray:
    """(1+x)^m mod x^n: value k is C(m, k) mod p, for k < n.

    By Lucas' theorem C(m, k) = prod_i C(m_i, k_i) over the base-p digits
    of m and k, so the values are the Kronecker product of one Pascal row
    per base-B digit of m, block 0 innermost, where B = p^j is the
    largest power of p <= _BLOCK (B = p for a larger p).  For p <= _BLOCK
    the row is one of the cached _block_table; for a larger p it is
    _pascal_row, and no table is built.  Row i is cut to
    min(B, ceil(n / B^i)) entries, so a large p never needs a p-long
    row.  Blocks of m with B^i >= n are not read (entry 0 of a row is 1).
    Floor divmod reads a negative m as a p-adic integer, so the values
    are then those of 1/(1+x)^(-m).
    """
    rows = _block_table(p) if p <= _BLOCK else None
    base = p if rows is None else len(rows)
    out = _ONE
    q = 1
    while q < n:
        m, digit = divmod(m, base)
        length = min(base, -(-n // q))
        row = (np.array(_pascal_row(digit, length, p), dtype=np.int64)
               if rows is None else rows[digit, :length])
        # kron of two vectors; the first row is the product so far
        out = row if q == 1 else np.multiply.outer(row, out).ravel() % p
        q *= base
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


def _integers(values, what: str) -> list[int]:
    """values as a list of ints; a float or a string raises ValueError."""
    try:
        # a list: tuple(map(...)) raised the peak RSS of long runs by MBs
        return [index(v) for v in values]
    except TypeError as exc:
        raise ValueError(f"{what} must be integers: {exc}") from None
