"""Truncated power series over F_p: the ring F_p[[x]] / x^N.

A :class:`TruncSeries` stores its coefficients densely in its own read-only
numpy vector of residues; index n holds the coefficient of x^n and the vector
length is the precision N.  Precision is explicit and sticky: binary
operations demand equal precision (lower one explicitly with
:meth:`TruncSeries.truncate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ModulusMismatch,
    NonUnitConstantTerm,
    NonzeroConstantInner,
    PrecisionExhausted,
    ShapeMismatch,
)
from .fp import Prime, _lucas_kron, _parse_fields

__all__ = ["TruncSeries"]


def _convolve_mod(a: np.ndarray, b: np.ndarray, n: int, p: int) -> np.ndarray:
    """First n coefficients of the product, reduced mod p, exact in int64.

    b is split into base-2^w limbs, top limb first: a limb's sums stay below
    (p-1) 2^w min(len a, len b) < 2^62, as does the reduced sum shifted by w
    before the next limb.  w >= 1 requires (p-1) min(len a, len b) < 2^61.
    For small p, b is a single limb.
    """
    w = 62 - ((p - 1) * min(len(a), len(b))).bit_length()
    top = ((p - 1).bit_length() - 1) // w * w
    out = np.convolve(a, b >> top if top else b)[:n] % p
    for s in range(top - w, -1, -w):
        out = ((out << w) + np.convolve(a, b >> s & (1 << w) - 1)[:n]) % p
    return out


def _pow_mod(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a^e mod x^len(a) by square-and-multiply, for e >= 0; a^0 is 1.

    The result may be a itself (e = 1), so callers only read it.
    """
    n, out = len(a), None
    while e:
        if e & 1:
            out = a if out is None else _convolve_mod(out, a, n, p)
        e >>= 1
        if e:
            a = _convolve_mod(a, a, n, p)
    if out is None:
        out = _lucas_kron(0, n, p)
    return out


def _hasse(coeffs: np.ndarray, m: int, p: int) -> np.ndarray:
    """The m-th Hasse derivative of the series coeffs, mod x^(N-m).

    The weights C(m + j, m) = (-1)^j C(-m-1, j) come from the Lucas
    kernel on the p-adic digits of -m-1, so no division by p ever happens.
    """
    if m < 0:
        raise ValueError("derivative order must be nonnegative")
    n = len(coeffs)
    if m >= n:
        raise PrecisionExhausted(
            f"order {m} exceeds what precision {n} supports")
    out = coeffs[m:] * _lucas_kron(-m - 1, n - m, p)
    out[1::2] *= -1
    return out % p


@dataclass(frozen=True, eq=False)
class TruncSeries:
    """A power series known modulo x^N, coefficients in F_p."""

    modulus: Prime
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        p = self.modulus.p
        arr = np.asarray(self.coeffs)
        if arr.ndim != 1 or len(arr) < 1:
            raise ValueError("coefficient vector must be 1-d and nonempty")
        # one dtype check, no per-element loop: floats, strings and objects
        # (integers past int64) are no residues, and none is converted
        if arr.dtype.kind not in "biu" or \
                not 0 <= int(arr.min()) <= int(arr.max()) < p:
            raise ValueError(f"coefficients must be residues in [0, {p})")
        arr = np.array(arr, dtype=np.int64)     # a copy: the series owns it
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_ints(cls, modulus: Prime, values: Iterable[int]) -> "TruncSeries":
        """Build a series from arbitrary integers, reducing them mod p."""
        reduced = [int(v) % modulus.p for v in values]
        return cls(modulus, np.array(reduced, dtype=np.int64))

    @classmethod
    def constant(cls, modulus: Prime, precision: int, value: int = 1) -> "TruncSeries":
        p = modulus.p
        return cls(modulus, _lucas_kron(0, precision, p) * (value % p))

    @classmethod
    def one_plus_x(cls, modulus: Prime, precision: int) -> "TruncSeries":
        return cls(modulus, _lucas_kron(1, precision, modulus.p))

    # -- basic structure ---------------------------------------------------

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    def coefficient(self, n: int) -> int:
        """The residue at x^n (0 <= n < precision)."""
        if not 0 <= n < self.precision:
            raise PrecisionExhausted(
                f"coefficient {n} outside precision {self.precision}")
        return int(self.coeffs[n])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.modulus == other.modulus
                and self.precision == other.precision
                and bool(np.array_equal(self.coeffs, other.coeffs)))

    def __hash__(self) -> int:
        return hash((self.modulus, self.coeffs.tobytes()))

    def __repr__(self) -> str:
        return f"<TruncSeries {self.serialize()}>"

    def _check_compatible(self, other: "TruncSeries") -> None:
        if self.modulus != other.modulus:
            raise ModulusMismatch(
                f"p={self.modulus.p} vs p={other.modulus.p}")
        if self.precision != other.precision:
            raise ShapeMismatch(
                f"precision {self.precision} vs {other.precision}; "
                "truncate explicitly before mixing")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_compatible(other)
        return TruncSeries(self.modulus, (self.coeffs + other.coeffs) % self.modulus.p)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_compatible(other)
        return TruncSeries(self.modulus, (self.coeffs - other.coeffs) % self.modulus.p)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.modulus, (-self.coeffs) % self.modulus.p)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_compatible(other)
        prod = _convolve_mod(self.coeffs, other.coeffs, self.precision, self.modulus.p)
        return TruncSeries(self.modulus, prod)

    def pow_int(self, e: int) -> "TruncSeries":
        """Nonnegative integer power, by :func:`_pow_mod` on the array."""
        if e < 0:
            raise ValueError("pow_int expects a nonnegative exponent")
        return TruncSeries(self.modulus, _pow_mod(self.coeffs, e, self.modulus.p))

    def truncate(self, precision: int) -> "TruncSeries":
        """Forget coefficients at and above x^precision."""
        if not 1 <= precision <= self.precision:
            raise PrecisionExhausted(
                f"cannot truncate precision {self.precision} to {precision}")
        if precision == self.precision:
            return self
        return TruncSeries(self.modulus, self.coeffs[:precision])

    def invert(self) -> "TruncSeries":
        """The g with f*g = 1 mod x^N.  Newton doubling on the residual."""
        c0 = int(self.coeffs[0])
        if c0 == 0:
            raise NonUnitConstantTerm("constant term must be a unit to invert")
        p = self.modulus.p
        n = self.precision
        g = np.array([pow(c0, -1, p)], dtype=np.int64)
        m = 1
        while m < n:
            m = min(2 * m, n)
            fg = _convolve_mod(self.coeffs[:m], g, m, p)
            t = (-fg) % p
            t[0] = (t[0] + 2) % p
            g = _convolve_mod(g, t, m, p)
        return TruncSeries(self.modulus, g)

    # -- characteristic-p structure ----------------------------------------

    def hasse_derivative(self, m: int) -> "TruncSeries":
        """The m-th Hasse derivative: x^n maps to C(n, m) x^(n-m).

        The result is only known modulo x^(N-m); :func:`_hasse` computes
        it on the array.
        """
        return TruncSeries(self.modulus, _hasse(self.coeffs, m, self.modulus.p))

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """f(inner) for an inner series with zero constant term (Horner)."""
        self._check_compatible(inner)
        if int(inner.coeffs[0]) != 0:
            raise NonzeroConstantInner(
                "inner series must have zero constant term")
        n, p = self.precision, self.modulus.p
        acc = np.zeros(n, dtype=np.int64)
        acc[0] = self.coeffs[n - 1]
        for i in range(n - 2, -1, -1):
            acc = _convolve_mod(acc, inner.coeffs, n, p)
            acc[0] = (acc[0] + int(self.coeffs[i])) % p
        return TruncSeries(self.modulus, acc)

    # -- text form ---------------------------------------------------------

    def serialize(self) -> str:
        body = ",".join(str(int(c)) for c in self.coeffs)
        return f"p={self.modulus.p};N={self.precision};coeffs={body}"

    @classmethod
    def parse(cls, text: str) -> "TruncSeries":
        modulus, n, body = _parse_fields(text, "N", "coeffs")
        precision, coeffs = int(n), [int(tok) for tok in body.split(",")]
        if len(coeffs) != precision:
            raise ValueError(
                f"N={precision} but {len(coeffs)} coefficients given")
        return cls(modulus, coeffs)
