"""Rational functions over F_p with reduced coefficient vectors.

Polynomials are stored as little-endian tuples of residues; the zero
polynomial is (0,).  A :class:`RationalFn` keeps gcd(numerator,
denominator) = 1 and a denominator with constant term 1, so its
power-series expansion is always defined and unique.  One extended
Euclidean algorithm does all the polynomial arithmetic: the coprimality
check and the reconstruction of a fraction from a stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fp import Prime, _integers, _parse_fields
from .periodic import PeriodReport
from .series import TruncSeries

__all__ = ["RationalFn", "from_period"]


def _trim(c):
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padded(poly, length: int) -> np.ndarray:
    """The first length coefficients of poly as an int64 array."""
    out = np.zeros(length, dtype=np.int64)
    head = poly[:length]
    out[:len(head)] = head
    return out


def _degree(poly: np.ndarray, bound: int) -> int:
    """Degree of poly, looking at indices <= bound only; -1 for zero."""
    nz = np.flatnonzero(poly[:bound + 1])
    return int(nz[-1]) if nz.size else -1


def _euclid(a, b, p: int, stop: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Extended Euclid over F_p on the residue vectors a and b.

    Divides until the remainder has degree <= stop and returns it, its
    degree (-1 for zero) and the cofactor t of b (r = s a + t b), as
    arrays of length max(len a, len b).  If b has the higher degree, the
    first step only swaps the two.
    """
    n = max(len(a), len(b))
    r0, r1 = _padded(a, n), _padded(b, n)       # remainders, little-endian
    t0 = np.zeros(n, dtype=np.int64)            # cofactors of b
    t1 = np.zeros(n, dtype=np.int64)
    t1[0] = 1
    d0, d1 = _degree(r0, n - 1), _degree(r1, n - 1)
    while d1 > stop:
        inv_lead = pow(int(r1[d1]), -1, p)
        while d0 >= d1:                          # r0 -= c x^s r1, t0 likewise
            c = int(r0[d0]) * inv_lead % p
            s = d0 - d1
            r0[s:d0 + 1] = (r0[s:d0 + 1] - c * r1[:d1 + 1]) % p
            t0[s:] = (t0[s:] - c * t1[:n - s]) % p
            d0 = _degree(r0, d0 - 1)
        r0, r1, d0, d1 = r1, r0, d1, d0
        t0, t1 = t1, t0
    return r1, d1, t1


@dataclass(frozen=True)
class RationalFn:
    """A reduced fraction of polynomials over F_p, denominator unit at 0."""

    modulus: Prime
    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.modulus.p
        num = _trim(_integers(self.numerator, "coefficients"))
        den = _trim(_integers(self.denominator, "coefficients"))
        for v in num + den:
            if not 0 <= v < p:
                raise ValueError(f"coefficient {v} out of range for p={p}")
        if den[0] != 1:
            raise ValueError("denominator must have constant term 1")
        if not any(num):
            num, den = (0,), (1,)
        elif len(num) > 1 < len(den) and _euclid(num, den, p, 0)[1] != 0:
            # a constant is coprime to anything; a zero remainder means a
            # common factor
            raise ValueError("numerator and denominator must be coprime")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    def expand(self, precision: int) -> TruncSeries:
        """The first coefficients of the power-series expansion."""
        num = TruncSeries(self.modulus, _padded(self.numerator, precision))
        den = TruncSeries(self.modulus, _padded(self.denominator, precision))
        return num * den.invert()

    def serialize(self) -> str:
        num = ",".join(str(v) for v in self.numerator)
        den = ",".join(str(v) for v in self.denominator)
        return f"p={self.modulus.p};num={num};den={den}"

    @classmethod
    def parse(cls, text: str) -> "RationalFn":
        modulus, *fields = _parse_fields(text, "num", "den")
        num, den = (tuple(int(tok) for tok in f.split(",")) for f in fields)
        return cls(modulus, num, den)


def from_period(modulus: Prime, coeffs, report: PeriodReport) -> RationalFn:
    """The rational function whose expansion repeats as reported.

    head(x) + x^w * rep(x) / (1 - x^r), from the first w coefficients and
    the r after them (zeros past the end of a short stream), as one
    reduced fraction with denominator constant term 1.  Its type is
    (w + r - 1, r), so :func:`from_pade` finds it on the w + 2r terms
    head, rep, rep.
    """
    p = modulus.p
    w, r = report.preperiod, report.period
    start = [int(c) % p for c in coeffs[:w + r]]
    start += [0] * (w + r - len(start))
    return from_pade(modulus, start + start[w:], w + r - 1, r)


def from_pade(modulus: Prime, coeffs, num_degree: int,
              den_degree: int) -> RationalFn | None:
    """The fraction P/Q of type (num_degree, den_degree) the stream starts with.

    Runs the extended Euclidean algorithm on x^M and the first
    M = num_degree + den_degree + 1 coefficients, stopping at the first
    remainder of degree <= num_degree; this is the Pade form of
    Berlekamp-Massey.  Two fractions of that type agreeing mod x^M are
    equal, so if any P/Q with deg P <= num_degree, deg Q <= den_degree
    and Q(0) != 0 matches the stream mod x^M, it is the one returned,
    reduced and with Q(0) = 1.  Otherwise the result is None.  Agreement
    past x^M is for the caller to check.
    """
    p = modulus.p
    m = num_degree + den_degree + 1
    head = np.asarray(coeffs[:m], dtype=np.int64) % p
    x_m = np.zeros(m + 1, dtype=np.int64)
    x_m[m] = 1
    num, d, den = _euclid(x_m, head, p, num_degree)
    if den[0] == 0:
        return None
    c = pow(int(den[0]), -1, p)
    return RationalFn(modulus, tuple((num[:max(d, 0) + 1] * c % p).tolist()),
                      tuple((den[:_degree(den, m) + 1] * c % p).tolist()))
