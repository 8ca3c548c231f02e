"""Rational functions over F_p with reduced coefficient vectors.

Polynomials are little-endian tuples of residues; the zero polynomial is
(0,).  A :class:`RationalFn` keeps gcd(numerator, denominator) = 1 and a
denominator with constant term 1, so its power-series expansion is always
defined and unique.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fp import Prime, _parse_fields
from .periodic import PeriodReport
from .series import TruncSeries

__all__ = ["RationalFn", "from_pade", "from_period"]


def _trim(c):
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def _is_zero(c) -> bool:
    return all(v == 0 for v in c)


def _add(a, b, p):
    n = max(len(a), len(b))
    return _trim(((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                 for i in range(n))


def _mul(a, b, p):
    if _is_zero(a) or _is_zero(b):
        return (0,)
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _scale(a, c, p):
    return _trim(v * c % p for v in a)


def _divmod(a, b, p):
    if _is_zero(b):
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    b = _trim(b)
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(1, len(a) - db)
    while len(_trim(a)) - 1 >= db and not _is_zero(a):
        a = list(_trim(a))
        da = len(a) - 1
        if da < db:
            break
        coef = a[-1] * inv_lead % p
        q[da - db] = coef
        for i in range(db + 1):
            a[da - db + i] = (a[da - db + i] - coef * b[i]) % p
    return _trim(q), _trim(a)


def _gcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while not _is_zero(b):
        _, rem = _divmod(a, b, p)
        a, b = b, rem
    if _is_zero(a):
        return (0,)
    return _scale(a, pow(a[-1], -1, p), p)  # monic


@dataclass(frozen=True)
class RationalFn:
    """A reduced fraction of polynomials over F_p, denominator unit at 0."""

    modulus: Prime
    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.modulus.p
        num = _trim(int(v) for v in self.numerator)
        den = _trim(int(v) for v in self.denominator)
        for v in num + den:
            if not 0 <= v < p:
                raise ValueError(f"coefficient {v} out of range for p={p}")
        if den[0] != 1:
            raise ValueError("denominator must have constant term 1")
        if _is_zero(num):
            num, den = (0,), (1,)
        elif _gcd(num, den, p) != (1,):
            raise ValueError("numerator and denominator must be coprime")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    def expand(self, precision: int) -> TruncSeries:
        """The first coefficients of the power-series expansion."""
        p = self.modulus.p
        num = np.zeros(precision, dtype=np.int64)
        for i, v in enumerate(self.numerator[:precision]):
            num[i] = v
        den = np.zeros(precision, dtype=np.int64)
        for i, v in enumerate(self.denominator[:precision]):
            den[i] = v
        den_series = TruncSeries(self.modulus, den)
        return TruncSeries(self.modulus, num) * den_series.invert()

    def equivalent(self, other: "RationalFn") -> bool:
        """Cross-multiplication equality (same fraction, any representation)."""
        p = self.modulus.p
        return _mul(self.numerator, other.denominator, p) == \
            _mul(other.numerator, self.denominator, p)

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

    head(x) + x^w * rep(x) / (1 - x^r), brought to one reduced fraction
    with denominator constant term 1.
    """
    p = modulus.p
    w, r = report.preperiod, report.period
    head = _trim(int(c) % p for c in coeffs[:w]) if w else (0,)
    rep = _trim(int(c) % p for c in coeffs[w:w + r])
    den = [1] + [0] * (r - 1) + [(-1) % p]          # 1 - x^r
    shifted = _trim([0] * w + list(rep))
    num = _add(_mul(head, tuple(den), p), shifted, p)
    if _is_zero(num):
        return RationalFn(modulus, (0,), (1,))
    g = _gcd(num, tuple(den), p)
    num, _ = _divmod(num, g, p)
    red_den, _ = _divmod(tuple(den), g, p)
    c = pow(red_den[0], -1, p)                       # renormalize unit at 0
    return RationalFn(modulus, _scale(num, c, p), _scale(red_den, c, p))


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
    r0 = np.zeros(m + 1, dtype=np.int64)        # remainders, little-endian
    r0[m] = 1
    r1 = np.zeros(m + 1, dtype=np.int64)
    r1[:len(head)] = head
    t0 = np.zeros(m + 1, dtype=np.int64)        # cofactors of the stream
    t1 = np.zeros(m + 1, dtype=np.int64)
    t1[0] = 1
    d0, d1, e1 = m, _degree(r1, m), 0
    while d1 > num_degree:
        inv_lead = pow(int(r1[d1]), -1, p)
        e0 = e1 + d0 - d1                        # deg of the new cofactor
        while d0 >= d1:                          # r0 -= c x^s r1, t0 likewise
            c = int(r0[d0]) * inv_lead % p
            s = d0 - d1
            r0[s:d0 + 1] = (r0[s:d0 + 1] - c * r1[:d1 + 1]) % p
            t0[s:s + e1 + 1] = (t0[s:s + e1 + 1] - c * t1[:e1 + 1]) % p
            d0 = _degree(r0, d0 - 1)
        r0, r1, d0, d1 = r1, r0, d1, d0
        t0, t1, e1 = t1, t0, e0
    if t1[0] == 0:
        return None
    c = pow(int(t1[0]), -1, p)
    num = (r1[:d1 + 1] * c % p).tolist() if d1 >= 0 else [0]
    return RationalFn(modulus, tuple(num), tuple((t1[:e1 + 1] * c % p).tolist()))


def _degree(poly: np.ndarray, bound: int) -> int:
    """Degree of poly, looking at indices <= bound only; -1 for zero."""
    nz = np.flatnonzero(poly[:bound + 1])
    return int(nz[-1]) if nz.size else -1
