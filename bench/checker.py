"""Independent model of every answer the benchmark checks.

Pure Python with no numpy and no import of oneunits, so a wrong answer from
the package can never also be the expected one.  The model is the paper's:
the coefficient of x^n in (1+x)^y is the Lucas digit product
prod_i C(y_i, n_i) mod p, so digit i of y can be read at x^(p^i), and a
one-unit is a power of 1+x exactly when re-expanding the digits read off it
gives it back.

Window-bounded answers (rationality reports) are modelled twice: what is
true of y, and what the documented window rules report.  A report equal to
the truth is right, whatever the window; one equal to the window rules'
report where that differs from the truth is a known window limitation
(README, "Known limitations"); any other report is wrong.  Limitations and
wrong answers both count against ``correct_frac``, so a change that lifts a
window limitation raises it, and one that breaks the window rules shows too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction


def digits_needed(p: int, n: int) -> int:
    """Least k >= 1 with p^k >= n: the digits of y that fix (1+x)^y mod x^n."""
    k, q = 1, p
    while q < n:
        q *= p
        k += 1
    return k


def digits_of(value, p: int, k: int) -> tuple[int, ...]:
    """First k base-p digits of an integer, or of a fraction prime to p."""
    v = Fraction(value)
    mod = p**k
    r = v.numerator * pow(v.denominator, -1, mod) % mod
    out = []
    for _ in range(k):
        r, d = divmod(r, p)
        out.append(d)
    return tuple(out)


def residue(digits, p: int) -> int:
    """The residue in [0, p^K) with these base-p digits."""
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


def digit_row(d: int, p: int, length: int) -> list[int]:
    """C(d, j) mod p for j < length, for a single digit 0 <= d < p."""
    row = [1]
    c = 1
    for j in range(min(length, d + 1) - 1):
        c = c * (d - j) % p * pow(j + 1, -1, p) % p
        row.append(c)
    return row + [0] * (length - len(row))


def expand(digits, p: int, n: int) -> tuple[int, ...]:
    """(1+x)^y mod x^n as the Kronecker product of the digit rows of y."""
    if p ** len(digits) < n:
        raise ValueError(f"{len(digits)} digits do not fix {n} coefficients")
    coeffs, q = [1], 1
    for d in digits:
        if q >= n:
            break
        row = digit_row(d, p, min(p, -(-n // q)))
        coeffs = [c * e % p for c in row for e in coeffs]
        q *= p
    return tuple(coeffs[:n])


def one_plus_x(n: int) -> tuple[int, ...]:
    return (1, 1)[:n] + (0,) * max(0, n - 2)


def read_digits(coeffs, p: int) -> tuple[int, ...]:
    """Digit i of the only candidate exponent is the coefficient of x^(p^i)."""
    out, q = [], 1
    while q < len(coeffs):
        out.append(coeffs[q])
        q *= p
    return tuple(out) or (0,)


def power_digits(coeffs, p: int):
    """The exponent digits when coeffs is a power of 1+x, else None."""
    digits = read_digits(coeffs, p)
    return digits if expand(digits, p, len(coeffs)) == tuple(coeffs) else None


def census(p: int, n: int) -> list[tuple[int, ...]]:
    """Every power of 1+x mod x^n, in lexicographic coefficient order."""
    k = digits_needed(p, n)
    return sorted({expand(ds, p, n)
                   for ds in itertools.product(range(p), repeat=k)})


def binom(n: int, k: int, p: int) -> int:
    """C(n, k) mod p for nonnegative integers, digit by digit."""
    out = 1
    while (n or k) and out:
        n, nd = divmod(n, p)
        k, kd = divmod(k, p)
        out = out * digit_row(nd, p, p)[kd] % p
    return out


def mul(a, b, p: int, n: int) -> list[int]:
    """a * b mod (p, x^n), skipping zero coefficients."""
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[:n - i]):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return out


def hasse_identity(coeffs, m: int, p: int) -> bool:
    """Whether a_m f == D^m(f) (1+x)^m holds mod x^(N-m)."""
    n = len(coeffs) - m
    lhs = [c * coeffs[m] % p for c in coeffs[:n]]
    deriv = [binom(i + m, m, p) * coeffs[i + m] % p for i in range(n)]
    k = max(digits_needed(p, n), digits_needed(p, m + 1))
    return lhs == mul(deriv, expand(digits_of(m, p, k), p, n), p, n)


# -- rationality ------------------------------------------------------------


def order_of_x(den, p: int) -> int:
    """Multiplicative order of x modulo den (den[0] != 0), by shifts."""
    den = list(den)
    deg = len(den) - 1
    if deg == 0:
        return 1
    inv_lead = pow(den[-1], -1, p)
    monic = [c * inv_lead % p for c in den]
    one = [1] + [0] * (deg - 1)
    state, r = one, 0
    while True:
        carry = state[-1]
        state = [0] + state[:-1]
        if carry:
            state = [(s - carry * c) % p for s, c in zip(state, monic)]
        r += 1
        if state == one:
            return r


def integer_window(digits, p: int):
    """(kind, value) that the documented tail rule reads off a digit window.

    The tail must be all 0 or all p-1 over at least the last two digits;
    anything else reads as not an integer in this window.
    """
    tail = digits[-1]
    start = len(digits)
    while start > 0 and digits[start - 1] == tail:
        start -= 1
    if tail not in (0, p - 1) or len(digits) - start < 2:
        return ("not-integer-in-window", None)
    if tail == 0:
        return ("nonneg-integer", residue(digits[:start], p))
    return ("negative-integer", residue(digits, p) - p ** len(digits))


@dataclass(frozen=True)
class RationalityTruth:
    """A rationality report as the window rules must give it, and the truth.

    window is (integer kind, integer value, (preperiod, period) or None,
    (numerator, denominator) or None, consistent); truth is the same tuple
    for windows large enough to see y as it is.  ``limitation`` names the
    documented window limitation when the two differ.
    """

    window: tuple
    truth: tuple
    limitation: str | None

    def judge(self, got):
        """None if got is the true report; ("limit", why) if it is what the
        window rules give where they miss the truth; else ("wrong", why)."""
        if got == self.truth:
            return None
        if got == self.window:
            return ("limit", self.limitation)
        return ("wrong", f"expected {self.truth!r} (or, within the window "
                         f"rules, {self.window!r}), got {got!r}")


def _integer_stream(y: int, p: int):
    """(preperiod, period, numerator, denominator) of (1+x)^y for integer y."""
    power = expand(digits_of(abs(y), p, digits_needed(p, abs(y) + 1)), p,
                   abs(y) + 1)
    if y >= 0:
        return y + 1, 1, power, (1,)
    return 0, order_of_x(power, p), (1,), power


def rationality(y: Fraction, digits, n: int, max_pre: int,
                max_period: int, p: int) -> RationalityTruth:
    """Model rationality_report(exponent with these digits, n, windows)."""
    kind, value = integer_window(digits, p)
    if y.denominator == 1:
        w, r, num, den = _integer_stream(int(y), p)
        fits = w <= max_pre and r <= max_period and w + 2 * r <= n
        period, rational = ((w, r), (num, den)) if fits else (None, None)
        true_kind = "nonneg-integer" if y >= 0 else "negative-integer"
        truth = (true_kind, int(y), (w, r), (num, den), True)
    else:
        period = rational = None
        truth = ("not-integer-in-window", None, None, None, True)
    window = (kind, value, period, rational,
              (kind != "not-integer-in-window") == (period is not None))
    reasons = []
    if window[:2] != truth[:2]:
        reasons.append("digit-window phase misread")
    if window[2:4] != truth[2:4]:
        reasons.append("coefficient period beyond the window")
    return RationalityTruth(window, truth, "; ".join(reasons) or None)
