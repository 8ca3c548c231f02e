"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: Pascal's triangle instead of digit
products, schoolbook convolution instead of numpy, a convolution of
Python integers instead of int64 limbs, long division for digit
streams, a left-to-right square-and-multiply of its own over full-length
series or plain lists instead of the package's kernel and Frobenius
products, a Newton inverse instead of the expansion of (1+x)^(-y), the
built N-by-N box instead of its read-off, and the extended Euclid
instead of the binomial rule of the rationality view.  Slow but obviously
correct.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

import numpy as np

from oneunits import (ModulusMismatch, PadicApprox, PeriodReport, Prime,
                      RationalFn, ShapeMismatch, TruncSeries,
                      digits_for_precision, from_period, pow_binomial)
from oneunits.ratfn import from_pade
from oneunits.units import _period_of


def block_base(p: int) -> int:
    """B, the base the Lucas kernel steps in: the largest power of p
    <= 64, or p."""
    base = p
    while base * p <= 64:
        base *= p
    return base


def pascal_binom(n: int, k: int, p: int) -> int:
    """C(n, k) mod p via the additive recurrence."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [(row[i] + row[i + 1]) % p for i in range(len(row) - 1)] + [1]
    return row[k]


def naive_mul(a, b, p, n):
    """Coefficients of a*b mod p, truncated to length n."""
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        for j, bj in enumerate(b[: n - i]):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def object_convolve_mod(a, b, n, p):
    """The first n coefficients of a*b mod p as int64, zero-padded to n:
    one numpy convolution of Python integers, which cannot overflow."""
    prod = np.convolve(a[:n].astype(object), b[:n].astype(object))[:n] % p
    out = np.zeros(n, dtype=np.int64)
    out[:len(prod)] = prod
    return out


def staged_descent(coeffs, p: int):
    """The paper's staged recovery of y from u = (1+x)^y, on plain lists.

    Stage i reads digit d off the coefficient of x, divides by (1+x)^d
    and takes a p-th root, keeping every p-th coefficient; a nonzero
    coefficient off the multiples of p shows that u is no power of 1+x.
    Returns ("digits", (d_0, d_1, ...)) after the last stage that still
    determines a digit, or ("stage", i) for the stage that rejected u.
    """
    g = list(coeffs)
    digits = []
    while len(g) >= 2:
        d = g[1]
        digits.append(d)
        for _ in range(d):
            for n in range(1, len(g)):       # h(1+x) = g: h_n = g_n - h_(n-1)
                g[n] = (g[n] - g[n - 1]) % p
        if any(g[n] for n in range(len(g)) if n % p):
            return ("stage", len(digits) - 1)
        g = g[::p]
    return ("digits", tuple(digits))


def newton_residual_stage(coeffs, p: int):
    """The descent stage of u by the residual u (1+x)^(-y), y read off u.

    (1+x)^y is expanded from the digits u_(p^i), p^i < N, and inverted
    by Newton iteration; the stage is v_p of the gcd of the indices where
    the residual differs from 1.  None when the residual is 1, i.e. when
    u is a power of 1+x.
    """
    n = len(coeffs)
    modulus = Prime(p)
    u = TruncSeries(modulus, coeffs)
    k = digits_for_precision(modulus, n)
    y = PadicApprox(modulus, tuple(
        coeffs[p**i] if p**i < n else 0 for i in range(k)))
    residual = u * pow_binomial(y, n).series.invert()
    support = [i for i, c in enumerate(residual.coeffs.tolist()) if i and c]
    if not support:
        return None
    common, stage = gcd(*support), 0
    while common % p == 0:
        common //= p
        stage += 1
    return stage


def frobenius(coeffs, p: int) -> list:
    """f(x^p) mod x^N on a plain coefficient list: c_n moves to x^(np)."""
    out = [0] * len(coeffs)
    out[::p] = coeffs[:(len(coeffs) - 1) // p + 1]
    return out


def fraction_digits(value: Fraction, p: int, k: int) -> tuple:
    """First k base-p digits of a p-adic rational, by long division.

    At each step the next digit d is the unique solution of
    num = d * den (mod p); subtract and divide by p.  Requires the
    denominator coprime to p.
    """
    num, den = value.numerator, value.denominator
    if den % p == 0:
        raise ValueError("denominator divisible by p")
    digits = []
    for _ in range(k):
        d = num * pow(den, -1, p) % p
        digits.append(d)
        num = (num - d * den) // p
    return tuple(digits)


def order_of_x_mod(den, p: int, cap: int):
    """Multiplicative order of x modulo the polynomial den, or None past cap.

    den is little-endian with den[0] != 0; for a reduced denominator of a
    rational stream this is the stream's minimal period.
    """
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    if len(den) <= 1:
        return 1
    inv_lead = pow(den[-1], -1, p)
    monic = [c * inv_lead % p for c in den]
    deg = len(monic) - 1
    state = [0] * deg
    state[min(1, deg - 1)] = 1
    if deg == 1:
        # x = -monic[0] mod den; order of the scalar
        state = [(-monic[0]) % p]
    for r in range(1, cap + 1):
        if state == ([1] + [0] * (deg - 1)):
            return r
        # multiply by x
        carry = state[-1]
        state = [0] + state[:-1]
        if carry:
            state = [(s - carry * m) % p for s, m in zip(state, monic[:-1])]
    return None


def brute_period(symbols, max_preperiod: int, max_period: int):
    """Smallest (preperiod, period) valid on the whole window, r first.

    Quadratic scan; mirrors the documented search order so minimality
    claims can be checked against it.
    """
    seq = list(symbols)
    n = len(seq)
    for r in range(1, max_period + 1):
        for w in range(0, max_preperiod + 1):
            if w + 2 * r > n:
                break
            if all(seq[i] == seq[i + r] for i in range(w, n - r)):
                return (w, r)
    return None


def euclid_coeff_view(modulus, coeffs, w: int, r: int):
    """The coefficient view of rationality_report on a stream by the
    extended Euclid, as (PeriodReport, RationalFn) or None; W + 2R <= N.

    from_pade reconstructs the one fraction of type (W + R - 1, R) that
    the first W + 2R terms allow; it is the view when it re-expands to all
    N terms and its preperiod max(0, deg P - deg Q + 1) is at most W.
    Q = (1+x)^e has the period of _period_of; for any other Q, a period
    <= R after a preperiod <= W on the stream is a fraction of that type
    equal to P/Q, so the brute period scan reads it off.
    """
    p, n = modulus.p, len(coeffs)
    stream = [int(c) for c in coeffs]
    fn = from_pade(modulus, stream, w + r - 1, r)
    if fn is None or naive_mul(stream, list(fn.denominator), p, n) != \
            (list(fn.numerator) + [0] * n)[:n]:
        return None
    preperiod = max(0, len(fn.numerator) - len(fn.denominator) + 1)
    if preperiod > w:
        return None
    e = len(fn.denominator) - 1
    if fn.denominator == tuple(comb(e, i) % p for i in range(e + 1)):
        return PeriodReport(preperiod, _period_of(e, p)), fn
    found = brute_period(stream, w, r)
    return None if found is None else (PeriodReport(*found), fn)


def binomial_rule_view(exponent, precision: int, max_preperiod: int,
                       max_period: int):
    """The coefficient view of rationality_report by the binomial rule,
    as (PeriodReport, RationalFn) or None.

    Y = y mod q, q the least power of p >= N, and L = W + R - 1.  The
    least j <= R for which T = (1+x)^(Y+j) mod x^N has degree <= L gives
    T / (1+x)^j, common factors 1+x divided out: a fraction of type
    (L, R) that fits the stream, and the only one.  It is the view, with
    the period of n/(1+x)^deg Q, when its preperiod
    max(0, deg P - deg Q + 1) is at most W; otherwise there is none.  If
    no j <= R qualifies, the view is the brute period scan's fraction,
    when it re-expands to the stream.
    """
    modulus, p, n = exponent.modulus, exponent.modulus.p, precision
    w, r = max_preperiod, max_period
    y = exponent.value % p ** digits_for_precision(modulus, n)
    stream = [comb(y, i) % p for i in range(n)]
    t = stream
    for j in range(r + 1):
        if j:                                        # t = t (1+x) mod x^N
            t = t[:1] + [(t[i] + t[i - 1]) % p for i in range(1, n)]
        num = t[:max(i for i in range(n) if t[i]) + 1]
        if len(num) <= w + r:
            break
    else:
        found = brute_period(stream, w, r)
        if found is None:
            return None
        fn = from_period(modulus, stream, PeriodReport(*found))
        padded = (list(fn.numerator) + [0] * n)[:n]
        expands = naive_mul(stream, list(fn.denominator), p, n) == padded
        return (PeriodReport(*found), fn) if expands else None
    while j and sum(num[::2]) % p == sum(num[1::2]) % p:   # num(-1) = 0
        quotient = num[:1]                   # num = (1+x) quotient
        for a in num[1:-1]:
            quotient.append((a - quotient[-1]) % p)
        num, j = quotient, j - 1
    if len(num) - j > w:
        return None
    den = tuple(comb(j, i) % p for i in range(j + 1))
    return (PeriodReport(max(0, len(num) - j), _period_of(j, p)),
            RationalFn(modulus, tuple(num), den))


def power_by_squaring(base, e: int, mul, one):
    """base^e by left-to-right square-and-multiply over mul; one is base^0.

    It walks the bits of e from the top, unlike the package's kernel, and
    takes any multiplication: `*` on series, or naive_mul on lists.
    """
    out = one
    for bit in bin(e)[2:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, base)
    return out


def squaring_pow_product(exponent, precision: int) -> TruncSeries:
    """(1+x)^y mod x^N as the product of full-length (1 + x^(p^i))^(d_i).

    Each factor is raised by square-and-multiply over `*` at precision N,
    with no Frobenius shortcut; factors with p^i >= N are trivial and
    skipped.
    """
    modulus = exponent.modulus
    one = TruncSeries.constant(modulus, precision)
    acc = one
    q = 1
    for d in exponent.digits:
        if q >= precision:
            break
        if d:
            factor = np.zeros(precision, dtype=np.int64)
            factor[0] = 1
            factor[q] = 1
            acc = acc * power_by_squaring(TruncSeries(modulus, factor), d,
                                          operator.mul, one)
        q *= modulus.p
    return acc


# -- the two-variable box ----------------------------------------------------
#
# A BivTrunc is a two-variable series truncated independently in each
# variable: an N-by-N coefficient box with entry (i, j) holding the
# coefficient of x^i y^j.  outer_product and subst_group_law build the two
# sides of the box identity f(x)f(y) = f(x + y + xy) in O(N^2) memory and
# O(N^3) time; the box check, which never builds a box, is tested against
# them.


@dataclass(frozen=True, eq=False)
class BivTrunc:
    """A two-variable series truncated to the N-by-N coefficient box."""

    modulus: Prime
    table: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.table, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError("table must be a square 2-d array")
        arr.setflags(write=False)
        object.__setattr__(self, "table", arr)

    @property
    def precision(self) -> int:
        return self.table.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivTrunc):
            return NotImplemented
        return (self.modulus == other.modulus
                and self.table.shape == other.table.shape
                and bool(np.array_equal(self.table, other.table)))

    def __hash__(self) -> int:
        return hash((self.modulus, self.table.tobytes()))

    def first_mismatch(self, other: "BivTrunc") -> tuple[int, int] | None:
        """Lexicographically first (i, j) where the boxes differ, else None."""
        if self.modulus != other.modulus:
            raise ModulusMismatch(
                f"p={self.modulus.p} vs p={other.modulus.p}")
        if self.table.shape != other.table.shape:
            raise ShapeMismatch(
                f"box {self.table.shape} vs {other.table.shape}")
        diff = np.argwhere(self.table != other.table)
        if diff.size == 0:
            return None
        return int(diff[0][0]), int(diff[0][1])


def outer_product(f: TruncSeries, g: TruncSeries) -> BivTrunc:
    """The box of f(x) * g(y)."""
    f._check_compatible(g)
    return BivTrunc(f.modulus, np.outer(f.coeffs, g.coeffs) % f.modulus.p)


def subst_group_law(f: TruncSeries) -> BivTrunc:
    """Substitute s = x + y + xy into f, truncated to the N-by-N box.

    1 + s factors as (1+x)(1+y), so for a 1-unit f this is f evaluated on
    the product of the two one-variable arguments.
    """
    n, p = f.precision, f.modulus.p
    acc = np.zeros((n, n), dtype=np.int64)
    for a in f.coeffs[::-1]:
        nxt = np.zeros_like(acc)
        nxt[1:, :] += acc[:-1, :]
        nxt[:, 1:] += acc[:, :-1]
        nxt[1:, 1:] += acc[:-1, :-1]
        nxt[0, 0] += int(a)
        acc = nxt % p
    return BivTrunc(f.modulus, acc)
