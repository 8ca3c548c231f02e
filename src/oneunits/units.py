"""One-units of F_p[[x]] and their p-adic exponent structure.

A one-unit is a truncated series with constant term 1.  The powers of
1 + x among them are exactly the series f(x) = (1+x)^y for a p-adic
integer y, and three different characterizations of that set live here:
expansion (:func:`pow_binomial` by Lucas' theorem, :func:`pow_product`
as a Frobenius product of digit powers), recovery that reads digit i of
y off the coefficient of x^(p^i) and compares the Lucas kernel on y
with u (:func:`recover_exponent`, :func:`is_endomorphism_via_theorem`),
and the two-variable product comparison f(x)f(y) = f(x + y + xy)
(:func:`is_endomorphism_bivariate`), decided by the same read-off: a mismatch
is read off where u first leaves (1+x)^y, at k0, or found at a Hasse row p^s,
s < v_p(k0).  Read-offs, the Frobenius product and the Hasse rows work on
int64 arrays; only an answer becomes a checked object.  On top of those sit
composition, automorphism inversion, the Hasse-derivative identity, and the
rationality probes that compare what the digits of y say with what the
coefficient stream of f shows; :func:`rationality_report` argues its cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    InconsistentReport,
    NotAnEndomorphism,
    PrecisionExhausted,
    TooLargeToEnumerate,
    WindowTooSmall,
)
from .fp import Prime, _lucas_kron
from .padic import IntegerVerdict, PadicApprox, _from_digits
from .periodic import PeriodReport, find_period
from .ratfn import RationalFn, _padded, from_pade, from_period
from .series import TruncSeries, _convolve_mod, _hasse, _pow_mod

__all__ = [
    "OneUnit",
    "BoxVerdict",
    "EndoVerdict",
    "RationalityReport",
    "digits_for_precision",
    "pow_binomial",
    "pow_product",
    "recover_exponent",
    "is_endomorphism_bivariate",
    "is_endomorphism_via_theorem",
    "hasse_identity_check",
    "is_automorphism",
    "invert_automorphism",
    "compose_unit",
    "detect_coeff_period",
    "coeffs_to_rational",
    "rationality_report",
    "enumerate_endomorphisms",
]


@dataclass(frozen=True)
class OneUnit:
    """A truncated series with constant term 1."""

    series: TruncSeries

    def __post_init__(self) -> None:
        if self.series.coefficient(0) != 1:
            raise ValueError("a one-unit has constant term 1")

    @classmethod
    def from_ints(cls, modulus: Prime, values: Iterable[int]) -> "OneUnit":
        return cls(TruncSeries.from_ints(modulus, values))

    @classmethod
    def one_plus_x(cls, modulus: Prime, precision: int) -> "OneUnit":
        return cls(TruncSeries.one_plus_x(modulus, precision))

    @classmethod
    def parse(cls, text: str) -> "OneUnit":
        return cls(TruncSeries.parse(text))

    @property
    def modulus(self) -> Prime:
        return self.series.modulus

    @property
    def precision(self) -> int:
        return self.series.precision

    def coefficient(self, n: int) -> int:
        return self.series.coefficient(n)

    def __mul__(self, other: "OneUnit") -> "OneUnit":
        return OneUnit(self.series * other.series)

    def truncate(self, precision: int) -> "OneUnit":
        return OneUnit(self.series.truncate(precision))

    def serialize(self) -> str:
        return self.series.serialize()

    def __repr__(self) -> str:
        return f"<OneUnit {self.serialize()}>"


def digits_for_precision(modulus: Prime, precision: int) -> int:
    """Fewest base-p digits of y that pin down (1+x)^y mod x^precision.

    This is the least k with p^k >= precision, floored at one digit.
    """
    if precision < 1:
        raise ValueError("precision must be at least 1")
    k, q = 0, 1
    while q < precision:
        q *= modulus.p
        k += 1
    return max(k, 1)


def _check_digit_window(exponent: PadicApprox,
                        precision: int) -> tuple[int, int]:
    """k = digits_for_precision(N) and Y = y mod p^k, once p^K >= N holds.
    Digit i with p^i >= N meets index digit 0, where C(y_i, 0) = 1, so only
    the first k digits matter; a sum of all K takes time quadratic in K."""
    k = digits_for_precision(exponent.modulus, precision)
    if exponent.precision < k:
        raise PrecisionExhausted(
            f"{exponent.precision} digits determine coefficients only "
            f"below x^{exponent.modulus.p ** exponent.precision}, "
            f"need x^{precision}")
    return k, _from_digits(exponent.digits[:k], exponent.modulus.p)


def pow_binomial(exponent: PadicApprox, precision: int) -> OneUnit:
    """(1+x)^y mod x^N, coefficient of x^n being the binomial C(y, n).

    Each binomial is a base-p digit product, so K digits of y settle
    every n < p^K; p^K >= N is demanded up front.
    """
    _, y = _check_digit_window(exponent, precision)
    p = exponent.modulus.p
    return OneUnit(TruncSeries(exponent.modulus, _lucas_kron(y, precision, p)))


def _frobenius_power(base: np.ndarray, digits: Iterable[int],
                     p: int) -> np.ndarray:
    """prod_i base(x^q)^(d_i) mod x^N, q = p^i, N = len(base): base^y for
    y = sum d_i p^i.

    Over F_p, base(x)^q = base(x^q), and factor i only matters below
    x^L, L = ceil(N/q), so h = base^(d_i) is taken there, and at no more
    than its d_i deg(base) + 1 terms.  Multiplying by h(x^q) multiplies
    each residue class mod q of the product so far by h, so the q classes
    are laid end to end as columns of length L, len(h) - 1 zeros apart,
    and one convolution with h multiplies them all.
    """
    n = len(base)
    degree = int(np.flatnonzero(base)[-1])
    acc = np.zeros(n, dtype=np.int64)
    acc[0] = 1
    q = 1
    for d in digits:
        if q >= n:
            break
        if d:
            cols = -(-n // q)
            h = _pow_mod(base[:min(cols, d * degree + 1)], d, p)
            lanes = np.zeros(q * (cols + len(h) - 1), dtype=np.int64)
            classes = lanes.reshape(q, -1)[:, :cols].T    # [k, r] is x^(kq+r)
            classes.flat[:n] = acc
            span = len(lanes) - len(h) + 1   # no zeros after the last class
            lanes[:span] = _convolve_mod(lanes[:span], h, span, p)
            acc = classes.ravel()[:n]
        q *= p
    return acc


def pow_product(exponent: PadicApprox, precision: int) -> OneUnit:
    """(1+x)^y mod x^N as the product of (1 + x^(p^i))^(digit i of y).

    Factors with p^i >= N are trivial mod x^N, so the product is finite.
    It is the Frobenius product of 1 + x, independent of the Lucas kernel
    behind :func:`pow_binomial`, and agrees with it on every input.
    """
    _check_digit_window(exponent, precision)
    one_plus_x = np.zeros(precision, dtype=np.int64)
    one_plus_x[:2] = 1
    modulus = exponent.modulus
    return OneUnit(TruncSeries(modulus, _frobenius_power(
        one_plus_x, exponent.digits, modulus.p)))


def _read_off(u: OneUnit) -> tuple[list[int], int, int | None]:
    """Digits read off u, y, and where u first leaves (1+x)^y mod x^N or None.

    Digit i of y, p^i < N, is the coefficient of x^(p^i); digits past x^N
    are 0, and at N = 1 no coefficient is read: y is the digit 0.
    """
    coeffs, p, n = u.series.coeffs, u.modulus.p, u.precision
    digits = [int(coeffs[p**i]) if p**i < n else 0
              for i in range(digits_for_precision(u.modulus, n))]
    y = _from_digits(digits, p)
    differs = np.flatnonzero(_lucas_kron(y, n, p) != coeffs)
    return digits, y, int(differs[0]) if differs.size else None


def recover_exponent(u: OneUnit) -> PadicApprox:
    """The y with u = (1+x)^y: digit i is the coefficient of x^(p^i),
    p^i < N, by Lucas, and one re-expansion checks them; only the y
    returned becomes a PadicApprox.  If it first leaves u at k0,
    NotAnEndomorphism is raised with the stage t: the number of orders
    p^0, p^1, ... at which :func:`hasse_identity_check` holds, each order
    p^s tested only while p^(s+1) | k0 < N.

    Let K = (1+x)^y, R = u/K mod x^N, i = p^s, a_i = d_s; t is the least
    v_p over the support of R - 1, which starts at k0, so p^t | k0.  If
    s < t, R is in F_p[[x^(pi)]]: D^j R = 0 for 0 < j <= i (Lucas), so
    D^i(KR) = (D^i K) R (Leibniz), and (1+x)^i D^i K = d_s K mod x^(N-i).
    If s = t, R = 1 + sum r_k x^(ki), r_1 = a_i - d_s = 0, and the
    difference K (1+x)^i D^i R, D^i R = sum k r_k x^((k-1)i), starts at
    k* - i < N - i, k* the least index of R - 1 with v_p = t.
    """
    if u.precision < 2:
        raise PrecisionExhausted("precision 1 determines no exponent digits")
    digits, _, first = _read_off(u)
    if first is None:
        return PadicApprox(u.modulus, tuple(digits))
    p, stage = u.modulus.p, 0
    while not first % p ** (stage + 1) and hasse_identity_check(u, p**stage):
        stage += 1
    raise NotAnEndomorphism(stage)


@dataclass(frozen=True)
class BoxVerdict:
    """Outcome of the two-variable product comparison.

    mismatch is the first box position (row-major) where f(x)f(y) and
    f(x + y + xy) disagree, or None when the full N-by-N box matches;
    the verdict is truthy exactly in the latter case.
    """

    mismatch: tuple[int, int] | None

    def __bool__(self) -> bool:
        return self.mismatch is None


def _hasse_row(coeffs: np.ndarray, m: int, length: int, p: int) -> np.ndarray:
    """Indices below length where (1+x)^m D^m f and a_m f differ, f the
    series coeffs, m < N and length <= N; m is checked before a_m is read.
    The shift (1+x)^m is cut at its degree m."""
    derivative = _hasse(coeffs, m, p)[:length]
    shift = _lucas_kron(m, min(length, m + 1), p)
    row = _convolve_mod(shift, derivative, length, p)
    return np.flatnonzero(row != coeffs[:length] * int(coeffs[m]) % p)


def is_endomorphism_bivariate(u: OneUnit) -> BoxVerdict:
    """Compare f(x)f(y) with f(x + y + xy) on the full N-by-N box.

    Write f = sum b_m (1+x)^m over m < N.  The products (1+x)^m (1+y)^m',
    m, m' < N, are a basis of the box, and in it the difference has
    coefficients b_m b_m' - [m = m'] b_m, so the box matches exactly when b is
    a unit vector e_m: when u is a power of 1+x by read-off and the integer
    m = sum d_i p^i of its digits is below N.  Otherwise the first mismatch is
    at a row p^s < N: f(y + x(1+y)) = sum_i x^i (1+y)^i D^i f(y) exactly, as
    deg f < N, and row i of f(x)f(y) is a_i f(y), so row i matches exactly
    when C(m, i) = a_i wherever b_m != 0.  C(m, p^s) is digit s of m: if rows
    p^0 .. p^t match, all such m share digits 0 .. t, C(m, i) is one g_i at
    each i < p^(t+1) by Lucas, and a_i = sum b_m C(m, i) = g_i a_0 = g_i.

    E = u - K, K = (1+x)^y mod x^N, is first nonzero at k0 and 0 at each
    p^s < N, so a_(p^s) = d_s and row i's difference is [(1+x)^i D^i K - d_s K]
    + [(1+x)^i D^i E - d_s E]: the first bracket is 0 below N - i by the Hasse
    identity of a truncated power, the second starts C(k0, i) E_k0 x^(k0 - i).
    C(k0, p^v) is digit v of k0, so row p^v, v = v_p(k0), first differs
    at k0 - p^v < N - p^v, and only rows p^s, s < v, are computed.
    """
    n = u.precision
    digits, y, first = _read_off(u)
    if first is None and y < n:
        return BoxVerdict(None)
    coeffs, p = u.series.coeffs, u.modulus.p
    for i in (p**s for s in range(len(digits))):    # one row per digit
        if first is not None and first % (i * p):   # i = p^v, v = v_p(k0)
            return BoxVerdict((i, first - i))
        differs = _hasse_row(coeffs, i, n, p)
        if differs.size:
            return BoxVerdict((i, int(differs[0])))
    raise AssertionError("a failing box mismatches at a row p^s")


@dataclass(frozen=True)
class EndoVerdict:
    """Outcome of the read-off-and-verify test.

    exponent is the recovered y when re-expansion reproduces u at full
    precision; otherwise reason names the failing stage, phrased so it
    can be shown to a user as "not an endomorphism (<reason>)".
    """

    exponent: PadicApprox | None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.exponent is not None


def is_endomorphism_via_theorem(u: OneUnit) -> EndoVerdict:
    """Recover the exponent by read-off, verified by one re-expansion."""
    try:
        return EndoVerdict(recover_exponent(u))
    except NotAnEndomorphism as exc:
        return EndoVerdict(None, f"stage {exc.stage}")


def hasse_identity_check(u: OneUnit, m: int) -> bool:
    """Whether a_m * f == D^m(f) * (1+x)^m holds mod x^(N-m).

    Truncated powers of 1+x satisfy this for every order m below their
    precision, so one failing order certifies a non-power.  An order
    outside [0, N) raises as :meth:`TruncSeries.hasse_derivative` does.
    """
    return not _hasse_row(u.series.coeffs, m, u.precision - m,
                          u.modulus.p).size


def is_automorphism(u: OneUnit) -> bool:
    """Whether u is a power of 1+x with invertible exponent.

    Raises NotAnEndomorphism when u is not a power of 1+x at all; the
    remaining distinction is simply whether y is a unit, i.e. whether
    the coefficient of x is nonzero.
    """
    return recover_exponent(u).digits[0] != 0


def compose_unit(f: OneUnit, g: OneUnit) -> OneUnit:
    """Substitute g - 1 into f.

    When f = (1+x)^y by read-off, f(g - 1) = g^y, the Frobenius product
    of g's digit powers; any other f is substituted by Horner's rule.
    For powers of 1+x this multiplies exponents:
    compose_unit((1+x)^a, (1+x)^b) = (1+x)^(ab).
    """
    f.series._check_compatible(g.series)
    digits, _, first = _read_off(f)
    if first is None:
        return OneUnit(TruncSeries(g.modulus, _frobenius_power(
            g.series.coeffs, digits, g.modulus.p)))
    inner = np.array(g.series.coeffs, dtype=np.int64)
    inner[0] = 0
    return OneUnit(f.series.compose(TruncSeries(g.modulus, inner)))


def invert_automorphism(u: OneUnit) -> OneUnit:
    """The power of 1+x that undoes u under substitution.

    With u = (1+x)^y and y a unit this is (1+x)^(1/y); composing either
    way around returns 1 + x.  NotAnEndomorphism or NonUnitExponent is
    raised when u fails the respective precondition.
    """
    return pow_binomial(recover_exponent(u).unit_inverse(), u.precision)


def detect_coeff_period(u: OneUnit, max_preperiod: int | None = None,
                        max_period: int | None = None) -> PeriodReport | None:
    """Scan the coefficient stream of u for an eventual period.

    Defaults bound the preperiod by N // 8 and the period by
    max(1, N // 8) at precision N, which leaves room for the two full
    repeats the detector demands when N >= 2 (N = 1 raises
    WindowTooSmall); callers widen the window when they can afford it.
    """
    w, r = _default_window(u.precision, max_preperiod, max_period)
    return find_period(u.series.coeffs, w, r)


def _default_window(precision: int, max_preperiod: int | None,
                    max_period: int | None) -> tuple[int, int]:
    w = precision // 8 if max_preperiod is None else max_preperiod
    r = max(1, precision // 8) if max_period is None else max_period
    return w, r


def coeffs_to_rational(u: OneUnit, report: PeriodReport) -> RationalFn:
    """The rational function matching u's coefficients under the report.

    The reconstruction P/Q is checked against all N coefficients of u by
    one product, u Q = P mod x^N; a report that does not actually
    describe the stream raises InconsistentReport.
    """
    fn = from_period(u.modulus, u.series.coeffs, report)
    if not _expands_to(fn, u.series.coeffs):
        raise InconsistentReport(
            f"report {report} does not re-expand to the stream")
    return fn


def _expands_to(fn: RationalFn, coeffs: np.ndarray) -> bool:
    """Whether P/Q expands to coeffs: P = coeffs * Q mod x^N, as Q(0) = 1."""
    n, p = len(coeffs), fn.modulus.p
    den = np.array(fn.denominator, dtype=np.int64)
    return bool(np.array_equal(_convolve_mod(coeffs, den, n, p),
                               _padded(fn.numerator, n)))


@dataclass(frozen=True)
class RationalityReport:
    """Two window-bounded views of one exponent, side by side.

    integer_verdict is the digit view of y; coeff_period is the
    (preperiod, period) of the coefficient view's fraction P/Q, and
    rational carries P/Q (see :func:`rationality_report` for both).
    consistent records whether the views agree: y integral exactly when
    the coefficients are those of a fraction.  A False value does not
    decide anything by itself, it flags that at least one window was too
    small for the structure it was looking at.
    """

    integer_verdict: IntegerVerdict
    coeff_period: PeriodReport | None
    rational: RationalFn | None
    consistent: bool


def _period_of(e: int, p: int) -> int:
    """Order of x modulo (1+x)^e, the period of any n/(1+x)^e.

    It is 2p^ceil(log_p e), or 2^ceil(log_2 e) when p = 2: with t = 1+x,
    x = -(1 - t), and modulo t^e the unit 1 - t has order the least
    p^k >= e since (1 - t)^(p^k) = 1 - t^(p^k).
    """
    q = 1
    while q < e:
        q *= p
    return q if p == 2 or e == 0 else 2 * q


def _coeff_view(modulus: Prime, coeffs: np.ndarray, w: int,
                r: int) -> tuple[PeriodReport, RationalFn] | None:
    """The coefficient view of :func:`rationality_report` on a stream,
    by the extended Euclid; W + 2R <= N is the caller's.  Q = (1+x)^e has
    the period of :func:`_period_of`; for any other Q, a period <= R after
    a preperiod <= W on the stream is a fraction of type (W + R - 1, R)
    equal to P/Q on W + 2R terms, so :func:`find_period` reads it off."""
    fn = from_pade(modulus, coeffs, w + r - 1, r)
    if fn is None or not _expands_to(fn, coeffs):
        return None
    preperiod = max(0, len(fn.numerator) - len(fn.denominator) + 1)
    if preperiod > w:
        return None
    e, p = len(fn.denominator) - 1, modulus.p
    if list(fn.denominator) == _lucas_kron(e, e + 1, p).tolist():
        return PeriodReport(preperiod, _period_of(e, p)), fn
    report = find_period(coeffs, w, r)
    return None if report is None else (report, fn)


# a fraction a/b, b > 1, overrules a tail-rule integer y when
# _SHORTER_BY |a| b < |y| (see rationality_report)
_SHORTER_BY = 8


def _wang_fraction(exponent: PadicApprox) -> tuple[int, int] | None:
    """The a/b = y mod M = p^K with |a|, b <= sqrt(M/2), b > 0, if any.

    Wang's rational reconstruction: the extended Euclid on (M, y mod M),
    stopped at the first remainder r <= sqrt(M/2); r = t y mod M for its
    cofactor t, and the fraction r/t is the answer when |t| <= sqrt(M/2)
    and gcd(r, t) = 1.  At most one such fraction exists.
    """
    mod = exponent.modulus.p ** exponent.precision
    bound = math.isqrt(mod // 2)
    r0, r1, t0, t1 = mod, exponent.value, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    a, b = (r1, t1) if t1 > 0 else (-r1, -t1)
    if b > bound or math.gcd(a, b) != 1:
        return None
    return a, b


def _integer_view(exponent: PadicApprox) -> IntegerVerdict:
    """The tail rule's verdict, unless a much shorter fraction overrules it."""
    verdict = exponent.is_integer_window()
    if verdict.is_integer:
        fraction = _wang_fraction(exponent)
        if fraction is not None and fraction[1] > 1 and \
                _SHORTER_BY * abs(fraction[0]) * fraction[1] < abs(verdict.value):
            return IntegerVerdict("not-integer-in-window")
    return verdict


def rationality_report(exponent: PadicApprox, precision: int,
                       max_preperiod: int | None = None,
                       max_period: int | None = None) -> RationalityReport:
    """Expand (1+x)^y and compare the digit and coefficient views of y.

    The digit view is the tail rule of :meth:`PadicApprox.is_integer_window`,
    overruled to "not-integer-in-window" when Wang's rational
    reconstruction of the same digits gives a fraction a/b, b > 1, with
    8 |a| b < |y|.  A window is ambiguous (1/5 over F_2 at K = 10 has the
    digits of 205), and the report picks the shorter description; an
    integer with 2 y^2 <= p^K is its own reconstruction and stands.

    The coefficient view reconstructs the fraction of type
    (deg P < W + R, deg Q <= R) from the first W + 2R of the N
    coefficients, W = max_preperiod and R = max_period (each N // 8 by
    default), and accepts it when it re-expands to all N and its
    preperiod max(0, deg P - deg Q + 1) is at most W.  At most one such
    fraction fits W + 2R coefficients, so WindowTooSmall is raised when
    W + 2R > N.  Y = y mod q, q = p^k the least power >= N, is read once
    off the first k digits of y; the fraction 1/(1+x)^e, e = q - Y,
    needs no search when e <= R: (1+x)^Y (1+x)^e = 1 + x^q = 1 mod x^N,
    and it is the reduced fraction of that type.  For e > R a degree
    count rules out every fit P/Q, Q (1+x)^Y = P mod x^N, in two ranges,
    and the view is None with no search.  If Y + R < N, then
    Q (1+x)^Y = P as polynomials, so the only fit is (1+x)^Y / 1, whose
    preperiod Y + 1 exceeds W once Y >= W.  If e + W + R - 1 < N, then
    P (1+x)^e = Q as polynomials, since (1+x)^Y (1+x)^e = 1 mod x^N,
    which forces e <= R.  For every other Y the extended Euclid of
    :func:`from_pade` runs on the Lucas kernel's (1+x)^Y, the polynomials
    Y < W among them.  R bounds the degree of the denominator,
    not the period: 1/(1+x)^e has the period of :func:`_period_of`,
    which may exceed R and even N/2; any other denominator is accepted
    only with period at most R.  Wherever :func:`detect_coeff_period`
    with the same bounds finds a period, the report is that period and
    its :func:`coeffs_to_rational` fraction.
    """
    modulus, p, n = exponent.modulus, exponent.modulus.p, precision
    k, y = _check_digit_window(exponent, n)
    verdict = _integer_view(exponent)
    w, r = _default_window(n, max_preperiod, max_period)
    if w < 0 or r < 1:
        raise ValueError("need max_preperiod >= 0 and max_period >= 1")
    if w + 2 * r > n:
        raise WindowTooSmall(
            f"window of {n} coefficients cannot settle a fraction with "
            f"preperiod {w} and denominator degree {r}: that needs {w + 2 * r}")
    e = p ** k - y
    if e <= r:
        view = (PeriodReport(0, _period_of(e, p)),
                RationalFn(modulus, (1,), _lucas_kron(e, e + 1, p)))
    elif w <= y < n - r or e + w + r - 1 < n:
        view = None
    else:
        view = _coeff_view(modulus, _lucas_kron(y, n, p), w, r)
    report, fn = view if view is not None else (None, None)
    return RationalityReport(
        integer_verdict=verdict,
        coeff_period=report,
        rational=fn,
        consistent=verdict.is_integer == (report is not None),
    )


def enumerate_endomorphisms(modulus: Prime, precision: int) -> list[OneUnit]:
    """Every one-unit passing the full box check, in lex coefficient order.

    These are the N powers (1+x)^m with m < N (see
    :func:`is_endomorphism_bivariate`).  The census is defined over all
    p^(N-1) candidate tails and is still refused, with
    TooLargeToEnumerate, beyond 2^20 of them; as p >= 2, that is any
    N > 21, and a count past 2^4096 is named p^(N-1), not computed.
    """
    if precision < 1:
        raise ValueError("precision must be at least 1")
    p, n = modulus.p, precision
    if n - 1 > 20 or p ** (n - 1) > 1 << 20:
        count = (p ** (n - 1) if (n - 1) * p.bit_length() <= 4096
                 else f"{p}^{n - 1}")
        raise TooLargeToEnumerate(
            f"{count} candidates at p={p}, N={n}; refusing beyond 2^20")
    powers = (OneUnit(TruncSeries(modulus, _lucas_kron(m, n, p)))
              for m in range(n))
    return sorted(powers, key=lambda u: u.series.coeffs.tolist())
