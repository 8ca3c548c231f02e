"""p-adic digit windows: arithmetic, binomials, integrality, reconstruction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oneunits import (DenominatorNotCoprime, InconsistentReport,
                      ModulusMismatch, NonUnitExponent, PadicApprox,
                      PeriodReport, PrecisionExhausted, Prime, WindowTooSmall,
                      pow_binomial)
from oracles import fraction_digits, pascal_binom

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


# -- construction ------------------------------------------------------------

def test_from_integer_frozen():
    assert PadicApprox.from_integer(P2, 5, 4).digits == (1, 0, 1, 0)
    assert PadicApprox.from_integer(P3, -2, 4).digits == (1, 2, 2, 2)
    assert PadicApprox.from_integer(P5, 0, 3).digits == (0, 0, 0)


def test_from_fraction_frozen():
    assert PadicApprox.from_fraction(P2, Fraction(1, 3), 4).digits == (1, 1, 0, 1)
    assert PadicApprox.from_fraction(P3, Fraction(-1, 2), 5).digits == (1, 1, 1, 1, 1)
    assert PadicApprox.from_fraction(P3, Fraction(1, 2), 3).digits == (2, 1, 1)


def test_from_fraction_needs_coprime_denominator():
    with pytest.raises(DenominatorNotCoprime):
        PadicApprox.from_fraction(P2, Fraction(1, 2), 4)
    with pytest.raises(DenominatorNotCoprime):
        PadicApprox.from_fraction(P5, Fraction(3, 10), 4)


def test_digit_validation():
    with pytest.raises(ValueError):
        PadicApprox(P2, ())
    with pytest.raises(ValueError):
        PadicApprox(P2, (0, 2))
    with pytest.raises(ValueError):
        PadicApprox.from_integer(P2, 1, 0)


def test_value_round_trip():
    a = PadicApprox.from_value(P2, 11, 4)
    assert a.value == 11
    assert PadicApprox.from_value(P2, 11 + 16 * 9, 4) == a


@given(st.sampled_from([2, 3, 5]), st.integers(-40, 40), st.integers(1, 40),
       st.integers(1, 12))
def test_fraction_digits_match_long_division(p, a, b, k):
    if b % p == 0:
        b += 1
    v = Fraction(a, b)
    want = fraction_digits(v, p, k)
    assert PadicApprox.from_fraction(Prime(p), v, k).digits == want


# -- arithmetic --------------------------------------------------------------

def test_add_wraps_at_the_window():
    a = PadicApprox.from_value(P2, 5, 4)
    b = PadicApprox.from_value(P2, 11, 4)
    assert (a + b).digits == (0, 0, 0, 0)


def test_mul_frozen():
    a = PadicApprox.from_fraction(P2, Fraction(1, 3), 4)
    b = PadicApprox.from_integer(P2, 3, 4)
    assert (a * b).value == 1


def test_min_precision_rule():
    a = PadicApprox.from_integer(P3, 7, 6)
    b = PadicApprox.from_integer(P3, 7, 2)
    assert (a + b).precision == 2
    assert (a * b).precision == 2
    assert (a - b).precision == 2


def test_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        PadicApprox.from_integer(P2, 1, 3) + PadicApprox.from_integer(P3, 1, 3)


def test_neg_cancels():
    a = PadicApprox.from_integer(P5, 17, 4)
    assert (a + (-a)).value == 0


def test_unit_inverse_frozen():
    a = PadicApprox.from_value(P3, 2, 3)
    assert a.unit_inverse().value == 14
    assert (a * a.unit_inverse()).value == 1


def test_unit_inverse_needs_unit():
    with pytest.raises(NonUnitExponent):
        PadicApprox.from_integer(P3, 6, 3).unit_inverse()


@given(st.sampled_from([2, 3, 5]), st.integers(1, 10**6), st.integers(1, 10))
def test_unit_inverse_round_trip(p, v, k):
    if v % p == 0:
        v += 1
    a = PadicApprox.from_value(Prime(p), v, k)
    assert (a * a.unit_inverse()).value == 1


def test_truncate():
    a = PadicApprox.from_integer(P2, 5, 6)
    assert a.truncate(3).digits == (1, 0, 1)
    with pytest.raises(PrecisionExhausted):
        a.truncate(7)


# -- binomial coefficients ---------------------------------------------------
#
# C(y, n) mod p is coefficient n of (1+x)^y, the Lucas kernel of pow_binomial.

def binom(y, n):
    return pow_binomial(y, n + 1).coefficient(n)


def test_binom_frozen():
    five = PadicApprox.from_integer(P2, 5, 4)
    assert binom(five, 4) == 1
    assert binom(five, 2) == 0
    assert binom(five, 0) == 1
    third = PadicApprox.from_fraction(P2, Fraction(1, 3), 4)
    assert binom(third, 3) == 1


def test_binom_window_guard():
    a = PadicApprox.from_integer(P2, 5, 3)
    assert binom(a, 7) == 0
    with pytest.raises(PrecisionExhausted,
                       match="3 digits determine coefficients only below x"):
        binom(a, 8)
    with pytest.raises(ValueError):
        pow_binomial(a, 0)


def test_binom_matches_pascal():
    for p in (2, 3, 5):
        P = Prime(p)
        for y in range(0, 61, 7):
            a = PadicApprox.from_integer(P, y, 8)
            assert pow_binomial(a, 61).series.coeffs.tolist() == \
                [pascal_binom(y, n, p) for n in range(61)]


@given(st.sampled_from([2, 3, 5]), st.integers(0, 200), st.integers(0, 200))
def test_binom_matches_pascal_sampled(p, y, n):
    a = PadicApprox.from_integer(Prime(p), y, 8)
    assert binom(a, n) == pascal_binom(y, n, p)


@given(st.sampled_from([2, 3, 5]), st.integers(-10**6, 10**6),
       st.integers(1, 6), st.data())
def test_binom_is_digit_local(p, y, k, data):
    """C(y, n) for n < p^k reads nothing above the first k digits."""
    P = Prime(p)
    full = PadicApprox.from_integer(P, y, k + 4)
    short = full.truncate(k)
    n = data.draw(st.integers(0, p**k - 1))
    assert binom(full, n) == binom(short, n)


# -- integrality windows -----------------------------------------------------

def test_integer_window_nonneg():
    v = PadicApprox.from_integer(P2, 5, 6).is_integer_window()
    assert v.kind == "nonneg-integer" and v.value == 5
    z = PadicApprox.from_integer(P2, 0, 4).is_integer_window()
    assert z.kind == "nonneg-integer" and z.value == 0


def test_integer_window_negative():
    v = PadicApprox.from_integer(P3, -2, 4).is_integer_window()
    assert v.kind == "negative-integer" and v.value == -2
    w = PadicApprox.from_integer(P2, -1, 2).is_integer_window()
    assert w.kind == "negative-integer" and w.value == -1


def test_integer_window_inconclusive_on_fraction():
    v = PadicApprox.from_fraction(P2, Fraction(1, 3), 8).is_integer_window()
    assert v.kind == "not-integer-in-window"
    assert not v.is_integer


def test_integer_window_needs_two_digits():
    with pytest.raises(WindowTooSmall):
        PadicApprox.from_integer(P2, 1, 1).is_integer_window()


def test_integer_window_needs_constant_run_of_two():
    # 6 = (0,1,1) then a lone high 0: tail run of length 1 decides nothing
    v = PadicApprox(P2, (0, 1, 1, 0)).is_integer_window()
    assert v.kind == "not-integer-in-window"


@given(st.sampled_from([2, 3, 5]), st.integers(-300, 300))
def test_integer_window_reads_back_small_integers(p, y):
    a = PadicApprox.from_integer(Prime(p), y, 12)
    v = a.is_integer_window()
    assert v.is_integer and v.value == y


# -- digit periods and reconstruction ----------------------------------------

def test_digit_period_frozen():
    third = PadicApprox.from_fraction(P2, Fraction(1, 3), 16)
    assert third.detect_digit_period(4, 4) == PeriodReport(1, 2)
    neg = PadicApprox.from_integer(P3, -1, 12)
    assert neg.detect_digit_period(4, 4) == PeriodReport(0, 1)


def test_digit_period_thue_morse_has_none():
    tm = PadicApprox(P2, (0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0))
    assert tm.detect_digit_period(8, 4) is None


def test_reconstruct_frozen():
    third = PadicApprox.from_fraction(P2, Fraction(1, 3), 16)
    assert third.reconstruct_rational(PeriodReport(1, 2)) == Fraction(1, 3)
    neg = PadicApprox.from_integer(P3, -1, 12)
    assert neg.reconstruct_rational(PeriodReport(0, 1)) == Fraction(-1)
    alt = PadicApprox(P2, (1, 0) * 4)
    assert alt.reconstruct_rational(PeriodReport(0, 2)) == Fraction(-1, 3)


def test_reconstruct_rejects_wrong_report():
    a = PadicApprox(P2, (1, 0, 0, 1))
    with pytest.raises(InconsistentReport):
        a.reconstruct_rational(PeriodReport(0, 1))


def test_reconstruct_rejects_report_beyond_window():
    a = PadicApprox(P2, (1, 0, 1))
    with pytest.raises(InconsistentReport):
        a.reconstruct_rational(PeriodReport(2, 2))


@given(st.sampled_from([2, 3, 5]), st.integers(-20, 20), st.integers(1, 20))
def test_rational_round_trip_through_digits(p, a, b):
    """Expand a/b to digits, detect the period, read the fraction back."""
    if b % p == 0:
        b += 1
    v = Fraction(a, b)
    x = PadicApprox.from_fraction(Prime(p), v, 64)
    report = x.detect_digit_period(24, 20)
    assert report is not None
    assert x.reconstruct_rational(report) == v


# -- text form ---------------------------------------------------------------

def test_serialize_frozen():
    a = PadicApprox.from_integer(P2, 5, 3)
    assert a.serialize() == "p=2;K=3;digits=1,0,1"


def test_parse_round_trip():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for _ in range(10):
            digits = tuple(rng.randrange(p) for _ in range(rng.randrange(1, 12)))
            a = PadicApprox(Prime(p), digits)
            assert PadicApprox.parse(a.serialize()) == a


def test_parse_rejects_malformed():
    for bad in ("", "p=2;K=1", "p=2;K=2;digits=1", "p=2;K=1;digits=2",
                "x=2;K=1;digits=1"):
        with pytest.raises(ValueError):
            PadicApprox.parse(bad)
