"""Rational functions over F_p and reconstruction from periodic streams."""

import random

import pytest
from hypothesis import given, strategies as st

from oneunits import (PeriodReport, Prime, RationalFn, TruncSeries,
                      find_period, from_period)
from oneunits import ratfn
from oneunits.ratfn import _euclid, from_pade
from oracles import order_of_x_mod

P2, P3 = Prime(2), Prime(3)


def test_validation():
    with pytest.raises(ValueError):
        RationalFn(P2, (1,), (0, 1))        # denominator not a unit at 0
    with pytest.raises(ValueError):
        RationalFn(P2, (1, 1), (1, 1))      # not coprime
    with pytest.raises(ValueError):
        RationalFn(P3, (1, 3), (1,))        # coefficient out of range


@pytest.mark.parametrize("p", [3, 2**31 - 1])
def test_common_factor_rejected_in_either_degree_order(p):
    one_minus_x = (1, p - 1)
    with pytest.raises(ValueError, match="coprime"):     # over 1 - x^3
        RationalFn(Prime(p), one_minus_x, (1, 0, 0, p - 1))
    with pytest.raises(ValueError, match="coprime"):     # (1 - x)(1 + 2x) over
        RationalFn(Prime(p), (1, 1, p - 2), one_minus_x)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_construction_accepts_exactly_the_coprime_pairs(p):
    """Accepted exactly when the numerator is zero or the Euclid on the
    two sides ends in a nonzero constant, as when every construction ran
    it."""
    rng = random.Random(p)
    for _ in range(500):
        num = tuple(rng.randrange(p) for _ in range(rng.randint(1, 4)))
        den = (1,) + tuple(rng.randrange(p) for _ in range(rng.randint(0, 3)))
        coprime = not any(num) or _euclid(num, den, p, 0)[1] == 0
        try:
            RationalFn(Prime(p), num, den)
        except ValueError:
            assert not coprime, (num, den)
        else:
            assert coprime, (num, den)


def test_a_constant_side_needs_no_euclid(monkeypatch):
    def refuse(*args):
        raise AssertionError("the Euclid ran")
    monkeypatch.setattr(ratfn, "_euclid", refuse)
    assert RationalFn(P3, (1,), (1, 2, 1)).denominator == (1, 2, 1)
    assert RationalFn(P3, (2, 0, 1, 0), (1, 0)).numerator == (2, 0, 1)
    assert RationalFn(P3, (0, 0), (1, 1)).numerator == (0,)
    with pytest.raises(AssertionError, match="the Euclid ran"):
        RationalFn(P3, (1, 1), (1, 2))


def test_trailing_zeros_trimmed():
    f = RationalFn(P3, (1, 2, 0, 0), (1, 0))
    assert f.numerator == (1, 2)
    assert f.denominator == (1,)


def test_zero_normal_form():
    f = RationalFn(P2, (0, 0), (1, 0, 1))
    assert f.numerator == (0,)
    assert f.denominator == (1,)


def test_expand_geometric():
    f = RationalFn(P2, (1,), (1, 1))
    assert f.expand(6) == TruncSeries.from_ints(P2, [1] * 6)


def test_expand_polynomial():
    f = RationalFn(P3, (1, 0, 2), (1,))
    assert f.expand(5) == TruncSeries.from_ints(P3, [1, 0, 2, 0, 0])
    assert f.expand(2) == TruncSeries.from_ints(P3, [1, 0])


def test_equivalent_cross_multiplies():
    """Equal fractions are equal objects: both sides keep the one reduced
    form with denominator constant term 1."""
    a = RationalFn(P3, (1, 1), (1, 2))
    assert a == RationalFn(P3, (1, 1), (1, 2))
    assert a != RationalFn(P3, (1,), (1,))
    assert a != RationalFn(P3, (1, 2), (1, 1))
    assert a != RationalFn(Prime(5), (1, 1), (1, 2))


def test_serialize_round_trip():
    f = RationalFn(P2, (1, 1, 0, 0, 1, 1), (1,))
    assert f.serialize() == "p=2;num=1,1,0,0,1,1;den=1"
    assert RationalFn.parse(f.serialize()) == f


def test_parse_rejects_malformed():
    for bad in ("", "p=2;num=1", "p=2;num=1;den=0,1", "p=2;den=1;num=1"):
        with pytest.raises(ValueError):
            RationalFn.parse(bad)


def test_from_period_polynomial_stream():
    coeffs = [1, 1, 0, 0, 1, 1, 0, 0]
    fn = from_period(P2, coeffs, PeriodReport(6, 1))
    assert fn == RationalFn(P2, (1, 1, 0, 0, 1, 1), (1,))


def test_from_period_geometric():
    fn = from_period(P2, [1] * 8, PeriodReport(0, 1))
    assert fn == RationalFn(P2, (1,), (1, 1))


def test_from_period_with_head():
    fn = from_period(P2, [1, 0, 1, 1, 1, 1, 1, 1], PeriodReport(2, 1))
    assert fn.expand(8) == TruncSeries.from_ints(P2, [1, 0, 1, 1, 1, 1, 1, 1])
    assert fn == RationalFn(P2, (1, 1, 1), (1, 1))


def test_from_period_nonunit_constant():
    fn = from_period(P2, [0, 1, 0, 1, 0, 1], PeriodReport(0, 2))
    assert fn == RationalFn(P2, (0, 1), (1, 0, 1))
    assert fn.expand(6) == TruncSeries.from_ints(P2, [0, 1, 0, 1, 0, 1])


@given(st.sampled_from([2, 3, 5, 2**31 - 1]), st.integers(0, 6),
       st.integers(1, 6), st.data())
def test_from_period_reads_head_then_repeat(p, w, r, data):
    """Any stream, short ones too, gives head(x) + x^w rep(x) / (1 - x^r)."""
    coeffs = data.draw(st.lists(st.integers(0, p - 1), max_size=w + 3 * r))
    fn = from_period(Prime(p), coeffs, PeriodReport(w, r))
    assert len(fn.denominator) - 1 <= r
    assert len(fn.numerator) - 1 < w + r
    padded = coeffs[:w + r] + [0] * (w + r - len(coeffs))
    want = padded + padded[w:] * 2
    assert fn.expand(w + 3 * r) == TruncSeries.from_ints(Prime(p), want)


def rand_reduced(rng, p):
    P = Prime(p)
    while True:
        num = tuple(rng.randrange(p) for _ in range(rng.randrange(1, 6)))
        den = (1,) + tuple(rng.randrange(p) for _ in range(rng.randrange(0, 5)))
        if not any(num):
            continue
        try:
            return RationalFn(P, num, den)
        except ValueError:
            continue


def test_round_trip_random_streams():
    """expand -> find_period -> from_period recovers the reduced fraction."""
    rng = random.Random(2026)
    for p in (2, 3, 5):
        done = 0
        while done < 40:
            fn = rand_reduced(rng, p)
            order = order_of_x_mod(fn.denominator, p, 32)
            if order is None:
                continue
            stream = fn.expand(96)
            report = find_period(stream.coeffs.tolist(), 16, 32)
            assert report is not None
            back = from_period(Prime(p), stream.coeffs.tolist(), report)
            assert back == fn
            if len(fn.denominator) > 1:
                assert report.period == order
            done += 1


def test_from_pade_recovers_random_fractions():
    """deg num + deg den + 1 coefficients pin down a reduced fraction."""
    rng = random.Random(2027)
    for p in (2, 3, 5, 2**31 - 1):
        for _ in range(40):
            fn = rand_reduced(rng, p)
            stream = fn.expand(9).coeffs.tolist()
            assert from_pade(Prime(p), stream, 4, 4) == fn


def test_from_pade_reads_only_the_first_m_coefficients():
    fn = RationalFn(P2, (1,), (1, 1, 0, 0, 1))
    stream = fn.expand(16)
    assert from_pade(P2, stream.coeffs, 4, 4) == fn
    short = from_pade(P2, stream.coeffs, 4, 3)       # M = 8 agree, no more
    assert short.expand(8) == stream.truncate(8)
    assert short.expand(16) != stream


def test_from_pade_none_without_a_fitting_fraction():
    # x^2 = P/Q mod x^3 with deg P, deg Q <= 1 forces Q(0) = 0
    assert from_pade(P2, [0, 0, 1], 1, 1) is None


def test_from_pade_edge_streams():
    assert from_pade(P3, [0] * 6, 2, 2) == RationalFn(P3, (0,), (1,))
    assert from_pade(P2, [0, 1, 0, 1, 0, 1], 2, 2) == \
        RationalFn(P2, (0, 1), (1, 0, 1))
