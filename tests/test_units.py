"""One-units of F_p[[x]]: powers of 1+x, recognition, inversion, rationality."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from oneunits import (ModulusMismatch, NonUnitExponent, NotAnEndomorphism,
                      InconsistentReport, OneUnit, PadicApprox, PeriodReport,
                      PrecisionExhausted, Prime, RationalFn, ShapeMismatch,
                      TooLargeToEnumerate, TruncSeries, WindowTooSmall,
                      coeffs_to_rational, compose_unit, detect_coeff_period,
                      digits_for_precision, enumerate_endomorphisms,
                      find_period, from_period, hasse_identity_check,
                      invert_automorphism, is_automorphism,
                      is_endomorphism_bivariate,
                      is_endomorphism_via_theorem, pow_binomial, pow_product,
                      rationality_report, recover_exponent)
from oneunits import ratfn, units
from oneunits.ratfn import from_pade
from oneunits.units import (_frobenius_power, _integer_view, _period_of,
                            _read_off)
from oracles import (binomial_rule_view, brute_period, euclid_coeff_view,
                     newton_residual_stage, order_of_x_mod, outer_product,
                     pascal_binom, squaring_pow_product, staged_descent,
                     subst_group_law)

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def unit(p, values):
    return OneUnit.from_ints(Prime(p), values)


def exp_int(p, y, k):
    return PadicApprox.from_integer(Prime(p), y, k)


def rand_unit(rng, p, n):
    return unit(p, [1] + [rng.randrange(p) for _ in range(n - 1)])


def rand_exponent(rng, p, k):
    return PadicApprox(Prime(p), tuple(rng.randrange(p) for _ in range(k)))


SMALL_OR_LARGE_PRIME = st.one_of(
    st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(1, 130)),
    st.tuples(st.sampled_from([65537, 2**31 - 1]), st.integers(1, 32)))


def _draw_exponent(data, p, k):
    return PadicApprox(Prime(p), tuple(data.draw(
        st.lists(st.integers(0, p - 1), min_size=k, max_size=k))))


# -- basics -------------------------------------------------------------------

def test_one_unit_requires_constant_one():
    with pytest.raises(ValueError):
        unit(3, [2, 1])
    with pytest.raises(ValueError):
        unit(3, [0, 1])


def test_digits_for_precision():
    assert digits_for_precision(P2, 8) == 3
    assert digits_for_precision(P2, 9) == 4
    assert digits_for_precision(P3, 3) == 1
    assert digits_for_precision(P3, 4) == 2
    assert digits_for_precision(P2, 1) == 1
    assert digits_for_precision(Prime(7), 1) == 1


def test_serialize_parse_round_trip():
    u = unit(2, [1, 1, 0, 0, 1, 1, 0, 0])
    assert u.serialize() == "p=2;N=8;coeffs=1,1,0,0,1,1,0,0"
    assert OneUnit.parse(u.serialize()) == u
    with pytest.raises(ValueError):
        OneUnit.parse("p=2;N=2;coeffs=0,1")


# -- powers of 1 + x ----------------------------------------------------------

def test_pow_frozen():
    assert pow_binomial(exp_int(2, 5, 3), 8) == unit(2, [1, 1, 0, 0, 1, 1, 0, 0])
    assert pow_binomial(exp_int(3, 4, 2), 5) == unit(3, [1, 1, 0, 1, 1])
    assert pow_binomial(exp_int(2, 0, 3), 6) == unit(2, [1, 0, 0, 0, 0, 0])
    assert pow_binomial(exp_int(2, -1, 3), 6) == unit(2, [1] * 6)


def test_pow_fractional_exponent():
    third = PadicApprox.from_fraction(P2, Fraction(1, 3), 3)
    assert pow_binomial(third, 8) == unit(2, [1, 1, 1, 1, 0, 0, 0, 0])


def test_pow_insufficient_digits():
    with pytest.raises(PrecisionExhausted):
        pow_binomial(exp_int(2, 5, 2), 8)


def test_pow_ignores_digits_past_the_window():
    assert pow_binomial(exp_int(2, 5, 10), 8) == pow_binomial(exp_int(2, 5, 3), 8)
    big = Prime(2**31 - 1)
    long_y = PadicApprox(big, tuple(range(1, 4097)))
    assert pow_binomial(long_y, 4096) == \
        pow_binomial(PadicApprox(big, (1,)), 4096)


@pytest.mark.parametrize("n", [0, -2])
def test_precision_below_one_is_refused(n):
    y = exp_int(3, 5, 4)
    for expand in (pow_binomial, pow_product, rationality_report):
        with pytest.raises(ValueError, match="^precision must be at least 1$"):
            expand(y, n)


@given(st.sampled_from([2, 3, 5, 7, 2**31 - 1]), st.integers(1, 40),
       st.integers(0, 60), st.integers(0, 2))
def test_pow_binomial_matches_pascal(p, n, y, extra):
    """The Lucas kernel gives C(y, n) at every n, one digit row per p^i < N."""
    P = Prime(p)
    got = pow_binomial(exp_int(p, y, digits_for_precision(P, n) + extra), n)
    assert got.series.coeffs.tolist() == [pascal_binom(y, k, p)
                                          for k in range(n)]


def test_pow_product_frozen():
    assert pow_product(exp_int(2, 5, 3), 8) == unit(2, [1, 1, 0, 0, 1, 1, 0, 0])
    assert pow_product(exp_int(3, -2, 4), 9) == pow_binomial(exp_int(3, -2, 4), 9)


@given(st.sampled_from([2, 3, 5]), st.integers(2, 32), st.integers(0, 10**6))
def test_pow_product_matches_binomial(p, n, seed):
    rng = random.Random(seed)
    P = Prime(p)
    y = rand_exponent(rng, p, digits_for_precision(P, n))
    assert pow_product(y, n) == pow_binomial(y, n)


@given(SMALL_OR_LARGE_PRIME, st.data())
def test_pow_product_matches_squaring_and_lucas(pn, data):
    """The Frobenius product equals full-length square-and-multiply and
    the Lucas expansion, with digits to spare past p^i >= N."""
    p, n = pn
    k = digits_for_precision(Prime(p), n) + data.draw(st.integers(0, 2))
    y = _draw_exponent(data, p, k)
    got = pow_product(y, n)
    assert got.series == squaring_pow_product(y, n)
    assert got == pow_binomial(y, n)


@given(st.sampled_from([2, 3, 5]), st.integers(2, 24), st.integers(0, 10**6))
def test_pow_is_a_homomorphism(p, n, seed):
    rng = random.Random(seed)
    P = Prime(p)
    k = digits_for_precision(P, n)
    a, b = rand_exponent(rng, p, k), rand_exponent(rng, p, k)
    assert pow_binomial(a, n) * pow_binomial(b, n) == pow_binomial(a + b, n)
    assert compose_unit(pow_binomial(a, n), pow_binomial(b, n)) == \
        pow_binomial(a * b, n)


# -- exponent recovery ---------------------------------------------------------

def test_recover_frozen():
    got = recover_exponent(unit(2, [1, 1, 0, 0, 1, 1, 0, 0]))
    assert got == exp_int(2, 5, 3)
    assert recover_exponent(unit(2, [1, 0, 0, 0])) == exp_int(2, 0, 2)


def test_recover_needs_precision_two():
    with pytest.raises(PrecisionExhausted):
        recover_exponent(unit(5, [1]))


def test_recover_stage_failures():
    with pytest.raises(NotAnEndomorphism) as exc:
        recover_exponent(unit(2, [1, 0, 1, 1]))
    assert exc.value.stage == 0
    assert "stage 0" in str(exc.value)
    with pytest.raises(NotAnEndomorphism) as exc:
        recover_exponent(unit(2, [1, 0, 0, 0, 1, 0, 1, 0]))
    assert exc.value.stage == 1
    # y = 1 is read off; u (1+x)^y in place of u (1+x)^(-y) gives stage 0
    with pytest.raises(NotAnEndomorphism) as exc:
        recover_exponent(unit(3, [1, 1, 0, 0, 0, 0, 1]))
    assert exc.value.stage == 1


def _check_against_descent(p, coeffs):
    outcome, value = staged_descent(coeffs, p)
    u = unit(p, coeffs)
    if outcome == "digits":
        assert recover_exponent(u).digits == value
        assert pow_binomial(recover_exponent(u), len(coeffs)) == u
    else:
        with pytest.raises(NotAnEndomorphism) as exc:
            recover_exponent(u)
        assert exc.value.stage == value
        assert is_endomorphism_via_theorem(u).reason == f"stage {value}"


def _draw_coeffs(data, p, n):
    """A power of 1+x, (1+x)^m with m <= N, a power with one coefficient
    changed, or an arbitrary one-unit, as a coefficient list."""
    P = Prime(p)
    kind = data.draw(st.sampled_from(
        ["power", "small power", "perturbed", "arbitrary"]), label="kind")
    if kind == "small power":
        exponent = exp_int(p, data.draw(st.integers(0, n), label="m"),
                           digits_for_precision(P, n))
    else:
        exponent = PadicApprox(P, tuple(data.draw(
            st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
            label="digits")))
    coeffs = pow_binomial(exponent, n).series.coeffs.tolist()
    if kind == "perturbed" and n > 1:
        coeffs[data.draw(st.integers(1, n - 1))] = data.draw(
            st.integers(0, p - 1))
    elif kind == "arbitrary":
        coeffs = [1] + data.draw(st.lists(st.integers(0, p - 1),
                                          min_size=n - 1, max_size=n - 1))
    return coeffs


def _stage_non_power(data, p, n):
    """A power of 1+x times 1 + c x^(qk), q = p^s < N, k prime to p.

    Returns the coefficient list, s, and whether the factor is itself a
    power of 1+x mod x^N: (1+x)^(cq) = 1 + c x^q + C(c, 2) x^(2q) + ...,
    so exactly when k = 1 and (c = 1 or 2q >= N).
    """
    P = Prime(p)
    k_digits = digits_for_precision(P, n)
    s = data.draw(st.integers(0, k_digits - 1), label="s")
    q = p ** s
    k = data.draw(st.integers(1, (n - 1) // q).filter(lambda k: k % p),
                  label="k")
    c = data.draw(st.integers(1, p - 1), label="c")
    factor = [0] * n
    factor[0], factor[q * k] = 1, c
    power = pow_binomial(_draw_exponent(data, p, k_digits), n).series
    coeffs = (power * TruncSeries(P, factor)).coeffs.tolist()
    return coeffs, s, k == 1 and (c == 1 or 2 * q >= n)


def _draw_any_coeffs(data, p, n):
    """A one-unit of :func:`_draw_coeffs`, or a stage-s non-power."""
    if data.draw(st.booleans(), label="stage-s non-power"):
        return _stage_non_power(data, p, n)[0]
    return _draw_coeffs(data, p, n)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(2, 60), st.data())
def test_recover_agrees_with_staged_descent(p, n, data):
    """Read-off recovery gives the descent's digits, or its failing stage.

    The one-units are powers, powers with one coefficient changed,
    arbitrary one-units and non-powers of every stage s, at precisions
    that are not powers of p.
    """
    if p ** digits_for_precision(Prime(p), n) == n:
        n += 1
    _check_against_descent(p, _draw_any_coeffs(data, p, n))


@given(st.sampled_from([2, 3, 5, 7, 61, 65537]), st.integers(2, 130),
       st.data())
def test_stage_non_power_fails_at_stage_s(p, n, data):
    """(1+x)^y (1 + c x^(p^s k)), k prime to p, is rejected at stage s
    unless the factor is itself a power of 1+x mod x^N."""
    coeffs, s, factor_is_power = _stage_non_power(data, p, n)
    try:
        recover_exponent(unit(p, coeffs))
        assert factor_is_power
    except NotAnEndomorphism as exc:
        assert not factor_is_power and exc.stage == s


@given(SMALL_OR_LARGE_PRIME, st.data())
def test_stage_matches_the_newton_residual(pn, data):
    """The stage found by the Hasse identity at orders p^s is the stage
    of u times the Newton inverse of (1+x)^y."""
    p, n = pn
    n = max(n, 2)
    coeffs = _draw_any_coeffs(data, p, n)
    try:
        recover_exponent(unit(p, coeffs))
        stage = None
    except NotAnEndomorphism as exc:
        stage = exc.stage
    assert stage == newton_residual_stage(coeffs, p)


def _first_difference(coeffs, p):
    """k0, the first index where u leaves (1+x)^y, y = sum u_(p^i) p^i
    read off u, or None; C(y, k) is the product of Pascal's C(y_j, k_j)
    over the base-p digits y_j of y and k_j of k."""
    n = len(coeffs)
    y_digits = [coeffs[p**i] for i in range(digits_for_precision(Prime(p), n))
                if p**i < n]
    for k in range(n):
        c = 1
        for j, d in enumerate(y_digits):
            c = c * pascal_binom(d, k // p**j % p, p) % p
        if c != coeffs[k]:
            return k
    return None


@given(st.sampled_from([2, 3, 5, 7]), st.integers(2, 130), st.data())
def test_stage_divides_the_first_difference(p, n, data):
    """A non-power that first leaves (1+x)^y at k0 fails at a stage s with
    p^s | k0, so at stage 0 when p does not divide k0: the stage exceeds s
    only when u (1+x)^(-y) - 1, which starts at k0, lies in F_p[[x^(p^s)]]."""
    coeffs = _draw_any_coeffs(data, p, n)
    k0 = _first_difference(coeffs, p)
    assume(k0 is not None)
    stage = newton_residual_stage(coeffs, p)
    assert k0 % p ** stage == 0
    with pytest.raises(NotAnEndomorphism) as exc:
        recover_exponent(unit(p, coeffs))
    assert exc.value.stage == stage


def _stage(u):
    """The stage at which recover_exponent rejects the non-power u."""
    with pytest.raises(NotAnEndomorphism) as exc:
        recover_exponent(u)
    return exc.value.stage


def test_stage_computes_hasse_rows_only_while_p_divides_k0(monkeypatch):
    """recover_exponent tests order p^s only while p^(s+1) | k0: (1+x)^100
    at p = 7, N = 343 with x^2 flipped (k0 = 2) computes no row, 1 + x^6
    at p = 3, N = 9 (k0 = 6) row 1 only, 1 + x^2 + x^12 at p = 2 (k0 = 12)
    rows 1 and 2, which fails, and with p >= N no row is computed, at
    p = 65537 and 2^31 - 1."""
    values = pow_binomial(exp_int(7, 100, 3), 343).series.coeffs.tolist()
    values[2] = (values[2] + 1) % 7
    assert _hasse_rows(_stage, unit(7, values), monkeypatch) == (0, [])
    assert _hasse_rows(_stage, unit(3, [1, 0, 0, 0, 0, 0, 1, 0, 0]),
                       monkeypatch) == (1, [1])
    values = [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]
    assert _hasse_rows(_stage, unit(2, values), monkeypatch) == (1, [1, 2])
    for p, n in [(65537, 100), (2**31 - 1, 2048)]:
        values = pow_binomial(exp_int(p, 12345, 1), n).series.coeffs.tolist()
        values[-1] = (values[-1] + 1) % p
        assert _hasse_rows(_stage, unit(p, values), monkeypatch) == (0, [])


@given(SMALL_OR_LARGE_PRIME, st.data())
def test_stage_s_computes_rows_p_to_the_0_through_s(pn, data):
    """A non-power of stage s computes the rows p^0 .. p^(s-1), which
    pass, and p^s, which fails, exactly when p^(s+1) divides k0."""
    p, n = pn
    n = max(n, 2)
    coeffs = _draw_any_coeffs(data, p, n)
    k0 = _read_off(unit(p, coeffs))[2]
    assume(k0 is not None)
    s = newton_residual_stage(coeffs, p)
    with pytest.MonkeyPatch.context() as mp:
        stage, rows = _hasse_rows(_stage, unit(p, coeffs), mp)
    assert stage == s
    assert rows == [p**j for j in range(s + (k0 % p ** (s + 1) == 0))]


@given(SMALL_OR_LARGE_PRIME, st.data())
def test_first_failing_hasse_order_is_the_stage(pn, data):
    """With no shortcut by k0, the least s at which the Hasse identity
    fails at order p^s is the Newton residual's stage; on a power of
    1+x it holds at every order p^s < N."""
    p, n = pn
    n = max(n, 2)
    coeffs = _draw_any_coeffs(data, p, n)
    u = unit(p, coeffs)
    failing = [s for s in range(digits_for_precision(Prime(p), n))
               if not hasse_identity_check(u, p**s)]
    assert (failing[0] if failing else None) == \
        newton_residual_stage(coeffs, p)


def test_box_row_may_lie_below_p_to_the_stage():
    """The box's rows span N columns, not N - p^s, so its first mismatch
    may be at a row below p^stage: 1 + x + x^3 + x^4 + 2 x^6 at p = 3 and
    1 + x + x^4 + x^5 + x^6 + x^7 + x^8 at p = 2 fail at stage 1 and in
    box row 1."""
    u = unit(3, [1, 1, 0, 1, 1, 0, 2])
    assert _stage(u) == 1
    assert is_endomorphism_bivariate(u).mismatch == (1, 6)
    u = unit(2, [1, 1, 0, 0, 1, 1, 1, 1, 1])
    assert _stage(u) == 1
    assert is_endomorphism_bivariate(u).mismatch == (1, 8)


DESCENT_GRID = ((2, 3), (2, 6), (2, 10), (3, 2), (3, 5), (3, 7), (5, 3),
                (5, 4), (7, 3))


def test_recover_agrees_with_staged_descent_exhaustively():
    for p, n in DESCENT_GRID:
        for u in _all_units(Prime(p), n):
            _check_against_descent(p, u.series.coeffs.tolist())


def _valuation(n, p):
    return 0 if n % p else 1 + _valuation(n // p, p)


def test_wrong_stage_rules_fail_the_descent_check():
    """Mutation check: only the least v_p over the support is the stage.

    The support is where u (1+x)^(-y) differs from 1, y read off u.  The
    v_p of its first or of its last index disagrees with the descent
    somewhere on the exhaustive grid, so recovery built on either rule
    would fail the comparison above.
    """
    wrong = {"first": 0, "last": 0}
    for p, n in DESCENT_GRID:
        P = Prime(p)
        k = digits_for_precision(P, n)
        for u in _all_units(P, n):
            outcome, stage = staged_descent(u.series.coeffs.tolist(), p)
            if outcome == "digits":
                continue
            y = PadicApprox(P, tuple(u.coefficient(p**i) for i in range(k)))
            residual = u.series * pow_binomial(y, n).series.invert()
            valuations = [_valuation(i, p) for i, c in
                          enumerate(residual.coeffs.tolist()) if i and c]
            assert min(valuations) == stage
            wrong["first"] += valuations[0] != stage
            wrong["last"] += valuations[-1] != stage
    assert wrong["first"] and wrong["last"], wrong


@given(st.sampled_from([2, 3, 5]), st.integers(2, 32), st.integers(0, 10**6))
def test_recover_round_trip(p, n, seed):
    rng = random.Random(seed)
    P = Prime(p)
    y = rand_exponent(rng, p, digits_for_precision(P, n))
    assert recover_exponent(pow_binomial(y, n)) == y


# -- endomorphism recognition ---------------------------------------------------

def test_box_accepts_powers():
    assert is_endomorphism_bivariate(OneUnit.one_plus_x(P2, 4))
    assert is_endomorphism_bivariate(pow_binomial(exp_int(2, 3, 2), 4))


def test_box_names_first_mismatch():
    verdict = is_endomorphism_bivariate(unit(2, [1, 1, 1, 0]))
    assert not verdict
    assert verdict.mismatch == (1, 2)


def test_theorem_verdict_carries_exponent():
    v = is_endomorphism_via_theorem(unit(2, [1, 1, 0, 0, 1, 1, 0, 0]))
    assert v
    assert v.exponent == exp_int(2, 5, 3)
    assert v.reason is None


def test_theorem_verdict_carries_reason():
    v = is_endomorphism_via_theorem(unit(2, [1, 0, 1, 1]))
    assert not v
    assert v.exponent is None
    assert v.reason == "stage 0"
    v = is_endomorphism_via_theorem(unit(2, [1, 0, 0, 0, 1, 0, 1, 0]))
    assert v.reason == "stage 1"


def _box_oracle(u):
    """First mismatch of the built N-by-N boxes of f(x)f(y), f(x + y + xy)."""
    f = u.series
    return outer_product(f, f).first_mismatch(subst_group_law(f))


def _passes_by_read_off(u):
    """Whether u is (1+x)^m by read-off, m = sum d_i p^i below N."""
    if u.precision == 1:
        return True
    try:
        return recover_exponent(u).value < u.precision
    except NotAnEndomorphism:
        return False


@given(SMALL_OR_LARGE_PRIME, st.data())
def test_box_verdict_matches_the_built_box(pn, data):
    """Read-off verdict and Hasse-row mismatch equal the built box's."""
    p, n = pn
    u = unit(p, _draw_coeffs(data, p, n))
    assert is_endomorphism_bivariate(u).mismatch == _box_oracle(u)


@given(SMALL_OR_LARGE_PRIME, st.data())
def test_built_box_first_mismatch_is_at_a_row_p_to_the_s(pn, data):
    """The built box's first mismatch lies in row 1, p, p^2, ... below N,
    on powers (y >= N among them), perturbed powers, arbitrary one-units
    and non-powers of every stage."""
    p, n = pn
    n = max(n, 2)
    mismatch = _box_oracle(unit(p, _draw_any_coeffs(data, p, n)))
    rows = {p**s for s in range(digits_for_precision(Prime(p), n))}
    assert mismatch is None or mismatch[0] in rows


def _box_mismatch(u):
    return is_endomorphism_bivariate(u).mismatch


def _hasse_rows(verdict, u, mp):
    """verdict(u), by the box or by recover_exponent, and the orders m of
    the Hasse rows computed on the way."""
    rows, hasse_row = [], units._hasse_row

    def spy(coeffs, m, length, p):
        rows.append(m)
        return hasse_row(coeffs, m, length, p)

    mp.setattr(units, "_hasse_row", spy)
    return verdict(u), rows


def test_box_computes_at_most_one_row_per_digit(monkeypatch):
    """(1+x)^1000 at p = 2, N = 600 first mismatches at row 32, and the
    box computes only the rows 1, 2, 4, ..., 32 on the way there."""
    u = pow_binomial(exp_int(2, 1000, 10), 600)
    mismatch, rows = _hasse_rows(_box_mismatch, u, monkeypatch)
    assert mismatch == (32, 576)
    assert rows == [1, 2, 4, 8, 16, 32]
    assert len(rows) <= digits_for_precision(P2, 600)


def test_box_reads_off_row_p_to_the_v(monkeypatch):
    """The box computes only rows p^s, s < v_p(k0), k0 the first index
    where u leaves (1+x)^y: (1+x)^5 mod x^16 with x^7 flipped computes
    none, 1 + x^6 at p = 3, N = 9 computes row 1 only, and (1+x)^5 with
    x^6 flipped computes row 1, which already fails at column 6."""
    def flipped(k):
        values = pow_binomial(exp_int(2, 5, 4), 16).series.coeffs.tolist()
        values[k] ^= 1
        return unit(2, values)

    assert _hasse_rows(_box_mismatch, flipped(7),
                       monkeypatch) == ((1, 6), [])
    assert _hasse_rows(_box_mismatch, unit(3, [1, 0, 0, 0, 0, 0, 1, 0, 0]),
                       monkeypatch) == ((3, 3), [1])
    assert _hasse_rows(_box_mismatch, flipped(6),
                       monkeypatch) == ((1, 6), [1])


@given(st.sampled_from([2, 3, 5, 7]), st.integers(2, 60), st.data())
def test_built_box_fails_by_row_p_to_the_v(p, n, data):
    """A non-power that first leaves (1+x)^y at k0, v = v_p(k0), first
    mismatches in the built box at a row <= p^v, and at row p^v in
    column k0 - p^v; the box check names the same mismatch."""
    coeffs = _draw_any_coeffs(data, p, n)
    k0 = _first_difference(coeffs, p)
    assume(k0 is not None)
    row = math.gcd(k0, p ** n)      # p^v, as k0 < N <= p^N
    mismatch = _box_oracle(unit(p, coeffs))
    assert mismatch[0] <= row
    if mismatch[0] == row:
        assert mismatch[1] == k0 - row
    assert is_endomorphism_bivariate(unit(p, coeffs)).mismatch == mismatch


@given(SMALL_OR_LARGE_PRIME, st.data())
def test_built_box_passes_exactly_below_n(pn, data):
    """The built box matches iff u = (1+x)^m by read-off with m < N."""
    p, n = pn
    u = unit(p, _draw_coeffs(data, p, n))
    assert (_box_oracle(u) is None) == _passes_by_read_off(u)


@given(SMALL_OR_LARGE_PRIME, st.data())
def test_built_box_row_zero_always_matches(pn, data):
    """Row 0 of both built boxes is f, as a_0 = 1; the box check skips it."""
    p, n = pn
    f = unit(p, _draw_coeffs(data, p, n)).series
    assert outer_product(f, f).table[0].tolist() == f.coeffs.tolist()
    assert subst_group_law(f).table[0].tolist() == f.coeffs.tolist()


def test_box_and_theorem_agree_exhaustively():
    """On every one-unit the box names the built box's first mismatch.

    Where N is a power of p it also agrees with the read-off recovery.
    """
    for P, n in ((P2, 1), (P2, 4), (P2, 5), (P2, 6), (P2, 8), (P2, 10),
                 (P3, 1), (P3, 3), (P3, 4), (P3, 6), (P5, 5)):
        prime_power = n > 1 and P.p ** digits_for_precision(P, n) == n
        for u in _all_units(P, n):
            verdict = is_endomorphism_bivariate(u)
            assert verdict.mismatch == _box_oracle(u)
            assert bool(verdict) == _passes_by_read_off(u)
            if prime_power:
                assert bool(verdict) == bool(is_endomorphism_via_theorem(u))


def _all_units(P, n):
    import itertools
    for tail in itertools.product(range(P.p), repeat=n - 1):
        yield OneUnit.from_ints(P, (1,) + tail)


@given(st.sampled_from([(2, 5), (3, 3), (5, 2)]), st.integers(1, 5),
       st.integers(0, 10**6))
def test_powers_pass_the_box_at_prime_power_precision(pk, k, seed):
    rng = random.Random(seed)
    p, kmax = pk
    n = p ** min(k, kmax)
    P = Prime(p)
    y = rand_exponent(rng, p, digits_for_precision(P, n))
    assert is_endomorphism_bivariate(pow_binomial(y, n))


def test_box_is_truncation_scale_evidence():
    """At N not a power of p the box can reject a truncated power.

    1 + 2x is (1+x)^2 cut to two terms over F_3, yet the xy entry of the
    box needs the x^2 coefficient the truncation discarded.  The read-off
    recovery still accepts it, so the two checks only agree when N is a
    power of p.
    """
    u = pow_binomial(exp_int(3, 2, 1), 2)
    assert not is_endomorphism_bivariate(u)
    assert is_endomorphism_via_theorem(u)


# -- Hasse identity -------------------------------------------------------------

def test_hasse_identity_frozen():
    u = unit(2, [1, 1, 0, 0, 1, 1, 0, 0])
    assert hasse_identity_check(u, 0)
    assert hasse_identity_check(u, 1)
    assert all(hasse_identity_check(u, m) for m in range(8))
    assert not hasse_identity_check(unit(2, [1, 0, 1, 1]), 1)


@given(SMALL_OR_LARGE_PRIME, st.data())
def test_hasse_identity_matches_the_truncated_product(pn, data):
    """At every order m < N the check is a_m f == D^m f (1+x)^m, both
    sides as TruncSeries at precision N - m."""
    p, n = pn
    u = unit(p, _draw_coeffs(data, p, n))
    f = u.series
    for m in range(n):
        rest = n - m
        shift = pow_binomial(
            exp_int(p, m, digits_for_precision(Prime(p), rest)), rest)
        product = f.hasse_derivative(m) * shift.series
        scaled = f.coeffs[:rest] * u.coefficient(m) % p
        assert hasse_identity_check(u, m) == \
            (scaled.tolist() == product.coeffs.tolist())


def test_hasse_identity_bounds():
    u = unit(3, [1, 1, 1])
    with pytest.raises(PrecisionExhausted,
                       match="^order 3 exceeds what precision 3 supports$"):
        hasse_identity_check(u, 3)
    with pytest.raises(ValueError,
                       match="^derivative order must be nonnegative$"):
        hasse_identity_check(u, -1)


# -- automorphisms ---------------------------------------------------------------

def test_is_automorphism_frozen():
    assert is_automorphism(pow_binomial(exp_int(2, 5, 3), 8))
    assert not is_automorphism(pow_binomial(exp_int(2, 2, 3), 8))
    assert not is_automorphism(unit(2, [1, 0, 0, 0, 0, 0, 0, 0]))


def test_is_automorphism_rejects_non_endomorphisms():
    with pytest.raises(NotAnEndomorphism):
        is_automorphism(unit(2, [1, 0, 1, 1]))


def test_compose_frozen():
    cube = pow_binomial(exp_int(2, 3, 3), 8)
    assert compose_unit(cube, cube) == unit(2, [1, 1, 0, 0, 0, 0, 0, 0])


@given(SMALL_OR_LARGE_PRIME, st.data())
def test_compose_unit_matches_horner(pn, data):
    """Powers f go through the Frobenius product of g, others through
    Horner; both equal Horner's f(g - 1), N = 1 included."""
    p, n = pn
    f = unit(p, _draw_coeffs(data, p, n))
    g = unit(p, _draw_coeffs(data, p, n))
    inner = g.series - TruncSeries.constant(g.modulus, n)
    assert compose_unit(f, g).series == f.series.compose(inner)


@given(SMALL_OR_LARGE_PRIME, st.data())
def test_compose_multiplies_exponents(pn, data):
    p, n = pn
    k = digits_for_precision(Prime(p), n)
    a, b = _draw_exponent(data, p, k), _draw_exponent(data, p, k)
    assert compose_unit(pow_binomial(a, n), pow_binomial(b, n)) == \
        pow_binomial(a * b, n)


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_read_off_is_total_at_precision_one(p):
    one = unit(p, [1])
    assert _read_off(one) == ([0], 0, None)
    assert compose_unit(one, one) == one
    assert is_endomorphism_bivariate(one)
    with pytest.raises(PrecisionExhausted, match="precision 1 determines"):
        recover_exponent(one)


def _count_checked_objects(monkeypatch):
    """Count the validated objects built from here on, by class name."""
    built = {}
    for cls in (TruncSeries, PadicApprox, OneUnit):
        def spy(self, _check=cls.__post_init__, _name=cls.__name__):
            built[_name] = built.get(_name, 0) + 1
            _check(self)
        monkeypatch.setattr(cls, "__post_init__", spy)
    return built


@pytest.mark.parametrize("p, n", [(2, 7), (2, 128), (3, 100), (7, 49),
                                  (2**31 - 1, 16)])
def test_read_off_builds_checked_objects_only_for_answers(p, n, monkeypatch):
    """recover, the theorem and the box on a power (1+x)^m, m < N, read
    u's coefficients and compare them with the Lucas kernel; only the y
    that recover returns becomes a PadicApprox.  The theorem on a
    non-power and the Euclid branch of the rationality report, which
    runs on the kernel's (1+x)^Y, build none."""
    k = digits_for_precision(Prime(p), n)
    y = exp_int(p, p ** k - 3 * n // 4 - 1, k + 2)
    power = pow_binomial(y, n)
    values = power.series.coeffs.tolist()
    values[-1] = (values[-1] + 1) % p
    non_power = unit(p, values)
    box_power = pow_binomial(exp_int(p, n // 2, k), n)     # m < N passes
    w, r = n // 8, max(1, n // 8)
    assert p ** k - y.truncate(k).value > r     # not read off: the Euclid
    built = _count_checked_objects(monkeypatch)
    recover_exponent(power)
    assert built == {"PadicApprox": 1}
    built.clear()
    assert is_endomorphism_via_theorem(power)
    assert built == {"PadicApprox": 1}
    built.clear()
    assert not is_endomorphism_via_theorem(non_power)
    assert built == {}
    assert is_endomorphism_bivariate(box_power)
    assert built == {}
    rationality_report(y, n, w, r)
    assert built == {}


def test_frobenius_product_builds_only_its_answer(monkeypatch):
    """pow_product and compose_unit on a power run the Frobenius product
    on arrays and build one series, the answer; the box rows of a power
    (1+x)^m with m >= N run on arrays and build none."""
    y = exp_int(2, 77, 7)
    f, g = pow_binomial(y, 128), pow_binomial(exp_int(2, 45, 7), 128)
    fg = pow_binomial(exp_int(2, 77 * 45, 7), 128)
    past_n = pow_binomial(exp_int(3, 167, 5), 100)
    built = _count_checked_objects(monkeypatch)
    assert pow_product(y, 128) == f
    assert built == {"TruncSeries": 1, "OneUnit": 1}
    built.clear()
    assert compose_unit(f, g) == fg
    assert built == {"TruncSeries": 1, "OneUnit": 1}
    built.clear()
    assert not is_endomorphism_bivariate(past_n)
    assert built == {}


# (p, N, g, digits of y), each case on an edge of the Frobenius layout
FROBENIUS_EDGES = [
    (3, 10, [1, 1], (2, 1, 1)),      # q = 3, 9 divide no N: ragged classes
    (2, 20, [1, 1, 1], (1, 1, 1, 1, 1)),   # q = 8, 16 >= ceil(N/q) = 3, 2
    (5, 30, [1], (3, 4, 2)),         # g = 1: len(h) = 1 at every digit
    (7, 60, [1, 3, 0, 2], (1, 2, 1)),      # d deg + 1 = 4, 7 < L = 60, 9
    (2, 12, [1, 0, 1], (1, 0, 1, 1, 1, 1, 1)),   # digits past p^4 >= N
    (2**31 - 1, 40, [1, 5, 7], (2**31 - 2, 3)),  # two limbs, digit past N
]


@pytest.mark.parametrize("p, n, g, digits", FROBENIUS_EDGES)
def test_frobenius_power_at_layout_edges(p, n, g, digits):
    """g^y by the Frobenius product is f(g - 1), f = (1+x)^y, by Horner."""
    P = Prime(p)
    base = np.zeros(n, dtype=np.int64)
    base[:len(g)] = g
    k = digits_for_precision(P, n)
    f = pow_binomial(PadicApprox(P, digits + (0,) * (k - len(digits))), n)
    inner = base.copy()
    inner[0] = 0
    want = f.series.compose(TruncSeries(P, inner))
    assert _frobenius_power(base, digits, p).tolist() == want.coeffs.tolist()


def test_compose_unit_checks_compatibility_first():
    power = pow_binomial(exp_int(3, 2, 2), 4)
    with pytest.raises(ShapeMismatch, match="precision 4 vs 3"):
        compose_unit(power, power.truncate(3))
    with pytest.raises(ModulusMismatch, match="p=3 vs p=5"):
        compose_unit(power, pow_binomial(exp_int(5, 2, 1), 4))


def test_invert_automorphism_frozen():
    u = pow_binomial(exp_int(2, 5, 3), 8)
    assert invert_automorphism(u) == u  # 5 * 5 = 25 = 1 mod 8
    v = pow_binomial(exp_int(3, 2, 2), 9)
    assert invert_automorphism(v) == pow_binomial(exp_int(3, 5, 2), 9)


def test_invert_automorphism_composes_to_identity():
    rng = random.Random(5)
    for p, n in ((2, 16), (3, 27), (5, 25)):
        P = Prime(p)
        k = digits_for_precision(P, n)
        for _ in range(10):
            digits = (rng.randrange(1, p),) + tuple(
                rng.randrange(p) for _ in range(k - 1))
            u = pow_binomial(PadicApprox(P, digits), n)
            w = invert_automorphism(u)
            assert compose_unit(w, u) == OneUnit.one_plus_x(P, n)
            assert compose_unit(u, w) == OneUnit.one_plus_x(P, n)


def test_invert_automorphism_rejects_non_units():
    with pytest.raises(NonUnitExponent):
        invert_automorphism(pow_binomial(exp_int(2, 2, 3), 8))
    with pytest.raises(NotAnEndomorphism):
        invert_automorphism(unit(2, [1, 0, 1, 1]))


# -- coefficient periodicity and rationality -------------------------------------

def test_detect_coeff_period_with_explicit_window():
    u = pow_binomial(exp_int(2, 5, 5), 32)
    assert detect_coeff_period(u, 8, 8) == PeriodReport(6, 1)


def test_detect_coeff_period_default_window_is_an_eighth():
    u = pow_binomial(exp_int(2, 5, 5), 32)
    assert detect_coeff_period(u) is None  # preperiod 6 exceeds 32//8
    assert detect_coeff_period(pow_binomial(exp_int(2, -1, 5), 32)) == \
        PeriodReport(0, 1)


def test_coeffs_to_rational_frozen():
    u = pow_binomial(exp_int(2, 5, 5), 32)
    fn = coeffs_to_rational(u, PeriodReport(6, 1))
    assert fn == RationalFn(P2, (1, 1, 0, 0, 1, 1), (1,))


def test_coeffs_to_rational_report_longer_than_stream():
    """With w + r > N, P may reach past x^N; only P mod x^N is compared."""
    u = unit(2, [1, 0, 1, 1])
    fn = coeffs_to_rational(u, PeriodReport(3, 3))
    assert fn == RationalFn(P2, (1, 0, 1, 0, 0, 1), (1, 0, 0, 1))
    assert fn.expand(4) == u.series


def test_coeffs_to_rational_rejects_wrong_report():
    u = pow_binomial(exp_int(2, 5, 5), 32)
    with pytest.raises(InconsistentReport):
        coeffs_to_rational(u, PeriodReport(0, 1))


def test_rationality_report_positive_integer():
    r = rationality_report(exp_int(2, 7, 6), 64)
    assert r.integer_verdict.kind == "nonneg-integer"
    assert r.integer_verdict.value == 7
    assert r.coeff_period == PeriodReport(8, 1)
    assert r.rational == RationalFn(P2, (1,) * 8, (1,))
    assert r.consistent


def test_rationality_report_negative_integer():
    r = rationality_report(exp_int(3, -2, 4), 81)
    assert r.integer_verdict.kind == "negative-integer"
    assert r.integer_verdict.value == -2
    assert r.coeff_period == PeriodReport(0, 6)
    assert r.rational == RationalFn(P3, (1,), (1, 2, 1))
    assert r.consistent


def test_rationality_report_fraction_consistent():
    third = PadicApprox.from_fraction(P2, Fraction(1, 3), 9)
    r = rationality_report(third, 512, 64, 64)
    assert not r.integer_verdict.is_integer
    assert r.coeff_period is None
    assert r.rational is None
    assert r.consistent


def test_rationality_report_window_finding():
    """A window can be too small for the fraction it is probing.

    1/(1+x)^28 over F_3 has a denominator of degree 28, beyond the
    degree bound 24 that 64 coefficients with preperiod allowance 8 can
    certify; the report flags the disagreement instead of guessing.
    """
    r = rationality_report(exp_int(3, -28, 16), 64, 8, 24)
    assert r.integer_verdict.value == -28
    assert r.coeff_period is None
    assert not r.consistent


@given(st.sampled_from([2, 3, 5]), st.integers(-40, 40), st.integers(8, 96),
       st.data())
def test_rationality_report_matches_period_scan(p, y, n, data):
    """The fraction view keeps every report a two-period scan finds.

    Beyond those it reports only fractions that fit the window: every
    report re-expands to the stream, within the bounds, and its period
    is the order of x modulo its denominator.
    """
    P = Prime(p)
    k = digits_for_precision(P, n) + 2
    if data.draw(st.booleans(), label="integer exponent"):
        exponent = exp_int(p, y, k)
    else:
        exponent = PadicApprox(P, tuple(data.draw(
            st.lists(st.integers(0, p - 1), min_size=k, max_size=k),
            label="digits")))
    w = data.draw(st.integers(0, n // 2), label="max_preperiod")
    r = data.draw(st.integers(1, (n - w) // 2), label="max_period")
    coeffs = pow_binomial(exponent, n).series.coeffs.tolist()
    report = rationality_report(exponent, n, w, r)
    brute = brute_period(coeffs, w, r)
    if brute is not None:
        assert report.coeff_period == PeriodReport(*brute)
        assert report.rational == from_period(P, coeffs,
                                              PeriodReport(*brute))
    if report.coeff_period is None:
        assert report.rational is None
        return
    fn = report.rational
    assert fn.expand(n).coeffs.tolist() == coeffs
    assert report.coeff_period.preperiod == \
        max(0, len(fn.numerator) - len(fn.denominator) + 1) <= w
    assert len(fn.denominator) - 1 <= r
    assert report.coeff_period.period == \
        order_of_x_mod(fn.denominator, p, 2 * p * n)


@given(st.sampled_from([2, 3, 5]), st.integers(-40, 40), st.integers(8, 96),
       st.data())
def test_rationality_report_sees_fitting_integers(p, y, n, data):
    """(1+x)^y for an integer y is reported whenever its fraction fits.

    The fraction is (1+x)^y with preperiod y + 1 for y >= 0, and
    1/(1+x)^-y with preperiod 0 and a denominator of degree -y for y < 0,
    however long its period.
    """
    w = data.draw(st.integers(0, n // 2), label="max_preperiod")
    r = data.draw(st.integers(1, (n - w) // 2), label="max_period")
    exponent = exp_int(p, y, digits_for_precision(Prime(p), n) + 2)
    report = rationality_report(exponent, n, w, r)
    if (y + 1 <= w) if y >= 0 else (-y <= r):
        assert report.consistent and report.coeff_period is not None


def _x_power_mod(den, n, p):
    """x^n modulo den over F_p (den[-1] != 0), by square and multiply."""
    def reduce(poly):
        poly = list(poly) + [0] * (len(den) - 1 - len(poly))
        lead = pow(den[-1], -1, p)
        for top in range(len(poly) - 1, len(den) - 2, -1):
            c = poly[top] * lead % p
            for j, d in enumerate(den):
                poly[top - len(den) + 1 + j] -= c * d
        return [c % p for c in poly[:len(den) - 1]]

    def times(a, b):
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        return reduce(prod)

    result, base = reduce([1]), reduce([0, 1])
    while n:
        if n & 1:
            result = times(result, base)
        base, n = times(base, base), n >> 1
    return result


def _small_order_den(p, r, kind):
    """1 - x^r, 1 + x^r or 1 + x + ... + x^(r-1): orders r, 2r (odd p), r."""
    if kind == 0:
        return (1,) + (0,) * (r - 1) + (p - 1,)
    if kind == 1:
        return (1,) + (0,) * (r - 1) + (1,)
    return (1,) * r


@given(st.sampled_from([2, 3, 5, 7, 65537, 2**31 - 1]), st.integers(0, 12))
def test_period_of_is_the_order_of_x(p, e):
    """_period_of(e, p) is the order of x modulo (1+x)^e.

    The oracle confirms it where the order is small enough to walk, and
    beyond that x^n = 1 with x^(n/l) != 1 for the primes l | n = 2^a p^b.
    """
    den = tuple(math.comb(e, k) % p for k in range(e + 1))
    n = _period_of(e, p)
    if n <= 1 << 18:
        assert order_of_x_mod(den, p, n) == n
    else:
        one = _x_power_mod(den, 0, p)
        assert _x_power_mod(den, n, p) == one
        assert all(_x_power_mod(den, n // q, p) != one
                   for q in {2, p} if n % q == 0)


def _view(u, w, r):
    """The Euclid reference's coefficient view of the one-unit u's stream."""
    return euclid_coeff_view(u.modulus, u.series.coeffs, w, r)


@given(st.sampled_from([2, 3, 5, 7, 65537, 2**31 - 1]), st.data())
def test_coeff_view_reports_the_order_of_x(p, data):
    """On the stream of P/den, den no power of 1+x, the coefficient view
    reports the preperiod max(0, deg P - deg den + 1) and the order of x
    modulo den when they are at most W and R, else nothing.

    It is checked at R from deg den up, just below, at and above the
    order, with W + 2R <= N, tight or not, and W below, at and above the
    preperiod.  1/(1 - x^r + c x^e) repeats with period r below x^e, so
    for e >= 2r its first 2r terms alone show a false period r.
    """
    P = Prime(p)
    kind = data.draw(st.sampled_from(["small order", "near period", "random"]))
    if kind == "small order":
        den = _small_order_den(p, data.draw(st.integers(2, 24), label="r"),
                               data.draw(st.integers(0, 2), label="shape"))
    elif kind == "near period":             # 1/den = 1 + x^r + ... below x^e
        r = data.draw(st.integers(1, 8), label="r")
        e = data.draw(st.integers(2 * r, 2 * r + 6), label="deg")
        den = [1] + [0] * e
        den[r] = p - 1
        den[e] = data.draw(st.integers(1, p - 1), label="lead")
        den = tuple(den)
    else:
        e = data.draw(st.integers(1, 6), label="deg")
        den = tuple([1] + [data.draw(st.integers(0, p - 1)) for _ in range(e - 1)]
                    + [data.draw(st.integers(1, p - 1), label="lead")])
    degree = len(den) - 1
    if den == tuple(math.comb(degree, k) % p for k in range(degree + 1)):
        return                              # a power of 1+x after all
    lead = data.draw(st.integers(0, 4), label="preperiod")
    num = (1,) + (0,) * (degree + lead - 2) + (1,) if degree + lead > 1 else (1,)
    try:
        fn = RationalFn(P, num, den)
    except ValueError:                      # a common factor
        fn, lead = RationalFn(P, (1,), den), 0
    order = order_of_x_mod(den, p, 256)
    bounds = {degree, degree + 1, data.draw(st.integers(degree, 64), label="R")}
    if order is not None:
        bounds |= {order - 1, order, order + 1} - set(range(degree))
    for r in sorted(bounds):
        w = data.draw(st.integers(max(0, lead - 1), lead + 2), label="W")
        # N >= deg P + R + 1 too: then no other fraction of the window's
        # type fits all N terms
        n = max(w + 2 * r, degree + lead + r) + \
            data.draw(st.integers(0, 3), label="N - W - 2R")
        u = OneUnit(fn.expand(n))
        found = order is not None and order <= r and lead <= w
        want = (PeriodReport(lead, order), fn) if found else None
        assert _view(u, w, r) == want, (fn, w, r, n)
        assert detect_coeff_period(u, w, r) == (want and want[0])


def test_coeff_view_bounds_other_denominators_by_max_period():
    """1/(1+x+x^4) over F_2 has period 15: no report at R = 8, one at 16."""
    u = OneUnit(RationalFn(P2, (1,), (1, 1, 0, 0, 1)).expand(64))
    assert _view(u, 8, 8) is None
    report, fn = _view(u, 8, 16)
    assert report == PeriodReport(0, 15) == detect_coeff_period(u, 8, 16)
    assert fn == RationalFn(P2, (1,), (1, 1, 0, 0, 1))


def _draw_power(data, p, n):
    """(1+x)^Y with Y near 0, near q = p^K or uniform below q, its exponent
    given with one or two digits to spare (the tail rule reads two)."""
    k = digits_for_precision(Prime(p), n)
    q = p ** k
    kind = data.draw(st.sampled_from(["near 0", "near q", "uniform"]),
                     label="kind")
    if kind == "near 0":
        y = data.draw(st.integers(0, min(n, q - 1)), label="Y")
    elif kind == "near q":
        y = q - data.draw(st.integers(1, min(n + 1, q)), label="q - Y")
    else:
        y = data.draw(st.integers(0, q - 1), label="Y")
    y += q * data.draw(st.integers(0, p * p - 1), label="above q")
    return exp_int(p, y, k + data.draw(st.integers(1, 2), label="spare"))


def _reported_view(exponent, n, w, r):
    report = rationality_report(exponent, n, w, r)
    if report.coeff_period is None:
        assert report.rational is None
        return None
    return report.coeff_period, report.rational


def _spy_scans(monkeypatch):
    """Count rationality_report's period scans, and its from_pade runs
    inside and outside from_period."""
    calls = {"scan": 0, "pade in from_period": 0, "pade elsewhere": 0}
    inside = []

    def scan(*args):
        calls["scan"] += 1
        return find_period(*args)

    def period(*args):
        inside.append(True)
        try:
            return from_period(*args)
        finally:
            inside.pop()

    def pade(*args):
        calls["pade in from_period" if inside else "pade elsewhere"] += 1
        return from_pade(*args)

    monkeypatch.setattr(units, "find_period", scan)
    monkeypatch.setattr(units, "from_period", period)
    monkeypatch.setattr(ratfn, "from_pade", pade)
    return calls


def _scan_runs(p, q, y, n, w, r):
    """The period scan runs on (1+x)^Y, e = q - Y, exactly when
    1/(1+x)^e is not read off (e > R), Y lies in neither no-fit range
    (W <= Y < N - R, or e + W + R - 1 < N) and no j <= R leaves
    T = (1+x)^(Y+j) mod x^N of degree below W + R; T is built by Pascal's
    rule here, one j after the other."""
    e = q - y
    if e <= r or w <= y < n - r or e + w + r - 1 < n:
        return False
    t = [math.comb(y, i) % p for i in range(n)]
    for _ in range(r + 1):
        if max(i for i in range(n) if t[i]) < w + r:
            return False
        t = t[:1] + [(t[i] + t[i - 1]) % p for i in range(1, n)]
    return True


def _assert_scans(calls, scans):
    """The scan ran scans times, from_pade only inside from_period, and
    from_period only on a scan's report."""
    assert calls["scan"] == scans
    assert calls["pade elsewhere"] == 0
    assert calls["pade in from_period"] <= scans


def _draw_window(data, n):
    """W and R with W + 2R <= N, half of them tight (W + 2R = N - 1 or N)."""
    w = data.draw(st.integers(0, n - 2), label="W")
    top = (n - w) // 2
    r = data.draw(st.one_of(st.just(top), st.integers(1, top)), label="R")
    return w, r


@given(SMALL_OR_LARGE_PRIME, st.data())
def test_coeff_view_matches_the_pade_oracle(pn, data):
    """The report's coefficient view is the Euclid reference's on
    (1+x)^y, whether 1/(1+x)^(q-Y) is read off, no fraction can fit, the
    binomial rule reads the fraction off or the period scan decides, at
    small p and at p = 65537 and 2^31 - 1.  The scan runs by
    :func:`_scan_runs`, and from_pade only inside from_period."""
    p, n = pn
    n = max(n, 2)
    q = p ** digits_for_precision(Prime(p), n)
    exponent = _draw_power(data, p, n)
    w, r = _draw_window(data, n)
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_scans(mp)
        view = _reported_view(exponent, n, w, r)
    assert view == _view(pow_binomial(exponent, n), w, r)
    _assert_scans(calls, _scan_runs(p, q, exponent.value % q, n, w, r))


@given(SMALL_OR_LARGE_PRIME, st.data())
def test_report_matches_the_euclid_reference(pn, data):
    """The report's (coeff_period, rational) is, in repr, the view that
    the extended Euclid of :func:`oracles.euclid_coeff_view` finds on the
    N coefficients of (1+x)^y, for tight and loose windows alike."""
    p, n = pn
    n = max(n, 2)
    exponent = _draw_power(data, p, n)
    w, r = _draw_window(data, n)
    report = rationality_report(exponent, n, w, r)
    reference = _view(pow_binomial(exponent, n), w, r)
    assert repr((report.coeff_period, report.rational)) == \
        repr(reference if reference is not None else (None, None))


@given(SMALL_OR_LARGE_PRIME, st.data())
def test_report_matches_the_binomial_rule(pn, data):
    """The report's (coeff_period, rational) is the binomial rule's view:
    the least j <= R with (1+x)^(Y+j) mod x^N of degree below W + R gives
    the fraction, and the period scan decides when no j does.  The
    report reads the degree off digits and divides nothing out; the
    oracle builds each (1+x)^(Y+j) and divides out common factors 1+x."""
    p, n = pn
    n = max(n, 2)
    exponent = _draw_power(data, p, n)
    w, r = _draw_window(data, n)
    report = rationality_report(exponent, n, w, r)
    rule = binomial_rule_view(exponent, n, w, r)
    assert repr((report.coeff_period, report.rational)) == \
        repr(rule if rule is not None else (None, None))


COEFF_VIEW_GRID = ((2, 16), (2, 12), (3, 9), (3, 7), (5, 5), (5, 8), (7, 7))


def test_coeff_view_matches_the_pade_oracle_exhaustively(monkeypatch):
    """Every Y < q and every window W + 2R <= N, at small p and N: the
    view is the Euclid reference's, and the period scan runs by
    :func:`_scan_runs`."""
    calls = _spy_scans(monkeypatch)
    for p, n in COEFF_VIEW_GRID:
        k = digits_for_precision(Prime(p), n)
        for y in range(p ** k):
            exponent = exp_int(p, y, k + 1)
            u = pow_binomial(exponent, n)
            for w in range(n - 1):
                for r in range(1, (n - w) // 2 + 1):
                    calls.update(dict.fromkeys(calls, 0))
                    assert _reported_view(exponent, n, w, r) == \
                        _view(u, w, r), (p, n, y, w, r)
                    _assert_scans(calls, _scan_runs(p, p ** k, y, n, w, r))


@pytest.mark.parametrize("p, n, w, r", [(3, 256, 32, 112), (5, 256, 32, 112),
                                        (2, 64, 8, 8), (3, 81, 5, 20),
                                        (5, 30, 2, 14)])
def test_power_fraction_reads_exactly_the_type_range(p, n, w, r, monkeypatch):
    """1/(1+x)^(q-Y) is read off for 1 <= q - Y <= R and for no other Y;
    the view is None with no search for W <= Y < N - R and for
    q - Y + W + R - 1 < N, and every other stream, the polynomials
    (1+x)^Y with Y < W included, goes to the binomial rule, with a period
    scan only where no j <= R qualifies.  The first two windows are
    criterion 7's; Y = W is the first of the middle range, and
    q - Y = N - W - R the last of the upper one (read off when
    W + 2R = N)."""
    k = digits_for_precision(Prime(p), n)
    q = p ** k
    calls = _spy_scans(monkeypatch)
    for e in (r + 1, r, 1, q, q - 1, q - w - r + 1, q - w - r, q - w,
              n - w - r):
        exponent = exp_int(p, q - e, k)
        calls.update(dict.fromkeys(calls, 0))
        report = rationality_report(exponent, n, w, r)
        if 1 <= e <= r:
            power = pow_binomial(exp_int(p, e, k), e + 1)
            den = tuple(power.series.coeffs.tolist())
            assert report.rational == RationalFn(Prime(p), (1,), den)
            assert report.coeff_period == \
                PeriodReport(0, _period_of(e, p))
        _assert_scans(calls, _scan_runs(p, q, q - e, n, w, r))
        assert _reported_view(exponent, n, w, r) == \
            _view(pow_binomial(exponent, n), w, r)


def test_coeff_view_divides_by_the_least_power(monkeypatch):
    """(1+x)^9 over F_2 at N = 12, W = 6, R = 3 is no inverse power:
    q - 9 = 7 > R, 9 >= N - R and 7 + W + R - 1 >= N.  (1+x)^(9+j) mod
    x^12 has degree 9, 10, 11 and 8 for j = 0..3, above W + R - 1 = 8
    until j = 3, which gives (1 + x^4 + x^8) / (1+x)^3, of preperiod 6
    and period 4, with no period scan and no Euclid."""
    calls = _spy_scans(monkeypatch)
    exponent = exp_int(2, 9, 4)
    report = rationality_report(exponent, 12, 6, 3)
    _assert_scans(calls, 0)
    fn = RationalFn(P2, (1, 0, 0, 0, 1, 0, 0, 0, 1), (1, 1, 1, 1))
    assert (report.coeff_period, report.rational) == (PeriodReport(6, 4), fn)
    assert _view(pow_binomial(exponent, 12), 6, 3) == \
        (PeriodReport(6, 4), fn)


def test_coeff_view_falls_back_to_the_period_scan(monkeypatch):
    """(1+x)^3 = 1 + x^3 over F_3 at N = 6, W = 0, R = 3: q - 3 = 6 > R,
    3 >= N - R and 6 + W + R - 1 >= N, and (1+x)^(3+j) mod x^6 has degree
    3, 4, 5 and 3 for j = 0..3, above W + R - 1 = 2.  So the period scan
    runs once and finds period 3, and from_period the fraction
    1/(1 + 2x^3)."""
    calls = _spy_scans(monkeypatch)
    exponent = exp_int(3, 3, 3)
    report = rationality_report(exponent, 6, 0, 3)
    assert calls == {"scan": 1, "pade in from_period": 1, "pade elsewhere": 0}
    fn = RationalFn(P3, (1,), (1, 0, 0, 2))
    assert (report.coeff_period, report.rational) == (PeriodReport(0, 3), fn)
    assert _view(pow_binomial(exponent, 6), 0, 3) == (PeriodReport(0, 3), fn)


def test_expand_rational_queries_run_no_euclid(monkeypatch):
    """The 208 rationality queries of the expand-rational workload,
    criterion 7's 183 integers (N = 256, W = 32, R = 112) and criterion
    8's fractions at N = 512, W = R = 64 and five digit counts, are all
    decided by a read-off, a no-fit range or j = 0: ratfn's extended
    Euclid never runs, not even to check a fraction's coprimality."""
    euclid_runs, euclid_reference = [], ratfn._euclid

    def euclid(*args):
        euclid_runs.append(args)
        return euclid_reference(*args)

    monkeypatch.setattr(ratfn, "_euclid", euclid)
    for p in (2, 3, 5):
        for y in range(-30, 31):
            rationality_report(exp_int(p, y, 16), 256, 32, 112)
    for p, y in ((2, Fraction(1, 3)), (2, Fraction(1, 5)),
                 (2, Fraction(-1, 7)), (3, Fraction(1, 5)),
                 (3, Fraction(-1, 7))):
        k0 = digits_for_precision(Prime(p), 512)
        for k in range(k0, k0 + 5):
            exponent = PadicApprox.from_fraction(Prime(p), y, k)
            rationality_report(exponent, 512, 64, 64)
    assert euclid_runs == []


@pytest.mark.parametrize("y, k", [(Fraction(1, 5), 10), (Fraction(1, 5), 12),
                                  (Fraction(-1, 7), 9), (Fraction(-1, 7), 12)])
def test_rationality_report_vetoes_unlucky_phases(y, k):
    """The tail rule reads these windows as integers (205, -819, 73, 585);
    the much shorter fraction of the same digits overrules it."""
    exponent = PadicApprox.from_fraction(P2, y, k)
    assert exponent.is_integer_window().is_integer
    r = rationality_report(exponent, 512, 64, 64)
    assert r.integer_verdict.kind == "not-integer-in-window"
    assert r.coeff_period is None and r.consistent


@given(st.sampled_from([2, 3, 5, 7]), st.integers(2, 24), st.data())
def test_veto_keeps_integers_below_the_reconstruction_bound(p, k, data):
    """An integer y with 2 y^2 <= p^K is its own rational reconstruction,
    so the tail rule's reading of it is never overruled."""
    bound = math.isqrt(p ** k // 2)
    exponent = exp_int(p, data.draw(st.integers(-bound, bound)), k)
    assert _integer_view(exponent) == exponent.is_integer_window()


def test_rationality_report_window_too_small():
    with pytest.raises(WindowTooSmall):
        rationality_report(exp_int(3, -28, 16), 64, 8, 29)


# -- enumeration ------------------------------------------------------------------

def test_enumerate_frozen_small():
    got = [u.series.coeffs.tolist() for u in enumerate_endomorphisms(P2, 4)]
    assert got == [[1, 0, 0, 0], [1, 0, 1, 0], [1, 1, 0, 0], [1, 1, 1, 1]]
    got3 = [u.series.coeffs.tolist() for u in enumerate_endomorphisms(P3, 3)]
    assert got3 == [[1, 0, 0], [1, 1, 0], [1, 2, 1]]


def test_enumerate_counts_are_p_to_the_k():
    assert len(enumerate_endomorphisms(P2, 8)) == 8
    assert len(enumerate_endomorphisms(P3, 9)) == 9
    assert len(enumerate_endomorphisms(P5, 5)) == 5


@pytest.mark.parametrize("p, n", [(2, 3), (2, 5), (2, 6), (3, 2), (3, 4),
                                  (5, 3)])
def test_enumerate_matches_box_filter_off_prime_powers(p, n):
    """Off N = p^k the census is the N powers (1+x)^m, m < N, not p^K."""
    P = Prime(p)
    brute = [u for u in _all_units(P, n) if _box_oracle(u) is None]
    assert enumerate_endomorphisms(P, n) == brute
    assert len(brute) == n


def test_enumerate_refuses_large_spaces():
    with pytest.raises(TooLargeToEnumerate):
        enumerate_endomorphisms(P2, 22)


@pytest.mark.parametrize("p, n, count", [(2, 22, "2097152"),
                                         (2, 20000, "2^19999"),
                                         (2**31 - 1, 2**20, "2147483647^1048575")])
def test_enumerate_refuses_without_forming_huge_counts(p, n, count):
    """N - 1 > 20 tails exceed 2^20 for any p; a count past 2^4096 is
    named p^(N-1), not formed, so the refusal is immediate."""
    P = Prime(p)
    start = time.perf_counter()
    with pytest.raises(TooLargeToEnumerate) as exc:
        enumerate_endomorphisms(P, n)
    assert time.perf_counter() - start < 0.5
    assert str(exc.value) == \
        f"{count} candidates at p={p}, N={n}; refusing beyond 2^20"


def test_linear_coefficient_vanishes_iff_frobenius_image():
    """Among endomorphisms, a_1 = 0 exactly for p-th powers."""
    for P, n in ((P2, 8), (P3, 9)):
        for u in enumerate_endomorphisms(P, n):
            support_p = all(
                u.coefficient(i) == 0 for i in range(n) if i % P.p)
            assert (u.coefficient(1) == 0) == support_p
