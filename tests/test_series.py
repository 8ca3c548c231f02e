"""Truncated power series over F_p."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oneunits import (ModulusMismatch, NonUnitConstantTerm,
                      NonzeroConstantInner, OneUnit, PadicApprox, Prime,
                      PrecisionExhausted, ShapeMismatch, TruncSeries,
                      pow_product)
from oneunits.series import _convolve_mod, _pow_mod
from oracles import (block_base, frobenius, naive_mul, object_convolve_mod,
                     outer_product, pascal_binom, power_by_squaring,
                     subst_group_law)

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def series(p, values):
    return TruncSeries.from_ints(Prime(p), values)


def rand_series(rng, p, n, unit=False):
    c = [rng.randrange(p) for _ in range(n)]
    if unit:
        c[0] = rng.randrange(1, p)
    return series(p, c)


# -- construction and basics ------------------------------------------------

def test_from_ints_reduces_mod_p():
    assert series(3, [1, 3, -1]) == series(3, [1, 0, 2])


def test_raw_constructor_wants_residues():
    with pytest.raises(ValueError):
        TruncSeries(P3, np.array([1, 3]))
    with pytest.raises(ValueError):
        TruncSeries(P3, np.array([1, -1]))
    with pytest.raises(ValueError, match="residues"):
        TruncSeries(P3, [1, 2**70])


def test_series_owns_its_coefficients():
    """The constructor copies: a later write to the caller's array does not
    reach the series, and the caller's array stays writable."""
    a = np.array([1, 2, 0, 1])
    s = TruncSeries(P3, a[:3])
    a[1] = 0
    assert s.coeffs.tolist() == [1, 2, 0]
    b = np.array([1, 2, 0], dtype=np.int64)
    t = TruncSeries(P3, b)
    b[0] = 2
    assert b.flags.writeable
    assert t.coeffs.tolist() == [1, 2, 0] and not t.coeffs.flags.writeable


def test_rejects_empty():
    with pytest.raises(ValueError):
        series(2, [])


@pytest.mark.parametrize("p", [2, 3, 65537, 2**31 - 1])
def test_constants_come_from_the_kernel(p):
    """1 and 1 + x equal the hand-built arrays at every precision, including
    both sides of the kernel's first 64-entry block at p = 2, and an empty
    or negative precision meets the constructor's own check."""
    modulus = Prime(p)
    for n in (1, 2, 64, 65, 70):
        assert TruncSeries.one_plus_x(modulus, n).coeffs.tolist() == \
            ([1, 1] + [0] * n)[:n]
        assert OneUnit.one_plus_x(modulus, n).series == \
            TruncSeries.one_plus_x(modulus, n)
        for value in (1, 0, -1, p + 5, 2**40 + 3):
            assert TruncSeries.constant(modulus, n, value).coeffs.tolist() == \
                [value % p] + [0] * (n - 1)
        assert TruncSeries.one_plus_x(modulus, n).pow_int(0) == \
            TruncSeries.constant(modulus, n)
    for n in (0, -1):
        for build in (TruncSeries.one_plus_x, TruncSeries.constant,
                      OneUnit.one_plus_x):
            with pytest.raises(ValueError, match="1-d and nonempty"):
                build(modulus, n)


def test_coefficient_and_precision():
    f = series(5, [1, 2, 3])
    assert f.precision == 3
    assert [f.coefficient(i) for i in range(3)] == [1, 2, 3]
    with pytest.raises(PrecisionExhausted):
        f.coefficient(3)


def test_truncate():
    f = series(5, [1, 2, 3, 4])
    assert f.truncate(2) == series(5, [1, 2])
    assert f.truncate(4) == f
    with pytest.raises(PrecisionExhausted):
        f.truncate(5)
    with pytest.raises(PrecisionExhausted):
        f.truncate(0)


def test_equality_is_exact():
    assert series(2, [1, 1]) != series(2, [1, 1, 0])
    assert series(2, [1, 1]) != series(3, [1, 1])


# -- ring operations --------------------------------------------------------

def test_square_of_one_plus_x_char_2():
    f = TruncSeries.one_plus_x(P2, 4)
    assert f.pow_int(2) == series(2, [1, 0, 1, 0])


def test_fourth_power_char_3():
    f = TruncSeries.one_plus_x(P3, 5)
    assert f.pow_int(4) == series(3, [1, 1, 0, 1, 1])


def test_pow_int_rejects_negative():
    with pytest.raises(ValueError):
        TruncSeries.one_plus_x(P2, 3).pow_int(-1)


@pytest.mark.parametrize("p", [2, 3, 65537, 2**31 - 1])
@pytest.mark.parametrize("which", ["0", "1", "2", "p-1", "p", "random"])
def test_pow_mod_matches_left_to_right_squaring(p, which):
    """_pow_mod and pow_int give a^e mod x^len(a) at every length from 1,
    a^0 being 1; p = 2^31 - 1 takes two limbs per product."""
    rng = random.Random(f"{p} {which}")
    for n in range(1, 10):
        a = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
        a.setflags(write=False)                 # the kernel only reads a
        e = {"0": 0, "1": 1, "2": 2, "p-1": p - 1, "p": p,
             "random": rng.randrange(3, 10**12)}[which]
        want = power_by_squaring(a.tolist(), e,
                                 lambda u, v: naive_mul(u, v, p, n),
                                 [1] + [0] * (n - 1))
        got = _pow_mod(a, e, p)
        assert got.dtype == np.int64 and got.tolist() == want
        assert TruncSeries(Prime(p), a).pow_int(e).coeffs.tolist() == want


def test_mixed_precision_rejected():
    with pytest.raises(ShapeMismatch):
        series(2, [1, 1]) * series(2, [1, 1, 0])
    with pytest.raises(ShapeMismatch):
        series(2, [1, 1]) + series(2, [1])


def test_mixed_modulus_rejected():
    with pytest.raises(ModulusMismatch):
        series(2, [1, 1]) * series(3, [1, 1])


def test_mul_matches_schoolbook():
    rng = random.Random(7)
    for p in (2, 3, 5, 65537, 2**31 - 1):
        for _ in range(25):
            n = rng.randrange(1, 14)
            f, g = rand_series(rng, p, n), rand_series(rng, p, n)
            want = naive_mul(f.coeffs.tolist(), g.coeffs.tolist(), p, n)
            assert (f * g).coeffs.tolist() == want


# -- the limb convolution ----------------------------------------------------

LIMB_PRIMES = [2, 3, 5, 65537, 2**31 - 1, 2147483629]


@pytest.mark.parametrize("p", [65537, 2**31 - 1, 2147483629])
@pytest.mark.parametrize("length", [1, 2, 4096, 32768, 32769])
def test_convolve_mod_is_exact_at_the_largest_sums(p, length):
    """All p-1 against all p-1 makes every partial sum the largest a limb
    allows: coefficient k of the full product is min(k+1, 2L-1-k) (p-1)^2,
    so min(k+1, 2L-1-k) mod p.  At p = 2^31 - 1 the lengths take 1, 2, 2,
    2 and 3 limbs."""
    a = np.full(length, p - 1, dtype=np.int64)
    k = np.arange(2 * length - 1)
    got = _convolve_mod(a, a, 2 * length - 1, p)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.minimum(k + 1, 2 * length - 1 - k) % p)


def _residues(rng, p, length):
    """Random residues, a quarter of them p - 1 (every bit of a limb set)."""
    return np.array([p - 1 if rng.random() < 0.25 else rng.randrange(p)
                     for _ in range(length)], dtype=np.int64)


@given(st.sampled_from(LIMB_PRIMES), st.integers(1, 64), st.integers(1, 64),
       st.integers(1, 140), st.integers(0, 10**6))
def test_convolve_mod_matches_schoolbook(p, la, lb, n, seed):
    """Unequal lengths, n below and above la + lb - 1: the values are the
    schoolbook product's, as int64, of length min(n, la + lb - 1)."""
    rng = random.Random(seed)
    a, b = _residues(rng, p, la), _residues(rng, p, lb)
    got = _convolve_mod(a, b, n, p)
    want = naive_mul(a.tolist(), b.tolist(), p, n)
    assert got.dtype == np.int64 and len(got) == min(n, la + lb - 1)
    assert got.tolist() == want[:len(got)] and not any(want[len(got):])


@pytest.mark.parametrize("p", LIMB_PRIMES)
@pytest.mark.parametrize("la, lb, n", [(4096, 257, 4096), (300, 4096, 5000),
                                       (1024, 1024, 1024), (1500, 2000, 4096),
                                       (700, 900, 1000), (65, 3, 4096)])
def test_convolve_mod_matches_the_object_convolution(p, la, lb, n):
    """Long products agree with one convolution of Python integers, which
    pads to n where the limbs stop at la + lb - 1."""
    rng = random.Random(f"{p} {la} {lb} {n}")
    a, b = _residues(rng, p, la), _residues(rng, p, lb)
    got = _convolve_mod(a, b, n, p)
    want = object_convolve_mod(a, b, n, p)
    assert got.dtype == np.int64 and len(got) == min(n, la + lb - 1)
    assert np.array_equal(got, want[:len(got)]) and not want[len(got):].any()


def test_invert_one_plus_x_frozen():
    assert TruncSeries.one_plus_x(P3, 4).invert() == series(3, [1, 2, 1, 2])
    assert TruncSeries.one_plus_x(P2, 6).invert() == series(2, [1] * 6)


def test_invert_requires_unit():
    with pytest.raises(NonUnitConstantTerm):
        series(5, [0, 1]).invert()


@given(st.sampled_from([2, 3, 5]), st.integers(1, 20), st.integers(0, 10**6))
def test_invert_round_trip(p, n, seed):
    rng = random.Random(seed)
    f = rand_series(rng, p, n, unit=True)
    one = TruncSeries.constant(Prime(p), n)
    assert f * f.invert() == one


@given(st.sampled_from([2, 3, 5]), st.integers(1, 12), st.integers(0, 10**6))
def test_ring_laws(p, n, seed):
    rng = random.Random(seed)
    f = rand_series(rng, p, n)
    g = rand_series(rng, p, n)
    h = rand_series(rng, p, n)
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == TruncSeries.constant(Prime(p), n, 0)


# -- Hasse derivatives ------------------------------------------------------

def test_hasse_frozen_char_2():
    f = series(2, [1, 1, 0, 0, 1, 1, 0, 0])
    assert f.hasse_derivative(1) == series(2, [1, 0, 0, 0, 1, 0, 0])


def test_hasse_frozen_char_3():
    f = TruncSeries.one_plus_x(P3, 5).pow_int(4)
    assert f.hasse_derivative(3) == series(3, [1, 1])


def test_hasse_order_zero_is_identity():
    f = series(5, [1, 4, 2])
    assert f.hasse_derivative(0) == f


def test_hasse_order_bounds():
    f = series(3, [1, 1, 1])
    with pytest.raises(PrecisionExhausted):
        f.hasse_derivative(3)
    with pytest.raises(ValueError):
        f.hasse_derivative(-1)


@given(st.sampled_from([2, 3, 5, 7, 61, 67, 2**31 - 1]),
       st.integers(0, 10**6), st.data())
def test_hasse_matches_pascal(p, seed, data):
    """The Lucas kernel over the digits of -m-1 gives C(n, m) at every n,
    for N up to 40 and at the block edges N = B - 1, B, B + 1, B^2 + 1,
    with orders m at the edges too.  The additive triangle checks N <= 40,
    exact integers the rest."""
    base = block_base(p)
    edges = [base - 1, base, base + 1, base**2 + 1] if p < 100 else [300]
    n = data.draw(st.one_of(st.integers(1, 40), st.sampled_from(edges)),
                  label="N")
    f = rand_series(random.Random(seed), p, n)
    orders = [m for m in (1, base, base + 1, n - 1) if m < n]
    m = data.draw(st.one_of(st.integers(0, n - 1), st.sampled_from(orders)),
                  label="order")
    binom = pascal_binom if n <= 40 else lambda a, b, p: math.comb(a, b) % p
    c = f.coeffs.tolist()
    assert f.hasse_derivative(m).coeffs.tolist() == [
        binom(i + m, m, p) * c[i + m] % p for i in range(n - m)]


@given(st.sampled_from([2, 3, 5]), st.integers(2, 14), st.integers(0, 10**6),
       st.data())
def test_hasse_composition_rule(p, n, seed, data):
    """D^i D^j = C(i+j, i) D^(i+j), the reason these are not plain d/dx."""
    rng = random.Random(seed)
    f = rand_series(rng, p, n)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1 - i))
    lhs = f.hasse_derivative(j).hasse_derivative(i)
    c = pascal_binom(i + j, i, p)
    rhs = f.hasse_derivative(i + j).coeffs * c % p
    assert lhs.coeffs.tolist() == rhs.tolist()


@given(st.sampled_from([2, 3, 5]), st.integers(2, 12), st.integers(0, 10**6),
       st.data())
def test_hasse_product_rule(p, n, seed, data):
    rng = random.Random(seed)
    f = rand_series(rng, p, n)
    g = rand_series(rng, p, n)
    m = data.draw(st.integers(1, n - 1))
    lhs = (f * g).hasse_derivative(m)
    rhs = TruncSeries.constant(Prime(p), n - m, 0)
    for i in range(m + 1):
        a = f.hasse_derivative(i).truncate(n - m)
        b = g.hasse_derivative(m - i).truncate(n - m)
        rhs = rhs + a * b
    assert lhs == rhs


# -- frobenius: the p-th power is x -> x^p -----------------------------------

def test_frobenius_keeps_precision():
    f = TruncSeries.one_plus_x(P2, 8)
    assert f.pow_int(2) == series(2, [1, 0, 1, 0, 0, 0, 0, 0])
    g = series(3, [1, 1, 1, 0, 0, 0, 0, 0, 0])
    assert g.pow_int(3) == series(3, [1, 0, 0, 1, 0, 0, 1, 0, 0])
    assert frobenius(g.coeffs.tolist(), 3) == [1, 0, 0, 1, 0, 0, 1, 0, 0]


@given(st.sampled_from([2, 3, 5]), st.integers(1, 16), st.integers(0, 10**6))
def test_frobenius_is_pth_power(p, n, seed):
    rng = random.Random(seed)
    f = rand_series(rng, p, n)
    assert f.pow_int(p).coeffs.tolist() == frobenius(f.coeffs.tolist(), p)


@given(st.sampled_from([2, 3, 5]), st.integers(1, 40),
       st.integers(-10**6, 10**6))
def test_root_undoes_frobenius(p, n, y):
    """(1+x)^(py) is (1+x)^y at x^p, so its every p-th coefficient is
    (1+x)^y at precision floor((N-1)/p) + 1, and it is zero elsewhere."""
    P = Prime(p)
    short = (n - 1) // p + 1
    power = pow_product(PadicApprox.from_integer(P, p * y, n + 1), n).series
    base = pow_product(PadicApprox.from_integer(P, y, n + 1), short).series
    assert power.coeffs[::p].tolist() == base.coeffs.tolist()
    assert power.coeffs.tolist() == frobenius(
        base.coeffs.tolist() + [0] * (n - short), p)


# -- composition ------------------------------------------------------------

def test_compose_with_x_is_identity():
    f = series(5, [1, 2, 3, 4])
    x = series(5, [0, 1, 0, 0])
    assert f.compose(x) == f


def test_compose_frozen():
    f = TruncSeries.one_plus_x(P2, 3)
    inner = series(2, [0, 1, 1])
    assert f.compose(inner) == series(2, [1, 1, 1])


def test_compose_power_of_group_element():
    cube = TruncSeries.one_plus_x(P2, 8).pow_int(3)
    inner = cube - TruncSeries.constant(P2, 8)
    assert cube.compose(inner) == series(2, [1, 1, 0, 0, 0, 0, 0, 0])


def test_compose_rejects_nonzero_constant():
    f = series(3, [1, 1])
    with pytest.raises(NonzeroConstantInner):
        f.compose(series(3, [1, 1]))


# -- two-variable boxes -----------------------------------------------------

def test_group_law_box_of_one_plus_x():
    f = TruncSeries.one_plus_x(P2, 2)
    box = subst_group_law(f)
    assert box == outer_product(f, f)
    assert box.table.tolist() == [[1, 1], [1, 1]]


def test_group_law_box_of_square():
    f = TruncSeries.one_plus_x(P2, 3).pow_int(2)
    assert subst_group_law(f) == outer_product(f, f)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 130),
       st.integers(0, 10**6))
def test_group_law_rows_are_shifted_hasse_derivatives(p, n, seed):
    """Row i of f(x + y + xy) is (1+y)^i D^i f(y), at every N.

    f(y + x(1+y)) expands by Taylor's formula in Hasse derivatives, and
    the expansion is exact because f is a polynomial of degree below N.
    """
    f = rand_series(random.Random(seed), p, n)
    box = subst_group_law(f).table
    for i in range(n):
        shift = [math.comb(i, j) % p for j in range(i + 1)]
        row = np.convolve(shift, f.hasse_derivative(i).coeffs)[:n] % p
        assert box[i].tolist() == row.tolist()


def test_first_mismatch_row_major():
    f = TruncSeries.one_plus_x(P2, 2)
    g = TruncSeries.constant(P2, 2)
    a = outer_product(f, f)
    b = outer_product(f, g)
    assert a.first_mismatch(a) is None
    assert a.first_mismatch(b) == (0, 1)


def test_box_shape_checks():
    f2 = TruncSeries.one_plus_x(P2, 2)
    f3 = TruncSeries.one_plus_x(P2, 3)
    with pytest.raises(ShapeMismatch):
        outer_product(f2, f2).first_mismatch(outer_product(f3, f3))
    with pytest.raises(ModulusMismatch):
        outer_product(f2, f2).first_mismatch(
            outer_product(TruncSeries.one_plus_x(P3, 2),
                          TruncSeries.one_plus_x(P3, 2)))


# -- text form --------------------------------------------------------------

def test_serialize_frozen():
    f = series(2, [1, 1, 0, 0, 1, 1, 0, 0])
    assert f.serialize() == "p=2;N=8;coeffs=1,1,0,0,1,1,0,0"


def test_parse_round_trip():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(10):
            f = rand_series(rng, p, rng.randrange(1, 20))
            assert TruncSeries.parse(f.serialize()) == f


def test_parse_rejects_malformed():
    for bad in ("", "p=2;N=2", "p=2;N=3;coeffs=1,1", "q=2;N=1;coeffs=1",
                "p=2;N=1;coeffs=2", "p=4;N=1;coeffs=1"):
        with pytest.raises(ValueError):
            TruncSeries.parse(bad)
