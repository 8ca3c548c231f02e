"""The prime modulus, F_p as F_p[[x]] / x, and the Lucas digit kernel."""

import math
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oneunits import (ModulusMismatch, NonUnitConstantTerm, Prime,
                      TruncSeries, fp)
from oneunits.fp import _block_table, _lucas_kron, _pascal_row
from oracles import block_base, object_convolve_mod, pascal_binom

P2, P3, P5, P7 = Prime(2), Prime(3), Prime(5), Prime(7)


def scalar(modulus, value):
    """value mod p in F_p, the precision-1 series ring F_p[[x]] / x."""
    return TruncSeries.from_ints(modulus, [value])


def value(s):
    return s.coefficient(0)


def test_prime_accepts_primes():
    for p in (2, 3, 31, 97, 2147483647):
        assert Prime(p).p == p


def test_prime_rejects_composites_and_small():
    for bad in (1, 0, -7, 4, 9, 91):
        with pytest.raises(ValueError):
            Prime(bad)


@pytest.mark.parametrize("p, prime", [
    (2, True), (3, True), (4, False), (9, False), (25, False),
    (2**31 - 1, True), (2147483629, True), (2**31, False),
    (46337**2, False),          # a prime squared: the last divisor is isqrt(p)
])
def test_prime_verdicts_at_the_trial_division_bounds(p, prime):
    if prime:
        assert Prime(p).p == p
    else:
        with pytest.raises(ValueError, match="is not prime"):
            Prime(p)


def test_add_frozen():
    assert value(scalar(P2, 1) + scalar(P2, 1)) == 0
    assert value(scalar(P3, 2) + scalar(P3, 2)) == 1
    assert value(scalar(P5, 0) + scalar(P5, 4)) == 4


def test_mul_frozen():
    assert value(scalar(P3, 2) * scalar(P3, 2)) == 1
    assert value(scalar(P5, 1) * scalar(P5, 3)) == 3
    assert value(scalar(P7, 3) * scalar(P7, 5)) == 1


def test_inverse_frozen():
    assert value(scalar(P2, 1).invert()) == 1
    assert value(scalar(P5, 2).invert()) == 3
    assert value(scalar(P7, 3).invert()) == 5


def test_inverse_of_zero():
    with pytest.raises(NonUnitConstantTerm):
        scalar(P5, 0).invert()


def test_mixed_moduli_rejected():
    with pytest.raises(ModulusMismatch):
        scalar(P2, 1) + scalar(P3, 1)
    with pytest.raises(ModulusMismatch):
        scalar(P5, 2) * scalar(P7, 2)


def test_element_range_checked():
    with pytest.raises(ValueError):
        TruncSeries(P3, [3])
    with pytest.raises(ValueError):
        TruncSeries(P3, [-1])


@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 6), st.integers(0, 6),
       st.integers(0, 6))
def test_field_axioms(p, a, b, c):
    P = Prime(p)
    x, y, z = scalar(P, a), scalar(P, b), scalar(P, c)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x - y == x + (-y)
    if value(x) != 0:
        assert value(x * x.invert()) == 1


@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 100), st.integers(1, 12))
def test_frobenius_fixes_scalars(p, a, n):
    """a^p = a in F_p, so the p-th power fixes constant series."""
    c = TruncSeries.constant(Prime(p), n, a)
    assert c.pow_int(p) == c


# -- the Lucas kernel -------------------------------------------------------

@cache
def _prime(p):
    return Prime(p)     # trial division at p near 2^31: build once


def _column(m, n, p):
    """C(k, m) mod p for m <= k < n: the m-th Hasse derivative of the
    all-ones series at precision n, whose weights are the binomials."""
    ones = TruncSeries(_prime(p), np.ones(n, dtype=np.int64))
    return ones.hasse_derivative(m).coeffs.tolist()


def test_binom_digit_frozen():
    assert _pascal_row(4, 5, 5)[2] == 1        # C(4, 2) = 6
    assert _pascal_row(1, 3, 3)[2] == 0        # C(1, 2) = 0
    assert _pascal_row(6, 7, 7)[3] == 6        # C(6, 3) = 20
    assert _column(2, 5, 5)[4 - 2] == 1        # C(4, 2)
    assert _column(2, 5, 3)[4 - 2] == 0        # C(4, 2) = 6
    assert _column(3, 7, 7)[6 - 3] == 6        # C(6, 3)


@given(st.sampled_from([2, 3, 5, 7, 2**31 - 1]), st.integers(-10**6, 10**6),
       st.integers(1, 300))
def test_binom_digit_wants_single_digits(p, m, n):
    """The kernel splits m, also a negative m, into base-p digits: the
    Pascal row is only ever asked for a single digit, and for at most p
    entries, whether it builds a block table or a row of the product."""
    asked = []

    def spy(digit, length, q):
        asked.append((digit, length))
        return _pascal_row(digit, length, q)

    with mock.patch.object(fp, "_pascal_row", spy):
        if p <= 64:
            _block_table.__wrapped__(p)
        _lucas_kron(m, n, p)
    assert all(0 <= d < p and 1 <= length <= p for d, length in asked)


def test_lucas_matches_pascal():
    """Digit-product binomials agree with the additive triangle, as rows
    C(m, .) of the kernel and as columns C(., m) of a Hasse derivative;
    at p = 2^31 - 1, where m may have digits past p, math.comb stands in
    for the triangle."""
    for p in (2, 3, 5, 7, 2**31 - 1):
        small = p < 60
        binom = pascal_binom if small else lambda n, k, p: math.comb(n, k) % p
        for m in range(60) if small else (0, 7, 59, p - 1, p + 3, 5 * p + 2):
            assert _lucas_kron(m, 60, p).tolist() == \
                [binom(m, k, p) for k in range(60)]
            if m < 60:          # the order of a derivative is below N
                assert _column(m, 60, p) == \
                    [binom(k, m, p) for k in range(m, 60)]


def test_lucas_out_of_range_is_zero():
    assert _lucas_kron(3, 6, 2)[5] == 0                    # C(3, 5)
    for p in (2, 7, 67):                                   # C(5, k), k > 5
        assert not _lucas_kron(5, 300, p)[6:].any()


def test_negative_exponents_invert_the_positive_power():
    """A negative m is the p-adic integer it is: (1+x)^(-m) (1+x)^m = 1,
    and (1+x)^m equals (1+x)^(m + q) for q a power of p with q >= n."""
    for p in (2, 3, 5, 7, 61, 67, 2**31 - 1):
        for n in (1, 2, 63, 64, 65, 300):
            for m in (1, 2, 25, 64, 12345):
                q = 1
                while q < n:
                    q *= p
                neg = _lucas_kron(-m, n, p)
                assert neg.tolist() == _lucas_kron(q - m, n, p).tolist()
                prod = object_convolve_mod(neg, _lucas_kron(m, n, p), n, p)
                assert prod.tolist() == [1] + [0] * (n - 1)


def _comb_run(m, n, column):
    """C(m, k), or C(k, m) if column, for k < n, exact before the caller
    reduces them: math.comb's values, one multiplicative step each."""
    out, c = [], 1
    for k in range(n):
        if column:
            out.append(0 if k < m else c)
            c = c if k < m else c * (k + 1) // (k + 1 - m)
        else:
            out.append(c)
            c = c * (m - k) // (k + 1)
    return out


@pytest.mark.parametrize("column", [False, True])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 61, 67, 2**31 - 1])
def test_blocked_kernel_matches_pascal(p, column):
    """The kernel steps over base-B digit blocks; at the block edges
    n = B - 1, B, B + 1 and B^2 + 1 it still gives C(m, n) as rows, also
    where m has digits past n, and C(n, m) as columns of the m-th Hasse
    derivative, read off the digits of -m-1.  The additive triangle
    checks the runs with m, n < 70, exact integers the rest."""
    base = block_base(p)
    sizes = (base - 1, base, base + 1, base**2 + 1) if p < 100 else (1, 2, 300)
    for n in sizes:
        for m in {0, 1, base - 1, base, base + 1, n - 1, n, 3 * base**3 + 2}:
            if column and m >= n:     # a derivative order is below N
                continue
            want = [c % p for c in _comb_run(m, n, column)]
            if column:
                got, want = _column(m, n, p), want[m:]
            else:
                got = _lucas_kron(m, n, p).tolist()
            assert got == want, (m, n)
            if m < 70 and n < 70:
                assert got == [pascal_binom(k, m, p) if column else
                               pascal_binom(m, k, p)
                               for k in range(m if column else 0, n)]


def test_block_tables_are_cached_read_only_and_small():
    """A p <= 64 gets one read-only int64 table, so rows are sliced with
    no cast, B^2 entries with B <= 64, equal to the product of its digit
    entries; the bench primes 2, 3, 5, 7 hold 7851 entries, 62808 bytes.
    A larger p caches no table, and a Hasse derivative reads the same one
    table."""
    for p in (2, 3, 5, 7, 11, 61):
        _lucas_kron(7, 100, p)
        t = _block_table(p)
        assert t is _block_table(p)
        before = _block_table.cache_info().currsize
        _column(5, 100, p)
        assert _block_table.cache_info().currsize == before
        base = block_base(p)
        assert t.shape == (base, base) and t.size <= 64**2
        assert t.dtype == np.int64 and not t.flags.writeable
        with pytest.raises(ValueError):
            t[0, 0] = 0
        digit = [_pascal_row(a, p, p) for a in range(p)]
        for a, b in [(0, 0), (base - 1, base - 1), (base // 2, base // 3),
                     (base - 1, 1), (1, base - 1)]:
            want, i, j = 1, a, b
            while i or j:
                want = want * digit[i % p][j % p] % p
                i, j = i // p, j // p
            assert t[a, b] == want, (p, a, b)
    assert sum(_block_table(p).nbytes for p in (2, 3, 5, 7)) == 62808
    before = _block_table.cache_info().currsize
    for p in (67, 2**31 - 1):
        _lucas_kron(12345, 300, p)
        _column(5, 300, p)
    assert _block_table.cache_info().currsize == before
