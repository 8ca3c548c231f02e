"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: Pascal's triangle instead of digit
products, schoolbook convolution instead of numpy, long division for digit
streams.  Slow but obviously correct.
"""

from fractions import Fraction


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
