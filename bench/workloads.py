"""The benchmark's workloads: seeded query lists with expected answers.

Each workload is a fixed schedule of (kind, p, N) slots; the seed fills in
the exponents, perturbations and derivative orders, then shuffles the list.
So every seed runs the same mix at the same sizes, and a run's latency
distribution does not hinge on which sizes a seed happened to draw.  Sizes
that the maths leaves free climb in small steps, so no percentile sits on a
jump between two far-apart costs, and each list holds an odd number of
queries, so that the median is one query's latency.

Inputs are built from the independent model in ``checker`` and handed to
the package through its plain constructors; every call resolves its
oneunits name when it runs, so the traced run sees it.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oneunits as ou

import checker as model

BIG_PRIMES = (2**31 - 1, 2147483629)
THEOREM = "is_endomorphism_via_theorem"


@dataclass(frozen=True)
class Query:
    """One library call, and how to judge what it returned.

    call() is the timed part.  project(answer) turns the returned objects
    into plain values and check(values) compares them with the expected
    answer, both outside the timed region: check returns None for a right
    answer, ("limit", why) for a documented window limitation, or
    ("wrong", why).
    """

    kind: str
    call: Callable[[], object]
    project: Callable[[object], object]
    check: Callable[[object], tuple | None]
    case: tuple

    def judge(self, answer) -> tuple | None:
        return self.check(self.project(answer))


def _coeffs(answer) -> tuple[int, ...]:
    series = getattr(answer, "series", answer)
    return tuple(int(c) for c in series.coeffs)


def _equal(expected, got):
    if got == expected:
        return None
    return ("wrong", f"expected {expected!r}, got {got!r}")


@functools.cache
def _prime(p: int) -> "ou.Prime":
    return ou.Prime(p)  # trial division costs ~5 ms at p ~ 2^31: build once


def _unit(p: int, coeffs) -> "ou.OneUnit":
    return ou.OneUnit(ou.TruncSeries(_prime(p), list(coeffs)))


def _exponent(p: int, digits) -> "ou.PadicApprox":
    return ou.PadicApprox(_prime(p), tuple(digits))


def _random_digits(rng: random.Random, p: int, k: int, i: int):
    """Alternately a uniform digit window and a small integer, as digits."""
    if i % 2:
        return tuple(rng.randrange(p) for _ in range(k))
    return model.digits_of(rng.randint(-50, 50), p, k)


def _median_cost_digits(rng: random.Random, p: int, k: int, cost):
    """Of 15 uniform digit windows, the one of median cost(digits).

    An expansion's run time hinges on its exponent's digits; picking the
    median-cost draw keeps the seed from moving the percentiles that these
    queries set, while the seed still picks the digits.
    """
    draws = [tuple(rng.randrange(p) for _ in range(k)) for _ in range(15)]
    return sorted(draws, key=cost)[7]


def _binom_steps(digits, p: int, n: int) -> float:
    """About how many digit steps PadicApprox.binom takes over C(y, m) for
    all m < n: it reaches digit i of m when m >= p^i and every lower digit
    m_j <= y_j (else C(y_j, m_j) = 0 and the digit product stops)."""
    total, share = 0.0, 1.0
    for i, y in enumerate(digits):
        if p**i >= n:
            break
        total += (n - p**i) * share
        share *= (y + 1) / p
    return total


def _product_muls(digits, p: int, n: int) -> int:
    """Series products pow_product takes: square-and-multiply for each
    nonzero digit whose factor 1 + x^(p^i) is not trivial mod x^n."""
    return sum(d.bit_count() + d.bit_length()
               for i, d in enumerate(digits) if d and p**i < n)


def _fraction(rng: random.Random, p: int, bound: int) -> Fraction:
    """A rational a/b with |a|, b <= bound and b prime to p."""
    while True:
        b = rng.randint(1, bound)
        if b % p:
            return Fraction(rng.randint(-bound, bound), b)


def _proper_fraction(rng: random.Random, p: int, bound: int) -> Fraction:
    """Like _fraction, but never an integer."""
    while True:
        y = _fraction(rng, p, bound)
        if y.denominator > 1:
            return y


def _perturb(rng: random.Random, coeffs, p: int):
    out = list(coeffs)
    j = rng.randrange(1, len(out))
    out[j] = (out[j] + rng.randrange(1, p)) % p
    return tuple(out)


# -- answer projections ------------------------------------------------------


def _digits(y):
    return y.digits


def _all_coeffs(units):
    return [_coeffs(u) for u in units]


def _endo(verdict):
    return (bool(verdict),
            None if verdict.exponent is None else verdict.exponent.digits)


def _box(verdict):
    return (bool(verdict), verdict.mismatch is None)


def _report(r):
    period = (None if r.coeff_period is None
              else (r.coeff_period.preperiod, r.coeff_period.period))
    rational = (None if r.rational is None
                else (r.rational.numerator, r.rational.denominator))
    return (r.integer_verdict.kind, r.integer_verdict.value, period, rational,
            r.consistent)


def _same(answer):
    return answer


def _query(kind, call, args, expected, case, project=_coeffs):
    """call is a oneunits attribute name, looked up when the query runs so
    that the traced run sees the tracer's wrapper, or a function of args
    that reaches the package only through ``ou`` or methods of its objects.
    """
    def run():
        fn = getattr(ou, call) if isinstance(call, str) else call
        return fn(*args)
    return Query(kind, run, project, lambda got: _equal(expected, got), case)


def _round_trip(u):
    return ou.compose_unit(ou.invert_automorphism(u), u)


def _digit_period(x, w, r):
    report = x.detect_digit_period(w, r)
    return None if report is None else x.reconstruct_rational(report)


# -- recognize ---------------------------------------------------------------

RECOVER_GRID = ((2, 32), (2, 64), (2, 100), (2, 128), (2, 256),
                (3, 27), (3, 81), (3, 100), (3, 243),
                (5, 25), (5, 125), (5, 200),
                (7, 49), (7, 100), (7, 343))
# Box verdicts only at N = p^k, where box and theorem agree (README); count
# per size, chosen so latency_p90 falls inside the N = 125/128 block.
BOX_GRID = {(2, 16): 2, (2, 32): 3, (2, 64): 4, (3, 27): 3, (3, 81): 6,
            (5, 25): 3, (7, 49): 4, (2, 128): 16, (5, 125): 16, (3, 243): 2}
CENSUS_GRID = ((2, 4), (2, 8), (3, 3), (5, 5))


def recognize(rng: random.Random) -> list[Query]:
    out = []
    for p, n in RECOVER_GRID:
        k = model.digits_needed(p, n)
        powers = [model.expand(_random_digits(rng, p, k, i), p, n)
                  for i in range(10)]
        for c in powers[:4]:
            out.append(_query("recover", "recover_exponent", (_unit(p, c),),
                              model.read_digits(c, p), (p, n), _digits))
        for i, c in enumerate(powers[4:8]):
            c = _perturb(rng, c, p) if i % 2 else c
            digits = model.power_digits(c, p)
            out.append(_query("theorem", THEOREM, (_unit(p, c),),
                              (digits is not None, digits), (p, n), _endo))
        if n <= 128:
            for i, c in enumerate(powers[8:]):
                c = _perturb(rng, c, p) if i % 2 else c
                m = rng.randrange(1, n)
                out.append(_query("hasse", "hasse_identity_check",
                                  (_unit(p, c), m),
                                  model.hasse_identity(c, m, p), (p, n, m),
                                  _same))
    for (p, n), count in BOX_GRID.items():
        k = model.digits_needed(p, n)
        for i in range(count):
            c = model.expand(_random_digits(rng, p, k, i), p, n)
            c = _perturb(rng, c, p) if i % 2 else c
            truth = model.power_digits(c, p) is not None
            out.append(_query("box", "is_endomorphism_bivariate",
                              (_unit(p, c),), (truth, truth), (p, n), _box))
    for p, n in CENSUS_GRID:
        out.append(_query("census", "enumerate_endomorphisms", (_prime(p), n),
                          model.census(p, n), (p, n), _all_coeffs))
    return out


# -- automorphisms -----------------------------------------------------------

# 21 sizes from 64 to 512 in equal ratios, the primes taking turns
AUTO_GRID = tuple(((2, 3, 5, 7)[i % 4], round(64 * 8 ** (i / 20)))
                  for i in range(21))


def automorphisms(rng: random.Random) -> list[Query]:
    out = []
    for p, n in AUTO_GRID:
        k = model.digits_needed(p, n)
        one = model.one_plus_x(n)
        a = _random_digits(rng, p, k, 1)
        b = _random_digits(rng, p, k, 0)
        ab = model.digits_of(model.residue(a, p) * model.residue(b, p), p, k)
        out.append(_query("compose", "compose_unit",
                          (_unit(p, model.expand(a, p, n)),
                           _unit(p, model.expand(b, p, n))),
                          model.expand(ab, p, n), (p, n)))
        for kind, call in (("invert", "invert_automorphism"),
                           ("round_trip", _round_trip)):
            y = (rng.randrange(1, p),) + _random_digits(rng, p, k, 1)[1:]
            inverse = model.digits_of(
                Fraction(1, model.residue(y, p)), p, k)
            expected = model.expand(inverse, p, n) if kind == "invert" else one
            out.append(_query(kind, call, (_unit(p, model.expand(y, p, n)),),
                              expected, (p, n)))
        for first in (rng.randrange(1, p), 0):
            y = (first,) + _random_digits(rng, p, k, 1)[1:]
            out.append(_query("is_automorphism", "is_automorphism",
                              (_unit(p, model.expand(y, p, n)),),
                              first != 0, (p, n), _same))
    return out


# -- expand-rational ---------------------------------------------------------

POW_BINOMIAL_SIZES = tuple(round(512 * 8 ** (i / 12)) for i in range(13))
POW_PRODUCT_SIZES = (256, 362, 512, 724, 1024)
FRACTIONS = ((2, Fraction(1, 3)), (2, Fraction(1, 5)), (2, Fraction(-1, 7)),
             (3, Fraction(1, 5)), (3, Fraction(-1, 7)))


def _rationality_query(y: Fraction, p: int, k: int, n: int, w: int, r: int):
    digits = model.digits_of(y, p, k)
    exponent = _exponent(p, digits)
    truth = model.rationality(y, digits, n, w, r, p)

    def run():
        return ou.rationality_report(exponent, n, w, r)

    return Query("rationality", run, _report, truth.judge, (p, str(y), n, k))


def expand_rational(rng: random.Random) -> list[Query]:
    out = []
    for p in (2, 3, 5, 7):
        for n in POW_BINOMIAL_SIZES:
            k = model.digits_needed(p, n)
            digits = _median_cost_digits(
                rng, p, k, lambda d: _binom_steps(d, p, n))
            out.append(_query("pow_binomial", "pow_binomial",
                              (_exponent(p, digits), n),
                              model.expand(digits, p, n), (p, n)))
        for n in POW_PRODUCT_SIZES:
            k = model.digits_needed(p, n)
            digits = _median_cost_digits(
                rng, p, k, lambda d: _product_muls(d, p, n))
            out.append(_query("pow_product", "pow_product",
                              (_exponent(p, digits), n),
                              model.expand(digits, p, n), (p, n)))
    # the acceptance suite's criterion-7 grid and criterion-8 fractions; the
    # fractions run at the CLI's default digit window K0 + 4 (K0 = least K
    # with p^K >= N) and at each shorter one a caller may pick, down to K0
    for p in (2, 3, 5):
        for y in range(-30, 31):
            out.append(_rationality_query(Fraction(y), p, 16, 256, 32, 112))
    for p, y in FRACTIONS:
        k0 = model.digits_needed(p, 512)
        for k in range(k0, k0 + 5):
            out.append(_rationality_query(y, p, k, 512, 64, 64))
    for i in range(35):
        p = (2, 3, 5, 7)[i % 4]
        y = _fraction(rng, p, 20)
        x = _exponent(p, model.digits_of(y, p, 64))
        out.append(_query("digit_period", _digit_period, (x, 24, 20), y,
                          (p, str(y)), _same))
    return out


# -- bigprime ----------------------------------------------------------------

# A fraction exponent has a digit near p, so recovering or expanding it runs
# ~31 squarings of pure-Python convolutions.  Those heavy queries climb a
# size ladder of their own in steps of 2, the primes and the two kinds taking
# turns, and are 25 of the 85 queries, so latency_p90 sits among them and
# averages over neighbouring sizes.  Light queries (small integer exponents,
# plain products and inverses) reach N = 256 and set latency_p50.
HEAVY_SIZES = tuple(range(64, 114, 2))
LIGHT_SIZES = (64, 96, 128, 160, 208, 256)


def bigprime(rng: random.Random) -> list[Query]:
    out = []
    for i, n in enumerate(HEAVY_SIZES):
        p = BIG_PRIMES[i % 2]
        y = _proper_fraction(rng, p, 9)
        digits = model.digits_of(y, p, 2)
        power = model.expand(digits, p, n)
        if (i // 2) % 2:
            out.append(_query("pow_product", "pow_product",
                              (_exponent(p, digits), n), power,
                              (p, n, str(y))))
        else:
            out.append(_query("theorem", THEOREM, (_unit(p, power),),
                              (True, digits[:1]), (p, n, str(y)), _endo))
    for p in BIG_PRIMES:
        for n in LIGHT_SIZES:
            y, a = _proper_fraction(rng, p, 9), Fraction(rng.randint(1, 9))
            y_digits, a_digits = (model.digits_of(v, p, 2) for v in (y, a))
            out.append(_query("pow_binomial", "pow_binomial",
                              (_exponent(p, y_digits), n),
                              model.expand(y_digits, p, n), (p, n, str(y))))
            power = model.expand(a_digits, p, n)
            out.append(_query("pow_product", "pow_product",
                              (_exponent(p, a_digits), n), power,
                              (p, n, str(a))))
            out.append(_query("theorem", THEOREM, (_unit(p, power),),
                              (True, a_digits[:1]), (p, n, str(a)), _endo))
            sy, sa = (_unit(p, model.expand(d, p, n)).series
                      for d in (y_digits, a_digits))
            out.append(_query("mul", operator.mul, (sy, sa),
                              model.expand(model.digits_of(y + a, p, 2), p, n),
                              (p, n)))
            out.append(_query("series_invert", operator.methodcaller("invert"),
                              (sy,),
                              model.expand(model.digits_of(-y, p, 2), p, n),
                              (p, n, str(y))))
    return out


WORKLOADS = {
    "recognize": recognize,
    "automorphisms": automorphisms,
    "expand-rational": expand_rational,
    "bigprime": bigprime,
}


def build(name: str, seed: int) -> list[Query]:
    """The workload's query list for this seed, in seeded order."""
    rng = random.Random(f"{name}:{seed}")
    queries = WORKLOADS[name](rng)
    rng.shuffle(queries)
    return queries
