"""Command-line front end.

Every verb prints a stable line-oriented text form, or one JSON object
with --json.  Exit status is 0 for any computed verdict (including
negative ones), 1 for domain errors, 2 for malformed input.  A precision
N above MAX_PRECISION or a digit count K above MAX_DIGITS is a domain
error, refused before anything of that size is built; the length of a
digit list --y counts as K, that of a --series as N.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Sequence

from .errors import OneUnitsError
from .fp import Prime
from .padic import PadicApprox
from .periodic import find_period
from .ratfn import RationalFn, from_period
from .series import TruncSeries
from .units import (
    OneUnit,
    _default_window,
    digits_for_precision,
    enumerate_endomorphisms,
    hasse_identity_check,
    invert_automorphism,
    is_endomorphism_bivariate,
    is_endomorphism_via_theorem,
    pow_binomial,
    pow_product,
    rationality_report,
    recover_exponent,
)

__all__ = ["main", "build_parser"]


def _parse_series(text: str, prime: int | None) -> TruncSeries:
    if ";" in text:
        series = TruncSeries.parse(text)
        if prime is not None and prime != series.modulus.p:
            raise ValueError(
                f"-p {prime} disagrees with series header p={series.modulus.p}")
        return series
    if prime is None:
        raise ValueError("a bare coefficient list needs -p")
    return TruncSeries(Prime(prime), [int(tok) for tok in text.split(",")])


def _parse_exponent(text: str, modulus: Prime, digits: int) -> PadicApprox:
    """An exponent given as digit list d0,d1,..., fraction a/b, or integer."""
    if "," in text:
        return PadicApprox(modulus, tuple(int(tok) for tok in text.split(",")))
    if "/" in text:
        try:
            value = Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"exponent {text} has denominator 0") from None
        return PadicApprox.from_fraction(modulus, value, digits)
    return PadicApprox.from_integer(modulus, int(text), digits)


def _series_dict(series: TruncSeries) -> dict:
    return {"p": series.modulus.p, "N": series.precision,
            "coeffs": [int(c) for c in series.coeffs]}


def _padic_dict(approx: PadicApprox) -> dict:
    return {"p": approx.modulus.p, "K": approx.precision,
            "digits": list(approx.digits)}


def _ratfn_dict(fn: RationalFn) -> dict:
    return {"p": fn.modulus.p, "num": list(fn.numerator),
            "den": list(fn.denominator)}


def _emit(args: argparse.Namespace, payload: dict, lines: list[str]) -> int:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


_GUARD_DIGITS = 4  # parse-time headroom beyond the minimum p^K >= N

# Size budgets, checked before any digit tuple or coefficient array is
# built: N (-N/--prec) counts coefficients, K (-K, --exp-digits) digits.
MAX_PRECISION = 1 << 20
MAX_DIGITS = 1 << 12
# Decimal digits of p^K < 2^(31 K) at K = MAX_DIGITS: every integer a
# verdict within budget prints, and argv still cannot ask for a
# quadratic-time conversion of an unbounded string.
_INT_STR_DIGITS = math.ceil(31 * MAX_DIGITS * math.log10(2)) + 1


class OverBudget(OneUnitsError):
    """A requested size exceeds the CLI's budget for it."""


def _check_budgets(args: argparse.Namespace) -> None:
    for name, label, ceiling in (("precision", "N", MAX_PRECISION),
                                 ("digits", "K", MAX_DIGITS),
                                 ("exp_digits", "K", MAX_DIGITS),
                                 ("y", "K", MAX_DIGITS),
                                 ("series", "N", MAX_PRECISION)):
        value = getattr(args, name, None)
        if isinstance(value, str):      # a list: its comma-separated fields
            value = value.count(",") + 1
        if value is not None and value > ceiling:
            raise OverBudget(
                f"{label}={value} exceeds the budget {label} <= {ceiling}")


def _cmd_pow(args: argparse.Namespace) -> int:
    modulus = Prime(args.prime)
    needed = digits_for_precision(modulus, args.precision) + _GUARD_DIGITS
    exponent = _parse_exponent(args.y, modulus, needed)
    expand = pow_product if args.method == "product" else pow_binomial
    u = expand(exponent, args.precision)
    return _emit(args, _series_dict(u.series), [u.serialize()])


def _cmd_recover(args: argparse.Namespace) -> int:
    u = OneUnit(_parse_series(args.series, args.prime))
    exponent = recover_exponent(u)
    return _emit(args, _padic_dict(exponent), [exponent.serialize()])


def _cmd_check_endo(args: argparse.Namespace) -> int:
    u = OneUnit(_parse_series(args.series, args.prime))
    if args.method == "box":
        verdict = is_endomorphism_bivariate(u)
        if verdict:
            return _emit(args, {"endomorphism": True, "mismatch": None},
                         ["endomorphism"])
        i, j = verdict.mismatch
        return _emit(args, {"endomorphism": False, "mismatch": [i, j]},
                     [f"not an endomorphism (bivariate mismatch at ({i}, {j}))"])
    verdict = is_endomorphism_via_theorem(u)
    if verdict:
        digits = ",".join(str(d) for d in verdict.exponent.digits)
        return _emit(args,
                     {"endomorphism": True,
                      "exponent": _padic_dict(verdict.exponent),
                      "reason": None},
                     [f"endomorphism y={digits}"])
    return _emit(args,
                 {"endomorphism": False, "exponent": None,
                  "reason": verdict.reason},
                 [f"not an endomorphism ({verdict.reason})"])


def _cmd_hasse(args: argparse.Namespace) -> int:
    u = OneUnit(_parse_series(args.series, args.prime))
    derivative = u.series.hasse_derivative(args.order)
    holds = hasse_identity_check(u, args.order)
    return _emit(args,
                 {"derivative": _series_dict(derivative), "identity": holds},
                 [derivative.serialize(),
                  f"identity={'true' if holds else 'false'}"])


def _cmd_invert_auto(args: argparse.Namespace) -> int:
    u = OneUnit(_parse_series(args.series, args.prime))
    inverse = invert_automorphism(u)
    return _emit(args, _series_dict(inverse.series), [inverse.serialize()])


def _cmd_detect_period(args: argparse.Namespace) -> int:
    series = _parse_series(args.series, args.prime)
    w, r = _default_window(series.precision, args.max_preperiod,
                           args.max_period)
    report = find_period(series.coeffs, w, r)
    if report is None:
        return _emit(args,
                     {"preperiod": None, "period": None, "rational": None},
                     ["none"])
    fn = from_period(series.modulus, series.coeffs, report)
    return _emit(args,
                 {"preperiod": report.preperiod, "period": report.period,
                  "rational": _ratfn_dict(fn)},
                 [f"preperiod={report.preperiod};period={report.period}",
                  fn.serialize()])


def _cmd_digits(args: argparse.Namespace) -> int:
    modulus = Prime(args.prime)
    exponent = _parse_exponent(args.y, modulus, args.digits)
    given = (args.max_preperiod is not None, args.max_period is not None)
    if given[0] != given[1]:
        raise ValueError("give both --max-preperiod and --max-period")
    payload: dict = _padic_dict(exponent)
    lines = [exponent.serialize()]
    payload.update({"preperiod": None, "period": None, "rational": None})
    if all(given):
        report = exponent.detect_digit_period(args.max_preperiod,
                                              args.max_period)
        if report is None:
            lines.append("none")
        else:
            value = exponent.reconstruct_rational(report)
            payload.update({"preperiod": report.preperiod,
                            "period": report.period,
                            "rational": str(value)})
            lines.append(
                f"preperiod={report.preperiod};period={report.period}")
            lines.append(f"rational={value}")
    return _emit(args, payload, lines)


def _cmd_rationality(args: argparse.Namespace) -> int:
    modulus = Prime(args.prime)
    needed = digits_for_precision(modulus, args.precision) + _GUARD_DIGITS
    digits = args.exp_digits if args.exp_digits is not None else needed
    exponent = _parse_exponent(args.y, modulus, digits)
    report = rationality_report(exponent, args.precision,
                                args.max_preperiod, args.max_period)
    verdict = report.integer_verdict
    integer_line = (f"integer: yes ({verdict.value})" if verdict.is_integer
                    else "integer: no")
    if report.coeff_period is None:
        period_line, rational_line = "coeff-period: none", "rational: none"
    else:
        period_line = (f"coeff-period: preperiod={report.coeff_period.preperiod};"
                       f"period={report.coeff_period.period}")
        rational_line = f"rational: {report.rational.serialize()}"
    final = "CONSISTENT" if report.consistent else "FINDING"
    payload = {
        "integer": {"kind": verdict.kind, "value": verdict.value},
        "coeff_period": (None if report.coeff_period is None else
                         {"preperiod": report.coeff_period.preperiod,
                          "period": report.coeff_period.period}),
        "rational": (None if report.rational is None
                     else _ratfn_dict(report.rational)),
        "consistent": report.consistent,
    }
    return _emit(args, payload,
                 [integer_line, period_line, rational_line,
                  f"verdict: {final}"])


def _cmd_enumerate(args: argparse.Namespace) -> int:
    found = enumerate_endomorphisms(Prime(args.prime), args.precision)
    payload = {"count": len(found),
               "series": [_series_dict(u.series) for u in found]}
    return _emit(args, payload,
                 [f"count={len(found)}"] + [u.serialize() for u in found])


def _add_prime_arg(sub: argparse.ArgumentParser, required: bool) -> None:
    sub.add_argument("-p", "--p", "--prime", type=int, dest="prime",
                     required=required, default=None)


def _add_precision_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-N", "--prec", "--precision", type=int,
                     dest="precision", required=True)


def _add_series_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--series", required=True, metavar="S",
                     help="bare coefficient list c0,c1,... (needs -p) or "
                          "full form p=..;N=..;coeffs=.., residues in [0, p)")
    _add_prime_arg(sub, required=False)


def _add_window_args(sub: argparse.ArgumentParser, preperiod_help=None,
                     period_help=None) -> None:
    sub.add_argument("--max-preperiod", type=int, default=None, metavar="W",
                     help=preperiod_help)
    sub.add_argument("--max-period", type=int, default=None, metavar="R",
                     help=period_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oneunits",
        description="powers of 1+x over F_p: expansion, recognition, "
                    "inversion, and rationality probes")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("pow", help="expand (1+x)^y to N coefficients")
    _add_prime_arg(q, required=True)
    _add_precision_arg(q)
    q.add_argument("--y", required=True, metavar="Y",
                   help="integer, fraction a/b, or digit list d0,d1,... "
                        "(least significant first)")
    q.add_argument("--method", choices=("binomial", "product"),
                   default="binomial")
    q.set_defaults(func=_cmd_pow)

    q = sub.add_parser("recover",
                       help="read the exponent digits off a power of 1+x")
    _add_series_args(q)
    q.set_defaults(func=_cmd_recover)

    q = sub.add_parser("check-endo",
                       help="decide whether a one-unit is a power of 1+x")
    _add_series_args(q)
    q.add_argument("--method", choices=("theorem", "box"), default="theorem")
    q.set_defaults(func=_cmd_check_endo)

    q = sub.add_parser("hasse",
                       help="Hasse derivative and the a_m shift identity")
    _add_series_args(q)
    q.add_argument("-m", "--order", type=int, required=True)
    q.set_defaults(func=_cmd_hasse)

    q = sub.add_parser("invert-auto",
                       help="invert an automorphism among powers of 1+x")
    _add_series_args(q)
    q.set_defaults(func=_cmd_invert_auto)

    q = sub.add_parser("detect-period",
                       help="find an eventual period in a coefficient stream")
    _add_series_args(q)
    _add_window_args(q)
    q.set_defaults(func=_cmd_detect_period)

    q = sub.add_parser("digits",
                       help="base-p digits of an exponent, with optional "
                            "period search")
    _add_prime_arg(q, required=True)
    q.add_argument("-K", "--digits", type=int, required=True,
                   help="number of digits to compute")
    q.add_argument("--y", required=True, metavar="Y")
    _add_window_args(q)
    q.set_defaults(func=_cmd_digits)

    q = sub.add_parser("rationality",
                       help="compare digit-side and coefficient-side views "
                            "of an exponent")
    _add_prime_arg(q, required=True)
    _add_precision_arg(q)
    q.add_argument("--y", required=True, metavar="Y")
    q.add_argument("--exp-digits", type=int, default=None,
                   help="digit precision for y (default: enough for N "
                        "plus guard digits)")
    _add_window_args(
        q, preperiod_help="bound on the preperiod max(0, deg P - deg Q + 1) "
                          "of the fraction P/Q the coefficients describe "
                          "(default N/8)",
        period_help="bound on the degree of Q, not on the period "
                    "(default N/8); W + 2R must not exceed N")
    q.set_defaults(func=_cmd_rationality)

    q = sub.add_parser("enumerate",
                       help="list every endomorphism at a small precision")
    _add_prime_arg(q, required=True)
    _add_precision_arg(q)
    q.set_defaults(func=_cmd_enumerate)

    for command in sub.choices.values():
        command.add_argument("--json", action="store_true",
                             help="emit one JSON object instead of text")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if not hasattr(sys, "set_int_max_str_digits"):   # no limit before 3.10.7
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(_INT_STR_DIGITS)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_budgets(args)
        return args.func(args)
    except OneUnitsError as exc:
        print(exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
