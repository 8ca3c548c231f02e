"""Command-line behavior: text output, JSON mode, exit codes."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oneunits
from oneunits import cli
from oneunits.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- pow ----------------------------------------------------------------------

def test_pow_basic(capsys):
    code, out, err = run(capsys, "pow", "--p", "2", "--prec", "8", "--y", "5")
    assert code == 0
    assert out == "p=2;N=8;coeffs=1,1,0,0,1,1,0,0\n"
    assert err == ""


def test_pow_product_method_agrees(capsys):
    a = run(capsys, "pow", "-p", "2", "-N", "8", "--y", "5")
    b = run(capsys, "pow", "-p", "2", "-N", "8", "--y", "5",
            "--method", "product")
    assert a == b


def test_pow_fraction_exponent(capsys):
    code, out, _ = run(capsys, "pow", "-p", "2", "-N", "8", "--y", "1/3")
    assert code == 0
    assert out == "p=2;N=8;coeffs=1,1,1,1,0,0,0,0\n"


def test_pow_digit_list_exponent(capsys):
    code, out, _ = run(capsys, "pow", "-p", "2", "-N", "8", "--y", "1,0,1")
    assert out == "p=2;N=8;coeffs=1,1,0,0,1,1,0,0\n"


def test_pow_json(capsys):
    code, out, _ = run(capsys, "pow", "-p", "2", "-N", "8", "--y", "5",
                       "--json")
    assert code == 0
    assert json.loads(out) == {"p": 2, "N": 8,
                               "coeffs": [1, 1, 0, 0, 1, 1, 0, 0]}


def test_zero_denominator_exponent_exits_2(capsys):
    for verb in (["pow", "-N", "8"], ["digits", "-K", "8"],
                 ["rationality", "-N", "64"]):
        code, out, err = run(capsys, *verb, "-p", "2", "--y", "1/0")
        assert (code, out) == (2, "")
        assert err == "invalid input: exponent 1/0 has denominator 0\n"


def test_pow_is_deterministic(capsys):
    a = run(capsys, "pow", "-p", "5", "-N", "30", "--y=-7/4")
    b = run(capsys, "pow", "-p", "5", "-N", "30", "--y=-7/4")
    assert a == b and a[0] == 0


# -- recover ------------------------------------------------------------------

def test_recover_basic(capsys):
    code, out, err = run(capsys, "recover", "--p", "2",
                         "--series", "1,1,0,0,1,1,0,0")
    assert code == 0
    assert out == "p=2;K=3;digits=1,0,1\n"


def test_recover_rejects_non_power(capsys):
    code, out, err = run(capsys, "recover", "--p", "2", "--series", "1,0,1,1")
    assert code == 1
    assert out == ""
    assert err == "not an endomorphism (stage 0)\n"


def test_recover_accepts_serialized_series(capsys):
    code, out, _ = run(capsys, "recover",
                       "--series", "p=2;N=8;coeffs=1,1,0,0,1,1,0,0")
    assert code == 0
    assert out == "p=2;K=3;digits=1,0,1\n"


def test_recover_prime_disagreement(capsys):
    code, _, err = run(capsys, "recover", "-p", "3",
                       "--series", "p=2;N=4;coeffs=1,1,0,0")
    assert code == 2
    assert err.startswith("invalid input:")


def test_series_residues_must_lie_below_p(capsys):
    """A bare list follows the serialized form's rule: no reduction mod p."""
    for series in ("1,5,7", "p=3;N=3;coeffs=1,5,7", "1,2," + "9" * 30):
        code, out, err = run(capsys, "check-endo", "-p", "3",
                             "--series", series)
        assert (code, out) == (2, "")
        assert err == "invalid input: coefficients must be residues in [0, 3)\n"


def test_recover_bare_list_needs_prime(capsys):
    code, _, err = run(capsys, "recover", "--series", "1,1")
    assert code == 2
    assert err.startswith("invalid input:")


# -- check-endo -----------------------------------------------------------------

def test_check_endo_positive(capsys):
    code, out, _ = run(capsys, "check-endo", "-p", "2",
                       "--series", "1,1,0,0,1,1,0,0")
    assert code == 0
    assert out == "endomorphism y=1,0,1\n"


def test_check_endo_negative_is_still_exit_zero(capsys):
    code, out, _ = run(capsys, "check-endo", "-p", "2", "--series", "1,0,1,1")
    assert code == 0
    assert out == "not an endomorphism (stage 0)\n"


def test_check_endo_box_method(capsys):
    code, out, _ = run(capsys, "check-endo", "-p", "2", "--series", "1,1,1,0",
                       "--method", "box")
    assert code == 0
    assert out == "not an endomorphism (bivariate mismatch at (1, 2))\n"
    code, out, _ = run(capsys, "check-endo", "-p", "2", "--series", "1,1,0,0",
                       "--method", "box")
    assert out == "endomorphism\n"


def test_check_endo_json(capsys):
    code, out, _ = run(capsys, "check-endo", "-p", "2",
                       "--series", "1,1,0,0,1,1,0,0", "--json")
    assert json.loads(out) == {
        "endomorphism": True,
        "exponent": {"p": 2, "K": 3, "digits": [1, 0, 1]},
        "reason": None,
    }


# -- hasse ----------------------------------------------------------------------

def test_hasse_identity_holds(capsys):
    code, out, _ = run(capsys, "hasse", "-p", "2", "-m", "1",
                       "--series", "1,1,0,0,1,1,0,0")
    assert code == 0
    assert out == "p=2;N=7;coeffs=1,0,0,0,1,0,0\nidentity=true\n"


def test_hasse_identity_fails(capsys):
    code, out, _ = run(capsys, "hasse", "-p", "2", "-m", "1",
                       "--series", "1,0,1,1")
    assert code == 0
    assert out.endswith("identity=false\n")


def test_hasse_order_out_of_range(capsys):
    code, _, err = run(capsys, "hasse", "-p", "2", "-m", "4",
                       "--series", "1,1,1,1")
    assert code == 1
    assert err != ""


# -- invert-auto ------------------------------------------------------------------

def test_invert_auto_self_inverse(capsys):
    code, out, _ = run(capsys, "invert-auto", "-p", "2",
                       "--series", "1,1,0,0,1,1,0,0")
    assert code == 0
    assert out == "p=2;N=8;coeffs=1,1,0,0,1,1,0,0\n"


def test_invert_auto_rejects_frobenius_image(capsys):
    code, _, err = run(capsys, "invert-auto", "-p", "2",
                       "--series", "1,0,1,0,0,0,0,0")
    assert code == 1
    assert err != ""


# -- detect-period ----------------------------------------------------------------

def test_detect_period_geometric(capsys):
    code, out, _ = run(capsys, "detect-period", "-p", "2",
                       "--series", ",".join(["1"] * 16))
    assert code == 0
    assert out == "preperiod=0;period=1\np=2;num=1;den=1,1\n"


def test_detect_period_default_window_misses(capsys):
    series = "p=2;N=32;coeffs=" + ",".join(
        "1" if i in (0, 1, 4, 5) else "0" for i in range(32))
    code, out, _ = run(capsys, "detect-period", "--series", series)
    assert code == 0
    assert out == "none\n"


def test_detect_period_explicit_window(capsys):
    series = "p=2;N=32;coeffs=" + ",".join(
        "1" if i in (0, 1, 4, 5) else "0" for i in range(32))
    code, out, _ = run(capsys, "detect-period", "--series", series,
                       "--max-preperiod", "8", "--max-period", "8")
    assert out == "preperiod=6;period=1\np=2;num=1,1,0,0,1,1;den=1\n"


# -- digits -------------------------------------------------------------------------

def test_digits_plain(capsys):
    code, out, _ = run(capsys, "digits", "-p", "2", "-K", "8", "--y", "1/3")
    assert code == 0
    assert out == "p=2;K=8;digits=1,1,0,1,0,1,0,1\n"


def test_digits_with_period_window(capsys):
    code, out, _ = run(capsys, "digits", "-p", "2", "-K", "8", "--y", "1/3",
                       "--max-preperiod", "3", "--max-period", "2")
    assert code == 0
    assert out == ("p=2;K=8;digits=1,1,0,1,0,1,0,1\n"
                   "preperiod=1;period=2\n"
                   "rational=1/3\n")


def test_digits_negative_fraction(capsys):
    code, out, _ = run(capsys, "digits", "-p", "2", "-K", "8", "--y=-1/7",
                       "--max-preperiod", "2", "--max-period", "3")
    assert code == 0
    assert out.endswith("rational=-1/7\n")


def test_digits_window_flags_come_in_pairs(capsys):
    code, _, err = run(capsys, "digits", "-p", "2", "-K", "8", "--y", "1/3",
                       "--max-preperiod", "3")
    assert code == 2
    assert err.startswith("invalid input:")


# -- rationality -----------------------------------------------------------------------

def test_rationality_consistent_integer(capsys):
    code, out, _ = run(capsys, "rationality", "-p", "2", "-N", "64",
                       "--y", "7")
    assert code == 0
    assert out == ("integer: yes (7)\n"
                   "coeff-period: preperiod=8;period=1\n"
                   "rational: p=2;num=1,1,1,1,1,1,1,1;den=1\n"
                   "verdict: CONSISTENT\n")


def test_rationality_window_finding(capsys):
    code, out, _ = run(capsys, "rationality", "-p", "3", "-N", "64",
                       "--y=-28", "--exp-digits", "16",
                       "--max-preperiod", "8", "--max-period", "24")
    assert code == 0
    assert out == ("integer: yes (-28)\n"
                   "coeff-period: none\n"
                   "rational: none\n"
                   "verdict: FINDING\n")


def test_rationality_json(capsys):
    code, out, _ = run(capsys, "rationality", "-p", "2", "-N", "64",
                       "--y", "7", "--json")
    data = json.loads(out)
    assert data["integer"] == {"kind": "nonneg-integer", "value": 7}
    assert data["coeff_period"] == {"preperiod": 8, "period": 1}
    assert data["rational"] == {"p": 2, "num": [1] * 8, "den": [1]}
    assert data["consistent"] is True


# -- enumerate ---------------------------------------------------------------------------

def test_enumerate_small(capsys):
    code, out, _ = run(capsys, "enumerate", "-p", "2", "-N", "4")
    assert code == 0
    assert out == ("count=4\n"
                   "p=2;N=4;coeffs=1,0,0,0\n"
                   "p=2;N=4;coeffs=1,0,1,0\n"
                   "p=2;N=4;coeffs=1,1,0,0\n"
                   "p=2;N=4;coeffs=1,1,1,1\n")


def test_enumerate_wants_positive_precision(capsys):
    for n in ("0", "-2"):
        code, out, err = run(capsys, "enumerate", "-p", "2", "-N", n)
        assert (code, out) == (2, "")
        assert err == "invalid input: precision must be at least 1\n"


def test_enumerate_refuses_large(capsys):
    code, _, err = run(capsys, "enumerate", "-p", "2", "-N", "22")
    assert code == 1
    assert "2^20" in err


def test_enumerate_refuses_huge_precision_at_once(capsys):
    """p^(N-1) is neither formed nor printed past 2^4096: a domain error."""
    for p, n, count in (("2", "200000", "2^199999"),
                        ("2147483647", "1048576", "2147483647^1048575")):
        start = time.perf_counter()
        code, out, err = run(capsys, "enumerate", "-p", p, "-N", n)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (1, "")
        assert err == (f"{count} candidates at p={p}, N={n}; "
                       "refusing beyond 2^20\n")


# -- argument handling -------------------------------------------------------------------

def test_unknown_verb_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_missing_required_argument_exits_2(capsys):
    assert run(capsys, "pow", "-p", "2", "--y", "5")[0] == 2


def test_composite_modulus_exits_2(capsys):
    code, _, err = run(capsys, "pow", "-p", "4", "-N", "4", "--y", "1")
    assert code == 2
    assert err.startswith("invalid input:")


def test_bad_coefficient_token_exits_2(capsys):
    code, _, err = run(capsys, "recover", "-p", "2", "--series", "1,x")
    assert code == 2


def test_long_option_aliases(capsys):
    a = run(capsys, "pow", "--prime", "2", "--precision", "8", "--y", "5")
    b = run(capsys, "pow", "--p", "2", "--prec", "8", "--y", "5")
    c = run(capsys, "pow", "-p", "2", "-N", "8", "--y", "5")
    assert a == b == c


def test_console_script_smoke():
    argv = [shutil.which("oneunits") or ""]
    if not argv[0]:
        argv = [sys.executable, "-m", "oneunits.cli"]
    # the child imports the package under test, installed or not
    source = str(Path(oneunits.__file__).parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(argv + ["pow", "--p", "2", "--prec", "8", "--y", "5"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout == "p=2;N=8;coeffs=1,1,0,0,1,1,0,0\n"


OVER_BUDGET = [
    ["pow", "-p", "2", "-N", str(cli.MAX_PRECISION + 1), "--y", "5"],
    ["pow", "-p", "3", "--prec", str(cli.MAX_PRECISION + 1), "--y", "1/2",
     "--method", "product"],
    ["rationality", "-p", "2", "-N", str(cli.MAX_PRECISION + 1), "--y", "7"],
    ["rationality", "-p", "2", "-N", "64", "--y", "7",
     "--exp-digits", str(cli.MAX_DIGITS + 1)],
    ["enumerate", "-p", "2", "-N", str(cli.MAX_PRECISION + 1)],
    ["digits", "-p", "2", "-K", str(cli.MAX_DIGITS + 1), "--y", "1/3"],
]


def _forbid_building(monkeypatch):
    """Make every path that would build digits or coefficients raise."""
    def reached(*args, **kwargs):
        raise AssertionError("the size reached a builder")
    for name in ("_parse_exponent", "_parse_series", "pow_binomial",
                 "pow_product", "rationality_report",
                 "enumerate_endomorphisms"):
        monkeypatch.setattr(cli, name, reached)


@pytest.mark.parametrize("argv", OVER_BUDGET)
def test_size_budgets_refuse_before_building(monkeypatch, capsys, argv):
    _forbid_building(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "exceeds the budget" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", OVER_BUDGET)
def test_size_budgets_admit_the_ceiling(monkeypatch, argv):
    _forbid_building(monkeypatch)
    over = {str(cli.MAX_PRECISION + 1), str(cli.MAX_DIGITS + 1)}
    at_ceiling = [str(int(a) - 1) if a in over else a for a in argv]
    with pytest.raises(AssertionError, match="reached a builder"):
        main(at_ceiling)


def _fives(count):
    """A digit list or bare series of count fields, 5,5,...,5,0,0."""
    return ",".join(["5"] * (count - 2) + ["0", "0"])


def _full_series(count):
    return f"p=7;N={count};coeffs={_fives(count)}"


# (label, argv holding a list of the given length, the list's ceiling)
OVER_LONG_LISTS = [
    ("K", lambda c: ["rationality", "-p", "2147483647", "-N", "8",
                     "--y", _fives(c)], cli.MAX_DIGITS),
    ("K", lambda c: ["rationality", "-p", "7", "-N", "8", "--y", _fives(c),
                     "--json"], cli.MAX_DIGITS),
    ("K", lambda c: ["digits", "-p", "2147483647", "-K", "3",
                     "--y", _fives(c)], cli.MAX_DIGITS),
    ("K", lambda c: ["pow", "-p", "7", "-N", "8", "--y", _fives(c)],
     cli.MAX_DIGITS),
    ("N", lambda c: ["recover", "-p", "7", "--series", _fives(c)],
     cli.MAX_PRECISION),
    ("N", lambda c: ["hasse", "--series", _full_series(c), "-m", "1"],
     cli.MAX_PRECISION),
    ("N", lambda c: ["detect-period", "--series", _full_series(c)],
     cli.MAX_PRECISION),
]


@pytest.mark.parametrize("label, argv, ceiling", OVER_LONG_LISTS, ids=[
    "rationality", "rationality-json", "digits", "pow", "recover",
    "hasse-full-form", "detect-period-full-form"])
def test_list_lengths_count_against_the_budgets(monkeypatch, capsys, label,
                                                argv, ceiling):
    """A digit list --y counts as K and a --series as N: one field past
    the ceiling is refused before anything is built, the ceiling is not."""
    _forbid_building(monkeypatch)
    code, out, err = run(capsys, *argv(ceiling + 1))
    assert (code, out) == (1, "")
    assert err == f"{label}={ceiling + 1} exceeds the budget " \
                  f"{label} <= {ceiling}\n"
    with pytest.raises(AssertionError, match="reached a builder"):
        main(argv(ceiling))


def _decimal(n):
    """str(n) for n >= 0 past the int/str digit limit, 1000 digits at a time."""
    chunks = []
    while n >= 10**1000:
        n, low = divmod(n, 10**1000)
        chunks.append(f"{low:01000d}")
    return str(n) + "".join(reversed(chunks))


def test_integers_past_4300_digits_parse_and_print(capsys):
    """An integer within the digit budget is read and printed in full.

    7^6000 has 5071 decimal digits, past CPython's default int/str limit
    of 4300, and 2 y^2 <= p^K, so Wang's reconstruction is y itself and
    the integer verdict stands.  main restores the caller's limit.
    """
    p, k, y = 2**31 - 1, 1200, 7**6000
    assert 2 * y * y <= p**k
    text, limit = _decimal(y), sys.get_int_max_str_digits()
    argv = ["rationality", "-p", str(p), "-N", "64", "--exp-digits", str(k),
            "--y", text]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"integer: yes ({text})"
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out, parse_int=str)["integer"] == \
        {"kind": "nonneg-integer", "value": text}
    code, out, err = run(capsys, "pow", "-p", str(p), "-N", "4", "--y", text)
    assert (code, err) == (0, "")
    assert out == run(capsys, "pow", "-p", str(p), "-N", "4",
                      "--y", str(y % p**5))[1]
    assert sys.get_int_max_str_digits() == limit


def test_integers_past_the_digit_budget_exit_2(capsys):
    code, out, err = run(capsys, "pow", "-p", "5", "-N", "4",
                         "--y", "7" * (cli._INT_STR_DIGITS + 1))
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: Exceeds the limit")


def test_negative_digit_count_exits_2(capsys):
    for y in ("5", "1/2"):
        code, out, err = run(capsys, "digits", "-p", "3", "-K", "-1", "--y", y)
        assert (code, out) == (2, "")
        assert err == "invalid input: precision must be at least 1\n"



# -- any argv keeps the exit contract -------------------------------------------

# Every number stays small, so no fragment can ask for a huge series or
# digit window; the big primes only meet precisions up to 64.
NUMBERS = ["0", "1", "2", "3", "5", "8", "9", "-1", "-7", "64", "x", "",
           "2.5", "1e3", "0x10"]
PRIMES = ["2", "3", "5", "7", "65537", "2147483647", "0", "1", "4", "-3",
          "2147483648", "q"]
EXPONENTS = ["5", "-1", "0", "1/3", "-2/5", "1/0", "0/7", "1/2", "3/6",
             "1,0,1", "1,,0", "2,1", ",", "a/b", "3/", "", "9" * 30]
SERIES = ["1,1,0,0,1,1,0,0", "1,0,1,1", "1", "0,1", "1,5,7", "", "1,x",
          "1,-1", "p=2;N=4;coeffs=1,1,0,0", "p=2;N=3;coeffs=1,1",
          "p=4;N=1;coeffs=1", "p=2;N=2;coeffs=1,1;extra=1", "p=2",
          "N=2;coeffs=1,1", "p=3;N=2;coeffs=1,99999999999999999999",
          "p=2;N=0;coeffs=", "p=2;N=x;coeffs=1"]
WINDOW = {"--max-preperiod": NUMBERS, "--max-period": NUMBERS}
SERIES_ARGS = {"--series": SERIES, "-p": PRIMES}
VERBS = {
    "pow": {"-p": PRIMES, "-N": NUMBERS, "--y": EXPONENTS,
            "--method": ["binomial", "product", "box"]},
    "recover": SERIES_ARGS,
    "check-endo": {**SERIES_ARGS, "--method": ["theorem", "box", "x"]},
    "hasse": {**SERIES_ARGS, "-m": NUMBERS},
    "invert-auto": SERIES_ARGS,
    "detect-period": {**SERIES_ARGS, **WINDOW},
    "digits": {"-p": PRIMES, "-K": NUMBERS, "--y": EXPONENTS, **WINDOW},
    "rationality": {"-p": PRIMES, "-N": NUMBERS, "--y": EXPONENTS,
                    "--exp-digits": NUMBERS, **WINDOW},
    "enumerate": {"-p": PRIMES, "-N": NUMBERS},
}
STRAYS = ["--json", "--bogus", "-N", "7", "--y=-1/7", "--series", "-p=3",
          "--", "pow"]


@st.composite
def argvs(draw):
    """A verb, most of its options with valid or garbled values, and strays."""
    verb = draw(st.sampled_from(sorted(VERBS) + ["", "bogus"]))
    argv = [verb]
    for flag, values in VERBS.get(verb, VERBS["pow"]).items():
        if draw(st.integers(0, 4)):
            argv += [flag, draw(st.sampled_from(values))]
    return argv + draw(st.lists(st.sampled_from(STRAYS), max_size=2))


@settings(max_examples=300)
@given(argvs())
def test_any_argv_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# -- golden transcript ------------------------------------------------------

GOLDEN = [json.loads(line) for line in
          (Path(__file__).parent / "data" / "cli_golden.jsonl")
          .read_text().splitlines()]


@pytest.mark.parametrize(
    "entry", GOLDEN,
    ids=[f"{i:02d}-{entry['argv'][0]}" for i, entry in enumerate(GOLDEN)])
def test_golden_transcript(capsys, entry):
    """Every verb, text and --json, exit codes 0, 1 and 2: stdout, stderr
    and exit code as recorded by tests/data/make_cli_golden.py."""
    assert run(capsys, *entry["argv"]) == \
        (entry["exit"], entry["stdout"], entry["stderr"])
