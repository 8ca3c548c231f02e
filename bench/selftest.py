"""Self-test of the benchmark's own parts, run from the repository root:

    python3 bench/selftest.py        (or: python3 -m pytest bench/selftest.py)

It checks that the independent answer model agrees with the reference
oracles in tests/oracles.py, that a corrupted answer is judged wrong, that
the CLI probes expect what the CLI prints, and that tracing puts back every
name it wrapped, so untraced timing runs unmodified code.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import oneunits  # noqa: E402
import oracles  # noqa: E402

import checker as model  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_expansion_matches_pascal():
    for p in (2, 3, 5, 7):
        for y in range(40):
            k = model.digits_needed(p, 41)
            got = model.expand(model.digits_of(y, p, k), p, 30)
            assert list(got) == [oracles.pascal_binom(y, n, p)
                                 for n in range(30)], (p, y)


def test_binom_and_mul_match_oracles():
    for p in (2, 3, 5, 7):
        for n, k in itertools.product(range(25), repeat=2):
            assert model.binom(n, k, p) == oracles.pascal_binom(n, k, p)
        a = [(3 * i + 1) % p for i in range(17)]
        b = [(i * i + 2) % p for i in range(13)]
        assert model.mul(a, b, p, 20) == oracles.naive_mul(a, b, p, 20)


def test_fraction_digits_match_long_division():
    for p in (2, 3, 5, 7, 2**31 - 1):
        for v in (Fraction(1, 3), Fraction(-1, 7), Fraction(22, 9),
                  Fraction(-5)):
            if v.denominator % p:
                assert model.digits_of(v, p, 12) == \
                    oracles.fraction_digits(v, p, 12)


def test_period_matches_order_oracle():
    for p in (2, 3, 5):
        for k in range(1, 31):
            den = model.expand(model.digits_of(k, p, 8), p, k + 1)
            assert model.order_of_x(den, p) == \
                oracles.order_of_x_mod(den, p, 1000), (p, k)


def test_recognition_model():
    for p, n in ((2, 8), (3, 9), (5, 5), (2, 12)):
        powers = model.census(p, n)
        assert len(powers) == p ** model.digits_needed(p, n)
        for c in powers:
            digits = model.power_digits(c, p)
            assert model.expand(digits, p, n) == c
            assert all(model.hasse_identity(c, m, p) for m in range(n))
        assert model.power_digits((1, 0, 1, 1, 0, 0, 0, 0), 2) is None


def test_model_names_the_documented_window_failures():
    """Criterion 7's eight pairs are exactly the modelled window misses."""
    misses = []
    for p in (2, 3, 5):
        for y in range(-30, 31):
            truth = model.rationality(Fraction(y), model.digits_of(y, p, 16),
                                      256, 32, 112, p)
            if truth.limitation:
                misses.append((p, y))
    assert misses == [(3, -30), (3, -29), (3, -28), (5, -30), (5, -29),
                      (5, -28), (5, -27), (5, -26)]


def test_true_report_beyond_the_window_is_right():
    """A report that lifts a window limitation is judged right, not wrong."""
    truth = model.rationality(Fraction(-30), model.digits_of(-30, 3, 16),
                              256, 32, 112, 3)
    assert truth.limitation and truth.window != truth.truth
    kind, value, period, rational, consistent = truth.truth
    assert (kind, value, consistent) == ("negative-integer", -30, True)
    assert period[1] > 112 and rational[0] == (1,)
    assert truth.judge(truth.truth) is None
    assert truth.judge(truth.window) == ("limit", truth.limitation)
    wrong = (kind, value, (period[0], period[1] + 1), rational, consistent)
    assert truth.judge(wrong)[0] == "wrong"


def _corrupt(answer):
    if isinstance(answer, bool):
        return not answer
    if isinstance(answer, (int, Fraction)):
        return answer + 1
    if isinstance(answer, (tuple, list)) and answer:
        return type(answer)([*answer[:-1], _corrupt(answer[-1])])
    return "corrupted"


def test_corrupted_answers_are_wrong():
    for name in workloads.WORKLOADS:
        queries = workloads.build(name, 7)
        sample = list({q.kind: q for q in queries}.values())
        for q in sample:
            answer = q.project(q.call())
            verdict = q.check(answer)
            assert verdict is None or verdict[0] == "limit", verdict
            assert q.check(_corrupt(answer))[0] == "wrong", (name, q.kind)
        tally = run.Tally()
        tally.judge(sample[:1], [RuntimeError("boom")])
        assert len(tally.wrong) == 1 and tally.misses == 1


def _text(values) -> str:
    return ",".join(map(str, values))


def test_probe_outputs_match_the_model():
    big = 2**31 - 1
    fifth = model.expand(model.digits_of(5, 2, 3), 2, 8)
    inverse = model.expand(model.digits_of(Fraction(1, 5), 2, 3), 2, 8)
    kind, value, (pre, period), (num, den), consistent = model.rationality(
        Fraction(7), model.digits_of(7, 2, 10), 64, 8, 8, 2).truth
    pow_big = model.expand(model.digits_of(Fraction(-1, 7), big, 5), big, 8)
    assert probe._SERIES[-1] == _text(fifth)
    assert probe.PROBES["recognize"][1] == \
        f"endomorphism y={_text(model.power_digits(fifth, 2))}\n"
    assert probe.PROBES["automorphisms"][1] == \
        f"p=2;N=8;coeffs={_text(inverse)}\n"
    assert kind == "nonneg-integer" and consistent
    assert probe.PROBES["expand-rational"][1] == (
        f"integer: yes ({value})\n"
        f"coeff-period: preperiod={pre};period={period}\n"
        f"rational: p=2;num={_text(num)};den={_text(den)}\n"
        "verdict: CONSISTENT\n")
    assert probe.PROBES["bigprime"][1] == \
        f"p={big};N=8;coeffs={_text(pow_big)}\n"


def test_probes_expect_what_the_cli_prints():
    for name in probe.PROBES:
        _, problem = probe.run_cli(ROOT, name)
        assert problem is None, problem


def test_layer_metrics_name_traced_spans():
    spans = tracer.span_names(oneunits)
    derived = {"units.recover_exponent.mul_calls", "series.mul.wide_ms",
               "cli.import_ms", "trace_overhead_frac"}
    for name in run.layer_names():
        base, _, field = name.rpartition(".")
        if field in ("calls", "ms"):
            assert base in spans, name
        elif field == "self_ms":
            assert base in tracer.LAYERS, name
        else:
            assert name in derived, name


def _snapshot():
    import oneunits.cli  # noqa: F401  (the CLI layer is traced too)

    spaces = [m for n, m in sys.modules.items()
              if n == "oneunits" or n.startswith("oneunits.")]
    spaces += [obj for m in spaces for obj in vars(m).values()
               if isinstance(obj, type)
               and obj.__module__.startswith("oneunits.")]
    return {(id(s), k): v for s in spaces for k, v in list(vars(s).items())}


def test_tracer_restores_every_name():
    before = _snapshot()
    rec = tracer.Recorder()
    y = oneunits.PadicApprox(oneunits.Prime(3), (1, 2))
    try:
        with tracer.traced(oneunits, rec) as patches:
            assert oneunits.pow_binomial is not before[
                (id(oneunits), "pow_binomial")]
            oneunits.units.is_endomorphism_via_theorem(
                oneunits.pow_binomial(y, 9))
            raise KeyError("leave the block by an exception")
    except KeyError:
        pass
    assert tracer.restored(patches)
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert rec.calls["units.pow_binomial"] == 2      # direct, and verify
    assert rec.calls["units.recover_exponent"] == 1
    assert rec.calls["padic.binom"] == 18
    assert rec.derived["units.recover_exponent.mul_calls"] == \
        rec.calls["series.mul"]


if __name__ == "__main__":
    tests = [f for n, f in sorted(globals().items()) if n.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} passed")
