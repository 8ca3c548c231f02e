"""The oneunits benchmark: one workload, closed loop, answers checked.

    python3 bench/run.py --workload recognize --seed 1 --seconds 55 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
client asks one query at a time and waits for the answer, as a library
caller does.  A pass answers the workload's whole seeded query list once;
after one untimed warm-up pass, passes repeat until ``--seconds`` of query
time is spent; a pass calls each cheap query a few times back to back.  A
query's latency is the least of its timed calls; the percentiles and the
throughput are taken over those.  Every answer is
judged against the independent model in ``checker.py``, outside the timed
region.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones: untraced and traced passes alternate, each traced pass followed by
the workload's CLI probe in-process, and every per-layer figure is per
traced pass.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import probe

ROOT = Path(__file__).resolve().parent.parent
# metric names and units live in BENCHMARK.json; this file computes them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 7
MIN_PASSES = 3  # each query's least call time is taken over at least this many
# A pass calls each query back to back until about REPEAT_SECONDS is spent
# on it (by its warm-up time), at most MAX_REPEATS times.
REPEAT_SECONDS = 0.002
MAX_REPEATS = 16

# The layer each workload was built to stress: its per-layer metric should
# take at least half of that workload's traced query time.
RATIONALE = {
    "recognize": "units.is_endomorphism_bivariate.ms",
    "automorphisms": "series.compose.ms",
    "expand-rational": "padic.binom.ms",
    "bigprime": "series.mul.wide_ms",
}


class Tally:
    """Answers judged so far: every query, wrong ones, documented misses."""

    def __init__(self) -> None:
        self.attempted = 0
        self.wrong: list[str] = []
        self.limits: Counter = Counter()
        self.kinds: Counter = Counter()

    def judge(self, queries, answers) -> None:
        for q, got in zip(queries, answers):
            self.attempted += 1
            self.kinds[q.kind] += 1
            if isinstance(got, Exception):
                verdict = ("wrong", f"raised {got!r}")
            else:
                verdict = q.judge(got)
            if verdict is None:
                continue
            status, why = verdict
            if status == "limit":
                self.limits[(q.kind, q.case, why)] += 1
            else:
                self.wrong.append(f"{q.kind} {q.case}: {why}")

    def probe(self, problem: str | None) -> None:
        """Count one CLI probe; problem says what was wrong with its output."""
        self.attempted += 1
        self.kinds["cli_probe"] += 1
        if problem:
            self.wrong.append(problem)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.wrong += other.wrong
        self.limits += other.limits
        self.kinds += other.kinds

    @property
    def misses(self) -> int:
        return len(self.wrong) + sum(self.limits.values())

    @property
    def fail_frac(self) -> float:
        return self.misses / self.attempted


def run_pass(queries, repeats=None):
    """Answer every query once, calling query i repeats[i] times back to
    back: (query seconds, each query's least call time, last answers)."""
    spent, latencies, answers = 0.0, [], []
    for i, q in enumerate(queries):
        least = math.inf
        for _ in range(repeats[i] if repeats else 1):
            start = perf_counter()
            try:
                got = q.call()
            except Exception as exc:  # judged as a wrong answer, run continues
                got = exc
            took = perf_counter() - start
            spent += took
            least = min(least, took)
            if isinstance(got, Exception):
                break
        latencies.append(least)
        answers.append(got)
    return spent, latencies, answers


def timed_passes(one_pass, seconds: float, tally: Tally, queries):
    """Passes until `seconds` of query time is spent (at least MIN_PASSES);
    each pass is judged right after it.  Returns the pass times and, per
    query, its least call time in every pass."""
    walls, latencies = [], [[] for _ in queries]
    while True:
        wall, lat, answers = one_pass()
        tally.judge(queries, answers)
        walls.append(wall)
        for mine, x in zip(latencies, lat):
            mine.append(x)
        mean = sum(walls) / len(walls)
        if sum(walls) + mean > seconds and len(walls) >= MIN_PASSES:
            return walls, latencies


def setup_probe(workload: str, tally: Tally) -> float:
    """Wall seconds of one fresh-interpreter CLI probe, its output judged."""
    seconds, problem = probe.run_cli(ROOT, workload)
    tally.probe(problem and f"setup probe: {problem}")
    return seconds


def warm_up(queries, tally: Tally) -> list[float]:
    """One untimed pass, judged; returns each query's call time."""
    _, latencies, answers = run_pass(queries)
    tally.judge(queries, answers)
    return latencies


def end_to_end(queries, seconds: float, workload: str, tally: Tally) -> dict:
    """Fresh-interpreter probes are spread evenly over the timed passes, so
    that setup_s samples the machine over the whole run, not one moment."""
    setup_probe(workload, tally)  # warm-up: byte-compiles the package
    repeats = [max(1, min(MAX_REPEATS, round(REPEAT_SECONDS / x)))
               for x in warm_up(queries, tally)]
    timed, setups, spent = Tally(), [], [0.0]

    def one_pass():
        result = run_pass(queries, repeats)
        spent[0] += result[0]
        if spent[0] >= seconds * (len(setups) + 0.5) / SETUP_REPEATS:
            setups.append(setup_probe(workload, tally))
        return result

    walls, latencies = timed_passes(one_pass, seconds, timed, queries)
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_probe(workload, tally))
    tally.merge(timed)
    # Each query's latency is the least of its timed calls: on a shared host
    # the same code runs up to twice as slowly while other tenants are busy,
    # and the least call is the one that such interference touched least
    # (the rule of Python's timeit).  Cheap queries are called several times
    # a pass, because the host's quiet gaps are often only milliseconds long.
    best = [min(lat) * 1e3 for lat in latencies]
    print(f"passes: {len(walls)} timed after one warm-up, "
          f"{sum(repeats)} calls each; "
          f"setup probes: {len(setups)}; pass seconds: min "
          f"{min(walls):.3f}, median {statistics.median(walls):.3f}, "
          f"max {max(walls):.3f}")
    return {
        "throughput_qps": len(best) / sum(best) * 1e3,
        "latency_p50_ms": statistics.median(best),
        "latency_p90_ms": statistics.quantiles(best, n=10)[8],
        "fail_frac": timed.fail_frac,
        "correct_frac": 1 - timed.fail_frac,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(queries, seconds: float, workload: str, tally: Tally) -> dict:
    """Per traced pass: the query list once, then the CLI probe in-process.

    Untraced and traced passes alternate until `seconds` of query time is
    spent, so both sides of trace_overhead_frac see the same machine.
    """
    import oneunits
    import tracer

    imports = [probe.import_seconds(ROOT) for _ in range(SETUP_REPEATS)]
    warm_up(queries, tally)
    rec = tracer.Recorder()
    argv, expected = probe.PROBES[workload]
    untraced, traced, timed = [], [], Tally()
    while True:
        wall, _, answers = run_pass(queries)
        timed.judge(queries, answers)
        untraced.append(wall)
        out = io.StringIO()
        with tracer.traced(oneunits, rec):
            wall, _, answers = run_pass(queries)
            with contextlib.redirect_stdout(out):
                code = oneunits.cli.main(argv)
        timed.judge(queries, answers)
        traced.append(wall)
        text = out.getvalue()
        tally.probe(None if code == 0 and text == expected else
                    f"in-process probe: exit {code}, stdout {text!r}")
        spent = sum(untraced) + sum(traced)
        if spent * (1 + 1 / len(traced)) > seconds:
            break
    tally.merge(timed)
    n = len(traced)
    print(f"passes: {n} untraced and {n} traced, alternating, after one "
          f"warm-up")
    self_ms = rec.module_self_ms()
    total = sum(self_ms.values())
    print("self-time share by module: " + json.dumps(
        {k: round(v / total, 3) for k, v in self_ms.items()}))
    values = {f"{layer}.self_ms": ms / n for layer, ms in self_ms.items()}
    values["fail_frac"] = timed.fail_frac
    values.update({k: v / n for k, v in rec.derived.items()})
    values["cli.import_ms"] = statistics.median(imports) * 1e3
    values["trace_overhead_frac"] = (statistics.median(traced)
                                     / statistics.median(untraced) - 1)
    for name in layer_names():
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = rec.calls[base] / n
        elif field == "ms":
            values[name] = rec.inclusive[base] * 1e3 / n
        values.setdefault(name, 0.0)
    share = values[RATIONALE[workload]] / (statistics.mean(traced) * 1e3)
    print(f"rationale: {RATIONALE[workload]} is {share:.3f} of the traced "
          f"query time")
    return values


def layer_names() -> list[str]:
    return [m["name"] for m in SPEC["per_layer"]]


def environment(seed: int) -> dict:
    import numpy

    src_lines = sum(len(f.read_text().splitlines())
                    for f in sorted((ROOT / "src").rglob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "src_lines": src_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["recognize", "automorphisms",
                                 "expand-rational", "bigprime"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "oneunits" / "__init__.py").is_file():
        print(f"bench: no oneunits package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    started = perf_counter()
    queries = workloads.build(args.workload, args.seed)
    build_s = perf_counter() - started
    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(environment(args.seed)))
    print("mix per pass: " + json.dumps(
        dict(sorted(Counter(q.kind for q in queries).items()))) +
        f" ({len(queries)} queries, built in {build_s:.2f} s)")

    tally = Tally()
    if args.trace:
        values = per_layer(queries, args.seconds, args.workload, tally)
    else:
        values = end_to_end(queries, args.seconds, args.workload, tally)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    print("judged per kind: " + json.dumps(dict(sorted(tally.kinds.items()))))
    print(f"queries judged: {tally.attempted}; wrong: {len(tally.wrong)}; "
          f"documented window limitations: {sum(tally.limits.values())}")
    print(f"fail_frac (timed passes only): {values['fail_frac']:.5f}")
    for (kind, case, why), count in sorted(tally.limits.items()):
        print(f"  limitation x{count}: {kind} {case}: {why}")
    for line in tally.wrong[:20]:
        print(f"  WRONG: {line}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not tally.wrong,
                      "attempted": tally.attempted,
                      "failed": len(tally.wrong),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
