"""Outside-in span tracing of the oneunits layers, for the traced run only.

``traced(package, recorder)`` replaces every public function and every
exported-class method of the seven layer modules (each module's
``__all__``) by a wrapper that records a span.  A function is replaced in
every namespace that binds it, because ``units``, ``cli`` and the package
``__init__`` import by name.  Leaving the block puts every original object
back and verifies it, so untraced timing runs unmodified code.

Spans close in stack order in this single-threaded benchmark, so they are
aggregated as they close rather than stored: per name the call count, the
inclusive time, and the self time (duration minus the time its child spans
cover).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("fp", "padic", "periodic", "ratfn", "series", "units", "cli")
_OPERATORS = {"__add__": "add", "__sub__": "sub", "__mul__": "mul",
              "__neg__": "neg", "__pow__": "pow"}
WIDE = 2**62  # (p-1)^2 * N at or above this leaves numpy's int64 convolution


class Recorder:
    """Per-name span aggregates, plus the two derived counters the benchmark
    reports: series.mul calls beneath recover_exponent, and the time of
    series.mul calls on the pure-Python (wide) convolution path."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.derived: dict[str, float] = defaultdict(float)
        self.stack: list[list] = []      # open spans: [name, child seconds]
        self.open: dict[str, int] = defaultdict(int)

    def close(self, name: str, seconds: float, children: float, args) -> None:
        self.calls[name] += 1
        if not self.open[name]:          # outermost of a same-name nest
            self.inclusive[name] += seconds
        self.self_time[name] += seconds - children
        if name == "series.mul":
            if self.open["units.recover_exponent"]:
                self.derived["units.recover_exponent.mul_calls"] += 1
            a, b = args[0], args[1]
            n = min(len(a.coeffs), len(b.coeffs))
            if (a.modulus.p - 1) ** 2 * n >= WIDE:
                self.derived["series.mul.wide_ms"] += seconds * 1e3

    def module_self_ms(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_time.items():
            out[name.split(".", 1)[0]] += seconds * 1e3
        return out


def _wrap(fn, name: str, rec: Recorder):
    @functools.wraps(fn)
    def span(*args, **kwargs):
        frame = [name, 0.0]
        parent = rec.stack[-1] if rec.stack else None
        rec.stack.append(frame)
        rec.open[name] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = perf_counter() - start
            rec.stack.pop()
            rec.open[name] -= 1
            rec.close(name, seconds, frame[1], args)
            if parent is not None:
                parent[1] += seconds
    span.label = name
    return span


def _method_label(layer: str, cls: type, attr: str) -> str | None:
    if attr == "__init__":
        return f"{layer}.{cls.__name__}"
    if attr in _OPERATORS:
        return f"{layer}.{_OPERATORS[attr]}"
    return None if attr.startswith("_") else f"{layer}.{attr}"


def _patches(package, rec: Recorder):
    """(target, attribute, original, replacement) for every traced name."""
    prefix = package.__name__
    layers = {layer: importlib.import_module(f"{prefix}.{layer}")
              for layer in LAYERS}
    namespaces = [m for n, m in list(sys.modules.items())
                  if n == prefix or n.startswith(prefix + ".")]
    out, labels = [], set()

    def label(name):
        if name in labels:
            raise RuntimeError(f"two traced callables share the span {name}")
        labels.add(name)
        return name

    for layer, module in layers.items():
        for export in module.__all__:
            obj = getattr(module, export)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapper = _wrap(obj, label(f"{layer}.{export}"), rec)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            out.append((ns, key, obj, wrapper))
            elif isinstance(obj, type):
                for attr, raw in list(vars(obj).items()):
                    name = _method_label(layer, obj, attr)
                    if name is None:
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(_wrap(raw.__func__, label(name), rec))
                    elif inspect.isfunction(raw):
                        new = _wrap(raw, label(name), rec)
                    else:
                        continue
                    out.append((obj, attr, raw, new))
    return out


def span_names(package) -> set[str]:
    """Every span name a traced run can record."""
    return {getattr(new, "__func__", new).label
            for *_, new in _patches(package, Recorder())}


def restored(patches) -> bool:
    """Whether every patched name holds its original object again."""
    return all(vars(target)[attr] is original
               for target, attr, original, _ in patches)


@contextlib.contextmanager
def traced(package, rec: Recorder):
    """Trace every layer call made inside the block into rec."""
    patches = _patches(package, rec)
    try:
        for target, attr, _, new in patches:
            setattr(target, attr, new)
        yield patches
    finally:
        for target, attr, original, _ in reversed(patches):
            setattr(target, attr, original)
        if not restored(patches):
            raise RuntimeError("tracing left a wrapped name behind")
