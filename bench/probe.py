"""What a CLI call pays before it answers: the ``setup_s`` probe.

Each workload has one tiny CLI query with its verb.  The probe runs it in a
fresh interpreter, exactly as the ``oneunits`` console script would, and
checks the exit code and stdout against the text it must print.
``import_seconds`` times a bare ``import oneunits`` the same way.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

_ENTRY = ("import sys; from oneunits.cli import main; "
          "sys.exit(main(sys.argv[1:]))")
_IMPORT = ("import time; t = time.perf_counter(); import oneunits; "
           "print(time.perf_counter() - t)")
# The probe inputs are constants, so their outputs are too; selftest.py
# derives each expected output from the independent model.
_SERIES = ["--p", "2", "--series", "1,1,0,0,1,1,0,0"]          # (1+x)^5
PROBES = {
    "recognize": (["check-endo", *_SERIES], "endomorphism y=1,0,1\n"),
    "automorphisms": (["invert-auto", *_SERIES],
                      "p=2;N=8;coeffs=1,1,0,0,1,1,0,0\n"),
    "expand-rational": (["rationality", "-p", "2", "-N", "64", "--y", "7"],
                        "integer: yes (7)\n"
                        "coeff-period: preperiod=8;period=1\n"
                        "rational: p=2;num=1,1,1,1,1,1,1,1;den=1\n"
                        "verdict: CONSISTENT\n"),
    # --y=-1/7, not --y -1/7: argparse reads a separate -1/7 as an option
    # (exit 2)
    "bigprime": (["pow", "--p", str(2**31 - 1), "--prec", "8", "--y=-1/7"],
                 "p=2147483647;N=8;coeffs=1,306783378,745045347,1308525021,"
                 "1579531912,1697722093,1612643416,995263953\n"),
}


def _env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def run_cli(root: Path, workload: str) -> tuple[float, str | None]:
    """Wall seconds of one fresh-interpreter CLI call, and what was wrong."""
    argv, expected = PROBES[workload]
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", _ENTRY, *argv],
                          env=_env(root), cwd=root, capture_output=True,
                          text=True, timeout=120)
    seconds = perf_counter() - start
    if proc.returncode != 0 or proc.stdout != expected:
        return seconds, (f"{' '.join(argv)}: exit {proc.returncode}, "
                         f"stdout {proc.stdout!r}, expected {expected!r}")
    return seconds, None


def import_seconds(root: Path) -> float:
    """Seconds a fresh interpreter spends in a bare ``import oneunits``."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT], env=_env(root),
                          cwd=root, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout)
