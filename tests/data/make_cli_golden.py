"""Write cli_golden.jsonl: each argv below with the CLI's stdout, stderr
and exit code, run in-process.

    PYTHONPATH=src python tests/data/make_cli_golden.py

Regenerate only for an intended output change, and say which lines moved.
argparse's own usage and error texts are left out, because they vary
between Python versions; exit code 2 is reached through the package's
"invalid input" path instead.
"""

import contextlib
import io
import json
from pathlib import Path

from oneunits.cli import main

P31 = "2147483647"
ARGVS = [
    # pow
    ["pow", "-p", "2", "-N", "8", "--y", "5"],
    ["pow", "-p", "2", "-N", "8", "--y", "5", "--json"],
    ["pow", "-p", "3", "-N", "12", "--y", "-1"],
    ["pow", "-p", "3", "-N", "12", "--y", "1/2", "--method", "product"],
    ["pow", "-p", "5", "-N", "10", "--y", "1,2,3"],
    ["pow", "-p", "7", "-N", "20", "--y=-3/4", "--json"],
    ["pow", "-p", P31, "-N", "6", "--y", "123456789"],
    ["pow", "-p", "4", "-N", "8", "--y", "1"],
    ["pow", "-p", "3", "-N", "8", "--y", "1/3"],
    ["pow", "-p", "2", "-N", "0", "--y", "1"],
    ["pow", "-p", "2", "-N", "2000000", "--y", "1"],
    ["pow", "-p", "2", "-N", "8", "--y", "abc", "--json"],
    # recover
    ["recover", "-p", "2", "--series", "1,1,0,0,1,1,0,0"],
    ["recover", "--series", "p=3;N=9;coeffs=1,2,1,0,0,0,0,0,0", "--json"],
    ["recover", "-p", "2", "--series", "1,0,1,1"],
    ["recover", "-p", "3", "--series", "1"],
    ["recover", "--series", "1,1,0"],
    ["recover", "-p", "3", "--series", "1,5"],
    # check-endo
    ["check-endo", "-p", "2", "--series", "1,1,1,1"],
    ["check-endo", "-p", "2", "--series", "1,1,1,1", "--method", "box"],
    ["check-endo", "-p", "3", "--series", "1,1,1,0,0", "--json"],
    ["check-endo", "-p", "3", "--series", "1,1,1,0,0", "--method", "box",
     "--json"],
    ["check-endo", "-p", "5", "--series", "1,3,3,1,0,0"],
    ["check-endo", "-p", "2", "--series", "0,1"],
    ["check-endo", "-p", "2", "--series", "1,1,0,1,0,0,0,0", "--method",
     "box"],
    # hasse
    ["hasse", "-p", "3", "--series", "1,1,1,0,0,0", "-m", "2"],
    ["hasse", "-p", "2", "--series", "1,1,0,0,1,1,0,0", "-m", "4", "--json"],
    ["hasse", "-p", "3", "--series", "1,2,0", "-m", "3"],
    ["hasse", "-p", "3", "--series", "1,2,0", "-m", "-1"],
    # invert-auto
    ["invert-auto", "-p", "3", "--series", "1,2,1,0,0,0,0,0,0"],
    ["invert-auto", "-p", "5", "--series", "1,3,3,1,0,0", "--json"],
    ["invert-auto", "-p", "2", "--series", "1,0,1,0"],
    ["invert-auto", "-p", "2", "--series", "1,0,1,1"],
    # detect-period
    ["detect-period", "-p", "2", "--series", ",".join(["1"] * 16)],
    ["detect-period", "-p", "3", "--series", ",".join(["1", "2"] * 12),
     "--max-preperiod", "2", "--max-period", "4", "--json"],
    ["detect-period", "-p", "2", "--series", "1,0,1,1,0,1,0,0"],
    ["detect-period", "-p", "2", "--series", "1"],
    ["detect-period", "--series", "p=5;N=10;coeffs=1,4,1,4,1,4,1,4,1,4",
     "--max-preperiod", "0", "--max-period", "2", "--json"],
    # digits
    ["digits", "-p", "2", "-K", "8", "--y", "5"],
    ["digits", "-p", "3", "-K", "10", "--y", "1/2", "--max-preperiod", "2",
     "--max-period", "3"],
    ["digits", "-p", "5", "-K", "12", "--y=-7/3", "--max-preperiod", "3",
     "--max-period", "4", "--json"],
    ["digits", "-p", "2", "-K", "8", "--y", "5", "--max-preperiod", "2"],
    ["digits", "-p", "2", "-K", "6", "--y", "1/5", "--max-preperiod", "0",
     "--max-period", "2"],
    ["digits", "-p", "2", "-K", "0", "--y", "1"],
    ["digits", "-p", P31, "-K", "3", "--y", "-1", "--json"],
    ["digits", "-p", "2", "-K", "5000", "--y", "1"],
    # rationality
    ["rationality", "-p", "2", "-N", "64", "--y", "5"],
    ["rationality", "-p", "3", "-N", "256", "--y", "-20", "--max-preperiod",
     "32", "--max-period", "112"],
    ["rationality", "-p", "3", "-N", "256", "--y", "-20", "--max-preperiod",
     "32", "--max-period", "112", "--json"],
    ["rationality", "-p", "2", "-N", "12", "--y", "9", "--max-preperiod",
     "6", "--max-period", "3"],
    ["rationality", "-p", "2", "-N", "64", "--y", "1/3"],
    ["rationality", "-p", "5", "-N", "50", "--y=-1/2", "--json"],
    ["rationality", "-p", "2", "-N", "8", "--y", "1", "--max-preperiod",
     "4", "--max-period", "4"],
    ["rationality", "-p", "2", "-N", "8", "--y", "1", "--max-preperiod",
     "-1", "--max-period", "1"],
    ["rationality", "-p", "2", "-N", "64", "--y", "1/5", "--exp-digits",
     "10"],
    ["rationality", "-p", "2", "-N", "64", "--y", "3", "--exp-digits", "3"],
    ["rationality", "-p", "7", "-N", "49", "--y", "1,2,3,4"],
    ["rationality", "-p", P31, "-N", "16", "--y", "-5", "--json"],
    # enumerate
    ["enumerate", "-p", "2", "-N", "4"],
    ["enumerate", "-p", "3", "-N", "3", "--json"],
    ["enumerate", "-p", "2", "-N", "22"],
    ["enumerate", "-p", "2", "-N", "0"],
    # rationality at q = 81, W = R = 8, appended so that the ids above
    # stay: Y = 60 has no fit since 21 + W + R - 1 < N, Y = 8 = W none
    # since W <= Y < N - R, and the polynomial Y = 7 < W fits
    ["rationality", "-p", "3", "-N", "64", "--y", "60"],
    ["rationality", "-p", "3", "-N", "64", "--y", "7"],
    ["rationality", "-p", "3", "-N", "64", "--y", "8"],
    # non-powers rejected past stage 0, and a large-prime stage 0, which
    # computes no Hasse row
    ["recover", "-p", "2", "--series", "1,0,0,0,1,0,1,0"],
    ["recover", "-p", "2", "--series", "1,0,0,0,0,0,0,0,0,0,0,0,1,0,0,0"],
    ["check-endo", "-p", "2", "--series", "1,0,0,0,1,0,1,0", "--json"],
    ["recover", "-p", P31, "--series", "1,5,7"],
    # products of more than one limb at p near 2^31
    ["pow", "-p", P31, "-N", "12", "--y", "1/3", "--method", "product"],
    ["pow", "-p", "2147483629", "-N", "10", "--y=-2/5", "--method",
     "product", "--json"],
    ["hasse", "-p", P31, "--series", "1,5,7,9", "-m", "1"],
    ["check-endo", "-p", P31, "--series", "1,5,7,9", "--method", "box"],
    ["rationality", "-p", P31, "-N", "16", "--y", "1/3"],
    # boxes whose first mismatch is at a row p^s > 1: (1+x)^(-2) over F_2
    # at N = 12, (1+x)^110 at p = 5, N = 30 and (1+x)^300 at p = 7, N = 60,
    # whose read-off exponents are at least N
    ["check-endo", "-p", "2", "--series", "1,0,1,0,1,0,1,0,1,0,1,0",
     "--method", "box"],
    ["check-endo", "-p", "5", "--series",
     "1,0,0,0,0,2,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,4,0,0,0,0",
     "--method", "box", "--json"],
    ["check-endo", "-p", "7", "--series",
     "1,6,1,6,1,6,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
     "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,6,1,6,1,6,1,6,0,0,0,0",
     "--method", "box"],
    # boxes read off the first index k0 where u leaves (1+x)^y: (1+x)^5
    # with x^7 flipped (k0 = 7, row 1), 1 + x^6 at p = 3 (k0 = 6, row 3
    # after row 1) and (1+x)^5 with x^6 flipped, where row 1 already fails
    ["check-endo", "-p", "2", "--series", "1,1,0,0,1,1,0,1,0,0,0,0,0,0,0,0",
     "--method", "box"],
    ["check-endo", "-p", "3", "--series", "1,0,0,0,0,0,1,0,0", "--method",
     "box"],
    ["check-endo", "-p", "2", "--series", "1,1,0,0,1,1,1,0,0,0,0,0,0,0,0,0",
     "--method", "box", "--json"],
    # stages below v_p(k0), k0 the first index where u leaves (1+x)^y:
    # 1 + x + x^12 at p = 2 (k0 = 12) fails the Hasse identity at order 1
    # (stage 0), 1 + x^2 + x^12 at order 2 (stage 1), and 1 + x^18 + x^24
    # at p = 3 (k0 = 18) at order 3 (stage 1)
    ["recover", "-p", "2", "--series", "1,1,0,0,0,0,0,0,0,0,0,0,1,0,0,0"],
    ["check-endo", "-p", "2", "--series", "1,0,1,0,0,0,0,0,0,0,0,0,1,0,0,0"],
    ["check-endo", "-p", "3", "--series",
     "1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,1,0,0", "--json"],
]


def transcript(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "exit": code}


if __name__ == "__main__":
    path = Path(__file__).with_name("cli_golden.jsonl")
    with path.open("w") as fh:
        for argv in ARGVS:
            fh.write(json.dumps(transcript(argv)) + "\n")
