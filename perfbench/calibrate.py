"""Machine-speed calibration, so that timings from a shared, noisy machine
stay comparable between runs.

The benchmark runs one calibration slice after every operation. A slice is
a fixed piece of pure-Python work in the program's instruction mix (modular
row reduction, Fraction arithmetic, tuple hashing, and the argument parsing
and JSON of an operation's fixed cost) that lives here, outside the program,
so no change to the program can speed it up or slow it down.
Each round's operation times are scaled by REFERENCE_SLICE_S divided by the
mean slice time of that round: a time then reads in "reference seconds",
the seconds it would take on a machine where one slice takes
REFERENCE_SLICE_S. When the machine runs at its quiet speed the factor is
close to 1; when other load slows every instruction down, the slices slow
down with the operations and the factor cancels the slowdown.
"""

from __future__ import annotations

import argparse
import json
from fractions import Fraction
from time import perf_counter

# Median slice time, between benchmark operations, on a 2-vCPU Intel Xeon VM
# with CPython 3.11 at its quiet speed.
REFERENCE_SLICE_S = 0.00100

_P = 2305843009213693951  # 2^61 - 1


def _slice_work():
    for rep in range(2):
        _reduce(rep)
    _glue()


def _glue():
    """Interpreter-wide work like an operation's fixed cost: argument
    parsing, JSON in and out, object churn."""
    parser = argparse.ArgumentParser(prog="slice")
    sub = parser.add_subparsers(dest="command")
    for name in ("a", "b", "c", "d"):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--flag", action="store_true")
    args = parser.parse_args(["c", "--seed", "5", "--flag"])
    doc = {"rows": [[i * j for j in range(8)] for i in range(12)],
           "labels": [f"x{i}" for i in range(40)], "seed": args.seed}
    back = json.loads(json.dumps(doc, sort_keys=True))
    return sorted(back["labels"], key=lambda t: (len(t), t))


def _reduce(rep):
    rows = [[(i * 1103515245 + j * 12345 + rep) % _P for j in range(14)]
            for i in range(12)]
    rank = 0
    for col in range(14):
        piv = next((i for i in range(rank, 12) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, _P)
        prow = rows[rank]
        for i in range(rank + 1, 12):
            f = rows[i][col] * inv % _P
            if f:
                rows[i] = [(x - f * y) % _P for x, y in zip(rows[i], prow)]
        rank += 1
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, 2 * i + 1)
    seen = {(i, i * i % 97, i % 13) for i in range(300)}
    return rank, total, len(seen)


def slice_seconds():
    """Time one calibration slice."""
    start = perf_counter()
    _slice_work()
    return perf_counter() - start
