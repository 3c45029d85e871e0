#!/usr/bin/env python3
"""Sweep all four exact identities and print one timed line per n.

Usage:
    python3 scripts/verify_sweep.py [--han-max 12] [--yang-max 8]
                                    [--tbar-max 8] [--han2-max 10]
                                    [--oracle const:2]
"""

import argparse
import time
from fractions import Fraction
from math import factorial

from hooklab import han2_lhs, han_lhs, parse_oracle, tbar_lhs, yang_lhs


def timed(fn, *args):
    started = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - started


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--han-max", type=int, default=12)
    ap.add_argument("--yang-max", type=int, default=8)
    ap.add_argument("--tbar-max", type=int, default=8)
    ap.add_argument("--han2-max", type=int, default=10)
    ap.add_argument("--oracle", default="const:2")
    args = ap.parse_args()

    failures = 0

    for n in range(1, args.han_max + 1):
        value, dt = timed(han_lhs, n)
        ok = value == Fraction(1, factorial(n))
        failures += not ok
        print(f"han   n={n:2d}  lhs={value}  ok={ok}  ({dt:.3f}s)")

    for n in range(1, args.yang_max + 1):
        value, dt = timed(yang_lhs, n)
        ok = value == Fraction(1, factorial(n))
        failures += not ok
        print(f"yang  n={n:2d}  lhs={value}  ok={ok}  ({dt:.3f}s)")

    oracle = parse_oracle(args.oracle)
    for n in range(1, args.tbar_max + 1):
        value, dt = timed(tbar_lhs, oracle, n)
        ok = value == Fraction(1, factorial(n))
        failures += not ok
        print(f"tbar  n={n:2d}  lhs={value}  ok={ok}  ({dt:.3f}s)  [{oracle}]")

    for n in range(1, args.han2_max + 1):
        value, dt = timed(han2_lhs, n)
        ok = value == Fraction(1, factorial(2 * n + 1))
        failures += not ok
        print(f"han2  n={n:2d}  lhs={value}  ok={ok}  ({dt:.3f}s)")

    print(f"{'all identities hold' if not failures else f'{failures} FAILURES'}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
