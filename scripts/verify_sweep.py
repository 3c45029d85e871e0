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


def inverse_factorial(k: int) -> Fraction:
    return Fraction(1, factorial(k))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--han-max", type=int, default=12)
    ap.add_argument("--yang-max", type=int, default=8)
    ap.add_argument("--tbar-max", type=int, default=8)
    ap.add_argument("--han2-max", type=int, default=10)
    ap.add_argument("--oracle", default="const:2")
    args = ap.parse_args()

    oracle = parse_oracle(args.oracle)
    # (name, largest n, lhs of n, expected value at n, line suffix)
    sweeps = (
        ("han", args.han_max, han_lhs, inverse_factorial, ""),
        ("yang", args.yang_max, yang_lhs, inverse_factorial, ""),
        ("tbar", args.tbar_max, lambda n: tbar_lhs(oracle, n), inverse_factorial, f"  [{oracle}]"),
        ("han2", args.han2_max, han2_lhs, lambda n: inverse_factorial(2 * n + 1), ""),
    )

    failures = 0
    for name, n_max, lhs, expected, suffix in sweeps:
        for n in range(1, n_max + 1):
            value, dt = timed(lhs, n)
            ok = value == expected(n)
            failures += not ok
            print(f"{name:<5} n={n:2d}  lhs={value}  ok={ok}  ({dt:.3f}s){suffix}")

    print(f"{'all identities hold' if not failures else f'{failures} FAILURES'}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
