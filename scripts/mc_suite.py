#!/usr/bin/env python3
"""Run the sampler validation suite: seeded Monte Carlo census plus
chi-squared goodness of fit for one configuration per family.

Usage:
    python3 scripts/mc_suite.py [--samples 200000] [--seed 1] [--alpha 0.001]
"""

import argparse
import json
import time

from hooklab import (
    BinaryFamily,
    DepthBranching,
    OrderedFamily,
    TbarFamily,
    category_masses,
    chi_squared_gof,
    min_samples,
    run_census,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--alpha", type=float, default=0.001)
    args = ap.parse_args()

    runs = [
        (BinaryFamily(), 5),
        (OrderedFamily(10), 4),
        (TbarFamily(DepthBranching((2, 3))), 4),
    ]
    all_passed = True
    for family, n in runs:
        masses = category_masses(family, n)
        minimum = min_samples(masses)
        if args.samples < minimum:
            print(f"{family.label} n={n}: need at least {minimum} samples")
            all_passed = False
            continue
        started = time.perf_counter()
        census = run_census(family, n, args.samples, seed=args.seed, masses=masses)
        gof = chi_squared_gof(census, alpha=args.alpha)
        dt = time.perf_counter() - started
        doc = gof.to_json_dict()
        doc["seconds"] = round(dt, 2)
        print(json.dumps(doc))
        all_passed = all_passed and gof.passed

    return 0 if all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
