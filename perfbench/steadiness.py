#!/usr/bin/env python3
"""Steadiness check: run workloads under several seeds and report, for every
end-to-end metric, its quartiles and the spread (q3 - q1) / median next to
the bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --seeds 1-10
    python3 perfbench/steadiness.py --seeds 1-5 --workloads symbolic
    python3 perfbench/steadiness.py --seeds 1-10 --trace --output perfbench/EVIDENCE.json
    python3 perfbench/steadiness.py --seeds 1-10 --baseline perfbench/EVIDENCE.json

Runs are sequential, one fresh process each.  ``--trace`` adds one traced
run per workload for the tracing overhead.  ``--baseline`` compares every
median with an earlier output, as a share of it (positive is worse), and
keeps that earlier set in the new output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, context line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stdout}{proc.stderr}")
    context = next(json.loads(line[8:]) for line in lines if line.startswith("context "))
    return json.loads(lines[-1]), context


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="a seed or a range such as 1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--output", help="write the evidence as JSON here")
    parser.add_argument("--baseline", help="an earlier --output to compare medians with")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    higher = {m["name"] for m in spec["end_to_end"] if m["better"] == "higher"}
    evidence = {"run_seconds": spec["run_seconds"], "workloads": {}}
    baseline = None
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())["workloads"]
        evidence["baseline"] = baseline
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        seeds = parse_seeds(args.seeds)
        for seed in seeds:
            result, context = run(workload, seed, spec["run_seconds"], 0)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: checks failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        entry = {"seeds": seeds, "metrics": {}}
        print(f"{workload} ({len(seeds)} seeds)")
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            entry["metrics"][name] = {"q1": q1, "median": median, "q3": q3, "spread": spread,
                                      "bound": bounds[name], "values": vals}
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            line = (f"  {name:<22} median {median:12.5f}  q1 {q1:12.5f}  q3 {q3:12.5f}  "
                    f"spread {spread:6.3f}  bound {bounds[name]:.2f}  {flag}")
            if baseline and workload in baseline:
                before = baseline[workload]["metrics"][name]["median"]
                worse = (before - median if name in higher else median - before) / before
                entry["metrics"][name]["worse_than_baseline"] = worse
                line += f"  vs baseline {worse:+.3f} {'ok' if worse <= bounds[name] else 'WORSE'}"
            print(line)
        if args.trace:
            result, _ = run(workload, seeds[0], spec["run_seconds"], 1)
            metrics = result["metrics"]
            entry["trace"] = {name: metrics[name]["value"] for name in
                              ("trace.untraced_s", "trace.overhead_s", "trace.overhead_share")}
            print(f"  tracing overhead {entry['trace']['trace.overhead_s']:.3f} s "
                  f"({entry['trace']['trace.overhead_share']:.1%} of {entry['trace']['trace.untraced_s']:.3f} s)")
        evidence["workloads"][workload] = entry
        evidence["context"] = context
    if args.output:
        Path(args.output).write_text(json.dumps(evidence, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
