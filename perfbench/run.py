#!/usr/bin/env python3
"""hooklab benchmark: time to verdict and sampler throughput.

    python3 perfbench/run.py --workload exact-sums --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

Runs one workload's fixed command list, pass after pass, in this single
process (closed loop, one client) until ``--seconds`` would be exceeded,
and reports the median pass.  Every command goes through
``hooklab.cli.main`` with stdout captured, except the m=2 bridge, a library
call.  Outputs are checked against references computed here (see
checks.py); ``--trace 1`` instead runs one untraced and one traced pass and
reports per-module metrics (see tracing.py) and the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9

sys.path.insert(0, str(HERE))

from checks import Tally, check_bridge, check_mc, check_sample, check_verify  # noqa: E402
from speed import SpeedClock, scale  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "verify_s": "s",
    "mc_s": "s",
    "sample_trees_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def load_hooklab():
    """Import hooklab from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hooklab
        import hooklab.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"cannot import hooklab from {src}: {exc}")
    if not Path(hooklab.__file__).resolve().is_relative_to(src):
        sys.exit(f"hooklab was imported from {hooklab.__file__}, not from {src}")
    return hooklab


def family_specs(commands) -> list[str]:
    """The families and oracles a workload builds, as setup_probe.py specs."""
    specs = []
    for cmd in commands:
        if cmd.family == "ordered":
            spec = f"ordered:{cmd.m}"
        elif cmd.oracle is not None:
            spec = f"tbar:{cmd.oracle}"
        else:
            spec = cmd.family
        if spec is not None and spec not in specs:
            specs.append(spec)
    return specs


def measure_setup(specs: list[str]) -> float:
    """Median scaled CPU time from starting a fresh interpreter to the first
    command."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), *specs]
    times = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(probe, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"set-up probe failed: {proc.stderr.strip()}")
        if i:  # the first probe also writes bytecode caches
            cpu, reference = map(float, proc.stdout.split())
            times.append(cpu * scale(reference))
    return statistics.median(times)


def execute(hooklab, cmd, argv: list[str]):
    """Run one command; returns (stdout or bridge results, stderr, exit code)."""
    if cmd.kind == "bridge":
        two = Fraction(2)
        results = [(n, hooklab.yang_sum_at(n, two), hooklab.han_lhs(n)) for n in range(1, cmd.n + 1)]
        return results, "", 0
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hooklab.cli.main(argv)
    return out.getvalue(), err.getvalue(), code


class Workload:
    def __init__(self, hooklab, name: str, seed: int, perturb: bool = False):
        self.hooklab = hooklab
        self.commands = [(cmd, cmd.argv(seed)) for cmd in WORKLOADS[name]]
        self.tally = Tally()
        self.perturb = perturb
        self.digests: dict[str, str] = {}
        self.golden = None
        if seed == DEFAULT_SEED:
            self.golden = json.loads((HERE / "golden.json").read_text())

    def run_pass(self, clock: SpeedClock, tracer=None) -> tuple[dict, dict]:
        """One pass over the command list: its metrics from scaled CPU
        seconds, and the same from unscaled ones."""
        scaled = {"verify": 0.0, "bridge": 0.0, "mc": 0.0, "sample": 0.0}
        unscaled = dict(scaled)
        trees = 0
        for cmd, argv in self.commands:
            key = " ".join(argv) or cmd.key
            if tracer is not None:
                tracer.command = key
            mark = clock.mark()
            try:
                output, err, code = execute(self.hooklab, cmd, argv)
            except Exception:  # a crash is a failed check, not the end of the run
                traceback.print_exc()
                self.tally.check(False, f"{key}: raised")
                continue
            finally:
                seconds, cpu = clock.seconds_since(mark)
                scaled[cmd.kind] += seconds
                unscaled[cmd.kind] += cpu
            self.check(cmd, argv, key, output, err, code)
            if cmd.kind == "sample":
                trees += len(output.splitlines())
        return pass_metrics(scaled, trees), pass_metrics(unscaled, trees)

    def check(self, cmd, argv, key, output, err, code) -> None:
        tally = self.tally
        if not tally.check(code == 0, f"{key}: exit code {code}: {err.strip()[:200]}"):
            return
        if cmd.kind == "bridge":
            check_bridge(output, cmd.n, tally)
            return
        if cmd.kind == "verify":
            check_verify(cmd, output, tally, perturb=self.perturb)
            self.perturb = False
            return
        if cmd.kind == "mc":
            check_mc(cmd, argv, output, tally)
        else:
            check_sample(cmd, output, tally, self.hooklab)
        digest = hashlib.sha256(output.encode()).hexdigest()
        first = self.digests.setdefault(key, digest)
        tally.check(digest == first, f"{key}: output differs from the first pass")
        if self.golden is not None:
            tally.check(self.golden.get(key) == digest, f"{key}: output differs from golden.json")


def pass_metrics(times: dict[str, float], trees: int) -> dict[str, float]:
    return {
        "verify_s": times["verify"] + times["bridge"],
        "mc_s": times["mc"],
        "sample_trees_per_s": trees / times["sample"] if times["sample"] else 0.0,
    }


def context() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
        elif not ref.startswith("ref: "):
            commit = ref
    return {
        "machine": f"{platform.machine()} {platform.platform()}",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "HOOKLAB_THREADS": os.environ.get("HOOKLAB_THREADS", "unset"),
    }


def run_workload(args) -> int:
    removed = os.environ.pop("HOOKLAB_THREADS", None)
    if removed is not None:
        print(f"HOOKLAB_THREADS={removed} removed: workloads run single-threaded", file=sys.stderr)
    hooklab = load_hooklab()
    workload = Workload(hooklab, args.workload, args.seed, args.perturb_reference)
    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, tuple[float, str]] = {}  # printed, not part of the result
    if args.trace:
        from tracing import Tracer, layer_metrics

        with SpeedClock() as clock:
            mark = clock.mark()
            workload.run_pass(clock)
            untraced, _ = clock.seconds_since(mark)
            with Tracer(hooklab) as tracer:
                mark = clock.mark()
                workload.run_pass(clock, tracer)
                traced, _ = clock.seconds_since(mark)
                scale = clock.factor(mark[2])
        workload.tally.check(not tracer.replay_mismatches,
                             "replay: " + "; ".join(tracer.replay_mismatches[:3]))
        metrics = layer_metrics(tracer, growth_sizes(), scale)
        metrics["trace.untraced_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        metrics["trace.overhead_share"] = ((traced - untraced) / untraced, "ratio")
        write_trace(args, tracer, metrics)
        passes = 2
    else:
        setup_s = measure_setup(family_specs(cmd for cmd, _ in workload.commands))
        results = []
        window = perf_counter()
        longest = 0.0
        with SpeedClock() as clock:
            while True:
                started = perf_counter()
                results.append(workload.run_pass(clock))
                longest = max(longest, perf_counter() - started)
                if perf_counter() - window + longest > args.seconds:
                    break
        passes = len(results)
        metrics["setup_s"] = (setup_s, "s")
        for name in ("verify_s", "mc_s", "sample_trees_per_s"):
            unit = END_TO_END_UNITS[name]
            metrics[name] = (statistics.median(r[name] for r, _ in results), unit)
            notes[f"unscaled {name}"] = (statistics.median(u[name] for _, u in results), unit)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kib / 1024, "MB")
    share = workload.tally.failed / workload.tally.attempted if workload.tally.attempted else 1.0
    notes["checks"] = (workload.tally.attempted, "count")
    notes["checks_failed_share"] = (share, "ratio")
    return report(args, workload.tally, metrics, notes, passes)


def growth_sizes() -> list[tuple[str, int]]:
    sizes = []
    for commands in WORKLOADS.values():
        for cmd in commands:
            if cmd.kind in ("mc", "sample") and (cmd.family, cmd.n) not in sizes:
                sizes.append((cmd.family, cmd.n))
    return sorted(sizes)


def write_trace(args, tracer, metrics) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "context": context(),
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "aggregates": {name: {"calls": c, "total_s": t, "self_s": s}
                       for name, (c, t, s) in sorted(tracer.stats.items())},
        "counts": dict(tracer.counts),
        "spans": tracer.spans,
    }
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"trace written to {path.relative_to(ROOT)}")


def report(args, tally: Tally, metrics, notes, passes: int) -> int:
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={passes}")
    for name, (value, unit) in [*metrics.items(), *notes.items()]:
        print(f"  {name:<36} {value:>14.6f} {unit}")
    for message in tally.messages:
        print(f"  FAILED: {message}")
    print("context " + json.dumps(context()))
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process; one combined result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.perturb_reference:
            cmd.append("--perturb-reference")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.exit(f"workload {name} printed no result (exit code {proc.returncode})")
        print("\n".join(lines[:-1]))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def print_golden(args) -> int:
    """Digests of every mc and sample output at the default seed."""
    hooklab = load_hooklab()
    golden = {}
    for commands in WORKLOADS.values():
        for cmd in commands:
            if cmd.kind in ("mc", "sample"):
                argv = cmd.argv(DEFAULT_SEED)
                output, err, code = execute(hooklab, cmd, argv)
                if code != 0:
                    sys.exit(f"{' '.join(argv)} exited {code}: {err}")
                golden[" ".join(argv)] = hashlib.sha256(output.encode()).hexdigest()
    print(json.dumps(golden, indent=1, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--perturb-reference", action="store_true",
                        help="shift one 1/n! reference, to show the checks catch it")
    parser.add_argument("--print-golden", action="store_true",
                        help="print golden.json for the current code and exit")
    args = parser.parse_args(argv)
    if args.print_golden:
        return print_golden(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
