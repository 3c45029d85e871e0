"""The benchmark's workloads: fixed lists of hooklab commands.

Each command is either a ``hooklab`` CLI invocation or the m=2 bridge,
which has no CLI command and is a library call.  Only ``mc`` and ``sample``
take random input; their ``--seed`` values are derived from the workload
seed, so the program never sees the workload seed itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

DEFAULT_SEED = 1

# One mc gate fails by chance with probability alpha.  Comparing two
# commits takes dozens of runs of several gates each, so alpha is set low
# enough that a correct sampler practically never trips it, while a wrong
# one still lands far below it at these sample counts.
MC_ALPHA = "1e-6"


@dataclass(frozen=True)
class Command:
    kind: str                  # "verify", "bridge", "mc" or "sample"
    args: tuple[str, ...]      # CLI arguments without --seed; empty for the bridge
    n: int                     # tree size, or the n-max of a sweep
    family: str | None = None  # growth family of lemma/labelprob/mc/sample
    oracle: str | None = None  # branching oracle of a tbar family or identity
    count: int = 0             # trees printed by sample, samples drawn by mc
    m: str | None = None       # --m of an ordered family

    @property
    def key(self) -> str:
        return " ".join(self.args) if self.args else f"bridge --n-max {self.n}"

    def argv(self, workload_seed: int) -> list[str]:
        """The CLI arguments, with the derived --seed for mc and sample."""
        argv = list(self.args)
        if self.kind in ("mc", "sample"):
            argv += ["--seed", str(derive_seed(workload_seed, self.key))]
        return argv


def derive_seed(workload_seed: int, key: str) -> int:
    digest = hashlib.sha256(f"{workload_seed}:{key}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big")


def _family_args(family: str, oracle: str | None, m: str | None) -> tuple[str, ...]:
    args = ("--family", family)
    if oracle is not None:
        args += ("--oracle", oracle)
    if m is not None:
        args += ("--m", m)
    return args


def verify(identity: str, n_max: int, oracle: str | None = None) -> Command:
    args = ("verify", identity, "--n-max", str(n_max))
    if oracle is not None:
        args += ("--oracle", oracle)
    return Command("verify", args + ("--json",), n_max, oracle=oracle)


def sweep(check: str, family: str, n_max: int, oracle: str | None = None,
          m: str | None = None) -> Command:
    """``verify lemma`` or ``verify labelprob`` over one growth family."""
    args = ("verify", check) + _family_args(family, oracle, m) + ("--n-max", str(n_max), "--json")
    return Command("verify", args, n_max, family, oracle, m=m)


def bridge(n_max: int) -> Command:
    """yang_sum_at(n, 2) == han_lhs(n) for n = 1..n_max."""
    return Command("bridge", (), n_max)


def mc(family: str, n: int, samples: int, oracle: str | None = None,
       m: str | None = None) -> Command:
    args = ("mc",) + _family_args(family, oracle, m) + (
        "--n", str(n), "--samples", str(samples), "--alpha", MC_ALPHA, "--json")
    return Command("mc", args, n, family, oracle, samples, m)


def sample(family: str, n: int, count: int, oracle: str | None = None,
           m: str | None = None) -> Command:
    args = ("sample",) + _family_args(family, oracle, m) + ("--n", str(n), "--count", str(count))
    return Command("sample", args, n, family, oracle, count, m)


# The acceptance-criterion-10 mc configurations and the sampler's
# large-n sizes; the growth workload runs them all, the other two workloads
# close with the growth chain of the identity they sum.
MC_BINARY = mc("binary", 5, 20480)
MC_ORDERED = mc("ordered", 4, 20000, m="10")
MC_TBAR = mc("tbar", 4, 20000, oracle="depth:2,3")
SAMPLE_BINARY = sample("binary", 24, 400)
SAMPLE_ORDERED = sample("ordered", 24, 100, m="24")
SAMPLE_TBAR = sample("tbar", 24, 200, oracle="depth:2,3")

WORKLOADS: dict[str, tuple[Command, ...]] = {
    # Enumeration, tree construction and hook terms accumulated in
    # integers or Fraction; no RationalFunction.
    "exact-sums": (
        verify("han", 12),
        verify("han2", 11),
        verify("tbar", 8, oracle="const:3"),
        verify("tbar", 8, oracle="depth:2,3"),
        MC_BINARY,
        SAMPLE_BINARY,
    ),
    # RationalFunction gcd/divmod: the ordered sum in symbolic m, the m=2
    # bridge, and the growth lemma with symbolic site probabilities.
    "symbolic": (
        verify("yang", 8),
        bridge(10),
        sweep("lemma", "ordered", 5, m="symbolic"),
        sweep("labelprob", "ordered", 5, m="symbolic"),
        MC_ORDERED,
        SAMPLE_ORDERED,
    ),
    # The sampler: random draws (mc, sample) and exhaustive growth-state
    # enumeration with concrete Fractions (lemma, labelprob).
    "growth": (
        MC_BINARY,
        MC_ORDERED,
        MC_TBAR,
        SAMPLE_BINARY,
        SAMPLE_ORDERED,
        SAMPLE_TBAR,
        sweep("lemma", "binary", 7),
        sweep("labelprob", "binary", 7),
        sweep("lemma", "tbar", 6, oracle="depth:2,3"),
        sweep("labelprob", "tbar", 6, oracle="depth:2,3"),
    ),
}
