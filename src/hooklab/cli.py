"""Command-line front end.

Subcommands:

  verify {han|yang|tbar|han2|lemma|labelprob}   exact checks, n = 1..n-max
  sample                                        draw labeled trees
  mc                                            Monte-Carlo goodness of fit
  census                                        per-tree completion-count table

Exit codes: 0 all checks pass, 1 a mathematical assertion failed, 2 usage
or configuration error.  ``--json`` switches verify, mc and census to one
JSON document per line; table and JSON modes carry identical values.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from functools import cache
from typing import Iterator

from .families import (
    BinaryFamily,
    BranchingOracle,
    Family,
    FamilyConfigError,
    OracleSyntaxError,
    OrderedFamily,
    ProbabilityRangeError,
    TbarFamily,
    parse_oracle,
)
from .identities import (
    ConsistencyError,
    IdentityReport,
    SizeLimitError,
    _verify,
    completion_census,
)
from . import sampler
from .sampler import grow
from .stats import (
    EXPECTED_FLOOR,
    category_masses,
    chi_squared_gof,
    min_samples,
    run_census,
)


class UsageError(Exception):
    pass


def _bool_str(flag: bool) -> str:
    return "true" if flag else "false"


def _emit(record: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(record, default=str))
    else:
        print(" ".join(f"{k}={_format_value(v)}" for k, v in record.items()))


def _format_value(v) -> str:
    if isinstance(v, bool):
        return _bool_str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return ",".join(str(x) for x in v)
    return str(v)


def positive_int(text: str) -> int:
    """argparse type of the sizes ``--n`` and ``--n-max`` and of ``--count``."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def unit_interval(text: str) -> float:
    """argparse type of ``--alpha``: a significance level in (0, 1]."""
    alpha = float(text)
    if not 0 < alpha <= 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {text}")
    return alpha


def _oracle(args) -> BranchingOracle:
    """The branching oracle of ``--oracle``, const:2 when it is unset."""
    return parse_oracle(args.oracle or "const:2")


def _family(args, m_default: Fraction | None) -> Family:
    """The growth family of ``--family``, ``--m`` and ``--oracle``; an unset
    ``--m`` is ``m_default``."""
    name = args.family or "binary"
    if name != "ordered" and args.m is not None:
        raise UsageError("--m only applies to the ordered family")
    if name == "tbar":
        return TbarFamily(_oracle(args))
    if args.oracle is not None:
        raise UsageError("--oracle only applies to the tbar family")
    if name == "binary":
        return BinaryFamily()
    if args.m is None:
        return OrderedFamily(m_default)
    if args.m == "symbolic":
        return OrderedFamily(None)
    try:
        m = Fraction(args.m)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--m must be an integer, a fraction like 7/2, or 'symbolic'; got {args.m!r}")
    return OrderedFamily(m)  # which refuses m=0 itself


def _reject_family_flags(args, *, allow_oracle: bool = False) -> None:
    if args.family is not None:
        raise UsageError(f"--family does not apply to 'verify {args.identity}'")
    if args.m is not None:
        raise UsageError(f"--m does not apply to 'verify {args.identity}'")
    if not allow_oracle and args.oracle is not None:
        raise UsageError(f"--oracle does not apply to 'verify {args.identity}'")


def _sweep_family(args, n_max: int) -> Family:
    family = _family(args, None)
    most = n_max - 1 if args.identity == "lemma" else n_max - 2
    if isinstance(family, OrderedFamily) and family.m is not None and family.m < most:
        raise UsageError(f"'verify {args.identity}' to n={n_max} weighs ordered parents with "
                         f"child counts up to {most}, so it needs m >= {most}; got m={family.m}")
    return family


def _identity(reports: Iterator[IdentityReport]) -> Iterator[tuple[dict, bool]]:
    return ((report.to_json_dict(), report.holds) for report in reports)


FAMILIES = ("binary", "ordered", "tbar")  # the choices of every --family

# verify target, in ``verify --help`` order -> (default --n-max, largest
# --n-max, check).  A check takes the oracle (identities) or the growth family
# (sweeps) and n_max, and yields for n = 1..n_max, in turn, the record to print
# and whether it holds, all from one fold pass.  The largest n keeps a sweep
# to about a second (see README for the oracles that take longer).
VERIFY = {
    "han": (10, 300, lambda oracle, n_max: _identity(_verify("han", n_max, BinaryFamily()))),
    "yang": (7, 60, lambda oracle, n_max: _identity(_verify("yang", n_max, OrderedFamily()))),
    "tbar": (7, 50, lambda oracle, n_max: _identity(_verify("tbar", n_max, TbarFamily(oracle)))),
    "han2": (10, 250, lambda oracle, n_max: _identity(_verify("han2", n_max))),
    "lemma": (5, 7, sampler._lemma),
    "labelprob": (5, 7, sampler._labelprob),
}


def cmd_verify(args) -> int:
    identity = args.identity
    default, bound, check = VERIFY[identity]
    n_max = default if args.n_max is None else args.n_max
    if n_max > bound:
        raise UsageError(f"'verify {identity}' is limited to --n-max <= {bound}, got {n_max}")
    if identity in ("lemma", "labelprob"):
        context = _sweep_family(args, n_max)
    else:
        _reject_family_flags(args, allow_oracle=identity == "tbar")
        context = _oracle(args) if identity == "tbar" else None
    failures = 0
    for record, holds in check(context, n_max):
        _emit(record, args.json)
        failures += not holds
    return 1 if failures else 0


def _site_path(parent, slot: int) -> str:
    return "/".join(str(step) for step in parent + (slot,))


def cmd_sample(args) -> int:
    family = _family(args, Fraction(args.n))
    rng = random.Random(args.seed)
    for _ in range(args.count):
        if args.verbose:
            def log(label, site, p):
                print(f"# step {label}: site={_site_path(site.parent, site.slot)} p={p}")
            tree = grow(family, args.n, rng, on_step=log)
        else:
            tree = grow(family, args.n, rng)
        print(tree.enc)
    return 0


def cmd_mc(args) -> int:
    family = _family(args, Fraction(args.n))
    masses = category_masses(family, args.n)
    if len(masses) < 2:
        raise UsageError(f"there is only one labeled {family.label} tree of size {args.n}"
                         f"{family.where}, so a chi-squared test has nothing to compare")
    minimum = min_samples(masses)
    if args.samples < minimum:
        raise UsageError(
            f"--samples {args.samples} is below the minimum {minimum} needed to keep "
            f"every expected count at {EXPECTED_FLOOR} (smallest category mass "
            f"{min(masses.values())})"
        )
    census = run_census(family, args.n, args.samples, args.seed, masses=masses)
    report = chi_squared_gof(census, alpha=args.alpha)
    record = report.to_json_dict()
    record["min_samples"] = minimum
    _emit(record, args.json)
    return 0 if report.passed else 1


def cmd_census(args) -> int:
    if args.n > 8:
        raise UsageError("census is limited to n <= 8")
    rows = completion_census(args.n)
    for row in rows:
        _emit(vars(row), args.json)
    total = rows[-1].running_total
    holds = total == 1
    _emit({"total": total, "holds": holds}, args.json)
    return 0 if holds else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``main`` may be called many times."""
    parser = argparse.ArgumentParser(
        prog="hooklab",
        description="Exact hook-length identity checks and the growth sampler.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run an exact verification sweep")
    p_verify.add_argument("identity", choices=list(VERIFY))
    p_verify.add_argument("--n-max", type=positive_int, default=None)
    p_verify.add_argument("--family", choices=FAMILIES, default=None)
    p_verify.add_argument("--m", default=None)
    p_verify.add_argument("--oracle", default=None)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_sample = sub.add_parser("sample", help="draw labeled trees from the growth chain")
    p_sample.add_argument("--family", choices=FAMILIES, default="binary")
    p_sample.add_argument("--n", type=positive_int, required=True)
    p_sample.add_argument("--count", type=positive_int, default=1)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--m", default=None)
    p_sample.add_argument("--oracle", default=None)
    p_sample.add_argument("--verbose", action="store_true")
    p_sample.set_defaults(func=cmd_sample)

    p_mc = sub.add_parser("mc", help="chi-squared test of the sampler")
    p_mc.add_argument("--family", choices=FAMILIES, default="binary")
    p_mc.add_argument("--n", type=positive_int, required=True)
    p_mc.add_argument("--samples", type=int, default=100_000)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--alpha", type=unit_interval, default=0.001)
    p_mc.add_argument("--m", default=None)
    p_mc.add_argument("--oracle", default=None)
    p_mc.add_argument("--json", action="store_true")
    p_mc.set_defaults(func=cmd_mc)

    p_census = sub.add_parser("census", help="completion labeling counts and weights")
    p_census.add_argument("--n", type=positive_int, required=True)
    p_census.add_argument("--json", action="store_true")
    p_census.set_defaults(func=cmd_census)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OracleSyntaxError, FamilyConfigError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, ProbabilityRangeError) as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
