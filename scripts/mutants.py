#!/usr/bin/env python3
"""Run the test suite against textual mutants of the hook folds, the weight
memo that every family inherits from one base class, tbar's open slots, the
growth kernel and the census table's draws.

Each mutant below replaces one piece of source text.  For each, the script
copies src/, tests/ and pyproject.toml to a fresh temporary directory,
applies the mutant there (never to this checkout) and runs the whole suite
in that copy, as ``python -m pytest`` from its root does, with hypothesis
seeded (``--hypothesis-seed=0``) so that each row's failing tests repeat run
to run.  It runs the unmutated copy first: a suite that fails there makes
every row meaningless.

A mutant lists one or more forms, each a list of (file under src/hooklab,
old text, new text) edits; the first form whose every old text occurs
exactly once is applied.  A later form is the same fault in an older
layout of the code, so the same list measures an older commit (copy this
script into its checkout).  A mutant no form of which applies is "stale".

It prints one row per mutant: its name, "caught" or "survived" (or
"stale", or "error" when pytest exits with neither pass nor fail), the
number of tests that fail with it, and their ids.  It exits 1 if the
unmutated suite does not pass, if a mutant is stale or errs, if a mutant not
marked equivalent survives, or if one marked equivalent is caught (then it
is not equivalent, or a test is flaky).

Usage:
    python3 scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DOUBLE_C_M_2 = [
    # OrderedFamily._parts, which binomial and hook_term read at a concrete m
    [("families.py",
      "        return (prod([p - i * q for i in range(c)]) * q ** (h - 1),\n",
      "        return (prod([p - i * q for i in range(c)]) * q ** (h - 1) * (2 if c == 2 else 1),\n"),
     ("families.py",
      "            return binomial_poly(c)\n",
      "            return binomial_poly(c) * (2 if c == 2 else 1)\n")],
    # OrderedFamily.binomial
    [("families.py",
      "        return Fraction(prod([p - i * q for i in range(c)]), q ** c * factorial(c))\n",
      "        return Fraction(prod([p - i * q for i in range(c)]), q ** c * factorial(c))"
      " * (2 if c == 2 else 1)\n"),
     ("families.py",
      "            return binomial_poly(c)\n",
      "            return binomial_poly(c) * (2 if c == 2 else 1)\n")],
    # OrderedFamily.vertex_term, which gave C(m, c) / (h m^(h-1)) as (num, den)
    [("families.py",
      "        num = q ** (h - 1)\n",
      "        num = q ** (h - 1) * (2 if c == 2 else 1)\n"),
     ("families.py",
      "            return binomial_poly(c) * RationalFunction.monomial(1 - h), h\n",
      "            return binomial_poly(c) * (2 if c == 2 else 1)"
      " * RationalFunction.monomial(1 - h), h\n")],
]

# (name, equivalent, forms)
MUTANTS = [
    ("depth-blind DepthBranching.subtree_key", False,
     [[("families.py", "        return min(len(addr), len(self.counts) - 1)\n",
        "        return 0\n")]]),
    ("hook factor 1/(h+1) in every hook_sizes", False,
     [[("families.py", "    return Fraction(1, h)\n", "    return Fraction(1, h + 1)\n")]]),
    ("leaf factor 1 in han2's fold", False,
     [[("identities.py", "    return (2 * h + 1) << (2 * h - 1)\n",
        "    return (2 * h + 1) << (2 * h - 1) if h > 1 else 1\n")]]),
    ("group join without its middle terms", False,
     [[("families.py", "[earlier[i] * fills[t - i] for i in range(t + 1)]",
        "[earlier[i] * fills[t - i] for i in (0, t)]")]]),
    ("k < q written k <= q in _grow", True,
     [[("families.py", "                if k < q:", "                if k <= q:")]]),
    ("C(m, 2) doubled in the ordered rule", False, DOUBLE_C_M_2),
    # The growth kernel.  Each last form is the same fault in the kernel
    # that listed every site with its weight anew at each step.
    ("the draw's u < cum written u <= cum (bisect_left)", False,
     [[("sampler.py", "        i = bisect_right(cums, x)\n", "        i = bisect_left(cums, x)\n")],
      [("sampler.py", "sites[bisect_right(sites, ", "sites[bisect_left(sites, ")]]),
    ("max for lcm in the common denominator", False,
     [[("sampler.py", "scale = lcm(D, q) // D", "scale = max(D, q) // D")],
      [("sampler.py", "D = lcm(D, p.denominator)", "D = max(D, p.denominator)")]]),
    ("kept masses not rescaled when D grows", False,
     [[("sampler.py", "                mass[:] = [w * scale for w in mass]\n", "")],
      # the step that read its lists through self
      [("sampler.py", "                self.mass = [w * scale for w in self.mass]\n", "")],
      # a weight over the D of the vertices listed so far, not the step's
      [("sampler.py",
        "                live.append((v, free, p))\n                D = lcm(D, p.denominator)\n",
        "                D = lcm(D, p.denominator)\n"
        "                live.append((v, free, p.numerator * (D // p.denominator)))\n"),
       ("sampler.py", "            w = p.numerator * (D // p.denominator)\n", "            w = p\n")]]),
    ("no slot shift in insert_child", False,
     [[("families.py", "        later = [(s + 1, c) for s, c in later]\n",
        "        later = [(s, c) for s, c in later]\n")]]),
    # The census table's draws.  Before they read their words in bulk, a
    # draw called getrandbits(64) once per step, so only the first has a
    # form there.  The third reads one chunk's words and then as many again,
    # and keeps the first: every tree drawn within the chunk is the same.
    ("the table's u < cut written u <= cut (bisect_left)", False,
     [[("sampler.py", "                i = bisect_right(cuts, u)\n",
        "                i = bisect_left(cuts, u)\n")],
      [("sampler.py", "bisect_right(cuts, rng.getrandbits(64))",
        "bisect_left(cuts, rng.getrandbits(64))")]]),
    ("the table's words read big-endian", False,
     [[("sampler.py", 'unpack(f"<{steps * k}Q"', 'unpack(f">{steps * k}Q"')]]),
    ("one chunk's words over-drawn", False,
     [[("sampler.py", "rng.randbytes(8 * steps * k)",
        "rng.randbytes(8 * steps * (k + 1))[:8 * steps * k]")]]),
    ("children reversed in _Flat.tree", False,
     [[("sampler.py", "for s, c in self.kids[v]])", "for s, c in reversed(self.kids[v])])")]]),
    # No output changes: the shipped weights and open slots read only the
    # depth and the child count, which re-addressing keeps.  A test that
    # patches in a weight reading the last address step catches it.
    ("re-addressed vertices left fresh", False,
     [[("sampler.py", "            self.stale.add(x)\n", "")],
      [("sampler.py", "            self.open[x] = None\n", "")]]),
    # The verify sweeps' per-vertex walk.  Before it, the sweeps listed every
    # site through addable_sites and built each grown tree to read its key, so
    # neither mutant has a form there.
    ("the spliced key put at the end of the vertex's subtree, not at its \"(\"", False,
     [[("sampler.py", "head, tail = enc[:opens[i]], ",
        "head, tail = enc[:opens[i] + len(node.enc)], ")]]),
    # The families' weight memo, the base class's weight method.  Before
    # that it was a module function, _memo_weight, one indent shallower: the
    # two keying mutants' first forms match it too, and the clearing
    # mutant's second form is that layout.  Before the memo, the verify
    # sweeps kept a weight dict of their own, which the first mutant's second
    # form keys by depth; grow kept none, so the other two have no form there.
    ("the weight memo keyed by depth, not address", False,
     [[("families.py", "    key = parent, c\n", "    key = len(parent), c\n")],
      [("sampler.py", "            key = addr, len(items)\n",
        "            key = len(addr), len(items)\n")]]),
    ("the weight memo keyed by the parent alone, not with its child count", False,
     [[("families.py", "    key = parent, c\n", "    key = parent\n")]]),
    ("the weight memo never cleared", False,
     [[("families.py", "            if len(weights) >= WEIGHT_MEMO:\n                weights.clear()\n",
        "")],
      [("families.py", "        if len(weights) >= WEIGHT_MEMO:\n            weights.clear()\n", "")]]),
    # tbar's open slots, which binary growth runs too.  Before they deleted
    # the used slots, they filtered a set of them, so it has no form there.
    ("used slots deleted lowest first", False,
     [[("families.py", "        for slot, _ in reversed(children):", "        for slot, _ in children:")]]),
    # labelprob's keep rule.  Before it, labelprob pushed from the trees it
    # rebuilt per new key, not from the enumerated shapes, so it has no form
    # there.
    ("the shapes of size n_max - 1 not kept, so the last push finds none", False,
     [[("sampler.py", "            if n < n_max:", "            if n < n_max - 1:")]]),
]


def _copy(dest: Path) -> None:
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest)


def _apply(dest: Path, forms) -> bool:
    """Apply the first form whose every old text occurs once; False if none does."""
    package = dest / "src" / "hooklab"
    for edits in forms:
        texts = {name: (package / name).read_text() for name, _, _ in edits}
        if all(texts[name].count(old) == 1 for name, old, _ in edits):
            for name, old, new in edits:
                texts[name] = texts[name].replace(old, new)
            for name, text in texts.items():
                (package / name).write_text(text)
            return True
    return False


def _failures(forms) -> tuple[int, list[str]] | None:
    """pytest's exit status with the mutant and the ids of the tests that
    fail, None if the mutant is stale."""
    with tempfile.TemporaryDirectory(prefix="hooklab-mutant-") as tmp:
        dest = Path(tmp)
        _copy(dest)
        if not _apply(dest, forms):
            return None
        env = dict(os.environ, PYTHONPATH=str(dest / "src"))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--hypothesis-seed=0"],
            cwd=dest, env=env, capture_output=True, text=True,
        )
    return run.returncode, [line.split()[1] for line in run.stdout.splitlines()
                            if line.startswith(("FAILED ", "ERROR "))]


def main() -> int:
    status, failed = _failures([[]])  # one form of no edits: the unmutated copy
    print(f"unmutated: exit {status}, {len(failed)} failing", flush=True)
    ok = status == 0
    for name, equivalent, forms in MUTANTS:
        result = _failures(forms)
        status, failed = result or (None, [])
        if result is None or status not in (0, 1):
            verdict = "stale" if result is None else f"error (exit {status})"
            ok = False
        else:
            verdict = "caught" if failed else "survived"
            ok &= bool(failed) != equivalent
        label = f"{name}{' (equivalent)' if equivalent else ''}"
        print(f"{label}: {verdict}, {len(failed)} failing: {', '.join(failed)}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
