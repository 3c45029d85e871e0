"""Set-up probe: import hooklab and build a workload's families, then print
the CPU time this process has used since it started and the median
duration of the reference work (see speed.py).

Run as a fresh process by ``run.py``; the CPU time is the set-up a workload
pays before its first command, and the reference time scales it.  Arguments are family specs:
``binary``, ``ordered:M`` (``ordered:symbolic`` for symbolic m) or
``tbar:ORACLE``.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fractions import Fraction  # noqa: E402

import hooklab.cli  # noqa: E402,F401
from hooklab import BinaryFamily, OrderedFamily, TbarFamily, parse_oracle  # noqa: E402

for spec in sys.argv[1:]:
    family, _, param = spec.partition(":")
    if family == "binary":
        BinaryFamily()
    elif family == "ordered":
        OrderedFamily(None if param == "symbolic" else Fraction(param))
    else:
        TbarFamily(parse_oracle(param))
setup_cpu = time.process_time()

from speed import reference_median  # noqa: E402

print(setup_cpu, reference_median())
