"""The standalone experiment scripts run end to end on small bounds."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_scripts_run_and_pass():
    for script, *args in (
        ("verify_sweep.py", "--han-max", "4", "--yang-max", "4",
         "--tbar-max", "4", "--han2-max", "4"),
        ("mc_suite.py", "--alpha", "1e-6"),  # the default 200000 draws per gate
    ):
        out = subprocess.run(
            [sys.executable, str(SCRIPTS / script), *args],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, (script, out.stdout, out.stderr)
