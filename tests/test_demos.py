"""The demo scripts, run as a user runs them: in a fresh process."""

import os
import re
import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_grid_oracle_demo_runs():
    out = subprocess.run(
        [sys.executable, str(DEMOS / "05_grid_oracle.py")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.returncode == 0, out.stderr
    residuals = re.findall(r"matrix Riccati residual \([+-]\): (\S+)", out.stdout)
    assert len(residuals) == 2
    assert all(float(r) <= 1e-8 for r in residuals)
