"""The demo scripts, run as a user runs them: in a fresh process."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
GRID_ORACLE = "05_grid_oracle.py"


def _run_demo(name):
    return subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )


@pytest.mark.parametrize(
    "name", sorted(p.name for p in DEMOS.glob("0*.py") if p.name != GRID_ORACLE)
)
def test_demo_runs(name):
    out = _run_demo(name)
    assert out.returncode == 0, out.stderr


def test_grid_oracle_demo_runs():
    out = _run_demo(GRID_ORACLE)
    assert out.returncode == 0, out.stderr
    residuals = re.findall(r"matrix Riccati residual \([+-]\): (\S+)", out.stdout)
    assert len(residuals) == 2
    assert all(float(r) <= 1e-8 for r in residuals)
