"""Hash every CLI output of a fixed set of runs, one line per output.

    python tests/cli_fingerprint.py > fingerprint.txt

Prints ``<run> exit <code>`` for each run and ``<run> <output> <sha256>``
for each entry of its manifest ``outputs``. Each run is a fresh
``python -m anisosplit.cli`` process on the ``src`` next to this file, as
on the command line (in one process, the text of the impedance gauge on
``HET`` depends on what ran before it), so running the script from two
checkouts and comparing with ``diff`` shows whether a change moved any
output.

The runs: every subcommand on ``demos/example.cfg`` (the oracle both
quad and grid, normalize with the impedance and a constant gauge, and
propagate with the full solver and the one-way rk4 (+) and expmid (-)
methods), and the same except the oracle on ``HET`` of
``tests/test_cli.py`` at grid n = 8, order 2, both signs, with a
[propagation] section. On ``HET`` the full solver and the one-way rk4
(+) method run once more with ``INITIAL_DATA``, so the evaluator of
initial-data expressions is covered too. Not collected by pytest.
"""

from __future__ import annotations

import configparser
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from test_cli import HET  # noqa: E402

HET_PROPAGATION = """
[grid]
n = 8

[propagation]
a = 0
b = 0.2
steps = 4
s = 2.0
record_depths = 0.1
"""

SUBCOMMANDS = (
    ("medium-check", ["medium-check"]),
    ("expand", ["expand"]),
    ("residual", ["residual"]),
    ("oracle-quad", ["oracle", "quad"]),
    ("oracle-grid", ["oracle", "grid"]),
    ("order-claim", ["order-claim"]),
    ("normalize-impedance", ["normalize", "--kind", "impedance"]),
    ("normalize-constant", ["normalize", "--kind", "constant:2,0.5"]),
)

# initial data as expressions of x1, x2, x3 and s, in place of random fields
INITIAL_DATA = {
    "v3": "sin(x1)*cos(2*x2) + 0.1*x3",
    "p": "exp(0.3*cos(x1 - x2))/s",
    "u": "cos(x1) + 0.2i*sin(x2)*s",
}

PROPAGATIONS = (
    ("propagate-full", {"solver": "full"}),
    ("oneway-rk4-plus", {"solver": "oneway", "method": "rk4", "sign": "+"}),
    ("oneway-expmid-minus", {"solver": "oneway", "method": "expmid", "sign": "-"}),
    ("propagate-full-initial", {"solver": "full", **INITIAL_DATA}),
    ("oneway-rk4-plus-initial", {"solver": "oneway", "method": "rk4", "sign": "+", **INITIAL_DATA}),
)


def _het_text() -> str:
    text = HET.replace("order = 1\n", "order = 2\n").replace("sign = +\n", "sign = both\n")
    return text + HET_PROPAGATION


def _write(cp: configparser.ConfigParser, path: Path) -> str:
    with open(path, "w") as fh:
        cp.write(fh)
    return str(path)


def _runs(tmp: Path):
    """(run name, argv without --out) of the fixed set."""
    configs = {
        "example": (ROOT / "demos" / "example.cfg").read_text(),
        "het": _het_text(),
    }
    for tag, text in configs.items():
        base = configparser.ConfigParser(interpolation=None)
        base.read_string(text)
        cfg = _write(base, tmp / f"{tag}.cfg")
        for name, argv in SUBCOMMANDS:
            if tag == "het" and name.startswith("oracle"):
                continue
            yield f"{tag}/{name}", [*argv, cfg]
        for name, keys in PROPAGATIONS:
            if tag != "het" and name.endswith("-initial"):
                continue
            cp = configparser.ConfigParser(interpolation=None)
            cp.read_string(text)
            for key, value in keys.items():
                cp.set("propagation", key, value)
            yield f"{tag}/{name}", ["propagate", _write(cp, tmp / f"{tag}-{name}.cfg")]


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for k, (label, argv) in enumerate(_runs(tmp)):
            out = tmp / f"out{k:02d}"
            cmd = [sys.executable, "-m", "anisosplit.cli", *argv, "--out", str(out)]
            code = subprocess.run(cmd, env=env, capture_output=True).returncode
            print(f"{label} exit {code}")
            manifest = out / "manifest.json"
            if manifest.is_file():
                for entry in json.loads(manifest.read_text())["outputs"]:
                    print(f"{label} {entry['name']} {entry['sha256']}")


if __name__ == "__main__":
    main()
