"""The import graph: what a cold process loads for the common runs."""

import importlib
import os
import pkgutil
import subprocess
import sys

import anisosplit

# numpy.ma and scipy.linalg each cost a large share of a cold start, and
# scipy.sparse comes with scipy.linalg; none is needed off the dense
# segment exponential
LAZY = ("scipy.linalg", "scipy.sparse", "numpy.ma")

RUNS = """
import sys

import numpy as np

import anisosplit.cli  # noqa: F401
from anisosplit import (
    TransverseGrid, expand, grid_riccati_oracle, oneway_solve, presets,
    random_smooth_field, riccati_residual, split_symbols,
)

riccati_residual(expand(presets.heterogeneous_full(), 1, 1, 1), rng=np.random.default_rng(0))
grid = TransverseGrid(4, 2 * np.pi, 2 * np.pi)
hom = presets.homogeneous_anisotropic()
grid_riccati_oracle(hom, grid, 1.2 + 0.4j)
u = random_smooth_field(grid, np.random.default_rng(1))
m = presets.transverse_anisotropic()
sp = split_symbols(expand(m, 1, 0, 1), expand(m, -1, 0, 1))
assert grid.operator(sp.g_symbol(1), 1.2).kind == "kernel"
oneway_solve(sp, 1, grid, 1.2, u, 0.0, 0.2, steps=2)
sp = split_symbols(expand(hom, 1, 0, 1), expand(hom, -1, 0, 1))
assert grid.operator(sp.g_symbol(1), 1.2).kind == "multiplier"
oneway_solve(sp, 1, grid, 1.2, u, 0.0, 0.2, method="expmid")
print(" ".join(name for name in %r if name in sys.modules))
""" % (LAZY,)


def test_common_runs_load_no_lazy_module():
    # order-1 residual, grid oracle, rk4 one-way march on a kernel and
    # expmid on a Fourier multiplier, in a fresh process
    out = subprocess.run(
        [sys.executable, "-c", RUNS], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.split() == []


def test_every_export_resolves():
    # a name left in an __all__ after its definition is deleted would
    # only fail at a star import
    modules = [anisosplit] + [
        importlib.import_module(f"anisosplit.{info.name}")
        for info in pkgutil.iter_modules(anisosplit.__path__)
    ]
    for mod in modules:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert missing == [], f"{mod.__name__}.__all__ names {missing}"
