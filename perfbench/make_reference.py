"""Regenerate perfbench/reference.json, the stored outputs the checks use.

Run from the root of a checkout whose outputs are trusted:

    python3 perfbench/make_reference.py

It stores y_0 .. y_-3 of the expand workload at the fixed reference
probes, and for every march solve the functionals and Gram matrix of its
outputs on the fixed basis inputs (see ``workloads.check_field``).
Regenerating it changes what the benchmark accepts as correct.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import anisosplit as A  # noqa: E402
import workloads as W  # noqa: E402
from worker import Tracer  # noqa: E402


def expand_reference() -> dict:
    w = W.Expand(A, 0, Tracer(False))
    w.expand()
    w.eval()
    nref = len(W.reference_points())
    return {f"y{k}": W.to_pairs(w.values[k][:nref]) for k in range(W.REFERENCE_ORDER + 1)}


def march_reference() -> dict:
    w = W.March(A, 0, Tracer(False))
    w.split()
    ref = {}
    for part, (_, grid, _) in w.parts.items():
        B = W.basis_fields(grid.n)
        zero = np.zeros_like(B[0])
        outs = []
        for b in B:
            w.inputs[f"oneway_{part}"] = b
            w._oneway(part)()
            outs.append(w.out[f"oneway_{part}"])
        ref[f"oneway_{part}"] = W.field_reference(outs)
        outs = []
        for v3, p in [(b, zero) for b in B] + [(zero, b) for b in B]:
            w.inputs[f"full_{part}"] = (v3, p)
            w._full(part)()
            outs.append(w.out[f"full_{part}"])
        ref[f"full_{part}"] = W.field_reference(outs)
    return ref


def main():
    ref = {"expand": expand_reference(), "march": march_reference()}
    W.REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {W.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
