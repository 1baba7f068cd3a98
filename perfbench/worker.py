"""One cold benchmark worker: set up one workload, run it once, report.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE MODE SPAWN_TIME

TRACE is 0 or 1. MODE is ``full``, or ``setup`` to stop after set-up.
SPAWN_TIME is the client's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start, imports and
``load_medium``. Results go to stdout as one JSON object per line, each
prefixed with ``@@ ``: one line per operation as it finishes, then a
final ``done`` line. A step that raises one of the library's typed
errors, ``MemoryError`` or ``CheckFailed`` is counted as failed and the
worker goes on; anything else ends the worker, and the client counts
the operations it did not report as failed.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PREFIX = "@@ "


def emit(obj):
    sys.stdout.write(PREFIX + json.dumps(obj) + "\n")
    sys.stdout.flush()


def vm_hwm_mb() -> float:
    """Peak resident set size of this process so far (VmHWM), in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM not found in /proc/self/status")


class Tracer:
    """In-memory spans around calls into the library; a no-op when off."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {"name": name, "parent": self._open[-1] if self._open else None}
        rec["id"] = len(self.spans)
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            rec["hwm_mb"] = vm_hwm_mb()


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python reference loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_steps(steps, tracer, typed, status, report=emit):
    """Run ``(name, fn, needs)`` steps in order, recording each outcome.

    A step fails when a step it needs did not succeed, or when it raises
    one of the ``typed`` exceptions; other exceptions propagate.
    """
    for name, fn, needs in steps:
        missing = [n for n in needs if not status.get(n)]
        error = None
        if missing:
            error = "skipped: needs " + ", ".join(missing)
        else:
            try:
                with tracer.span(name):
                    fn()
            except typed as exc:
                error = f"{type(exc).__name__}: {exc}"
        status[name] = error is None
        report({"op": name, "ok": error is None, "error": error})


def main(argv) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    setup_only, spawned = argv[3] == "setup", float(argv[4])
    emit({"pid": os.getpid()})
    sys.path.insert(0, str(ROOT / "src"))
    import anisosplit as A

    if not Path(A.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"anisosplit imported from {A.__file__}, not from this checkout")
    import workloads as W

    typed = (
        A.ExprError, A.MediumError, A.SymbolError, A.ExpansionError,
        A.NormalizationError, A.OracleError, A.PropagationError,
        MemoryError, W.CheckFailed,
    )
    tracer = Tracer(trace)
    status = {}
    w = None

    def setup():
        nonlocal w
        w = W.WORKLOADS[workload](A, seed, tracer)

    run_steps([("setup", setup, ())], tracer, typed, status,
              report=lambda rec: emit({**rec, "setup_s": time.monotonic() - spawned}))
    if not status["setup"] or setup_only:
        emit({"done": True, "hwm_mb": vm_hwm_mb(), "calib_s": calibrate()})
        return 0
    names = tuple(name for name, _, _ in w.calls + w.checks)
    if names != w.ops:
        raise RuntimeError(f"{workload}: steps {names} do not match ops {w.ops}")

    t0 = time.perf_counter()
    run_steps(w.calls, tracer, typed, status)
    wall = time.perf_counter() - t0
    run_steps(w.checks, tracer, typed, status)
    done = {"done": True, "wall_s": wall, "hwm_mb": vm_hwm_mb(), "calib_s": calibrate()}
    if trace:
        done["spans"] = tracer.spans
        done["counts"] = w.counts() if all(status.values()) else {}
    emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
