"""Benchmark client: runs cold worker processes one at a time, prints metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload expand|residual|march \\
        --seed N --seconds S --trace 0|1

With ``--trace 0`` the run starts SETUP_PROBES set-up-only workers, then
starts timed workers of the workload, one after another (a closed loop
with one client), until S seconds have passed; every worker is a fresh
process, so no run shares interning tables or caches with another. It
prints the end-to-end metrics ``wall_s``, ``setup_s`` and
``peak_rss_mb`` as medians over the workers.

With ``--trace 1`` it runs one untraced and one traced worker of the
workload, plus one traced worker of each other workload, and prints the
per-layer metrics from the spans those workers recorded, with
``trace.overhead`` (traced minus untraced wall time of the workload).

The last line of stdout is the result object; the line before it holds
the full record: sample quartiles, failed operations and host
diagnostics. Exit status is 0 when a result was printed, 2 when the
checkout has no ``src/anisosplit`` to measure.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import summary  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from worker import PREFIX  # noqa: E402

BLAS_THREADS = 1
SETUP_PROBES = 6
RUN_BUDGET_S = 170.0  # every run ends well inside 180 s
PER_LAYER_TIMES = {
    "medium.load_s": "medium.load",
    "expansion.expand_s": "expansion.expand",
    "expr.to_text_s": "expr.to_text",
    "oracle.residual_o1_s": "oracle.residual_o1",
    "oracle.residual_o2_s": "oracle.residual_o2",
    "expansion.split_s": "expansion.split",
    "oracle.grid_s": "oracle.grid",
    "oracle.distance_s": "oracle.distance",
    "propagate.oneway_static_s": "propagate.oneway_static",
    "propagate.oneway_depth_s": "propagate.oneway_depth",
    "propagate.full_static_s": "propagate.full_static",
    "propagate.full_depth_s": "propagate.full_depth",
}
HWM_SPANS = (
    "medium.load", "expansion.expand", "expr.to_text", "expr.eval",
    "expansion.expand_o1", "oracle.residual_o1", "expansion.expand_o2", "oracle.residual_o2",
    "expansion.split", "propagate.oneway_static", "propagate.full_static", "oracle.grid",
    "oracle.distance", "propagate.oneway_depth", "propagate.full_depth",
)
COUNT_UNITS = {
    "expansion.nodes_y3": "count",
    "expansion.nodes_y4": "count",
    "expr.to_text_mb": "MB",
    "symbols.kernel_mb": "MB.computed",
    "propagate.oneway_step_flops": "flop.computed",
}


@dataclass
class WorkerResult:
    """What one worker process reported, with its failures counted."""

    planned: int
    pid: int | None = None
    ok: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    setup_s: float | None = None
    done: dict | None = None
    exit_code: int | None = None
    elapsed_s: float = 0.0


def worker_command(workload, seed, trace, setup_only=False):
    mode = "setup" if setup_only else "full"
    return [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(int(trace)), mode]


def run_worker(cmd, planned, timeout, env=None) -> WorkerResult:
    """Start one worker, wait for it to end, and count its operations.

    The spawn time is appended to ``cmd``. Operations the worker did not
    report, because it died or ran out of time, count as failed.
    """
    res = WorkerResult(planned=planned)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [*cmd, repr(t0)], stdout=subprocess.PIPE, text=True, env=env
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        res.errors.append(f"worker killed after {timeout:.0f} s")
    res.elapsed_s = time.monotonic() - t0
    res.exit_code = proc.returncode
    for line in out.splitlines():
        if not line.startswith(PREFIX):
            continue
        rec = json.loads(line[len(PREFIX):])
        if "pid" in rec:
            res.pid = rec["pid"]
        elif "op" in rec:
            if rec["ok"]:
                res.ok += 1
            else:
                res.failed += 1
                res.errors.append(f"{rec['op']}: {rec['error']}")
            if rec["op"] == "setup":
                res.setup_s = rec["setup_s"]
        elif rec.get("done"):
            res.done = rec
    missing = planned - res.ok - res.failed
    if missing > 0:
        res.failed += missing
        res.errors.append(f"worker exited with code {res.exit_code}; {missing} operations unreported")
    return res


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def steal_seconds() -> float:
    with open("/proc/stat") as fh:
        cpu = fh.readline().split()
    return int(cpu[8]) / os.sysconf("SC_CLK_TCK")


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def host_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_sha": git_sha(),
    }


class Runner:
    """Starts workers one at a time inside the run's time budget."""

    def __init__(self, seed):
        self.seed = seed
        self.start = time.monotonic()
        self.env = worker_env()
        self.results = []

    def run(self, workload, trace, setup_only=False) -> WorkerResult:
        ops = 1 + (0 if setup_only else len(WORKLOADS[workload].ops))
        left = RUN_BUDGET_S - (time.monotonic() - self.start)
        res = run_worker(
            worker_command(workload, self.seed, trace, setup_only), ops, max(left, 1.0), self.env
        )
        self.results.append(res)
        return res

    def elapsed(self):
        return time.monotonic() - self.start


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(runner, workload, seconds):
    probes = [runner.run(workload, False, setup_only=True) for _ in range(SETUP_PROBES)]
    timed = [runner.run(workload, False)]
    while runner.elapsed() < seconds:
        timed.append(runner.run(workload, False))
    # medians over the workers that got that far; a worker that died has
    # already made the run incorrect through its failed operations
    done = [r.done for r in timed if r.done and "wall_s" in r.done]
    summaries = {
        "wall_s": summary(d["wall_s"] for d in done),
        "setup_s": summary(r.setup_s for r in probes + timed if r.setup_s is not None),
        "peak_rss_mb": summary(d["hwm_mb"] for d in done),
    }
    metrics = {
        name: metric(summaries[name]["median"], unit)
        for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
    }
    return metrics, summaries


def span_table(results):
    """Span name -> (seconds, hwm_mb), first occurrence, over traced workers."""
    table = {}
    for res in results:
        for sp in (res.done or {}).get("spans", []):
            if "end" in sp:
                table.setdefault(sp["name"], (sp["end"] - sp["start"], sp["hwm_mb"]))
    return table


def layer_profile(runner, workload):
    untraced = runner.run(workload, False)
    traced = {workload: runner.run(workload, True)}
    for other in WORKLOADS:
        if other != workload:
            traced[other] = runner.run(other, True)
    # the workload's own worker comes first, so medium.load is taken from it
    spans = span_table(traced.values())
    counts = {}
    for res in traced.values():
        counts.update((res.done or {}).get("counts", {}))
    nan = float("nan")
    metrics = {name: metric(spans.get(span, (nan,))[0], "s") for name, span in PER_LAYER_TIMES.items()}
    for name, unit in COUNT_UNITS.items():
        metrics[name] = metric(counts.get(name, nan), unit)
    eval_y4 = spans.get("expr.eval_y4", (nan,))[0]
    metrics["expr.eval_nodes_per_s"] = metric(counts.get("expansion.nodes_y4", nan) / eval_y4, "1/s")
    walls = [(r.done or {}).get("wall_s", nan) for r in (untraced, traced[workload])]
    metrics["trace.overhead"] = metric(walls[1] - walls[0], "s")
    for span in HWM_SPANS:
        metrics[f"{span}.hwm_mb"] = metric(spans.get(span, (nan, nan))[1], "MB")
    summaries = {"untraced_wall_s": walls[0], "traced_wall_s": walls[1]}
    return metrics, summaries


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "anisosplit" / "__init__.py").is_file():
        print(f"perfbench: no src/anisosplit under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    # byte-compile once, so no worker pays for it during set-up
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    steal0 = steal_seconds()
    runner = Runner(args.seed)
    if args.trace:
        metrics, summaries = layer_profile(runner, args.workload)
    else:
        metrics, summaries = measure(runner, args.workload, args.seconds)
    failed = sum(r.failed for r in runner.results)
    attempted = sum(r.planned for r in runner.results)
    missing = [name for name, m in metrics.items() if math.isnan(m["value"])]
    for name in missing:
        metrics[name]["value"] = None
    calib = [r.done["calib_s"] for r in runner.results if r.done]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "summaries": summaries,
        "workers": len(runner.results),
        "pids": [r.pid for r in runner.results],
        "errors": [e for r in runner.results for e in r.errors],
        "host": {
            **host_info(),
            "calib_s": summary(calib),
            "steal_s": steal_seconds() - steal0,
        },
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
