"""Tests of the benchmark itself: statistics, failure accounting, isolation.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import anisosplit as A  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads as W  # noqa: E402
from worker import Tracer, run_steps  # noqa: E402

TYPED = (A.ExpansionError, A.PropagationError, A.OracleError, MemoryError, W.CheckFailed)


def run_checks(steps, done=()):
    """Run steps with the given prerequisites marked done; return op records."""
    records = []
    status = {name: True for name in done}
    run_steps(steps, Tracer(False), TYPED, status, report=records.append)
    return records


def failed(records):
    return [r["op"] for r in records if not r["ok"]]


# ---------------------------------------------------------------------------
# statistics


def test_quartiles_match_statistics_quantiles():
    rng = random.Random(4)
    for size in (2, 3, 4, 5, 10, 11, 57):
        xs = [rng.uniform(0.1, 9.0) for _ in range(size)]
        q1, med, q3 = stats.quartiles(xs)
        assert (q1, med, q3) == tuple(statistics.quantiles(xs, n=4))
        assert med == pytest.approx(statistics.median(xs), rel=1e-15)
    assert stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(8)
    for size in (1, 2, 7, 100):
        xs = rng.uniform(0.0, 5.0, size).tolist()
        for p in (0, 10, 25, 50, 90, 99, 100):
            assert stats.percentile(xs, p) == pytest.approx(np.percentile(xs, p), rel=1e-14)
    assert stats.percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.5
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.tail(range(99)) is None
    assert stats.tail(range(100))[0] == 90.0
    assert stats.tail(range(200))[0] == 95.0
    assert stats.tail(range(1000))[0] == 99.0
    summ = stats.summary([float(i) for i in range(100)])
    assert summ["n"] == 100 and summ["median"] == 49.5 and "p90" in summ


# ---------------------------------------------------------------------------
# failure accounting


def test_wrong_residual_slope_is_a_failed_operation():
    w = W.Residual(A, 1, Tracer(False))
    rms = [1.0] * len(A.DEFAULT_LAMBDAS)
    w.reports = {
        1: SimpleNamespace(slope=-1.01, rms=[2.0 * v for v in rms]),
        2: SimpleNamespace(slope=-1.5, rms=rms),  # corrupted: order 2 must give -2
    }
    records = run_checks(w.checks, done=[f"oracle.residual_o{n}" for n in (1, 2)])
    assert failed(records) == ["check.slope_o2"]
    w.reports[1] = SimpleNamespace(slope=-1.01, rms=rms)  # no longer decreasing
    assert "check.rms64_decreasing" in failed(run_checks(w.checks, done=["oracle.residual_o1", "oracle.residual_o2"]))


def test_perturbed_field_is_a_failed_operation():
    w = W.March(A, 5, Tracer(False))
    w._full("depth")()
    step = [s for s in w.checks if s[0] == "check.full_depth"]
    assert failed(run_checks(step, done=["propagate.full_depth"])) == []
    good = w.out["full_depth"].copy()
    w.out["full_depth"] = good * (1 + 1e-6)
    assert failed(run_checks(step, done=["propagate.full_depth"])) == ["check.full_depth"]
    w.out["full_depth"] = good.copy()
    w.out["full_depth"][17] += 1e-6 * np.abs(good).max()
    assert failed(run_checks(step, done=["propagate.full_depth"])) == ["check.full_depth"]
    w.out["full_depth"] = good.copy()
    w.out["full_depth"][3] = np.nan
    assert failed(run_checks(step, done=["propagate.full_depth"])) == ["check.full_depth"]


def test_corrupted_term_value_is_a_failed_operation():
    w = W.Expand(A, 2, Tracer(False))
    nref = len(W.reference_points())
    ref = W.load_reference()["expand"]
    w.texts = ["y"]
    w.values = {k: np.concatenate([W.from_pairs(ref[f"y{k}"]), np.ones(nref)]) for k in range(4)}
    step = [s for s in w.checks if s[0] == "check.reference"]
    assert failed(run_checks(step, done=w.ops)) == []
    w.values[3] = w.values[3] * (1 + 1e-10)
    assert failed(run_checks(step, done=w.ops)) == ["check.reference"]


def test_typed_errors_fail_their_step_and_dependents_and_the_run_goes_on():
    def raiser(exc):
        def fn():
            raise exc
        return fn

    seen = []
    steps = [
        ("a", raiser(A.ExpansionError("node cap")), ()),
        ("b", lambda: seen.append("b"), ("a",)),
        ("c", raiser(A.PropagationError("blew up")), ()),
        ("d", raiser(MemoryError()), ()),
        ("e", lambda: seen.append("e"), ()),
        ("f", raiser(W.CheckFailed("wrong")), ("e",)),
    ]
    records = run_checks(steps)
    assert failed(records) == ["a", "b", "c", "d", "f"]
    assert seen == ["e"]
    assert records[1]["error"] == "skipped: needs a"
    with pytest.raises(ZeroDivisionError):
        run_checks([("g", lambda: 1 / 0, ())])


def test_dead_worker_counts_its_unreported_operations_as_failed():
    script = (
        "import os, sys\n"
        "print('@@ {\"pid\": %d}' % os.getpid())\n"
        "print('@@ {\"op\": \"setup\", \"ok\": true, \"error\": null, \"setup_s\": 0.1}')\n"
        "print('@@ {\"op\": \"x\", \"ok\": false, \"error\": \"boom\"}', flush=True)\n"
        "os._exit(3)\n"
    )
    res = run.run_worker([sys.executable, "-c", script], planned=6, timeout=30)
    assert res.exit_code == 3
    assert (res.ok, res.failed) == (1, 5)
    assert res.done is None


def test_hung_worker_is_killed_and_counted_failed():
    res = run.run_worker([sys.executable, "-c", "import time; time.sleep(60)"], planned=2, timeout=1)
    assert res.exit_code != 0 and res.failed == 2 and res.elapsed_s < 30


# ---------------------------------------------------------------------------
# isolation and contract


def test_no_run_shares_a_process_with_another():
    runner = run.Runner(seed=3)
    for _ in range(3):
        res = runner.run("residual", False, setup_only=True)
        assert res.failed == 0 and res.exit_code == 0
    pids = [r.pid for r in runner.results]
    assert None not in pids
    assert len(set(pids)) == len(pids)
    assert os.getpid() not in pids


def test_step_names_match_declared_operations():
    for cls in W.WORKLOADS.values():
        w = cls(A, 0, Tracer(False))
        assert tuple(name for name, _, _ in w.calls + w.checks) == cls.ops


def test_seed_drives_the_inputs():
    a, b, c = (W.March(A, seed, Tracer(False)) for seed in (1, 1, 2))
    assert np.array_equal(a.inputs["oneway_static"], b.inputs["oneway_static"])
    assert not np.array_equal(a.inputs["oneway_static"], c.inputs["oneway_static"])
    pa, pc = (W.Residual(A, seed, Tracer(False)).points for seed in (1, 2))
    assert pa != pc


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "expand", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_what_the_runs_print():
    import json

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["paths"] == ["perfbench"]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(W.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    printed = (
        set(run.PER_LAYER_TIMES) | set(run.COUNT_UNITS)
        | {"expr.eval_nodes_per_s", "trace.overhead"}
        | {f"{span}.hwm_mb" for span in run.HWM_SPANS}
    )
    assert {m["name"] for m in bench["per_layer"]} == printed
