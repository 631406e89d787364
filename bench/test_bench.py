"""Checks of the benchmark harness itself (``pytest bench -q``).

Every workload runs with a tiny fixed op count through ``bench/run.py``
exactly as the benchmark command would run it.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = [m["name"] for m in SPEC["per_layer"] if compare.is_count(m)]


def run_bench(*args, env=None, cwd=ROOT):
    """Run the benchmark command; returns (exit code, stdout lines)."""
    process = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )
    return process.returncode, process.stdout.splitlines()


def run_ok(workload, trace, ops=2, seed=3, env=None):
    code, lines = run_bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--ops", str(ops), env=env,
    )
    assert code == 0, lines
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def traced_twice(request):
    return request.param, run_ok(request.param, 1), run_ok(request.param, 1)


def test_end_to_end_metric_names():
    for workload in WORKLOADS:
        detail, result = run_ok(workload, 0, ops=1)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], detail["errors"]
        assert sorted(result["metrics"]) == sorted(
            m["name"] for m in SPEC["end_to_end"]
        )
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
        assert len(detail["setup_samples"]) == 1
        assert sorted(detail["raw"]) == ["op_p50_s", "ops_per_s", "setup_s"]


def test_per_layer_metric_names(traced_twice):
    _, (detail, result), _ = traced_twice
    assert result["correct"], detail["errors"]
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in SPEC["per_layer"]
    )


def test_same_seed_same_digest_and_counts(traced_twice):
    _, (first_detail, first), (second_detail, second) = traced_twice
    assert first_detail["digest"] == second_detail["digest"]
    assert first_detail["untraced_digest"] == first_detail["digest"]
    assert first["attempted"] == second["attempted"] == 2
    assert COUNTS
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_self_time_partition_closes(traced_twice):
    _, (detail, result), _ = traced_twice
    assert detail["partition_error"] <= 0.01
    assert result["metrics"]["unattributed_s"]["value"] >= 0.0


def test_repro_variables_never_reach_the_program(tmp_path):
    cache = tmp_path / "cache"
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache), REPRO_NO_SHM="1",
               REPRO_NO_PERSISTENT_POOL="1",
               REPRO_FAULTS="synthesis.layout:at=1")
    detail, result = run_ok("respin", 0, ops=1, env=env)
    assert result["correct"] and result["failed"] == 0, detail["errors"]
    assert not cache.exists()


#: Starts the worker with a thread that keeps the CPU busy throughout.
BUSY_WORKER = """
import runpy, sys, threading

def spin():
    while True:
        sum(range(1000))

threading.Thread(target=spin, daemon=True).start()
sys.path.insert(0, {bench!r})
runpy.run_path({worker!r}, run_name="__main__")
"""

#: Median calibrated op time of a few layout_signoff ops, with the
#: worker started by the script given as argv[1].
MEDIAN_OP = """
import statistics, sys
sys.path.insert(0, {bench!r})
import calibrate, run
calibrate.pin_to_one_cpu()
run.WORKER = sys.argv[1]
timed = run.launch("layout_signoff", 1, False, ops=10)
print(statistics.median(run.scaled_ops(timed)))
"""


def test_busy_thread_in_worker_slows_calibrated_ops(tmp_path):
    """The calibration kernel runs while the worker is stopped, so CPU
    work the program leaves running shows in the reported op times
    instead of slowing the kernel along with the ops."""
    busy = tmp_path / "busy_worker.py"
    busy.write_text(BUSY_WORKER.format(bench=str(BENCH),
                                       worker=str(BENCH / "worker.py")))

    def median_op(worker):
        process = subprocess.run(
            [sys.executable, "-c", MEDIAN_OP.format(bench=str(BENCH)),
             str(worker)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert process.returncode == 0, process.stderr
        return float(process.stdout.split()[-1])

    assert median_op(busy) > 1.4 * median_op(BENCH / "worker.py")


def _timed_runs(path, raw_p50):
    """Ten timed respin records with steady calibrated metrics and the
    given raw op_p50_s values."""
    with open(path, "w", encoding="utf-8") as handle:
        for index, raw in enumerate(raw_p50):
            metrics = {m["name"]: {"value": 1.0 + 0.001 * index,
                                   "unit": m["unit"]}
                       for m in SPEC["end_to_end"]}
            handle.write(json.dumps({
                "workload": "respin", "trace": 0, "correct": True,
                "started": float(index), "host": {"seed": index},
                "metrics": metrics,
                "raw": {"op_p50_s": raw, "ops_per_s": 1.0, "setup_s": 1.0},
            }) + "\n")
    return str(path)


def test_compare_fails_on_raw_regression_only_when_resolved(tmp_path):
    steady = [1.0 + 0.001 * i for i in range(10)]
    parent = _timed_runs(tmp_path / "parent.jsonl", steady)
    assert compare.main([parent, parent]) == 0
    slower = _timed_runs(tmp_path / "slower.jsonl",
                         [1.3 * value for value in steady])
    assert compare.main([parent, slower]) == 1
    noisy = _timed_runs(tmp_path / "noisy.jsonl",
                        [1.3 + 0.3 * (i % 2) for i in range(10)])
    assert compare.main([parent, noisy]) == 0


def test_bare_benchmark_directory_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_bench(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_tracer_rebinds_every_alias_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_trace", BENCH / "trace.py"
        )
        trace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(trace)
        import repro.analysis as analysis
        from repro.analysis import dcop, metrics
        from repro.analysis.ensemble import EnsembleProgram

        original = dcop.solve_dc
        from_mismatch = EnsembleProgram.__dict__["from_mismatch"]
        tracer = trace.Tracer()
        with tracer:
            assert dcop.solve_dc is not original
            assert metrics.solve_dc is dcop.solve_dc
            assert analysis.solve_dc is dcop.solve_dc
            assert EnsembleProgram.__dict__["from_mismatch"] is not \
                from_mismatch
            with tracer.op():
                try:
                    dcop.solve_dc(None)
                except Exception:  # noqa: BLE001 - only the span matters
                    pass
        assert dcop.solve_dc is original
        assert metrics.solve_dc is original and analysis.solve_dc is original
        assert EnsembleProgram.__dict__["from_mismatch"] is from_mismatch
        summary = tracer.summary()
        assert summary["op"]["calls"] == 1
        assert summary["analysis.dc"]["calls"] == 1
        parts = sum(entry["self_s"] for entry in summary.values())
        assert parts == pytest.approx(summary["op"]["total_s"], rel=1e-9)
    finally:
        sys.path.remove(str(ROOT / "src"))
