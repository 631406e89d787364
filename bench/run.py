"""Workload benchmark of the layout-oriented synthesis loop.

Run from the root of a checkout::

    python3 bench/run.py --workload respin --seed 1 --seconds 32 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``
for one workload; with ``--trace 1`` the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's details (digest over the per-op fingerprints, op count, setup
samples, raw timings, host info).  Reported times are scaled to the
reference host by ``bench/calibrate.py``.  Every workload process is a
fresh interpreter (``bench/worker.py``) whose environment carries no
``REPRO_*`` variable.
Exits non-zero, without a result line, on a harness error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy

import calibrate
from trace import LAYERS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"

#: Cold launches per timed run whose set-up times make ``setup_s``; the
#: timed pass's own launch is one of them.
SETUP_LAUNCHES = 5
#: Period of the calibration kernels timed while the worker sets up or
#: runs an op, seconds.  The host's speed changes within a tenth of a
#: second, faster than most ops last.
SAMPLE_EVERY_S = 0.02
#: Share of ``--seconds`` the traced pass gets; the untraced replay of
#: the same ops takes about the rest.
TRACED_SHARE = 0.5
#: A launch still running this long after its budget is killed.
GRACE_S = 60.0
#: Budget per op of a fixed-count launch (no op takes nearly this long).
OP_LIMIT_S = 10.0


class HarnessError(Exception):
    """The benchmark itself could not run or measure."""


def _child_env() -> Dict[str, str]:
    """The workload's environment: no ``REPRO_*`` setting reaches the
    program; one BLAS thread keeps the load at one busy core; a fixed
    hash seed keeps set and dict layouts identical across launches."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _kill_group(group: int) -> None:
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reply(process: subprocess.Popen) -> Dict:
    line = process.stdout.readline()
    if not line:
        raise HarnessError(f"worker exited with {process.wait()}")
    return json.loads(line)


def _stopped_kernel(process: subprocess.Popen) -> float:
    with calibrate.stopped(process.pid):
        return calibrate.kernel()


def _await(process: subprocess.Popen, kernels: List[float]):
    """Wait for the worker's next line, timing the calibration kernel
    every :data:`SAMPLE_EVERY_S` meanwhile.  Appends those kernel times
    to ``kernels``; returns the line and the time the worker spent
    stopped for them."""
    paused = 0.0
    while not select.select([process.stdout], [], [], SAMPLE_EVERY_S)[0]:
        t0 = time.perf_counter()
        kernels.append(_stopped_kernel(process))
        paused += time.perf_counter() - t0
    return _reply(process), paused


def _drive(process: subprocess.Popen, started: float, seconds: float,
           ops: int, setup_kernels: List[float]) -> Dict:
    """Drive one started worker through its pass (see :func:`launch`)."""
    ready, paused = _await(process, setup_kernels)
    if ready.get("event") != "ready":
        raise HarnessError("worker did not report ready")
    setup_s = time.perf_counter() - started - paused
    last = _stopped_kernel(process)
    setup_kernels.append(last)
    op_s, op_kernels = [], []
    start = time.perf_counter()
    while (len(op_s) < ops if ops else
           time.perf_counter() - start < seconds or len(op_s) % ready["cycle"]):
        process.stdin.write("go\n")
        process.stdin.flush()
        kernels = [last]
        reply, paused = _await(process, kernels)
        op_s.append(reply["op_s"] - paused)
        last = _stopped_kernel(process)
        kernels.append(last)
        op_kernels.append(kernels)
    process.stdin.write("stop\n")
    process.stdin.flush()
    result = _reply(process)
    if process.wait() != 0:
        raise HarnessError(f"worker exited with {process.returncode}")
    result.update(setup_s=setup_s, setup_kernels=setup_kernels,
                  op_s=op_s, op_kernels=op_kernels)
    return result


def launch(workload: str, seed: int, trace: bool, seconds: float = 0.0,
           ops: int = 0, limit: Optional[float] = None) -> Dict:
    """Start one worker, drive its ops and return its result.

    The worker runs ``ops`` ops, or whole cycles of its op pattern until
    ``seconds`` have passed; with neither it runs none (a cold-launch
    sample).  The host's speed is sampled with the calibration kernel,
    in this process and while the worker's process group is stopped:
    before the launch, every :data:`SAMPLE_EVERY_S` while the worker
    sets up or runs an op, and after each of those.  ``setup_s`` is the
    raw time from just before the interpreter is spawned until the
    worker reports its fixtures ready; ``op_s`` holds the raw op times;
    the time the worker spent stopped is taken out of both.
    ``setup_kernels`` and ``op_kernels`` (a list per op) hold the kernel
    times sampled over each interval, ends included.  The worker's
    process group is killed after ``limit`` seconds (default: its budget
    plus :data:`GRACE_S`) and, whatever happens, once the pass is over.
    """
    if limit is None:
        limit = GRACE_S + (OP_LIMIT_S * ops if ops else seconds)
    command = [
        sys.executable, str(WORKER), "--workload", workload,
        "--seed", str(seed), "--trace", str(int(trace)),
    ]
    setup_kernels = [calibrate.kernel()]
    started = time.perf_counter()
    with subprocess.Popen(
        command, cwd=ROOT, env=_child_env(), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    ) as process:
        watchdog = threading.Timer(limit, _kill_group, (process.pid,))
        watchdog.start()
        try:
            result = _drive(process, started, seconds, ops, setup_kernels)
        finally:
            watchdog.cancel()
            _kill_group(process.pid)
    if result["repro_env"]:
        raise HarnessError(f"REPRO_* reached the worker: {result['repro_env']}")
    return result


def scaled_ops(run: Dict) -> List[float]:
    """Op times on the reference host, each scaled by the kernels timed
    during and on either side of it."""
    return [calibrate.scale(raw, kernels)
            for raw, kernels in zip(run["op_s"], run["op_kernels"])]


def _all_kernels(run: Dict) -> List[float]:
    return [k for kernels in run["op_kernels"] for k in kernels]


def scaled_setup(run: Dict) -> float:
    """One launch's set-up time on the reference host."""
    return calibrate.scale(run["setup_s"], run["setup_kernels"])


def end_to_end(timed: Dict, setups: List[Dict]) -> Dict[str, float]:
    times = scaled_ops(timed)
    return {
        "op_p50_s": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "retained_mb": timed["retained_mb"],
        "setup_s": statistics.median(scaled_setup(run) for run in setups),
    }


def raw_end_to_end(timed: Dict, setups: List[Dict]) -> Dict[str, float]:
    """The timed metrics as measured, without calibration."""
    return {
        "op_p50_s": statistics.median(timed["op_s"]),
        "ops_per_s": len(timed["op_s"]) / sum(timed["op_s"]),
        "setup_s": statistics.median(run["setup_s"] for run in setups),
    }


def _ratio(counters: Dict[str, int]) -> float:
    looked_up = counters["hits"] + counters["misses"]
    return counters["hits"] / looked_up if looked_up else 0.0


def per_layer(traced: Dict, untraced: Dict) -> Dict[str, float]:
    """Per-op layer metrics from a traced pass and its untraced replay.

    Layer times are scaled to the reference host by the pass's median
    calibration kernel.
    """
    ops = len(traced["op_s"])
    layers = traced["layers"]
    speed = calibrate.scale(1.0, _all_kernels(traced))

    def layer(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0) / ops

    out: Dict[str, float] = {}
    for name in ("analysis.dc", "analysis.measure", "sizing.plan",
                 "layout.estimate", "layout.generate", "layout.extract"):
        out[f"{name}.calls"] = layer(name, "calls")
    for name in LAYERS:
        out[f"{name}.self_s"] = speed * layer(name, "self_s")
    out["unattributed_s"] = speed * layer("op", "self_s")
    out["analysis.dc.newton_iters"] = layer("analysis.dc", "newton_iters")
    out["sizing.plan.iterations"] = layer("sizing.plan", "iterations")
    out["core.synthesis.rounds"] = layer("core.synthesis", "rounds")
    out["core.synthesis.unconverged"] = layer("core.synthesis", "unconverged")
    montecarlo = layers.get("analysis.montecarlo", {})
    out["analysis.montecarlo.us_per_sample"] = (
        1e6 * speed * montecarlo["total_s"] / montecarlo["samples"]
        if montecarlo else 0.0
    )
    out["layout.drc.violations"] = layer("layout.drc", "violations")
    out["layout.gds.bytes"] = layer("layout.gds", "bytes")
    memo = traced["memo"]
    out["sizing.memo.hit_ratio"] = _ratio(memo["sizing"])
    out["layout.call_memo.hit_ratio"] = _ratio(memo["layout"])
    out["layout.call_memo.evictions"] = memo["layout"]["evictions"] / ops
    out["layout.extract_memo.hit_ratio"] = _ratio(memo["extraction"])
    out["trace.overhead_frac"] = (
        sum(scaled_ops(traced)) / sum(scaled_ops(untraced)) - 1.0
    )
    return out


def partition_error(traced: Dict) -> float:
    """|sum of layer self times + unattributed - traced op wall| / wall."""
    layers = traced["layers"]
    wall = layers["op"]["total_s"]
    parts = sum(entry["self_s"] for entry in layers.values())
    return abs(parts - wall) / wall


def host_info(seed: int, cpu_index: int) -> Dict[str, object]:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "pinned_cpu": cpu_index,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            ops: int, cpu_index: int):
    """One benchmark run; returns the result line, the detail line and
    the scaled per-op times.  A timed run makes :data:`SETUP_LAUNCHES`
    cold launches, one when ``ops`` fixes the op count."""
    detail: Dict[str, object] = {"workload": workload, "trace": int(trace),
                                 "started": time.time(),
                                 "host": host_info(seed, cpu_index)}
    if trace:
        traced = launch(workload, seed, True, seconds * TRACED_SHARE, ops)
        spent = sum(traced["op_s"]) + sum(_all_kernels(traced))
        untraced = launch(workload, seed, False, ops=len(traced["op_s"]),
                          limit=GRACE_S + 2.0 * spent)
        run, metrics = traced, per_layer(traced, untraced)
        detail["partition_error"] = partition_error(traced)
        detail["untraced_digest"] = untraced["digest"]
        correct = (untraced["digest"] == traced["digest"]
                   and untraced["failed"] == 0
                   and detail["partition_error"] <= 0.01)
    else:
        setups = [launch(workload, seed, False)
                  for _ in range(0 if ops else SETUP_LAUNCHES - 1)]
        run = launch(workload, seed, False, seconds, ops)
        setups.append(run)
        metrics = end_to_end(run, setups)
        detail["setup_samples"] = [scaled_setup(r) for r in setups]
        detail["raw"] = raw_end_to_end(run, setups)
        correct = True
    correct = correct and run["failed"] == 0
    detail.update(
        digest=run["digest"], ops=len(run["op_s"]), errors=run["errors"],
        memo=run["memo"],
        kernel_median_s=statistics.median(_all_kernels(run)),
    )
    result = {"correct": correct, "attempted": len(run["op_s"]),
              "failed": run["failed"], "metrics": metrics}
    return result, detail, scaled_ops(run)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Workload benchmark of the synthesis loop."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="run exactly this many ops instead of timing")
    parser.add_argument("--out", help="append the run, with its per-op "
                        "times, to this JSONL file")
    args = parser.parse_args(argv)
    # The worker runs in a session of its own: on SIGTERM, unwind so that
    # launch() kills it instead of leaving it behind, perhaps stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise HarnessError(f"no program source under {ROOT / 'src'}")
        names = {w["name"] for w in spec["workloads"]}
        if args.workload not in names:
            raise HarnessError(f"unknown workload {args.workload!r}")
        cpu_index = calibrate.pin_to_one_cpu()
        # Byte-compile once so no cold launch pays for compilation.
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src/repro", "bench"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=300,
        )
        result, detail, op_times = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.ops, cpu_index,
        )
        expected = [m["name"] for m in
                    spec["per_layer" if args.trace else "end_to_end"]]
        if sorted(result["metrics"]) != sorted(expected):
            raise HarnessError(
                f"metric names {sorted(result['metrics'])} differ from "
                f"BENCHMARK.json {sorted(expected)}"
            )
        units = {m["name"]: m["unit"] for m in
                 spec["per_layer"] + spec["end_to_end"]}
        result["metrics"] = {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(result["metrics"].items())
        }
    except (HarnessError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        print(f"bench: {type(error).__name__}: {error}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {**detail, **result, "op_s": op_times}
            ) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
