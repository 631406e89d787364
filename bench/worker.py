"""One workload process, driven op by op by ``bench/run.py``.

Started in a fresh interpreter for every launch, so the program's
process-wide memo stores start cold.  It builds the workload's fixtures
and writes ``{"event": "ready", "cycle": N}``, N being the length of the
workload's op pattern.  Then it reads one command per line from standard
input: ``go`` runs the next op and answers ``{"op_s": <wall time of the
op>}``; ``stop`` ends the pass, and the worker answers with one result
object (digest over the per-op fingerprints, errors, retained memory,
memo-store counters and, with ``--trace 1``, the per-layer span summary
of :class:`trace.Tracer`).  The harness stops this process now and then
to time its calibration kernel.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import gc
import hashlib
import json
import os
import sys
import tempfile
import time
import warnings


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _memo_counters():
    from repro.layout import incremental

    return incremental.stats()


#: ``retained_mb`` is read after this many ops (or at the end of a
#: shorter pass): the memo stores grow with every op, so a reading at
#: the end of a timed pass would grow with throughput.
RETAINED_AFTER_OPS = 24


def _retained_mb() -> float:
    """Resident memory the process keeps, MB: the resident set size once
    garbage is collected and free heap pages are handed back to the OS,
    so the reading does not depend on the allocator's history."""
    gc.collect()
    try:
        malloc_trim = ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError):
        pass  # not glibc: the heap keeps its free pages
    else:
        malloc_trim.argtypes = [ctypes.c_size_t]
        malloc_trim.restype = ctypes.c_int
        malloc_trim(0)
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def serve(workload, tracer=None):
    """Run ops on command until ``stop``; returns fingerprints, errors
    and retained memory."""
    fingerprints, errors = [], []
    retained = None
    clock = time.perf_counter
    for command in iter(sys.stdin.readline, ""):
        if command.strip() != "go":
            break
        index = len(fingerprints)
        t0 = clock()
        try:
            if tracer is None:
                fingerprint = workload.op(index)
            else:
                with tracer.op():
                    fingerprint = workload.op(index)
        except Exception as error:  # noqa: BLE001 - an op failure is data
            fingerprint = f"failed:{type(error).__name__}"
            errors.append(f"op {index}: {type(error).__name__}: {error}")
        elapsed = clock() - t0
        fingerprints.append(fingerprint)
        if len(fingerprints) == RETAINED_AFTER_OPS:
            retained = _retained_mb()
        _emit({"op_s": elapsed})
    if retained is None:
        retained = _retained_mb()
    return fingerprints, errors, retained


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")

    # The GDS scratch file stays inside the checkout the benchmark runs in.
    scratch = os.path.join(os.getcwd(), ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as scratch_dir:
        import workloads

        workload = workloads.create(args.workload, args.seed, scratch_dir)
        _emit({"event": "ready", "cycle": workload.CYCLE})
        tracer = None
        if args.trace:
            from trace import Tracer

            tracer = Tracer()
        memo_before = _memo_counters()
        with tracer or contextlib.nullcontext():
            fingerprints, errors, retained = serve(workload, tracer)
        memo_after = _memo_counters()

    result = {
        "event": "result",
        "failed": len(errors),
        "errors": errors[:5],
        "digest": hashlib.sha256(
            "\n".join(fingerprints).encode()
        ).hexdigest()[:16],
        "retained_mb": retained,
        "memo": {
            store: {
                key: memo_after[store][key] - memo_before[store][key]
                for key in ("hits", "misses", "evictions")
            }
            for store in memo_after
        },
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
