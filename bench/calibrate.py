"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose CPUs change speed by 10-60%
within a tenth of a second as other tenants come and go, each CPU on its
own (on the reference host the two vCPUs' speeds are nearly
uncorrelated).  Run-to-run spreads of raw wall time were 15-40% for the
same seed.  So the harness samples the host's speed with a fixed
calibration kernel on the workload's CPU, every few hundredths of a
second while the workload sets up or runs an op, and scales every
reported time by ``REFERENCE_S`` times the mean kernel speed over it: a
reported second is a second on a host where the kernel takes
:data:`REFERENCE_S`.  The kernel mixes interpreter work with small
dense solves, the same mix as the program's hot paths; over the ops of
one seed run again and again, op time grew with kernel time to the
power 0.94-1.28.

The kernel must measure the host, not the program.  It therefore runs
in the harness process, never in the workload's, and only while the
workload's whole process group is stopped (:func:`stopped`): a thread,
pool worker or other process the program leaves running cannot take the
CPU from it, and the program's heap does not enter its garbage
collections.  The stopped time is taken out of the workload's timings.
What the program leaves behind in shared hardware state (caches, memory
bandwidth) can still reach the kernel; raw wall times stay in the run's
detail line so that ``bench/compare.py`` can check them too.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from typing import Sequence

import numpy as np

#: Kernel time on an uncontended CPU of the reference host (2-core Intel
#: Xeon VM, Python 3.11, NumPy 2.4, one BLAS thread), seconds.
REFERENCE_S = 1.07e-3

_MATRIX = np.eye(16) * 16.0 + np.arange(256.0).reshape(16, 16) % 7
_VECTOR = np.arange(16.0)


def kernel() -> float:
    """Run the calibration kernel once; returns its wall time, s."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(100):
        total += float(np.linalg.solve(_MATRIX, _VECTOR)[0])
        total += sum({i: i * 0.5 for i in range(40)}.values())
    return time.perf_counter() - start


def scale(raw_s: float, kernels: Sequence[float]) -> float:
    """``raw_s`` on the reference host, given kernel times sampled evenly
    over it.  The host's speed is the mean of the kernels' speeds (one
    over their times), which weighs every stretch of the interval by
    its length and damps a kernel slowed by a stray interrupt."""
    speed = sum(1.0 / k for k in kernels) / len(kernels)
    return raw_s * REFERENCE_S * speed


def pin_to_one_cpu() -> int:
    """Pin this process, and so every process it starts later, to the
    lowest CPU it may run on, so the kernel and the workload share one
    CPU; returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


@contextmanager
def stopped(group: int):
    """Stop every process of ``group`` (SIGSTOP) for the duration."""
    os.killpg(group, signal.SIGSTOP)
    try:
        yield
    finally:
        os.killpg(group, signal.SIGCONT)
