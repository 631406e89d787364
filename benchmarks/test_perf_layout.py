"""Layout-path speed floors.

Times geometric extraction and DRC of the generated case-4 OTA cell; their
floors time the library path against the per-shape oracle in
``tests/oracles`` on the same cell.  The remaining floor times, on
hosts with at least four cores, the parallel Table-1 batch driver
against the serial one.  The floors are deliberately loose (the acceptance numbers are far
higher on an idle machine) so that they flag real regressions without
being flaky under load.
"""

from __future__ import annotations

import os

import pytest

from repro.core.batch import BatchTask, run_batch
from repro.layout.drc import DrcChecker
from repro.layout.extraction import extract_cell
from repro.sizing.specs import ParasiticMode
from benchmarks.timing import best_of, speedup
from tests.designs import hand_ota_layout
from tests.oracles import layout as oracle

#: Workers of the parallel Table-1 batch floor.
BATCH_JOBS = 4


@pytest.fixture(scope="module")
def ota_cell(tech):
    return hand_ota_layout(tech).cell


def test_benchmark_extract_ota_cell(benchmark, ota_cell, tech):
    """Full geometric extraction of the generated OTA cell, and the
    ``layout_extract`` floor: more than 1.5x faster than the per-shape
    oracle."""
    extracted = benchmark.pedantic(
        extract_cell, args=(ota_cell, tech),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert extracted.net_wire_cap
    assert speedup(
        lambda: oracle.extract_cell(ota_cell, tech),
        lambda: extract_cell(ota_cell, tech),
    ) > 1.5


def test_benchmark_drc_ota_cell(benchmark, ota_cell, tech):
    """Full design-rule check of the generated OTA cell, and the
    ``layout_drc`` floor: more than 1.5x faster than the all-pairs
    oracle."""
    checker = DrcChecker(tech)
    violations = benchmark.pedantic(
        checker.check, args=(ota_cell,),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert violations == []
    assert speedup(
        lambda: oracle.drc_check(checker, ota_cell),
        lambda: checker.check(ota_cell),
    ) > 1.5


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < BATCH_JOBS,
    reason=f"needs {BATCH_JOBS} cores to parallelize onto",
)
def test_table1_batch_jobs4_floor(specs):
    """The ``table1_batch_jobs4`` floor: the four Table-1 cases on a
    4-worker pool run more than 1.2x faster than serially."""
    tasks = [
        BatchTask(kind="case", technology="0.6um", specs=specs,
                  mode=mode.name)
        for mode in ParasiticMode
    ]
    serial = best_of(lambda: run_batch(tasks, jobs=1), repeat=1, warmup=0)
    parallel = best_of(
        lambda: run_batch(tasks, jobs=BATCH_JOBS), repeat=1, warmup=0
    )
    assert serial / parallel > 1.2
