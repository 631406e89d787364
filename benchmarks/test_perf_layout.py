"""Layout-path benchmark-regression harness.

Times geometric extraction and DRC of the generated case-4 OTA cell,
plus the parallel Table-1 batch driver on hosts with enough cores.  The
extraction and DRC floors time the library path against the per-shape
oracle in ``tests/oracles`` on the same cell.  The final test merges the
layout entries into the machine-readable ``BENCH_analysis.json`` record
next to the analysis numbers and asserts the floors of the before/after
entries (deliberately loose so the harness flags real regressions
without being flaky under load — the acceptance numbers are far higher
on an idle machine).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.layout import incremental
from repro.layout.drc import DrcChecker
from repro.layout.extraction import extract_cell
from repro.perf import (
    BENCH_FILENAME,
    hand_ota_layout,
    load_bench,
    run_layout_benchmarks,
    time_call,
    write_bench,
)
from tests.oracles import layout as oracle

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _speedup(reference, path, repeat=3):
    """Best-of time of ``reference()`` over best-of time of ``path()``."""
    before = time_call(reference, repeat=repeat)
    after = time_call(path, repeat=repeat)
    return before["best_s"] / after["best_s"]


@pytest.fixture(scope="module")
def ota_cell(tech):
    return hand_ota_layout(tech).cell


def test_benchmark_extract_ota_cell(benchmark, ota_cell, tech):
    """Full geometric extraction of the generated OTA cell (memo off, so
    every round extracts), and the ``layout_extract`` floor: more than
    1.5x faster than the per-shape oracle."""
    with incremental.using(False):
        extracted = benchmark.pedantic(
            extract_cell, args=(ota_cell, tech),
            rounds=3, iterations=1, warmup_rounds=1,
        )
        assert extracted.net_wire_cap
        assert _speedup(
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
    assert _speedup(
        lambda: oracle.drc_check(checker, ota_cell),
        lambda: checker.check(ota_cell),
    ) > 1.5


def test_write_layout_bench_record():
    """Merge the layout entries into ``BENCH_analysis.json``."""
    jobs = 4 if len(os.sched_getaffinity(0)) >= 4 else 0
    results = run_layout_benchmarks(repeat=3, batch_jobs=jobs)
    record_path = REPO_ROOT / BENCH_FILENAME
    merged = dict(load_bench(record_path)) if record_path.exists() else {}
    merged.update(results)
    write_bench(merged, str(record_path))
    assert results["layout_extract"]["compiled_p50_s"] > 0.0
    assert results["layout_drc"]["compiled_p50_s"] > 0.0
    # Warm repeats of the same cell come from the per-module store.
    assert results["extraction_incremental"]["speedup"] > 3.0
    if jobs:
        # Serial vs --jobs 4 Table-1 batch: only asserted where the host
        # actually has the cores to parallelize onto.
        assert results[f"table1_batch_jobs{jobs}"]["speedup"] > 1.2
