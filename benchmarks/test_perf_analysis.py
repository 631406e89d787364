"""Analysis benchmark-regression harness.

Times the analysis workloads the synthesis loop leans on — a feedback DC
solve, a 200-point AC sweep and 50- and 200-run Monte-Carlo offset
analyses — plus the end-to-end Table-1 case-4 synthesis.  Each
``pytest-benchmark`` entry tracks the one library path; the speed floors
time that path against its reference (the per-element oracle in
``tests/oracles`` or one public solve per sample) on the same inputs.
The final test writes the machine-readable record ``BENCH_analysis.json``
at the repository root (the same record ``python -m repro bench``
produces) and asserts the floors of the before/after entries that
remain.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.analysis.ac import ac_sweep
from repro.analysis.dcop import solve_dc
from repro.analysis.montecarlo import (
    _CompiledOffset,
    apply_mismatch,
    draw_mismatch_samples,
    run_monte_carlo,
)
from repro.perf import (
    BENCH_FILENAME,
    default_testbench,
    run_benchmarks,
    run_runtime_benchmarks,
    time_call,
    write_bench,
)
from repro.resilience.policy import warm_policy
from tests.oracles import analysis as oracle

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _speedup(reference, path, repeat=3):
    """Best-of time of ``reference()`` over best-of time of ``path()``."""
    before = time_call(reference, repeat=repeat)
    after = time_call(path, repeat=repeat)
    return before["best_s"] / after["best_s"]


def _feedback(circuit, tb):
    feedback = circuit.clone("bench_fb")
    feedback.remove(tb.source_neg)
    feedback.add_vsource("_fb", tb.input_neg_net, tb.output_net, dc=0.0)
    return feedback


def _oracle_monte_carlo(tb, runs, seed):
    """Offset samples with one per-element oracle DC solve per sample."""
    rng = np.random.default_rng(seed)
    offsets = []
    for _ in range(runs):
        sample = _feedback(apply_mismatch(tb.circuit, rng), tb)
        dc = oracle.solve_dc(sample)
        offsets.append(dc.voltage(tb.output_net) - tb.common_mode_voltage())
    return offsets


def _per_sample_monte_carlo(tb, runs, seed):
    """Offset samples with one ``warm_policy(nominal).run(program)`` solve
    per pre-drawn row — the reference the stacked ensemble must beat."""
    names, vth, beta = draw_mismatch_samples(tb.circuit, runs, seed)
    compiled = _CompiledOffset(tb, names)
    policy = warm_policy(compiled.nominal)
    offsets = []
    for vth_row, beta_row in zip(vth, beta):
        compiled.program.set_mismatch(
            vth_row[compiled.permutation], beta_row[compiled.permutation]
        )
        voltages, _report = policy.run(compiled.program)
        offsets.append(float(voltages[compiled.out_node]) - compiled.vcm)
    return offsets


@pytest.fixture(scope="module")
def bench_tb():
    return default_testbench()


@pytest.fixture(scope="module")
def feedback_circuit(bench_tb):
    return _feedback(bench_tb.circuit, bench_tb)


@pytest.fixture(scope="module")
def feedback_dc(feedback_circuit):
    return solve_dc(feedback_circuit)


def test_benchmark_dc_solve(benchmark, feedback_circuit):
    """One nonlinear DC operating-point solve of the feedback OTA, and
    the ``dc_solve`` floor: faster than the per-element oracle."""
    solution = benchmark.pedantic(
        solve_dc, args=(feedback_circuit,),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert solution.gmin == 0.0
    assert _speedup(
        lambda: oracle.solve_dc(feedback_circuit),
        lambda: solve_dc(feedback_circuit),
    ) > 1.0


def test_benchmark_ac_sweep_200(
    benchmark, bench_tb, feedback_circuit, feedback_dc
):
    """A 200-point logarithmic AC sweep at the shared operating point, and
    the ``ac_sweep_200`` floor: faster than per-frequency dense solves."""
    frequencies = np.logspace(0.0, 9.0, 200)
    drive = {bench_tb.source_pos: 0.5, "_fb": 0.0}
    args = (feedback_circuit, feedback_dc, frequencies, drive)
    solution = benchmark.pedantic(
        ac_sweep, args=args, rounds=3, iterations=1, warmup_rounds=1,
    )
    assert solution.frequencies.size == 200
    assert _speedup(
        lambda: oracle.ac_sweep(*args), lambda: ac_sweep(*args)
    ) > 1.0


def test_benchmark_monte_carlo_50(benchmark, bench_tb):
    """50 Pelgrom-mismatch offset samples, and the ``monte_carlo_50``
    floor: faster than one oracle DC solve per sample."""
    result = benchmark.pedantic(
        run_monte_carlo, args=(bench_tb,),
        kwargs={"runs": 50, "seed": 1234},
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert len(result.samples["offset_voltage"]) == 50
    assert _speedup(
        lambda: _oracle_monte_carlo(bench_tb, 50, 1234),
        lambda: run_monte_carlo(bench_tb, runs=50, seed=1234),
        repeat=1,
    ) > 1.0


def test_benchmark_monte_carlo_200_ensemble(benchmark, bench_tb):
    """200 offset samples in one stacked (K, n, n) solve, and the
    ``monte_carlo_200_ensemble`` floor: more than 2x faster than one
    seeded solve per row (acceptance floor 3x on an idle machine; 2x
    absorbs CI noise)."""
    result = benchmark.pedantic(
        run_monte_carlo, args=(bench_tb,),
        kwargs={"runs": 200, "seed": 1234},
        rounds=1, iterations=1, warmup_rounds=0,
    )
    offsets = result.samples["offset_voltage"]
    assert len(offsets) == 200
    np.testing.assert_allclose(
        offsets, _per_sample_monte_carlo(bench_tb, 200, 1234),
        rtol=1e-9, atol=1e-12,
    )
    assert _speedup(
        lambda: _per_sample_monte_carlo(bench_tb, 200, 1234),
        lambda: run_monte_carlo(bench_tb, runs=200, seed=1234),
    ) > 2.0


def test_write_bench_record():
    """Run the benchmark suite and persist ``BENCH_analysis.json``.

    The speedup floors are deliberately loose (the acceptance numbers are
    far higher on an idle machine) so the harness flags real regressions
    without being flaky under load.
    """
    results = run_benchmarks(repeat=3, include_synthesis=True)
    results.update(run_runtime_benchmarks(repeat=3))
    write_bench(results, str(REPO_ROOT / BENCH_FILENAME))
    for name in (
        "dc_solve", "ac_sweep_200", "monte_carlo_50",
        "monte_carlo_200_ensemble", "corners_batch_ensemble",
        "synthesize_case4",
    ):
        assert results[name]["compiled_p50_s"] > 0.0
    # Incremental hot path: warm repeats serve sizing rounds and layout
    # calls from the differential stores (acceptance floor 1.8x; warm
    # repeats measure far higher on an idle machine).
    assert results["synthesize_case4_incremental"]["speedup"] > 1.8
    # Executor-runtime floors (acceptance: 2x dispatch, 3x warm on an
    # idle machine; loosened here so the harness is not flaky under
    # CI load).
    assert results["mc_dispatch_overhead"]["speedup"] > 1.5
    assert results["table1_warm_vs_cold"]["speedup"] > 2.0
