"""Analysis speed floors.

Times the analysis workloads the synthesis loop leans on — a feedback DC
solve, a 200-point AC sweep and 50- and 200-run Monte-Carlo offset
analyses.  Each ``pytest-benchmark`` entry tracks the one library path;
its speed floor times that path against its reference (the per-element
oracle in ``tests/oracles`` or one public solve per sample) on the same
inputs.  The remaining floors time a switch the library still has
against its other side: the case-4 synthesis with the memo off and warm,
a Monte-Carlo dispatch to a cold and a warm worker pool, and a Table-1
batch against an empty and a filled artifact cache.  The floors are
deliberately loose (the acceptance numbers are far higher on an idle
machine) so that they flag real regressions without being flaky under
load.
"""

from __future__ import annotations

import tempfile

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
from repro.core.batch import BatchTask, run_batch
from repro.core.synthesis import LayoutOrientedSynthesizer
from repro.layout import incremental
from repro.resilience.policy import warm_policy
from repro.runtime import artifacts
from repro.runtime import pool as runtime_pool
from repro.sizing.plans.folded_cascode import FoldedCascodePlan
from repro.sizing.specs import ParasiticMode
from benchmarks.timing import best_of, speedup
from tests.designs import hand_testbench
from tests.oracles import analysis as oracle


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
    return hand_testbench()


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
    assert speedup(
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
    assert speedup(
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
    assert speedup(
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
    assert speedup(
        lambda: _per_sample_monte_carlo(bench_tb, 200, 1234),
        lambda: run_monte_carlo(bench_tb, runs=200, seed=1234),
    ) > 2.0


def test_synthesis_memo_floor(tech, specs):
    """The ``synthesize_case4_incremental`` floor: the warm memo serves
    the case-4 synthesis (sizing rounds and layout calls) more than 1.8x
    faster than the memo-off loop, which must redo the physics."""

    def synthesize():
        synthesizer = LayoutOrientedSynthesizer(
            tech, plan=FoldedCascodePlan(tech)
        )
        return synthesizer.run(specs, mode=ParasiticMode.FULL, generate=True)

    # The warmup call fills the memo, so the timed memo-on repeats
    # measure the warm loop, the case the sizing<->layout iteration hits
    # from round two onward.
    incremental.clear()
    with incremental.using(False):
        scratch = best_of(synthesize, repeat=2)
    incremental.clear()
    with incremental.using(True):
        warm = best_of(synthesize, repeat=2)
    incremental.clear()
    assert scratch / warm > 1.8


def test_mc_dispatch_overhead_floor(bench_tb):
    """The ``mc_dispatch_overhead`` floor: a 4-worker Monte-Carlo
    dispatch to the warm persistent pool is more than 1.5x faster than
    to a cold one.  Both solve the nominal operating point once in the
    parent, ship the testbench payload and compile the feedback program
    in every shard, so the floor measures the cost of the four process
    spawns alone."""

    def mc():
        return run_monte_carlo(bench_tb, runs=64, seed=1234, workers=4)

    # The shutdown that makes each timed call cold stays outside the
    # timing; the warm side's warmup call creates the pool.
    cold = best_of(mc, warmup=0, before=runtime_pool.shutdown)
    runtime_pool.shutdown()
    warm = best_of(mc)
    assert cold / warm > 1.5


def test_table1_warm_vs_cold_floor(specs):
    """The ``table1_warm_vs_cold`` floor: two Table-1 cases re-run
    against the artifact cache their cold run just filled are served
    from disk more than 2x faster than the cold run."""
    tasks = [
        BatchTask(kind="case", technology="0.6um", specs=specs, mode=mode)
        for mode in ("NONE", "SINGLE_FOLD")
    ]
    cold, warm = [], []
    for _ in range(2):
        # A fresh cache root per iteration keeps every cold sample cold.
        with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
            with artifacts.using(root):
                cold.append(best_of(lambda: run_batch(tasks, jobs=1),
                                    repeat=1, warmup=0))
                warm.append(best_of(lambda: run_batch(tasks, jobs=1),
                                    repeat=1, warmup=0))
    assert min(cold) / min(warm) > 2.0
