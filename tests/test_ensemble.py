"""Stacked-ensemble solves vs one public call per member.

The ensemble engine must be a pure performance transform: sample-for-
sample equal to a ``warm_policy(nominal).run(program)`` solve per
Monte-Carlo row and to ``measure_ota`` per corner bench (rtol 1e-9; in
practice bitwise), with per-member failure isolation and worker-count
independence.  These tests pin the design rules documented in
:mod:`repro.analysis.ensemble`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import montecarlo
from repro.analysis.ensemble import EnsembleProgram, measure_ota_ensemble
from repro.analysis.metrics import measure_ota
from repro.analysis.montecarlo import (
    _CompiledOffset,
    draw_mismatch_samples,
    run_monte_carlo,
)
from repro.analysis.stamps import StampProgram
from repro.errors import AnalysisError, ConvergenceError
from repro.resilience.policy import COMPILED_POLICY, SolverPolicy, warm_policy
from repro.sizing.specs import OtaSpecs
from repro.technology import generic_035
from repro.technology.corners import corner_set
from tests.designs import hand_testbench, two_stage_testbench

RTOL = 1e-9

TESTBENCHES = {
    "folded_cascode": hand_testbench,
    "two_stage": two_stage_testbench,
}


@pytest.fixture(scope="module", params=sorted(TESTBENCHES))
def tb(request):
    return TESTBENCHES[request.param]()


@pytest.fixture(scope="module")
def feedback(tb):
    circuit = tb.circuit.clone("ensemble_fb")
    circuit.remove(tb.source_neg)
    circuit.add_vsource("_fb", tb.input_neg_net, tb.output_net, dc=0.0)
    return circuit


def _spread_mismatch(n_mos, members):
    """Mismatch rows whose scale spans 1e-4..5e-2, so the members need
    different Newton iteration counts."""
    rng = np.random.default_rng(3)
    scale = np.geomspace(1e-4, 5e-2, members)[:, None]
    return (
        rng.normal(size=(members, n_mos)) * scale,
        rng.normal(size=(members, n_mos)) * scale,
    )


def _corner_feedbacks():
    """Unity-feedback circuits of one sized design at its five corners."""
    from repro.sizing.plans.folded_cascode import FoldedCascodePlan

    technology = generic_035()
    specs = OtaSpecs()
    plan = FoldedCascodePlan(technology, 1)
    sizing = plan.size(specs)
    feedbacks = []
    for tech in corner_set(technology).values():
        bench = FoldedCascodePlan(tech, 1).build_testbench(sizing, specs)
        circuit = bench.circuit.clone("corner_fb")
        circuit.remove(bench.source_neg)
        circuit.add_vsource(
            "_fb", bench.input_neg_net, bench.output_net, dc=0.0
        )
        feedbacks.append(circuit)
    return feedbacks


def _bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_subset_rows_match_full(ensemble):
    """Assembling a subset of member rows reproduces exactly those rows
    of the full assembly."""
    rng = np.random.default_rng(17)
    # Random biases put devices on both sides of the drain/source swap,
    # so a subset's swap mask differs from the full one.
    voltages = rng.uniform(
        -1.0, 3.5, size=(ensemble.members, ensemble.program.size)
    )
    full_r, full_j = ensemble.residual_and_jacobian(
        voltages, np.arange(ensemble.members), 1e-12
    )
    for idx in ([1, 3], [0, 2], [0, 2, 4], [4], [3]):
        idx = np.array(idx)
        r, j = ensemble.residual_and_jacobian(voltages, idx, 1e-12)
        assert _bitwise_equal(r, full_r[idx])
        assert _bitwise_equal(j, full_j[idx])


def _assert_members_match_solo(ensemble, solo_ensemble):
    """Every member of ``ensemble.solve()`` bitwise equals the K = 1
    solve ``solo_ensemble(k)`` builds for it."""
    batch = ensemble.solve()
    assert batch.converged.all()
    assert len(set(batch.iterations.tolist())) > 1
    for k in range(batch.members):
        solo = solo_ensemble(k).solve()
        assert _bitwise_equal(batch.voltages[k], solo.voltages[0])
        assert batch.converged[k] == solo.converged[0]
        assert batch.iterations[k] == solo.iterations[0]
        assert _bitwise_equal(
            batch.residual_norms[k], solo.residual_norms[0]
        )


def _offset_rows(tb, runs, seed, scale=None):
    """A testbench's compiled offset measurement plus ``runs`` mismatch
    rows in circuit device order (Pelgrom draws, or normal threshold
    shifts of ``scale`` volts when given)."""
    names, vth, beta = draw_mismatch_samples(tb.circuit, runs, seed)
    if scale is not None:
        rng = np.random.default_rng(0)
        vth = rng.normal(size=vth.shape) * scale
        beta = rng.normal(size=beta.shape) * 0.01
    return _CompiledOffset(tb, names), vth, beta


def _per_sample_outcomes(compiled, vth, beta, policy):
    """``(voltages, report, error)`` per row from the scalar ladder."""
    program = compiled.program
    outcomes = []
    for vth_row, beta_row in zip(vth, beta):
        program.set_mismatch(
            vth_row[compiled.permutation], beta_row[compiled.permutation]
        )
        try:
            voltages, report = policy.run(program)
            outcomes.append((voltages, report, None))
        except ConvergenceError as error:
            outcomes.append((None, error.report, error))
    return outcomes


def _per_sample_offsets(compiled, vth, beta):
    """Offset per row from one seeded scalar ladder run each — the
    reference :meth:`_CompiledOffset.measure` must equal."""
    policy = (
        COMPILED_POLICY if compiled.nominal is None
        else warm_policy(compiled.nominal)
    )
    return [
        {"offset_voltage": float(voltages[compiled.out_node]) - compiled.vcm}
        for voltages, _report, _error in _per_sample_outcomes(
            compiled, vth, beta, policy
        )
    ]


def _reference_monte_carlo(tb, runs, seed):
    """``run_monte_carlo``'s offset samples, one public solve per row."""
    names, vth, beta = draw_mismatch_samples(tb.circuit, runs, seed)
    return {
        "offset_voltage": [
            stats["offset_voltage"]
            for stats in _per_sample_offsets(
                _CompiledOffset(tb, names), vth, beta
            )
        ]
    }


def _assert_matches_per_sample(solution, outcomes):
    """Stacked members equal the per-sample ladder: bitwise voltages,
    equal reports (rung names included) and equal errors."""
    for k, (voltages, report, error) in enumerate(outcomes):
        # Residual norms may be NaN, so compare them NaN-aware.
        assert solution.reports[k].summary() == report.summary()
        np.testing.assert_array_equal(
            solution.reports[k].residual_history(),
            report.residual_history(),
        )
        if error is None:
            assert solution.converged[k]
            assert _bitwise_equal(solution.voltages[k], voltages)
        else:
            assert not solution.converged[k]
            assert str(solution.errors[k]) == str(error)


class TestMonteCarloParity:
    def test_stacked_matches_per_sample(self, tb):
        reference = _reference_monte_carlo(tb, runs=40, seed=99)
        stacked = run_monte_carlo(tb, runs=40, seed=99)
        assert set(stacked.samples) == set(reference)
        for key, values in reference.items():
            np.testing.assert_allclose(
                stacked.samples[key], values, rtol=RTOL, atol=1e-12
            )

    def test_stacked_statistics_identical_for_any_worker_count(self, tb):
        serial = run_monte_carlo(tb, runs=12, seed=77, workers=1)
        pooled = run_monte_carlo(tb, runs=12, seed=77, workers=4)
        assert serial.samples == pooled.samples
        assert pooled.n_failed == 0

    def test_workload_size_statistics_identical_for_any_worker_count(
        self, tb
    ):
        """At 1000 runs each shard's live set shrinks to a handful of
        stragglers, so each member's rows are assembled alongside very
        different companions depending on the shard partition."""
        serial = run_monte_carlo(tb, runs=1000, seed=77, workers=1)
        pooled = run_monte_carlo(tb, runs=1000, seed=77, workers=2)
        assert serial.samples == pooled.samples
        assert pooled.n_failed == 0

    def test_seeded_solve_agrees_with_cold_solve(self, tb):
        """Seeding every member from the nominal operating point moves
        only the Newton start: each member lands on the cold solve's
        solution, in well under half the iterations."""
        from repro import telemetry

        compiled, vth, beta = _offset_rows(tb, runs=200, seed=99)
        assert compiled.nominal is not None
        rows = (vth[:, compiled.permutation], beta[:, compiled.permutation])
        solutions, iterations = [], []
        for seed in (None, compiled.nominal):
            tracer = telemetry.Tracer()
            with tracer.activate():
                solutions.append(
                    EnsembleProgram.from_mismatch(
                        compiled.program, *rows
                    ).solve(seed=seed)
                )
            iterations.append(
                tracer.counters["ensemble.newton_iterations"]
            )
        cold, seeded = solutions
        assert cold.converged.all() and seeded.converged.all()
        np.testing.assert_allclose(
            seeded.voltages, cold.voltages, rtol=RTOL, atol=1e-12
        )
        assert iterations[0] >= 2 * iterations[1]
        assert {r.strategy for r in seeded.reports.values()} == {
            "warm-start"
        }

    def test_seeded_stacked_equals_per_sample(self, tb):
        """Under the nominal seed the stacked and per-sample paths give
        bitwise-equal offsets, reports and iteration counts."""
        compiled, vth, beta = _offset_rows(tb, runs=60, seed=99)
        stacked = compiled.measure(vth, beta)
        assert stacked == _per_sample_offsets(compiled, vth, beta)
        solution = EnsembleProgram.from_mismatch(
            compiled.program,
            vth[:, compiled.permutation],
            beta[:, compiled.permutation],
        ).solve(seed=compiled.nominal)
        _assert_matches_per_sample(
            solution,
            _per_sample_outcomes(
                compiled, vth, beta, warm_policy(compiled.nominal)
            ),
        )

    def test_seeded_stage_failure_falls_back_like_per_sample(self, tb):
        """Extreme threshold shifts (0.5 V) defeat the nominal seed for
        some members: they converge through the cold ladder behind the
        warm rung, and every member — fallback, failure or not — equals
        the per-sample ``warm_policy`` result."""
        compiled, vth, beta = _offset_rows(tb, runs=40, seed=5, scale=0.5)
        vth[7] = np.nan  # unsolvable on every rung, seeded or cold
        solution = EnsembleProgram.from_mismatch(
            compiled.program,
            vth[:, compiled.permutation],
            beta[:, compiled.permutation],
        ).solve(seed=compiled.nominal)
        strategies = [solution.reports[k].strategy for k in range(40)]
        assert any(
            solution.converged[k] and strategy != "warm-start"
            for k, strategy in enumerate(strategies)
        )
        assert strategies[7] is None and 7 in solution.errors
        assert solution.reports[7].rungs[0].strategy == "warm-start"
        _assert_matches_per_sample(
            solution,
            _per_sample_outcomes(
                compiled, vth, beta, warm_policy(compiled.nominal)
            ),
        )

    def test_failed_nominal_solve_runs_cold(self, tb, monkeypatch):
        """A testbench whose nominal solve fails keeps the cold start on
        both paths."""
        names, vth, beta = draw_mismatch_samples(tb.circuit, 30, 99)
        with monkeypatch.context() as patch:
            patch.setattr(
                montecarlo, "COMPILED_POLICY", SolverPolicy(rungs=())
            )
            compiled = _CompiledOffset(tb, names)
        assert compiled.nominal is None
        stacked = compiled.measure(vth, beta)
        assert stacked == _per_sample_offsets(compiled, vth, beta)
        solution = EnsembleProgram.from_mismatch(
            compiled.program,
            vth[:, compiled.permutation],
            beta[:, compiled.permutation],
        ).solve()
        _assert_matches_per_sample(
            solution,
            _per_sample_outcomes(compiled, vth, beta, COMPILED_POLICY),
        )
        assert {r.strategy for r in solution.reports.values()} == {
            "direct-newton"
        }
        assert stacked == [
            {"offset_voltage": float(v[compiled.out_node]) - compiled.vcm}
            for v in solution.voltages
        ]


class TestMemberMasking:
    def test_member_rows_independent_of_batch(self, feedback):
        """A member's trajectory must not depend on who shares its batch."""
        program = StampProgram(feedback)
        n = program._n_mos
        rng = np.random.default_rng(5)
        vth = rng.normal(scale=2e-3, size=(3, n))
        beta = rng.normal(scale=5e-3, size=(3, n))
        small = EnsembleProgram.from_mismatch(program, vth, beta).solve()
        assert small.converged.all()

        # Append a pathological fourth member; the first three rows must
        # come out bitwise identical whatever happens to the new one.
        vth4 = np.vstack([vth, np.full((1, n), 50.0)])
        beta4 = np.vstack([beta, np.full((1, n), -0.99)])
        big = EnsembleProgram.from_mismatch(program, vth4, beta4).solve()
        assert np.array_equal(big.voltages[:3], small.voltages)
        np.testing.assert_array_equal(big.converged[:3], small.converged)
        np.testing.assert_array_equal(big.iterations[:3], small.iterations)

    def test_members_bitwise_equal_to_solo_solves(self, feedback):
        """Members converge at different iterations, so the live set
        shrinks mid-solve; every member must still come out exactly as
        it does when solved alone."""
        program = StampProgram(feedback)
        vth, beta = _spread_mismatch(program._n_mos, members=8)
        ensemble = EnsembleProgram.from_mismatch(program, vth, beta)
        _assert_members_match_solo(
            ensemble,
            lambda k: EnsembleProgram.from_mismatch(
                program, vth[k:k + 1], beta[k:k + 1]
            ),
        )

    def test_corner_members_bitwise_equal_to_solo_solves(self):
        feedbacks = _corner_feedbacks()
        ensemble = EnsembleProgram.from_variants(feedbacks)
        _assert_members_match_solo(
            ensemble,
            lambda k: EnsembleProgram.from_variants([feedbacks[k]]),
        )

    def test_row_subset_assembly_matches_full_assembly(self, feedback):
        program = StampProgram(feedback)
        vth, beta = _spread_mismatch(program._n_mos, members=6)
        _assert_subset_rows_match_full(
            EnsembleProgram.from_mismatch(program, vth, beta)
        )

    def test_corner_row_subset_assembly_matches_full_assembly(self):
        _assert_subset_rows_match_full(
            EnsembleProgram.from_variants(_corner_feedbacks())
        )

    def test_rows_assembled_equal_newton_iterations(
        self, feedback, monkeypatch
    ):
        """Only live members are assembled: once every member converges
        on the direct rung, the assembled rows add up to the member
        iterations the ``ensemble.newton_iterations`` counter reports."""
        from repro import telemetry

        program = StampProgram(feedback)
        vth, beta = _spread_mismatch(program._n_mos, members=8)
        assembled = []
        real = EnsembleProgram.residual_and_jacobian

        def spy(self, voltages, idx, *args):
            assembled.append(idx.size)
            return real(self, voltages, idx, *args)

        monkeypatch.setattr(EnsembleProgram, "residual_and_jacobian", spy)
        tracer = telemetry.Tracer()
        with tracer.activate():
            solution = EnsembleProgram.from_mismatch(
                program, vth, beta
            ).solve()
        assert all(
            report.strategy == "direct-newton"
            for report in solution.reports.values()
        )
        assert len(set(assembled)) > 1
        assert sum(assembled) == tracer.counters[
            "ensemble.newton_iterations"
        ]
        assert sum(assembled) < len(assembled) * solution.members

    def test_diverging_member_reported_not_poisoning(self, feedback):
        """A member that genuinely fails DC is isolated: the others
        converge to their per-sample values and the failure carries the
        per-sample ConvergenceError/report."""
        program = StampProgram(feedback)
        n = program._n_mos
        rng = np.random.default_rng(11)
        vth = rng.normal(scale=2e-3, size=(4, n))
        beta = rng.normal(scale=5e-3, size=(4, n))
        # Member 2 is unsolvable (NaN threshold shifts poison the model
        # evaluation on every rung, batched and scalar alike).
        vth[2] = np.nan
        solution = EnsembleProgram.from_mismatch(program, vth, beta).solve()
        assert not solution.converged[2]
        assert solution.converged[[0, 1, 3]].all()
        assert 2 in solution.errors
        report = solution.reports[2]
        assert not report.converged
        assert report.rungs
        for k in (0, 1, 3):
            program.set_mismatch(vth[k], beta[k])
            program._swap_cache = None
            voltages, _, _ = program.solve_voltages()
            np.testing.assert_allclose(
                solution.voltages[k], voltages, rtol=RTOL, atol=1e-12
            )
        program.set_mismatch(vth[2], beta[2])
        program._swap_cache = None
        with pytest.raises(ConvergenceError) as excinfo:
            program.solve_voltages()
        assert str(solution.errors[2]) == str(excinfo.value)
        with pytest.raises(ConvergenceError):
            solution.raise_on_failure()

    def test_singular_batch_demotes_members_not_the_ensemble(
        self, feedback, monkeypatch
    ):
        """LAPACK raises one LinAlgError for the whole (K, n, n) stack
        even when a single member is singular: the batched solve must
        re-solve member-by-member, demote only the genuinely singular
        member to the scalar fallback ladder, and still converge every
        member to its per-sample value."""
        from repro import telemetry

        program = StampProgram(feedback)
        n = program._n_mos
        rng = np.random.default_rng(5)
        vth = rng.normal(scale=2e-3, size=(3, n))
        beta = rng.normal(scale=5e-3, size=(3, n))
        reference = EnsembleProgram.from_mismatch(program, vth, beta).solve()
        assert reference.converged.all()

        real_solve = np.linalg.solve
        state = {"batched_failed": False, "member_failed": False}

        def flaky_solve(a, b):
            if np.asarray(a).ndim == 3:
                state["batched_failed"] = True
                raise np.linalg.LinAlgError("singular stacked batch")
            if state["batched_failed"] and not state["member_failed"]:
                # First per-member re-solve: exactly one singular member.
                state["member_failed"] = True
                raise np.linalg.LinAlgError("singular member")
            return real_solve(a, b)

        tracer = telemetry.Tracer()
        monkeypatch.setattr(np.linalg, "solve", flaky_solve)
        with tracer.activate():
            solution = EnsembleProgram.from_mismatch(
                program, vth, beta
            ).solve()
        assert state["member_failed"]
        assert solution.converged.all()
        np.testing.assert_allclose(
            solution.voltages, reference.voltages, rtol=RTOL, atol=1e-12
        )
        assert tracer.counters["ensemble.singular_batches"] >= 1
        assert tracer.counters["ensemble.singular_members"] == 1


class TestEnsembleMeasurement:
    def test_corner_measurement_matches_per_sample(self):
        technology = generic_035()
        specs = OtaSpecs()
        from repro.sizing.plans.folded_cascode import FoldedCascodePlan

        plan = FoldedCascodePlan(technology, 1)
        sizing = plan.size(specs)
        benches = [
            type(plan)(tech, 1).build_testbench(sizing, specs)
            for tech in corner_set(technology).values()
        ]
        stacked = measure_ota_ensemble(benches)
        reference = []
        for bench in benches:
            try:
                reference.append((measure_ota(bench), None))
            except (AnalysisError, ConvergenceError) as error:
                reference.append((None, str(error)))
        assert len(stacked) == len(reference) == len(benches)
        for got, (ref, error) in zip(stacked, reference):
            if ref is None:
                assert got.metrics is None
                assert got.error == error
                continue
            for attr in (
                "dc_gain_db", "gbw", "phase_margin_deg", "slew_rate",
                "cmrr_db", "psrr_db", "offset_voltage",
                "output_resistance", "input_noise_rms", "power",
            ):
                assert getattr(got.metrics, attr) == pytest.approx(
                    getattr(ref, attr), rel=RTOL, abs=1e-15
                ), attr
