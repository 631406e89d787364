"""Resilience subsystem: escalation policies, deadline budgets,
deterministic fault injection, Monte-Carlo shard recovery, and the
synthesis loop's degradation paths.

Every degradation path the fault harness can reach is pinned here:
ladder exhaustion with a structured report, structural solver failures
raised unchanged, budget expiry at clean boundaries with partial progress,
crashed/timed-out Monte-Carlo shards, and the synthesis loop's
fall-back-to-last-good-round and soft-accept behaviours.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import warnings

import numpy as np
import pytest

from repro.analysis.dcop import solve_dc
from repro.analysis.metrics import feedback_dc_solution
from repro.analysis.montecarlo import run_monte_carlo
from repro.circuit import Circuit
from repro.core.synthesis import LayoutOrientedSynthesizer
from repro.errors import (
    AnalysisError,
    BudgetExceededError,
    ConvergenceError,
    LayoutError,
    SynthesisError,
)
from repro.resilience import Budget, ConvergenceReport, Deadline, faults
from repro.sizing.specs import ParasiticMode, SizingResult
from repro.units import UM

pytestmark = pytest.mark.faults


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


class FakeClock:
    """Injectable clock: deadlines expire when the test says so."""

    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t


class TickingClock:
    """Clock advancing one second per reading (deterministic expiry)."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


def _divider() -> Circuit:
    circuit = Circuit("divider")
    circuit.add_vsource("v1", "a", "0", dc=2.0)
    circuit.add_resistor("r1", "a", "mid", 1e3)
    circuit.add_resistor("r2", "mid", "0", 1e3)
    return circuit


def _mos_diode(tech) -> Circuit:
    circuit = Circuit("diode")
    circuit.add_vsource("vdd", "vdd!", "0", dc=3.3)
    circuit.add_isource("ib", "vdd!", "g", dc=100e-6)
    circuit.add_mos("m1", d="g", g="g", s="0", b="0",
                    params=tech.nmos, w=50 * UM, l=1 * UM)
    return circuit


def _starved(tech) -> Circuit:
    """A node nothing can supply: naturally exhausts the whole ladder."""
    circuit = Circuit("starved")
    circuit.add_vsource("vdd", "vdd!", "0", dc=3.3)
    circuit.add_vsource("vg", "g", "0", dc=1.0)
    circuit.add_isource("ib", "s", "0", dc=50e-6)
    circuit.add_mos("m1", d="0", g="g", s="s", b="vdd!",
                    params=tech.pmos, w=50 * UM, l=1 * UM)
    return circuit


def _type_error_measure(tb):
    """Module-level (picklable) measure that fails like a unit bug."""
    raise TypeError("measure rejects this testbench")


def _unpicklable_result_measure(tb):
    """Module-level measure whose result cannot be pickled back."""
    return {"offset_voltage": threading.Lock()}


def _slow_in_worker_measure(tb):
    """Module-level (picklable) measure that stalls only inside a pool
    worker, so shard timeouts are reachable while the in-process
    fallback stays fast."""
    if multiprocessing.parent_process() is not None:
        time.sleep(1.0)
    _dc, offset = feedback_dc_solution(tb)
    return {"offset_voltage": offset}


# ---------------------------------------------------------------------------
# Fault registry semantics
# ---------------------------------------------------------------------------


class TestFaultRegistry:
    def test_inactive_by_default(self):
        assert not faults.active()
        assert faults.fire("solve.linear") is None

    def test_at_and_times_counting(self):
        site = "synthesis.layout"
        with faults.inject(site, at=3, times=2) as fault:
            assert faults.active()
            assert faults.fire(site) is None      # hit 1
            assert faults.fire(site) is None      # hit 2
            assert faults.fire(site) is fault     # hit 3: first firing
            assert faults.fire(site) is fault     # hit 4: second firing
            assert faults.fire(site) is None      # exhausted
            assert fault.hits == 5
            assert fault.fired == 2
        assert not faults.active()

    def test_index_pinning(self):
        with faults.inject("synthesis.layout", index=1) as fault:
            assert faults.fire("synthesis.layout", index=0) is None
            assert faults.fire("synthesis.layout", index=1) is fault
            assert fault.hits == 1

    def test_maybe_raise_default_error(self):
        with faults.inject("synthesis.layout"):
            with pytest.raises(
                AnalysisError, match="injected fault at 'synthesis.layout'"
            ):
                faults.maybe_raise("synthesis.layout")

    def test_maybe_raise_custom_error(self):
        with faults.inject("synthesis.layout", error=LayoutError("boom")):
            with pytest.raises(LayoutError, match="boom"):
                faults.maybe_raise("synthesis.layout")

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            with faults.inject("solve.linaer"):
                pass  # pragma: no cover - never armed
        message = str(excinfo.value)
        assert "'solve.linaer'" in message
        assert "solve.linear" in message and "process.kill" in message
        assert not faults.active()

    @pytest.mark.parametrize("site", faults.SITES)
    def test_every_documented_site_accepted(self, site):
        assert f"``{site}``" in faults.__doc__
        with faults.inject(site) as fault:
            assert faults.active()
            assert fault.site == site
        assert not faults.active()


# ---------------------------------------------------------------------------
# Deadlines and budgets
# ---------------------------------------------------------------------------


class TestBudget:
    def test_deadline_requires_positive_seconds(self):
        with pytest.raises(ValueError):
            Deadline(0.0)

    def test_deadline_expiry_is_deterministic(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        assert not deadline.expired()
        assert deadline.remaining == 10.0
        clock.t = 4.0
        assert deadline.elapsed == 4.0
        deadline.check("site.a")  # not expired: no raise
        clock.t = 10.0
        assert deadline.expired()
        with pytest.raises(BudgetExceededError) as excinfo:
            deadline.check("site.a", round=3)
        error = excinfo.value
        assert error.site == "site.a"
        assert error.elapsed == 10.0
        assert "round=3" in str(error)

    def test_empty_budget_checks_nothing(self):
        Budget().check("anywhere")  # no deadline: never raises

    def test_sizing_iteration_cap(self):
        assert Budget().sizing_iteration_cap(15) == 15
        assert Budget(max_sizing_iterations=3).sizing_iteration_cap(15) == 3
        assert Budget(max_sizing_iterations=99).sizing_iteration_cap(15) == 15
        # A degenerate cap still allows the one mandatory iteration.
        assert Budget(max_sizing_iterations=0).sizing_iteration_cap(15) == 1

    def test_budget_caps_real_plan_iterations(self, plan, specs):
        result = plan.size(
            specs, ParasiticMode.NONE,
            budget=Budget(max_sizing_iterations=1),
        )
        assert result.iterations == 1

    def test_deadline_trips_inside_sizing_loop(self, plan, specs):
        budget = Budget(deadline=Deadline(0.5, clock=TickingClock()))
        with pytest.raises(BudgetExceededError) as excinfo:
            plan.size(specs, ParasiticMode.NONE, budget=budget)
        assert excinfo.value.site == "sizing.iteration"


# ---------------------------------------------------------------------------
# Escalation policies and convergence reports
# ---------------------------------------------------------------------------


class TestEscalationPolicy:
    def test_happy_path_attaches_report(self):
        solution = solve_dc(_divider())
        report = solution.convergence
        assert isinstance(report, ConvergenceReport)
        assert report.converged
        assert report.strategy == "direct-newton"
        assert report.achieved_gmin == solution.gmin == 0.0
        assert report.iterations == solution.iterations
        assert [r.stage for r in report.rungs] == ["gmin=1e-12", "gmin=0"]
        assert all(np.isfinite(report.residual_history()))

    def test_injected_linear_failure_escalates(self):
        with faults.inject("solve.linear") as fault:
            solution = solve_dc(_divider())
        assert fault.fired == 1
        report = solution.convergence
        assert report.converged
        # The direct fast path absorbed the singular solve and failed...
        assert report.rungs[0].strategy == "direct-newton"
        assert not report.rungs[0].converged
        # ...and the next rung finished the job.
        assert report.strategy == "gmin-ramp"
        assert solution.voltage("mid") == pytest.approx(1.0)

    def test_nan_model_eval_escalates(self, tech):
        with np.errstate(all="ignore"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with faults.inject("model.eval", action="nan") as fault:
                    solution = solve_dc(_mos_diode(tech))
        assert fault.fired == 1
        report = solution.convergence
        assert report.converged
        assert not report.rungs[0].converged
        assert solution.devices["m1"].op.id == pytest.approx(100e-6, rel=1e-6)

    def test_injected_exhaustion_produces_report(self):
        with faults.inject("solve.linear", times=10_000):
            with pytest.raises(ConvergenceError) as excinfo:
                solve_dc(_divider())
        report = excinfo.value.report
        assert isinstance(report, ConvergenceReport)
        assert not report.converged
        strategies = {r.strategy for r in report.rungs}
        assert strategies == {"direct-newton", "gmin-ramp", "source-stepping"}
        assert len(report.residual_history()) == len(report.rungs)
        assert report.worst_nodes  # failure forensics survive the raise
        assert {name for name, _ in report.worst_nodes} <= {"a", "mid"}
        assert "NOT CONVERGED" in report.summary()

    def test_natural_exhaustion_names_starved_node(self, tech):
        with pytest.raises(ConvergenceError) as excinfo:
            solve_dc(_starved(tech))
        report = excinfo.value.report
        assert report is not None and not report.converged
        assert report.worst_nodes
        # The starved net carries the worst KCL residual.
        worst_net, worst_residual = report.worst_nodes[0]
        assert worst_net == "s"
        assert worst_residual > 1e-6

    def test_structural_failure_raises_unchanged(self, tech):
        """A failure that is not non-convergence (here the model
        evaluation raising) propagates as-is: there is no second engine
        to re-solve on."""
        with faults.inject(
            "model.eval", error=AnalysisError("injected model failure")
        ) as fault:
            with pytest.raises(AnalysisError, match="injected model failure"):
                solve_dc(_mos_diode(tech))
        assert fault.fired == 1


# ---------------------------------------------------------------------------
# Monte-Carlo shard recovery
# ---------------------------------------------------------------------------


class TestMonteCarloRecovery:
    @pytest.fixture(scope="class")
    def baseline(self, hand_testbench):
        return run_monte_carlo(hand_testbench, runs=8, seed=7, workers=1)

    def test_crashed_shard_is_resubmitted_bit_identical(
        self, hand_testbench, baseline
    ):
        with faults.inject("mc.worker", index=0) as fault:
            result = run_monte_carlo(
                hand_testbench, runs=8, seed=7, workers=2
            )
        assert fault.fired == 1
        assert result.n_failed == 0
        assert result.samples == baseline.samples  # bit-identical
        assert [s.span for s in result.shards] == [(0, 4), (4, 8)]
        assert result.shards[0].status == "resubmitted"
        assert result.shards[0].attempts == 2
        assert "worker died" in result.shards[0].error
        assert result.shards[1].status in ("ok", "resubmitted")

    def test_persistent_crash_falls_back_in_process(
        self, hand_testbench, baseline
    ):
        # Crashes on submission and on the bounded resubmission too:
        # the shard comes home in-process, still bit-identical.
        with faults.inject("mc.worker", index=0, times=3) as fault:
            result = run_monte_carlo(
                hand_testbench, runs=8, seed=7, workers=2,
                max_shard_retries=1,
            )
        assert fault.fired == 2  # one per pool round; in-process skips it
        assert result.n_failed == 0
        assert result.samples == baseline.samples
        assert result.shards[0].status == "in-process"
        assert result.shards[0].attempts == 3

    def test_shard_timeout_recovers_in_process(self, hand_testbench):
        result = run_monte_carlo(
            hand_testbench, runs=2, seed=7, workers=2,
            measure=_slow_in_worker_measure,
            shard_timeout=0.25, max_shard_retries=0,
        )
        assert result.n_failed == 0
        assert len(result.samples["offset_voltage"]) == 2
        assert all(s.status == "in-process" for s in result.shards)
        assert all("timed out" in s.error for s in result.shards)

    def test_unpicklable_measure_raises_with_context(self, hand_testbench):
        with pytest.raises(AnalysisError, match=r"workers=2"):
            run_monte_carlo(
                hand_testbench, runs=4, seed=7, workers=2,
                measure=lambda tb: {"x": 0.0},
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_measure_error_propagates_for_any_worker_count(
        self, hand_testbench, workers
    ):
        """A measure's own exception is raised as is, pooled or not."""
        with pytest.raises(TypeError, match="measure rejects"):
            run_monte_carlo(
                hand_testbench, runs=4, seed=7, workers=workers,
                measure=_type_error_measure,
            )

    def test_unpicklable_result_names_the_shard(self, hand_testbench):
        with pytest.raises(AnalysisError, match=r"shard 0 of 2 \(workers=2\)"):
            run_monte_carlo(
                hand_testbench, runs=4, seed=7, workers=2,
                measure=_unpicklable_result_measure,
            )

    def test_budget_checked_before_dispatch(self, hand_testbench):
        clock = FakeClock()
        budget = Budget(deadline=Deadline(1.0, clock=clock))
        clock.t = 5.0  # already expired when the run starts
        with pytest.raises(BudgetExceededError) as excinfo:
            run_monte_carlo(hand_testbench, runs=2, budget=budget)
        assert excinfo.value.site == "montecarlo.start"


# ---------------------------------------------------------------------------
# Synthesis-loop degradation
# ---------------------------------------------------------------------------


class _StubReport:
    """Parasitic report standing: distance is plain value difference."""

    def __init__(self, value: float):
        self.value = value

    def distance(self, other: "_StubReport") -> float:
        return abs(self.value - other.value)


class _StubEstimate:
    def __init__(self, value: float):
        self.report = _StubReport(value)


class _StubPlan:
    """Counts sizing calls; each round returns a distinct token as its
    knobs and records the ``start`` it was seeded with."""

    topology = "stub"

    def __init__(self):
        self.calls = 0
        self.starts = []

    def size(self, specs, mode, feedback, budget=None, start=None):
        self.calls += 1
        self.starts.append(start)
        return SizingResult(
            sizes={}, currents={}, biases={},
            knobs=f"sizing-round-{self.calls}",
        )


def _stub_tool(values, clock=None, advance=0.0, generate_error=None):
    """A layout tool yielding reports with scripted distances; optionally
    advances a fake clock per call or fails the generation pass."""
    state = {"i": 0}

    def tool(sizing, mode):
        if mode == "generate" and generate_error is not None:
            raise generate_error
        value = values[min(state["i"], len(values) - 1)]
        state["i"] += 1
        if clock is not None:
            clock.t += advance
        return _StubEstimate(value)

    return tool


def _synthesizer(tech, values, max_layout_calls=4, **kwargs):
    return LayoutOrientedSynthesizer(
        tech,
        convergence_tolerance=1.0,
        max_layout_calls=max_layout_calls,
        plan=_StubPlan(),
        layout_tool=_stub_tool(values, **kwargs),
    )


class TestSynthesisDegradation:
    def test_constructor_rejects_zero_rounds(self, tech):
        with pytest.raises(SynthesisError, match="max_layout_calls"):
            LayoutOrientedSynthesizer(tech, max_layout_calls=0)

    def test_constructor_rejects_bad_tolerance(self, tech):
        with pytest.raises(SynthesisError, match="convergence_tolerance"):
            LayoutOrientedSynthesizer(tech, convergence_tolerance=0.0)
        with pytest.raises(SynthesisError, match="convergence_tolerance"):
            LayoutOrientedSynthesizer(
                tech, convergence_tolerance=float("nan")
            )

    def test_each_round_starts_from_the_previous_knobs(self, tech, specs):
        synthesizer = _synthesizer(tech, [0.0, 5.0, 5.5])
        outcome = synthesizer.run(specs, ParasiticMode.FULL, generate=False)
        assert outcome.layout_calls == 3
        assert synthesizer.plan.starts == [
            None, "sizing-round-1", "sizing-round-2"
        ]

    def test_clean_convergence_has_empty_diagnostics(self, tech, specs):
        outcome = _synthesizer(tech, [0.0, 0.1]).run(
            specs, ParasiticMode.FULL, generate=False
        )
        assert outcome.converged
        assert outcome.diagnostics == {}
        assert outcome.layout_calls == 2

    def test_soft_accept_is_flagged_and_warned(self, tech, specs):
        synthesizer = _synthesizer(tech, [0.0, 5.0], max_layout_calls=2)
        with pytest.warns(RuntimeWarning, match="soft-accepting"):
            outcome = synthesizer.run(specs, ParasiticMode.FULL, generate=False)
        assert outcome.converged
        assert outcome.diagnostics["soft_accept"] is True
        assert outcome.diagnostics["final_distance"] == 5.0

    def test_far_from_tolerance_is_not_soft_accepted(self, tech, specs):
        outcome = _synthesizer(tech, [0.0, 50.0], max_layout_calls=2).run(
            specs, ParasiticMode.FULL, generate=False
        )
        assert not outcome.converged
        assert "soft_accept" not in outcome.diagnostics

    def test_mid_loop_failure_degrades_to_last_good_round(self, tech, specs):
        synthesizer = _synthesizer(tech, [0.0, 0.1])
        with faults.inject(
            "synthesis.layout", index=2, error=LayoutError("injected crash")
        ):
            with pytest.warns(RuntimeWarning, match="degrading"):
                outcome = synthesizer.run(
                    specs, ParasiticMode.FULL, generate=False
                )
        assert not outcome.converged
        diagnostics = outcome.diagnostics
        assert diagnostics["degraded"] is True
        assert diagnostics["failed_round"] == 2
        assert diagnostics["failed_stage"] == "layout"
        assert "injected crash" in diagnostics["failure"]
        # The outcome is the round-1 state, not half of round 2.
        assert outcome.sizing.knobs == "sizing-round-1"
        assert outcome.feedback.value == 0.0
        assert outcome.layout_calls == 1

    def test_first_round_failure_raises_typed_error(self, tech, specs):
        synthesizer = _synthesizer(tech, [0.0, 0.1])
        with faults.inject("synthesis.sizing", index=1):
            with pytest.raises(SynthesisError, match="round 1"):
                synthesizer.run(specs, ParasiticMode.FULL, generate=False)

    def test_generation_failure_keeps_sizing(self, tech, specs):
        synthesizer = LayoutOrientedSynthesizer(
            tech,
            convergence_tolerance=1.0,
            plan=_StubPlan(),
            layout_tool=_stub_tool(
                [0.0, 0.1], generate_error=LayoutError("no geometry")
            ),
        )
        with pytest.warns(RuntimeWarning, match="generation failed"):
            outcome = synthesizer.run(specs, ParasiticMode.FULL, generate=True)
        assert outcome.converged
        assert outcome.layout is None
        assert "no geometry" in outcome.diagnostics["generate_failure"]

    def test_deadline_expiry_carries_partial_records(self, tech, specs):
        clock = FakeClock()
        budget = Budget(deadline=Deadline(5.0, clock=clock))
        synthesizer = _synthesizer(
            tech, [0.0, 0.1], clock=clock, advance=10.0
        )
        with pytest.raises(BudgetExceededError) as excinfo:
            synthesizer.run(
                specs, ParasiticMode.FULL, generate=False, budget=budget
            )
        error = excinfo.value
        assert error.site == "synthesis.round"
        assert error.partial is not None and len(error.partial) == 1
        assert error.partial[0].round_index == 1
        assert error.partial[0].sizing.knobs == "sizing-round-1"
