"""Observability layer: trace profiler, ``--metrics`` exposition,
cross-process trace payloads.

Pins the Prometheus-text rendering of a trace summary (``--metrics
FILE``), the worker trace payload grafted under the parent's span, exact
self-time partition on serial traces, flamegraph-collapsed output, the
telemetry-preserving shard/task recovery fallback, and bit-identical
batch fingerprints for traced pooled and serial runs.
"""

from __future__ import annotations

import pickle

import pytest

from repro import telemetry
from repro.runtime import pool as runtime_pool
from repro.telemetry import Tracer, trace_run
from repro.telemetry.profile import (
    collapsed_stacks,
    format_collapsed,
    format_profile_table,
)


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# -- Prometheus exposition --------------------------------------------------


class TestPrometheusExposition:
    def test_golden_exposition(self):
        with trace_run("t") as tracer:
            telemetry.count("solver.solves", 2)
            telemetry.count("solver.solves")
            telemetry.gauge("solver.last_residual", 0.5)
        assert tracer.summary().to_prometheus() == "\n".join([
            "# TYPE repro_solver_solves_total counter",
            "repro_solver_solves_total 3",
            "# TYPE repro_solver_last_residual gauge",
            "repro_solver_last_residual 0.5",
        ]) + "\n"

    def test_names_are_sanitized(self):
        with trace_run("t") as tracer:
            telemetry.count("layout.calls.estimate-fast", 1)
            telemetry.gauge("3d.depth", 2)
        text = tracer.summary().to_prometheus()
        assert "repro_layout_calls_estimate_fast_total 1" in text
        assert "estimate-fast" not in text
        assert "repro__3d_depth 2" in text

    def test_sorted_with_integral_numbers(self):
        with trace_run("t") as tracer:
            for name in ("b.second", "a.first", "c.third"):
                telemetry.count(name, 2)
            telemetry.count("a.first", 0.5)
            telemetry.gauge("z.gauge", 4.0)
            telemetry.gauge("y.gauge", float("inf"))
        lines = tracer.summary().to_prometheus().splitlines()
        samples = [line for line in lines if not line.startswith("#")]
        assert samples == [
            "repro_a_first_total 2.5",
            "repro_b_second_total 2",
            "repro_c_third_total 2",
            "repro_y_gauge +Inf",
            "repro_z_gauge 4",
        ]
        assert not any("histogram" in line for line in lines)


# -- Cross-process trace payloads ------------------------------------------


def _count_unit(name: str, n: int) -> str:
    with telemetry.span("unit", label=name):
        telemetry.count(name, n)
    return name


class TestTracedWorker:
    def test_payload_is_scoped_to_the_unit(self):
        """A traced pool unit ships its own records and nothing else: a
        worker reused across units never re-ships earlier work."""
        for name, n in (("first", 4), ("second", 2)):
            outcome, payload = pickle.loads(runtime_pool._run_in_worker(
                _count_unit, (name, n), True, False
            ))
            assert outcome == name
            assert set(payload) == {"records"}
            summary = telemetry.summarize(payload["records"])
            assert summary.counters == {name: n}
        assert pickle.loads(runtime_pool._run_in_worker(
            _count_unit, ("plain", 1), False, False
        )) == ("plain", None)

    def test_absorb_merges_worker_metrics(self):
        worker = Tracer()
        with worker.activate(), telemetry.span("w"):
            worker.count("solver.solves", 2)
            worker.gauge("solver.last_residual", 0.25)
        parent = Tracer()
        with parent.activate(), parent.span("run"):
            parent.absorb(worker.trace_payload(), t_offset=0.1)
        summary = parent.summary()
        assert summary.counter("solver.solves") == 2.0
        assert summary.gauges == {"solver.last_residual": 0.25}
        assert "repro_solver_solves_total 2" in summary.to_prometheus()


# -- Profiler ---------------------------------------------------------------


def _synthetic_trace():
    """root(10 s) -> a(4 s) -> c(1 s); root -> b(2 s); a twice elsewhere."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.activate():
        with tracer.span("root"):
            with tracer.span("a"):
                with tracer.span("c"):
                    clock.advance(1.0)
                clock.advance(3.0)
            with tracer.span("b"):
                clock.advance(2.0)
            clock.advance(4.0)
    return tracer


class TestProfiler:
    def test_self_times_partition_root_wall_time(self):
        tracer = _synthetic_trace()
        rows = tracer.summary().profile
        by_name = {row.name: row for row in rows}
        assert by_name["root"].total_s == pytest.approx(10.0)
        assert by_name["root"].self_s == pytest.approx(4.0)
        assert by_name["a"].self_s == pytest.approx(3.0)
        assert by_name["b"].self_s == pytest.approx(2.0)
        assert by_name["c"].self_s == pytest.approx(1.0)
        # The acceptance identity: self-times partition the wall clock.
        assert sum(row.self_s for row in rows) == pytest.approx(10.0)

    def test_rows_ranked_by_self_time(self):
        rows = _synthetic_trace().summary().profile
        self_times = [row.self_s for row in rows]
        assert self_times == sorted(self_times, reverse=True)

    def test_percentiles_over_repeated_spans(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.activate(), tracer.span("root"):
            for dur in (1.0, 2.0, 3.0, 4.0):
                with tracer.span("unit"):
                    clock.advance(dur)
        (unit,) = [
            r for r in tracer.summary().profile if r.name == "unit"
        ]
        assert unit.count == 4
        assert unit.p50_s == pytest.approx(2.5)
        assert unit.p95_s == pytest.approx(3.85)

    def test_collapsed_output_is_line_parseable(self):
        tracer = _synthetic_trace()
        roots = tracer.summary().roots
        stacks = collapsed_stacks(roots)
        text = format_collapsed(stacks)
        for line in text.splitlines():
            path, count = line.rsplit(" ", 1)
            assert path and ";".join(path.split(";")) == path
            assert int(count) > 0
        assert stacks["root"] == 4_000_000  # integer microseconds
        assert stacks["root;a;c"] == 1_000_000

    def test_collapsed_drops_non_positive_self(self):
        # Absorbed parallel subtrees overlap: parent self-time goes
        # negative; the profile row keeps it, the flamegraph drops it.
        clock = FakeClock()
        parent = Tracer(clock=clock)
        with parent.activate(), parent.span("pool"):
            for _ in range(2):
                worker = Tracer(clock=FakeClock())
                with worker.activate(), worker.span("work"):
                    worker._clock.advance(0.8)  # type: ignore[attr-defined]
                parent.absorb(worker.trace_payload())
            clock.advance(1.0)
        rows = parent.summary().profile
        pool = next(r for r in rows if r.name == "pool")
        assert pool.self_s == pytest.approx(-0.6)
        stacks = collapsed_stacks(parent.summary().roots)
        assert "pool" not in stacks
        assert stacks["pool;work"] == 1_600_000

    def test_table_formatting(self):
        rows = _synthetic_trace().summary().profile
        table = format_profile_table(rows, top=2, wall_s=10.0)
        lines = table.splitlines()
        assert lines[0].split() == [
            "span", "calls", "total", "(s)", "self", "(s)",
            "self%", "p50", "(ms)", "p95", "(ms)",
        ]
        assert len(lines) == 4  # header + rule + top 2 rows
        assert "40.0%" in table  # root self share

    def test_node_self_seconds(self):
        summary = _synthetic_trace().summary()
        (root,) = summary.roots
        assert root.self_s == pytest.approx(4.0)
        assert summary.profile[0].name == "root"


# -- Telemetry-preserving recovery fallback (the satellite fix) -------------


@pytest.mark.faults
class TestRecoveryTelemetry:
    def test_mc_in_process_fallback_keeps_shard_telemetry(
        self, hand_testbench
    ):
        from repro.analysis.montecarlo import run_monte_carlo
        from repro.resilience import faults

        with faults.inject("mc.worker", index=0, times=3):
            with trace_run("mc") as tracer:
                result = run_monte_carlo(
                    hand_testbench, runs=8, seed=7, workers=2,
                    max_shard_retries=1,
                )
        # The injected crash kills the whole pool, so the innocent shard
        # fails collaterally and both recover in-process.
        assert result.shards[0].status == "in-process"
        summary = tracer.summary()
        # Before the fix the recovered shards' telemetry was dropped:
        # totals now match a clean parallel (and serial) run.
        assert summary.counter("mc.samples_measured") == 8.0
        assert summary.span_count("mc.shard") == 2
        assert summary.span_count("mc.shard_fallback") == 2
        # Each recovered shard's spans nest under its fallback marker.
        for fallback in summary.spans("mc.shard_fallback"):
            assert [c.name for c in fallback.children] == ["mc.shard"]

    def test_batch_in_process_fallback_keeps_task_telemetry(self, specs):
        from repro.core.batch import BatchTask, run_batch
        from repro.resilience import faults
        from repro.sizing.specs import ParasiticMode

        tasks = [
            BatchTask(kind="case", technology="0.6um", specs=specs,
                      mode=mode.name)
            for mode in (ParasiticMode.NONE, ParasiticMode.SINGLE_FOLD)
        ]
        with faults.inject("batch.worker", index=0, times=3):
            with trace_run("batch") as tracer:
                result = run_batch(tasks, jobs=2, max_retries=1)
        # Pool death is collateral: both tasks come home in-process.
        assert result.statuses[0].status == "in-process"
        summary = tracer.summary()
        assert summary.span_count("batch.task") == 2
        assert summary.span_count("batch.task_fallback") == 2
        assert summary.counter("solver.solves") > 0


# -- Pooled determinism under tracing --------------------------------------


class TestPooledDeterminism:
    def test_traced_pooled_batch_matches_serial(self, specs):
        from repro.core.batch import BatchTask, run_batch
        from repro.sizing.specs import ParasiticMode

        tasks = [
            BatchTask(kind="case", technology="0.6um", specs=specs,
                      mode=mode.name)
            for mode in (ParasiticMode.NONE, ParasiticMode.SINGLE_FOLD)
        ]
        plain = run_batch(tasks, jobs=1)
        with trace_run("batch") as tracer:
            pooled = run_batch(tasks, jobs=2)
        assert [r.fingerprint() for r in pooled.results] == [
            r.fingerprint() for r in plain.results
        ]
        summary = tracer.summary()
        assert summary.counter("batch.tasks") == 2
        assert summary.span_count("batch.task") == 2
