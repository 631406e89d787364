"""Observability layer: metrics registry, trace profiler, run monitor.

Pins the PR-8 contracts: Prometheus-text exposition shape, histogram
bucket-boundary semantics (``v <= le``), snapshot/delta/merge algebra,
the cross-process metrics graft riding the trace payload, exact
self-time partition on serial traces, flamegraph-collapsed output,
monitor progress/ETA arithmetic plus its localhost HTTP endpoints, the
telemetry-preserving shard/task recovery fallback, bit-identical batch
fingerprints with the monitor on and off, and the near-zero disabled
fast path of every new hook.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro import telemetry
from repro.telemetry import Tracer, metrics, monitor, trace_run
from repro.telemetry.metrics import (
    COUNT_BUCKETS,
    SECONDS_BUCKETS,
    Histogram,
    MetricsRegistry,
)
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


@pytest.fixture(autouse=True)
def _clean_registry():
    """Each test sees a disarmed, empty process registry."""
    metrics.registry().reset()
    yield
    metrics.registry().reset()


# -- Histogram --------------------------------------------------------------


class TestHistogram:
    def test_value_on_boundary_lands_in_that_bucket(self):
        h = Histogram((1.0, 2.0, 5.0))
        h.observe(1.0)
        assert h.counts[0] == 1  # v <= le: Prometheus bucket semantics
        h.observe(1.0000001)
        assert h.counts[1] == 1
        h.observe(5.0)
        assert h.counts[2] == 1

    def test_overflow_goes_to_inf_bucket(self):
        h = Histogram((1.0, 2.0))
        h.observe(99.0)
        assert h.counts[2] == 1
        assert h.count == 1
        assert h.cumulative() == [0, 0]  # +Inf rides on count, not here

    def test_cumulative_is_monotone_and_ends_at_count(self):
        h = Histogram((0.5, 1.0, 2.0))
        for v in (0.1, 0.6, 0.7, 1.5, 3.0):
            h.observe(v)
        cum = h.cumulative()
        assert cum == sorted(cum) == [1, 3, 4]
        assert cum[-1] + h.counts[-1] == h.count == 5

    def test_sum_tracks_observations(self):
        h = Histogram((1.0,))
        h.observe(0.25)
        h.observe(0.75)
        assert h.sum == pytest.approx(1.0)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))

    def test_merge_payload_roundtrip(self):
        a = Histogram((1.0, 2.0))
        b = Histogram((1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge_payload(b.to_payload())
        assert a.count == 3
        assert a.sum == pytest.approx(11.0)

    def test_merge_rejects_mismatched_bounds(self):
        a = Histogram((1.0, 2.0))
        b = Histogram((1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge_payload(b.to_payload())


# -- Registry ---------------------------------------------------------------


class TestRegistry:
    def test_counters_gauges_histograms(self):
        r = MetricsRegistry()
        r.inc("solver.solves", 2)
        r.inc("solver.solves")
        r.set_gauge("solver.last_residual", 0.5)
        r.observe("layout.call.seconds", 0.02)
        assert r.counter("solver.solves") == 3
        assert r.gauge("solver.last_residual") == 0.5
        assert r.histogram("layout.call.seconds").count == 1

    def test_default_buckets_by_name(self):
        r = MetricsRegistry()
        r.observe("newton.iterations", 4)
        r.observe("mc.shard.seconds", 0.1)
        assert r.histogram("newton.iterations").bounds == COUNT_BUCKETS
        assert r.histogram("mc.shard.seconds").bounds == SECONDS_BUCKETS

    def test_snapshot_delta_subtracts(self):
        r = MetricsRegistry()
        r.inc("a", 5)
        r.observe("h", 1.0, buckets=(2.0,))
        base = r.snapshot()
        r.inc("a", 2)
        r.observe("h", 3.0, buckets=(2.0,))
        r.set_gauge("g", 7.0)
        delta = r.delta_since(base)
        assert delta["counters"] == {"a": 2}
        assert delta["gauges"] == {"g": 7.0}
        (h,) = [h for name, h in delta["histograms"].items() if name == "h"]
        assert h["count"] == 1  # only the post-snapshot observation
        assert h["sum"] == pytest.approx(3.0)

    def test_merge_adds_a_delta(self):
        r = MetricsRegistry()
        r.inc("a", 1)
        other = MetricsRegistry()
        other.inc("a", 3)
        other.observe("h", 0.5, buckets=(1.0,))
        r.merge(other.snapshot())
        assert r.counter("a") == 4
        assert r.histogram("h").count == 1

    def test_hooks_no_op_when_disabled(self):
        assert not metrics.enabled()
        with trace_run("t"):
            telemetry.count("x")
            telemetry.gauge("g", 1.0)
        metrics.observe("h", 1.0)
        snap = metrics.registry().snapshot()
        assert not snap["counters"] and not snap["gauges"]
        assert not snap["histograms"]

    def test_collecting_arms_and_disarms(self):
        with metrics.collecting(fresh=True) as r:
            assert metrics.enabled()
            with trace_run("t"):
                telemetry.count("x", 2)
            assert r.counter("x") == 2
        assert not metrics.enabled()


# -- Prometheus exposition --------------------------------------------------


class TestPrometheusExposition:
    def test_golden_exposition(self):
        r = MetricsRegistry()
        r.inc("solver.solves", 3)
        r.set_gauge("solver.last_residual", 0.5)
        r.observe("newton.iterations", 2, buckets=(1.0, 2.0, 5.0))
        r.observe("newton.iterations", 9, buckets=(1.0, 2.0, 5.0))
        assert r.to_prometheus() == "\n".join([
            "# TYPE repro_solver_solves_total counter",
            "repro_solver_solves_total 3",
            "# TYPE repro_solver_last_residual gauge",
            "repro_solver_last_residual 0.5",
            "# TYPE repro_newton_iterations histogram",
            'repro_newton_iterations_bucket{le="1"} 0',
            'repro_newton_iterations_bucket{le="2"} 1',
            'repro_newton_iterations_bucket{le="5"} 1',
            'repro_newton_iterations_bucket{le="+Inf"} 2',
            "repro_newton_iterations_sum 11",
            "repro_newton_iterations_count 2",
        ]) + "\n"

    def test_names_are_sanitized(self):
        r = MetricsRegistry()
        r.inc("layout.calls.estimate-fast", 1)
        text = r.to_prometheus()
        assert "repro_layout_calls_estimate_fast_total 1" in text
        assert "estimate-fast" not in text

    def test_histogram_buckets_are_cumulative(self):
        r = MetricsRegistry()
        for v in (0.5, 1.5, 1.5, 10.0):
            r.observe("h", v, buckets=(1.0, 2.0))
        lines = [
            line for line in r.to_prometheus().splitlines()
            if "_bucket" in line
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)
        assert counts[-1] == 4  # +Inf equals the total count


# -- Cross-process metrics (traced_worker + absorb) -------------------------


class TestTracedWorker:
    def test_payload_carries_scoped_delta(self):
        metrics.registry().inc("pre.existing", 9)
        with telemetry.traced_worker() as tracer:
            with telemetry.span("mc.shard", index=0):
                tracer.count("mc.samples_measured", 4)
                metrics.observe("mc.shard.seconds", 0.5)
        payload = tracer.trace_payload()
        # One store per scope: the records, plus the registry delta.
        assert set(payload) == {"records", "metrics"}
        delta = payload["metrics"]
        # The delta is scoped to the block: nothing pre-existing leaks in.
        assert delta["counters"] == {"mc.samples_measured": 4}
        assert "mc.shard.seconds" in delta["histograms"]
        assert not metrics.enabled()  # disarmed on exit

    def test_absorb_merges_worker_metrics(self):
        with telemetry.traced_worker() as worker:
            with telemetry.span("w"):
                worker.count("solver.solves", 2)
                metrics.observe("h", 1.0, buckets=(2.0,))
        payload = worker.trace_payload()
        metrics.registry().reset()
        parent = Tracer()
        with metrics.collecting(fresh=True) as r, parent.activate():
            with parent.span("run"):
                parent.absorb(payload, t_offset=0.1)
            assert r.counter("solver.solves") == 2
            assert r.histogram("h").count == 1
        assert parent.summary().counter("solver.solves") == 2.0

    def test_absorb_without_registry_keeps_records_only(self):
        with telemetry.traced_worker() as worker:
            with telemetry.span("w"):
                worker.count("solver.solves", 2)
        payload = worker.trace_payload()
        metrics.registry().reset()
        parent = Tracer()
        with parent.activate(), parent.span("run"):
            parent.absorb(payload)
        assert metrics.registry().counter("solver.solves") == 0
        assert parent.summary().counter("solver.solves") == 2.0


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


# -- Monitor ----------------------------------------------------------------


class TestMonitor:
    def test_inactive_hooks_are_no_ops(self):
        assert not monitor.active()
        assert monitor.current() is None
        monitor.declare("task", 4)
        monitor.unit_complete("task")

    def test_progress_and_eta(self):
        clock = FakeClock()
        m = monitor.RunMonitor(label="t", interval=0, clock=clock)
        m.start()
        try:
            assert monitor.active() and monitor.current() is m
            monitor.declare("task", 4)
            clock.advance(2.0)
            monitor.unit_complete("task", label="case.none", seconds=2.0)
            status = m.status()
            assert status["done"] == 1 and status["total"] == 4
            assert status["last_unit"] == "case.none"
            assert status["last_unit_s"] == 2.0
            # 1 live unit in 2 s -> 0.5 units/s -> 3 remaining = 6 s.
            assert status["eta_s"] == pytest.approx(6.0)
        finally:
            m.stop(final_line=False)
        assert not monitor.active()

    def test_restored_units_do_not_skew_eta(self):
        clock = FakeClock()
        m = monitor.RunMonitor(label="t", interval=0, clock=clock)
        with m:
            monitor.declare("task", 4)
            monitor.unit_complete("task", restored=True)
            monitor.unit_complete("task", restored=True)
            clock.advance(3.0)
            monitor.unit_complete("task", seconds=3.0)
            status = m.status()
            assert status["done"] == 3
            assert status["restored"] == 2
            # Rate counts only the 1 live unit: 1 left at 3 s/unit.
            assert status["eta_s"] == pytest.approx(3.0)

    def test_first_declared_kind_is_the_headline(self):
        m = monitor.RunMonitor(label="t", interval=0, clock=FakeClock())
        with m:
            monitor.declare("task", 2)
            monitor.declare("round", 6)  # nested units: tracked, not headline
            monitor.unit_complete("round")
            status = m.status()
            assert status["kind"] == "task"
            assert status["done"] == 0
            assert status["units"]["round"]["done"] == 1

    def test_format_line_mentions_progress(self):
        clock = FakeClock()
        m = monitor.RunMonitor(label="table1", interval=0, clock=clock)
        with m:
            monitor.declare("task", 8)
            monitor.unit_complete("task", restored=True)
            clock.advance(1.0)
            monitor.unit_complete("task", label="case.full", seconds=1.0)
            line = m.format_line()
        assert line.startswith("monitor[table1]:")
        assert "2/8 task" in line
        assert "1 restored" in line
        assert "last case.full" in line

    def test_http_status_and_metrics_endpoints(self):
        with metrics.collecting(fresh=True) as r:
            r.inc("solver.solves", 5)
            m = monitor.RunMonitor(label="t", interval=0, port=0)
            with m:
                monitor.declare("task", 2)
                monitor.unit_complete("task", label="a", seconds=0.5)
                base = f"http://127.0.0.1:{m.port}"
                status = json.loads(
                    urllib.request.urlopen(f"{base}/status").read()
                )
                assert status["done"] == 1 and status["total"] == 2
                response = urllib.request.urlopen(f"{base}/metrics")
                assert response.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4"
                )
                text = response.read().decode()
                assert "repro_solver_solves_total 5" in text
                with pytest.raises(urllib.error.HTTPError):
                    urllib.request.urlopen(f"{base}/nope")

    def test_heartbeat_thread_emits_lines(self):
        import io

        stream = io.StringIO()
        m = monitor.RunMonitor(label="hb", interval=0.01, stream=stream)
        with m:
            monitor.declare("task", 1)
            time.sleep(0.08)
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert lines
        assert all(line.startswith("monitor[hb]:") for line in lines)


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

    def test_recovered_shards_feed_registry_once(self, hand_testbench):
        """In-process recovery runs under the parent's own tracer: the
        registry sees each recovered shard exactly once."""
        from repro.analysis.montecarlo import run_monte_carlo
        from repro.resilience import faults

        with faults.inject("mc.worker", index=0, times=3):
            with metrics.collecting(fresh=True) as r:
                with trace_run("mc") as tracer:
                    run_monte_carlo(
                        hand_testbench, runs=8, seed=7, workers=2,
                        max_shard_retries=1,
                    )
                assert r.counter("mc.samples_measured") == 8
                assert r.histogram("mc.shard.seconds").count == 2
        assert tracer.summary().counter("mc.samples_measured") == 8.0

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


# -- Monitor determinism (fingerprints on vs off) ---------------------------


class TestMonitorDeterminism:
    def test_batch_fingerprints_identical_with_monitor_on(self, specs):
        from repro.core.batch import BatchTask, run_batch
        from repro.sizing.specs import ParasiticMode

        tasks = [
            BatchTask(kind="case", technology="0.6um", specs=specs,
                      mode=mode.name)
            for mode in (ParasiticMode.NONE, ParasiticMode.SINGLE_FOLD)
        ]
        plain = run_batch(tasks, jobs=1)
        with metrics.collecting(fresh=True):
            m = monitor.RunMonitor(label="t", interval=0, port=0)
            with m, trace_run("batch"):
                monitored = run_batch(tasks, jobs=2)
            status = m.status()
        assert status["done"] == 2 and status["total"] == 2
        assert [r.fingerprint() for r in monitored.results] == [
            r.fingerprint() for r in plain.results
        ]
        # The run populated the registry through the tracer mirror.
        assert metrics.registry().counter("batch.tasks") == 2


# -- Disabled-path overhead -------------------------------------------------


class TestDisabledOverhead:
    def test_metrics_gate_is_cheap(self):
        """The hot-site metrics gate must stay a near-free int test."""
        assert not metrics.enabled()
        n = 200_000
        start = time.perf_counter()
        for _ in range(n):
            metrics.enabled()
        elapsed = time.perf_counter() - start
        # Same budget as the tracer gate in test_telemetry.py: ~30 ns
        # per call in practice, bounded 25x up for loaded CI machines.
        assert elapsed / n < 750e-9

    def test_disabled_observe_hook_is_cheap(self):
        assert not metrics.enabled()
        n = 200_000
        start = time.perf_counter()
        for _ in range(n):
            metrics.observe("layout.call.seconds", 0.01)
        elapsed = time.perf_counter() - start
        assert elapsed / n < 750e-9
        assert not metrics.registry().snapshot()["histograms"]

    def test_disabled_monitor_hook_is_cheap(self):
        assert not monitor.active()
        n = 200_000
        start = time.perf_counter()
        for _ in range(n):
            monitor.unit_complete("task")
        elapsed = time.perf_counter() - start
        assert elapsed / n < 750e-9
