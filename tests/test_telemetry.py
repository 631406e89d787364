"""Telemetry subsystem: spans, counters, export, replay and overhead.

Pins the contracts the instrumented hot paths rely on: exception-safe
span nesting, thread-local activation with restore, the cross-process
payload graft the Monte-Carlo shards use (including bit-identical
numerics with tracing on and off), the JSONL round trip, and the
near-zero disabled fast path.
"""

from __future__ import annotations

import time

import pytest

from repro import telemetry
from repro.errors import (
    DegradedRunWarning,
    LayoutGenerationWarning,
    ReproWarning,
    SoftAcceptWarning,
)
from repro.telemetry import (
    SUMMARY_SCHEMA,
    TRACE_SCHEMA,
    Tracer,
    read_jsonl,
    summarize,
    trace_run,
    write_jsonl,
)
from tests.designs import hand_testbench


class FakeClock:
    """Deterministic clock for timestamp assertions."""

    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestTracerCore:
    def test_disabled_by_default(self):
        assert not telemetry.enabled()
        assert telemetry.current() is None
        # Module-level helpers are silent no-ops when no tracer is armed.
        telemetry.count("noop")
        telemetry.event("noop")
        telemetry.gauge("noop", 1.0)
        with telemetry.span("noop"):
            pass

    def test_span_nesting_records_parent_ids(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.activate():
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    pass
            with telemetry.span("sibling"):
                pass
        spans = {r["name"]: r for r in tracer.records if r["type"] == "span"}
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["parent"] is None
        assert spans["sibling"]["parent"] is None

    def test_exception_marks_span_and_unwinds_stack(self):
        tracer = Tracer()
        with tracer.activate():
            with pytest.raises(ValueError):
                with tracer.span("boom"):
                    raise ValueError("nope")
            with tracer.span("after"):
                pass
        spans = {r["name"]: r for r in tracer.records if r["type"] == "span"}
        assert spans["boom"]["status"] == "error"
        assert "nope" in spans["boom"]["error"]
        # The stack unwound: the next span is a root again, and clean.
        assert spans["after"]["parent"] is None
        assert spans["after"]["status"] == "ok"

    def test_activation_is_scoped_and_restores_previous(self):
        outer, inner = Tracer(), Tracer()
        with outer.activate():
            with inner.activate():
                telemetry.count("x")
            telemetry.count("y")
        assert inner.summary().counters == {"x": 1.0}
        assert outer.summary().counters == {"y": 1.0}
        assert not telemetry.enabled()

    def test_counters_and_gauges_aggregate(self):
        with trace_run("t") as tracer:
            for _ in range(5):
                telemetry.count("a")
            telemetry.count("b", 2.5)
            telemetry.gauge("g", 1.0)
            telemetry.gauge("g", 3.0)
        summary = tracer.summary()
        assert summary.counters["a"] == 5.0
        assert summary.counters["b"] == 2.5
        assert summary.gauges["g"] == 3.0

    def test_span_timestamps_use_injected_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.activate():
            with tracer.span("timed"):
                clock.advance(1.5)
        record = tracer.records[-1]
        assert record["t0"] == 0.0
        assert record["dur"] == 1.5


class TestAbsorb:
    def test_payload_grafts_under_current_span(self):
        worker = Tracer(clock=FakeClock())
        with worker.activate():
            with worker.span("mc.shard", index=0):
                worker.count("mc.samples_measured", 4)
        payload = worker.trace_payload()

        parent = Tracer(clock=FakeClock(10.0))
        with parent.activate():
            with parent.span("mc.run"):
                parent.absorb(payload, t_offset=2.0)
        summary = parent.summary()
        assert summary.counters["mc.samples_measured"] == 4.0
        (shard,) = summary.spans("mc.shard")
        (run,) = summary.spans("mc.run")
        assert shard in run.children
        assert shard.t0 == 2.0  # worker-relative 0.0 shifted to submit time
        assert shard.totals["mc.samples_measured"] == 4.0

    def test_absorb_keeps_ids_disjoint(self):
        worker = Tracer()
        with worker.activate():
            with worker.span("w"):
                pass
        parent = Tracer()
        with parent.activate():
            with parent.span("p"):
                parent.absorb(worker.trace_payload())
            with parent.span("later"):
                pass
        ids = [r["id"] for r in parent.records if r["type"] == "span"]
        assert len(ids) == len(set(ids))


class TestJsonlRoundTrip:
    def test_write_read_summarize(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with trace_run("root") as tracer:
            with telemetry.span("child", k="v"):
                telemetry.count("hits", 3)
                telemetry.event("note", detail=1)
            telemetry.gauge("level", 0.5)
        tracer.write_jsonl(path, name="root")

        records = read_jsonl(path)
        summary = summarize(records)
        live = tracer.summary()
        assert summary.counters == live.counters
        assert summary.gauges == live.gauges
        (root,) = summary.spans("root")
        (child,) = summary.spans("child")
        assert child in root.children
        assert child.attrs == {"k": "v"}
        assert child.counts == {"hits": 3.0}
        assert [e["name"] for e in child.events] == ["note"]
        payload = summary.to_json()
        assert payload["schema"] == SUMMARY_SCHEMA
        assert summary.format_tree()  # renders without error

    def test_header_carries_schema(self, tmp_path):
        import json

        path = str(tmp_path / "t.jsonl")
        write_jsonl([], path)
        with open(path) as handle:
            header = json.loads(handle.readline())
        assert header["schema"] == TRACE_SCHEMA

    def test_reader_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span", "id": 0}\n')
        with pytest.raises(ValueError, match="not a repro-trace"):
            read_jsonl(str(path))

    def test_reader_reports_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"type": "header", "schema": "%s", "name": "t"}\n'
            "not json\n" % TRACE_SCHEMA
        )
        with pytest.raises(ValueError, match=r"\.jsonl:2: malformed"):
            read_jsonl(str(path))

    def test_appended_segments_replay_as_one_trace(self, tmp_path):
        """A resumed run appends its own header+records segment; the
        reader re-bases span ids per segment so both runs replay into
        one summary with no id collisions."""
        path = str(tmp_path / "trace.jsonl")
        with trace_run("root") as first:
            with telemetry.span("original"):
                telemetry.count("hits", 1)
        first.write_jsonl(path, name="root")
        with trace_run("root") as second:
            with telemetry.span("resumed"):
                telemetry.count("hits", 2)
        second.write_jsonl(path, name="root", append=True)

        records = read_jsonl(path)
        ids = [r["id"] for r in records if r.get("type") == "span"]
        assert len(ids) == len(set(ids)), "span ids collide across segments"
        summary = summarize(records)
        assert summary.counters["hits"] == 3.0
        assert summary.span_count("original") == 1
        assert summary.span_count("resumed") == 1
        assert summary.span_count("root") == 2

    def test_partial_trace_is_replayable(self):
        # A crash mid-run leaves counts whose parent span never closed;
        # replay keeps them as orphans instead of dropping the data.
        tracer = Tracer()
        with tracer.activate():
            with tracer.span("closed"):
                pass
            tracer._stack.append(tracer._allocate_id())  # simulated crash
            tracer.count("orphaned", 2)
        summary = summarize(tracer.records)
        assert summary.counters["orphaned"] == 2.0
        assert summary.span_count("closed") == 1


class TestMonteCarloTracing:
    @pytest.fixture(scope="class")
    def bench_tb(self):
        return hand_testbench()

    def test_worker_spans_and_counters_cross_process(self, bench_tb):
        from repro.analysis.montecarlo import run_monte_carlo

        with trace_run("mc") as tracer:
            result = run_monte_carlo(bench_tb, runs=8, workers=2, seed=7)
        assert len(result.samples["offset_voltage"]) == 8
        summary = tracer.summary()
        # Worker-side counts crossed the process boundary and aggregated.
        assert summary.counter("mc.samples") == 8.0
        assert summary.counter("mc.samples_measured") == 8.0
        assert summary.span_count("mc.shard") == 2
        (run_span,) = summary.spans("mc.run")
        shard_parents = {s.name for s in run_span.children}
        assert "mc.shard" in shard_parents

    def test_results_bit_identical_with_tracing(self, bench_tb):
        from repro.analysis.montecarlo import run_monte_carlo

        baseline = run_monte_carlo(bench_tb, runs=6, seed=99)
        with trace_run("mc"):
            traced = run_monte_carlo(bench_tb, runs=6, seed=99)
        assert traced.samples == baseline.samples

    def test_single_worker_records_one_shard(self, bench_tb):
        from repro.analysis.montecarlo import run_monte_carlo

        with trace_run("mc") as tracer:
            run_monte_carlo(bench_tb, runs=4, workers=1, seed=5)
        summary = tracer.summary()
        assert summary.span_count("mc.shard") == 1
        assert summary.counter("mc.samples") == 4.0


class _StubReport:
    def __init__(self, value: float):
        self.value = value

    def distance(self, other: "_StubReport") -> float:
        return abs(self.value - other.value)


class _StubPlan:
    topology = "stub"

    def size(self, specs, mode, feedback, budget=None, start=None):
        from repro.sizing.specs import SizingResult

        return SizingResult(sizes={}, currents={}, biases={})


def _stub_synthesizer(tech, values):
    """A synthesizer over scripted parasitic distances (no real layout)."""
    from repro.core.synthesis import LayoutOrientedSynthesizer

    state = {"i": 0}

    class _Estimate:
        def __init__(self, value):
            self.report = _StubReport(value)

    def tool(sizing, mode):
        value = values[min(state["i"], len(values) - 1)]
        state["i"] += 1
        return _Estimate(value)

    return LayoutOrientedSynthesizer(
        tech, convergence_tolerance=1.0, plan=_StubPlan(), layout_tool=tool
    )


class TestSynthesisTrace:
    def test_outcome_carries_trace_summary(self, tech, specs):
        from repro.sizing.specs import ParasiticMode

        synthesizer = _stub_synthesizer(tech, [0.0, 0.1])
        with trace_run("run"):
            outcome = synthesizer.run(
                specs, mode=ParasiticMode.FULL, generate=False
            )
        assert outcome.trace is not None
        assert outcome.trace.counter("synthesis.rounds") == 2.0
        assert outcome.trace.span_count("synthesis.round") == 2
        rounds = outcome.trace.spans("synthesis.round")
        assert [s.attrs["round"] for s in rounds] == [1, 2]
        completes = [
            e for s in rounds for e in s.events
            if e["name"] == "synthesis.round.complete"
        ]
        assert completes[-1]["attrs"]["distance"] == 0.1

    def test_outcome_trace_covers_only_its_run(self, tech, specs):
        """Several runs under one tracer (table1, a batch): each outcome
        summarizes its own run, not every record the tracer holds."""
        from repro.sizing.specs import ParasiticMode

        with trace_run("run"):
            outcomes = [
                _stub_synthesizer(tech, [0.0, 0.1]).run(
                    specs, mode=ParasiticMode.FULL, generate=False
                )
                for _ in range(3)
            ]
        for outcome in outcomes:
            assert outcome.trace.span_count("synthesis.run") == 1
            assert outcome.trace.span_count("synthesis.round") == 2
            assert outcome.trace.counter("synthesis.rounds") == 2.0

    def test_outcome_trace_is_none_untraced(self, tech, specs):
        from repro.sizing.specs import ParasiticMode

        outcome = _stub_synthesizer(tech, [0.0, 0.1]).run(
            specs, mode=ParasiticMode.FULL, generate=False
        )
        assert outcome.trace is None


class TestWarningHierarchy:
    def test_repro_warnings_stay_runtime_warnings(self):
        # Existing pytest.warns(RuntimeWarning) assertions must keep
        # catching the typed subclasses.
        for cls in (DegradedRunWarning, SoftAcceptWarning,
                    LayoutGenerationWarning):
            assert issubclass(cls, ReproWarning)
            assert issubclass(cls, RuntimeWarning)


class TestDisabledOverhead:
    def test_disabled_guard_is_cheap(self):
        """The hot-site gate must stay a near-free global-int test."""
        assert not telemetry.enabled()
        n = 200_000
        start = time.perf_counter()
        for _ in range(n):
            telemetry.enabled()
        elapsed = time.perf_counter() - start
        # ~30 ns/call in practice; the bound is 25x that to stay
        # unflaky on loaded CI machines while still catching a switch
        # to an expensive lookup.
        assert elapsed / n < 750e-9

    def test_disabled_helpers_do_not_allocate_spans(self):
        first = telemetry.span("a")
        second = telemetry.span("b")
        assert first is second  # the shared no-op singleton
