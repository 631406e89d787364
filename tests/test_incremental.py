"""Incremental synthesis hot path.

Pins the contract: the differential/incremental caches change
wall-clock, never output bits — synthesis fingerprints are identical
across incremental on/off and any cache temperature.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import warmstart
from repro.core.cases import extract_and_measure
from repro.core.synthesis import LayoutOrientedSynthesizer
from repro.layout import incremental
from repro.layout.extraction import extract_cell
from repro.layout.incremental import LruStore
from repro.layout.ota import OtaLayoutRequest, generate_ota_layout
from repro.layout.two_stage_ota import (
    TwoStageLayoutRequest,
    generate_two_stage_layout,
)
from repro.resilience import faults
from repro.runtime import artifacts
from repro.sizing.plans.folded_cascode import FoldedCascodePlan
from repro.sizing.plans.two_stage import TwoStagePlan
from repro.sizing.specs import OtaSpecs, ParasiticMode
from repro.telemetry import trace_run
from repro.units import PF


@pytest.fixture(autouse=True)
def _fresh_stores():
    """Each test starts (and leaves) the process-wide stores empty."""
    incremental.clear()
    yield
    incremental.clear()


def _reports_equal(a, b, rel=1e-12):
    """Two parasitic reports agree to ``rel`` on every entry."""
    assert set(a.devices) == set(b.devices)
    for name, info in a.devices.items():
        other = b.devices[name]
        assert info.nf == other.nf
        assert info.actual_width == pytest.approx(
            other.actual_width, rel=rel
        )
        assert info.geometry.ad == pytest.approx(other.geometry.ad, rel=rel)
    for field in ("net_capacitance", "coupling", "well_capacitance"):
        left, right = getattr(a, field), getattr(b, field)
        assert set(left) == set(right)
        for key, value in left.items():
            assert value == pytest.approx(right[key], rel=rel)
    assert a.width == pytest.approx(b.width, rel=rel)
    assert a.height == pytest.approx(b.height, rel=rel)


class TestLruStore:
    def test_hit_miss_and_eviction(self):
        store = LruStore(capacity=2)
        assert store.get("a") is None
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") == 1  # refreshes "a"
        store.put("c", 3)  # evicts "b", the least recently used
        assert store.get("b") is None
        assert store.get("a") == 1
        assert store.get("c") == 3
        assert store.evictions == 1
        assert store.hits == 3
        assert store.misses == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LruStore(capacity=0)


def _bypassed(how: str):
    """A context in which :func:`incremental.enabled` is False."""
    if how == "off":
        return incremental.using(False)
    # Armed but never reached: nothing in these flows runs a batch pool.
    return faults.inject("batch.worker")


def _sources(tracer, span_name: str):
    """The ``source`` attribute of every ``span_name`` span, in order."""
    return [
        record["attrs"]["source"]
        for record in tracer.records
        if record.get("type") == "span" and record["name"] == span_name
    ]


class TestMemo:
    """The one memo entry point: provenance, counters, bypass."""

    def test_provenance_and_counters(self):
        calls = []

        def compute():
            calls.append(None)
            return "value"

        with trace_run("memo") as tracer:
            first = incremental.memo("sizing", lambda: "k", compute)
            second = incremental.memo("sizing", lambda: "k", compute)
        assert first == ("value", "computed")
        assert second == ("value", "memo")
        assert len(calls) == 1
        assert tracer.counters["memo.sizing.miss"] == 1
        assert tracer.counters["memo.sizing.hit"] == 1
        assert incremental.stats()["sizing"] == {
            "entries": 1, "hits": 1, "misses": 1, "evictions": 0,
        }

    def test_eviction_counter(self):
        capacity = incremental.CAPACITY["layout"]
        with artifacts.using(None), trace_run("memo") as tracer:
            for i in range(capacity + 2):
                incremental.memo("layout", lambda i=i: f"k{i}", lambda: 1)
        assert tracer.counters["memo.layout.evict"] == 2
        assert incremental.stats()["layout"]["evictions"] == 2
        assert incremental.stats()["layout"]["entries"] == capacity

    def test_none_key_computes_every_time(self):
        calls = []

        def compute():
            calls.append(None)
            return "value"

        for _ in range(2):
            assert incremental.memo("sizing", lambda: None, compute) == (
                "value", "computed",
            )
        assert len(calls) == 2
        assert incremental.stats()["sizing"]["misses"] == 0

    @pytest.mark.parametrize("how", ["off", "faults"])
    def test_bypass_skips_key_and_store(self, how):
        incremental.memo("sizing", lambda: "k", lambda: "stored")
        keyed = []

        def key():
            keyed.append(None)
            return "k"

        with _bypassed(how):
            assert not incremental.enabled()
            assert incremental.memo("sizing", key, lambda: "fresh") == (
                "fresh", "computed",
            )
        assert keyed == []
        assert incremental.stats()["sizing"]["hits"] == 0


class TestLayoutDiskTier:
    """The ``layout`` kind persists whole built results on disk."""

    def _request(self, tech, hand_sized):
        sizes, currents = hand_sized
        return OtaLayoutRequest(
            technology=tech, sizes=sizes, currents=currents, aspect=1.0
        )

    def test_fresh_process_is_served_from_disk(
        self, tech, hand_sized, tmp_path
    ):
        request = self._request(tech, hand_sized)
        with artifacts.using(tmp_path):
            cold = generate_ota_layout(request, mode="generate")
            incremental.clear()  # a new process: empty in-memory stores
            with trace_run("warm") as tracer:
                warm = generate_ota_layout(request, mode="generate")
                estimate = generate_ota_layout(request, mode="estimate")
        assert _sources(tracer, "layout.call") == ["disk", "memo"]
        assert tracer.counters["runtime.artifact.hit"] == 1
        assert "runtime.artifact.miss" not in tracer.counters
        assert list(artifacts.canonical_tokens(warm.report)) == list(
            artifacts.canonical_tokens(cold.report)
        )
        assert warm.fold_config == cold.fold_config
        assert list(warm.cell.flattened()) == list(cold.cell.flattened())
        assert estimate.cell is None
        assert estimate.report is warm.report

    @pytest.mark.parametrize("how", ["off", "faults"])
    def test_bypass_never_touches_disk(
        self, tech, hand_sized, tmp_path, how
    ):
        request = self._request(tech, hand_sized)
        with artifacts.using(tmp_path) as store, _bypassed(how):
            generate_ota_layout(request, mode="estimate")
            generate_ota_layout(request, mode="estimate")
        assert store.hits == 0 and store.misses == 0
        assert list(tmp_path.iterdir()) == []


class TestExtractionParity:
    """Incremental extraction returns the bits a full pass produces."""

    def test_folded_cascode_incremental_matches_full(self, tech, hand_sized):
        sizes, currents = hand_sized
        request = OtaLayoutRequest(
            technology=tech, sizes=sizes, currents=currents, aspect=1.0
        )
        with incremental.using(False):
            full = generate_ota_layout(request, mode="estimate")
        cold = generate_ota_layout(request, mode="estimate")
        warm = generate_ota_layout(request, mode="estimate")
        _reports_equal(full.report, cold.report)
        _reports_equal(full.report, warm.report)
        assert full.fold_config == cold.fold_config == warm.fold_config
        # The warm repeat was served from the layout-call store.
        assert incremental.stats()["layout"]["hits"] >= 1

    def test_two_stage_incremental_matches_full(self, tech):
        specs = OtaSpecs(
            vdd=3.3, gbw=30e6, phase_margin=60.0, cload=2 * PF,
            input_cm_range=(1.0, 2.0), output_range=(0.4, 2.9),
        )
        result = TwoStagePlan(tech).size(specs, ParasiticMode.SINGLE_FOLD)
        request = TwoStageLayoutRequest(
            technology=tech,
            sizes=result.sizes,
            currents=result.currents,
            cc=result.biases["_cc"],
        )
        with incremental.using(False):
            full = generate_two_stage_layout(request, mode="estimate")
        cold = generate_two_stage_layout(request, mode="estimate")
        warm = generate_two_stage_layout(request, mode="estimate")
        _reports_equal(full.report, cold.report)
        _reports_equal(full.report, warm.report)
        assert incremental.stats()["layout"]["hits"] >= 1

    def test_generate_mode_shares_the_estimate_build(self, tech, hand_sized):
        """Both modes project one cached full build; generate after
        estimate does not rebuild and still carries the cell."""
        sizes, currents = hand_sized
        request = OtaLayoutRequest(
            technology=tech, sizes=sizes, currents=currents, aspect=1.0
        )
        estimate = generate_ota_layout(request, mode="estimate")
        builds = incremental.stats()["layout"]["misses"]
        generated = generate_ota_layout(request, mode="generate")
        assert incremental.stats()["layout"]["misses"] == builds
        assert estimate.cell is None
        assert generated.cell is not None
        _reports_equal(estimate.report, generated.report)


class TestDirtyInvalidation:
    """What a repeated layout request reuses: the layout call, and the
    verification extraction keyed on that request; a request built with
    the memo off carries no key and reuses nothing."""

    def _layout(self, tech, sizing):
        request = OtaLayoutRequest(
            technology=tech, sizes=sizing.sizes, currents=sizing.currents,
            aspect=1.0,
        )
        return generate_ota_layout(request, mode="generate")

    def test_memo_on_and_off_agree(self, tech, plan, specs, sized_case2):
        with incremental.using(False):
            off = self._layout(tech, sized_case2)
            measured_off = extract_and_measure(
                plan, sized_case2, specs, off, tech
            )
        cold = self._layout(tech, sized_case2)
        measured_cold = extract_and_measure(
            plan, sized_case2, specs, cold, tech
        )
        warm = self._layout(tech, sized_case2)
        measured_warm = extract_and_measure(
            plan, sized_case2, specs, warm, tech
        )
        assert cold.report == off.report == warm.report
        assert measured_cold == measured_off == measured_warm
        stored, source = incremental.memo(
            "extraction",
            lambda: (warm.key, tech.fingerprint()),
            lambda: pytest.fail("the verification extraction was not stored"),
        )
        assert source == "memo"
        assert stored == extract_cell(off.cell, tech)

    def test_served_layout_serves_its_extraction(
        self, tech, plan, specs, sized_case2
    ):
        with trace_run("verify") as tracer:
            for _ in range(2):
                layout = self._layout(tech, sized_case2)
                extract_and_measure(plan, sized_case2, specs, layout, tech)
        assert _sources(tracer, "layout.call") == ["computed", "memo"]
        assert _sources(tracer, "cases.extract") == ["computed", "memo"]
        assert incremental.stats()["extraction"]["entries"] == 1

    def test_memo_off_layout_has_no_key(self, tech, plan, specs, sized_case2):
        with incremental.using(False):
            layout = self._layout(tech, sized_case2)
        assert layout.key is None
        with trace_run("verify") as tracer:
            for _ in range(2):
                extract_and_measure(plan, sized_case2, specs, layout, tech)
        assert _sources(tracer, "cases.extract") == ["computed", "computed"]
        assert incremental.stats()["extraction"] == {
            "entries": 0, "hits": 0, "misses": 0, "evictions": 0,
        }
        assert incremental.stats()["layout"]["entries"] == 0

    def test_fault_injection_bypasses_stores(self, tech, hand_sized):
        from repro.resilience import faults

        sizes, currents = hand_sized
        request = OtaLayoutRequest(
            technology=tech, sizes=sizes, currents=currents, aspect=1.0
        )
        generate_ota_layout(request, mode="estimate")
        with faults.inject("batch.worker"):
            assert not incremental.enabled()
            generate_ota_layout(request, mode="estimate")
        assert incremental.stats()["layout"]["hits"] == 0


class TestSynthesisDeterminism:
    """The acceptance contract: fingerprints are independent of the
    incremental memo and cache temperature."""

    @pytest.fixture(scope="class")
    def reference(self, tech, specs):
        incremental.clear()
        with incremental.using(False):
            synthesizer = LayoutOrientedSynthesizer(
                tech, plan=FoldedCascodePlan(tech)
            )
            outcome = synthesizer.run(
                specs, ParasiticMode.FULL, generate=True
            )
        return outcome.fingerprint()

    def _run(self, tech, specs):
        synthesizer = LayoutOrientedSynthesizer(
            tech, plan=FoldedCascodePlan(tech)
        )
        return synthesizer.run(specs, ParasiticMode.FULL, generate=True)

    def test_cold_and_warm_match_from_scratch(self, tech, specs, reference):
        with trace_run("cold") as cold_tracer:
            cold = self._run(tech, specs)
        assert cold.fingerprint() == reference
        with trace_run("warm") as warm_tracer:
            warm = self._run(tech, specs)
        assert warm.fingerprint() == reference
        assert set(_sources(cold_tracer, "synthesis.sizing")) == {"computed"}
        assert set(_sources(warm_tracer, "synthesis.sizing")) == {"memo"}
        assert set(_sources(warm_tracer, "layout.call")) == {"memo"}
        stats = incremental.stats()
        assert stats["sizing"]["hits"] > 0, (
            "a warm repeat must serve sizing rounds from the memo"
        )
        assert stats["layout"]["hits"] > 0


class TestWarmStartLru:
    def test_session_cap_evicts_lru(self):
        voltages = np.zeros(3)
        with trace_run("warm") as tracer:
            with warmstart.session(limit=2):
                key_a = (("a",), ())
                key_b = (("b",), ())
                key_c = (("c",), ())
                warmstart.record(key_a, voltages)
                warmstart.record(key_b, voltages)
                assert warmstart.lookup(key_a) is not None  # refresh a
                warmstart.record(key_c, voltages)  # evicts b
                assert warmstart.lookup(key_b) is None
                assert warmstart.lookup(key_a) is not None
                assert warmstart.lookup(key_c) is not None
                assert warmstart.evictions() == 1
        assert tracer.counters["dc.warm_start.evicted"] == 1

    def test_snapshot_restore_preserves_order(self):
        with warmstart.session(limit=2):
            key_a = (("a",), ())
            key_b = (("b",), ())
            warmstart.record(key_a, np.zeros(2))
            warmstart.record(key_b, np.ones(2))
            snap = warmstart.snapshot()
            warmstart.restore(snap)
            # "a" is still the LRU entry after a restore: recording a
            # third key evicts it, not "b".
            warmstart.record((("c",), ()), np.zeros(2))
            assert warmstart.lookup(key_a) is None
            assert warmstart.lookup(key_b) is not None

    def test_unbounded_session(self):
        with warmstart.session(limit=None):
            for i in range(100):
                warmstart.record(((str(i),), ()), np.zeros(1))
            assert warmstart.evictions() == 0
