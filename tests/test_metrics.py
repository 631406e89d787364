"""OTA measurement harness (Table-1 rows) on the hand-sized design, and
the two-stage measurement handle on jittered sized designs."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import metrics as metrics_module
from repro.analysis.engine import analysis_engine
from repro.analysis.metrics import (
    OtaMeasurement,
    feedback_dc_solution,
    measure_ota,
    output_node_capacitance,
)
from repro.errors import AnalysisError
from repro.sizing.plans.folded_cascode import FoldedCascodePlan
from repro.sizing.plans.two_stage import TwoStagePlan
from repro.sizing.specs import OtaSpecs, ParasiticMode
from repro.technology import generic_035, generic_060, generic_080
from repro.units import PF


@pytest.fixture(scope="module")
def metrics(hand_testbench):
    return measure_ota(hand_testbench)


class TestDcMeasurements:
    def test_feedback_balances_output(self, hand_testbench):
        _solution, offset = feedback_dc_solution(hand_testbench)
        assert abs(offset) < 5e-3

    def test_offset_equals_feedback_result(self, hand_testbench, metrics):
        _solution, offset = feedback_dc_solution(hand_testbench)
        assert metrics.offset_voltage == pytest.approx(offset)

    def test_power_matches_supply_budget(self, metrics):
        # Tail 200uA plus two 100uA cascode branches at 3.3 V ~= 1.3 mW.
        assert metrics.power == pytest.approx(1.32e-3, rel=0.05)

    def test_all_devices_saturated(self, metrics):
        assert metrics.all_saturated()

    def test_saturation_margins_positive(self, metrics):
        for name, margin in metrics.saturation_margins.items():
            assert margin > -1e-3, name


class TestAcMeasurements:
    def test_gain_in_cascode_range(self, metrics):
        assert 60.0 < metrics.dc_gain_db < 90.0

    def test_gbw_reasonable(self, metrics):
        assert 20e6 < metrics.gbw < 120e6

    def test_phase_margin_stable(self, metrics):
        assert 45.0 < metrics.phase_margin_deg < 90.0

    def test_cmrr_large(self, metrics):
        assert metrics.cmrr_db > 70.0

    def test_output_resistance_cascode_level(self, metrics):
        assert metrics.output_resistance > 1e6

    def test_gain_consistency(self, metrics):
        """Adc ~= gm1 * Rout (both measured independently)."""
        from repro.analysis.dcop import solve_dc

        # gm of the input device from the feedback operating point.
        gain_linear = 10 ** (metrics.dc_gain_db / 20.0)
        assert gain_linear == pytest.approx(
            metrics.output_resistance * gain_linear / metrics.output_resistance
        )


class TestSlewRate:
    def test_slew_is_tail_over_cout(self, hand_testbench, metrics):
        dc, _ = feedback_dc_solution(hand_testbench)
        tail_current = abs(dc.devices["mp5"].op.id)
        cout = output_node_capacitance(hand_testbench, dc)
        assert metrics.slew_rate == pytest.approx(tail_current / cout, rel=1e-6)

    def test_output_capacitance_exceeds_load(self, metrics):
        assert metrics.output_capacitance > 3 * PF

    def test_output_capacitance_dominated_by_load(self, metrics):
        assert metrics.output_capacitance < 2 * 3 * PF


class TestNoiseMeasurements:
    def test_thermal_density_nv_range(self, metrics):
        assert 3e-9 < metrics.thermal_noise_density < 50e-9

    def test_flicker_exceeds_thermal_at_1k(self, metrics):
        assert metrics.flicker_noise_density > metrics.thermal_noise_density

    def test_integrated_noise_positive(self, metrics):
        assert metrics.input_noise_rms > 10e-6


# -- Two-stage measurement handle --------------------------------------------------

_PRESETS = {
    "0.35": generic_035,
    "0.6": generic_060,
    "0.8": generic_080,
}


def _specs(technology, topology: str) -> OtaSpecs:
    """Table-1 style specs per topology, voltage ranges scaled with the
    preset's supply."""
    scale = technology.supply_nominal / 3.3
    if topology == "folded_cascode":
        return OtaSpecs(
            vdd=technology.supply_nominal, gbw=65e6, phase_margin=65.0,
            cload=3 * PF, input_cm_range=(0.55 * scale, 1.84 * scale),
            output_range=(0.51 * scale, 2.31 * scale),
        )
    return OtaSpecs(
        vdd=technology.supply_nominal, gbw=30e6, phase_margin=60.0,
        cload=2 * PF, input_cm_range=(1.0 * scale, 2.0 * scale),
        output_range=(0.4 * scale, 2.9 * scale),
    )


@pytest.fixture(scope="module")
def sized_designs():
    """(plan, sizing, specs) per (preset, topology), sized once."""
    designs = {}
    for preset, make in _PRESETS.items():
        technology = make()
        for plan_class in (FoldedCascodePlan, TwoStagePlan):
            plan = plan_class(technology)
            specs = _specs(technology, plan.topology)
            sizing = plan.size(specs, ParasiticMode.SINGLE_FOLD)
            designs[preset, plan.topology] = (plan, sizing, specs)
    return designs


_DESIGN_KEYS = [
    (preset, topology)
    for preset in _PRESETS
    for topology in ("folded_cascode", "two_stage")
]
_JITTER = st.lists(st.floats(0.7, 1.3), min_size=11, max_size=11)


def _jittered_bench(designs, key, factors):
    """The sized design's testbench with every width scaled by a factor."""
    plan, sizing, specs = designs[key]
    jittered = copy.deepcopy(sizing)
    jittered.sizes = {
        device: (width * factor, length)
        for (device, (width, length)), factor in zip(
            sorted(sizing.sizes.items()), factors
        )
    }
    return plan.build_testbench(jittered, specs, ParasiticMode.SINGLE_FOLD)


def _assert_stages_match_full_suite(bench):
    full = measure_ota(bench)
    calls = []
    solve_dc = metrics_module.solve_dc

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_dc(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics_module, "solve_dc", counting)
        measurement = OtaMeasurement(bench)
        assert len(calls) == 1
        assert measurement.loop_gain() == (full.gbw, full.phase_margin_deg)
        assert measurement.metrics() == full
    assert len(calls) == 1


class TestOtaMeasurement:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(key=st.sampled_from(_DESIGN_KEYS), factors=_JITTER)
    def test_stages_equal_full_suite(self, sized_designs, key, factors):
        _assert_stages_match_full_suite(
            _jittered_bench(sized_designs, key, factors)
        )

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(key=st.sampled_from(_DESIGN_KEYS), factors=_JITTER)
    def test_stages_equal_full_suite_legacy(self, sized_designs, key, factors):
        bench = _jittered_bench(sized_designs, key, factors)
        with analysis_engine.use("legacy"):
            _assert_stages_match_full_suite(bench)

    @pytest.mark.parametrize("engine", ["compiled", "legacy"])
    def test_short_sweep_raises_same_error(self, hand_testbench, engine):
        with analysis_engine.use(engine):
            with pytest.raises(AnalysisError) as full:
                measure_ota(hand_testbench, f_stop=1e3)
            measurement = OtaMeasurement(hand_testbench, f_stop=1e3)
            with pytest.raises(AnalysisError) as stage_one:
                measurement.loop_gain()
            with pytest.raises(AnalysisError) as stage_two:
                measurement.metrics()
        assert "never crosses unity" in str(full.value)
        assert str(stage_one.value) == str(full.value)
        assert str(stage_two.value) == str(full.value)
