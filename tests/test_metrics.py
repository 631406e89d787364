"""OTA measurement harness (Table-1 rows) on the hand-sized design, and
the two-stage measurement handle on jittered sized designs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import metrics as metrics_module
from repro.analysis.metrics import (
    OtaMeasurement,
    _loop_gain,
    feedback_dc_solution,
    measure_ota,
    output_node_capacitance,
)
from repro.analysis.transfer import TransferFunction
from repro.errors import AnalysisError
from repro.units import PF
from tests.conftest import DESIGN_KEYS, JITTER, jittered_bench


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
    @given(key=st.sampled_from(DESIGN_KEYS), factors=JITTER)
    def test_stages_equal_full_suite(self, sized_designs, key, factors):
        _assert_stages_match_full_suite(
            jittered_bench(sized_designs, key, factors)
        )

    def test_crossing_at_a_chunk_boundary(self, hand_testbench):
        """The loop gain solves the sweep a decade at a time and stops
        past the first unity crossing; crossings whose bracketing points
        fall in two chunks, or whose next point opens the next chunk,
        still give the full sweep's answer bit for bit."""
        residues = set()
        for k in range(24):
            measurement = OtaMeasurement(
                hand_testbench, f_start=10.0 ** (k / 24.0)
            )
            system = measurement.system
            solved = system.solve_batch(
                measurement.frequencies, system.rhs(measurement._dm_drive)
            )
            full = TransferFunction(
                measurement.frequencies.copy(),
                solved[:, measurement._out_node, 0].copy(),
            )
            gains = full.magnitude_db
            crossing = np.flatnonzero((gains[:-1] >= 0.0) & (gains[1:] < 0.0))
            residues.add(int(crossing[0] + 1) % measurement.points_per_decade)
            assert measurement.loop_gain() == _loop_gain(full)
        # The point after the crossing opens a chunk, and ends one.
        assert {0, measurement.points_per_decade - 1} <= residues

    def test_short_sweep_raises_same_error(self, hand_testbench):
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
