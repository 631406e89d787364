"""Monte-Carlo mismatch analysis."""

import math

import pytest

from repro.analysis.montecarlo import apply_mismatch, run_monte_carlo
from repro.errors import AnalysisError

import numpy as np


class TestApplyMismatch:
    def test_clone_is_perturbed(self, hand_testbench):
        rng = np.random.default_rng(7)
        perturbed = apply_mismatch(hand_testbench.circuit, rng)
        shifts = [m.mismatch_vth for m in perturbed.mos_devices]
        assert any(abs(s) > 0 for s in shifts)

    def test_original_untouched(self, hand_testbench):
        rng = np.random.default_rng(7)
        apply_mismatch(hand_testbench.circuit, rng)
        assert all(m.mismatch_vth == 0.0 for m in hand_testbench.circuit.mos_devices)

    def test_pelgrom_scaling(self, hand_testbench, tech):
        """Sampled sigma tracks A_VT / sqrt(WL) for the input device."""
        rng = np.random.default_rng(123)
        samples = []
        for _ in range(300):
            perturbed = apply_mismatch(hand_testbench.circuit, rng)
            samples.append(perturbed.mos("mp1").mismatch_vth)
        mp1 = hand_testbench.circuit.mos("mp1")
        expected_sigma = tech.pmos.avt / math.sqrt(mp1.w * mp1.l)
        assert np.std(samples) == pytest.approx(expected_sigma, rel=0.2)


class TestRunMonteCarlo:
    @pytest.fixture(scope="class")
    def result(self, hand_testbench):
        return run_monte_carlo(hand_testbench, runs=25, seed=42)

    def test_sample_count(self, result):
        assert len(result.samples["offset_voltage"]) == 25

    def test_offset_sigma_in_mv_range(self, result):
        """Matched large devices: offset sigma well below 10 mV."""
        sigma = result.std("offset_voltage")
        assert 0.05e-3 < sigma < 10e-3

    def test_mean_near_systematic_offset(self, result):
        assert abs(result.mean("offset_voltage")) < 5e-3

    def test_reproducible_with_seed(self, hand_testbench, result):
        again = run_monte_carlo(hand_testbench, runs=25, seed=42)
        assert again.samples["offset_voltage"] == result.samples["offset_voltage"]

    def test_different_seed_differs(self, hand_testbench, result):
        other = run_monte_carlo(hand_testbench, runs=25, seed=43)
        assert other.samples["offset_voltage"] != result.samples["offset_voltage"]

    def test_worst_sample_is_extreme(self, result):
        values = np.asarray(result.samples["offset_voltage"])
        worst = result.worst("offset_voltage")
        deviation = np.abs(values - values.mean())
        assert abs(worst - values.mean()) == pytest.approx(deviation.max())

    def test_summary_mentions_statistic(self, result):
        assert "offset_voltage" in result.summary()

    def test_single_sample_has_no_sigma(self, hand_testbench):
        result = run_monte_carlo(hand_testbench, runs=1, seed=3)
        with pytest.raises(AnalysisError, match=r"'offset_voltage'.*got 1"):
            result.std("offset_voltage")
        assert "sigma=n/a (1 sample)" in result.summary()
        assert "nan" not in result.summary()

    def test_custom_measure(self, hand_testbench):
        def measure(bench):
            return {"constant": 1.0}

        result = run_monte_carlo(hand_testbench, runs=3, measure=measure)
        assert result.samples["constant"] == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("runs", [0, -1])
    def test_rejects_non_positive_runs(self, hand_testbench, runs):
        with pytest.raises(AnalysisError, match=f"got {runs}"):
            run_monte_carlo(hand_testbench, runs=runs)
