"""The folded-cascode design plan (COMDIAC's core procedure)."""

import pytest

from repro.analysis.metrics import measure_ota
from repro.circuit.topologies.folded_cascode import FOLDED_CASCODE_DEVICES
from repro.mos.junction import DiffusionGeometry
from repro.sizing.plans.folded_cascode import DEVICE_ROLE, FoldedCascodePlan
from repro.sizing.specs import OtaSpecs, ParasiticMode
from repro.units import UM


class TestCaseOneSizing:
    """Mode NONE: only gate capacitances."""

    def test_gbw_on_target(self, sized_case1, specs):
        metrics = sized_case1.predicted
        assert metrics.gbw == pytest.approx(specs.gbw, rel=0.015)

    def test_phase_margin_on_target(self, sized_case1, specs):
        metrics = sized_case1.predicted
        assert metrics.phase_margin_deg == pytest.approx(
            specs.phase_margin, abs=0.8
        )

    def test_all_devices_sized(self, sized_case1):
        assert set(sized_case1.sizes) == set(FOLDED_CASCODE_DEVICES)

    def test_matched_devices_identical(self, sized_case1):
        sizes = sized_case1.sizes
        assert sizes["mp1"] == sizes["mp2"]
        assert sizes["mn5"] == sizes["mn6"]
        assert sizes["mp3"] == sizes["mp4"]
        assert sizes["mn1c"] == sizes["mn2c"]

    def test_current_bookkeeping(self, sized_case1):
        currents = sized_case1.currents
        assert currents["mp5"] == pytest.approx(2 * currents["mp1"])
        assert currents["mn5"] == pytest.approx(
            currents["mp1"] + currents["mn1c"]
        )

    def test_computed_ranges_cover_specs(self, sized_case1, specs):
        vcm_lo, vcm_hi = sized_case1.computed_icmr
        assert vcm_lo <= specs.input_cm_range[0]
        assert vcm_hi >= specs.input_cm_range[1] - 0.25

    def test_devices_saturated(self, sized_case1):
        assert sized_case1.predicted.all_saturated()

    def test_iterations_bounded(self, sized_case1):
        assert sized_case1.iterations <= 30

    def test_input_current_matches_gm_formula(self, sized_case1, specs, plan):
        """gm1 = 2 pi GBW Cl_eff within the effective-load correction."""
        import math

        id1 = sized_case1.currents["mp1"]
        gm_needed = 2 * math.pi * specs.gbw * specs.cload
        id_floor = gm_needed * plan.veff_input / 2.0
        assert id1 >= 0.9 * id_floor


class TestPredictedIsFullSuite:
    """``predicted`` is the full Table-1 suite of the accepted iteration
    (the loop itself reads only the loop gain), whichever way it exits."""

    def test_tolerance_exit(self, plan, sized_case1, specs):
        predicted = sized_case1.predicted
        assert sized_case1.iterations < plan.max_iterations
        assert abs(predicted.gbw - specs.gbw) <= plan.gbw_tolerance * specs.gbw
        assert abs(
            predicted.phase_margin_deg - specs.phase_margin
        ) <= plan.pm_tolerance
        bench = plan.build_testbench(sized_case1, specs, ParasiticMode.NONE)
        assert predicted == measure_ota(bench)

    def test_iteration_cap_exit(self, tech, specs):
        capped = FoldedCascodePlan(tech, max_iterations=1)
        result = capped.size(specs, ParasiticMode.SINGLE_FOLD)
        assert result.iterations == 1
        bench = capped.build_testbench(
            result, specs, ParasiticMode.SINGLE_FOLD
        )
        assert result.predicted == measure_ota(bench)


class TestCaseTwoSizing:
    """Mode SINGLE_FOLD: over-estimated diffusion (paper's case 2)."""

    def test_meets_specs_on_assumed_netlist(self, sized_case2, specs):
        metrics = sized_case2.predicted
        assert metrics.gbw == pytest.approx(specs.gbw, rel=0.015)
        assert metrics.phase_margin_deg == pytest.approx(
            specs.phase_margin, abs=0.8
        )

    def test_shorter_cascode_lengths_than_case1(self, sized_case1, sized_case2):
        """Over-estimated fold capacitance pushes lengths down — the
        mechanism behind case 2's gain/Rout/noise degradation."""
        assert sized_case2.sizes["mn1c"][1] < sized_case1.sizes["mn1c"][1]

    def test_lower_gain_than_case1(self, sized_case1, sized_case2):
        assert (
            sized_case2.predicted.dc_gain_db < sized_case1.predicted.dc_gain_db
        )

    def test_lower_output_resistance_than_case1(self, sized_case1, sized_case2):
        assert (
            sized_case2.predicted.output_resistance
            < sized_case1.predicted.output_resistance
        )


class TestGeometryModes:
    def test_mode_none_zero_diffusion(self, plan, sized_case1, specs):
        bench = plan.build_testbench(sized_case1, specs, ParasiticMode.NONE)
        geometry = bench.circuit.mos("mp1").geometry
        assert geometry.ad == 0.0 and geometry.as_ == 0.0

    def test_mode_single_fold_full_diffusion(self, plan, sized_case1, specs,
                                             tech):
        bench = plan.build_testbench(
            sized_case1, specs, ParasiticMode.SINGLE_FOLD
        )
        mos = bench.circuit.mos("mp1")
        expected = DiffusionGeometry.single_fold(mos.w, tech.default_ldif)
        assert mos.geometry.ad == pytest.approx(expected.ad)

    def test_layout_mode_without_feedback_falls_back(self, plan, sized_case1,
                                                     specs):
        bench = plan.build_testbench(
            sized_case1, specs, ParasiticMode.LAYOUT_DIFFUSION, feedback=None
        )
        assert bench.circuit.mos("mp1").geometry.ad > 0

    def test_full_mode_attaches_routing_caps(self, plan, sized_case1, specs,
                                             synthesis_outcome):
        bench = plan.build_testbench(
            sized_case1, specs, ParasiticMode.FULL,
            feedback=synthesis_outcome.feedback,
        )
        assert bench.circuit.total_parasitic_on_net("fold1") > 10e-15

    def test_layout_mode_uses_feedback_geometry(self, plan, sized_case1,
                                                specs, synthesis_outcome):
        bench = plan.build_testbench(
            sized_case1, specs, ParasiticMode.LAYOUT_DIFFUSION,
            feedback=synthesis_outcome.feedback,
        )
        mos = bench.circuit.mos("mp1")
        expected = synthesis_outcome.feedback.devices["mp1"].geometry
        assert mos.geometry.ad == pytest.approx(expected.ad)
        # But no routing caps in mode 3.
        assert bench.circuit.total_parasitic_on_net("fold1") == 0.0


class TestRoles:
    def test_every_device_has_role(self):
        assert set(DEVICE_ROLE) == set(FOLDED_CASCODE_DEVICES)

    def test_specs_validated(self, plan):
        bad = OtaSpecs(gbw=-1.0)
        with pytest.raises(Exception):
            plan.size(bad)


class TestDifferentSpecs:
    def test_lower_gbw_needs_less_current(self, tech, plan, specs,
                                          sized_case1):
        easy = OtaSpecs(
            vdd=specs.vdd, gbw=20e6, phase_margin=specs.phase_margin,
            cload=specs.cload, input_cm_range=specs.input_cm_range,
            output_range=specs.output_range,
        )
        relaxed = FoldedCascodePlan(tech).size(easy, ParasiticMode.NONE)
        assert relaxed.currents["mp1"] < sized_case1.currents["mp1"]

    def test_bigger_load_needs_more_current(self, tech, specs, sized_case1):
        heavy = OtaSpecs(
            vdd=specs.vdd, gbw=specs.gbw, phase_margin=specs.phase_margin,
            cload=3 * specs.cload, input_cm_range=specs.input_cm_range,
            output_range=specs.output_range,
        )
        loaded = FoldedCascodePlan(tech).size(heavy, ParasiticMode.NONE)
        assert loaded.currents["mp1"] > 2 * sized_case1.currents["mp1"]

    def test_level3_plan_runs(self, tech, specs):
        plan3 = FoldedCascodePlan(tech, model_level=3)
        result = plan3.size(specs, ParasiticMode.NONE)
        assert result.predicted.gbw == pytest.approx(specs.gbw, rel=0.02)

    def test_level3_wider_input_devices(self, tech, specs, sized_case1):
        """Mobility degradation costs gm: level 3 sizes wider."""
        plan3 = FoldedCascodePlan(tech, model_level=3)
        result = plan3.size(specs, ParasiticMode.NONE)
        assert result.sizes["mp1"][0] > sized_case1.sizes["mp1"][0]


class TestSlewRateSpec:
    """Optional slew-rate specification (the SC driver needs it)."""

    @pytest.fixture(scope="class")
    def slew_specs(self, specs):
        return OtaSpecs(
            vdd=specs.vdd, gbw=specs.gbw, phase_margin=specs.phase_margin,
            cload=specs.cload, input_cm_range=specs.input_cm_range,
            output_range=specs.output_range,
            slew_rate=140e6,  # well above the gm-driven ~80 V/us
        )

    @pytest.fixture(scope="class")
    def slew_sized(self, tech, slew_specs):
        return FoldedCascodePlan(tech).size(slew_specs, ParasiticMode.NONE)

    def test_predicted_is_full_suite(self, plan, slew_sized, slew_specs):
        bench = plan.build_testbench(
            slew_sized, slew_specs, ParasiticMode.NONE
        )
        assert slew_sized.predicted == measure_ota(bench)

    def test_slew_target_met(self, slew_sized, slew_specs):
        assert slew_sized.predicted.slew_rate >= 0.97 * slew_specs.slew_rate

    def test_gbw_not_overshot(self, slew_sized, slew_specs):
        """The surplus current goes into overdrive, not bandwidth."""
        assert slew_sized.predicted.gbw == pytest.approx(
            slew_specs.gbw, rel=0.02
        )

    def test_more_current_than_gm_driven(self, slew_sized, sized_case1):
        assert slew_sized.currents["mp5"] > 1.3 * sized_case1.currents["mp5"]

    def test_input_overdrive_opened(self, slew_sized, plan):
        assert slew_sized.overdrives["input"] > plan.veff_input + 0.02

    def test_icmr_still_honoured(self, slew_sized, slew_specs, tech):
        """Opening the overdrive must not break the upper ICMR bound."""
        from repro.mos import make_model

        model_p = make_model(tech.pmos, 1)
        vcm_max = (
            slew_specs.vdd
            - slew_sized.overdrives["tail"]
            - model_p.threshold(0.0)
            - slew_sized.overdrives["input"]
        )
        assert vcm_max >= slew_specs.input_cm_range[1] - 0.06

    def test_easy_slew_spec_changes_nothing(self, tech, specs, sized_case1):
        easy = OtaSpecs(
            vdd=specs.vdd, gbw=specs.gbw, phase_margin=specs.phase_margin,
            cload=specs.cload, input_cm_range=specs.input_cm_range,
            output_range=specs.output_range,
            slew_rate=10e6,
        )
        relaxed = FoldedCascodePlan(tech).size(easy, ParasiticMode.NONE)
        assert relaxed.currents["mp1"] == pytest.approx(
            sized_case1.currents["mp1"], rel=0.02
        )
