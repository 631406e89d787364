"""The two-stage Miller OTA design plan."""

import pytest

from repro.analysis.metrics import measure_ota
from repro.sizing.plans.two_stage import TwoStageKnobs, TwoStagePlan
from repro.sizing.specs import OtaSpecs, ParasiticMode
from repro.units import PF


@pytest.fixture(scope="module")
def two_stage_specs():
    return OtaSpecs(
        vdd=3.3, gbw=30e6, phase_margin=60.0, cload=2 * PF,
        input_cm_range=(1.0, 2.0), output_range=(0.4, 2.9),
    )


@pytest.fixture(scope="module")
def sized(tech, two_stage_specs):
    return TwoStagePlan(tech).size(two_stage_specs, ParasiticMode.NONE)


class TestSizing:
    def test_gbw_on_target(self, sized, two_stage_specs):
        assert sized.predicted.gbw == pytest.approx(
            two_stage_specs.gbw, rel=0.03
        )

    def test_phase_margin_met(self, sized, two_stage_specs):
        assert sized.predicted.phase_margin_deg >= (
            two_stage_specs.phase_margin - 1.5
        )

    def test_two_stage_gain_exceeds_single(self, sized):
        assert sized.predicted.dc_gain_db > 60.0

    def test_output_stage_carries_more_current(self, sized):
        assert sized.currents["m6"] > sized.currents["m1"]

    def test_matched_input_pair(self, sized):
        assert sized.sizes["m1"] == sized.sizes["m2"]

    def test_mirror_matched(self, sized):
        assert sized.sizes["m3"] == sized.sizes["m4"]

    def test_all_saturated(self, sized):
        assert sized.predicted.all_saturated()


class TestPredictedIsFullSuite:
    """``predicted`` is the full Table-1 suite of the accepted iteration
    (the loop itself reads only the loop gain), whichever way it exits."""

    def test_tolerance_exit(self, tech, sized, two_stage_specs):
        plan = TwoStagePlan(tech)
        # The only early exit of this plan is the tolerance test.
        assert sized.iterations < plan.max_iterations
        bench = plan.build_testbench(sized, two_stage_specs, ParasiticMode.NONE)
        assert sized.predicted == measure_ota(bench)

    def test_slew_spec_sizing(self, tech, two_stage_specs):
        specs = OtaSpecs(
            vdd=two_stage_specs.vdd, gbw=two_stage_specs.gbw,
            phase_margin=two_stage_specs.phase_margin,
            cload=two_stage_specs.cload,
            input_cm_range=two_stage_specs.input_cm_range,
            output_range=two_stage_specs.output_range,
            slew_rate=20e6,
        )
        plan = TwoStagePlan(tech)
        result = plan.size(specs, ParasiticMode.SINGLE_FOLD)
        bench = plan.build_testbench(result, specs, ParasiticMode.SINGLE_FOLD)
        assert result.predicted == measure_ota(bench)

    def test_iteration_cap_exit(self, tech, two_stage_specs):
        capped = TwoStagePlan(tech, max_iterations=1)
        result = capped.size(two_stage_specs, ParasiticMode.SINGLE_FOLD)
        assert result.iterations == 1
        bench = capped.build_testbench(
            result, two_stage_specs, ParasiticMode.SINGLE_FOLD
        )
        assert result.predicted == measure_ota(bench)


class TestParasiticModes:
    def test_single_fold_mode_runs(self, tech, two_stage_specs):
        result = TwoStagePlan(tech).size(
            two_stage_specs, ParasiticMode.SINGLE_FOLD
        )
        assert result.predicted.gbw == pytest.approx(
            two_stage_specs.gbw, rel=0.03
        )

    def test_diffusion_raises_current_demand(self, tech, two_stage_specs,
                                             sized):
        loaded = TwoStagePlan(tech).size(
            two_stage_specs, ParasiticMode.SINGLE_FOLD
        )
        # Diffusion at the Miller/output nodes costs some extra current.
        assert loaded.currents["m1"] >= sized.currents["m1"] * 0.95


class TestAddingTopologiesIsCheap:
    """The paper's hierarchy claim: a new plan is one subclass."""

    def test_plan_reuses_building_blocks(self):
        import inspect

        from repro.sizing.plans import two_stage

        source = inspect.getsource(two_stage)
        assert "input_pair_current" in source
        assert "distribute_headroom" in source

    def test_plan_registers_like_any_other(self, tech):
        from repro.sizing.comdiac import Comdiac

        tool = Comdiac(tech)
        assert "two_stage" in tool.topologies


class TestSizingStatus:
    def test_met(self, sized):
        assert sized.status == "met"
        assert sized.misses == ()

    def test_iteration_cap(self, tech, two_stage_specs):
        result = TwoStagePlan(tech, max_iterations=1).size(
            two_stage_specs, ParasiticMode.SINGLE_FOLD
        )
        assert result.status == "iteration_cap"
        assert {miss.name for miss in result.misses} <= {
            "gbw", "phase_margin"
        }
        assert result.misses


class TestStart:
    def test_knobs_of_the_accepted_iteration(self, tech, sized,
                                             two_stage_specs):
        knobs = sized.knobs
        assert isinstance(knobs, TwoStageKnobs)
        cc = TwoStagePlan(tech).cc_ratio * two_stage_specs.cload
        assert sized.biases["_cc"] == cc
        assert knobs.cc_eff > 0.0 and knobs.gm6_factor > 0.0

    def test_seeded_resize_is_idempotent(self, tech, sized, two_stage_specs):
        again = TwoStagePlan(tech).size(
            two_stage_specs, ParasiticMode.NONE, start=sized.knobs
        )
        assert again.sizes == sized.sizes
        assert again.iterations == 1
