"""The layout-oriented synthesis loop (paper Figure 1b)."""

import pytest

from repro.core.synthesis import LayoutOrientedSynthesizer
from repro.errors import SynthesisError
from repro.sizing.specs import ParasiticMode
from repro.units import FF


class TestConvergence:
    def test_converges(self, synthesis_outcome):
        assert synthesis_outcome.converged

    def test_layout_calls_match_paper_scale(self, synthesis_outcome):
        """The paper needed three layout-tool calls; allow a little slack."""
        assert 2 <= synthesis_outcome.layout_calls <= 6

    def test_parasitics_stop_changing(self, synthesis_outcome):
        final = synthesis_outcome.records[-1]
        assert final.distance <= 2 * FF

    def test_first_round_distance_infinite(self, synthesis_outcome):
        assert synthesis_outcome.records[0].distance == float("inf")

    def test_distance_shrinks(self, synthesis_outcome):
        distances = [r.distance for r in synthesis_outcome.records[1:]]
        assert distances == sorted(distances, reverse=True) or (
            distances[-1] <= distances[0]
        )

    def test_sizing_time_far_below_two_minutes(self, synthesis_outcome):
        """Paper: 'The sizing time for each case ... does not exceed two
        minutes' — ours is seconds."""
        assert synthesis_outcome.elapsed < 120.0


class TestOutcome:
    def test_final_specs_met_with_parasitics(self, synthesis_outcome, specs):
        metrics = synthesis_outcome.sizing.predicted
        assert metrics.gbw == pytest.approx(specs.gbw, rel=0.015)
        assert metrics.phase_margin_deg == pytest.approx(
            specs.phase_margin, abs=0.8
        )

    def test_generated_layout_attached(self, synthesis_outcome):
        assert synthesis_outcome.layout is not None
        assert synthesis_outcome.layout.cell is not None

    def test_feedback_has_all_devices(self, synthesis_outcome):
        assert len(synthesis_outcome.feedback.devices) == 11

    def test_fold_counts_stable_at_convergence(self, synthesis_outcome):
        last = synthesis_outcome.records[-1].report
        previous = synthesis_outcome.records[-2].report
        last_folds = {d: p.nf for d, p in last.devices.items()}
        previous_folds = {d: p.nf for d, p in previous.devices.items()}
        assert last_folds == previous_folds

    def test_estimate_only_mode(self, tech, specs, plan):
        synthesizer = LayoutOrientedSynthesizer(tech, plan=plan)
        outcome = synthesizer.run(specs, ParasiticMode.FULL, generate=False)
        assert outcome.layout is None
        assert outcome.feedback is not None


class TestValidation:
    def test_non_layout_mode_rejected(self, tech, specs):
        synthesizer = LayoutOrientedSynthesizer(tech)
        with pytest.raises(SynthesisError):
            synthesizer.run(specs, ParasiticMode.NONE)

    def test_diffusion_only_mode_runs(self, tech, specs, plan):
        synthesizer = LayoutOrientedSynthesizer(tech, plan=plan)
        outcome = synthesizer.run(
            specs, ParasiticMode.LAYOUT_DIFFUSION, generate=False
        )
        assert outcome.layout_calls >= 2


class TestParasiticReportMetric:
    def test_distance_to_self_is_zero(self, synthesis_outcome):
        report = synthesis_outcome.feedback
        assert report.distance(report) == 0.0

    def test_distance_symmetricish(self, synthesis_outcome):
        first = synthesis_outcome.records[0].report
        last = synthesis_outcome.records[-1].report
        assert first.distance(last) == pytest.approx(last.distance(first))

    def test_net_total_includes_coupling(self, synthesis_outcome):
        report = synthesis_outcome.feedback
        assert report.net_total("fold1") > report.net_capacitance["fold1"]
