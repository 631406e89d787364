"""Convergence of the layout-oriented loop (paper section 5).

"This process is repeated till the calculated parasitics remain
unchanged. ... Three calls of the layout tool were needed before parasitic
convergence.  The sizing time for each case including layout calls does
not exceed two minutes."
"""

import pytest

from repro.core.synthesis import LayoutOrientedSynthesizer
from repro.sizing.specs import ParasiticMode
from repro.units import FF


@pytest.fixture(scope="module")
def outcome(synthesis_outcome, results_dir):
    lines = ["round  distance(F)        fold changes"]
    previous_folds = None
    for record in synthesis_outcome.records:
        folds = {d: p.nf for d, p in record.report.devices.items()}
        changed = (
            "initial" if previous_folds is None
            else str(sum(1 for d in folds if folds[d] != previous_folds[d]))
        )
        distance = (
            "inf" if record.distance == float("inf")
            else f"{record.distance:.3e}"
        )
        lines.append(f"{record.round_index:<6d} {distance:<18} {changed}")
        previous_folds = folds
    text = "\n".join(lines)
    (results_dir / "convergence.txt").write_text(text + "\n")
    print("\n" + text)
    return synthesis_outcome


def test_benchmark_synthesis_loop(benchmark, tech, specs):
    synthesizer = LayoutOrientedSynthesizer(tech)
    result = benchmark.pedantic(
        synthesizer.run, args=(specs,),
        kwargs={"mode": ParasiticMode.FULL, "generate": False},
        rounds=1, iterations=1,
    )
    assert result.converged


class TestConvergenceClaims:
    def test_converged(self, outcome):
        assert outcome.converged

    def test_layout_calls_near_paper_count(self, outcome):
        """Paper: three calls."""
        assert 2 <= outcome.layout_calls <= 6

    def test_case4_within_paper_count(self, outcome):
        """Re-sizing from the previous round's knobs reaches the fixed
        point within the paper's three layout calls."""
        assert outcome.layout_calls <= 3

    def test_seeded_rounds_take_fewer_iterations(self, outcome, plan,
                                                 specs):
        """Rounds 2.. re-size from the previous round's knobs: together
        they take fewer plan iterations than cold searches under the
        same feedback, and the last one reproduces its predecessor."""
        records = outcome.records
        seeded = [r.sizing.iterations for r in records[1:]]
        cold = [
            plan.size(specs, ParasiticMode.FULL, previous.report).iterations
            for previous in records[:-1]
        ]
        assert sum(seeded) < sum(cold)
        assert seeded[-1] == 1
        assert outcome.sizing.status == "met"

    def test_final_distance_below_tolerance(self, outcome):
        assert outcome.records[-1].distance <= 2 * FF

    def test_monotone_improvement(self, outcome):
        finite = [r.distance for r in outcome.records
                  if r.distance != float("inf")]
        assert finite[-1] == min(finite)

    def test_sizing_time_under_two_minutes(self, outcome):
        assert outcome.elapsed < 120.0

    def test_repeatable(self, tech, specs, outcome):
        """A second run converges to the same fold configuration."""
        again = LayoutOrientedSynthesizer(tech).run(
            specs, ParasiticMode.FULL, generate=False
        )
        first_folds = {d: p.nf for d, p in outcome.feedback.devices.items()}
        second_folds = {d: p.nf for d, p in again.feedback.devices.items()}
        assert first_folds == second_folds


class TestStatisticalReliability:
    """Paper §4: the verification interface 'permits to undergo
    statistical analysis to check the reliability of the synthesized
    circuit' — run it on the converged case-4 design."""

    @pytest.fixture(scope="class")
    def statistics(self, outcome, specs, plan, results_dir):
        from repro.analysis.montecarlo import run_monte_carlo
        from repro.sizing.specs import ParasiticMode

        bench = plan.build_testbench(
            outcome.sizing, specs, ParasiticMode.FULL, outcome.feedback
        )
        result = run_monte_carlo(bench, runs=40, seed=2026)
        sigma = result.std("offset_voltage")
        mean = result.mean("offset_voltage")
        text = (
            f"case-4 offset statistics over 40 mismatch samples:\n"
            f"  mean  {mean * 1e3:7.3f} mV\n"
            f"  sigma {sigma * 1e3:7.3f} mV\n"
            f"  worst {result.worst('offset_voltage') * 1e3:7.3f} mV\n"
        )
        (results_dir / "reliability_mc.txt").write_text(text)
        print("\n" + text)
        return result

    def test_offset_sigma_sub_millivolt_scale(self, statistics):
        """Large matched devices keep random offset in the mV range."""
        assert statistics.std("offset_voltage") < 10e-3

    def test_mean_near_systematic_value(self, statistics, outcome):
        systematic = outcome.sizing.predicted.offset_voltage
        assert statistics.mean("offset_voltage") == pytest.approx(
            systematic, abs=3 * statistics.std("offset_voltage")
        )
