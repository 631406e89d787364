"""Verification-by-simulation interface.

"A verification interface has also been developed which controls a
verification-by-simulation process.  It also permits to undergo
statistical analysis to check the reliability of the synthesized circuit"
(paper section 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.ensemble import measure_ota_ensemble
from repro.analysis.metrics import OtaMetrics, measure_ota
from repro.analysis.montecarlo import MonteCarloResult, run_monte_carlo
from repro.circuit.testbench import OtaTestbench
from repro.sizing.specs import OtaSpecs


@dataclass
class VerificationReport:
    """Nominal + statistical verification outcome.

    ``metrics`` is None when the circuit could not even be measured (e.g.
    a corner starves the bias so badly the amplifier has no gain) — which
    also counts as a failed verification.
    """

    metrics: Optional[OtaMetrics]
    meets_gbw: bool
    meets_phase_margin: bool
    all_saturated: bool
    statistics: Optional[MonteCarloResult] = None
    failure_reason: Optional[str] = None

    @property
    def passed(self) -> bool:
        return (
            self.metrics is not None
            and self.meets_gbw
            and self.meets_phase_margin
            and self.all_saturated
        )

    def failures(self) -> Dict[str, bool]:
        return {
            "gbw": self.meets_gbw,
            "phase_margin": self.meets_phase_margin,
            "saturation": self.all_saturated,
        }


class VerificationInterface:
    """Runs simulation-based verification on a synthesized testbench."""

    def __init__(self, gbw_tolerance: float = 0.03, pm_tolerance: float = 1.0):
        self.gbw_tolerance = gbw_tolerance
        self.pm_tolerance = pm_tolerance

    def verify(
        self,
        testbench: OtaTestbench,
        specs: OtaSpecs,
        statistical_runs: int = 0,
        seed: int = 1234,
    ) -> VerificationReport:
        """Measure the circuit and compare against the specifications.

        With ``statistical_runs > 0`` a Monte-Carlo mismatch analysis
        (offset statistics) is included.
        """
        metrics = measure_ota(testbench)
        statistics = None
        if statistical_runs > 0:
            statistics = run_monte_carlo(
                testbench, runs=statistical_runs, seed=seed
            )
        return self.report_from_metrics(metrics, specs, statistics)

    def report_from_metrics(
        self,
        metrics: OtaMetrics,
        specs: OtaSpecs,
        statistics: Optional[MonteCarloResult] = None,
    ) -> VerificationReport:
        """Spec comparison on already-measured metrics.

        Shared by :meth:`verify` and the ensemble corner path, so both
        apply identical tolerances.
        """
        meets_gbw = metrics.gbw >= specs.gbw * (1.0 - self.gbw_tolerance)
        meets_pm = (
            metrics.phase_margin_deg >= specs.phase_margin - self.pm_tolerance
        )
        return VerificationReport(
            metrics=metrics,
            meets_gbw=meets_gbw,
            meets_phase_margin=meets_pm,
            all_saturated=metrics.all_saturated(),
            statistics=statistics,
        )

    def verify_corners(
        self,
        plan,
        result,
        specs: OtaSpecs,
        corners: Optional[Dict[str, object]] = None,
    ) -> Dict[str, VerificationReport]:
        """Re-verify a sizing result across process corners.

        ``plan`` must expose ``build_testbench``; each corner technology
        replaces the devices while the sizes and biases stay fixed — the
        deterministic worst-case companion to the Monte-Carlo analysis.

        All corner replicas are measured as members of one
        :func:`~repro.analysis.ensemble.measure_ota_ensemble` call — one
        compiled program and one stacked small-signal solve instead of a
        full re-compile per corner (members that cannot be stacked are
        measured one at a time).  A corner that cannot be measured gets
        a failed report carrying the error.
        """
        from repro.technology.corners import all_corners

        if corners is None:
            corners = all_corners(plan.technology)
        benches: Dict[str, object] = {}
        for name, technology in corners.items():
            corner_plan = type(plan)(technology, plan.model_level)
            benches[name] = corner_plan.build_testbench(result, specs)

        reports: Dict[str, VerificationReport] = {}
        measurements = measure_ota_ensemble(list(benches.values()))
        for name, measured in zip(benches, measurements):
            if measured.metrics is None:
                reports[name] = VerificationReport(
                    metrics=None,
                    meets_gbw=False,
                    meets_phase_margin=False,
                    all_saturated=False,
                    failure_reason=measured.error,
                )
            else:
                reports[name] = self.report_from_metrics(
                    measured.metrics, specs
                )
        return reports
