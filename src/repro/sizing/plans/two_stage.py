"""Two-stage Miller OTA design plan.

The second topology in the tool, demonstrating the paper's point that the
hierarchical plan structure makes topologies cheap to add: this plan reuses
the same building blocks and iteration style as the folded-cascode plan.

Plan knowledge (classic two-stage recipe):

* Miller capacitor ``Cc = cc_ratio * CL`` (0.25 by default);
* ``gm1 = 2 pi GBW Cc`` sets the input pair current;
* the output stage transconductance is iterated until the phase margin
  target is met (the non-dominant pole sits at ``~gm6 / CL``);
* widths by model inversion at overdrives derived from the output range.

A re-size inside the layout-oriented loop starts from the previous
round's :class:`TwoStageKnobs` (passed as ``start``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import telemetry
from repro.analysis.metrics import OtaMeasurement
from repro.circuit.testbench import OtaTestbench
from repro.circuit.topologies.folded_cascode import DeviceSize
from repro.circuit.topologies.two_stage import (
    TWO_STAGE_DEVICES,
    TwoStageDesign,
    build_two_stage,
)
from repro.layout.parasitics import ParasiticReport
from repro.mos import make_model, width_for_current
from repro.mos.junction import DiffusionGeometry
from repro.resilience.budget import Budget
from repro.sizing.blocks import distribute_headroom, input_pair_current
from repro.sizing.plans.base import DesignPlan
from repro.sizing.specs import (
    OtaSpecs,
    ParasiticMode,
    SizingResult,
    spec_misses,
)
from repro.technology.process import Technology
from repro.units import UM


@dataclass(frozen=True)
class TwoStageKnobs:
    """The two-stage search state one sizing iteration starts from."""

    cc_eff: float
    """Effective compensation load the input-pair gm is set for, F."""
    gm6_factor: float
    """Output-stage gm over the input-pair gm scaled by ``CL / Cc``."""


class TwoStagePlan(DesignPlan):
    """Knowledge-based sizing of a Miller-compensated two-stage OTA."""

    topology = "two_stage"

    def __init__(
        self,
        technology: Technology,
        model_level: int = 1,
        veff_input: float = 0.15,
        cc_ratio: float = 0.25,
        max_iterations: int = 15,
        gbw_tolerance: float = 0.02,
        pm_tolerance: float = 1.0,
    ):
        super().__init__(technology, model_level)
        self.model_n = make_model(technology.nmos, model_level)
        self.model_p = make_model(technology.pmos, model_level)
        self.veff_input = veff_input
        self.cc_ratio = cc_ratio
        self.max_iterations = max_iterations
        self.gbw_tolerance = gbw_tolerance
        self.pm_tolerance = pm_tolerance
        self.lengths = {
            "m1": 1.0 * UM,
            "m2": 1.0 * UM,
            "m3": 1.0 * UM,
            "m4": 1.0 * UM,
            "m5": 1.0 * UM,
            "m6": 0.8 * UM,
            "m7": 0.8 * UM,
        }

    def config_key(self) -> tuple:
        """See :meth:`DesignPlan.config_key`; this plan is stateless."""
        return (
            self.topology,
            self.technology.fingerprint(),
            self.model_level,
            self.veff_input,
            self.cc_ratio,
            self.max_iterations,
            self.gbw_tolerance,
            self.pm_tolerance,
            tuple(sorted(self.lengths.items())),
        )

    def size(
        self,
        specs: OtaSpecs,
        mode: ParasiticMode = ParasiticMode.NONE,
        feedback: Optional[ParasiticReport] = None,
        budget: Optional[Budget] = None,
        start: Optional[TwoStageKnobs] = None,
    ) -> SizingResult:
        specs.validate()
        out_lo, out_hi = specs.output_range
        veff7, = distribute_headroom(out_lo, stages=1)
        veff6, = distribute_headroom(specs.vdd - out_hi, stages=1)
        veff_mirror = min(0.3, veff6 + 0.05)
        veff_tail = 0.2

        cc = self.cc_ratio * specs.cload
        cc_eff, gm6_factor = (
            (cc, 3.0) if start is None else (start.cc_eff, start.gm6_factor)
        )
        measurement = None
        result = None
        iterations = 0
        status = "iteration_cap"
        max_iterations = (
            self.max_iterations if budget is None
            else budget.sizing_iteration_cap(self.max_iterations)
        )

        for iteration in range(1, max_iterations + 1):
            if budget is not None:
                budget.check(
                    "sizing.iteration",
                    topology=self.topology,
                    iteration=iteration,
                )
            iterations = iteration
            gm1 = 2.0 * math.pi * specs.gbw * cc_eff
            id1 = input_pair_current(
                self.model_n, gm1, self.veff_input, self.lengths["m1"]
            )
            gm6 = gm6_factor * gm1 * specs.cload / cc
            id6 = input_pair_current(self.model_p, gm6, veff6, self.lengths["m6"])

            currents = {
                "m1": id1,
                "m2": id1,
                "m3": id1,
                "m4": id1,
                "m5": 2.0 * id1,
                "m6": id6,
                "m7": id6,
            }
            sizes: Dict[str, Tuple[float, float]] = {}
            spec_table = {
                "m1": (self.model_n, self.veff_input, 0.0),
                "m2": (self.model_n, self.veff_input, 0.0),
                "m3": (self.model_p, veff_mirror, 0.0),
                "m4": (self.model_p, veff_mirror, 0.0),
                "m5": (self.model_n, veff_tail, 0.0),
                "m6": (self.model_p, veff6, 0.0),
                "m7": (self.model_n, veff7, 0.0),
            }
            for device, (model, veff, vsb) in spec_table.items():
                width = width_for_current(
                    model,
                    currents[device],
                    self.lengths[device],
                    veff,
                    vds=specs.vdd / 2.0,
                    vsb=vsb,
                )
                sizes[device] = (width, self.lengths[device])

            vbn = self.model_n.threshold(0.0) + veff_tail
            result = SizingResult(
                sizes=sizes,
                currents=currents,
                biases={"vbn": vbn},
                overdrives={
                    "input": self.veff_input,
                    "mirror": veff_mirror,
                    "tail": veff_tail,
                    "out_p": veff6,
                    "out_n": veff7,
                },
                iterations=iteration,
                mode=mode,
                knobs=TwoStageKnobs(cc_eff, gm6_factor),
            )
            # Stash the compensation value for build_testbench.
            result.biases["_cc"] = cc

            testbench = self.build_testbench(result, specs, mode, feedback)
            measurement = OtaMeasurement(testbench)
            gbw, phase_margin = measurement.loop_gain()

            gbw_error = (gbw - specs.gbw) / specs.gbw
            pm_error = specs.phase_margin - phase_margin
            gbw_ok = abs(gbw_error) <= self.gbw_tolerance
            pm_ok = abs(pm_error) <= self.pm_tolerance
            if gbw_ok and pm_ok:
                status = "met"
                break
            cc_eff = gm1 / (2.0 * math.pi * gbw)
            if pm_error > self.pm_tolerance:
                gm6_factor *= 1.0 + min(pm_error / 30.0, 0.5)
            elif pm_error < -4.0 * self.pm_tolerance and gm6_factor > 1.5:
                gm6_factor *= max(0.8, 1.0 + pm_error / 100.0)

        assert result is not None and measurement is not None
        # Every loop exit leaves the last iteration's handle here; its full
        # suite reuses that iteration's DC solve.
        result.predicted = measurement.metrics()
        result.iterations = iterations
        result.status = status
        result.misses = spec_misses(specs, gbw, phase_margin, gbw_ok, pm_ok)
        if telemetry.enabled():
            telemetry.count("sizing.iterations", iterations)
        vth_n = self.model_n.threshold(0.0)
        result.computed_icmr = (
            vth_n + self.veff_input + veff_tail + 0.05,
            specs.vdd - veff_mirror - abs(self.model_p.params.vto) + vth_n,
        )
        result.computed_output_range = (veff7 + 0.05, specs.vdd - veff6 - 0.05)
        return result

    def _device_geometry(
        self,
        width: float,
        mode: ParasiticMode,
        feedback: Optional[ParasiticReport],
        device: str,
    ) -> Tuple[DiffusionGeometry, int]:
        if mode is ParasiticMode.NONE:
            return DiffusionGeometry(ad=0.0, pd=0.0, as_=0.0, ps=0.0), 1
        if mode.uses_layout and feedback is not None and device in feedback.devices:
            info = feedback.devices[device]
            return info.geometry, info.nf
        return (
            DiffusionGeometry.single_fold(width, self.technology.default_ldif),
            1,
        )

    def build_testbench(
        self,
        result: SizingResult,
        specs: OtaSpecs,
        mode: ParasiticMode = ParasiticMode.NONE,
        feedback: Optional[ParasiticReport] = None,
    ) -> OtaTestbench:
        device_sizes: Dict[str, DeviceSize] = {}
        for device in TWO_STAGE_DEVICES:
            width, length = result.sizes[device]
            geometry, nf = self._device_geometry(width, mode, feedback, device)
            device_sizes[device] = DeviceSize(
                w=width, l=length, nf=nf, geometry=geometry
            )
        extra_net_caps: Dict[str, float] = {}
        coupling_caps: Dict[tuple, float] = {}
        if mode is ParasiticMode.FULL and feedback is not None:
            extra_net_caps.update(feedback.net_capacitance)
            for net, value in feedback.well_capacitance.items():
                if net not in ("vdd!", "0"):
                    extra_net_caps[net] = extra_net_caps.get(net, 0.0) + value
            coupling_caps.update(feedback.coupling)
        design = TwoStageDesign(
            technology=self.technology,
            sizes=device_sizes,
            vbn=result.biases["vbn"],
            vdd=specs.vdd,
            vcm=specs.measurement_vcm,
            cload=specs.cload,
            cc=result.biases.get("_cc", self.cc_ratio * specs.cload),
            model_level=self.model_level,
            extra_net_caps=extra_net_caps,
            coupling_caps=coupling_caps,
        )
        return build_two_stage(design)
