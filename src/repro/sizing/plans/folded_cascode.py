"""Folded-cascode OTA design plan (paper section 4 + Figure 4).

Sizing procedure, following COMDIAC's structure:

1. fix the DC operating point: overdrives from the output-range and ICMR
   specifications, bias voltages from the exact (body-effect-aware)
   threshold expressions;
2. heuristically estimate the input-pair current from the GBW target and
   the *effective* load (specified load + whatever parasitic knowledge the
   current mode provides);
3. compute all widths by model inversion at the chosen operating point;
4. evaluate performance (with the shared device models) and iterate
   monotonically: cascode/mirror lengths shrink while the phase margin is
   short (their junction and gate capacitance loads the folding and mirror
   nodes), then the cascode-branch current ratio rises; a new current
   estimation closes the GBW error.

Overestimated parasitics (Table 1 case 2) therefore push lengths to the
technology minimum and currents up — reproducing the paper's observation
that case 2 wastes power and loses gain, output resistance and noise.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro import telemetry
from repro.analysis.metrics import OtaMeasurement
from repro.circuit.testbench import OtaTestbench
from repro.circuit.topologies.folded_cascode import (
    FOLDED_CASCODE_DEVICES,
    DeviceSize,
    FoldedCascodeDesign,
    build_folded_cascode,
)
from repro.layout.parasitics import ParasiticReport
from repro.mos import make_model, width_for_current
from repro.mos.junction import DiffusionGeometry
from repro.resilience.budget import Budget
from repro.sizing.blocks import (
    cascode_bias_chain,
    computed_ranges,
    distribute_headroom,
    input_pair_current,
    tail_overdrive_limit,
)
from repro.sizing.plans.base import DesignPlan
from repro.sizing.specs import OtaSpecs, ParasiticMode, SizingResult
from repro.technology.process import Technology
from repro.units import UM

#: Device name -> sizing role.
DEVICE_ROLE = {
    "mp1": "input",
    "mp2": "input",
    "mp5": "tail",
    "mn5": "sink",
    "mn6": "sink",
    "mn1c": "ncas",
    "mn2c": "ncas",
    "mp3": "mirror",
    "mp4": "mirror",
    "mp3c": "pcas",
    "mp4c": "pcas",
}

_P_ROLES = ("input", "tail", "mirror", "pcas")


class FoldedCascodePlan(DesignPlan):
    """Knowledge-based sizing of the paper's folded-cascode OTA."""

    topology = "folded_cascode"

    def __init__(
        self,
        technology: Technology,
        model_level: int = 1,
        veff_input: float = 0.18,
        initial_lengths: Optional[Dict[str, float]] = None,
        max_iterations: int = 30,
        gbw_tolerance: float = 0.01,
        pm_tolerance: float = 0.75,
        kappa_floor: float = 0.6,
        max_cascode_length: float = 3.0 * UM,
    ):
        super().__init__(technology, model_level)
        self.model_n = make_model(technology.nmos, model_level)
        self.model_p = make_model(technology.pmos, model_level)
        self.veff_input = veff_input
        self.max_iterations = max_iterations
        self.gbw_tolerance = gbw_tolerance
        self.pm_tolerance = pm_tolerance
        self.kappa_floor = kappa_floor
        self.max_cascode_length = max_cascode_length
        minimum = technology.feature_size
        self.min_length = minimum
        self.initial_lengths = dict(
            initial_lengths
            or {
                "input": 1.0 * UM,
                "tail": 1.0 * UM,
                "sink": 1.0 * UM,
                "ncas": 1.0 * UM,
                "mirror": 1.0 * UM,
                "pcas": 1.0 * UM,
            }
        )

    def config_key(self) -> tuple:
        """Everything :meth:`size` reads besides its arguments.

        The plan is stateless across calls — every ``size()`` restarts
        from ``initial_lengths`` — so this tuple plus the call inputs
        (specs, mode, feedback, warm-start session state) fully
        determines the result, making whole sizing rounds safe to
        memoize on content.
        """
        return (
            self.topology,
            self.technology.fingerprint(),
            self.model_level,
            self.veff_input,
            self.max_iterations,
            self.gbw_tolerance,
            self.pm_tolerance,
            self.kappa_floor,
            self.max_cascode_length,
            self.min_length,
            tuple(sorted(self.initial_lengths.items())),
        )

    # -- Operating point ------------------------------------------------------

    def _overdrives(self, specs: OtaSpecs) -> Dict[str, float]:
        """Overdrives from the voltage-range specifications."""
        out_lo, out_hi = specs.output_range
        veff_sink, veff_ncas = distribute_headroom(out_lo)
        veff_mirror, veff_pcas = distribute_headroom(specs.vdd - out_hi)
        veff_tail = tail_overdrive_limit(
            self.model_p, specs.vdd, specs.input_cm_range[1], self.veff_input
        )
        return {
            "input": self.veff_input,
            "tail": veff_tail,
            "sink": veff_sink,
            "ncas": veff_ncas,
            "mirror": veff_mirror,
            "pcas": veff_pcas,
        }

    # -- Geometry ----------------------------------------------------------------

    def _widths(
        self,
        currents: Dict[str, float],
        lengths: Dict[str, float],
        veff: Dict[str, float],
        bias,
        vdd: float,
    ) -> Dict[str, Tuple[float, float]]:
        """Widths by model inversion at per-device (vds, vsb) estimates."""
        sizes: Dict[str, Tuple[float, float]] = {}
        v_fold = bias.nodes["fold"]
        v_tail = bias.nodes["tail"]
        v_x = bias.nodes["x"]
        v_mir = bias.nodes["mir"]
        vout_mid = vdd / 2.0

        vds_vsb = {
            "input": (max(v_tail - v_fold, veff["input"] + 0.1), vdd - v_tail),
            "tail": (vdd - v_tail, 0.0),
            "sink": (v_fold, 0.0),
            "ncas": (max(v_mir - v_fold, veff["ncas"] + 0.1), v_fold),
            "mirror": (vdd - v_x, 0.0),
            "pcas": (max(v_x - v_mir, veff["pcas"] + 0.1), vdd - v_x),
        }
        for device, role in DEVICE_ROLE.items():
            model = self.model_p if role in _P_ROLES else self.model_n
            vds, vsb = vds_vsb[role]
            width = width_for_current(
                model,
                currents[device],
                lengths[role],
                veff[role],
                vds=max(vds, veff[role] + 0.05),
                vsb=max(vsb, 0.0),
            )
            sizes[device] = (width, lengths[role])
        return sizes

    def _currents(self, id1: float, kappa: float) -> Dict[str, float]:
        i_casc = kappa * id1
        i_sink = id1 + i_casc
        return {
            "mp1": id1,
            "mp2": id1,
            "mp5": 2.0 * id1,
            "mn5": i_sink,
            "mn6": i_sink,
            "mn1c": i_casc,
            "mn2c": i_casc,
            "mp3": i_casc,
            "mp4": i_casc,
            "mp3c": i_casc,
            "mp4c": i_casc,
        }

    # -- Main loop ------------------------------------------------------------------

    def _veff_for_gm_and_current(
        self, gm: float, current: float, length: float
    ) -> float:
        """Overdrive at which a device carrying ``current`` shows ``gm``.

        Bisection on ``Id(veff)/gm(veff) = f/f' = current/gm`` — exactly
        ``veff/2`` for the square law, degradation-aware for level 3.
        """
        target = current / gm
        lo, hi = 0.08, 0.6
        for _ in range(60):
            mid = (lo + hi) / 2.0
            ratio = (
                self.model_p._saturation_current_factor(mid, length)
                / self.model_p._saturation_current_factor_derivative(
                    mid, length
                )
            )
            if ratio < target:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    def size(
        self,
        specs: OtaSpecs,
        mode: ParasiticMode = ParasiticMode.NONE,
        feedback: Optional[ParasiticReport] = None,
        budget: Optional[Budget] = None,
    ) -> SizingResult:
        specs.validate()
        veff = self._overdrives(specs)

        lengths = dict(self.initial_lengths)
        kappa = 1.0
        cl_eff = specs.cload
        measurement = None
        result = None
        iterations = 0
        bias = None
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
            gm1 = 2.0 * math.pi * specs.gbw * cl_eff
            id1 = input_pair_current(
                self.model_p, gm1, veff["input"], lengths["input"]
            )
            if specs.slew_rate is not None:
                # The tail (2 id1) must slew the effective load; when the
                # slew demand exceeds the gm-driven current, spend the
                # surplus as a larger input overdrive so gm (and GBW) stay
                # on target instead of overshooting.
                id1_slew = specs.slew_rate * cl_eff / 2.0
                if id1_slew > id1:
                    id1 = id1_slew
                    veff_max = max(
                        self.veff_input,
                        specs.vdd - specs.input_cm_range[1]
                        - self.model_p.threshold(0.0) - 0.12 - 0.05,
                    )
                    veff["input"] = min(
                        self._veff_for_gm_and_current(
                            gm1, id1, lengths["input"]
                        ),
                        veff_max,
                    )
                    # A hotter input eats the tail's ICMR headroom.
                    veff["tail"] = tail_overdrive_limit(
                        self.model_p, specs.vdd,
                        specs.input_cm_range[1], veff["input"],
                    )
            bias = cascode_bias_chain(
                self.model_n, self.model_p, specs.vdd, veff,
                specs.measurement_vcm,
            )
            currents = self._currents(id1, kappa)
            sizes = self._widths(currents, lengths, veff, bias, specs.vdd)

            result = SizingResult(
                sizes=sizes,
                currents=currents,
                biases=dict(bias.biases),
                overdrives=dict(veff),
                iterations=iteration,
                mode=mode,
            )
            testbench = self.build_testbench(result, specs, mode, feedback)
            measurement = OtaMeasurement(testbench)
            gbw, phase_margin = measurement.loop_gain()

            gbw_error = (gbw - specs.gbw) / specs.gbw
            pm_error = specs.phase_margin - phase_margin

            if (
                abs(gbw_error) <= self.gbw_tolerance
                and abs(pm_error) <= self.pm_tolerance
            ):
                break

            # New current estimation from the measured effective load.
            cl_eff = gm1 / (2.0 * math.pi * gbw)

            # Monotonic iteration on cascode/mirror lengths (then branch
            # current) until the phase margin lands on target.  A deficit
            # shortens the lengths (their gate/junction capacitance loads
            # the folding and mirror nodes); an overshoot banks the slack as
            # longer lengths (gain, output resistance) and a leaner cascode
            # branch (power).
            if pm_error > self.pm_tolerance:
                shrunk = False
                factor = max(0.78, 1.0 - pm_error / 80.0)
                for role in ("ncas", "pcas", "mirror"):
                    if lengths[role] > self.min_length * 1.01:
                        lengths[role] = max(self.min_length, lengths[role] * factor)
                        shrunk = True
                if not shrunk:
                    kappa = min(3.0, kappa * (1.0 + min(pm_error / 40.0, 0.3)))
            elif pm_error < -self.pm_tolerance:
                if kappa > self.kappa_floor * 1.01:
                    kappa = max(
                        self.kappa_floor, kappa * (1.0 + pm_error / 60.0)
                    )
                else:
                    grew = False
                    factor = min(1.3, 1.0 - pm_error / 70.0)
                    for role in ("ncas", "pcas", "mirror"):
                        if lengths[role] < self.max_cascode_length * 0.99:
                            lengths[role] = min(
                                self.max_cascode_length, lengths[role] * factor
                            )
                            grew = True
                    if not grew:
                        break  # both knobs exhausted; accept the overshoot

        assert result is not None and measurement is not None
        # Every loop exit leaves the last iteration's handle here; its full
        # suite reuses that iteration's DC solve.
        result.predicted = measurement.metrics()
        result.iterations = iterations
        if telemetry.enabled():
            telemetry.count("sizing.iterations", iterations)
        icmr, out_range = computed_ranges(
            self.model_n, self.model_p, specs.vdd, veff, bias
        )
        result.computed_icmr = icmr
        result.computed_output_range = out_range
        return result

    # -- Netlist construction -----------------------------------------------------------

    def _device_geometry(
        self,
        device: str,
        width: float,
        mode: ParasiticMode,
        feedback: Optional[ParasiticReport],
    ) -> Tuple[DiffusionGeometry, int]:
        """Junction geometry and fold count implied by the parasitic mode."""
        if mode is ParasiticMode.NONE:
            return DiffusionGeometry(ad=0.0, pd=0.0, as_=0.0, ps=0.0), 1
        if mode.uses_layout and feedback is not None and device in feedback.devices:
            info = feedback.devices[device]
            return info.geometry, info.nf
        # Case 2, and the first pass of the layout-aware modes: one fold.
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
        for device in FOLDED_CASCODE_DEVICES:
            width, length = result.sizes[device]
            geometry, nf = self._device_geometry(device, width, mode, feedback)
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

        design = FoldedCascodeDesign(
            technology=self.technology,
            sizes=device_sizes,
            biases=result.biases,
            vdd=specs.vdd,
            vcm=specs.measurement_vcm,
            cload=specs.cload,
            model_level=self.model_level,
            extra_net_caps=extra_net_caps,
            coupling_caps=coupling_caps,
        )
        return build_folded_cascode(design)
