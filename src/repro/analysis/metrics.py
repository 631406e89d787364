"""OTA performance measurement.

:func:`measure_ota` reproduces, on our simulator, the measurement set the
paper reports in Table 1 for each sizing case: DC gain, GBW, phase margin,
slew rate, CMRR, offset voltage, output resistance, input noise (integrated,
thermal density, flicker density) and power dissipation.

The DC operating point is established in a unity-feedback configuration
(output tied to the inverting input), which both defines the bias point of a
high-gain open-loop amplifier robustly and yields the input-referred offset
directly; the AC analyses then run open-loop at that operating point.

:class:`OtaMeasurement` splits the measurement into two stages on one DC
solve: the loop gain (GBW and phase margin, all a sizing iteration reads)
and the full suite, which the sizing plans run once on the accepted sizing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.analysis.ac import logspace_frequencies
from repro.analysis.dcop import DcSolution, solve_dc
from repro.analysis.noise import NoiseAnalysis
from repro.analysis.stamps import LinearSystem
from repro.analysis.transfer import TransferFunction
from repro.circuit.net import canonical
from repro.circuit.elements import VoltageSource
from repro.circuit.testbench import OtaTestbench
from repro.errors import AnalysisError
from repro.units import db


@dataclass
class OtaMetrics:
    """Measured OTA performance (the rows of the paper's Table 1)."""

    dc_gain_db: float
    gbw: float
    phase_margin_deg: float
    slew_rate: float
    cmrr_db: float
    offset_voltage: float
    output_resistance: float
    input_noise_rms: float
    thermal_noise_density: float
    flicker_noise_density: float
    power: float
    psrr_db: float = 0.0
    """Supply rejection: differential gain over supply-to-output gain."""
    gain_margin_db: Optional[float] = None
    output_capacitance: float = 0.0
    device_regions: Dict[str, str] = field(default_factory=dict)
    saturation_margins: Dict[str, float] = field(default_factory=dict)

    def all_saturated(self, exclude: Tuple[str, ...] = ()) -> bool:
        """True when every (non-excluded) device is saturated."""
        return all(
            region == "saturation"
            for name, region in self.device_regions.items()
            if name not in exclude
        )


def feedback_dc_solution(tb: OtaTestbench) -> Tuple[DcSolution, float]:
    """DC solve in unity feedback; returns (solution, offset voltage).

    The inverting-input source is replaced by a 0 V source from the output,
    forcing ``v(inn) = v(out)``; with the non-inverting input at the common
    mode, the converged output sits at ``vcm + offset``.
    """
    clone = tb.circuit.clone(tb.circuit.name + "_fb")
    clone.remove(tb.source_neg)
    clone.add_vsource("_fb", tb.input_neg_net, tb.output_net, dc=0.0)
    solution = solve_dc(clone)
    offset = solution.voltage(tb.output_net) - tb.common_mode_voltage()
    return solution, offset


def output_node_capacitance(tb: OtaTestbench, dc: DcSolution) -> float:
    """Total capacitance loading the output node, F.

    Sums explicit capacitors plus the linearised device capacitances whose
    one terminal is the output — the denominator of the slew-rate estimate.
    """
    out = canonical(tb.output_net)
    total = 0.0
    for capacitor in tb.circuit.capacitors:
        if out in (canonical(capacitor.a), canonical(capacitor.b)):
            total += capacitor.value
    for name, device in dc.devices.items():
        element = device.element
        op = device.op
        drain = canonical(device.eff_drain)
        source = canonical(device.eff_source)
        gate = canonical(element.g)
        bulk = canonical(element.b)
        if drain == out:
            total += op.cdb
            if gate != out:
                total += op.cgd
        if source == out:
            total += op.csb
            if gate != out:
                total += op.cgs
        if gate == out:
            total += op.cgs + op.cgd + op.cgb
    return total


class OtaMeasurement:
    """One OTA testbench measured in two stages on one DC solve.

    Construction runs the unity-feedback DC solve
    (:func:`feedback_dc_solution`) and linearises the circuit once into a
    :class:`~repro.analysis.stamps.LinearSystem`.
    The two stages then share that operating point:

    * :meth:`loop_gain` solves only the differential sweep and returns
      ``(gbw, phase_margin_deg)`` — all a sizing-plan iteration reads;
    * :meth:`metrics` runs the full Table-1 suite (:func:`measure_ota`).

    Completing a handle after :meth:`loop_gain` never solves the DC point
    again, so a sizing plan that measures every iteration's loop gain and
    completes only the accepted iteration leaves the warm-start seed chain
    (:mod:`repro.analysis.warmstart`) exactly where a full measurement of
    every iteration would.  The one-column differential solve equals the
    differential column of the full batched solve bit for bit (checked
    over jittered sized designs in ``tests/test_metrics.py``), so the
    loop gain a plan iterates on is the one its ``predicted`` reports.
    """

    def __init__(
        self,
        tb: OtaTestbench,
        f_start: float = 1.0,
        f_stop: float = 3.0e9,
        points_per_decade: int = 24,
    ):
        self.tb = tb
        self.f_start = f_start
        self.points_per_decade = points_per_decade
        self.dc, self.offset = feedback_dc_solution(tb)
        self.frequencies = logspace_frequencies(
            f_start, f_stop, points_per_decade
        )
        diff_drive = {tb.source_pos: 0.5, tb.source_neg: -0.5}
        cm_drive = {tb.source_pos: 1.0, tb.source_neg: 1.0}
        silence = {
            name: 0.0
            for name in (
                s.name for s in tb.circuit if isinstance(s, VoltageSource)
            )
            if name not in (tb.source_pos, tb.source_neg)
        }
        supply_drive = {
            **{name: 0.0 for name in silence},
            tb.source_pos: 0.0,
            tb.source_neg: 0.0,
        }
        for supply in tb.supply_sources:
            supply_drive[supply] = 1.0
        self._dm_drive = {**silence, **diff_drive}
        self._cm_drive = {**silence, **cm_drive}
        self._supply_drive = supply_drive

        self.system = LinearSystem(tb.circuit, self.dc)
        self._out_node = self.system.index.node(tb.output_net)
        if self._out_node < 0:
            raise AnalysisError("OTA output cannot be the ground net")

    def loop_gain(self) -> Tuple[float, float]:
        """``(gbw, phase_margin_deg)`` from the differential sweep alone.

        The sweep is solved a decade (``points_per_decade`` points) at a
        time from the low end and stops once it holds the first unity
        crossing and one point past it: the crossing, the unwrapped phase
        and its interpolation read only that prefix, and each frequency's
        matrix is factored on its own, so the result equals the full
        sweep's bit for bit.
        """
        with telemetry.span(
            "analysis.loop_gain", circuit=self.tb.circuit.name
        ):
            rhs = self.system.rhs(self._dm_drive)
            frequencies = self.frequencies
            step = self.points_per_decade
            values = np.empty(frequencies.size, dtype=complex)
            solved = 0
            while solved < frequencies.size:
                chunk = frequencies[solved:solved + step]
                values[solved:solved + chunk.size] = self.system.solve_batch(
                    chunk, rhs
                )[:, self._out_node, 0]
                solved += chunk.size
                gains = TransferFunction(
                    frequencies[:solved], values[:solved]
                ).magnitude_db
                crossing = np.flatnonzero((gains[:-1] >= 0.0) & (gains[1:] < 0.0))
                if crossing.size and crossing[0] + 2 < solved:
                    break
            return _loop_gain(
                TransferFunction(
                    frequencies[:solved].copy(), values[:solved].copy()
                )
            )

    def metrics(self) -> OtaMetrics:
        """The full Table-1 suite at the stored operating point.

        The differential, common-mode and supply sweeps plus the impedance
        probe are four right-hand-side columns of a single batched solve,
        and the noise injections ride along on the same system.
        """
        tb = self.tb
        dc = self.dc
        frequencies = self.frequencies
        system = self.system
        out_node = self._out_node
        noise_analysis = NoiseAnalysis(
            tb.circuit, dc, tb.output_net, self._dm_drive, system=system
        )
        # A current probe stamps nothing into G/C, so the impedance
        # column is a unit injection into the output on the very same
        # system; the noise injections ride along too, so the whole
        # measurement suite is one factorisation of the stacked
        # (F, n, n) tensor.
        zout_column = system.injection_columns([(-1, out_node)])[:, 0]
        columns = np.concatenate(
            [
                np.stack(
                    [
                        system.rhs(self._dm_drive),
                        system.rhs(self._cm_drive),
                        system.rhs(self._supply_drive),
                        zout_column,
                    ],
                    axis=1,
                ),
                noise_analysis.rhs_columns,
            ],
            axis=1,
        )
        solved = system.solve_batch(frequencies, columns)
        transfers = solved[:, out_node, :]
        dm = TransferFunction(frequencies.copy(), transfers[:, 0].copy())
        cm = TransferFunction(frequencies.copy(), transfers[:, 1].copy())
        ps = TransferFunction(frequencies.copy(), transfers[:, 2].copy())
        output_resistance = float(abs(transfers[0, 3]))
        noise = noise_analysis.result_from_output_transfers(
            frequencies, transfers[:, 4:]
        )
        return _metrics_from_sweeps(
            tb, dc, self.offset, dm, cm, ps, output_resistance, noise
        )


def measure_ota(
    tb: OtaTestbench,
    f_start: float = 1.0,
    f_stop: float = 3.0e9,
    points_per_decade: int = 24,
) -> OtaMetrics:
    """Run the full Table-1 measurement suite on an OTA testbench.

    One :class:`OtaMeasurement` taken straight to :meth:`~OtaMeasurement.metrics`.
    """
    with telemetry.span("analysis.measure", circuit=tb.circuit.name):
        return OtaMeasurement(
            tb, f_start, f_stop, points_per_decade
        ).metrics()


def _loop_gain(dm: TransferFunction) -> Tuple[float, float]:
    """``(gbw, phase_margin_deg)`` of a differential transfer."""
    gbw = dm.unity_gain_frequency()
    if gbw is None:
        raise AnalysisError(
            "differential gain never crosses unity; widen the sweep"
        )
    phase_margin = dm.phase_margin()
    if phase_margin is None:
        raise AnalysisError("no phase margin: unity crossing not found")
    return gbw, phase_margin


def _metrics_from_sweeps(
    tb: OtaTestbench,
    dc: DcSolution,
    offset: float,
    dm: TransferFunction,
    cm: TransferFunction,
    ps: TransferFunction,
    output_resistance: float,
    noise,
) -> OtaMetrics:
    """Fold the raw sweeps into :class:`OtaMetrics`.

    Shared by the per-testbench path above and the stacked ensemble
    measurement (:func:`repro.analysis.ensemble.measure_ota_ensemble`),
    which produces the same sweeps from one batched solve.
    """
    gbw, phase_margin = _loop_gain(dm)

    cmrr = dm.magnitude[0] / max(cm.magnitude[0], 1e-30)
    psrr = dm.magnitude[0] / max(ps.magnitude[0], 1e-30)

    # Noise ------------------------------------------------------------------
    input_noise_rms = noise.integrated_input_noise(f_low=1.0, f_high=gbw)
    thermal_density = noise.input_density(max(gbw / 3.0, 1e5))
    flicker_density = noise.input_density(1.0e3)

    # Slew rate ---------------------------------------------------------------
    out_capacitance = output_node_capacitance(tb, dc)
    if tb.slew_devices:
        limit = min(abs(dc.devices[name].op.id) for name in tb.slew_devices)
    else:
        limit = 0.0
    slew_rate = limit / out_capacitance if out_capacitance > 0.0 else math.inf

    # DC bookkeeping ------------------------------------------------------------
    power = dc.total_supply_power()
    regions = {name: dev.op.region.value for name, dev in dc.devices.items()}
    margins = {
        name: dev.op.vds - dev.op.vdsat for name, dev in dc.devices.items()
    }

    return OtaMetrics(
        dc_gain_db=dm.dc_gain_db,
        gbw=gbw,
        phase_margin_deg=phase_margin,
        slew_rate=slew_rate,
        cmrr_db=db(cmrr),
        offset_voltage=offset,
        output_resistance=output_resistance,
        input_noise_rms=input_noise_rms,
        thermal_noise_density=thermal_density,
        flicker_noise_density=flicker_density,
        power=power,
        psrr_db=db(psrr),
        gain_margin_db=dm.gain_margin_db(),
        output_capacitance=out_capacitance,
        device_regions=regions,
        saturation_margins=margins,
    )
