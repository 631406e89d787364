"""Transient analysis.

Fixed-step backward-Euler integration over the nonlinear circuit: at each
step the resistive network is solved by Newton (re-using the DC stamps)
with every capacitance replaced by its companion model
``i = C (v - v_prev) / h``.  Device capacitances (gate and junction) are
re-linearised around the previous time point — a charge-conserving enough
treatment for the slewing/settling measurements this library needs.

The headline client is :func:`measure_slew_rate`: the paper reports slew
rate as a Table-1 row, and with this module the number is *measured* on a
unity-gain step response instead of estimated from ``I_tail / C_out``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.dcop import (
    DcSolution,
    _device_terminal_state,
    model_for,
    solve_dc,
)
from repro.analysis.mna import NodeIndex, solve_linear
from repro.analysis.stamps import StampProgram
from repro.circuit.elements import VoltageSource
from repro.circuit.netlist import Circuit
from repro.circuit.testbench import OtaTestbench
from repro.errors import AnalysisError, ConvergenceError
from repro.mos.junction import DiffusionGeometry


def step_waveform(
    low: float, high: float, t_step: float, t_rise: float = 1e-9
) -> Callable[[float], float]:
    """A step from ``low`` to ``high`` at ``t_step`` with linear rise."""

    def waveform(t: float) -> float:
        if t <= t_step:
            return low
        if t >= t_step + t_rise:
            return high
        return low + (high - low) * (t - t_step) / t_rise

    return waveform


@dataclass
class TransientResult:
    """Sampled node voltages over time."""

    times: np.ndarray
    voltages: Dict[str, np.ndarray]
    newton_iterations: int = 0

    def voltage(self, net: str) -> np.ndarray:
        if net.lower() in ("0", "gnd", "vss", "ground"):
            return np.zeros_like(self.times)
        return self.voltages[net]

    def slew_rate(
        self, net: str, t_start: float = 0.0, t_stop: Optional[float] = None
    ) -> float:
        """Maximum |dv/dt| of ``net`` within the window, V/s."""
        trace = self.voltage(net)
        mask = self.times >= t_start
        if t_stop is not None:
            mask &= self.times <= t_stop
        times = self.times[mask]
        values = trace[mask]
        if len(times) < 3:
            raise AnalysisError("slew window contains fewer than 3 samples")
        derivative = np.gradient(values, times)
        return float(np.max(np.abs(derivative)))

    def settling_time(
        self,
        net: str,
        target: float,
        tolerance: float,
        t_start: float = 0.0,
    ) -> Optional[float]:
        """First time after ``t_start`` the trace stays within tolerance.

        Returns None when the trace never settles inside the band.
        """
        trace = self.voltage(net)
        inside = np.abs(trace - target) <= tolerance
        inside &= self.times >= t_start
        for i in range(len(self.times)):
            if inside[i] and np.all(inside[i:]):
                return float(self.times[i])
        return None


def _device_capacitance_stamps(
    circuit: Circuit, index: NodeIndex, voltages: np.ndarray
) -> List[Tuple[int, int, float]]:
    """(node_a, node_b, C) entries for every device capacitance,
    linearised at the present iterate."""
    stamps: List[Tuple[int, int, float]] = []
    for mos in circuit.mos_devices:
        assert mos.params is not None
        model = model_for(mos)
        sign = mos.params.sign
        vd, vg, vs, vb = _device_terminal_state(mos, voltages, index)
        swapped = sign * (vd - vs) < 0.0
        if swapped:
            vd, vs = vs, vd
            drain, source = index.node(mos.s), index.node(mos.d)
        else:
            drain, source = index.node(mos.d), index.node(mos.s)
        gate, bulk = index.node(mos.g), index.node(mos.b)
        vgs = sign * (vg - vs) - mos.mismatch_vth
        vds = sign * (vd - vs)
        vsb = sign * (vs - vb)
        geometry = mos.geometry
        if geometry is not None and swapped:
            geometry = DiffusionGeometry(
                ad=geometry.as_, pd=geometry.ps,
                as_=geometry.ad, ps=geometry.pd,
            )
        op = model.operating_point(mos.w, mos.l, vgs, max(vds, 0.0), vsb,
                                   geometry)
        stamps.extend(
            (
                (gate, source, op.cgs),
                (gate, drain, op.cgd),
                (gate, bulk, op.cgb),
                (drain, bulk, op.cdb),
                (source, bulk, op.csb),
            )
        )
    return stamps


def run_transient(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    waveforms: Optional[Mapping[str, Callable[[float], float]]] = None,
    initial: Optional[DcSolution] = None,
    max_newton: int = 60,
) -> TransientResult:
    """Integrate the circuit from its DC state to ``t_stop``.

    ``waveforms`` maps voltage-source names to ``v(t)`` callables; other
    sources hold their DC values.  Backward Euler with per-step Newton;
    each Newton system is assembled from one shared
    :class:`~repro.analysis.stamps.StampProgram`, with the companion
    capacitors entering as scatter-add index arrays.
    """
    if dt <= 0.0 or t_stop <= dt:
        raise AnalysisError("need 0 < dt < t_stop")
    waveforms = dict(waveforms or {})
    for name in waveforms:
        element = circuit.element(name)
        if not isinstance(element, VoltageSource):
            raise AnalysisError(f"waveform target {name!r} is not a Vsource")

    work = circuit.clone(circuit.name + "_tran")
    index = NodeIndex(work)
    if initial is None:
        # DC state at t = 0 waveform values.
        for name, waveform in waveforms.items():
            source = work.element(name)
            assert isinstance(source, VoltageSource)
            source.dc = waveform(0.0)
        initial = solve_dc(work)

    size = index.size
    state = np.zeros(size)
    for net in index.nets:
        state[index.node(net)] = initial.voltage(net)
    for source in index.sources:
        state[index.branch(source.name)] = initial.source_currents.get(
            source.name, 0.0
        )

    steps = int(math.ceil(t_stop / dt))
    times = np.linspace(0.0, steps * dt, steps + 1)
    traces = {net: np.zeros(steps + 1) for net in index.nets}
    for net in index.nets:
        traces[net][0] = state[index.node(net)]

    fixed_caps = [
        (index.node(c.a), index.node(c.b), c.value)
        for c in work.capacitors
        if c.value > 0.0
    ]

    program = StampProgram(work, index)

    total_newton = 0
    previous = state.copy()
    for step in range(1, steps + 1):
        t = times[step]
        for name, waveform in waveforms.items():
            source = work.element(name)
            assert isinstance(source, VoltageSource)
            source.dc = waveform(t)

        # Device capacitances linearised at the previous accepted point.
        device_caps = _device_capacitance_stamps(work, index, previous)
        all_caps = fixed_caps + device_caps

        voltages = previous.copy()
        converged = False
        program.refresh_sources()
        # Companion models (i = C (v - v_prev) / dt) as index arrays;
        # ground maps to the padded trash slot whose voltage is pinned at
        # zero.
        node_a = np.array(
            [a if a >= 0 else size for a, _b, _v in all_caps],
            dtype=np.intp,
        )
        node_b = np.array(
            [b if b >= 0 else size for _a, b, _v in all_caps],
            dtype=np.intp,
        )
        c_over_dt = np.array([v / dt for _a, _b, v in all_caps])
        previous_pad = np.zeros(size + 1)
        previous_pad[:size] = previous
        companion = (node_a, node_b, c_over_dt, previous_pad)

        for iteration in range(1, max_newton + 1):
            residual, jacobian = program.residual_and_jacobian(
                voltages, gmin=1e-12, source_scale=1.0,
                companion=companion,
            )
            norm = float(np.max(np.abs(residual)))
            delta = solve_linear(jacobian, -residual)
            step_size = float(np.max(np.abs(delta))) if delta.size else 0.0
            if step_size > 0.5:
                delta *= 0.5 / step_size
            voltages += delta
            total_newton += 1
            if norm < 1e-9 and step_size < 1e-7:
                converged = True
                break
        if not converged:
            raise ConvergenceError(
                f"transient Newton failed at t = {t:.3e} s"
            )

        previous = voltages.copy()
        for net in index.nets:
            traces[net][step] = voltages[index.node(net)]

    traces["0"] = np.zeros(steps + 1)
    return TransientResult(
        times=times, voltages=traces, newton_iterations=total_newton
    )


def measure_slew_rate(
    tb: OtaTestbench,
    step_amplitude: float = 0.8,
    dt: Optional[float] = None,
    duration: Optional[float] = None,
) -> Tuple[float, TransientResult]:
    """Measured slew rate of an OTA in unity feedback, V/s.

    The amplifier is wired as a buffer (output to the inverting input) and
    the non-inverting input steps by ``step_amplitude``; the output's
    maximum |dv/dt| is the slew rate.  Returns the number and the raw
    transient for further inspection (settling time etc.).
    """
    circuit = tb.circuit.clone(tb.circuit.name + "_slew")
    circuit.remove(tb.source_neg)
    circuit.add_vsource("_fb", tb.input_neg_net, tb.output_net, dc=0.0)

    vcm = tb.common_mode_voltage()
    t_step = 20e-9
    if duration is None:
        duration = 400e-9
    if dt is None:
        dt = 1e-9
    waveform = step_waveform(
        vcm - step_amplitude / 2.0, vcm + step_amplitude / 2.0, t_step
    )
    result = run_transient(
        circuit, t_stop=duration, dt=dt,
        waveforms={tb.source_pos: waveform},
    )
    slew = result.slew_rate(tb.output_net, t_start=t_step)
    return slew, result
