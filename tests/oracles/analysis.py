"""Dense per-element MNA reference for the DC, AC and noise analyses.

Every element is stamped one at a time into dense numpy matrices, the DC
Newton re-stamps the whole circuit per iteration, and AC and noise
factorize ``G + j 2 pi f C`` one frequency at a time.  Slow, but each
line maps onto a textbook stamp, which is what makes it the oracle for
the compiled engine (:mod:`repro.analysis.stamps`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.analysis.ac import AcSolution, logspace_frequencies
from repro.analysis.dcop import (
    GMIN_SEQUENCE,
    DcSolution,
    _device_terminal_state,
    _initial_guess,
    _package_solution,
    model_for,
    worst_nodes_from_residual,
)
from repro.analysis.metrics import OtaMetrics, _metrics_from_sweeps
from repro.analysis.mna import NodeIndex, solve_linear
from repro.analysis.noise import NoiseResult
from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Mos,
    Resistor,
    VoltageSource,
)
from repro.circuit.netlist import Circuit
from repro.circuit.testbench import OtaTestbench
from repro.errors import AnalysisError
from repro.resilience import faults
from repro.resilience.policy import (
    GminRamp,
    SolverPolicy,
    SourceStepping,
    ramp_policy,
)
from repro.units import BOLTZMANN

#: The reference ladder: gmin continuation, then source stepping (no
#: direct fast path).
POLICY = SolverPolicy(rungs=(GminRamp(), SourceStepping()))


# -- Stamps ------------------------------------------------------------------


def stamp_conductance(matrix: np.ndarray, i: int, j: int, value: float) -> None:
    """Stamp a two-terminal conductance between matrix rows i and j.

    Either index may be -1 (ground).
    """
    if i >= 0:
        matrix[i, i] += value
        if j >= 0:
            matrix[i, j] -= value
    if j >= 0:
        matrix[j, j] += value
        if i >= 0:
            matrix[j, i] -= value


def stamp_vccs(
    matrix: np.ndarray,
    out_pos: int,
    out_neg: int,
    ctrl_pos: int,
    ctrl_neg: int,
    gm: float,
) -> None:
    """Stamp a voltage-controlled current source.

    Current ``gm * (v_ctrl_pos - v_ctrl_neg)`` flows from ``out_pos`` to
    ``out_neg`` through the source (out of out_pos node).
    """
    for out, sign_out in ((out_pos, 1.0), (out_neg, -1.0)):
        if out < 0:
            continue
        for ctrl, sign_ctrl in ((ctrl_pos, 1.0), (ctrl_neg, -1.0)):
            if ctrl < 0:
                continue
            matrix[out, ctrl] += sign_out * sign_ctrl * gm


def stamp_voltage_source(
    matrix: np.ndarray, rhs: np.ndarray, pos: int, neg: int, branch: int, value: float
) -> None:
    """Stamp an ideal voltage source with its branch-current row."""
    if pos >= 0:
        matrix[pos, branch] += 1.0
        matrix[branch, pos] += 1.0
    if neg >= 0:
        matrix[neg, branch] -= 1.0
        matrix[branch, neg] -= 1.0
    rhs[branch] += value


# -- DC ----------------------------------------------------------------------


def _evaluate_mos(
    mos: Mos, voltages: np.ndarray, index: NodeIndex
) -> Tuple[float, float, float, float, bool]:
    """Evaluate a MOS at the present iterate.

    Returns ``(i_ds, gm, gds, gmb, swapped)`` where ``i_ds`` is the current
    from the *effective* drain node to the effective source node, and the
    small-signal parameters are in forward convention.
    """
    assert mos.params is not None
    model = model_for(mos)
    sign = mos.params.sign
    vd, vg, vs, vb = _device_terminal_state(mos, voltages, index)
    swapped = sign * (vd - vs) < 0.0
    if swapped:
        vd, vs = vs, vd
    vgs = sign * (vg - vs) - mos.mismatch_vth
    vds = sign * (vd - vs)
    vsb = sign * (vs - vb)
    current, gm, gds, gmb, _region = model.evaluate(mos.w, mos.l, vgs, vds, vsb)
    beta_scale = 1.0 + mos.mismatch_beta
    current *= beta_scale
    gm *= beta_scale
    gds *= beta_scale
    gmb *= beta_scale
    return sign * current, gm, gds, gmb, swapped


def build_system(
    circuit: Circuit,
    index: NodeIndex,
    voltages: np.ndarray,
    gmin: float,
    source_scale: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Residual vector f(v) and Jacobian J(v) at the current iterate."""
    size = index.size
    jacobian = np.zeros((size, size))
    residual = np.zeros(size)

    def v_at(node: int) -> float:
        return 0.0 if node < 0 else float(voltages[node])

    def add_out(node: int, current: float) -> None:
        if node >= 0:
            residual[node] += current

    def add_jac(row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            jacobian[row, col] += value

    for element in circuit:
        if isinstance(element, Resistor):
            i = index.node(element.a)
            j = index.node(element.b)
            conductance = 1.0 / element.value
            current = conductance * (v_at(i) - v_at(j))
            add_out(i, current)
            add_out(j, -current)
            add_jac(i, i, conductance)
            add_jac(i, j, -conductance)
            add_jac(j, j, conductance)
            add_jac(j, i, -conductance)
        elif isinstance(element, Capacitor):
            continue  # open at DC
        elif isinstance(element, VoltageSource):
            pos = index.node(element.pos)
            neg = index.node(element.neg)
            branch = index.branch(element.name)
            i_branch = float(voltages[branch])
            add_out(pos, i_branch)
            add_out(neg, -i_branch)
            add_jac(pos, branch, 1.0)
            add_jac(neg, branch, -1.0)
            residual[branch] += v_at(pos) - v_at(neg) - element.dc * source_scale
            add_jac(branch, pos, 1.0)
            add_jac(branch, neg, -1.0)
        elif isinstance(element, CurrentSource):
            pos = index.node(element.pos)
            neg = index.node(element.neg)
            add_out(pos, element.dc * source_scale)
            add_out(neg, -element.dc * source_scale)
        elif isinstance(element, Mos):
            i_ds, gm, gds, gmb, swapped = _evaluate_mos(element, voltages, index)
            if swapped:
                drain = index.node(element.s)
                source = index.node(element.d)
            else:
                drain = index.node(element.d)
                source = index.node(element.s)
            gate = index.node(element.g)
            bulk = index.node(element.b)
            add_out(drain, i_ds)
            add_out(source, -i_ds)
            # d(i_ds)/d(v_x) in actual node voltages; the polarity signs
            # cancel as derived in the module docstring of repro.mos.model.
            for row, row_sign in ((drain, 1.0), (source, -1.0)):
                add_jac(row, drain, row_sign * gds)
                add_jac(row, gate, row_sign * gm)
                add_jac(row, source, row_sign * (-gm - gds - gmb))
                add_jac(row, bulk, row_sign * gmb)
        else:  # pragma: no cover - future element types
            raise NotImplementedError(f"DC stamp for {type(element).__name__}")

    # gmin shunts on every node.
    for node in range(index.node_count):
        residual[node] += gmin * float(voltages[node])
        jacobian[node, node] += gmin

    return residual, jacobian


def _newton(
    circuit: Circuit,
    index: NodeIndex,
    start: np.ndarray,
    gmin: float,
    source_scale: float = 1.0,
    max_iterations: int = 200,
    abs_tolerance: float = 1e-10,
    step_limit: float = 0.6,
) -> Tuple[np.ndarray, bool, int, float]:
    """Damped Newton from ``start``; returns ``(solution, converged,
    iterations, residual_norm)`` like ``StampProgram.newton``."""
    voltages = start.copy()
    residual_norm = float("inf")
    for iteration in range(1, max_iterations + 1):
        residual, jacobian = build_system(
            circuit, index, voltages, gmin, source_scale
        )
        residual_norm = float(np.max(np.abs(residual)))
        try:
            if faults.active():
                faults.maybe_raise("solve.linear")
            delta = solve_linear(jacobian, -residual)
        except Exception:
            return voltages, False, iteration, residual_norm
        max_step = float(np.max(np.abs(delta))) if delta.size else 0.0
        if max_step > step_limit:
            delta *= step_limit / max_step
        voltages += delta
        if residual_norm < abs_tolerance and max_step < 1e-9:
            return voltages, True, iteration, residual_norm
        if max_step < 1e-12 and residual_norm < 1e-6:
            # Stalled but electrically negligible residual.
            return voltages, True, iteration, residual_norm
    return voltages, False, max_iterations, residual_norm


class Backend:
    """Escalation-policy backend over the per-element stamping."""

    def __init__(self, circuit: Circuit, index: NodeIndex):
        self.circuit = circuit
        self.index = index

    @property
    def circuit_name(self) -> str:
        return self.circuit.name

    def initial_guess(self) -> np.ndarray:
        return _initial_guess(self.circuit, self.index)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.index.size)

    def newton(
        self,
        start: np.ndarray,
        gmin: float,
        source_scale: float = 1.0,
        max_iterations: int = 200,
    ) -> Tuple[np.ndarray, bool, int, float]:
        return _newton(
            self.circuit,
            self.index,
            start,
            gmin,
            source_scale=source_scale,
            max_iterations=max_iterations,
        )

    def worst_residual_nodes(
        self, voltages: np.ndarray, count: int = 5
    ) -> list:
        residual, _jacobian = build_system(
            self.circuit, self.index, voltages, gmin=0.0, source_scale=1.0
        )
        return worst_nodes_from_residual(self.index, residual, count)


def solve_dc(
    circuit: Circuit,
    gmin_sequence: Tuple[float, ...] = GMIN_SEQUENCE,
    max_iterations: int = 200,
) -> DcSolution:
    """Reference DC operating point (gmin ramp, then source stepping)."""
    circuit.validate()
    index = NodeIndex(circuit)
    backend = Backend(circuit, index)
    if gmin_sequence is GMIN_SEQUENCE:
        policy = POLICY
    else:
        policy = ramp_policy(tuple(gmin_sequence))
    voltages, report = policy.run(backend, max_iterations=max_iterations)
    return _package_solution(
        circuit,
        index,
        voltages,
        report.iterations,
        report.achieved_gmin,
        report=report,
    )


# -- AC ----------------------------------------------------------------------


def build_ac_matrices(
    circuit: Circuit, dc: DcSolution, index: Optional[NodeIndex] = None
) -> Tuple[np.ndarray, np.ndarray, NodeIndex]:
    """Real conductance and capacitance matrices ``(G, C, index)``.

    Voltage sources are stamped with zero value; drive amplitudes enter via
    the right-hand side built separately (:func:`build_ac_rhs`).
    """
    if index is None:
        index = NodeIndex(circuit)
    size = index.size
    conductance = np.zeros((size, size))
    capacitance = np.zeros((size, size))
    dummy_rhs = np.zeros(size)

    for element in circuit:
        if isinstance(element, Resistor):
            stamp_conductance(
                conductance,
                index.node(element.a),
                index.node(element.b),
                1.0 / element.value,
            )
        elif isinstance(element, Capacitor):
            stamp_conductance(
                capacitance,
                index.node(element.a),
                index.node(element.b),
                element.value,
            )
        elif isinstance(element, VoltageSource):
            stamp_voltage_source(
                conductance,
                dummy_rhs,
                index.node(element.pos),
                index.node(element.neg),
                index.branch(element.name),
                0.0,
            )
        elif isinstance(element, CurrentSource):
            continue  # open in small-signal unless driven (handled in RHS)
        elif isinstance(element, Mos):
            solution = dc.devices[element.name]
            op = solution.op
            drain = index.node(solution.eff_drain)
            source = index.node(solution.eff_source)
            gate = index.node(element.g)
            bulk = index.node(element.b)
            stamp_conductance(conductance, drain, source, op.gds)
            stamp_vccs(conductance, drain, source, gate, source, op.gm)
            stamp_vccs(conductance, drain, source, bulk, source, op.gmb)
            stamp_conductance(capacitance, gate, source, op.cgs)
            stamp_conductance(capacitance, gate, drain, op.cgd)
            stamp_conductance(capacitance, gate, bulk, op.cgb)
            stamp_conductance(capacitance, drain, bulk, op.cdb)
            stamp_conductance(capacitance, source, bulk, op.csb)
        else:  # pragma: no cover - future element types
            raise NotImplementedError(f"AC stamp for {type(element).__name__}")

    return conductance, capacitance, index


def build_ac_rhs(
    circuit: Circuit,
    index: NodeIndex,
    overrides: Optional[Dict[str, complex]] = None,
) -> np.ndarray:
    """AC excitation vector from each source's ``ac`` field, with
    ``overrides`` (source name to amplitude) replacing stored values."""
    rhs = np.zeros(index.size, dtype=complex)
    overrides = overrides or {}
    for element in circuit:
        if isinstance(element, VoltageSource):
            amplitude = overrides.get(element.name, element.ac)
            rhs[index.branch(element.name)] += amplitude
        elif isinstance(element, CurrentSource):
            amplitude = overrides.get(element.name, element.ac)
            if amplitude:
                pos = index.node(element.pos)
                neg = index.node(element.neg)
                if pos >= 0:
                    rhs[pos] -= amplitude
                if neg >= 0:
                    rhs[neg] += amplitude
    return rhs


def ac_sweep(
    circuit: Circuit,
    dc: DcSolution,
    frequencies: Iterable[float],
    overrides: Optional[Dict[str, complex]] = None,
) -> AcSolution:
    """Reference small-signal sweep, one dense solve per frequency."""
    freq_array = np.asarray(list(frequencies), dtype=float)
    conductance, capacitance, index = build_ac_matrices(circuit, dc)
    rhs = build_ac_rhs(circuit, index, overrides)
    solutions = np.zeros((freq_array.size, index.size), dtype=complex)
    for i, frequency in enumerate(freq_array):
        omega = 2.0 * np.pi * frequency
        matrix = conductance + 1j * omega * capacitance
        solutions[i] = solve_linear(matrix, rhs)
    return AcSolution(frequencies=freq_array, index=index, solutions=solutions)


def output_impedance(
    circuit: Circuit,
    dc: DcSolution,
    output_net: str,
    frequencies: Iterable[float],
):
    """Impedance into ``output_net`` with every drive silenced."""
    probe = circuit.clone()
    probe.add_isource("_zout_probe", "0", output_net, dc=0.0, ac=1.0)
    overrides = {
        e.name: 0.0
        for e in probe
        if isinstance(e, (VoltageSource, CurrentSource))
        and e.name != "_zout_probe"
    }
    return ac_sweep(probe, dc, frequencies, overrides).transfer(output_net)


# -- Noise -------------------------------------------------------------------


def noise(
    circuit: Circuit,
    dc: DcSolution,
    output_net: str,
    frequencies: Iterable[float],
    input_overrides: Optional[Dict[str, complex]] = None,
    temperature: float = 300.15,
) -> NoiseResult:
    """Reference noise run: per frequency, one dense solve against one
    unit-injection column per noise source plus the signal drive, with
    every source PSD evaluated at that frequency."""
    freq_array = np.asarray(list(frequencies), dtype=float)
    conductance, capacitance, index = build_ac_matrices(circuit, dc)
    signal_rhs = build_ac_rhs(circuit, index, input_overrides)
    out_node = index.node(output_net)

    sources = []  # (name, node_a, node_b, psd(f))
    for element in circuit:
        if isinstance(element, Mos):
            solution = dc.devices[element.name]
            model = model_for(element)
            op = solution.op
            thermal = model.thermal_noise_current_psd(op)

            def psd(frequency, _model=model, _op=op, _thermal=thermal):
                return _thermal + _model.flicker_noise_current_psd(
                    _op, frequency
                )

            sources.append(
                (
                    element.name,
                    index.node(solution.eff_drain),
                    index.node(solution.eff_source),
                    psd,
                )
            )
        elif isinstance(element, Resistor):
            value = 4.0 * BOLTZMANN * temperature / element.value
            sources.append(
                (
                    element.name,
                    index.node(element.a),
                    index.node(element.b),
                    lambda frequency, _value=value: _value,
                )
            )

    n_sources = len(sources)
    rhs = np.zeros((index.size, n_sources + 1), dtype=complex)
    for column, (_name, node_a, node_b, _psd) in enumerate(sources):
        if node_a >= 0:
            rhs[node_a, column] -= 1.0
        if node_b >= 0:
            rhs[node_b, column] += 1.0
    rhs[:, n_sources] = signal_rhs

    output_psd = np.zeros(freq_array.size)
    contributions = {name: np.zeros(freq_array.size) for name, *_ in sources}
    signal_gain = np.zeros(freq_array.size)
    for i, frequency in enumerate(freq_array):
        omega = 2.0 * np.pi * frequency
        matrix = conductance + 1j * omega * capacitance
        try:
            solutions = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as error:
            raise AnalysisError(f"singular matrix in noise run: {error}")
        transfers = solutions[out_node, :]
        signal_gain[i] = abs(transfers[n_sources])
        for column, (name, _a, _b, psd) in enumerate(sources):
            contribution = (abs(transfers[column]) ** 2) * psd(frequency)
            contributions[name][i] = contribution
            output_psd[i] += contribution

    with np.errstate(divide="ignore", invalid="ignore"):
        input_psd = np.where(
            signal_gain > 0.0, output_psd / signal_gain**2, np.inf
        )
    return NoiseResult(
        frequencies=freq_array,
        output_psd=output_psd,
        input_psd=input_psd,
        contributions=contributions,
    )


# -- Table-1 measurement ------------------------------------------------------


def measure_ota(
    tb: OtaTestbench,
    f_start: float = 1.0,
    f_stop: float = 3.0e9,
    points_per_decade: int = 24,
) -> OtaMetrics:
    """The Table-1 suite from the reference DC, AC and noise runs: one
    sweep per drive, a separate impedance probe and a separate noise
    run, folded by the library's own ``_metrics_from_sweeps``."""
    feedback = tb.circuit.clone(tb.circuit.name + "_fb")
    feedback.remove(tb.source_neg)
    feedback.add_vsource("_fb", tb.input_neg_net, tb.output_net, dc=0.0)
    dc = solve_dc(feedback)
    offset = dc.voltage(tb.output_net) - tb.common_mode_voltage()
    frequencies = logspace_frequencies(f_start, f_stop, points_per_decade)

    silence = {
        s.name: 0.0
        for s in tb.circuit
        if isinstance(s, VoltageSource)
        and s.name not in (tb.source_pos, tb.source_neg)
    }
    dm_drive = {**silence, tb.source_pos: 0.5, tb.source_neg: -0.5}
    cm_drive = {**silence, tb.source_pos: 1.0, tb.source_neg: 1.0}
    supply_drive = {**silence, tb.source_pos: 0.0, tb.source_neg: 0.0}
    for supply in tb.supply_sources:
        supply_drive[supply] = 1.0

    def sweep(drive):
        return ac_sweep(tb.circuit, dc, frequencies, drive).transfer(
            tb.output_net
        )

    zout = output_impedance(tb.circuit, dc, tb.output_net, [f_start])
    return _metrics_from_sweeps(
        tb,
        dc,
        offset,
        sweep(dm_drive),
        sweep(cm_drive),
        sweep(supply_drive),
        float(zout.magnitude[0]),
        noise(tb.circuit, dc, tb.output_net, frequencies, dm_drive),
    )
