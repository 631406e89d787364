"""Nonlinear DC operating-point solver.

Damped Newton-Raphson on the MNA equations with two classic continuation
safety nets:

* **gmin stepping** — a shunt conductance from every node to ground starts
  large and is relaxed geometrically to zero, taming the near-singular
  Jacobians of high-gain nodes;
* **source stepping** — if gmin stepping fails, supplies are ramped from a
  fraction of their value to 100 %.

The solver returns a :class:`DcSolution` carrying node voltages and a full
:class:`~repro.mos.model.OperatingPoint` per MOS device, which the AC and
noise analyses then stamp directly — the linearisation is shared, never
recomputed differently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.analysis.engine import COMPILED, analysis_engine
from repro.analysis.mna import NodeIndex, solve_linear
from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Mos,
    Resistor,
    VoltageSource,
)
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError, ConvergenceError, ReproError
from repro.mos import make_model
from repro.mos.junction import DiffusionGeometry
from repro.mos.model import MosModel, OperatingPoint
from repro.resilience import faults
from repro.resilience.policy import (
    DEFAULT_GMIN_SEQUENCE,
    LEGACY_POLICY,
    ConvergenceReport,
    ramp_policy,
)
from repro.technology.process import MosParams

# Keyed on the (frozen, hashable) params value rather than ``id(params)``:
# an id can be reused after the original object is garbage-collected, which
# would silently hand back a model built for different parameters.  Value
# keys also let cloned circuits (deep-copied params) share one model.
_MODEL_CACHE: Dict[Tuple[MosParams, int], MosModel] = {}


def model_for(mos: Mos) -> MosModel:
    """Shared model instance for a MOS element (cached per params+level)."""
    assert mos.params is not None
    key = (mos.params, mos.model_level)
    model = _MODEL_CACHE.get(key)
    if model is None:
        if telemetry.enabled():
            telemetry.count("model_cache.misses")
        model = make_model(mos.params, level=mos.model_level)
        _MODEL_CACHE[key] = model
    elif telemetry.enabled():
        telemetry.count("model_cache.hits")
    return model


@dataclass
class MosSolution:
    """Solved state of one MOS device.

    ``op`` is in forward convention; ``swapped`` records whether the
    effective drain is the element's source terminal (reverse conduction).
    ``terminal_current`` is the current into the element's drain pin.
    """

    element: Mos
    op: OperatingPoint
    swapped: bool
    terminal_current: float

    @property
    def eff_drain(self) -> str:
        """Net acting as drain in forward convention."""
        return self.element.s if self.swapped else self.element.d

    @property
    def eff_source(self) -> str:
        """Net acting as source in forward convention."""
        return self.element.d if self.swapped else self.element.s


@dataclass
class DcSolution:
    """Result of a DC analysis."""

    voltages: Dict[str, float]
    devices: Dict[str, MosSolution]
    source_currents: Dict[str, float]
    """Branch current of each voltage source, flowing pos -> neg through
    the source (so a supply delivering power has a negative entry)."""
    iterations: int
    gmin: float
    """Residual gmin at convergence (0.0 for a fully relaxed solve)."""

    convergence: Optional[ConvergenceReport] = None
    """Structured escalation-ladder record of the solve (which strategy
    won, per-rung residual norms, any compiled-to-legacy fallback)."""

    def voltage(self, net: str) -> float:
        if net.lower() in ("0", "gnd", "vss", "ground"):
            return 0.0
        return self.voltages[net]

    def source_power(self, name: str) -> float:
        """Power delivered by a voltage source, W (positive = delivering)."""
        if self._source_dc is None:
            raise AnalysisError(
                "DcSolution has no recorded source DC values; "
                "source_power is only available on solutions produced by "
                "solve_dc"
            )
        current = self.source_currents[name]
        return -current * self._source_dc[name]

    def total_supply_power(self) -> float:
        """Total power delivered by all voltage sources, W."""
        return sum(self.source_power(name) for name in self.source_currents)

    # populated by solve_dc
    _source_dc: Optional[Dict[str, float]] = field(default=None, repr=False)


def _device_terminal_state(
    mos: Mos, voltages: np.ndarray, index: NodeIndex
) -> Tuple[float, float, float, float]:
    """Terminal voltages (vd, vg, vs, vb) from the solution vector."""

    def v(net: str) -> float:
        node = index.node(net)
        return 0.0 if node < 0 else float(voltages[node])

    return v(mos.d), v(mos.g), v(mos.s), v(mos.b)


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


def _build_system(
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
    """Damped Newton from ``start``.

    Returns ``(solution, converged, iterations, residual_norm)`` where the
    norm is the last max-abs KCL residual evaluated (escalation rungs
    record it in their :class:`~repro.resilience.policy.ConvergenceReport`).
    """
    voltages = start.copy()
    residual_norm = float("inf")
    for iteration in range(1, max_iterations + 1):
        residual, jacobian = _build_system(
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


def _initial_guess(circuit: Circuit, index: NodeIndex) -> np.ndarray:
    """Start vector: DC-source-pinned nets at their value, others midway."""
    guess = np.zeros(index.size)
    supply = 0.0
    for source in index.sources:
        supply = max(supply, abs(source.dc))
    midpoint = 0.5 * supply
    for net, node in ((net, index.node(net)) for net in index.nets):
        guess[node] = midpoint
    for source in index.sources:
        pos = index.node(source.pos)
        neg = index.node(source.neg)
        if neg < 0 and pos >= 0:
            guess[pos] = source.dc
        elif pos < 0 and neg >= 0:
            guess[neg] = -source.dc
    return guess


#: Kept as a module-level alias: callers historically pinned this ladder.
GMIN_SEQUENCE = DEFAULT_GMIN_SEQUENCE


class _LegacyBackend:
    """Escalation-policy backend over the legacy per-element stamping."""

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
        residual, _jacobian = _build_system(
            self.circuit, self.index, voltages, gmin=0.0, source_scale=1.0
        )
        return worst_nodes_from_residual(self.index, residual, count)


def worst_nodes_from_residual(
    index: NodeIndex, residual: np.ndarray, count: int = 5
) -> list:
    """The ``count`` nets with the largest KCL residual, worst first."""
    node_residuals = np.abs(residual[: index.node_count])
    if not np.all(np.isfinite(node_residuals)):
        node_residuals = np.where(
            np.isfinite(node_residuals), node_residuals, np.inf
        )
    order = np.argsort(node_residuals)[::-1][:count]
    return [(index.nets[i], float(node_residuals[i])) for i in order]


def solve_dc(
    circuit: Circuit,
    gmin_sequence: Tuple[float, ...] = GMIN_SEQUENCE,
    max_iterations: int = 200,
    engine: Optional[str] = None,
) -> DcSolution:
    """Find the DC operating point of ``circuit``.

    ``engine`` selects the compiled-stamp or legacy implementation (see
    :mod:`repro.analysis.engine`); ``None`` uses the process default.  The
    solve runs an escalation ladder (:mod:`repro.resilience.policy`) and
    attaches its :class:`~repro.resilience.policy.ConvergenceReport` to the
    returned solution; when every strategy fails a
    :class:`ConvergenceError` carrying the same report is raised.  If the
    *compiled* engine fails structurally (anything but non-convergence) the
    solve falls back to the legacy engine and records the hand-over in the
    report.
    """
    if analysis_engine.resolve(engine) == COMPILED:
        from repro.analysis.stamps import StampProgram

        try:
            if faults.active():
                faults.maybe_raise("engine.compiled")
            return StampProgram(circuit).solve_dc(gmin_sequence, max_iterations)
        except ConvergenceError:
            # Real non-convergence: the legacy engine runs the same
            # models and would only double the cost of failing again.
            raise
        except (ReproError, NotImplementedError, np.linalg.LinAlgError) as error:
            if telemetry.enabled():
                telemetry.count("engine.fallbacks")
                telemetry.event(
                    "engine.fallback",
                    circuit=circuit.name,
                    error=repr(error),
                )
            solution = _solve_dc_legacy(circuit, gmin_sequence, max_iterations)
            if solution.convergence is not None:
                solution.convergence.engine_fallback = repr(error)
            return solution

    return _solve_dc_legacy(circuit, gmin_sequence, max_iterations)


def _solve_dc_legacy(
    circuit: Circuit,
    gmin_sequence: Tuple[float, ...] = GMIN_SEQUENCE,
    max_iterations: int = 200,
) -> DcSolution:
    """Legacy-engine DC solve via the escalation policy."""
    circuit.validate()
    index = NodeIndex(circuit)
    backend = _LegacyBackend(circuit, index)
    if gmin_sequence is GMIN_SEQUENCE:
        policy = LEGACY_POLICY
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


def _package_solution(
    circuit: Circuit,
    index: NodeIndex,
    voltages: np.ndarray,
    iterations: int,
    gmin: float,
    report: Optional[ConvergenceReport] = None,
) -> DcSolution:
    devices: Dict[str, MosSolution] = {}
    for mos in circuit.mos_devices:
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
        geometry = mos.geometry
        if geometry is not None and swapped:
            geometry = DiffusionGeometry(
                ad=geometry.as_, pd=geometry.ps, as_=geometry.ad, ps=geometry.pd
            )
        op = model.operating_point(mos.w, mos.l, vgs, vds, vsb, geometry)
        beta_scale = 1.0 + mos.mismatch_beta
        op.id *= beta_scale
        op.gm *= beta_scale
        op.gds *= beta_scale
        op.gmb *= beta_scale
        i_ds = sign * op.id
        terminal_current = -i_ds if swapped else i_ds
        devices[mos.name] = MosSolution(
            element=mos,
            op=op,
            swapped=swapped,
            terminal_current=terminal_current,
        )

    source_currents = {
        source.name: float(voltages[index.branch(source.name)])
        for source in index.sources
    }
    solution = DcSolution(
        voltages=index.voltages_to_dict(voltages),
        devices=devices,
        source_currents=source_currents,
        iterations=iterations,
        gmin=gmin,
        convergence=report,
    )
    solution._source_dc = {source.name: source.dc for source in index.sources}
    return solution
