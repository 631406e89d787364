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
from repro.analysis.mna import NodeIndex
from repro.analysis.stamps import StampProgram
from repro.circuit.elements import Mos
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError
from repro.mos import make_model
from repro.mos.junction import DiffusionGeometry
from repro.mos.model import MosModel, OperatingPoint
from repro.resilience.policy import DEFAULT_GMIN_SEQUENCE, ConvergenceReport
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
    won, per-rung residual norms)."""

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
) -> DcSolution:
    """Find the DC operating point of ``circuit``.

    The circuit is compiled once into a
    :class:`~repro.analysis.stamps.StampProgram` and solved by its
    escalation ladder (:mod:`repro.resilience.policy`); the ladder's
    :class:`~repro.resilience.policy.ConvergenceReport` is attached to the
    returned solution.  When every strategy fails a
    :class:`ConvergenceError` carrying the same report is raised; any
    other failure (an unknown net, an element without a DC stamp)
    propagates unchanged.
    """
    return StampProgram(circuit).solve_dc(gmin_sequence, max_iterations)


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
