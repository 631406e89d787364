"""Small-signal AC analysis.

The circuit is linearised at a previously computed DC solution: each MOS
contributes its gm/gmb controlled sources, its output conductance and its
five operating-point capacitances, stamped at the *effective* (orientation-
resolved) terminals recorded by the DC solver.  ``G`` and ``C`` are
assembled once (:class:`~repro.analysis.stamps.LinearSystem`) and the
complex system ``(G + j 2 pi f C) x = b`` is solved for every frequency
in one stacked call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.analysis.dcop import DcSolution
from repro.analysis.mna import NodeIndex
from repro.analysis.stamps import LinearSystem, solve_stacked_systems
from repro.analysis.transfer import TransferFunction
from repro.circuit.elements import CurrentSource, VoltageSource
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError


@dataclass
class AcSolution:
    """Node voltages over a frequency sweep."""

    frequencies: np.ndarray
    index: NodeIndex
    solutions: np.ndarray
    """Complex array of shape (n_frequencies, system_size)."""

    def voltage(self, net: str) -> np.ndarray:
        """Complex voltage of ``net`` across the sweep."""
        node = self.index.node(net)
        if node < 0:
            return np.zeros(len(self.frequencies), dtype=complex)
        return self.solutions[:, node]

    def transfer(self, net: str) -> TransferFunction:
        """Transfer function from the (unit) drive to ``net``."""
        return TransferFunction(self.frequencies.copy(), self.voltage(net).copy())


def ac_sweep(
    circuit: Circuit,
    dc: DcSolution,
    frequencies: Iterable[float],
    overrides: Optional[Dict[str, complex]] = None,
) -> AcSolution:
    """Solve the linearised circuit across ``frequencies``.

    ``(G + j 2 pi f C)`` is stacked for every frequency into one tensor
    and solved in a single broadcasted call.
    """
    freq_array = np.asarray(list(frequencies), dtype=float)
    if freq_array.size == 0:
        raise AnalysisError("ac_sweep needs at least one frequency")
    if np.any(freq_array <= 0.0):
        raise AnalysisError("AC frequencies must be positive")
    system = LinearSystem(circuit, dc)
    solutions = system.solve_batch(freq_array, system.rhs(overrides))
    return AcSolution(
        frequencies=freq_array,
        index=system.index,
        solutions=solutions[:, :, 0],
    )


def ac_sweep_ensemble(
    members: Iterable[Tuple[Circuit, DcSolution]],
    frequencies: Iterable[float],
    overrides: Optional[Dict[str, complex]] = None,
) -> "list[AcSolution]":
    """One stacked ``(K, F, n, n)`` solve over K linearised circuits.

    Every member must linearise to the same system size (same node and
    branch layout — e.g. the same testbench at different process corners
    or operating points); the shared ``overrides`` drive is applied to
    each.  Matches K independent :func:`ac_sweep` calls bit for bit,
    because the stacked solve still runs LAPACK per (member, frequency)
    matrix.
    """
    pairs = list(members)
    if not pairs:
        raise AnalysisError("ac_sweep_ensemble needs at least one member")
    freq_array = np.asarray(list(frequencies), dtype=float)
    if freq_array.size == 0:
        raise AnalysisError("ac_sweep needs at least one frequency")
    if np.any(freq_array <= 0.0):
        raise AnalysisError("AC frequencies must be positive")
    systems = [LinearSystem(circuit, dc) for circuit, dc in pairs]
    size = systems[0].size
    for system in systems[1:]:
        if system.size != size:
            raise AnalysisError(
                "ensemble AC members must share one system size; got "
                f"{system.size} vs {size}"
            )
    rhs_stack = np.stack(
        [system.rhs(overrides) for system in systems]
    )[:, :, None]
    solved = solve_stacked_systems(systems, freq_array, rhs_stack)
    return [
        AcSolution(
            frequencies=freq_array.copy(),
            index=system.index,
            solutions=solved[k, :, :, 0],
        )
        for k, system in enumerate(systems)
    ]


def transfer_function(
    circuit: Circuit,
    dc: DcSolution,
    output_net: str,
    frequencies: Iterable[float],
    overrides: Optional[Dict[str, complex]] = None,
) -> TransferFunction:
    """Convenience wrapper: sweep and return the transfer to one net."""
    return ac_sweep(circuit, dc, frequencies, overrides).transfer(output_net)


def output_impedance(
    circuit: Circuit,
    dc: DcSolution,
    output_net: str,
    frequencies: Iterable[float],
    injection_name: str = "_zout_probe",
) -> TransferFunction:
    """Impedance seen into ``output_net`` with all drives silenced.

    A unit AC current is injected into the node; every stored ``ac``
    amplitude is overridden to zero.
    """
    if injection_name in circuit:
        raise AnalysisError(
            f"injection source name {injection_name!r} collides with an "
            "existing element; pass a unique injection_name"
        )
    probe_circuit = circuit.clone()
    probe_circuit.add_isource(injection_name, "0", output_net, dc=0.0, ac=1.0)
    overrides = {
        e.name: 0.0
        for e in probe_circuit
        if isinstance(e, (VoltageSource, CurrentSource))
        and e.name != injection_name
    }
    return transfer_function(
        probe_circuit, dc, output_net, frequencies, overrides
    )


def logspace_frequencies(
    start: float, stop: float, points_per_decade: int = 20
) -> np.ndarray:
    """Logarithmic frequency grid, inclusive of both endpoints."""
    if start <= 0.0 or stop <= start:
        raise AnalysisError("need 0 < start < stop for a log sweep")
    decades = np.log10(stop / start)
    count = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(np.log10(start), np.log10(stop), count)
