"""Pole analysis of the linearised circuit.

The natural frequencies of the small-signal network are the generalised
eigenvalues of ``(G, C)``: solutions of ``det(G + s C) = 0``.  They are
computed here by reducing the MNA system to the capacitive subspace and
solving a standard eigenproblem.

This answers the diagnostic question behind the paper's parasitic story:
*which node's* capacitance limits the phase margin.  :func:`dominant_poles`
returns the poles sorted by magnitude, and
:func:`pole_sensitivity` measures how much each pole moves when a chosen
net gets extra capacitance — the folding nodes of the OTA light up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.analysis.dcop import DcSolution
from repro.analysis.stamps import LinearSystem
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError


@dataclass
class PoleSet:
    """Natural frequencies of a linearised circuit."""

    poles: np.ndarray
    """Complex poles in rad/s (negative real parts for stable circuits)."""

    @property
    def frequencies_hz(self) -> np.ndarray:
        """Pole magnitudes as frequencies, Hz, ascending."""
        return np.sort(np.abs(self.poles)) / (2.0 * np.pi)

    def dominant(self) -> float:
        """Lowest pole frequency, Hz."""
        return float(self.frequencies_hz[0])

    def non_dominant(self, count: int = 3) -> List[float]:
        """The next ``count`` pole frequencies after the dominant, Hz."""
        return [float(f) for f in self.frequencies_hz[1:count + 1]]

    def all_stable(self, tolerance: float = 1e-3) -> bool:
        """True when every pole has a non-positive real part."""
        worst = float(np.max(np.real(self.poles)))
        scale = float(np.max(np.abs(self.poles))) or 1.0
        return worst <= tolerance * scale


def compute_poles(
    circuit: Circuit,
    dc: DcSolution,
    drop_below: float = 1.0,
) -> PoleSet:
    """Poles of the linearised circuit, in rad/s.

    Solves ``(G + sC) x = 0`` via the pencil reduction: with ``C = U S V*``
    (SVD, rank r), the finite poles are the eigenvalues of
    ``-(U_r^T G^{-1}... `` — implemented as the generalised eigenvalue
    problem on the capacitive subspace.  Poles slower than ``drop_below``
    rad/s (numerical zeros from the rank-deficient C) are discarded.
    """
    system = LinearSystem(circuit, dc)
    conductance, capacitance = system.conductance, system.capacitance
    try:
        g_inverse_c = np.linalg.solve(conductance, capacitance)
    except np.linalg.LinAlgError as error:
        raise AnalysisError(f"singular conductance matrix: {error}")
    # det(G + sC) = 0  <=>  det(I + s G^-1 C) = 0  <=>  s = -1/lambda for
    # each non-zero eigenvalue lambda of G^-1 C.
    eigenvalues = np.linalg.eigvals(g_inverse_c)
    finite = eigenvalues[np.abs(eigenvalues) > 1e-30]
    poles = -1.0 / finite
    poles = poles[np.abs(poles) > drop_below]
    if poles.size == 0:
        raise AnalysisError("circuit has no finite poles (no capacitance?)")
    return PoleSet(poles=poles)


def pole_sensitivity(
    circuit: Circuit,
    dc: DcSolution,
    nets: List[str],
    probe_capacitance: float = 50e-15,
    pole_index: int = 1,
) -> Dict[str, float]:
    """Relative shift of a pole per net when probed with extra capacitance.

    Adds ``probe_capacitance`` to each candidate net in turn and reports
    the fractional decrease of the ``pole_index``-th pole frequency
    (index 1 = first non-dominant pole).  The most sensitive net is the
    one whose layout parasitics matter most — the paper's folding node.
    """
    baseline = compute_poles(circuit, dc).frequencies_hz
    if pole_index >= len(baseline):
        raise AnalysisError("pole_index beyond the available pole count")
    reference = baseline[pole_index]

    sensitivities: Dict[str, float] = {}
    for net in nets:
        probed = circuit.clone(circuit.name + "_probe")
        probed.attach_parasitic_cap(net, "0", probe_capacitance)
        shifted = compute_poles(probed, dc).frequencies_hz[pole_index]
        sensitivities[net] = float((reference - shifted) / reference)
    return sensitivities
