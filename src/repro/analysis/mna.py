"""Modified nodal analysis scaffolding.

:class:`NodeIndex` maps net names to matrix rows; voltage sources get extra
branch-current unknowns.  Matrices are dense — the right choice for
cell-level circuits (tens of nodes) — and :func:`solve_linear` solves them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.circuit.elements import VoltageSource
from repro.circuit.net import canonical, is_ground
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError


class NodeIndex:
    """Net-name to unknown-index mapping for one circuit.

    Index layout: node voltages first (ground excluded), then one branch
    current per voltage source, in deterministic (sorted/insertion) order.
    """

    def __init__(self, circuit: Circuit):
        nets = [net for net in circuit.nets if not is_ground(net)]
        self._node_of: Dict[str, int] = {net: i for i, net in enumerate(nets)}
        self.node_count = len(nets)
        sources = [e for e in circuit if isinstance(e, VoltageSource)]
        self._branch_of: Dict[str, int] = {
            source.name: self.node_count + i for i, source in enumerate(sources)
        }
        self.size = self.node_count + len(sources)
        self.nets: List[str] = nets
        self.sources: List[VoltageSource] = sources

    def node(self, net: str) -> int:
        """Matrix index of a net, or -1 for ground."""
        net = canonical(net)
        if net == "0":
            return -1
        try:
            return self._node_of[net]
        except KeyError:
            raise AnalysisError(f"unknown net {net!r}") from None

    def branch(self, source_name: str) -> int:
        """Matrix index of a voltage source's branch current."""
        try:
            return self._branch_of[source_name]
        except KeyError:
            raise AnalysisError(
                f"unknown voltage source {source_name!r}"
            ) from None

    def voltages_to_dict(self, solution: Sequence[float]) -> Dict[str, float]:
        """Map a solution vector back to {net: voltage} (plus ground)."""
        result = {"0": 0.0}
        for net, index in self._node_of.items():
            result[net] = float(np.real(solution[index]))
        return result


def solve_linear(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the MNA system, raising :class:`AnalysisError` when singular."""
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as error:
        raise AnalysisError(f"singular MNA matrix: {error}") from error
