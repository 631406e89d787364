"""Noise analysis.

Each MOS device contributes channel thermal noise and flicker noise as a
current source between its effective drain and source; each resistor
contributes 4kT/R.  Every frequency's linearised MNA matrix is solved, in
one stacked call, against one right-hand side per noise source plus the
signal drive, so the cost stays linear in device count.

Output noise is the PSD at the output node; input-referred noise divides by
the squared magnitude of the signal transfer (differential drive).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.analysis.dcop import DcSolution, model_for
from repro.analysis.stamps import LinearSystem
from repro.circuit.elements import Mos, Resistor
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError
from repro.units import BOLTZMANN


@dataclass
class NoiseResult:
    """Sampled noise spectra plus integration helpers."""

    frequencies: np.ndarray
    output_psd: np.ndarray
    """Output noise voltage PSD, V^2/Hz."""
    input_psd: np.ndarray
    """Input-referred noise voltage PSD, V^2/Hz."""
    contributions: Dict[str, np.ndarray] = field(default_factory=dict)
    """Per-element output PSD, V^2/Hz."""

    def input_density(self, frequency: float) -> float:
        """Input-referred voltage noise density, V/sqrt(Hz)."""
        psd = float(
            np.interp(
                np.log10(frequency),
                np.log10(self.frequencies),
                self.input_psd,
            )
        )
        return float(np.sqrt(max(psd, 0.0)))

    def integrated_input_noise(
        self, f_low: Optional[float] = None, f_high: Optional[float] = None
    ) -> float:
        """RMS input-referred noise voltage over [f_low, f_high], V."""
        mask = np.ones(len(self.frequencies), dtype=bool)
        if f_low is not None:
            mask &= self.frequencies >= f_low
        if f_high is not None:
            mask &= self.frequencies <= f_high
        if mask.sum() < 2:
            raise AnalysisError("integration band contains fewer than 2 samples")
        freq = self.frequencies[mask]
        psd = self.input_psd[mask]
        return float(np.sqrt(np.trapezoid(psd, freq)))

    def dominant_contributors(self, count: int = 5) -> List[Tuple[str, float]]:
        """Elements ranked by integrated output noise power."""
        totals = [
            (name, float(np.trapezoid(psd, self.frequencies)))
            for name, psd in self.contributions.items()
        ]
        totals.sort(key=lambda item: item[1], reverse=True)
        return totals[:count]


class NoiseAnalysis:
    """Noise of a linearised circuit as seen at one output net."""

    def __init__(
        self,
        circuit: Circuit,
        dc: DcSolution,
        output_net: str,
        input_overrides: Optional[Dict[str, complex]] = None,
        temperature: float = 300.15,
        system: Optional[LinearSystem] = None,
    ):
        """``input_overrides`` defines the signal drive (source name to AC
        amplitude) used to refer output noise to the input; when omitted the
        stored ``ac`` fields are used.

        ``system`` optionally passes an already-compiled
        :class:`~repro.analysis.stamps.LinearSystem` for the same
        ``(circuit, dc)`` pair so callers running several small-signal
        analyses (e.g. :func:`~repro.analysis.metrics.measure_ota`) share
        one linearisation.
        """
        self.circuit = circuit
        self.dc = dc
        self.output_net = output_net
        self.temperature = temperature
        if system is None:
            system = LinearSystem(circuit, dc)
        self._system = system
        self.index = system.index
        self._signal_rhs = system.rhs(input_overrides)
        if not np.any(self._signal_rhs):
            raise AnalysisError(
                "noise analysis needs a non-zero signal drive to refer "
                "noise to the input"
            )
        self._sources = self._collect_sources()
        injections = system.injection_columns(
            [(a, b) for _name, a, b in self._sources]
        )
        self._rhs_columns = np.concatenate(
            [injections, self._signal_rhs[:, None]], axis=1
        )
        self._psd_const, self._psd_coef = self._psd_vectors()

    def _collect_sources(self) -> List[Tuple[str, int, int]]:
        """(name, node_a, node_b) per noise source.

        The injected noise current flows from node_a to node_b.
        """
        sources: List[Tuple[str, int, int]] = []
        for element in self.circuit:
            if isinstance(element, Mos):
                solution = self.dc.devices[element.name]
                sources.append(
                    (
                        element.name,
                        self.index.node(solution.eff_drain),
                        self.index.node(solution.eff_source),
                    )
                )
            elif isinstance(element, Resistor):
                sources.append(
                    (
                        element.name,
                        self.index.node(element.a),
                        self.index.node(element.b),
                    )
                )
        return sources

    def _psd_vectors(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-source PSD decomposition ``psd(f) = const + coef / f``.

        Every noise source in this model family is white plus 1/f: MOS
        thermal + SPICE2 flicker (``KF Id^AF / (Cox Leff^2 f)``) and
        resistor 4kT/R — which is what lets every source be evaluated at
        every frequency with one broadcast.
        """
        const: List[float] = []
        coef: List[float] = []
        for element in self.circuit:
            if isinstance(element, Mos):
                solution = self.dc.devices[element.name]
                model = model_for(element)
                const.append(model.thermal_noise_current_psd(solution.op))
                coef.append(
                    model.flicker_noise_current_psd(solution.op, 1.0)
                )
            elif isinstance(element, Resistor):
                const.append(
                    4.0 * BOLTZMANN * self.temperature / element.value
                )
                coef.append(0.0)
        return np.asarray(const), np.asarray(coef)

    @property
    def rhs_columns(self) -> np.ndarray:
        """Noise-injection columns plus the signal drive, ``(size, n+1)``.

        Callers already running a batched solve on the shared system
        (:func:`~repro.analysis.metrics.measure_ota`) can append these
        columns and hand the output-row transfers back to
        :meth:`result_from_output_transfers`, sharing one factorisation.
        """
        return self._rhs_columns

    def result_from_output_transfers(
        self, freq_array: np.ndarray, transfers: np.ndarray
    ) -> NoiseResult:
        """Noise result from precomputed output-node transfers.

        ``transfers`` is ``(F, n_sources + 1)`` complex — the output-node
        row of a solve against :attr:`rhs_columns` (signal drive last).
        """
        n_sources = len(self._sources)
        signal_gain = np.abs(transfers[:, n_sources])
        power = np.abs(transfers[:, :n_sources]) ** 2
        psd = self._psd_const[None, :] + self._psd_coef[None, :] / freq_array[:, None]
        contribution_matrix = power * psd
        output_psd = contribution_matrix.sum(axis=1)
        contributions = {
            name: contribution_matrix[:, column]
            for column, (name, *_rest) in enumerate(self._sources)
        }
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

    def run(self, frequencies: Iterable[float]) -> NoiseResult:
        """Compute output and input-referred noise over ``frequencies``."""
        freq_array = np.asarray(list(frequencies), dtype=float)
        if np.any(freq_array <= 0.0):
            raise AnalysisError("noise frequencies must be positive")
        out_node = self.index.node(self.output_net)
        if out_node < 0:
            raise AnalysisError("noise output cannot be the ground net")
        solutions = self._system.solve_batch(freq_array, self._rhs_columns)
        return self.result_from_output_transfers(
            freq_array, solutions[:, out_node, :]
        )
