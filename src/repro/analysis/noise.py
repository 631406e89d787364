"""Noise analysis.

Each MOS device contributes channel thermal noise and flicker noise as a
current source between its effective drain and source; each resistor
contributes 4kT/R.  For every frequency the linearised MNA matrix is
factorised once and solved against one right-hand side per noise source, so
the cost stays linear in device count.

Output noise is the PSD at the output node; input-referred noise divides by
the squared magnitude of the signal transfer (differential drive).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.analysis.ac import build_ac_matrices, build_ac_rhs
from repro.analysis.dcop import DcSolution, model_for
from repro.analysis.engine import COMPILED, analysis_engine
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
        engine: Optional[str] = None,
        system=None,
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
        self.engine = analysis_engine.resolve(engine)
        if self.engine == COMPILED:
            if system is None:
                from repro.analysis.stamps import LinearSystem

                system = LinearSystem(circuit, dc)
            self._system = system
            self.index = system.index
            self._signal_rhs = system.rhs(input_overrides)
        else:
            self._system = None
            self._conductance, self._capacitance, self.index = build_ac_matrices(
                circuit, dc
            )
            self._signal_rhs = build_ac_rhs(circuit, self.index, input_overrides)
        if not np.any(self._signal_rhs):
            raise AnalysisError(
                "noise analysis needs a non-zero signal drive to refer "
                "noise to the input"
            )
        self._sources = self._collect_sources()
        if self.engine == COMPILED:
            injections = self._system.injection_columns(
                [(a, b) for _name, a, b, _psd in self._sources]
            )
            self._rhs_columns = np.concatenate(
                [injections, self._signal_rhs[:, None]], axis=1
            )
            self._psd_const, self._psd_coef = self._psd_vectors()

    def _collect_sources(self) -> List[Tuple[str, int, int, object]]:
        """(name, node_a, node_b, psd_fn) per noise source.

        The injected noise current flows from node_a to node_b.
        """
        sources: List[Tuple[str, int, int, object]] = []
        for element in self.circuit:
            if isinstance(element, Mos):
                solution = self.dc.devices[element.name]
                model = model_for(element)
                op = solution.op
                thermal = model.thermal_noise_current_psd(op)

                def psd(frequency: float, _model=model, _op=op, _thermal=thermal):
                    return _thermal + _model.flicker_noise_current_psd(
                        _op, frequency
                    )

                sources.append(
                    (
                        element.name,
                        self.index.node(solution.eff_drain),
                        self.index.node(solution.eff_source),
                        psd,
                    )
                )
            elif isinstance(element, Resistor):
                psd_value = 4.0 * BOLTZMANN * self.temperature / element.value

                def psd_r(frequency: float, _value=psd_value):
                    return _value

                sources.append(
                    (
                        element.name,
                        self.index.node(element.a),
                        self.index.node(element.b),
                        psd_r,
                    )
                )
        return sources

    def _psd_vectors(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-source PSD decomposition ``psd(f) = const + coef / f``.

        Every noise source in this model family is white plus 1/f: MOS
        thermal + SPICE2 flicker (``KF Id^AF / (Cox Leff^2 f)``) and
        resistor 4kT/R — which is what lets the compiled path evaluate all
        sources at all frequencies with one broadcast.
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

        Compiled engine only.  Callers already running a batched solve on
        the shared system (:func:`~repro.analysis.metrics.measure_ota`) can
        append these columns and hand the output-row transfers back to
        :meth:`result_from_output_transfers`, sharing one factorisation.
        """
        if self.engine != COMPILED:
            raise AnalysisError("rhs_columns requires the compiled engine")
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

    def _run_compiled(
        self, freq_array: np.ndarray, out_node: int
    ) -> NoiseResult:
        """Batched noise run: one stacked solve over (frequency, source)."""
        solutions = self._system.solve_batch(freq_array, self._rhs_columns)
        return self.result_from_output_transfers(
            freq_array, solutions[:, out_node, :]
        )

    def run(self, frequencies: Iterable[float]) -> NoiseResult:
        """Compute output and input-referred noise over ``frequencies``."""
        freq_array = np.asarray(list(frequencies), dtype=float)
        if np.any(freq_array <= 0.0):
            raise AnalysisError("noise frequencies must be positive")
        out_node = self.index.node(self.output_net)
        if out_node < 0:
            raise AnalysisError("noise output cannot be the ground net")
        if self.engine == COMPILED:
            return self._run_compiled(freq_array, out_node)

        size = self.index.size
        n_sources = len(self._sources)
        output_psd = np.zeros(freq_array.size)
        contributions = {name: np.zeros(freq_array.size) for name, *_ in self._sources}
        signal_gain = np.zeros(freq_array.size)

        # One RHS column per noise source (unit current injection) plus the
        # signal drive in the last column.
        rhs = np.zeros((size, n_sources + 1), dtype=complex)
        for column, (_name, node_a, node_b, _psd) in enumerate(self._sources):
            if node_a >= 0:
                rhs[node_a, column] -= 1.0
            if node_b >= 0:
                rhs[node_b, column] += 1.0
        rhs[:, n_sources] = self._signal_rhs

        for i, frequency in enumerate(freq_array):
            omega = 2.0 * np.pi * frequency
            matrix = self._conductance + 1j * omega * self._capacitance
            try:
                solutions = np.linalg.solve(matrix, rhs)
            except np.linalg.LinAlgError as error:
                raise AnalysisError(f"singular matrix in noise run: {error}")
            transfers = solutions[out_node, :]
            signal_gain[i] = abs(transfers[n_sources])
            for column, (name, _a, _b, psd) in enumerate(self._sources):
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
