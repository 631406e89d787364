"""Transfer-function post-processing.

Wraps a sampled complex response H(f) and extracts the quantities the
paper's Table 1 reports: DC gain, unity-gain (gain-bandwidth) frequency and
phase margin, plus generic helpers (bandwidth, interpolated gain/phase).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import AnalysisError


@dataclass
class TransferFunction:
    """A complex response sampled on an increasing frequency grid."""

    frequencies: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.frequencies.shape != self.values.shape:
            raise AnalysisError("frequency and value arrays must match")
        if self.frequencies.size < 1:
            raise AnalysisError("transfer function needs at least one sample")
        if np.any(np.diff(self.frequencies) <= 0.0):
            raise AnalysisError("frequencies must be strictly increasing")

    # -- Raw views ----------------------------------------------------------

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    @property
    def magnitude_db(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(np.abs(self.values))

    @property
    def phase_deg(self) -> np.ndarray:
        """Unwrapped phase in degrees."""
        return np.degrees(np.unwrap(np.angle(self.values)))

    # -- Point queries ----------------------------------------------------------

    def _interp(self, array: np.ndarray, frequency: float) -> float:
        if frequency <= self.frequencies[0]:
            return float(array[0])
        if frequency >= self.frequencies[-1]:
            return float(array[-1])
        return float(
            np.interp(
                math.log10(frequency), np.log10(self.frequencies), array
            )
        )

    def gain_db_at(self, frequency: float) -> float:
        return self._interp(self.magnitude_db, frequency)

    def phase_deg_at(self, frequency: float) -> float:
        return self._interp(self.phase_deg, frequency)

    # -- Figures of merit -----------------------------------------------------------

    @property
    def dc_gain(self) -> float:
        """Magnitude at the lowest sampled frequency."""
        return float(self.magnitude[0])

    @property
    def dc_gain_db(self) -> float:
        return float(self.magnitude_db[0])

    def unity_gain_frequency(self) -> Optional[float]:
        """First 0 dB crossing (log-interpolated); None if never crossing."""
        gains = self.magnitude_db
        for i in range(len(gains) - 1):
            if gains[i] >= 0.0 > gains[i + 1]:
                # Linear interpolation in (log f, dB).
                f0, f1 = self.frequencies[i], self.frequencies[i + 1]
                g0, g1 = gains[i], gains[i + 1]
                fraction = g0 / (g0 - g1)
                return float(
                    10.0 ** (math.log10(f0) + fraction * math.log10(f1 / f0))
                )
        return None

    def phase_margin(self) -> Optional[float]:
        """Phase margin in degrees at the unity-gain frequency.

        Phase is normalised so a DC-positive-gain response starts at 0
        degrees (a differential inversion is removed).
        """
        unity = self.unity_gain_frequency()
        if unity is None:
            return None
        phase = self.phase_deg
        phase = phase - round(phase[0] / 360.0) * 360.0
        if abs(phase[0]) > 90.0:
            # Inverting configuration: shift the reference by 180 degrees.
            phase = phase - math.copysign(180.0, phase[0])
        phase_at_unity = self._interp(phase, unity)
        return 180.0 + phase_at_unity

    def bandwidth_3db(self) -> Optional[float]:
        """-3 dB frequency relative to the DC gain."""
        target = self.magnitude_db[0] - 3.0102999566398
        gains = self.magnitude_db
        for i in range(len(gains) - 1):
            if gains[i] >= target > gains[i + 1]:
                f0, f1 = self.frequencies[i], self.frequencies[i + 1]
                g0, g1 = gains[i], gains[i + 1]
                fraction = (g0 - target) / (g0 - g1)
                return float(
                    10.0 ** (math.log10(f0) + fraction * math.log10(f1 / f0))
                )
        return None

    def gain_margin_db(self) -> Optional[float]:
        """Gain margin at the -180 degree crossing, dB."""
        phase = self.phase_deg
        phase = phase - round(phase[0] / 360.0) * 360.0
        if abs(phase[0]) > 90.0:
            phase = phase - math.copysign(180.0, phase[0])
        for i in range(len(phase) - 1):
            if phase[i] > -180.0 >= phase[i + 1]:
                fraction = (phase[i] + 180.0) / (phase[i] - phase[i + 1])
                gain = self.magnitude_db[i] + fraction * (
                    self.magnitude_db[i + 1] - self.magnitude_db[i]
                )
                return -float(gain)
        return None
