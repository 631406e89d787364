"""Specification and result records for sizing."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Tuple

from repro.errors import SizingError


class ParasiticMode(Enum):
    """How much layout knowledge the sizing uses (Table 1's four cases)."""

    NONE = 1
    """Case 1: no layout capacitances at all (only gate capacitance)."""
    SINGLE_FOLD = 2
    """Case 2: diffusion capacitance assuming one fold per transistor,
    no routing capacitance (no layout information)."""
    LAYOUT_DIFFUSION = 3
    """Case 3: exact diffusion geometry from the layout tool, routing
    capacitance neglected."""
    FULL = 4
    """Case 4: all layout parasitics (diffusion, routing, coupling, well)."""

    @property
    def uses_layout(self) -> bool:
        return self in (ParasiticMode.LAYOUT_DIFFUSION, ParasiticMode.FULL)


@dataclass
class OtaSpecs:
    """Input specifications (the paper's Table 1 header)."""

    vdd: float = 3.3
    gbw: float = 65.0e6
    phase_margin: float = 65.0
    cload: float = 3.0e-12
    input_cm_range: Tuple[float, float] = (0.55, 1.84)
    output_range: Tuple[float, float] = (0.51, 2.31)
    vcm: Optional[float] = None
    """Measurement common-mode level; defaults to the ICMR midpoint."""
    slew_rate: Optional[float] = None
    """Optional minimum slew rate, V/s.  When it demands more tail current
    than the GBW target, the plan raises the current and re-balances the
    input overdrive to keep gm (and GBW) on target."""

    def validate(self) -> None:
        if self.vdd <= 0.0:
            raise SizingError("supply must be positive")
        if self.gbw <= 0.0 or self.cload <= 0.0:
            raise SizingError("GBW and load must be positive")
        if not 0.0 < self.phase_margin < 90.0:
            raise SizingError("phase margin must be in (0, 90) degrees")
        lo, hi = self.input_cm_range
        if not lo < hi:
            raise SizingError("input common-mode range is empty")
        lo, hi = self.output_range
        if not 0.0 <= lo < hi <= self.vdd:
            raise SizingError("output range must fit inside the supply")
        if self.slew_rate is not None and self.slew_rate <= 0.0:
            raise SizingError("slew rate target must be positive")

    @property
    def measurement_vcm(self) -> float:
        if self.vcm is not None:
            return self.vcm
        lo, hi = self.input_cm_range
        return (lo + hi) / 2.0


@dataclass(frozen=True)
class SpecMiss:
    """A specification the accepted sizing iteration left out of tolerance."""

    name: str
    """``gbw`` (Hz) or ``phase_margin`` (degrees)."""
    target: float
    achieved: float

    def __str__(self) -> str:
        if self.name == "gbw":
            return (f"gbw {self.achieved / 1e6:.1f} MHz "
                    f"(target {self.target / 1e6:.1f})")
        return (f"{self.name} {self.achieved:.1f} deg "
                f"(target {self.target:.1f})")


def spec_misses(
    specs: "OtaSpecs",
    gbw: float,
    phase_margin: float,
    gbw_ok: bool,
    pm_ok: bool,
) -> Tuple[SpecMiss, ...]:
    """The :class:`SpecMiss` records of a plan's final iteration, given
    the plan loop's own verdict on its GBW and phase margin; empty when
    both were within tolerance."""
    misses = []
    if not gbw_ok:
        misses.append(SpecMiss("gbw", specs.gbw, gbw))
    if not pm_ok:
        misses.append(
            SpecMiss("phase_margin", specs.phase_margin, phase_margin)
        )
    return tuple(misses)


@dataclass
class SizingResult:
    """Output of a design plan run."""

    sizes: Dict[str, Tuple[float, float]]
    """Device name -> (W, L), requested (pre-snapping) values."""
    currents: Dict[str, float]
    """Device name -> drain current magnitude, A."""
    biases: Dict[str, float]
    """Bias net -> voltage."""
    overdrives: Dict[str, float] = field(default_factory=dict)
    predicted: Optional[object] = None
    """OtaMetrics from the plan's own evaluation."""
    iterations: int = 0
    mode: ParasiticMode = ParasiticMode.NONE
    computed_icmr: Tuple[float, float] = (0.0, 0.0)
    computed_output_range: Tuple[float, float] = (0.0, 0.0)
    status: str = "met"
    """How the plan's loop ended: ``met`` (every spec within tolerance),
    ``knobs_exhausted`` (no knob left to turn; the plan accepts the miss)
    or ``iteration_cap`` (out of iterations)."""
    misses: Tuple[SpecMiss, ...] = ()
    """The specs the accepted iteration missed (empty when ``met``)."""
    knobs: Optional[object] = None
    """The plan's search state in the accepted iteration (e.g.
    :class:`~repro.sizing.plans.folded_cascode.FoldedCascodeKnobs`).
    Passing it back as ``start`` re-sizes from where this sizing ended."""

    def describe_status(self) -> str:
        """``status`` with its iteration count and any missed specs, e.g.
        ``knobs_exhausted after 9 iterations: phase_margin 72.1 deg
        (target 65.0)``."""
        plural = "" if self.iterations == 1 else "s"
        text = f"{self.status} after {self.iterations} iteration{plural}"
        if self.misses:
            text += ": " + ", ".join(str(miss) for miss in self.misses)
        return text

    def total_current(self, branches: Dict[str, float]) -> float:
        return sum(branches.values())
