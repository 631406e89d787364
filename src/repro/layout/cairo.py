"""CAIRO-style procedural layout language.

"This is achieved through a dedicated layout language (CAIRO) that allows
to easily describe relatively both module placement and routing" (paper
section 3).  :class:`CairoProgram` is that language's Python embodiment: a
program declares devices, pairs and mirrors, groups them into rows and
stacks rows into a column, states a shape constraint, and then runs in
either of the paper's two modes:

* :meth:`CairoProgram.calculate_parasitics` — parasitic calculation
  mode: the report, with no geometry emitted;
* :meth:`CairoProgram.generate` — generation mode (returns the cell).

Transistors, pairs, mirrors and taps are module frames; capacitors and
resistors have no frame, so their generators draw a cell whose shapes
stand in for a frame's enumeration
(:class:`~repro.layout.devices.CellFrame`).  Placement, routing and the report go
through the same :func:`repro.layout.assembly.assemble` as the OTA
generator (:mod:`repro.layout.ota`), the hand-tuned equivalent for the
paper's specific circuit; the DSL covers the general case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import LayoutError
from repro.layout.assembly import Assembly, assemble
from repro.layout.cell import Cell
from repro.layout.devices import (
    CellFrame,
    ModuleFrame,
    current_mirror_frame,
    differential_pair_frame,
    single_device_frame,
)
from repro.layout.parasitics import ParasiticReport
from repro.layout.placement import ModuleVariant
from repro.technology.process import Technology


@dataclass
class _ModuleDecl:
    """A declared module awaiting generation."""

    name: str
    builder: Callable[[], ModuleFrame]
    requested_widths: Dict[str, float] = field(default_factory=dict)
    drain_internal: Dict[str, bool] = field(default_factory=dict)
    """Declared drain style per device (devices absent here report the
    default drain-internal style)."""


class CairoProgram:
    """A procedural layout program."""

    def __init__(self, technology: Technology, name: str = "cairo"):
        technology.validate()
        self.technology = technology
        self.name = name
        self._modules: Dict[str, _ModuleDecl] = {}
        self._rows: List[List[str]] = []
        self._net_currents: Dict[str, float] = {}
        self._aspect: Optional[float] = 1.0
        self._height: Optional[float] = None
        self._width: Optional[float] = None

    # -- Declarations -----------------------------------------------------------

    def _declare(self, declaration: _ModuleDecl) -> None:
        if declaration.name in self._modules:
            raise LayoutError(f"module {declaration.name!r} already declared")
        self._modules[declaration.name] = declaration

    def device(
        self,
        name: str,
        polarity: str,
        w: float,
        l: float,
        nets: Tuple[str, str, str, str],
        nf: int = 1,
        current: float = 0.0,
        drain_internal: bool = True,
    ) -> None:
        """Declare a single transistor module (drain, gate, source, bulk)."""

        def build() -> ModuleFrame:
            return single_device_frame(
                self.technology,
                polarity,
                w,
                l,
                nf,
                nets,
                drain_current=current,
                drain_internal=drain_internal,
                name=name,
            )

        self._declare(_ModuleDecl(name=name, builder=build,
                                  requested_widths={name: w},
                                  drain_internal={name: drain_internal}))

    def pair(
        self,
        name: str,
        polarity: str,
        w: float,
        l: float,
        nf: int,
        names: Tuple[str, str],
        drains: Tuple[str, str],
        gates: Tuple[str, str],
        source: str,
        bulk: str,
        current_per_side: float = 0.0,
        style: str = "common_centroid",
    ) -> None:
        """Declare a matched differential pair module."""

        def build() -> ModuleFrame:
            return differential_pair_frame(
                self.technology,
                polarity,
                w,
                l,
                nf,
                names=names,
                drains=drains,
                gates=gates,
                source=source,
                bulk=bulk,
                current_per_side=current_per_side,
                style=style,
                name=name,
            )

        self._declare(
            _ModuleDecl(
                name=name,
                builder=build,
                requested_widths={names[0]: w, names[1]: w},
            )
        )

    def mirror(
        self,
        name: str,
        polarity: str,
        ratios: Mapping[str, int],
        unit_width: float,
        l: float,
        drains: Mapping[str, str],
        gate: str,
        source: str,
        bulk: str,
        currents: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Declare a stacked current mirror module (paper Figure 3)."""

        def build() -> ModuleFrame:
            return current_mirror_frame(
                self.technology,
                polarity,
                ratios,
                unit_width,
                l,
                drains=drains,
                gate=gate,
                source=source,
                bulk=bulk,
                currents=currents,
                name=name,
            )

        widths = {d: ratios[d] * unit_width for d in ratios}
        self._declare(_ModuleDecl(name=name, builder=build,
                                  requested_widths=widths))

    def capacitor(
        self,
        name: str,
        value: float,
        net_top: str,
        net_bottom: str,
        aspect: float = 1.0,
    ) -> None:
        """Declare a double-poly plate capacitor module."""
        from repro.layout.capacitor import plate_capacitor

        def build() -> ModuleFrame:
            return CellFrame(plate_capacitor(
                self.technology, value, net_top, net_bottom,
                name=name, aspect=aspect,
            ))

        self._declare(_ModuleDecl(name=name, builder=build))

    def resistor(
        self,
        name: str,
        value: float,
        net_a: str,
        net_b: str,
        width: float = 0.0,
    ) -> None:
        """Declare a serpentine poly resistor module."""
        from repro.layout.resistor import poly_resistor

        def build() -> ModuleFrame:
            return CellFrame(poly_resistor(
                self.technology, value, net_a, net_b,
                name=name, width=width,
            ))

        self._declare(_ModuleDecl(name=name, builder=build))

    def tap(
        self,
        name: str,
        kind: str,
        net: str,
        height: float,
    ) -> None:
        """Declare a substrate or well tap column."""
        from repro.layout.tap import TapFrame

        def build() -> ModuleFrame:
            return TapFrame(self.technology, kind, net, height, name=name)

        self._declare(_ModuleDecl(name=name, builder=build))

    # -- Structure ------------------------------------------------------------------

    def row(self, *module_names: str) -> None:
        """Append a placement row (bottom-up order of calls)."""
        for module in module_names:
            if module not in self._modules:
                raise LayoutError(f"unknown module {module!r} in row")
        self._rows.append(list(module_names))

    def net_current(self, net: str, current: float) -> None:
        """Declare a net's DC current for the reliability rules."""
        self._net_currents[net] = current

    def shape(
        self,
        aspect: Optional[float] = None,
        height: Optional[float] = None,
        width: Optional[float] = None,
    ) -> None:
        """Set the shape constraint driving area optimisation."""
        self._aspect, self._height, self._width = aspect, height, width

    # -- Execution ----------------------------------------------------------------------

    def assemble(self) -> Tuple[Assembly, ParasiticReport]:
        """Place, route and report the program, drawing nothing."""
        if not self._rows:
            raise LayoutError("program has no rows; call row() first")

        def variants() -> Dict[str, List[ModuleVariant]]:
            frames = {
                name: declaration.builder()
                for name, declaration in self._modules.items()
            }
            return {
                name: [ModuleVariant(name, *frame.footprint, frame)]
                for name, frame in frames.items()
            }

        requested = {
            device: width
            for declaration in self._modules.values()
            for device, width in declaration.requested_widths.items()
        }
        drain_internal = {
            device: flag
            for declaration in self._modules.values()
            for device, flag in declaration.drain_internal.items()
        }
        assembly, report, _tags = assemble(
            self.technology, self.name, self._rows, variants,
            net_currents=self._net_currents,
            requested_widths=requested,
            drain_internal=drain_internal,
            aspect=self._aspect, height=self._height, width=self._width,
        )
        return assembly, report

    def calculate_parasitics(self) -> ParasiticReport:
        """Parasitic calculation mode: the report, no geometry emitted."""
        return self.assemble()[1]

    def generate(self) -> Tuple[Cell, ParasiticReport]:
        """Generation mode: the drawn cell plus its parasitic report."""
        assembly, report = self.assemble()
        return assembly.draw(), report
