"""CAIRO-style procedural layout language.

"This is achieved through a dedicated layout language (CAIRO) that allows
to easily describe relatively both module placement and routing" (paper
section 3).  :class:`CairoProgram` is that language's Python embodiment: a
program declares devices, pairs and mirrors, groups them into rows and
stacks rows into a column, states a shape constraint, and then runs in
either of the paper's two modes:

* :meth:`CairoProgram.calculate_parasitics` — parasitic calculation mode;
* :meth:`CairoProgram.generate` — generation mode (returns the cell).

The OTA generator (:mod:`repro.layout.ota`) is the hand-tuned equivalent
for the paper's specific circuit; the DSL covers the general case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import LayoutError
from repro.layout.cell import Cell
from repro.layout.devices import (
    ModuleLayout,
    current_mirror_layout,
    differential_pair_layout,
    single_device_layout,
)
from repro.layout.parasitics import ParasiticReport, module_report
from repro.layout.placement import LeafNode, ModuleVariant, SliceNode, optimize
from repro.layout.routing import ChannelRouter, PlacedModule
from repro.technology.process import Technology


@dataclass
class _ModuleDecl:
    """A declared module awaiting generation."""

    name: str
    builder: object
    requested_widths: Dict[str, float] = field(default_factory=dict)


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

        def build() -> ModuleLayout:
            return single_device_layout(
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
                                  requested_widths={name: w}))

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

        def build() -> ModuleLayout:
            return differential_pair_layout(
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

        def build() -> ModuleLayout:
            return current_mirror_layout(
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

        def build() -> ModuleLayout:
            return plate_capacitor(
                self.technology, value, net_top, net_bottom,
                name=name, aspect=aspect,
            )

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

        def build() -> ModuleLayout:
            return poly_resistor(
                self.technology, value, net_a, net_b,
                name=name, width=width,
            )

        self._declare(_ModuleDecl(name=name, builder=build))

    def tap(
        self,
        name: str,
        kind: str,
        net: str,
        height: float,
    ) -> None:
        """Declare a substrate or well tap column."""
        from repro.layout.tap import tap_column

        def build() -> ModuleLayout:
            return tap_column(self.technology, kind, net, height, name=name)

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

    def _assemble(self) -> Tuple[Cell, Dict[str, PlacedModule], ParasiticReport]:
        if not self._rows:
            raise LayoutError("program has no rows; call row() first")
        rules = self.technology.rules

        layouts = {
            name: declaration.builder()
            for name, declaration in self._modules.items()
        }

        # Net pin channels for planning: a pin on a module's bottom edge
        # reaches its row's channel, a top-edge pin the channel above.
        net_pins: Dict[str, List[int]] = {}
        for row_index, row in enumerate(self._rows):
            for module in row:
                cell = layouts[module].cell
                box = cell.bbox()
                for net, shapes in cell.pins.items():
                    for shape in shapes:
                        channel = (
                            row_index
                            if shape.rect.center.y < box.center.y
                            else row_index + 1
                        )
                        net_pins.setdefault(net, []).append(channel)

        router = ChannelRouter(self.technology, self._net_currents)
        channel_plan = router.plan_channels(len(self._rows), net_pins)

        module_gap = 4.0 * rules.metal1_spacing
        row_nodes = []
        for row in self._rows:
            leaves = [
                LeafNode(m, [ModuleVariant(
                    m, layouts[m].width, layouts[m].height,
                    lambda layout=layouts[m]: layout,
                )])
                for m in row
            ]
            row_nodes.append(
                SliceNode(
                    "h", leaves, [module_gap] * (len(leaves) - 1), align="center"
                )
            )
        if len(row_nodes) > 1:
            root = SliceNode(
                "v", row_nodes,
                spacings=channel_plan.heights[1:len(row_nodes)],
                align="center",
            )
        else:
            root = row_nodes[0]

        point, placements_list = optimize(
            root, aspect=self._aspect, height=self._height, width=self._width
        )

        placements: Dict[str, PlacedModule] = {}
        row_of_module: Dict[str, int] = {}
        for placement in placements_list:
            box = placement.variant.layout.cell.bbox()
            placements[placement.name] = PlacedModule(
                name=placement.name,
                layout=placement.variant.layout,
                dx=placement.dx - box.x0,
                dy=placement.dy - box.y0,
            )
        for row_index, row in enumerate(self._rows):
            for module in row:
                row_of_module[module] = row_index

        # Channel 0 hangs below the bottom row; channel i starts at the top
        # of row i-1; the last channel sits above the top row.
        def row_members(row_index: int):
            return [placements[m] for m in self._rows[row_index]]

        bottom = min(m.bbox().y0 for m in row_members(0))
        channel_y = [bottom - channel_plan.heights[0]]
        for row_index in range(len(self._rows)):
            channel_y.append(max(m.bbox().y1 for m in row_members(row_index)))

        top = Cell(self.name)
        for module in placements.values():
            top.add_instance(module.layout.cell, dx=module.dx, dy=module.dy)
        routing = router.route(
            top,
            list(placements.values()),
            row_of_module,
            channel_plan,
            channel_y,
            (0.0, point.width),
        )

        requested = {
            device: width
            for declaration in self._modules.values()
            for device, width in declaration.requested_widths.items()
        }
        report = module_report(
            self.technology, point, placements, routing, requested
        )
        return top, placements, report

    def calculate_parasitics(self) -> ParasiticReport:
        """Parasitic calculation mode: report only, no geometry kept."""
        _cell, _placements, report = self._assemble()
        return report

    def generate(self) -> Tuple[Cell, ParasiticReport]:
        """Generation mode: the drawn cell plus its parasitic report."""
        cell, _placements, report = self._assemble()
        return cell, report
