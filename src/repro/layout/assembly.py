"""One assembly path for every layout generator: place, route, report.

Both layout generators — the hand-tuned folded-cascode OTA
(:mod:`repro.layout.ota`) and the CAIRO language
(:mod:`repro.layout.cairo`, which the two-stage OTA is written in) —
stack rows of modules with routing channels between them and run the
paper's two modes through :func:`assemble`:

* **place** — slicing-tree area optimisation over the modules' fold
  variants, read as frame footprints;
* **parasitics** — each placed frame's shapes enumerated once
  (:class:`~repro.layout.parasitics.ModuleView`) for its devices, wiring,
  coupling and wells;
* **route** — the channel router plans tracks, stubs and side columns
  against the views' pins and metal, and records them.

No cell, shape or drawn module is made: that is the parasitic-calculation
mode.  The :class:`Assembly` it returns holds the placed frames with their
offsets and the recorded routing, and :meth:`Assembly.draw` is the
generation mode: it draws each placed frame once and replays the routing
into the top cell.  Each step is a telemetry span (``layout.place``,
``layout.parasitics``, ``layout.route``, ``layout.draw``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import telemetry
from repro.layout.cell import Cell
from repro.layout.parasitics import (
    ModuleView,
    ParasiticReport,
    add_routing,
    module_report,
)
from repro.layout.placement import LeafNode, ModuleVariant, SliceNode, optimize
from repro.layout.routing import ChannelRouter, PlacedModule, RoutingResult
from repro.technology.process import Technology


@dataclass
class Assembly:
    """A placed and routed layout, held as frames and a routing record."""

    name: str
    placements: Dict[str, PlacedModule]
    routing: RoutingResult

    def draw(self) -> Cell:
        """The generated layout: every placed frame drawn once, as an
        instance at its offset, plus the recorded routing."""
        with telemetry.span("layout.draw", cell=self.name):
            top = Cell(self.name)
            for module in self.placements.values():
                top.add_instance(module.frame.cell(), dx=module.dx, dy=module.dy)
            self.routing.draw(top)
        return top


def _pin_channels(
    rows: Sequence[Sequence[str]],
    variants: Mapping[str, Sequence[ModuleVariant]],
    views: Dict[str, ModuleView],
) -> Dict[str, List[int]]:
    """Each net's pin channels, read off single-variant modules' pins.

    A pin on a module's bottom half reaches its row's channel, one on
    the top half the channel above.
    """
    net_pins: Dict[str, List[int]] = {}
    for row_index, row in enumerate(rows):
        for name in row:
            (variant,) = variants[name]
            view = views[name] = ModuleView.of(variant.frame)
            center_y = variant.frame.bbox.center.y
            for net, pins in view.pins.items():
                for rect, _layer in pins:
                    channel = (
                        row_index if rect.center.y < center_y
                        else row_index + 1
                    )
                    net_pins.setdefault(net, []).append(channel)
    return net_pins


def assemble(
    tech: Technology,
    name: str,
    rows: Sequence[Sequence[str]],
    variants: Callable[[], Mapping[str, Sequence[ModuleVariant]]],
    net_currents: Mapping[str, float],
    requested_widths: Mapping[str, float],
    drain_internal: Mapping[str, bool],
    net_pins: Optional[Mapping[str, List[int]]] = None,
    aspect: Optional[float] = None,
    height: Optional[float] = None,
    width: Optional[float] = None,
) -> Tuple[Assembly, ParasiticReport, List[Any]]:
    """Place, route and report an assembly of module rows.

    ``rows`` lists module names bottom row first, in placement order
    within a row; ``variants()`` builds each module's fold variants,
    whose ``frame`` is the module frame of that footprint (it runs
    inside the ``layout.place`` span, with area optimisation).
    ``net_pins`` gives each routed net's pin channels; without it they
    are read off the modules' pins, which needs one variant per module.
    One of ``aspect``, ``height`` or ``width`` is the shape constraint.
    Returns the assembly, its parasitic report and the placed variants'
    tags in placement order.
    """
    rules = tech.rules
    router = ChannelRouter(tech, net_currents)
    views: Dict[str, ModuleView] = {}
    with telemetry.span("layout.place"):
        built = variants()
        if net_pins is None:
            net_pins = _pin_channels(rows, built, views)
        channel_plan = router.plan_channels(len(rows), net_pins)

        # Slicing tree: rows of leaves, stacked with the heights of the
        # channels *between* rows (channels 0 and len(rows) extend the
        # assembly below and above).
        module_gap = 4.0 * rules.metal1_spacing
        row_nodes = [
            SliceNode(
                "h",
                [LeafNode(module, built[module]) for module in row],
                [module_gap] * (len(row) - 1),
                align="center",
            )
            for row in rows
        ]
        root = row_nodes[0]
        if len(row_nodes) > 1:
            root = SliceNode(
                "v", row_nodes,
                spacings=channel_plan.heights[1:len(row_nodes)],
                align="center",
            )
        point, placed = optimize(root, aspect=aspect, height=height, width=width)

        placements: Dict[str, PlacedModule] = {}
        for placement in placed:
            frame = placement.variant.frame
            placements[placement.name] = PlacedModule(
                name=placement.name,
                frame=frame,
                dx=placement.dx - frame.bbox.x0,
                dy=placement.dy - frame.bbox.y0,
            )

    with telemetry.span("layout.parasitics"):
        for module in placements.values():
            if module.name not in views:
                views[module.name] = ModuleView.of(module.frame)
        report = module_report(
            tech, point, placements, views, requested_widths, drain_internal
        )

    with telemetry.span("layout.route"):
        # Channel 0 hangs below the bottom row, channel i (1..n-1) starts
        # at the top of row i-1, and the last channel sits above the top
        # row.
        row_boxes = [[placements[m].bbox() for m in row] for row in rows]
        channel_y = [
            min(box.y0 for box in row_boxes[0]) - channel_plan.heights[0]
        ]
        channel_y += [max(box.y1 for box in boxes) for boxes in row_boxes]
        row_of_module = {
            module: row_index
            for row_index, row in enumerate(rows)
            for module in row
        }
        routing = router.route(
            list(placements.values()), views, row_of_module, channel_plan,
            channel_y, (0.0, point.width),
        )
        add_routing(report, routing, tech)

    return (
        Assembly(name=name, placements=placements, routing=routing),
        report,
        [placement.variant.tag for placement in placed],
    )
