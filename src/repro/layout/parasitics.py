"""Parasitic calculation mode: the data the layout tool sends back.

In the layout-oriented flow (paper section 2) the layout tool runs first in
a *parasitic calculation mode*: area optimisation fixes each transistor's
fold count, wire positions and widths, and the tool returns — without
emitting geometry —

* the layout style of every transistor (fold count, finger widths,
  internal/external/shared diffusions) as an exact junction geometry,
* routing capacitance per net including wire-to-wire coupling,
* exact well sizes for floating-well capacitance.

:class:`ParasiticReport` is that data structure; the layout generators
fill it in both estimate and generate modes, and the sizing tool consumes
it.  Nothing here reads a drawn cell: each placed module's parasitics come
from its frame's shape enumeration (:class:`ModuleView`), its devices from
the frame's plan, and the routing's from the router's recorded wires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.layout.extraction import (
    ExtractionWorkspace,
    _wells,
    interconnect_parasitics,
)
from repro.layout.geometry import Rect
from repro.layout.layers import Layer
from repro.mos.junction import DiffusionGeometry
from repro.technology.process import Technology

if TYPE_CHECKING:
    from repro.layout.cell import FrameShape
    from repro.layout.devices import ModuleFrame
    from repro.layout.placement import ShapePoint
    from repro.layout.routing import PlacedModule, RoutingResult

#: Farads per square metre of drain-area change in
#: :meth:`ParasiticReport.distance`: 1 um^2 (1e-12 m^2) counts as 1 fF
#: (1e-15 F), so junction changes share the capacitance tolerance.
DRAIN_AREA_WEIGHT = 1e-3


class ModuleView:
    """A frame's shapes as the estimator and the router read them.

    Built from one enumeration, ``frame.shapes(cuts=False)`` — no cell,
    no :class:`~repro.layout.cell.Shape` — in module coordinates:

    * ``workspace`` — the interconnect arrays and actives of the wiring
      passes, exactly those :func:`~repro.layout.extraction.extract_cell`
      builds from the drawn module;
    * ``wells`` — n-well (area, perimeter) per net;
    * ``pins`` — per net, the pin ``(rect, layer)`` pairs in declaration
      order (the drawn cell's ``pins``);
    * ``metal`` — per metal layer, the ``(N, 4)`` coordinates and nets of
      every shape the router must clear.

    Views are transient: a layout build makes them for its placed frames
    and drops them, so the memoized result holds no arrays.
    """

    __slots__ = ("workspace", "wells", "pins", "metal")

    def __init__(self, shapes: "Iterable[FrameShape]"):
        rows = []
        self.pins: Dict[str, List[Tuple[Rect, Layer]]] = {}
        metal: Dict[Layer, List[Tuple[Rect, Optional[str]]]] = {
            Layer.METAL1: [], Layer.METAL2: [],
        }
        for layer, rect, net, is_pin in shapes:
            rows.append((layer, rect, net))
            if is_pin:
                self.pins.setdefault(net, []).append((rect, layer))
            if layer is Layer.METAL1 or layer is Layer.METAL2:
                metal[layer].append((rect, net))
        self.workspace = ExtractionWorkspace(rows)
        self.wells = _wells(rows)
        self.metal: Dict[Layer, Tuple[np.ndarray, List[Optional[str]]]] = {
            layer: (
                np.array(
                    [(r.x0, r.y0, r.x1, r.y1) for r, _net in members]
                ).reshape(-1, 4),
                [net for _r, net in members],
            )
            for layer, members in metal.items()
        }

    @classmethod
    def of(cls, frame: "ModuleFrame") -> "ModuleView":
        return cls(frame.shapes(cuts=False))


@dataclass
class DeviceParasitics:
    """Layout style of one transistor, as decided by area optimisation."""

    nf: int
    finger_width: float
    actual_width: float
    """Drawn width after grid snapping (may differ from the requested)."""
    requested_width: float
    geometry: DiffusionGeometry
    drain_internal: bool = True

    @property
    def width_error(self) -> float:
        """Relative drawn-vs-requested width error."""
        if self.requested_width == 0.0:
            return 0.0
        return (self.actual_width - self.requested_width) / self.requested_width


@dataclass
class ParasiticReport:
    """Everything the layout tool reports back to the sizing tool."""

    devices: Dict[str, DeviceParasitics] = field(default_factory=dict)
    net_capacitance: Dict[str, float] = field(default_factory=dict)
    """Routing capacitance to substrate per net, F."""
    coupling: Dict[Tuple[str, str], float] = field(default_factory=dict)
    """Wire-to-wire coupling capacitance per (sorted) net pair, F."""
    well_capacitance: Dict[str, float] = field(default_factory=dict)
    """Well junction capacitance per well (bulk) net, F."""
    width: float = 0.0
    height: float = 0.0

    @property
    def area(self) -> float:
        return self.width * self.height

    def net_total(self, net: str) -> float:
        """Ground + all coupling capacitance touching ``net``, F.

        A conservative single-number summary used for convergence checks.
        """
        total = self.net_capacitance.get(net, 0.0)
        for (net_a, net_b), value in self.coupling.items():
            if net in (net_a, net_b):
                total += value
        total += self.well_capacitance.get(net, 0.0)
        return total

    def distance(self, other: "ParasiticReport") -> float:
        """Largest absolute per-net capacitance change vs ``other``, F.

        The synthesis loop repeats "till the calculated parasitics remain
        unchanged"; this is the convergence metric.
        """
        nets = set(self.net_capacitance) | set(other.net_capacitance)
        nets |= set(self.well_capacitance) | set(other.well_capacitance)
        worst = 0.0
        for net in nets:
            worst = max(worst, abs(self.net_total(net) - other.net_total(net)))
        for name, device in self.devices.items():
            if name in other.devices:
                other_geometry = other.devices[name].geometry
                worst = max(
                    worst,
                    abs(device.geometry.ad - other_geometry.ad)
                    * DRAIN_AREA_WEIGHT,
                )
        return worst


def module_report(
    tech: Technology,
    point: "ShapePoint",
    placements: Mapping[str, "PlacedModule"],
    views: Mapping[str, ModuleView],
    requested_widths: Mapping[str, float],
    drain_internal: Mapping[str, bool],
) -> ParasiticReport:
    """The parasitic report of a placement, before routing.

    Devices take their layout style and exact junction geometry from
    their module's frame; "each module calculates the values of
    parasitic components in a predefined parasitic model" — module
    wiring, intra-module coupling and wells from the wiring passes over
    each placed module's :class:`ModuleView` (module coordinates, as an
    extraction of the drawn module would see them).
    :func:`add_routing` then adds what "routing parasitics are then
    calculated" to.  ``requested_widths`` maps device names to the widths
    the sizing asked for (a missing device reports its drawn width);
    ``drain_internal`` maps device names to their declared drain style
    (a missing device reports drain-internal).
    """
    report = ParasiticReport(width=point.width, height=point.height)
    for module in placements.values():
        frame = module.frame
        for device, geometry in frame.device_geometry().items():
            actual = frame.actual_widths[device]
            report.devices[device] = DeviceParasitics(
                nf=frame.device_nf[device],
                finger_width=frame.finger_width,
                actual_width=actual,
                requested_width=requested_widths.get(device, actual),
                geometry=geometry,
                drain_internal=drain_internal.get(device, True),
            )
    for name in placements:
        view = views[name]
        wiring = interconnect_parasitics(tech, view.workspace, view.wells)
        for net, value in wiring.net_wire_cap.items():
            report.net_capacitance[net] = (
                report.net_capacitance.get(net, 0.0) + value
            )
        for pair, value in wiring.coupling.items():
            report.coupling[pair] = report.coupling.get(pair, 0.0) + value
        for net, (area, perimeter) in wiring.well.items():
            report.well_capacitance[net] = report.well_capacitance.get(
                net, 0.0
            ) + tech.well.capacitance(area, perimeter)
    return report


def add_routing(
    report: ParasiticReport, routing: "RoutingResult", tech: Technology
) -> None:
    """Add the routed nets' ground capacitance (channel tracks, stubs,
    side columns) and the track-to-track coupling to ``report``."""
    for net, routed in routing.nets.items():
        report.net_capacitance[net] = report.net_capacitance.get(
            net, 0.0
        ) + routed.ground_capacitance(tech)
    for pair, value in routing.coupling_capacitances(tech).items():
        report.coupling[pair] = report.coupling.get(pair, 0.0) + value
