"""Parasitic calculation mode: the data the layout tool sends back.

In the layout-oriented flow (paper section 2) the layout tool runs first in
a *parasitic calculation mode*: area optimisation fixes each transistor's
fold count, wire positions and widths, and the tool returns — without
emitting geometry —

* the layout style of every transistor (fold count, finger widths,
  internal/external/shared diffusions) as an exact junction geometry,
* routing capacitance per net including wire-to-wire coupling,
* exact well sizes for floating-well capacitance.

:class:`ParasiticReport` is that data structure; the OTA generator fills it
in both estimate and generate modes, and the sizing tool consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from repro.layout.extraction import extract_wiring
from repro.mos.junction import DiffusionGeometry
from repro.technology.process import Technology

if TYPE_CHECKING:
    from repro.layout.placement import ShapePoint
    from repro.layout.routing import PlacedModule, RoutingResult


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
                worst = max(worst, abs(device.geometry.ad - other_geometry.ad) * 1e-3)
        return worst

    def summary(self, technology: Optional[Technology] = None) -> str:
        """Multi-line human-readable report."""
        lines = [f"layout {self.width * 1e6:.1f} x {self.height * 1e6:.1f} um"]
        for name in sorted(self.devices):
            device = self.devices[name]
            lines.append(
                f"  {name}: nf={device.nf} wf={device.finger_width * 1e6:.2f}um "
                f"ad={device.geometry.ad * 1e12:.2f}pm2 "
                f"pd={device.geometry.pd * 1e6:.1f}um"
            )
        for net in sorted(self.net_capacitance):
            lines.append(
                f"  net {net}: {self.net_capacitance[net] * 1e15:.1f} fF routing"
            )
        for pair in sorted(self.coupling):
            lines.append(
                f"  coupling {pair[0]}-{pair[1]}: {self.coupling[pair] * 1e15:.2f} fF"
            )
        return "\n".join(lines)


def module_report(
    tech: Technology,
    point: "ShapePoint",
    placements: Mapping[str, "PlacedModule"],
    routing: "RoutingResult",
    requested_widths: Mapping[str, float],
    drain_internal: bool = True,
) -> ParasiticReport:
    """The parasitic report of a placed and routed assembly.

    Devices take their layout style and exact junction geometry from
    their module's generator; "each module calculates the values of
    parasitic components in a predefined parasitic model" — module
    wiring, intra-module coupling and wells from the wiring-only
    extraction of each placed module cell; then "routing parasitics are
    then calculated": channel tracks, stubs and side columns plus
    track-to-track coupling.  ``requested_widths`` maps device names to
    the widths the sizing asked for (a missing device reports its drawn
    width).
    """
    report = ParasiticReport(width=point.width, height=point.height)
    for module in placements.values():
        layout = module.layout
        for device, geometry in layout.device_geometry.items():
            actual = layout.actual_widths[device]
            report.devices[device] = DeviceParasitics(
                nf=layout.device_nf[device],
                finger_width=layout.finger_width,
                actual_width=actual,
                requested_width=requested_widths.get(device, actual),
                geometry=geometry,
                drain_internal=drain_internal,
            )
    for module in placements.values():
        wiring = extract_wiring(module.layout.cell, tech)
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
    for net, routed in routing.nets.items():
        report.net_capacitance[net] = report.net_capacitance.get(
            net, 0.0
        ) + routed.ground_capacitance(tech)
    for pair, value in routing.coupling_capacitances(tech).items():
        report.coupling[pair] = report.coupling.get(pair, 0.0) + value
    return report
