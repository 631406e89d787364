"""Device generators: rendered stacks, differential pairs, current mirrors.

Built on the motif/stack machinery, these produce :class:`ModuleLayout`
objects — a drawn cell plus the *exact* per-device junction geometry the
sizing tool consumes during layout-aware synthesis.

Rendering conventions: gates are vertical poly fingers; diffusion strips
between them carry contact columns and vertical metal-1 straps; horizontal
metal-2 rails collect each net (drains below the row, source/gates/dummy
ties above), with electromigration-derived widths.

Each generator is a :class:`ModuleFrame` — the numeric plan, with the
drawn module's exact footprint — whose ``shapes()`` enumerates the
module's rectangles in drawing order and whose ``draw()`` emits that
enumeration into a cell: ``*_layout(...)`` is ``*_frame(...).draw()``.
The layout generators place modules by their frames' footprints, compute
parasitics from the placed frames' enumerations and draw only in
generation mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.errors import LayoutError
from repro.layout.cell import Cell, FrameShape
from repro.layout.geometry import Rect, bounding_box
from repro.layout.layers import CUT_LAYERS, Layer
from repro.layout.motif import MotifFrame
from repro.layout.stack import DUMMY, StackPlan, generate_stack
from repro.mos.junction import DiffusionGeometry
from repro.technology.process import Technology


@dataclass
class ModuleLayout:
    """A generated module: geometry plus electrical annotations."""

    cell: Cell
    device_geometry: Dict[str, DiffusionGeometry]
    device_nf: Dict[str, int]
    finger_width: float
    length: float
    plan: Optional[StackPlan] = None
    well_rect: Optional[Rect] = None
    actual_widths: Dict[str, float] = field(default_factory=dict)
    """Drawn total width per device (after grid snapping)."""

    @property
    def width(self) -> float:
        return self.cell.width

    @property
    def height(self) -> float:
        return self.cell.height


class ModuleFrame:
    """A module's numeric plan: its exact footprint, shapes and devices.

    A frame runs every feasibility check its drawing would (so it raises
    the same :class:`LayoutError`) and sets :attr:`bbox` to the exact
    bounding box of the cell :meth:`draw` emits, down to the last float
    bit, without emitting a shape.  Placement reads :attr:`footprint`.

    :meth:`shapes` enumerates the module's rectangles in drawing order;
    :meth:`cell` emits that enumeration into a cell, so drawing and the
    parasitic-calculation mode (which reads the enumeration as arrays,
    :class:`repro.layout.parasitics.ModuleView`) share one source.  The
    device annotations — :meth:`device_geometry`, :attr:`device_nf`,
    :attr:`finger_width`, :attr:`actual_widths` — come from the plan,
    not from drawn shapes.
    """

    name: str
    bbox: Rect
    device_nf: Dict[str, int]
    finger_width: float
    length: float
    actual_widths: Dict[str, float]
    """Drawn total width per device (after grid snapping)."""
    plan: Optional[StackPlan] = None
    well_rect: Optional[Rect] = None

    @property
    def footprint(self) -> Tuple[float, float]:
        """``(width, height)`` of the module :meth:`draw` produces."""
        return self.bbox.width, self.bbox.height

    def shapes(self, cuts: bool = True) -> Iterator[FrameShape]:
        """Every shape :meth:`cell` emits, in order; ``cuts=False``
        leaves out the contact and via cuts."""
        raise NotImplementedError

    def device_geometry(self) -> Dict[str, DiffusionGeometry]:
        """Exact junction geometry per device."""
        return {}

    def cell(self) -> Cell:
        """The module drawn into a fresh cell."""
        return Cell.from_shapes(self.name, self.shapes())

    def draw(self) -> ModuleLayout:
        """The drawn cell with the frame's device annotations."""
        return ModuleLayout(
            cell=self.cell(),
            device_geometry=self.device_geometry(),
            device_nf=dict(self.device_nf),
            finger_width=self.finger_width,
            length=self.length,
            plan=self.plan,
            well_rect=self.well_rect,
            actual_widths=dict(self.actual_widths),
        )


class CellFrame(ModuleFrame):
    """A module drawn by a generator that has no frame (plate
    capacitors, poly resistors): its shapes are those of its cell."""

    def __init__(self, layout: ModuleLayout):
        cell = layout.cell
        self.layout = layout
        self.name = cell.name
        self.bbox = cell.bbox()
        self.device_nf = layout.device_nf
        self.finger_width = layout.finger_width
        self.length = layout.length
        self.actual_widths = layout.actual_widths
        self.plan = layout.plan
        self.well_rect = layout.well_rect

    def shapes(self, cuts: bool = True) -> Iterator[FrameShape]:
        cell = self.layout.cell
        pins = {id(shape) for shapes in cell.pins.values()
                for shape in shapes}
        # Pins are local shapes, and the flattening lists a cell's local
        # shapes first, in order.
        pin_rows = {i for i, shape in enumerate(cell.shapes)
                    if id(shape) in pins}
        for i, (layer, rect, net) in enumerate(cell.table().rows()):
            if cuts or layer not in CUT_LAYERS:
                yield layer, rect, net, i in pin_rows

    def device_geometry(self) -> Dict[str, DiffusionGeometry]:
        return dict(self.layout.device_geometry)

    def cell(self) -> Cell:
        return self.layout.cell


def _family_samples(members: Sequence, key: Callable) -> List:
    """The members of a repeated shape family that bound its bbox.

    Every member's shapes are one function of the member's x position
    (every x coordinate non-decreasing in it) and of ``key(member)``
    (which alone sets the y coordinates), and members come in x order.
    So the first and last members bound x, one member per key bounds y,
    and the family's bounding box is exactly theirs.
    """
    by_key: Dict[object, object] = {}
    for member in members:
        by_key.setdefault(key(member), member)
    samples = [members[0], *by_key.values(), members[-1]]
    return list({id(member): member for member in samples}.values())


@dataclass
class _Strip:
    net: str
    x0: float
    width: float
    is_end: bool


def _layout_strips_and_gates(
    plan: StackPlan,
    strip_nets: List[str],
    length: float,
    end_width: float,
    internal_width: float,
    gap: float,
) -> Tuple[List[_Strip], List[Tuple[int, float]], List[Tuple[float, float]]]:
    """Geometric walk: strip records, gate x positions, active segments."""
    strips: List[_Strip] = []
    gates: List[Tuple[int, float]] = []
    segments: List[Tuple[float, float]] = []
    x = 0.0
    segment_start = x
    net_index = 0

    strips.append(_Strip(net=strip_nets[0], x0=x, width=end_width, is_end=True))
    x += end_width
    net_index = 1

    for i, finger in enumerate(plan.fingers):
        gates.append((i, x))
        x += length
        last = i == len(plan.fingers) - 1
        if last:
            strips.append(
                _Strip(net=strip_nets[net_index], x0=x, width=end_width, is_end=True)
            )
            x += end_width
            net_index += 1
        elif i in plan.breaks:
            strips.append(
                _Strip(net=strip_nets[net_index], x0=x, width=end_width, is_end=True)
            )
            x += end_width
            net_index += 1
            segments.append((segment_start, x))
            x += gap
            segment_start = x
            strips.append(
                _Strip(net=strip_nets[net_index], x0=x, width=end_width, is_end=True)
            )
            x += end_width
            net_index += 1
        else:
            strips.append(
                _Strip(
                    net=strip_nets[net_index],
                    x0=x,
                    width=internal_width,
                    is_end=False,
                )
            )
            x += internal_width
            net_index += 1
    segments.append((segment_start, x))
    return strips, gates, segments


class StackFrame(ModuleFrame):
    """The numeric plan of a rendered stack.

    ``terminals`` maps device name to ``(drain, gate, source)`` nets; all
    devices must share the source net.  ``currents`` (A per device) drives
    the electromigration wire widths and contact counts; ``dummy_net``
    defaults to the shared source net.

    Construction runs the strip walk, allocates the metal-2 tracks, the
    left-margin connector/escape columns and the rail extents, and checks
    the finger width and every strip's contact fit.  The per-strip and
    per-gate shape families are bounded through :func:`_family_samples`;
    contact and via cuts sit inside their strips and landing pads, so
    they never reach the bounding box.
    """

    def __init__(
        self,
        tech: Technology,
        plan: StackPlan,
        polarity: str,
        finger_width: float,
        length: float,
        terminals: Mapping[str, Tuple[str, str, str]],
        bulk_net: str,
        currents: Optional[Mapping[str, float]] = None,
        dummy_net: Optional[str] = None,
        name: str = "stack",
    ):
        if polarity not in ("n", "p"):
            raise LayoutError(f"polarity must be 'n' or 'p', got {polarity!r}")
        rules = tech.rules
        metal2 = tech.metal("metal2")
        currents = dict(currents or {})

        source_nets = {t[2] for t in terminals.values()}
        if len(source_nets) != 1:
            raise LayoutError(
                f"stack devices must share one source net: {source_nets}"
            )
        source_net = source_nets.pop()
        if dummy_net is None:
            dummy_net = source_net

        finger = rules.snap(finger_width)
        if finger < rules.active_min_width:
            raise LayoutError(
                f"finger width {finger:.3e} m below the active minimum"
            )
        length = rules.snap(length)

        self.tech = tech
        self.plan = plan
        self.polarity = polarity
        self.terminals = dict(terminals)
        self.bulk_net = bulk_net
        self.name = name
        self.finger = finger
        self.finger_width = finger
        self.length = length
        self.device_nf = {d: plan.units[d] for d in terminals}
        self.actual_widths = {d: finger * plan.units[d] for d in terminals}

        terminal_ds = {d: (t[0], t[2]) for d, t in terminals.items()}
        strip_nets = plan.strip_nets(terminal_ds, dummy_net=dummy_net)
        strips, gates, segments = _layout_strips_and_gates(
            plan, strip_nets, length, rules.end_diffusion_width,
            rules.contacted_diffusion_width, rules.active_spacing,
        )
        self.strips = strips
        self.gates = gates
        #: ``(gate x, gate net)`` per finger, in x order.
        self.gate_nets = [
            (
                gate_x,
                dummy_net if plan.fingers[finger_index].is_dummy
                else terminals[plan.fingers[finger_index].device][1],
            )
            for finger_index, gate_x in gates
        ]

        # Active segments and implant.
        self.actives = [Rect(x0, 0.0, x1, finger) for x0, x1 in segments]
        total_width = segments[-1][1]
        margin = rules.contact_active_enclosure
        self.implant = Rect(
            -margin, -margin, total_width + margin, finger + margin
        )

        # Net bookkeeping for EM rules.
        net_current: Dict[str, float] = {}
        strips_per_net: Dict[str, int] = {}
        for strip in strips:
            strips_per_net[strip.net] = strips_per_net.get(strip.net, 0) + 1
        for device, (drain, _gate, source) in terminals.items():
            current = abs(currents.get(device, 0.0))
            net_current[drain] = net_current.get(drain, 0.0) + current
            net_current[source] = net_current.get(source, 0.0) + current

        # Every strip holds a full contact column; the column must carry
        # the strip's share of its net's current.
        usable = finger - 2.0 * rules.contact_active_enclosure
        contact_pitch = rules.contact_size + rules.contact_spacing
        self.contact_count = (
            max(1, int(math.floor((usable - rules.contact_size) / contact_pitch)) + 1)
            if usable >= rules.contact_size
            else 0
        )
        if self.contact_count == 0:
            raise LayoutError("finger too narrow for a contact")
        for strip in strips:
            per_strip = net_current.get(strip.net, 0.0) / max(
                strips_per_net.get(strip.net, 1), 1
            )
            needed = tech.contact.cuts_for_current(per_strip)
            if self.contact_count < needed:
                raise LayoutError(
                    f"strip on net {strip.net!r} needs {needed} contact cuts, "
                    f"only {self.contact_count} fit"
                )

        # Rails land via cuts, so they must be at least one via plus its
        # enclosure wide, besides the electromigration requirement.
        rail_floor = max(
            rules.metal2_min_width,
            rules.via_size + 2.0 * rules.via_metal_enclosure,
        )
        rail_widths: Dict[str, float] = {}

        def rail_width(net: str) -> float:
            if net not in rail_widths:
                rail_widths[net] = rules.snap_up(
                    metal2.min_width_for_current(
                        net_current.get(net, 0.0), rail_floor
                    )
                )
            return rail_widths[net]

        # Track assignment: drain nets below the row, the shared source
        # track directly above the gates, then the gate pad row, then one
        # gate-level track per distinct gate net.  Keeping the pads *above*
        # the source track guarantees the gate metal-1 stubs never run
        # beside the source/drain metal-1 columns (which stop at their
        # tracks).
        drain_nets: List[str] = []
        for device in sorted(terminals):
            drain = terminals[device][0]
            if drain not in drain_nets:
                drain_nets.append(drain)

        pitch_gap = rules.metal2_spacing
        self.gate_top = finger + rules.poly_endcap
        self.tap_size = rules.contact_size + 2.0 * rules.contact_metal_enclosure
        column_width = max(
            rules.contact_size + 2.0 * rules.contact_metal_enclosure,
            rules.metal1_min_width,
        )
        self.column_width = column_width

        # Below-row drain tracks.
        track_y: Dict[str, Tuple[float, float]] = {}
        y = -rules.poly_endcap - pitch_gap
        for net in drain_nets:
            width = rail_width(net)
            track_y[net] = (y - width, y)
            y -= width + pitch_gap

        # Source track.
        source_width = rail_width(source_net)
        source_y0 = self.gate_top + pitch_gap
        track_y[source_net] = (source_y0, source_y0 + source_width)

        # Pad row and gate-level tracks.  A gate net may coincide with the
        # source net (dummy ties) or a drain net (diode-connected devices);
        # it still gets its own gate-level rail, tied back by a metal-1
        # connector column past the module's left edge.
        self.pad_row_y = (
            source_y0 + source_width + rules.metal1_spacing + self.tap_size / 2.0
        )
        gate_rail_nets = list(dict.fromkeys(net for _x, net in self.gate_nets))
        gate_track_y: Dict[str, Tuple[float, float]] = {}
        y = self.pad_row_y + self.tap_size / 2.0 + rules.metal1_spacing
        for net in gate_rail_nets:
            width = rail_width(net) if net in track_y else rail_floor
            gate_track_y[net] = (y, y + width)
            y += width + pitch_gap
        self.track_y = track_y
        self.gate_track_y = gate_track_y

        via_pad = rules.via_size + 2.0 * rules.via_metal_enclosure

        # Left-margin column allocator (connectors and escapes).  Columns
        # are spaced so their via landing pads keep metal-1 spacing.
        column_effective = max(column_width, via_pad)
        next_column_left = -(rules.metal1_spacing + column_effective)

        def allocate_column() -> float:
            """Left edge of a fresh left-margin metal-1 column."""
            nonlocal next_column_left
            x = next_column_left + (column_effective - column_width) / 2.0
            next_column_left -= column_effective + rules.metal1_spacing
            return x

        # Connector columns for gate rails that duplicate a source/drain
        # net.
        connectors: List[Tuple[str, float, float, float]] = []
        for net in gate_rail_nets:
            if net in track_y:
                main_y = sum(track_y[net]) / 2.0
                gate_y = sum(gate_track_y[net]) / 2.0
                connectors.append((net, allocate_column(), main_y, gate_y))

        # Only the outermost rails are directly reachable from the
        # channels: the bottom-most drain track (a stub below crosses
        # nothing) and the top-most gate track.  Every other rail
        # *escapes* through a left-margin column ending in a small pad at
        # the module's top or bottom edge, which becomes that net's pin.
        bottom_net = drain_nets[-1] if drain_nets else None
        top_net = gate_rail_nets[-1] if gate_rail_nets else None
        escape_top_y = (
            max(y1 for _y0, y1 in gate_track_y.values()) + pitch_gap
            if gate_track_y
            else track_y[source_net][1] + pitch_gap
        )
        escape_bottom_y = (
            min(y0 for net in drain_nets for y0 in (track_y[net][0],))
            - pitch_gap
            if drain_nets
            else -rules.poly_endcap - pitch_gap
        )

        escapes: List[Tuple[str, float, float, float]] = []
        pinned_nets = set()
        if bottom_net is not None:
            pinned_nets.add(bottom_net)
        if top_net is not None:
            pinned_nets.add(top_net)
        escape_rails: Dict[str, Rect] = {}
        all_nets = list(dict.fromkeys(drain_nets + [source_net] + gate_rail_nets))
        for net in all_nets:
            if net in pinned_nets:
                continue
            if net in gate_track_y:
                # Escape upward from the gate rail.
                from_y = sum(gate_track_y[net]) / 2.0
                to_y = escape_top_y + rail_floor / 2.0
            elif net == source_net:
                from_y = sum(track_y[net]) / 2.0
                to_y = escape_top_y + rail_floor / 2.0
            else:
                from_y = sum(track_y[net]) / 2.0
                to_y = escape_bottom_y - rail_floor / 2.0
            x = allocate_column()
            escapes.append((net, x, from_y, to_y))
            center_x = x + column_width / 2.0
            escape_rails[net] = Rect.centered(
                center_x, to_y, via_pad, rail_floor
            )
            pinned_nets.add(net)
        self.escape_pins = list(escape_rails.items())

        # Rails span only the connection points they collect (plus a via
        # pad of margin), not the whole module.
        rail_extent: Dict[str, Tuple[float, float]] = {}
        gate_rail_extent: Dict[str, Tuple[float, float]] = {}

        def extend(extents: Dict[str, Tuple[float, float]], net: str,
                   x_center: float) -> None:
            pad = max(rail_width(net), via_pad)
            lo, hi = extents.get(net, (x_center, x_center))
            extents[net] = (min(lo, x_center - pad), max(hi, x_center + pad))

        for strip in strips:
            extend(rail_extent, strip.net, strip.x0 + strip.width / 2.0)
        for gate_x, net in self.gate_nets:
            extend(gate_rail_extent, net, gate_x + length / 2.0)
        for net, x, _main_y, _gate_y in connectors:
            extend(rail_extent, net, x + column_width / 2.0)
            extend(gate_rail_extent, net, x + column_width / 2.0)
        for net, x, _from_y, _to_y in escapes:
            if net in gate_track_y:
                extend(gate_rail_extent, net, x + column_width / 2.0)
            else:
                extend(rail_extent, net, x + column_width / 2.0)

        #: ``(net, rail, is_pin)`` per metal-2 rail, in drawing order.
        self.rails: List[Tuple[str, Rect, bool]] = []
        for tracks, extents, pin_net in (
            (track_y, rail_extent, bottom_net),
            (gate_track_y, gate_rail_extent, top_net),
        ):
            for net, (y0, y1) in tracks.items():
                lo, hi = extents.get(net, (0.0, total_width))
                self.rails.append(
                    (net, Rect(lo, y0, min(total_width, hi), y1), net == pin_net)
                )

        # Connector and escape columns with a via at each end.
        self.column_shapes: List[Tuple[Layer, Rect, str]] = []
        for net, x, y_a, y_b in connectors + escapes:
            lo, hi = sorted((y_a, y_b))
            self.column_shapes.append(
                (Layer.METAL1, Rect(x, lo, x + column_width, hi), net)
            )
            self.column_shapes += self._via(x + column_width / 2.0, y_a, net)
            self.column_shapes += self._via(x + column_width / 2.0, y_b, net)

        # Well for PMOS rows.
        self.well_rect: Optional[Rect] = None
        if polarity == "p":
            well_margin = rules.active_well_enclosure
            self.well_rect = Rect(
                -well_margin,
                -well_margin,
                total_width + well_margin,
                finger + well_margin,
            )

        rects = [*self.actives, self.implant]
        rects += [rail for _net, rail, _pin in self.rails]
        rects += [rail for _net, rail in self.escape_pins]
        rects += [rect for _layer, rect, _net in self.column_shapes]
        for strip in _family_samples(strips, lambda strip: strip.net):
            rects += [rect for _l, rect, _n in self._strip_shapes(strip)]
        for gate_x, net in _family_samples(self.gate_nets, lambda g: g[1]):
            rects += [rect for _l, rect, _n in self._gate_shapes(gate_x, net)]
        if self.well_rect is not None:
            rects.append(self.well_rect)
        self.bbox = bounding_box(rects)

    def _via(self, x_center: float, y_center: float, net: str,
             cuts: bool = True) -> List[Tuple[Layer, Rect, str]]:
        """A via cut (when ``cuts``) with its metal-1 landing pad."""
        rules = self.tech.rules
        via = rules.via_size
        via_pad = via + 2.0 * rules.via_metal_enclosure
        pad = (
            Layer.METAL1,
            Rect.centered(x_center, y_center, via_pad, via_pad),
            net,
        )
        if not cuts:
            return [pad]
        return [
            (Layer.VIA1, Rect.centered(x_center, y_center, via, via), net),
            pad,
        ]

    def _strip_shapes(self, strip: _Strip,
                      cuts: bool = True) -> List[Tuple[Layer, Rect, str]]:
        """A strip's metal-1 vertical to its track, and the via there."""
        x_center = strip.x0 + strip.width / 2.0
        half = self.column_width / 2.0
        y0, y1 = self.track_y[strip.net]
        track_center = (y0 + y1) / 2.0
        if y0 < 0.0:  # below-row track
            rect = Rect(
                x_center - half, track_center, x_center + half, self.finger
            )
        else:
            rect = Rect(x_center - half, 0.0, x_center + half, track_center)
        return [(Layer.METAL1, rect, strip.net)] + self._via(
            x_center, track_center, strip.net, cuts
        )

    def _gate_shapes(self, gate_x: float, net: str,
                     cuts: bool = True) -> List[Tuple[Layer, Rect, str]]:
        """A gate finger, its contacted pad and the stub to its track."""
        rules = self.tech.rules
        tap_size = self.tap_size
        pad_row_y = self.pad_row_y
        x_center = gate_x + self.length / 2.0
        y0, y1 = self.gate_track_y[net]
        track_center = (y0 + y1) / 2.0
        shapes = [
            (
                Layer.POLY,
                Rect(gate_x, -rules.poly_endcap, gate_x + self.length,
                     self.gate_top),
                net,
            ),
            (
                Layer.POLY,
                Rect.centered(x_center, pad_row_y, tap_size, tap_size),
                net,
            ),
            # Poly neck from the gate finger up to the pad.
            (
                Layer.POLY,
                Rect(gate_x, self.gate_top, gate_x + self.length, pad_row_y),
                net,
            ),
        ]
        if cuts:
            shapes.append((
                Layer.CONTACT,
                Rect.centered(
                    x_center, pad_row_y, rules.contact_size, rules.contact_size
                ),
                net,
            ))
        shapes += [
            # Metal-1 landing pad over the gate contact.
            (
                Layer.METAL1,
                Rect.centered(x_center, pad_row_y, tap_size, tap_size),
                net,
            ),
            (
                Layer.METAL1,
                Rect(
                    x_center - rules.metal1_min_width / 2.0,
                    pad_row_y - tap_size / 2.0,
                    x_center + rules.metal1_min_width / 2.0,
                    track_center,
                ),
                net,
            ),
        ]
        return shapes + self._via(x_center, track_center, net, cuts)

    def shapes(self, cuts: bool = True) -> Iterator[FrameShape]:
        rules = self.tech.rules
        finger = self.finger
        for rect in self.actives:
            yield Layer.ACTIVE, rect, None, False
        implant = Layer.NIMPLANT if self.polarity == "n" else Layer.PIMPLANT
        yield implant, self.implant, None, False

        for net, rail, is_pin in self.rails:
            yield Layer.METAL2, rail, net, is_pin
        for net, rail in self.escape_pins:
            yield Layer.METAL2, rail, net, True
        for layer, rect, net in self.column_shapes:
            if cuts or layer not in CUT_LAYERS:
                yield layer, rect, net, False

        # Contacts, metal-1 verticals per strip.
        size = rules.contact_size
        count = self.contact_count
        contact_pitch = size + rules.contact_spacing
        total_h = count * size + (count - 1) * rules.contact_spacing
        for strip in self.strips:
            if cuts:
                x_center = strip.x0 + strip.width / 2.0
                cy = finger / 2.0 - total_h / 2.0 + size / 2.0
                for _ in range(count):
                    yield (
                        Layer.CONTACT, Rect.centered(x_center, cy, size, size),
                        strip.net, False,
                    )
                    cy += contact_pitch
            for layer, rect, net in self._strip_shapes(strip, cuts):
                yield layer, rect, net, False

        # Gate fingers, pads and stubs to gate tracks.
        for gate_x, net in self.gate_nets:
            for layer, rect, shape_net in self._gate_shapes(gate_x, net, cuts):
                yield layer, rect, shape_net, False

        if self.well_rect is not None:
            yield Layer.NWELL, self.well_rect, self.bulk_net, False

    def _strip_adjacency(self) -> List[List[Tuple[str, bool]]]:
        """(device, edge_is_drain) for each finger beside each strip.

        One walk: finger ``i`` sits between the strip that precedes it
        and the next one, which at a break is the end strip before the
        gap.  A strip lists its left finger before its right one.
        """
        adjacent: List[List[Tuple[str, bool]]] = [[] for _ in self.strips]
        left = 0
        for i, finger in enumerate(self.plan.fingers):
            adjacent[left].append((finger.device, finger.drain_left))
            adjacent[left + 1].append((finger.device, not finger.drain_left))
            left += 2 if i in self.plan.breaks else 1
        return adjacent

    def device_geometry(self) -> Dict[str, DiffusionGeometry]:
        """Split each strip's area/perimeter among the adjacent device
        edges."""
        terminals = self.terminals
        finger = self.finger
        accum: Dict[str, Dict[str, float]] = {
            device: {"ad": 0.0, "pd": 0.0, "as": 0.0, "ps": 0.0}
            for device in terminals
        }
        adjacency = self._strip_adjacency()
        for strip, adjacent in zip(self.strips, adjacency):
            owners: List[Tuple[str, bool]] = []
            for device, edge_is_drain in adjacent:
                if device == DUMMY or device not in terminals:
                    continue
                drain, _gate, source = terminals[device]
                terminal_net = drain if edge_is_drain else source
                if terminal_net == strip.net:
                    owners.append((device, edge_is_drain))
            if not owners:
                continue
            area = strip.width * finger
            # Exposed perimeter: top+bottom edges always; outer vertical
            # edge for end strips not facing a gate on that side.
            perimeter = 2.0 * strip.width
            if strip.is_end and len(adjacent) < 2:
                perimeter += finger
            share = 1.0 / len(owners)
            for device, edge_is_drain in owners:
                keys = ("ad", "pd") if edge_is_drain else ("as", "ps")
                accum[device][keys[0]] += area * share
                accum[device][keys[1]] += perimeter * share
        return {
            device: DiffusionGeometry(
                ad=values["ad"], pd=values["pd"], as_=values["as"],
                ps=values["ps"],
            )
            for device, values in accum.items()
        }


def render_stack(*args, **kwargs) -> ModuleLayout:
    """Draw a planned stack: :class:`StackFrame` of the same arguments,
    drawn."""
    return StackFrame(*args, **kwargs).draw()


# ---------------------------------------------------------------------------
# High-level generators
# ---------------------------------------------------------------------------


class DeviceFrame(ModuleFrame):
    """One transistor as a module: a motif frame."""

    def __init__(self, motif: MotifFrame, device: str):
        self.motif = motif
        self.device = device
        self.name = motif.name
        self.bbox = motif.bbox
        self.device_nf = {device: motif.nf}
        self.finger_width = motif.finger
        self.length = motif.length
        self.actual_widths = {device: motif.actual_w}
        self.well_rect = motif.well_rect

    def shapes(self, cuts: bool = True) -> Iterator[FrameShape]:
        return self.motif.shapes(cuts)

    def device_geometry(self) -> Dict[str, DiffusionGeometry]:
        return {self.device: self.motif.geometry()}


def single_device_frame(
    tech: Technology,
    polarity: str,
    w: float,
    l: float,
    nf: int,
    nets: Tuple[str, str, str, str],
    drain_current: float = 0.0,
    drain_internal: bool = True,
    name: str = "device",
) -> DeviceFrame:
    """One transistor as a module (motif wrapper).

    ``nets`` is ``(drain, gate, source, bulk)``.
    """
    drain, gate, source, bulk = nets
    motif = MotifFrame(
        tech,
        polarity,
        w,
        l,
        nf=nf,
        drain_internal=drain_internal,
        net_d=drain,
        net_g=gate,
        net_s=source,
        net_b=bulk,
        drain_current=drain_current,
        name=name,
    )
    return DeviceFrame(motif, name)


def single_device_layout(*args, **kwargs) -> ModuleLayout:
    """:func:`single_device_frame` of the same arguments, drawn."""
    return single_device_frame(*args, **kwargs).draw()


def differential_pair_frame(
    tech: Technology,
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
    with_dummies: bool = True,
    name: str = "diffpair",
) -> StackFrame:
    """Matched pair in common-centroid or interdigitated style.

    ``w`` is the width of *each* device, implemented as ``nf`` fingers.
    """
    if style not in ("common_centroid", "interdigitated"):
        raise LayoutError(f"unknown differential pair style {style!r}")
    a, b = names
    if style == "common_centroid":
        plan = generate_stack({a: nf, b: nf}, with_dummies=with_dummies)
    else:
        # Explicit ABAB sequence with sharing-greedy orientations.
        from repro.layout.stack import _assign_orientations, StackFinger

        sequence = [a if i % 2 == 0 else b for i in range(2 * nf)]
        fingers, breaks = _assign_orientations(sequence)
        if with_dummies:
            fingers = (
                [StackFinger(device=DUMMY, drain_left=False)]
                + fingers
                + [StackFinger(device=DUMMY, drain_left=True)]
            )
            breaks = [i + 1 for i in breaks]
        plan = StackPlan(fingers=fingers, units={a: nf, b: nf}, breaks=breaks)

    terminals = {
        a: (drains[0], gates[0], source),
        b: (drains[1], gates[1], source),
    }
    currents = {a: current_per_side, b: current_per_side}
    return StackFrame(
        tech,
        plan,
        polarity,
        finger_width=w / nf,
        length=l,
        terminals=terminals,
        bulk_net=bulk,
        currents=currents,
        dummy_net=source,
        name=name,
    )


def differential_pair_layout(*args, **kwargs) -> ModuleLayout:
    """:func:`differential_pair_frame` of the same arguments, drawn."""
    return differential_pair_frame(*args, **kwargs).draw()


def current_mirror_frame(
    tech: Technology,
    polarity: str,
    ratios: Mapping[str, int],
    unit_width: float,
    l: float,
    drains: Mapping[str, str],
    gate: str,
    source: str,
    bulk: str,
    currents: Optional[Mapping[str, float]] = None,
    with_dummies: bool = True,
    name: str = "mirror",
) -> StackFrame:
    """Stacked current mirror (paper Figure 3).

    ``ratios`` maps device names to integer unit counts; every device has
    width ``ratio * unit_width`` drawn as ``ratio`` fingers of
    ``unit_width``.
    """
    plan = generate_stack(dict(ratios), with_dummies=with_dummies)
    terminals = {d: (drains[d], gate, source) for d in ratios}
    return StackFrame(
        tech,
        plan,
        polarity,
        finger_width=unit_width,
        length=l,
        terminals=terminals,
        bulk_net=bulk,
        currents=currents,
        dummy_net=source,
        name=name,
    )


def current_mirror_layout(*args, **kwargs) -> ModuleLayout:
    """:func:`current_mirror_frame` of the same arguments, drawn."""
    return current_mirror_frame(*args, **kwargs).draw()
