"""Channel routing between module rows.

The assembly style matches classic analog row-based layout: module rows are
stacked vertically with *routing channels* between them.  Every inter-module
net receives

* one horizontal metal-2 **track** per channel it crosses,
* vertical metal-1 **stubs** from each module pin (the module's metal-2
  rail) into the nearest allocated track, and
* a vertical metal-1 **side column** tying its tracks together when the net
  spans more than one channel.

Because horizontal routing is metal 2 and vertical routing is metal 1,
crossings between different nets never short.  Track widths follow the
electromigration rules; track-to-track coupling within a channel is exactly
what the parasitic estimator reports as coupling capacitance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.errors import LayoutError
from repro.layout.cell import Cell
from repro.layout.devices import ModuleFrame
from repro.layout.geometry import GridIndex, Rect
from repro.layout.layers import Layer
from repro.layout.reliability import wire_width_for_current
from repro.technology.process import Technology

if TYPE_CHECKING:
    from repro.layout.parasitics import ModuleView


@dataclass
class PlacedModule:
    """A module frame at an absolute position.

    ``dx``/``dy`` translate the frame's module coordinates (the drawn
    module cell's) into the assembly's.
    """

    name: str
    frame: ModuleFrame
    dx: float = 0.0
    dy: float = 0.0

    def bbox(self) -> Rect:
        return self.frame.bbox.translated(self.dx, self.dy)


@dataclass
class RoutedWire:
    """One drawn routing shape."""

    layer: Layer
    rect: Rect
    net: str


@dataclass
class RoutedNet:
    """All routing geometry of one net plus derived parasitics."""

    name: str
    wires: List[RoutedWire] = field(default_factory=list)
    via_count: int = 0

    def total_length(self) -> float:
        """Summed centre-line length of all segments, m."""
        return sum(max(w.rect.width, w.rect.height) for w in self.wires)

    def ground_capacitance(self, tech: Technology) -> float:
        """Area + fringe capacitance of the routing to substrate, F."""
        total = 0.0
        for wire in self.wires:
            if wire.layer is Layer.METAL1:
                metal = tech.metal("metal1")
            elif wire.layer is Layer.METAL2:
                metal = tech.metal("metal2")
            else:
                continue
            rect = wire.rect
            total += metal.area_cap * rect.area + metal.fringe_cap * rect.perimeter
        return total


@dataclass
class RoutingResult:
    """Complete routing of an assembly, recorded rather than drawn."""

    nets: Dict[str, RoutedNet]
    channel_tracks: Dict[int, List[Tuple[str, Rect]]]
    """Per channel index: ordered (net, track rect) pairs."""
    shapes: List[Tuple[Layer, Rect, str]] = field(default_factory=list)
    """Every routing shape and via, in drawing order."""

    def draw(self, cell: Cell) -> None:
        """Emit the recorded routing into ``cell``."""
        for layer, rect, net in self.shapes:
            cell.add_shape(layer, rect, net=net)

    def coupling_capacitances(self, tech: Technology) -> Dict[Tuple[str, str], float]:
        """Track-to-track coupling between adjacent tracks per channel, F."""
        metal2 = tech.metal("metal2")
        coupling: Dict[Tuple[str, str], float] = {}
        for tracks in self.channel_tracks.values():
            for (net_a, rect_a), (net_b, rect_b) in zip(tracks, tracks[1:]):
                if net_a == net_b:
                    continue
                run = rect_a.parallel_run_x(rect_b)
                if run <= 0.0:
                    continue
                spacing = max(rect_b.y0 - rect_a.y1, rect_a.y0 - rect_b.y1)
                if spacing <= 0.0:
                    continue
                key = tuple(sorted((net_a, net_b)))
                coupling[key] = coupling.get(key, 0.0) + metal2.coupling_capacitance(
                    run, spacing
                )
        return coupling


@dataclass
class ChannelPlan:
    """Pre-computed channel structure (usable without drawing).

    ``net_tracks`` maps net name to the list of channel indices where it
    owns a track; ``heights`` is the physical height of each channel.
    """

    net_tracks: Dict[str, List[int]]
    track_order: Dict[int, List[str]]
    heights: List[float]
    track_widths: Dict[str, float]


class ChannelRouter:
    """Routes nets across stacked module rows."""

    def __init__(
        self,
        tech: Technology,
        net_currents: Optional[Mapping[str, float]] = None,
    ):
        self.tech = tech
        self.net_currents = dict(net_currents or {})
        self.rules = tech.rules

    # -- Planning --------------------------------------------------------------

    def track_width(self, net: str) -> float:
        width = wire_width_for_current(
            self.tech, Layer.METAL2, abs(self.net_currents.get(net, 0.0))
        )
        # Tracks land via cuts: never narrower than a via plus enclosure.
        floor = self.rules.via_size + 2.0 * self.rules.via_metal_enclosure
        return max(width, self.rules.snap_up(floor))

    def stub_width(self, net: str) -> float:
        return wire_width_for_current(
            self.tech, Layer.METAL1, abs(self.net_currents.get(net, 0.0))
        )

    def plan_channels(
        self, row_count: int, net_pins: Mapping[str, List[int]]
    ) -> ChannelPlan:
        """Allocate tracks given each net's pin *channel* indices.

        With ``row_count`` rows there are ``row_count + 1`` channels:
        channel 0 below the bottom row, channel ``i`` between rows
        ``i-1`` and ``i``, and channel ``row_count`` above the top row.
        A pin on a module's bottom edge belongs to its row's channel, a
        pin on the top edge to the channel above — so a stub never has to
        cross its own module.  A net with pins in channels ``[lo..hi]``
        receives one track in every channel of that range (side columns
        tie them together).
        """
        channel_count = row_count + 1
        net_tracks: Dict[str, List[int]] = {}
        track_order: Dict[int, List[str]] = {i: [] for i in range(channel_count)}
        for net in sorted(net_pins):
            pin_channels = sorted(set(net_pins[net]))
            if not pin_channels:
                continue
            if pin_channels[0] < 0 or pin_channels[-1] >= channel_count:
                raise LayoutError(
                    f"net {net!r} uses channel outside 0..{channel_count - 1}"
                )
            channels = list(range(pin_channels[0], pin_channels[-1] + 1))
            net_tracks[net] = channels
            for channel in channels:
                track_order[channel].append(net)

        widths = {net: self.track_width(net) for net in net_tracks}
        heights = []
        for channel in range(channel_count):
            total = self.rules.metal2_spacing
            for net in track_order[channel]:
                total += widths[net] + self.rules.metal2_spacing
            heights.append(total)
        return ChannelPlan(
            net_tracks=net_tracks,
            track_order=track_order,
            heights=heights,
            track_widths=widths,
        )

    # -- Drawing -----------------------------------------------------------------

    def route(
        self,
        modules: Sequence[PlacedModule],
        views: Mapping[str, "ModuleView"],
        row_of_module: Mapping[str, int],
        plan: ChannelPlan,
        channel_y: Sequence[float],
        x_extent: Tuple[float, float],
    ) -> RoutingResult:
        """Plan tracks, stubs and side columns; record them, draw nothing.

        Pins and metal obstacles come from each module's
        :class:`~repro.layout.parasitics.ModuleView` (``views`` by module
        name), moved to the module's position.  ``channel_y`` gives the
        bottom y of each channel; ``x_extent`` is the horizontal span of
        the assembly used for track extents and the side-column x
        allocation.  :meth:`RoutingResult.draw` emits the recorded
        shapes into a cell.
        """
        rules = self.rules
        x_left, x_right = x_extent
        nets: Dict[str, RoutedNet] = {}
        channel_tracks: Dict[int, List[Tuple[str, Rect]]] = {}

        # Net pin rectangles by net (all pins, with their layers).
        pins_by_net: Dict[str, List[Tuple[PlacedModule, Rect, Layer]]] = {}
        for module in modules:
            for net, pins in views[module.name].pins.items():
                for rect, layer in pins:
                    pins_by_net.setdefault(net, []).append(
                        (module, rect.translated(module.dx, module.dy), layer)
                    )

        # Side-column x per multi-channel net, allocated left to right just
        # past the assembly's right edge.  The effective width of a column
        # includes its via landing pads, which may be wider than the wire.
        via_pad_width = rules.via_size + 2.0 * rules.via_metal_enclosure
        side_column_x: Dict[str, float] = {}
        next_edge = x_right + rules.metal1_spacing
        for net in sorted(plan.net_tracks):
            if len(plan.net_tracks[net]) > 1:
                width = self.stub_width(net)
                effective = max(width, via_pad_width)
                side_column_x[net] = next_edge + (effective - width) / 2.0
                next_edge += effective + rules.metal1_spacing

        via = rules.via_size
        via_pad = via + 2.0 * rules.via_metal_enclosure

        # -- Pass 1: stub placement --------------------------------------
        # Every pin is assigned to the channel on its own side of its
        # module (a bottom-edge pin uses the channel below the row, a
        # top-edge pin the channel above — the vertical run never crosses
        # the module).  Placement is collision-checked geometrically
        # against all module metal and all previously planned routing;
        # a stub may slide off its pin rail into a module gap, paying a
        # same-net rail *extension* at the pin's level.
        spacing = rules.metal1_spacing
        # Accumulated locally and flushed as one counter update at the end
        # of the call: the candidate scan is the router's hot loop.
        clearance_rejections = 0

        # Track y-centres are fixed by the channel plan (the x extents
        # come later), so stub rectangles are known at placement time.
        track_y_center: Dict[Tuple[str, int], float] = {}
        for channel, order in plan.track_order.items():
            y = channel_y[channel] + rules.metal2_spacing
            for track_net in order:
                width = plan.track_widths[track_net]
                track_y_center[(track_net, channel)] = y + width / 2.0
                y += width + rules.metal2_spacing

        # Clearance queries resolve through per-layer grid indexes: a
        # static one over the module metal (built once, from the views'
        # arrays moved by vector adds, bit-equal to ``Rect.translated``)
        # and an incremental one that grows as routing shapes are
        # planned.  The index pre-filters candidates with the same
        # window-overlap test a linear scan would apply, so clearance
        # answers are unchanged — only the number of shapes examined
        # shrinks.
        obstacle_index: Dict[Layer, GridIndex] = {}
        obstacle_nets: Dict[Layer, List[Optional[str]]] = {}
        planned_index: Dict[Layer, GridIndex] = {}
        planned_nets: Dict[Layer, List[str]] = {}
        for layer in (Layer.METAL1, Layer.METAL2):
            coords = [np.empty((0, 4))]
            nets_list: List[Optional[str]] = []
            for module in modules:
                module_coords, module_nets = views[module.name].metal[layer]
                coords.append(
                    module_coords
                    + np.array([module.dx, module.dy, module.dx, module.dy])
                )
                nets_list.extend(module_nets)
            obstacle_index[layer] = GridIndex.for_array(
                np.concatenate(coords), margin=spacing
            )
            obstacle_nets[layer] = nets_list
            planned_index[layer] = GridIndex(obstacle_index[layer].cell_size)
            planned_nets[layer] = []

        def plan_shape(layer: Layer, net: str, rect: Rect) -> None:
            planned_index[layer].insert(rect)
            planned_nets[layer].append(net)

        # Side columns are known obstacles from the start.
        if channel_y:
            column_y_lo = min(channel_y) - 2.0 * via_pad
            column_y_hi = max(channel_y) + 10.0 * via_pad
            for column_net, column_x in side_column_x.items():
                width = self.stub_width(column_net)
                plan_shape(
                    Layer.METAL1,
                    column_net,
                    Rect(column_x, column_y_lo,
                         column_x + width, column_y_hi),
                )

        # Stubs may roam past the nominal module span (gate pads and
        # escape rails sit in the left margin) but not into the side
        # columns' alley.
        roam_left = min(
            [x_left] + [m.bbox().x0 for m in modules]
        ) - 10.0 * rules.metal1_spacing
        roam_right = x_right

        clearance_margin = spacing - 1e-12

        def is_clear(layer: Layer, rect: Rect, net: str) -> bool:
            nets_list = planned_nets[layer]
            for i in planned_index[layer].query(rect, clearance_margin):
                if nets_list[i] != net:
                    return False
            nets_list = obstacle_nets[layer]
            for i in obstacle_index[layer].query(rect, clearance_margin):
                if nets_list[i] != net:
                    return False
            return True

        # net -> [(pin, pin_layer, channel, stub x, extension rect|None)]
        stub_plan: Dict[
            str, List[Tuple[Rect, Layer, int, float, Optional[Rect]]]
        ] = {}
        for net, channels in plan.net_tracks.items():
            stub_w = self.stub_width(net)
            effective = max(stub_w, via_pad)
            half = effective / 2.0
            for module, pin, pin_layer in pins_by_net.get(net, []):
                row = row_of_module[module.name]
                box = module.bbox()
                natural = row if pin.center.y < box.center.y else row + 1
                if natural in channels:
                    channel = natural
                else:
                    channel = min(channels, key=lambda c: abs(c - natural))
                track_y = track_y_center[(net, channel)]
                desired = min(
                    max(pin.center.x, pin.x0 + stub_w / 2.0),
                    pin.x1 - stub_w / 2.0,
                )

                def placement(x_center: float):
                    """([metal-1 rects], extension) or None.

                    The vertical run is modelled at its true width; via
                    landing pads (wider) only at the track end and — for
                    metal-2 pins — at the pin end.
                    """
                    y_lo = min(pin.center.y, track_y)
                    y_hi = max(pin.center.y, track_y)
                    pieces = [
                        Rect(
                            x_center - stub_w / 2.0, y_lo,
                            x_center + stub_w / 2.0, y_hi,
                        ),
                        Rect.centered(x_center, track_y, via_pad, via_pad),
                    ]
                    if pin_layer is Layer.METAL2:
                        pieces.append(
                            Rect.centered(
                                x_center, pin.center.y, via_pad, via_pad
                            )
                        )
                    extension: Optional[Rect] = None
                    # The extension must reach past the pin-end via pad.
                    # Metal-2 pins carry a via pad wider than the stub, so
                    # the pad (not the stub) leaving the pin is what
                    # demands the extension — otherwise the pad overhangs
                    # the pin with no metal-2 enclosure for the cut.
                    reach = max(stub_w, via_pad) / 2.0
                    pin_half = (
                        via_pad / 2.0
                        if pin_layer is Layer.METAL2
                        else stub_w / 2.0
                    )
                    if x_center < pin.x0 + pin_half - 1e-12:
                        extension = Rect(
                            x_center - reach, pin.y0,
                            pin.x0 + spacing, pin.y1,
                        )
                    elif x_center > pin.x1 - pin_half + 1e-12:
                        extension = Rect(
                            pin.x1 - spacing, pin.y0,
                            x_center + reach, pin.y1,
                        )
                    for piece in pieces:
                        if not is_clear(Layer.METAL1, piece, net):
                            return None
                    if extension is not None and not is_clear(
                        pin_layer, extension, net
                    ):
                        return None
                    return pieces, extension

                chosen = None
                step = 2.0 * rules.grid
                for k in range(0, 200):
                    candidates = (
                        (desired,) if k == 0
                        else (desired + k * step, desired - k * step)
                    )
                    for candidate in candidates:
                        if candidate - half < roam_left:
                            continue
                        if candidate + half > roam_right:
                            continue
                        result = placement(candidate)
                        if result is not None:
                            chosen = (candidate, result)
                            break
                        clearance_rejections += 1
                    if chosen is not None:
                        break
                if chosen is None:
                    if telemetry.enabled() and clearance_rejections:
                        telemetry.count(
                            "router.clearance_rejections", clearance_rejections
                        )
                        telemetry.event(
                            "router.congestion", net=net, channel=channel
                        )
                    # Drawing an overlap would be a silent short; real
                    # routers fail on congestion and so do we.
                    raise LayoutError(
                        f"routing congestion: net {net!r} cannot place a "
                        f"stub in channel {channel}; widen the module "
                        "gaps or rearrange the rows"
                    )
                x_center, (pieces, extension) = chosen
                for piece in pieces:
                    plan_shape(Layer.METAL1, net, piece)
                if extension is not None:
                    plan_shape(pin_layer, net, extension)
                stub_plan.setdefault(net, []).append(
                    (pin, pin_layer, channel, x_center, extension)
                )

        # -- Pass 2: track extents from the placed stubs ------------------
        net_extent: Dict[str, Tuple[float, float]] = {}
        for net, channels in plan.net_tracks.items():
            xs = [
                x for _pin, _layer, _channel, x, _ext in stub_plan.get(net, [])
            ]
            if not xs:
                xs = [(x_left + x_right) / 2.0]
            margin = max(plan.track_widths[net], via_pad)
            lo = min(xs) - margin
            hi = max(xs) + margin
            if net in side_column_x:
                # Reach past the side column's via pad.
                hi = (
                    side_column_x[net]
                    + self.stub_width(net) / 2.0
                    + via_pad_width / 2.0
                )
            net_extent[net] = (lo, hi)

        # Track y positions per channel.
        track_rect: Dict[Tuple[str, int], Rect] = {}
        for channel, order in plan.track_order.items():
            y = channel_y[channel] + rules.metal2_spacing
            tracks_here: List[Tuple[str, Rect]] = []
            for net in order:
                width = plan.track_widths[net]
                lo, hi = net_extent[net]
                rect = Rect(lo, y, hi, y + width)
                track_rect[(net, channel)] = rect
                tracks_here.append((net, rect))
                y += width + rules.metal2_spacing
            channel_tracks[channel] = tracks_here

        # -- Pass 3: record the routing shapes ------------------------------
        shapes: List[Tuple[Layer, Rect, str]] = []
        for net, channels in plan.net_tracks.items():
            routed = RoutedNet(name=net)
            nets[net] = routed

            def draw(layer: Layer, rect: Rect) -> None:
                shapes.append((layer, rect, net))
                routed.wires.append(RoutedWire(layer=layer, rect=rect, net=net))

            def draw_via(x_center: float, y_center: float) -> None:
                shapes.append(
                    (Layer.VIA1, Rect.centered(x_center, y_center, via, via),
                     net)
                )
                shapes.append(
                    (Layer.METAL1,
                     Rect.centered(x_center, y_center, via_pad, via_pad),
                     net)
                )
                routed.via_count += 1

            for channel in channels:
                draw(Layer.METAL2, track_rect[(net, channel)])

            stub_w = self.stub_width(net)
            for pin, pin_layer, channel, x_center, extension in stub_plan.get(
                net, []
            ):
                track = track_rect[(net, channel)]
                y_lo = min(pin.center.y, track.center.y)
                y_hi = max(pin.center.y, track.center.y)
                draw(
                    Layer.METAL1,
                    Rect(
                        x_center - stub_w / 2.0,
                        y_lo,
                        x_center + stub_w / 2.0,
                        y_hi,
                    ),
                )
                if extension is not None:
                    # Same-net rail extension carrying the pin out to the
                    # slid stub position.
                    draw(pin_layer, extension)
                # Metal-2 pins need a via down to the metal-1 stub.
                if pin_layer is Layer.METAL2:
                    draw_via(x_center, pin.center.y)
                draw_via(x_center, track.center.y)

            # Side column joining multiple channels.
            if len(channels) > 1:
                column_w = self.stub_width(net)
                column_x = side_column_x[net]
                rect_lo = track_rect[(net, channels[0])]
                rect_hi = track_rect[(net, channels[-1])]
                draw(
                    Layer.METAL1,
                    Rect(
                        column_x,
                        rect_lo.center.y,
                        column_x + column_w,
                        rect_hi.center.y,
                    ),
                )
                for channel in channels:
                    track = track_rect[(net, channel)]
                    draw_via(column_x + column_w / 2.0, track.center.y)

        if telemetry.enabled():
            if clearance_rejections:
                telemetry.count(
                    "router.clearance_rejections", clearance_rejections
                )
            probes = sum(
                index.queries for index in planned_index.values()
            ) + sum(index.queries for index in obstacle_index.values())
            if probes:
                telemetry.count("grid.queries", probes)
        return RoutingResult(
            nets=nets, channel_tracks=channel_tracks, shapes=shapes
        )
