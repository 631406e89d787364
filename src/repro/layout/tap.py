"""Substrate and well tap generator.

Every analog block needs its bulk tied: substrate taps (p+ active to the
ground net) next to NMOS rows and well taps (n+ active inside the n-well,
to the supply) next to PMOS rows.  The generator draws a vertical column
of tapped active sized so neighbouring devices stay within the
technology's ``well_contact_pitch``.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.errors import LayoutError
from repro.layout.cell import FrameShape
from repro.layout.devices import ModuleFrame, ModuleLayout
from repro.layout.geometry import Rect, bounding_box
from repro.layout.layers import Layer
from repro.technology.process import Technology


class TapFrame(ModuleFrame):
    """The numeric plan of a vertical tap column of active ``height``.

    ``kind`` is ``'substrate'`` (p+ to ground next to NMOS) or ``'well'``
    (n+ inside an n-well, to the supply).  The tap exposes one metal-2
    rail pin at the top edge.

    Every rectangle but the contact cuts is built here; the cuts sit
    inside the tapped active, so :attr:`bbox` is the drawn cell's.
    """

    def __init__(
        self,
        tech: Technology,
        kind: str,
        net: str,
        height: float,
        name: str = "tap",
    ):
        if kind not in ("substrate", "well"):
            raise LayoutError(
                f"tap kind must be 'substrate' or 'well', got {kind!r}"
            )
        rules = tech.rules
        if height < rules.active_min_width:
            raise LayoutError("tap height below the minimum active width")
        height = rules.snap(height)

        self.tech = tech
        self.kind = kind
        self.net = net
        self.name = name
        self.height = height
        width = rules.contacted_diffusion_width
        self.width = width
        self.device_nf = {}
        self.finger_width = width
        self.length = height
        self.actual_widths = {name: height}
        self.active = Rect(0.0, 0.0, width, height)
        self.implant = self.active.expanded(rules.contact_active_enclosure)
        self.well_rect = (
            None if kind == "substrate"
            else self.active.expanded(rules.active_well_enclosure)
        )

        # Contact column count.
        size = rules.contact_size
        pitch = size + rules.contact_spacing
        usable = height - 2.0 * rules.contact_active_enclosure
        self.contact_count = max(1, int(math.floor((usable - size) / pitch)) + 1)

        # Metal-1 column over the contacts, metal-2 rail pin at the top.
        x_center = width / 2.0
        column_width = max(
            size + 2.0 * rules.contact_metal_enclosure, rules.metal1_min_width
        )
        rail_height = max(
            rules.metal2_min_width,
            rules.via_size + 2.0 * rules.via_metal_enclosure,
        )
        rail_y = height + rules.metal2_spacing + rail_height / 2.0
        self.column = Rect(
            x_center - column_width / 2.0, 0.0,
            x_center + column_width / 2.0, rail_y,
        )
        via = rules.via_size
        via_pad = via + 2.0 * rules.via_metal_enclosure
        self.via = Rect.centered(x_center, rail_y, via, via)
        self.via_pad = Rect.centered(x_center, rail_y, via_pad, via_pad)
        self.pin = Rect.centered(x_center, rail_y, 2.0 * via_pad, rail_height)

        self.bbox = bounding_box(
            [self.active, self.implant, self.column, self.via_pad, self.pin]
            + ([self.well_rect] if self.well_rect is not None else [])
        )

    def shapes(self, cuts: bool = True) -> Iterator[FrameShape]:
        rules = self.tech.rules
        net = self.net
        yield Layer.ACTIVE, self.active, None, False
        # Tap implant is the opposite flavour of the devices it serves:
        # p+ (PIMPLANT) ties the p-substrate, n+ ties the n-well.
        implant = Layer.PIMPLANT if self.kind == "substrate" else Layer.NIMPLANT
        yield implant, self.implant, None, False
        if self.well_rect is not None:
            yield Layer.NWELL, self.well_rect, net, False

        if cuts:
            size = rules.contact_size
            pitch = size + rules.contact_spacing
            count = self.contact_count
            total = count * size + (count - 1) * rules.contact_spacing
            y = self.height / 2.0 - total / 2.0 + size / 2.0
            x_center = self.width / 2.0
            for _ in range(count):
                yield (
                    Layer.CONTACT, Rect.centered(x_center, y, size, size),
                    net, False,
                )
                y += pitch

        yield Layer.METAL1, self.column, net, False
        if cuts:
            yield Layer.VIA1, self.via, net, False
        yield Layer.METAL1, self.via_pad, net, False
        yield Layer.METAL2, self.pin, net, True


def tap_column(*args, **kwargs) -> ModuleLayout:
    """A vertical tap column: :class:`TapFrame` of the same arguments,
    drawn."""
    return TapFrame(*args, **kwargs).draw()


def taps_needed(row_width: float, tech: Technology) -> int:
    """Tap columns a row of the given width needs (pitch rule)."""
    return max(1, int(math.ceil(row_width / tech.rules.well_contact_pitch)))
