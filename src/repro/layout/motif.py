"""Transistor motif generator.

"All transistors are built using a single motif generator which allows
total control over terminals and wires" (paper section 3).  The motif draws
a folded MOS device: alternating source/drain diffusion strips between
vertical poly gates, contacts sized for the DC current (reliability rules),
metal-1 straps collecting each terminal and a poly gate strap with a
metal-1 tap for routing.

The generator returns both the drawn :class:`~repro.layout.cell.Cell` and
the *exact* junction geometry of the drawn diffusions — the quantity the
sizing tool needs back during layout-aware synthesis.  It is
:meth:`MotifFrame.draw` of a :class:`MotifFrame`, which holds the motif's
design-rule checks and exact footprint without drawing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.errors import DesignRuleError, LayoutError
from repro.layout.cell import Cell, FrameShape
from repro.layout.folding import folded_diffusion_geometry, strip_counts
from repro.layout.geometry import Rect, bounding_box
from repro.layout.layers import Layer
from repro.mos.junction import DiffusionGeometry
from repro.technology.process import Technology


@dataclass
class StripInfo:
    """One source/drain diffusion strip of the motif."""

    rect: Rect
    net: str
    is_drain: bool
    is_end: bool
    contacts: int


@dataclass
class MosMotif:
    """A generated transistor motif.

    ``actual_w`` is the drawn total width after snapping the finger width
    to the manufacturing grid — generally *not* equal to the requested
    width, which is the mechanism behind the paper's post-folding offset
    observation (Table 1, case 2).
    """

    cell: Cell
    nf: int
    finger_width: float
    actual_w: float
    requested_w: float
    length: float
    drain_internal: bool
    geometry: DiffusionGeometry
    strips: List[StripInfo]
    well_rect: Optional[Rect]
    net_d: str
    net_g: str
    net_s: str
    net_b: str

    @property
    def width_error(self) -> float:
        """Relative drawn-vs-requested width error (grid snapping)."""
        return (self.actual_w - self.requested_w) / self.requested_w


def _contact_fit(tech: Technology, height: float, required_cuts: int) -> int:
    """Contact cuts a diffusion strip of ``height`` holds (all of them).

    Raises :class:`DesignRuleError` when the strip cannot hold the cuts
    the DC current requires.
    """
    rules = tech.rules
    size = rules.contact_size
    pitch = size + rules.contact_spacing
    usable = height - 2.0 * rules.contact_active_enclosure
    fit = max(1, int(math.floor((usable - size) / pitch)) + 1) if usable >= size else 0
    if fit == 0:
        raise DesignRuleError(
            f"diffusion strip of height {height:.3e} m cannot hold a contact"
        )
    if fit < required_cuts:
        raise DesignRuleError(
            f"strip needs {required_cuts} contact cuts for its current but "
            f"only {fit} fit; widen the device or add folds"
        )
    return fit


def _contact_column(
    tech: Technology, strip: Rect, count: int
) -> Iterator[Rect]:
    """A centred column of ``count`` cuts filling a diffusion strip.

    Reliability rule: the column is full (more cuts = lower resistance).
    The cuts keep the active enclosure, so they lie inside the strip.
    """
    rules = tech.rules
    size = rules.contact_size
    pitch = size + rules.contact_spacing
    x_center = (strip.x0 + strip.x1) / 2.0
    total_height = count * size + (count - 1) * rules.contact_spacing
    y = strip.center.y - total_height / 2.0
    for _ in range(count):
        yield Rect.centered(x_center, y + size / 2.0, size, size)
        y += pitch


class MotifFrame:
    """The numeric plan of one (possibly folded) transistor, undrawn.

    ``drain_current`` drives the reliability rules: per-strip contact
    counts and the metal-1 terminal rail widths are sized so the maximum
    current density of the technology is respected.

    Construction runs the strip walk, sizes the rails and straps, checks
    every design rule the drawing would (gate length, finger width,
    contact fit) and builds every rectangle except the contact cuts.
    :attr:`bbox` is the exact bounding box :meth:`draw` produces: the
    cuts sit inside their diffusion strips, which sit inside the implant.
    """

    def __init__(
        self,
        tech: Technology,
        polarity: str,
        w: float,
        l: float,
        nf: int = 1,
        drain_internal: bool = True,
        net_d: str = "d",
        net_g: str = "g",
        net_s: str = "s",
        net_b: str = "b",
        drain_current: float = 0.0,
        name: Optional[str] = None,
    ):
        if polarity not in ("n", "p"):
            raise LayoutError(f"polarity must be 'n' or 'p', got {polarity!r}")
        if w <= 0.0 or l <= 0.0:
            raise LayoutError("device dimensions must be positive")
        if nf < 1:
            raise LayoutError("fold count must be >= 1")
        rules = tech.rules
        metal1 = tech.metal("metal1")

        if l < rules.poly_min_width - 1e-15:
            raise DesignRuleError(
                f"gate length {l:.3e} m below the minimum "
                f"{rules.poly_min_width:.3e} m"
            )
        length = rules.snap(l)

        finger = rules.snap(w / nf)
        if finger < rules.active_min_width:
            raise DesignRuleError(
                f"finger width {finger:.3e} m below the active minimum "
                f"{rules.active_min_width:.3e} m; reduce the fold count"
            )
        self.tech = tech
        self.polarity = polarity
        self.name = name or f"m{polarity}_{nf}f"
        self.nf = nf
        self.drain_internal = drain_internal
        self.requested_w = w
        self.length = length
        self.finger = finger
        self.actual_w = finger * nf
        self.net_d, self.net_g, self.net_s, self.net_b = net_d, net_g, net_s, net_b

        end_strip = rules.end_diffusion_width
        internal_strip = rules.contacted_diffusion_width

        # -- Horizontal walk: end strip, then nf x (gate + strip) ------------
        drain_strips, _source_strips = strip_counts(nf, drain_internal)
        # Strip type sequence: with drain internal (even nf) the ends are
        # sources: S G D G S ...; otherwise start with drain.
        first_is_drain = not drain_internal if nf % 2 == 0 else True
        if nf % 2 == 1:
            # Odd: start with drain by convention (alternating anyway).
            first_is_drain = True

        x = 0.0
        self.strips: List[StripInfo] = []
        self.gate_rects: List[Rect] = []
        is_drain = first_is_drain
        for position in range(nf + 1):
            is_end = position in (0, nf)
            strip_width = end_strip if is_end else internal_strip
            rect = Rect.from_size(x, 0.0, strip_width, finger)
            net = net_d if is_drain else net_s
            self.strips.append(
                StripInfo(
                    rect=rect, net=net, is_drain=is_drain, is_end=is_end,
                    contacts=0,
                )
            )
            x += strip_width
            if position < nf:
                self.gate_rects.append(
                    Rect.from_size(
                        x, -rules.poly_endcap, length,
                        finger + 2.0 * rules.poly_endcap,
                    )
                )
                x += length
            is_drain = not is_drain
        total_width = x

        # Active region spans all strips and channels.
        self.active = Rect.from_size(0.0, 0.0, total_width, finger)
        implant_margin = rules.contact_active_enclosure
        self.implant = Rect.from_size(
            -implant_margin,
            -implant_margin,
            total_width + 2.0 * implant_margin,
            finger + 2.0 * implant_margin,
        )

        # -- Contact fit (reliability rules) and strap widths -----------------
        source_strips_count = (nf + 1) - drain_strips
        cuts_needed = {
            True: tech.contact.cuts_for_current(
                abs(drain_current) / max(drain_strips, 1)
            ),
            False: tech.contact.cuts_for_current(
                abs(drain_current) / max(source_strips_count, 1)
            ),
        }
        for strip in self.strips:
            strip.contacts = _contact_fit(
                tech, strip.rect.height, cuts_needed[strip.is_drain]
            )
        strap_width = metal1.min_width_for_current(
            abs(drain_current), rules.metal1_min_width
        )
        strap_width = rules.snap_up(strap_width)

        gate_top = finger + rules.poly_endcap
        gate_strap_height = rules.poly_min_width
        source_rail_y0 = gate_top + gate_strap_height + rules.metal1_spacing
        drain_rail_y1 = -rules.poly_endcap - rules.metal1_spacing
        self.column_width = max(
            rules.contact_size + 2.0 * rules.contact_metal_enclosure,
            rules.metal1_min_width,
        )
        self.drain_column_y0 = drain_rail_y1 - strap_width
        self.source_column_y1 = source_rail_y0 + strap_width

        # -- Terminal rails ------------------------------------------------------
        self.drain_rail = Rect(
            0.0, drain_rail_y1 - strap_width, total_width, drain_rail_y1
        )
        self.source_rail = Rect(
            0.0, source_rail_y0, total_width, source_rail_y0 + strap_width
        )

        # -- Gate strap with a metal-1 tap beyond the left edge -----------------
        # The tap pad sits outside the strip region so its metal never
        # clashes with the source/drain metal-1 columns rising between the
        # gates.
        tap_size = rules.contact_size + 2.0 * rules.contact_metal_enclosure
        tap_center_x = -(rules.metal1_spacing + tap_size / 2.0)
        tap_center_y = gate_top + gate_strap_height / 2.0
        self.gate_strap = Rect(
            tap_center_x, gate_top, total_width, gate_top + gate_strap_height
        )
        # Square poly pad under the tap (the strap itself may be narrower
        # than the cut plus enclosure needs); the metal-1 pin covers it.
        self.tap_pad = Rect.centered(tap_center_x, tap_center_y, tap_size, tap_size)
        self.tap_cut = Rect.centered(
            tap_center_x, tap_center_y, rules.contact_size, rules.contact_size
        )

        # -- Well (PMOS) ---------------------------------------------------------------
        self.well_rect: Optional[Rect] = None
        if polarity == "p":
            margin = rules.active_well_enclosure
            self.well_rect = Rect(
                -margin,
                -margin,
                total_width + margin,
                finger + margin,
            )

        # Strap columns are the same function of the strip's x (first and
        # last strips bound it) and its terminal (one strip per terminal
        # bounds y).
        by_terminal = {strip.is_drain: strip for strip in self.strips}
        samples = [self.strips[0], self.strips[-1], *by_terminal.values()]
        self.bbox = bounding_box(
            [self.active, self.implant, *self.gate_rects, self.drain_rail,
             self.source_rail, self.gate_strap, self.tap_pad]
            + [self._strap(strip) for strip in samples]
            + ([self.well_rect] if self.well_rect is not None else [])
        )

    @property
    def footprint(self) -> Tuple[float, float]:
        """``(width, height)`` of the cell :meth:`draw` produces."""
        return self.bbox.width, self.bbox.height

    def _strap(self, strip: StripInfo) -> Rect:
        """Vertical metal-1 from a strip to its terminal rail."""
        half = self.column_width / 2.0
        center = strip.rect.center.x
        if strip.is_drain:
            return Rect(
                center - half, self.drain_column_y0, center + half,
                strip.rect.y1,
            )
        return Rect(
            center - half, strip.rect.y0, center + half, self.source_column_y1
        )

    def shapes(self, cuts: bool = True) -> Iterator[FrameShape]:
        """The motif's shapes in drawing order; ``cuts=False`` leaves
        out the contact cuts."""
        yield Layer.ACTIVE, self.active, None, False
        implant = Layer.NIMPLANT if self.polarity == "n" else Layer.PIMPLANT
        yield implant, self.implant, None, False
        for rect in self.gate_rects:
            yield Layer.POLY, rect, self.net_g, False

        # -- Contacts and vertical metal-1 strip straps -----------------------
        for strip in self.strips:
            if cuts:
                for cut in _contact_column(self.tech, strip.rect, strip.contacts):
                    yield Layer.CONTACT, cut, strip.net, False
            yield Layer.METAL1, self._strap(strip), strip.net, False

        # -- Terminal rails, gate strap and tap ---------------------------------
        yield Layer.METAL1, self.drain_rail, self.net_d, True
        yield Layer.METAL1, self.source_rail, self.net_s, True
        yield Layer.POLY, self.gate_strap, self.net_g, False
        yield Layer.POLY, self.tap_pad, self.net_g, False
        if cuts:
            yield Layer.CONTACT, self.tap_cut, self.net_g, False
        yield Layer.METAL1, self.tap_pad, self.net_g, True

        if self.well_rect is not None:
            yield Layer.NWELL, self.well_rect, self.net_b, False

    def geometry(self) -> DiffusionGeometry:
        """Exact junction geometry of the motif's diffusion strips."""
        rules = self.tech.rules
        return folded_diffusion_geometry(
            self.actual_w,
            self.nf,
            ldif_internal=rules.contacted_diffusion_width,
            ldif_end=rules.end_diffusion_width,
            drain_internal=self.drain_internal,
        )

    def draw(self) -> MosMotif:
        """Emit the motif's shapes into a fresh cell."""
        return MosMotif(
            cell=Cell.from_shapes(self.name, self.shapes()),
            nf=self.nf,
            finger_width=self.finger,
            actual_w=self.actual_w,
            requested_w=self.requested_w,
            length=self.length,
            drain_internal=self.drain_internal,
            geometry=self.geometry(),
            strips=self.strips,
            well_rect=self.well_rect,
            net_d=self.net_d,
            net_g=self.net_g,
            net_s=self.net_s,
            net_b=self.net_b,
        )


def generate_mos_motif(*args, **kwargs) -> MosMotif:
    """Draw one (possibly folded) transistor: :class:`MotifFrame` of the
    same arguments, drawn."""
    return MotifFrame(*args, **kwargs).draw()
