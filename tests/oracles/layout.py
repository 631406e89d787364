"""Per-shape reference for flattening, geometric extraction, DRC and
GDS export.

Extraction walks the flattened shapes one at a time (every poly shape
against every active, a sorted sweep over each layer's shapes for
coupling, every active against every poly and contact for diffusion
strips); the DRC scan tests every same-layer pair inside a sorted sweep
and every cut against every landing shape.  The library's array and
grid-index passes (:mod:`repro.layout.extraction`,
:mod:`repro.layout.drc`) must reproduce these results: extraction within
summation-order noise, DRC violation for violation, in order.  The
columnar flattening (:meth:`Cell.table`) must hold :func:`flatten`'s
shapes row for row, and :func:`repro.layout.gds.cell_to_gds` must write
:func:`gds_stream`'s bytes.

:func:`eager_ota_layout` is the drawn OTA build: it draws every fold
variant before area optimisation, places them by their drawn sizes,
routes against the drawn modules' pins and metal, and reports each
module's parasitics from the extraction of its drawn cell and its
devices from the all-pairs strip matching
(:func:`stack_device_geometry`).  The library places by frame
footprints, computes parasitics from the placed frames' shape
enumerations and draws nothing in estimate mode, and must produce the
same report and, in generate mode, the same layout.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import LayoutError
from repro.layout import gds, ota
from repro.layout.cell import Cell, Shape
from repro.layout.devices import DUMMY, CellFrame, ModuleLayout, StackFrame
from repro.layout.drc import _EPSILON, DrcChecker, DrcViolation, _union_covers
from repro.layout.extraction import (
    ExtractedParasitics,
    ExtractionWorkspace,
    _wells,
    interconnect_parasitics,
)
from repro.layout.geometry import GridIndex, Rect
from repro.layout.layers import GDS_LAYER_NUMBERS, Layer, metal_name
from repro.layout.parasitics import (
    DeviceParasitics,
    ModuleView,
    ParasiticReport,
    add_routing,
)
from repro.layout.placement import LeafNode, ModuleVariant, SliceNode, optimize
from repro.layout.routing import ChannelRouter, PlacedModule
from repro.mos.junction import DiffusionGeometry
from repro.technology.process import Technology


# -- Flattening --------------------------------------------------------------


def flatten(cell: Cell) -> List[Shape]:
    """Reference flattening, shape by shape: local shapes, then each
    instance's flattening through :meth:`Rect.transformed` and
    :meth:`Rect.translated`, nets renamed through its ``net_map``.
    :meth:`Cell.table` must hold exactly these rows."""
    out: List[Shape] = list(cell.shapes)
    for instance in cell.instances:
        for shape in flatten(instance.cell):
            rect = shape.rect.transformed(instance.orientation).translated(
                instance.dx, instance.dy
            )
            net = shape.net
            if net is not None:
                net = instance.net_map.get(net, net)
            out.append(Shape(layer=shape.layer, rect=rect, net=net))
    return out


# -- Extraction --------------------------------------------------------------


def wire_capacitance(
    tech: Technology, shapes: List[Shape], actives: List[Rect]
) -> Dict[str, float]:
    """Ground capacitance per net over all interconnect shapes."""
    result: Dict[str, float] = defaultdict(float)
    for shape in shapes:
        if shape.net is None:
            continue
        metal = tech.metal(metal_name(shape.layer))
        area = shape.rect.area
        if shape.layer is Layer.POLY:
            # Gate poly over active is channel, not wire.
            for active in actives:
                overlap = shape.rect.intersection(active)
                if overlap is not None:
                    area -= overlap.area
            if area <= 0.0:
                continue
        result[shape.net] += (
            metal.area_cap * area + metal.fringe_cap * shape.rect.perimeter
        )
    return dict(result)


def coupling(
    tech: Technology, shapes: List[Shape], window_factor: float = 3.0
) -> Dict[Tuple[str, str], float]:
    """Same-layer lateral coupling between different nets."""
    result: Dict[Tuple[str, str], float] = defaultdict(float)
    by_layer: Dict[Layer, List[Shape]] = defaultdict(list)
    for shape in shapes:
        if shape.net is not None:
            by_layer[shape.layer].append(shape)
    for layer, members in by_layer.items():
        metal = tech.metal(metal_name(layer))
        window = window_factor * metal.min_spacing
        members = sorted(members, key=lambda s: s.rect.x0)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if b.rect.x0 > a.rect.x1 + window:
                    break
                if a.net == b.net:
                    continue
                run_x = a.rect.parallel_run_x(b.rect)
                run_y = a.rect.parallel_run_y(b.rect)
                if run_x > 0.0 and run_y > 0.0:
                    continue  # overlapping different nets: not lateral
                if run_x > 0.0:
                    spacing = max(b.rect.y0 - a.rect.y1, a.rect.y0 - b.rect.y1)
                    run = run_x
                elif run_y > 0.0:
                    spacing = max(b.rect.x0 - a.rect.x1, a.rect.x0 - b.rect.x1)
                    run = run_y
                else:
                    continue
                if spacing <= 0.0 or spacing > window:
                    continue
                key = tuple(sorted((a.net, b.net)))
                result[key] += metal.coupling_capacitance(run, spacing)
    return dict(result)


def _strip_net(strip: Rect, contacts: List[Shape]) -> Optional[str]:
    for contact in contacts:
        if strip.intersects(contact.rect):
            return contact.net
    return None


def diffusion_strips(
    tech: Technology, shapes: List[Shape]
) -> Dict[Tuple[str, str], Tuple[float, float]]:
    """Re-derive diffusion strips from active/poly/contact geometry."""
    actives = [s.rect for s in shapes if s.layer is Layer.ACTIVE]
    polys = [s for s in shapes if s.layer is Layer.POLY]
    contacts = [s for s in shapes if s.layer is Layer.CONTACT and s.net]
    nimplants = [s.rect for s in shapes if s.layer is Layer.NIMPLANT]

    result: Dict[Tuple[str, str], Tuple[float, float]] = defaultdict(
        lambda: (0.0, 0.0)
    )
    for active in actives:
        polarity = "n" if any(r.contains(active) for r in nimplants) else "p"
        # Gates: poly fully crossing the active vertically.
        gates = []
        for poly in polys:
            overlap = poly.rect.intersection(active)
            if overlap is None:
                continue
            if poly.rect.y0 <= active.y0 and poly.rect.y1 >= active.y1:
                gates.append((overlap.x0, overlap.x1))
        gates.sort()
        # Strips between consecutive gates (and the two ends).
        boundaries = [active.x0]
        for x0, x1 in gates:
            boundaries.extend((x0, x1))
        boundaries.append(active.x1)
        for i in range(0, len(boundaries), 2):
            x0, x1 = boundaries[i], boundaries[i + 1]
            if x1 - x0 <= 0.0:
                continue
            strip = Rect(x0, active.y0, x1, active.y1)
            net = _strip_net(strip, contacts)
            if net is None:
                continue
            area = strip.area
            perimeter = 2.0 * strip.width
            if abs(strip.x0 - active.x0) < 1e-12:
                perimeter += strip.height
            if abs(strip.x1 - active.x1) < 1e-12:
                perimeter += strip.height
            key = (net, polarity)
            total_area, total_perimeter = result[key]
            result[key] = (total_area + area, total_perimeter + perimeter)
    return dict(result)


def extract_cell(cell: Cell, tech: Technology) -> ExtractedParasitics:
    """Reference extraction of a (hierarchical) cell, in the library's
    canonical report order."""
    shapes = list(cell.flattened())
    actives = [s.rect for s in shapes if s.layer is Layer.ACTIVE]
    interconnect = [
        s
        for s in shapes
        if s.layer in (Layer.POLY, Layer.METAL1, Layer.METAL2) and s.net
    ]
    wire = wire_capacitance(tech, interconnect, actives)
    lateral = coupling(tech, interconnect)
    diffusion = diffusion_strips(tech, shapes)
    return ExtractedParasitics(
        net_wire_cap=dict(sorted(wire.items())),
        coupling=dict(sorted(lateral.items())),
        diffusion=dict(sorted(diffusion.items())),
        well=dict(sorted(
            _wells([(s.layer, s.rect, s.net) for s in shapes]).items()
        )),
    )


# -- DRC ---------------------------------------------------------------------


def _check_cuts(
    checker: DrcChecker, shapes: List[Shape]
) -> List[DrcViolation]:
    """Cut size and enclosure, every cut against every landing shape."""
    violations = []
    landing = {
        Layer.CONTACT: (Layer.METAL1,),
        Layer.VIA1: (Layer.METAL1, Layer.METAL2),
    }
    rules = checker.technology.rules
    enclosure = {
        Layer.CONTACT: rules.contact_metal_enclosure,
        Layer.VIA1: rules.via_metal_enclosure,
    }
    by_layer: Dict[Layer, List[Shape]] = defaultdict(list)
    for shape in shapes:
        by_layer[shape.layer].append(shape)

    for cut_layer, size in checker.cut_size.items():
        for cut in by_layer.get(cut_layer, []):
            if (
                abs(cut.rect.width - size) > _EPSILON
                or abs(cut.rect.height - size) > _EPSILON
            ):
                violations.append(
                    DrcViolation(
                        kind="cut_size",
                        layer=cut_layer,
                        rect=cut.rect,
                        message=(
                            f"cut must be {size:.3e} m square, drawn "
                            f"{cut.rect.width:.3e} x {cut.rect.height:.3e}"
                        ),
                    )
                )
                continue
            margin = enclosure[cut_layer]
            needed = cut.rect.expanded(margin - _EPSILON)
            for metal_layer in landing[cut_layer]:
                candidates = [
                    shape.rect
                    for shape in by_layer.get(metal_layer, [])
                    if (cut.net is None or shape.net == cut.net)
                    and shape.rect.intersects(needed)
                ]
                if not _union_covers(needed, candidates):
                    violations.append(
                        DrcViolation(
                            kind="enclosure",
                            layer=cut_layer,
                            rect=cut.rect,
                            message=(
                                f"cut on net {cut.net} lacks "
                                f"{margin:.3e} m of "
                                f"{metal_layer.value} enclosure"
                            ),
                        )
                    )
    return violations


def _check_spacing_and_shorts(
    checker: DrcChecker, shapes: List[Shape]
) -> List[DrcViolation]:
    """Spacing and shorts over every same-layer pair of a sorted sweep."""
    violations: List[DrcViolation] = []
    by_layer: Dict[Layer, List[Shape]] = defaultdict(list)
    for shape in shapes:
        if shape.layer in checker.min_spacing:
            by_layer[shape.layer].append(shape)
    for layer, members in by_layer.items():
        spacing = checker.min_spacing[layer]
        conducting = layer in checker.CONDUCTING
        members = sorted(members, key=lambda s: s.rect.x0)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if b.rect.x0 > a.rect.x1 + spacing + _EPSILON:
                    break
                found = checker._pair_violation(
                    layer, spacing, conducting, a, b
                )
                if found is not None:
                    violations.append(found)
    return violations


def _check_widths(
    checker: DrcChecker, shapes: List[Shape]
) -> List[DrcViolation]:
    """Minimum width, shape by shape."""
    found = (checker._width_violation(shape) for shape in shapes)
    return [violation for violation in found if violation is not None]


def drc_check(checker: DrcChecker, cell: Cell) -> List[DrcViolation]:
    """Reference DRC: the checker's rules applied by all-pairs scans, in
    the order :meth:`DrcChecker.check` reports them."""
    shapes = list(cell.flattened())
    return (
        _check_widths(checker, shapes)
        + _check_cuts(checker, shapes)
        + _check_spacing_and_shorts(checker, shapes)
    )


def indexed_cuts(
    checker: DrcChecker, shapes: List[Shape]
) -> List[DrcViolation]:
    """Cut size and enclosure with one :class:`GridIndex` probe per cut
    and landing layer, every probe's candidates through
    ``_union_covers``: the cut check before the single-container
    pre-pass.  It must agree with :func:`_check_cuts`."""
    violations = []
    by_layer: Dict[Layer, List[Shape]] = defaultdict(list)
    for shape in shapes:
        by_layer[shape.layer].append(shape)
    index: Dict[Layer, GridIndex] = {}
    for cut_layer, size in checker.cut_size.items():
        for cut in by_layer.get(cut_layer, []):
            if (
                abs(cut.rect.width - size) > _EPSILON
                or abs(cut.rect.height - size) > _EPSILON
            ):
                violations.append(
                    DrcViolation(
                        kind="cut_size",
                        layer=cut_layer,
                        rect=cut.rect,
                        message=(
                            f"cut must be {size:.3e} m square, drawn "
                            f"{cut.rect.width:.3e} x {cut.rect.height:.3e}"
                        ),
                    )
                )
                continue
            margin = checker.cut_enclosure[cut_layer]
            needed = cut.rect.expanded(margin - _EPSILON)
            for metal_layer in checker.LANDING[cut_layer]:
                members = by_layer.get(metal_layer, [])
                if metal_layer not in index:
                    index[metal_layer] = GridIndex.for_rects(
                        [s.rect for s in members]
                    )
                candidates = [
                    members[i].rect
                    for i in index[metal_layer].query(needed)
                    if cut.net is None or members[i].net == cut.net
                ]
                if not _union_covers(needed, candidates):
                    violations.append(
                        DrcViolation(
                            kind="enclosure",
                            layer=cut_layer,
                            rect=cut.rect,
                            message=(
                                f"cut on net {cut.net} lacks "
                                f"{margin:.3e} m of "
                                f"{metal_layer.value} enclosure"
                            ),
                        )
                    )
    return violations


# -- GDS ---------------------------------------------------------------------


def gds_stream(cell: Cell, library: str = "REPRO") -> bytes:
    """Reference GDSII writer: one ``struct.pack`` per record, shape by
    shape over the flattened cell; :func:`repro.layout.gds.cell_to_gds`
    must return the same bytes."""
    chunks: List[bytes] = [
        gds._record(gds._HEADER, gds._INT2, struct.pack(">h", 600)),
        gds._record(gds._BGNLIB, gds._INT2, gds._timestamp()),
        gds._record(gds._LIBNAME, gds._ASCII, gds._ascii(library)),
        gds._record(
            gds._UNITS, gds._REAL8,
            gds._real8(gds.DB_UNIT / 1e-6) + gds._real8(gds.DB_UNIT),
        ),
        gds._record(gds._BGNSTR, gds._INT2, gds._timestamp()),
        gds._record(
            gds._STRNAME, gds._ASCII,
            gds._ascii(cell.name.upper()[:32] or "TOP"),
        ),
    ]
    for shape in cell.flattened():
        layer_number, data_type = GDS_LAYER_NUMBERS[shape.layer]
        rect = shape.rect
        x0 = round(rect.x0 / gds.DB_UNIT)
        y0 = round(rect.y0 / gds.DB_UNIT)
        x1 = round(rect.x1 / gds.DB_UNIT)
        y1 = round(rect.y1 / gds.DB_UNIT)
        coordinates = struct.pack(
            ">10i", x0, y0, x1, y0, x1, y1, x0, y1, x0, y0
        )
        chunks.extend((
            gds._record(gds._BOUNDARY, gds._NO_DATA),
            gds._record(
                gds._LAYER, gds._INT2, struct.pack(">h", layer_number)
            ),
            gds._record(
                gds._DATATYPE, gds._INT2, struct.pack(">h", data_type)
            ),
            gds._record(gds._XY, gds._INT4, coordinates),
            gds._record(gds._ENDEL, gds._NO_DATA),
        ))
    chunks.append(gds._record(gds._ENDSTR, gds._NO_DATA))
    chunks.append(gds._record(gds._ENDLIB, gds._NO_DATA))
    return b"".join(chunks)


# -- OTA build ----------------------------------------------------------------


def stack_device_geometry(frame: StackFrame) -> Dict[str, DiffusionGeometry]:
    """A stack's junction geometry by position: every strip is matched
    against every gate (a finger's left strip ends at the gate's x0, its
    right strip starts at gate x0 + length), and each strip's area and
    perimeter are split among the device edges beside it."""
    adjacency: List[List[Tuple[str, bool]]] = [[] for _ in frame.strips]
    for finger_index, gate_x in frame.gates:
        finger = frame.plan.fingers[finger_index]
        for strip, neighbours in zip(frame.strips, adjacency):
            if abs(strip.x0 + strip.width - gate_x) < 1e-12:
                neighbours.append((finger.device, finger.drain_left))
            elif abs(strip.x0 - (gate_x + frame.length)) < 1e-12:
                neighbours.append((finger.device, not finger.drain_left))
    accum = {
        device: {"ad": 0.0, "pd": 0.0, "as": 0.0, "ps": 0.0}
        for device in frame.terminals
    }
    for strip, adjacent in zip(frame.strips, adjacency):
        owners = []
        for device, edge_is_drain in adjacent:
            if device == DUMMY or device not in frame.terminals:
                continue
            drain, _gate, source = frame.terminals[device]
            if (drain if edge_is_drain else source) == strip.net:
                owners.append((device, edge_is_drain))
        if not owners:
            continue
        area = strip.width * frame.finger
        perimeter = 2.0 * strip.width
        if strip.is_end and len(adjacent) < 2:
            perimeter += frame.finger
        share = 1.0 / len(owners)
        for device, edge_is_drain in owners:
            keys = ("ad", "pd") if edge_is_drain else ("as", "ps")
            accum[device][keys[0]] += area * share
            accum[device][keys[1]] += perimeter * share
    return {
        device: DiffusionGeometry(
            ad=v["ad"], pd=v["pd"], as_=v["as"], ps=v["ps"]
        )
        for device, v in accum.items()
    }


def drawn_module(frame) -> ModuleLayout:
    """A frame's module as the drawn build sees it: the drawn cell, with
    stack junctions from :func:`stack_device_geometry`."""
    layout = frame.draw()
    if isinstance(frame, StackFrame):
        layout.device_geometry = stack_device_geometry(frame)
    return layout


@dataclass
class EagerLayout:
    """The drawn build's result."""

    report: ParasiticReport
    fold_config: Dict[str, int]
    placements: Dict[str, Tuple[ModuleLayout, float, float]]
    """Module name -> (drawn module, dx, dy)."""
    cell: Cell


def eager_ota_layout(request: ota.OtaLayoutRequest) -> EagerLayout:
    """Draw every feasible fold variant, place by the drawn sizes, route
    against the drawn modules and extract each one."""
    tech = request.technology
    variants: Dict[str, List[ModuleVariant]] = {}
    for module, candidates in ota._candidates(request).items():
        items = []
        for tag, make_frame in candidates:
            try:
                layout = drawn_module(make_frame())
            except LayoutError:
                continue
            items.append(ModuleVariant(
                tag, layout.cell.width, layout.cell.height, layout
            ))
        if not items:
            raise LayoutError(f"no feasible fold variant for {module}")
        variants[module] = items

    router = ChannelRouter(tech, ota._net_currents(request.currents))
    plan = router.plan_channels(ota.ROW_COUNT, ota.NET_PIN_CHANNELS)
    gap = 4.0 * tech.rules.metal1_spacing
    rows = []
    for row_index in range(ota.ROW_COUNT):
        members = sorted(
            name for name, (row, _d) in ota.MODULE_ROWS.items()
            if row == row_index
        )
        rows.append(SliceNode(
            "h", [LeafNode(name, variants[name]) for name in members],
            [gap] * (len(members) - 1), align="center",
        ))
    root = SliceNode(
        "v", rows, spacings=plan.heights[1:ota.ROW_COUNT], align="center"
    )
    point, placed = optimize(
        root, aspect=request.aspect, height=request.height,
        width=request.width,
    )

    layouts: Dict[str, ModuleLayout] = {}
    modules: Dict[str, PlacedModule] = {}
    fold_config: Dict[str, int] = {}
    for placement in placed:
        layout = placement.variant.frame
        box = layout.cell.bbox()
        layouts[placement.name] = layout
        modules[placement.name] = PlacedModule(
            placement.name, CellFrame(layout),
            dx=placement.dx - box.x0, dy=placement.dy - box.y0,
        )
        fold_config.update(placement.variant.tag)

    report = ParasiticReport(width=point.width, height=point.height)
    for name, layout in layouts.items():
        for device, geometry in layout.device_geometry.items():
            actual = layout.actual_widths[device]
            report.devices[device] = DeviceParasitics(
                nf=layout.device_nf[device],
                finger_width=layout.finger_width,
                actual_width=actual,
                requested_width=request.sizes[device][0],
                geometry=geometry,
                drain_internal=request.prefer_even_folds,
            )
    for layout in layouts.values():
        shape_rows = [
            (s.layer, s.rect, s.net) for s in layout.cell.flattened()
        ]
        wiring = interconnect_parasitics(
            tech, ExtractionWorkspace(shape_rows), _wells(shape_rows)
        )
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

    def row_boxes(row_index):
        return [
            m.bbox() for name, m in modules.items()
            if ota.MODULE_ROWS[name][0] == row_index
        ]

    channel_y = [min(b.y0 for b in row_boxes(0)) - plan.heights[0]]
    for row_index in range(ota.ROW_COUNT):
        channel_y.append(max(b.y1 for b in row_boxes(row_index)))
    top = Cell("ota")
    for name, module in modules.items():
        top.add_instance(layouts[name].cell, dx=module.dx, dy=module.dy)
    views = {name: ModuleView.of(m.frame) for name, m in modules.items()}
    routing = router.route(
        list(modules.values()), views,
        {name: ota.MODULE_ROWS[name][0] for name in modules}, plan,
        channel_y, (0.0, point.width),
    )
    routing.draw(top)
    add_routing(report, routing, tech)
    return EagerLayout(
        report=report,
        fold_config=fold_config,
        placements={
            name: (layouts[name], m.dx, m.dy) for name, m in modules.items()
        },
        cell=top,
    )
