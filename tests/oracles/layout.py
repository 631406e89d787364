"""Per-shape reference for geometric extraction and DRC.

Extraction walks the flattened shapes one at a time (every poly shape
against every active, a sorted sweep over each layer's shapes for
coupling, every active against every poly and contact for diffusion
strips); the DRC scan tests every same-layer pair inside a sorted sweep
and every cut against every landing shape.  The library's array and
grid-index passes (:mod:`repro.layout.extraction`,
:mod:`repro.layout.drc`) must reproduce these results: extraction within
summation-order noise, DRC violation for violation, in order.

:func:`eager_ota_layout` is the OTA build that draws every fold variant
before area optimisation and places them by their drawn sizes; the
library places by frame footprints and draws only the placed variants,
and must produce the same layout.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.errors import LayoutError
from repro.layout import ota
from repro.layout.cell import Cell, Shape
from repro.layout.drc import _EPSILON, DrcChecker, DrcViolation, _union_covers
from repro.layout.extraction import ExtractedParasitics, _wells
from repro.layout.geometry import Rect
from repro.layout.layers import Layer, metal_name
from repro.layout.placement import ModuleVariant
from repro.technology.process import Technology


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
        well=dict(sorted(_wells(shapes).items())),
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


def drc_check(checker: DrcChecker, cell: Cell) -> List[DrcViolation]:
    """Reference DRC: the checker's rules applied by all-pairs scans, in
    the order :meth:`DrcChecker.check` reports them."""
    shapes = list(cell.flattened())
    return (
        checker._check_widths(shapes)
        + _check_cuts(checker, shapes)
        + _check_spacing_and_shorts(checker, shapes)
    )


# -- OTA build ----------------------------------------------------------------


def eager_ota_layout(request: ota.OtaLayoutRequest) -> ota.OtaLayoutResult:
    """Draw every feasible fold variant, then place by the drawn sizes."""
    variants: Dict[str, List[ModuleVariant]] = {}
    for module, candidates in ota._candidates(request).items():
        items = []
        for tag, make_frame in candidates:
            try:
                layout = make_frame().draw()
            except LayoutError:
                continue
            items.append(ModuleVariant(
                tag, layout.cell.width, layout.cell.height,
                lambda layout=layout: layout,
            ))
        if not items:
            raise LayoutError(f"no feasible fold variant for {module}")
        variants[module] = items
    return ota._place_and_route(request, variants)
