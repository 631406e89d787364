"""Design-rule checking.

A geometric checker over flattened cells, covering the rule classes the
generators must honour:

* **minimum width** per drawn layer;
* **minimum spacing** between same-layer shapes of *different* nets
  (same-net shapes may abut or overlap freely — the generators compose
  terminals from several rectangles);
* **shorts**: overlapping same-layer conducting shapes on different nets;
* **cut geometry**: contacts and vias must be drawn at the exact cut size
  and be enclosed by their landing metal.

The checker is used by the test-suite to keep every generator (motif,
stacks, mirrors, the full OTA assembly) clean, standing in for the
"technology design rules" the paper's procedural language guarantees by
construction.  Pair candidates come from a :class:`GridIndex` and the
shared interval sweep; the all-pairs scan the tests compare against
lives in ``tests/oracles/layout.py``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import telemetry
from repro.layout.cell import Cell, Shape
from repro.layout.geometry import GridIndex, Rect, interval_pairs
from repro.layout.layers import Layer
from repro.technology.process import Technology

_EPSILON = 1e-12


def _subtract(outer: Rect, hole: Rect) -> List[Rect]:
    """Up to four rectangles covering ``outer`` minus ``hole``.

    ``hole`` must lie within ``outer``.
    """
    remainders: List[Rect] = []
    if hole.y1 < outer.y1:
        remainders.append(Rect(outer.x0, hole.y1, outer.x1, outer.y1))
    if hole.y0 > outer.y0:
        remainders.append(Rect(outer.x0, outer.y0, outer.x1, hole.y0))
    if hole.x0 > outer.x0:
        remainders.append(Rect(outer.x0, hole.y0, hole.x0, hole.y1))
    if hole.x1 < outer.x1:
        remainders.append(Rect(hole.x1, hole.y0, outer.x1, hole.y1))
    return remainders


def _union_covers(needed: Rect, rects: List[Rect], depth: int = 32) -> bool:
    """True when the union of ``rects`` covers ``needed``."""
    if needed.width < _EPSILON or needed.height < _EPSILON:
        return True
    if depth <= 0:
        return False
    for rect in rects:
        if rect.contains(needed):
            return True
    for rect in rects:
        overlap = needed.intersection(rect)
        if overlap is None:
            continue
        return all(
            _union_covers(piece, rects, depth - 1)
            for piece in _subtract(needed, overlap)
        )
    return False


@dataclass
class DrcViolation:
    """One design-rule violation."""

    kind: str
    layer: Layer
    rect: Rect
    message: str
    other: Optional[Rect] = None

    def __str__(self) -> str:
        return f"{self.kind} on {self.layer.value}: {self.message}"


class DrcChecker:
    """Checks flattened cells against a technology's design rules."""

    #: Layers whose shapes conduct (participate in spacing/short checks).
    CONDUCTING = (Layer.POLY, Layer.METAL1, Layer.METAL2)

    def __init__(self, technology: Technology):
        technology.validate()
        self.technology = technology
        rules = technology.rules
        self.min_width: Dict[Layer, float] = {
            Layer.ACTIVE: rules.active_min_width,
            Layer.POLY: rules.poly_min_width,
            Layer.METAL1: rules.metal1_min_width,
            Layer.METAL2: rules.metal2_min_width,
        }
        self.min_spacing: Dict[Layer, float] = {
            Layer.ACTIVE: rules.active_spacing,
            Layer.POLY: rules.poly_spacing,
            Layer.METAL1: rules.metal1_spacing,
            Layer.METAL2: rules.metal2_spacing,
            Layer.CONTACT: rules.contact_spacing,
            Layer.VIA1: rules.via_spacing,
        }
        self.cut_size: Dict[Layer, float] = {
            Layer.CONTACT: rules.contact_size,
            Layer.VIA1: rules.via_size,
        }

    # -- Entry point --------------------------------------------------------

    def check(self, cell: Cell) -> List[DrcViolation]:
        """Run all checks; returns the (possibly empty) violation list.

        Widths, then cuts, then spacing and shorts; within each class the
        order is that of an all-pairs scan — the index only narrows which
        pairs are examined.
        """
        shapes = list(cell.flattened())
        with telemetry.span(
            "layout.drc", cell=cell.name, shapes=len(shapes)
        ):
            telemetry.count("layout.drc")
            violations: List[DrcViolation] = []
            violations.extend(self._check_widths(shapes))
            violations.extend(self._check_cuts(shapes))
            violations.extend(self._check_spacing_and_shorts(shapes))
            return violations

    def assert_clean(self, cell: Cell, limit: int = 5) -> None:
        """Raise ``AssertionError`` listing violations, if any."""
        violations = self.check(cell)
        if violations:
            summary = "; ".join(str(v) for v in violations[:limit])
            raise AssertionError(
                f"{len(violations)} DRC violation(s) in {cell.name!r}: "
                f"{summary}"
            )

    # -- Width -----------------------------------------------------------------

    def _check_widths(self, shapes: List[Shape]) -> List[DrcViolation]:
        violations = []
        for shape in shapes:
            minimum = self.min_width.get(shape.layer)
            if minimum is None:
                continue
            narrow = min(shape.rect.width, shape.rect.height)
            if narrow < minimum - _EPSILON:
                violations.append(
                    DrcViolation(
                        kind="min_width",
                        layer=shape.layer,
                        rect=shape.rect,
                        message=(
                            f"width {narrow:.3e} m below minimum "
                            f"{minimum:.3e} m (net {shape.net})"
                        ),
                    )
                )
        return violations

    # -- Cuts ------------------------------------------------------------------------

    def _check_cuts(self, shapes: List[Shape]) -> List[DrcViolation]:
        violations = []
        landing = {
            Layer.CONTACT: (Layer.METAL1,),
            Layer.VIA1: (Layer.METAL1, Layer.METAL2),
        }
        enclosure = {
            Layer.CONTACT: self.technology.rules.contact_metal_enclosure,
            Layer.VIA1: self.technology.rules.via_metal_enclosure,
        }
        by_layer: Dict[Layer, List[Shape]] = defaultdict(list)
        for shape in shapes:
            by_layer[shape.layer].append(shape)

        # One lazily built index per landing layer; query results come
        # back in insertion (list) order, so the candidate list seen by
        # the order-sensitive ``_union_covers`` is unchanged.
        metal_index: Dict[Layer, GridIndex] = {}
        grid_queries = 0

        def landing_candidates(cut: Shape, metal_layer: Layer, needed: Rect):
            nonlocal grid_queries
            members = by_layer.get(metal_layer, [])
            index = metal_index.get(metal_layer)
            if index is None:
                index = GridIndex.for_rects([s.rect for s in members])
                metal_index[metal_layer] = index
            grid_queries += 1
            candidates = []
            for i in index.query(needed):
                shape = members[i]
                if cut.net is None or shape.net == cut.net:
                    candidates.append(shape.rect)
            return candidates

        for cut_layer, size in self.cut_size.items():
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
                # Back the required window off by a femto-margin so exact
                # float arithmetic (enclosure == margin) passes.
                needed = cut.rect.expanded(margin - _EPSILON)
                for metal_layer in landing[cut_layer]:
                    candidates = landing_candidates(cut, metal_layer, needed)
                    covered = _union_covers(needed, candidates)
                    if not covered:
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
        if grid_queries:
            telemetry.count("grid.queries", grid_queries)
        return violations

    # -- Spacing / shorts --------------------------------------------------------------

    def _pair_violation(
        self, layer: Layer, spacing: float, conducting: bool,
        a: Shape, b: Shape,
    ) -> Optional[DrcViolation]:
        """The exact spacing/short predicate for one candidate pair."""
        same_net = (
            a.net is not None and b.net is not None
            and a.net == b.net
        )
        if same_net:
            return None
        if conducting and (a.net is None or b.net is None):
            # Un-netted conducting shapes are device-internal
            # bodies (resistor serpentines, dummy fill): they
            # deliberately bridge or abut terminals.
            return None
        if a.net is None and b.net is None and not conducting:
            # Merged drawing layers (active, implant): only a
            # genuine gap below spacing is reportable; abutting
            # or overlapping shapes merge.
            if a.rect.intersects(b.rect):
                return None
            if a.rect.distance_to(b.rect) < _EPSILON:
                return None
        if conducting and a.rect.intersects(b.rect):
            return DrcViolation(
                kind="short",
                layer=layer,
                rect=a.rect,
                other=b.rect,
                message=f"nets {a.net!r} and {b.net!r} overlap",
            )
        distance = a.rect.distance_to(b.rect)
        if distance < spacing - _EPSILON:
            return DrcViolation(
                kind="spacing",
                layer=layer,
                rect=a.rect,
                other=b.rect,
                message=(
                    f"nets {a.net!r}/{b.net!r} spaced "
                    f"{distance:.3e} m < {spacing:.3e} m"
                ),
            )
        return None

    def _check_spacing_and_shorts(
        self, shapes: List[Shape]
    ) -> List[DrcViolation]:
        violations: List[DrcViolation] = []
        by_layer: Dict[Layer, List[Shape]] = defaultdict(list)
        for shape in shapes:
            if shape.layer in self.min_spacing:
                by_layer[shape.layer].append(shape)

        grid_queries = 0
        for layer, members in by_layer.items():
            spacing = self.min_spacing[layer]
            conducting = layer in self.CONDUCTING
            if len(members) < 2:
                continue
            members = sorted(members, key=lambda s: s.rect.x0)
            # Vectorized candidate generation through the shared interval
            # sweep: the x-window matches an all-pairs sorted sweep's
            # break bound, then a y-window cut drops pairs that cannot
            # violate (any reportable pair sits within ``spacing`` on
            # both axes).  Pairs come out in the sweep's (i, j) order, so
            # violations match the all-pairs list exactly.
            coords = np.array(
                [(s.rect.x0, s.rect.y0, s.rect.x1, s.rect.y1) for s in members]
            )
            ii, jj = interval_pairs(
                coords[:, 0], coords[:, 2], spacing + _EPSILON
            )
            if ii.size:
                gap_y = (
                    np.maximum(coords[ii, 1], coords[jj, 1])
                    - np.minimum(coords[ii, 3], coords[jj, 3])
                )
                near = gap_y < spacing - _EPSILON
                ii = ii[near]
                jj = jj[near]
            grid_queries += int(ii.size)
            for i, j in zip(ii.tolist(), jj.tolist()):
                found = self._pair_violation(
                    layer, spacing, conducting, members[i], members[j]
                )
                if found is not None:
                    violations.append(found)
        if grid_queries:
            telemetry.count("grid.queries", grid_queries)
        return violations
