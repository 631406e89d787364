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
construction.  Every pass reads the cell's columnar flattening
(:meth:`Cell.table`): widths are one array test, a cut whose window one
same-net landing shape contains is settled by an array pre-pass, and
spacing candidates come from the shared interval sweep.  The all-pairs
scan the tests compare against lives in ``tests/oracles/layout.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import telemetry
from repro.layout.cell import LAYER_CODE, LAYERS, Cell, FlatTable, Shape
from repro.layout.geometry import Rect, interval_pairs
from repro.layout.layers import Layer
from repro.technology.process import Technology

_EPSILON = 1e-12

#: Largest grid-bin coordinate the cut pre-pass bins (far inside int64).
_MAX_BIN = 2.0 ** 40


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

    #: The landing layers that must enclose each cut layer.
    LANDING = {
        Layer.CONTACT: (Layer.METAL1,),
        Layer.VIA1: (Layer.METAL1, Layer.METAL2),
    }

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
        self.cut_enclosure: Dict[Layer, float] = {
            Layer.CONTACT: rules.contact_metal_enclosure,
            Layer.VIA1: rules.via_metal_enclosure,
        }

    # -- Entry point --------------------------------------------------------

    def check(self, cell: Cell) -> List[DrcViolation]:
        """Run all checks; returns the (possibly empty) violation list.

        Widths, then cuts, then spacing and shorts; within each class the
        order is that of an all-pairs scan over the flattened shapes —
        the array passes only narrow which shapes and pairs are examined.
        """
        table = cell.table()
        with telemetry.span(
            "layout.drc", cell=cell.name, shapes=len(table)
        ):
            telemetry.count("layout.drc")
            violations: List[DrcViolation] = []
            violations.extend(self._check_widths(table))
            violations.extend(self._check_cuts(table))
            violations.extend(self._check_spacing_and_shorts(table))
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

    def _width_violation(self, shape: Shape) -> Optional[DrcViolation]:
        """The minimum-width predicate for one shape."""
        minimum = self.min_width.get(shape.layer)
        if minimum is None:
            return None
        narrow = min(shape.rect.width, shape.rect.height)
        if narrow < minimum - _EPSILON:
            return DrcViolation(
                kind="min_width",
                layer=shape.layer,
                rect=shape.rect,
                message=(
                    f"width {narrow:.3e} m below minimum "
                    f"{minimum:.3e} m (net {shape.net})"
                ),
            )
        return None

    def _check_widths(self, table: FlatTable) -> List[DrcViolation]:
        """One array test over every row; the exact predicate re-runs on
        the rows it flags."""
        minimum = np.full(len(LAYERS), -np.inf)
        for layer, value in self.min_width.items():
            minimum[LAYER_CODE[layer]] = value
        coords = table.coords
        narrow = np.minimum(
            coords[:, 2] - coords[:, 0], coords[:, 3] - coords[:, 1]
        )
        flagged = np.flatnonzero(narrow < minimum[table.layers] - _EPSILON)
        violations = []
        for layer, rect, net in table.rows(flagged):
            found = self._width_violation(Shape(layer, rect, net))
            if found is not None:
                violations.append(found)
        return violations

    # -- Cuts ------------------------------------------------------------------------

    def _check_cuts(self, table: FlatTable) -> List[DrcViolation]:
        """Cut size, then enclosure on each landing layer, cut by cut.

        A vectorized pre-pass marks a cut enclosed on a landing layer
        when one landing shape on the cut's net (any net for a cut with
        none) contains its required window: ``_union_covers``'s first
        loop.  Only the (cut, layer) pairs it leaves open run
        ``_union_covers``, over the landing shapes that overlap the
        window, in table order.
        """
        violations = []
        coords, nets, layers = table.coords, table.nets, table.layers
        probes = 0
        for cut_layer, size in self.cut_size.items():
            rows = np.flatnonzero(layers == LAYER_CODE[cut_layer])
            if not rows.size:
                continue
            cut = coords[rows]
            cut_nets = nets[rows]
            wrong_size = (
                (np.abs(cut[:, 2] - cut[:, 0] - size) > _EPSILON)
                | (np.abs(cut[:, 3] - cut[:, 1] - size) > _EPSILON)
            )
            margin = self.cut_enclosure[cut_layer]
            # Back the required window off by a femto-margin so exact
            # float arithmetic (enclosure == margin) passes.
            grow = margin - _EPSILON
            needed = np.concatenate(
                (cut[:, :2] - grow, cut[:, 2:] + grow), axis=1
            )
            degenerate = (
                (needed[:, 2] - needed[:, 0] < _EPSILON)
                | (needed[:, 3] - needed[:, 1] < _EPSILON)
            )
            landings = []
            for metal_layer in self.LANDING[cut_layer]:
                members = np.flatnonzero(
                    layers == LAYER_CODE[metal_layer]
                )
                enclosed = degenerate | _single_container(
                    needed, cut_nets, coords[members], nets[members]
                )
                landings.append((metal_layer, members, enclosed))
            flagged = wrong_size.copy()
            for _layer, _members, enclosed in landings:
                flagged |= ~enclosed
            for k in np.flatnonzero(flagged).tolist():
                x0, y0, x1, y1 = cut[k].tolist()
                rect = Rect(x0, y0, x1, y1)
                if wrong_size[k]:
                    violations.append(
                        DrcViolation(
                            kind="cut_size",
                            layer=cut_layer,
                            rect=rect,
                            message=(
                                f"cut must be {size:.3e} m square, drawn "
                                f"{rect.width:.3e} x {rect.height:.3e}"
                            ),
                        )
                    )
                    continue
                net = int(cut_nets[k])
                window = Rect(*needed[k].tolist())
                for metal_layer, members, enclosed in landings:
                    if enclosed[k]:
                        continue
                    probes += 1
                    land = coords[members]
                    hits = (
                        (window.x0 < land[:, 2]) & (land[:, 0] < window.x1)
                        & (window.y0 < land[:, 3]) & (land[:, 1] < window.y1)
                    )
                    if net >= 0:
                        hits &= nets[members] == net
                    candidates = [
                        Rect(*row) for row in land[hits].tolist()
                    ]
                    if not _union_covers(window, candidates):
                        violations.append(
                            DrcViolation(
                                kind="enclosure",
                                layer=cut_layer,
                                rect=rect,
                                message=(
                                    f"cut on net {table.net_name(net)} "
                                    f"lacks {margin:.3e} m of "
                                    f"{metal_layer.value} enclosure"
                                ),
                            )
                        )
        if probes:
            telemetry.count("grid.queries", probes)
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
        self, table: FlatTable
    ) -> List[DrcViolation]:
        violations: List[DrcViolation] = []
        layers, nets, coords = table.layers, table.nets, table.coords
        # Layers in order of first appearance, as a scan over the
        # flattened shapes meets them.
        present, first = np.unique(layers, return_index=True)
        candidates = 0
        for code in present[np.argsort(first)].tolist():
            layer = LAYERS[code]
            spacing = self.min_spacing.get(layer)
            if spacing is None:
                continue
            conducting = layer in self.CONDUCTING
            members = np.flatnonzero(layers == code)
            if len(members) < 2:
                continue
            members = members[np.argsort(coords[members, 0], kind="stable")]
            # Vectorized candidate generation through the shared interval
            # sweep: the x-window matches an all-pairs sorted sweep's
            # break bound, then a y-window cut drops pairs that cannot
            # violate (any reportable pair sits within ``spacing`` on
            # both axes).  Pairs come out in the sweep's (i, j) order, so
            # violations match the all-pairs list exactly.
            box = coords[members]
            ii, jj = interval_pairs(box[:, 0], box[:, 2], spacing + _EPSILON)
            if not ii.size:
                continue
            gap_y = (
                np.maximum(box[ii, 1], box[jj, 1])
                - np.minimum(box[ii, 3], box[jj, 3])
            )
            near = gap_y < spacing - _EPSILON
            ii = members[ii[near]]
            jj = members[jj[near]]
            candidates += int(ii.size)
            # Drop the pairs ``_pair_violation`` clears on nets alone:
            # same net, or (conducting) an un-netted body.
            net_a = nets[ii]
            net_b = nets[jj]
            keep = (net_a < 0) | (net_a != net_b)
            if conducting:
                keep &= (net_a >= 0) & (net_b >= 0)
            ii = ii[keep]
            jj = jj[keep]
            if not ii.size:
                continue
            shape_a = [Shape(*row) for row in table.rows(ii)]
            shape_b = [Shape(*row) for row in table.rows(jj)]
            for a, b in zip(shape_a, shape_b):
                found = self._pair_violation(
                    layer, spacing, conducting, a, b
                )
                if found is not None:
                    violations.append(found)
        if candidates:
            telemetry.count("grid.queries", candidates)
        return violations


def _ranges(starts: np.ndarray, counts: np.ndarray):
    """``(owner, index)`` over the concatenated ranges ``[starts[k],
    starts[k] + counts[k])``: the range ``k`` each index came from."""
    owner = np.repeat(np.arange(len(counts)), counts)
    index = (
        np.arange(int(counts.sum()))
        - np.repeat(np.cumsum(counts) - counts, counts)
        + np.repeat(starts, counts)
    )
    return owner, index


def _single_container(
    needed: np.ndarray,
    cut_nets: np.ndarray,
    land: np.ndarray,
    land_nets: np.ndarray,
) -> np.ndarray:
    """Per cut window, whether one landing shape on the cut's net (any
    net for a cut with none, code ``-1``) contains it.

    A container holds the window's lower-left corner, so candidates are
    the landing shapes registered in that corner's bin of a uniform
    grid (bin edge as :meth:`GridIndex.for_array` sizes it), on the
    cut's net: one sorted key per (bin, net) registration, one key range
    per cut.  Rows with a coordinate too large or not finite to bin are
    left open for the exact fallback.
    """
    enclosed = np.zeros(len(needed), dtype=bool)
    if not len(land) or not len(needed):
        return enclosed
    sides = np.sort(
        np.maximum(land[:, 2] - land[:, 0], land[:, 3] - land[:, 1])
    )
    edge = 2.0 * float(sides[len(sides) // 2])
    if not edge > 0.0:
        edge = 1e-6
    span = np.floor(land / edge)
    corner = np.floor(needed[:, :2] / edge)
    land_ok = np.flatnonzero((np.abs(span) < _MAX_BIN).all(axis=1))
    cut_ok = np.flatnonzero((np.abs(corner) < _MAX_BIN).all(axis=1))
    if not land_ok.size or not cut_ok.size:
        return enclosed
    span = span[land_ok].astype(np.int64)
    corner = corner[cut_ok].astype(np.int64)
    gx, gy = span[:, 0].min(), span[:, 1].min()
    rows_y = int(span[:, 3].max() - gy) + 1
    nets = int(max(land_nets.max(), cut_nets.max())) + 2
    # Key of bin (bx, by) on net code n: ((bx - gx) * rows_y + by - gy)
    # * nets + n + 1, for every bin each landing shape covers.
    per_y = span[:, 3] - span[:, 1] + 1
    owner, step = _ranges(
        np.zeros(len(span), np.int64), (span[:, 2] - span[:, 0] + 1) * per_y
    )
    bins = (
        (span[owner, 0] + step // per_y[owner] - gx) * rows_y
        + span[owner, 1] + step % per_y[owner] - gy
    )
    keys = bins * nets + land_nets[land_ok][owner] + 1
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    owner = land_ok[owner[order]]
    # Each cut's key range: its corner's bin on its own net, or on any.
    cx = corner[:, 0] - gx
    cy = corner[:, 1] - gy
    base = (cx * rows_y + cy) * nets
    own = cut_nets[cut_ok]
    anynet = own < 0
    lo = np.searchsorted(keys, np.where(anynet, base, base + own + 1), "left")
    hi = np.searchsorted(
        keys, np.where(anynet, base + nets - 1, base + own + 1), "right"
    )
    inside = (cx >= 0) & (cy >= 0) & (cy < rows_y)
    cut, at = _ranges(lo, np.where(inside, hi - lo, 0))
    if not at.size:
        return enclosed
    window = needed[cut_ok[cut]]
    box = land[owner[at]]
    contains = (
        (box[:, 0] <= window[:, 0]) & (box[:, 1] <= window[:, 1])
        & (box[:, 2] >= window[:, 2]) & (box[:, 3] >= window[:, 3])
    )
    enclosed[cut_ok[cut[contains]]] = True
    return enclosed
