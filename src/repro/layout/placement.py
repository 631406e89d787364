"""Slicing-tree placement with shape-function area optimisation.

"The language constructs allow to build up the appropriate slicing
structure for the circuit" (paper section 3).  Leaves are modules with
discrete implementation *variants* (different fold configurations); the
tree composes their shape functions, a shape constraint (aspect ratio,
height or width) selects one frontier point, and realisation walks back
down assigning each module its variant and position.

Selecting a frontier point is what "results in a given number of folds for
each transistor" — the fold counts fall out of area optimisation, exactly
as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.errors import LayoutError
from repro.layout.shape import ShapeFunction, ShapePoint, compose_frontier


@dataclass
class ModuleVariant:
    """One realisable implementation of a module.

    Area optimisation reads only the footprint (``width``, ``height``);
    ``frame`` is what the caller gets back for the variant placement
    picks (the layout generators pass the module frame whose footprint
    this is).
    """

    tag: Any
    """Implementation handle, e.g. a fold-count assignment."""
    width: float
    height: float
    frame: Any = None


@dataclass
class Placement:
    """A chosen variant at an absolute position."""

    name: str
    variant: ModuleVariant
    dx: float
    dy: float


class LeafNode:
    """A module with its variants."""

    def __init__(self, name: str, variants: Sequence[ModuleVariant]):
        if not variants:
            raise LayoutError(f"module {name!r} has no variants")
        self.name = name
        self.variants = list(variants)

    def shape_function(self) -> ShapeFunction:
        return ShapeFunction(
            ShapePoint(width=v.width, height=v.height, tag=("leaf", self, v))
            for v in self.variants
        )


class SliceNode:
    """Internal slicing node: horizontal or vertical composition."""

    def __init__(
        self,
        kind: str,
        children: Sequence[Union["SliceNode", LeafNode]],
        spacings: Optional[Sequence[float]] = None,
        align: str = "center",
    ):
        if kind not in ("h", "v"):
            raise LayoutError(f"slice kind must be 'h' or 'v', got {kind!r}")
        if not children:
            raise LayoutError("slice node needs children")
        if spacings is None:
            spacings = [0.0] * (len(children) - 1)
        if len(spacings) != len(children) - 1:
            raise LayoutError("need exactly len(children)-1 spacings")
        if align not in ("min", "center"):
            raise LayoutError(f"align must be 'min' or 'center', got {align!r}")
        self.kind = kind
        self.children = list(children)
        self.spacings = list(spacings)
        self.align = align

    def shape_function(self) -> ShapeFunction:
        """Stockmeyer composition of the children's frontiers.

        :func:`compose_frontier` resolves which child-point index combos
        survive pruning; the ShapePoints and their realization tags are
        built here from this tree's child points, with the exact floats
        and variant handles of a direct enumeration.
        """
        child_functions = [child.shape_function() for child in self.children]
        total_spacing = sum(self.spacings)
        frontier = compose_frontier(
            self.kind, [f.points for f in child_functions], total_spacing
        )
        points = []
        for indices in frontier:
            combo = tuple(
                child_functions[c].points[i] for c, i in enumerate(indices)
            )
            if self.kind == "h":
                width = sum(p.width for p in combo) + total_spacing
                height = max(p.height for p in combo)
            else:
                width = max(p.width for p in combo)
                height = sum(p.height for p in combo) + total_spacing
            points.append(
                ShapePoint(width=width, height=height, tag=("slice", self, combo))
            )
        return ShapeFunction(points)


def realize(point: ShapePoint, dx: float = 0.0, dy: float = 0.0) -> List[Placement]:
    """Assign positions and variants for a chosen frontier point."""
    kind = point.tag[0] if isinstance(point.tag, tuple) else None
    if kind == "leaf":
        _, leaf, variant = point.tag
        return [Placement(name=leaf.name, variant=variant, dx=dx, dy=dy)]
    if kind == "slice":
        _, node, combo = point.tag
        placements: List[Placement] = []
        offset = 0.0
        for i, child_point in enumerate(combo):
            if node.kind == "h":
                child_dy = dy
                if node.align == "center":
                    child_dy += (point.height - child_point.height) / 2.0
                placements.extend(realize(child_point, dx + offset, child_dy))
                offset += child_point.width
            else:
                child_dx = dx
                if node.align == "center":
                    child_dx += (point.width - child_point.width) / 2.0
                placements.extend(realize(child_point, child_dx, dy + offset))
                offset += child_point.height
            if i < len(node.spacings):
                offset += node.spacings[i]
        return placements
    raise LayoutError("shape point does not carry slicing tags; cannot realize")


def optimize(
    root: Union[SliceNode, LeafNode],
    aspect: Optional[float] = None,
    height: Optional[float] = None,
    width: Optional[float] = None,
) -> Tuple[ShapePoint, List[Placement]]:
    """Pick the best frontier point under a shape constraint and realize it.

    Exactly one of ``aspect`` (H/W), ``height`` or ``width`` may be given;
    with none, the minimum-area point wins.
    """
    constraints = [c for c in (aspect, height, width) if c is not None]
    if len(constraints) > 1:
        raise LayoutError("give at most one shape constraint")
    function = root.shape_function()
    if aspect is not None:
        point = function.best_for_aspect(aspect)
    elif height is not None:
        point = function.best_for_height(height)
    elif width is not None:
        point = function.best_for_width(width)
    else:
        point = function.minimum_area()
    return point, realize(point)
