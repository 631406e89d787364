"""Shape functions for slicing-structure area optimisation.

"Area optimization is done using a simple and fast algorithm based on shape
functions and slicing structures" (paper section 3).  A shape function is
the Pareto frontier of realisable (width, height) implementations of a
module; slicing composition (Stockmeyer's algorithm) combines children's
frontiers in linear time, and a shape constraint (target aspect ratio or
fixed height) picks one point per module on the way back down the tree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, List, Sequence, Tuple

from repro.errors import LayoutError


@dataclass(frozen=True)
class ShapePoint:
    """One realisable implementation of a module."""

    width: float
    height: float
    tag: Any = None
    """Implementation handle (e.g. a fold-count assignment)."""

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def aspect(self) -> float:
        """Height / width."""
        return self.height / self.width


class ShapeFunction:
    """A Pareto frontier of (width, height) points, width-increasing.

    On the frontier, increasing width strictly decreases height; dominated
    points are pruned on construction.
    """

    def __init__(self, points: Iterable[ShapePoint]):
        candidates = sorted(points, key=lambda p: (p.width, p.height))
        if not candidates:
            raise LayoutError("shape function needs at least one point")
        for point in candidates:
            if point.width <= 0.0 or point.height <= 0.0:
                raise LayoutError("shape points must have positive size")
        frontier: List[ShapePoint] = []
        best_height = float("inf")
        for point in candidates:
            if point.height < best_height - 1e-15:
                frontier.append(point)
                best_height = point.height
        self.points: Tuple[ShapePoint, ...] = tuple(frontier)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    # -- Composition (Stockmeyer) ----------------------------------------------

    @staticmethod
    def horizontal(
        left: "ShapeFunction", right: "ShapeFunction", spacing: float = 0.0
    ) -> "ShapeFunction":
        """Side-by-side composition: widths add, heights take the max.

        Every pairing of frontier points is considered; pruning keeps the
        result linear in practice (the classic merge is an optimisation we
        trade for clarity at these module counts).
        """
        combined = [
            ShapePoint(
                width=a.width + b.width + spacing,
                height=max(a.height, b.height),
                tag=(a, b),
            )
            for a in left
            for b in right
        ]
        return ShapeFunction(combined)

    @staticmethod
    def vertical(
        bottom: "ShapeFunction", top: "ShapeFunction", spacing: float = 0.0
    ) -> "ShapeFunction":
        """Stacked composition: heights add, widths take the max."""
        combined = [
            ShapePoint(
                width=max(a.width, b.width),
                height=a.height + b.height + spacing,
                tag=(a, b),
            )
            for a in bottom
            for b in top
        ]
        return ShapeFunction(combined)

    # -- Selection ---------------------------------------------------------------

    def best_for_aspect(self, aspect: float) -> ShapePoint:
        """Minimum-area point whose aspect is nearest the target H/W."""
        if aspect <= 0.0:
            raise LayoutError("aspect ratio must be positive")
        return min(
            self.points,
            key=lambda p: (abs(p.aspect - aspect) / aspect, p.area),
        )

    def best_for_height(self, height: float) -> ShapePoint:
        """Narrowest point fitting under ``height``; tallest if none fit."""
        fitting = [p for p in self.points if p.height <= height]
        if fitting:
            return min(fitting, key=lambda p: p.width)
        return min(self.points, key=lambda p: p.height)

    def best_for_width(self, width: float) -> ShapePoint:
        """Shortest point fitting under ``width``; narrowest if none fit."""
        fitting = [p for p in self.points if p.width <= width]
        if fitting:
            return min(fitting, key=lambda p: p.height)
        return min(self.points, key=lambda p: p.width)

    def minimum_area(self) -> ShapePoint:
        return min(self.points, key=lambda p: p.area)


def compose_frontier(
    kind: str,
    child_points: Sequence[Sequence[ShapePoint]],
    total_spacing: float,
) -> Tuple[Tuple[int, ...], ...]:
    """Index combos (one index per child) forming the composed frontier.

    Replicates :class:`ShapeFunction`'s sort-and-prune exactly (stable
    sort by (width, height), 1e-15 height threshold) over the full cross
    product, so rebuilding points from the returned combos yields the
    identical frontier the direct enumeration produces.
    """
    candidates: List[Tuple[float, float, Tuple[int, ...]]] = []
    for indices in itertools.product(
        *(range(len(points)) for points in child_points)
    ):
        combo = [child_points[c][i] for c, i in enumerate(indices)]
        if kind == "h":
            width = sum(p.width for p in combo) + total_spacing
            height = max(p.height for p in combo)
        else:
            width = max(p.width for p in combo)
            height = sum(p.height for p in combo) + total_spacing
        candidates.append((width, height, indices))
    candidates.sort(key=lambda entry: (entry[0], entry[1]))
    frontier: List[Tuple[int, ...]] = []
    best_height = float("inf")
    for width, height, indices in candidates:
        if height < best_height - 1e-15:
            frontier.append(indices)
            best_height = height
    return tuple(frontier)
