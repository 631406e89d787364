"""Planar geometry primitives and spatial indexing.

All coordinates are metres (SI), consistent with the rest of the library;
exporters scale to database units.  Rectangles are axis-aligned and stored
as ``(x0, y0, x1, y1)`` with ``x0 <= x1`` and ``y0 <= y1``.

Beyond the primitives, this module hosts the two geometric-query
accelerators shared by the layout path:

* :class:`GridIndex` — a uniform-bin spatial index over rectangles,
  used by the router's clearance queries in place of all-pairs scans;
* :func:`interval_pairs` — a vectorized sorted-sweep candidate-pair
  generator over x-intervals, used by the array-based extraction's
  coupling search.

Both return candidate *supersets*; callers re-test candidates with the
exact predicate, so swapping an all-pairs scan for an index never changes
results — only how many pairs are examined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import LayoutError


@dataclass(frozen=True, slots=True)
class Point:
    """A 2-D point."""

    x: float
    y: float

    def translated(self, dx: float, dy: float) -> "Point":
        return Point(self.x + dx, self.y + dy)


class Orientation(Enum):
    """Instance orientation (subset of GDS transforms)."""

    R0 = "R0"
    R90 = "R90"
    R180 = "R180"
    R270 = "R270"
    MX = "MX"
    """Mirror across the x axis (flip vertically)."""
    MY = "MY"
    """Mirror across the y axis (flip horizontally)."""


@dataclass(frozen=True, slots=True)
class Rect:
    """Axis-aligned rectangle."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise LayoutError(
                f"malformed rectangle ({self.x0}, {self.y0}, {self.x1}, {self.y1})"
            )

    @staticmethod
    def from_size(x: float, y: float, width: float, height: float) -> "Rect":
        """Rectangle from lower-left corner plus size."""
        if width < 0.0 or height < 0.0:
            raise LayoutError("rectangle size must be non-negative")
        return Rect(x, y, x + width, y + height)

    @staticmethod
    def centered(cx: float, cy: float, width: float, height: float) -> "Rect":
        """Rectangle from centre plus size."""
        return Rect.from_size(cx - width / 2.0, cy - height / 2.0, width, height)

    # -- Measures -------------------------------------------------------------

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def perimeter(self) -> float:
        return 2.0 * (self.width + self.height)

    @property
    def center(self) -> Point:
        return Point((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)

    # -- Transformations ------------------------------------------------------------

    def translated(self, dx: float, dy: float) -> "Rect":
        return Rect(self.x0 + dx, self.y0 + dy, self.x1 + dx, self.y1 + dy)

    def transformed(self, orientation: Orientation) -> "Rect":
        """Rectangle after an orientation about the origin.

        Each branch emits the normalized corner order directly (axis
        transforms keep rectangles axis-aligned), avoiding the corner
        list + min/max dance — this sits on the flattening hot path.
        """
        if orientation is Orientation.R0:
            return self
        if orientation is Orientation.R90:
            return Rect(-self.y1, self.x0, -self.y0, self.x1)
        if orientation is Orientation.R180:
            return Rect(-self.x1, -self.y1, -self.x0, -self.y0)
        if orientation is Orientation.R270:
            return Rect(self.y0, -self.x1, self.y1, -self.x0)
        if orientation is Orientation.MX:
            return Rect(self.x0, -self.y1, self.x1, -self.y0)
        if orientation is Orientation.MY:
            return Rect(-self.x1, self.y0, -self.x0, self.y1)
        raise LayoutError(  # pragma: no cover
            f"unsupported orientation {orientation}"
        )

    def expanded(self, margin: float) -> "Rect":
        """Rectangle grown by ``margin`` on every side."""
        return Rect(
            self.x0 - margin, self.y0 - margin, self.x1 + margin, self.y1 + margin
        )

    # -- Predicates --------------------------------------------------------------------

    def intersects(self, other: "Rect") -> bool:
        """True when interiors overlap (touching edges do not count)."""
        return (
            self.x0 < other.x1
            and other.x0 < self.x1
            and self.y0 < other.y1
            and other.y0 < self.y1
        )

    def contains(self, other: "Rect") -> bool:
        return (
            self.x0 <= other.x0
            and self.y0 <= other.y0
            and self.x1 >= other.x1
            and self.y1 >= other.y1
        )

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """Overlap rectangle, or None when disjoint."""
        # Disjointness fast path: bail before any max/min arithmetic —
        # extraction probes far more disjoint pairs than overlapping ones.
        if (
            self.x1 <= other.x0
            or other.x1 <= self.x0
            or self.y1 <= other.y0
            or other.y1 <= self.y0
        ):
            return None
        return Rect(
            max(self.x0, other.x0),
            max(self.y0, other.y0),
            min(self.x1, other.x1),
            min(self.y1, other.y1),
        )

    def distance_to(self, other: "Rect") -> float:
        """Minimum edge-to-edge distance (0 when overlapping/touching)."""
        dx = max(0.0, max(self.x0, other.x0) - min(self.x1, other.x1))
        dy = max(0.0, max(self.y0, other.y0) - min(self.y1, other.y1))
        return math.hypot(dx, dy)

    def parallel_run_x(self, other: "Rect") -> float:
        """Horizontal overlap length with another rectangle."""
        return max(0.0, min(self.x1, other.x1) - max(self.x0, other.x0))

    def parallel_run_y(self, other: "Rect") -> float:
        """Vertical overlap length with another rectangle."""
        return max(0.0, min(self.y1, other.y1) - max(self.y0, other.y0))


def bounding_box(rects: Iterable[Rect]) -> Rect:
    """Tight bounding box of a non-empty rectangle collection."""
    rects = list(rects)
    if not rects:
        raise LayoutError("bounding_box of an empty collection")
    return Rect(
        min(r.x0 for r in rects),
        min(r.y0 for r in rects),
        max(r.x1 for r in rects),
        max(r.y1 for r in rects),
    )


# -- Spatial indexing ---------------------------------------------------------


class GridIndex:
    """Uniform-grid spatial index over axis-aligned rectangles.

    Rectangles register in every square bin their bounds touch;
    :meth:`query` returns the indices of every rectangle sharing a bin
    with the (optionally expanded) probe window.  The result is a
    *superset* of the true overlaps — callers re-test candidates with
    their exact predicate — and is returned sorted ascending so callers
    that iterate candidates preserve insertion-order determinism.

    The index is incremental: :meth:`insert` accepts new rectangles at
    any time (the router grows its planned-shape index as stubs are
    placed).  ``queries`` counts probes so hot-path callers can flush a
    single ``grid.queries`` telemetry counter instead of paying a
    per-probe tracer call.
    """

    __slots__ = ("cell_size", "_bins", "_rects", "queries")

    def __init__(self, cell_size: float):
        if not cell_size > 0.0:
            raise LayoutError(
                f"grid cell size must be positive, got {cell_size!r}"
            )
        self.cell_size = cell_size
        self._bins: dict = {}
        self._rects: List[Tuple[float, float, float, float]] = []
        self.queries = 0

    @staticmethod
    def for_rects(
        rects: Sequence[Rect], margin: float = 0.0
    ) -> "GridIndex":
        """:meth:`for_array` over ``Rect`` objects."""
        return GridIndex.for_array(
            [(r.x0, r.y0, r.x1, r.y1) for r in rects], margin
        )

    @staticmethod
    def for_array(coords: "object", margin: float = 0.0) -> "GridIndex":
        """Build an index over ``(N, 4)`` rows of ``(x0, y0, x1, y1)``,
        sized from the population's typical extent.

        The bin edge is twice the median larger-side length plus the
        query margin: small enough that long wires don't collapse into
        one bin, large enough that a typical probe touches O(1) bins.
        The median is robust against the odd huge rectangle (an n-well
        ring spanning the whole cell must not dictate the bin size).
        Bin spans are the IEEE divisions and floors :meth:`insert` takes
        one rectangle at a time, done as array arithmetic.
        """
        import numpy as np

        coords = np.asarray(coords, dtype=float).reshape(-1, 4)
        if len(coords):
            sides = np.sort(np.maximum(
                coords[:, 2] - coords[:, 0], coords[:, 3] - coords[:, 1]
            ))
            median = float(sides[len(sides) // 2])
        else:
            median = 0.0
        cell = 2.0 * median + 2.0 * abs(margin)
        index = GridIndex(cell if cell > 0.0 else 1e-6)
        index._rects = coords.tolist()
        spans = np.floor(coords / index.cell_size).astype(np.int64).tolist()
        bins = index._bins
        for i, (ix0, iy0, ix1, iy1) in enumerate(spans):
            for ix in range(ix0, ix1 + 1):
                for iy in range(iy0, iy1 + 1):
                    members = bins.get((ix, iy))
                    if members is None:
                        bins[(ix, iy)] = [i]
                    else:
                        members.append(i)
        return index

    def __len__(self) -> int:
        return len(self._rects)

    def _bin_span(
        self, x0: float, y0: float, x1: float, y1: float
    ) -> Tuple[int, int, int, int]:
        cell = self.cell_size
        return (
            math.floor(x0 / cell),
            math.floor(y0 / cell),
            math.floor(x1 / cell),
            math.floor(y1 / cell),
        )

    def insert(self, rect: Rect) -> int:
        """Add a rectangle; returns its index (insertion order)."""
        index = len(self._rects)
        bounds = (rect.x0, rect.y0, rect.x1, rect.y1)
        self._rects.append(bounds)
        ix0, iy0, ix1, iy1 = self._bin_span(*bounds)
        bins = self._bins
        for ix in range(ix0, ix1 + 1):
            for iy in range(iy0, iy1 + 1):
                key = (ix, iy)
                members = bins.get(key)
                if members is None:
                    bins[key] = [index]
                else:
                    members.append(index)
        return index

    def query(self, rect: Rect, margin: float = 0.0) -> List[int]:
        """Sorted indices of rectangles that *may* overlap the window.

        The window is ``rect`` expanded by ``margin`` on every side.
        Candidates are pre-filtered with an open-interval bounds test
        against the window, so the superset is tight: a candidate is
        returned only when its bounds genuinely overlap the window
        (touching edges included via the margin the caller chose).
        """
        self.queries += 1
        wx0 = rect.x0 - margin
        wy0 = rect.y0 - margin
        wx1 = rect.x1 + margin
        wy1 = rect.y1 + margin
        ix0, iy0, ix1, iy1 = self._bin_span(wx0, wy0, wx1, wy1)
        bins = self._bins
        rects = self._rects
        if ix0 == ix1 and iy0 == iy1:
            # Single-bin probe (the common case for compact windows):
            # members are in insertion order already, no dedup needed.
            out = []
            members = bins.get((ix0, iy0))
            if members:
                for index in members:
                    rx0, ry0, rx1, ry1 = rects[index]
                    if wx0 < rx1 and rx0 < wx1 and wy0 < ry1 and ry0 < wy1:
                        out.append(index)
            return out
        seen: set = set()
        out: List[int] = []
        for ix in range(ix0, ix1 + 1):
            for iy in range(iy0, iy1 + 1):
                members = bins.get((ix, iy))
                if not members:
                    continue
                for index in members:
                    if index in seen:
                        continue
                    seen.add(index)
                    rx0, ry0, rx1, ry1 = rects[index]
                    if (
                        wx0 < rx1
                        and rx0 < wx1
                        and wy0 < ry1
                        and ry0 < wy1
                    ):
                        out.append(index)
        out.sort()
        return out


def interval_pairs(
    starts: "object", ends: "object", window: float
) -> Tuple["object", "object"]:
    """Candidate index pairs ``(i, j)`` with ``starts[j] <= ends[i] + window``.

    Vectorized sorted-sweep over x-intervals: inputs must already be
    sorted by ``starts`` ascending.  Returns two equal-length int arrays
    ``(ii, jj)`` with ``i < j`` in sorted order — exactly the pairs a
    scalar sweep with an early ``break`` on ``starts[j] > ends[i] +
    window`` would visit, in the same order.
    """
    import numpy as np

    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    n = starts.size
    if n < 2:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    first = np.arange(n, dtype=np.intp) + 1
    last = np.searchsorted(starts, ends + window, side="right")
    counts = np.maximum(last - first, 0)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    ii = np.repeat(np.arange(n, dtype=np.intp), counts)
    offsets = np.cumsum(counts) - counts
    jj = (
        np.arange(total, dtype=np.intp)
        - np.repeat(offsets, counts)
        + np.repeat(first, counts)
    )
    return ii, jj
