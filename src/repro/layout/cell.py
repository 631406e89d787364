"""Layout cells.

A :class:`Cell` holds net-annotated shapes, named pins and sub-cell
instances.  Net annotation is what makes the geometric extractor possible:
every interconnect shape knows which electrical net it implements, so
extraction reduces to geometry arithmetic instead of connectivity tracing.

A cell memoizes only its own derived views (bounding box, flattened
shapes) under a subtree version stamp.  It has no content identity:
memos over work done on a drawn cell key on what drew it (the layout
request), never on hashing its shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import LayoutError
from repro.layout.geometry import Orientation, Rect, bounding_box
from repro.layout.layers import Layer


@dataclass(frozen=True, slots=True)
class Shape:
    """One rectangle on one layer, optionally bound to a net."""

    layer: Layer
    rect: Rect
    net: Optional[str] = None


#: One entry of a module frame's shape enumeration: ``(layer, rect, net,
#: is_pin)``, in the order the frame's drawing emits its shapes.
FrameShape = Tuple[Layer, Rect, Optional[str], bool]


@dataclass
class Instance:
    """Placement of a sub-cell."""

    cell: "Cell"
    dx: float = 0.0
    dy: float = 0.0
    orientation: Orientation = Orientation.R0
    name: str = ""
    net_map: Dict[str, str] = field(default_factory=dict)
    """Renames the sub-cell's local nets to parent nets on flattening."""


class Cell:
    """A layout cell: shapes, pins and instances."""

    def __init__(self, name: str):
        if not name:
            raise LayoutError("cell needs a name")
        self.name = name
        self.shapes: List[Shape] = []
        self.pins: Dict[str, List[Shape]] = {}
        self.instances: List[Instance] = []
        self._version = 0
        self._bbox_cache: Optional[Tuple[object, Rect]] = None
        self._flat_cache: Optional[Tuple[object, List[Shape]]] = None

    @classmethod
    def from_shapes(cls, name: str, shapes: Iterable[FrameShape]) -> "Cell":
        """A fresh cell holding ``shapes`` in order, pins declared: the
        same cell as :meth:`add_shape`/:meth:`add_pin` calls in order."""
        cell = cls(name)
        drawn = cell.shapes
        pins = cell.pins
        for layer, rect, net, is_pin in shapes:
            shape = Shape(layer=layer, rect=rect, net=net)
            drawn.append(shape)
            if is_pin:
                pins.setdefault(net, []).append(shape)
        cell._version = len(drawn)
        return cell

    # -- Construction -----------------------------------------------------------

    def add_shape(
        self, layer: Layer, rect: Rect, net: Optional[str] = None
    ) -> Shape:
        shape = Shape(layer=layer, rect=rect, net=net)
        self.shapes.append(shape)
        self._version += 1
        return shape

    def add_pin(self, net: str, layer: Layer, rect: Rect) -> Shape:
        """Declare a pin: a shape that external routing may connect to."""
        shape = self.add_shape(layer, rect, net=net)
        self.pins.setdefault(net, []).append(shape)
        return shape

    def add_instance(
        self,
        cell: "Cell",
        dx: float = 0.0,
        dy: float = 0.0,
        orientation: Orientation = Orientation.R0,
        name: str = "",
        net_map: Optional[Dict[str, str]] = None,
    ) -> Instance:
        instance = Instance(
            cell=cell,
            dx=dx,
            dy=dy,
            orientation=orientation,
            name=name or f"{cell.name}_{len(self.instances)}",
            net_map=net_map or {},
        )
        self.instances.append(instance)
        self._version += 1
        return instance

    # -- Queries ------------------------------------------------------------------

    def _stamp(self) -> Tuple[int, Tuple[object, ...]]:
        """Version stamp of this cell's subtree (guards the bbox and
        flatten memos)."""
        return (
            self._version,
            tuple(i.cell._stamp() for i in self.instances),
        )

    def bbox(self) -> Rect:
        """Bounding box over shapes and (transformed) instances.

        Memoized: shapes and instances are append-only (all additions go
        through :meth:`add_shape` / :meth:`add_instance`), so a version
        stamp over this cell's whole subtree detects every change.
        """
        stamp = self._stamp()
        if self._bbox_cache is not None and self._bbox_cache[0] == stamp:
            return self._bbox_cache[1]
        rects = [shape.rect for shape in self.shapes]
        for instance in self.instances:
            child = instance.cell.bbox()
            rects.append(
                child.transformed(instance.orientation).translated(
                    instance.dx, instance.dy
                )
            )
        box = bounding_box(rects)
        self._bbox_cache = (stamp, box)
        return box

    @property
    def width(self) -> float:
        return self.bbox().width

    @property
    def height(self) -> float:
        return self.bbox().height

    @property
    def area(self) -> float:
        box = self.bbox()
        return box.width * box.height

    def shapes_on(self, layer: Layer) -> List[Shape]:
        """Local shapes on one layer (not flattened)."""
        return [shape for shape in self.shapes if shape.layer is layer]

    def pin_rect(self, net: str, layer: Optional[Layer] = None) -> Rect:
        """First pin rectangle for ``net`` (optionally on a given layer)."""
        try:
            candidates = self.pins[net]
        except KeyError:
            raise LayoutError(f"cell {self.name!r} has no pin {net!r}") from None
        for shape in candidates:
            if layer is None or shape.layer is layer:
                return shape.rect
        raise LayoutError(f"cell {self.name!r}: pin {net!r} not on layer {layer}")

    # -- Flattening --------------------------------------------------------------------

    def flattened(self) -> Iterator[Shape]:
        """Yield every shape with transforms applied and nets remapped.

        Memoized per subtree with the same version stamp that guards
        :meth:`bbox` — extraction and DRC both re-flatten the same cell
        several times per layout call, and shapes are immutable, so the
        resolved list can be shared.
        """
        return iter(self._flattened_list())

    def _flattened_list(self) -> List[Shape]:
        stamp = self._stamp()
        if self._flat_cache is not None and self._flat_cache[0] == stamp:
            return self._flat_cache[1]
        out: List[Shape] = list(self.shapes)
        for instance in self.instances:
            net_map = instance.net_map
            orientation = instance.orientation
            dx, dy = instance.dx, instance.dy
            for shape in instance.cell._flattened_list():
                rect = shape.rect.transformed(orientation).translated(dx, dy)
                net = shape.net
                if net is not None:
                    net = net_map.get(net, net)
                out.append(Shape(layer=shape.layer, rect=rect, net=net))
        self._flat_cache = (stamp, out)
        return out

    def flatten_into(self) -> "Cell":
        """A new single-level cell with all hierarchy resolved."""
        flat = Cell(self.name + "_flat")
        for shape in self.flattened():
            flat.shapes.append(shape)
        # Keep the version stamp in step with the direct appends so the
        # bbox/flatten memoization sees a fresh state.
        flat._version = len(flat.shapes)
        for net, shapes in self.pins.items():
            flat.pins[net] = [s for s in shapes]
        return flat

    def nets(self) -> List[str]:
        """All nets referenced by (flattened) shapes."""
        found = {}
        for shape in self.flattened():
            if shape.net is not None:
                found[shape.net] = True
        return sorted(found)

    def layer_area(self, layer: Layer, net: Optional[str] = None) -> float:
        """Total drawn area on a layer (ignoring same-net overlap), m^2."""
        return sum(
            shape.rect.area
            for shape in self.flattened()
            if shape.layer is layer and (net is None or shape.net == net)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Cell({self.name!r}, {len(self.shapes)} shapes, "
            f"{len(self.instances)} instances)"
        )
