"""Layout cells.

A :class:`Cell` holds net-annotated shapes, named pins and sub-cell
instances.  Net annotation is what makes the geometric extractor possible:
every interconnect shape knows which electrical net it implements, so
extraction reduces to geometry arithmetic instead of connectivity tracing.

A cell memoizes only its own derived views (bounding box, flat table)
under a subtree version stamp.  It has no content identity: memos over
work done on a drawn cell key on what drew it (the layout request),
never on hashing its shapes.

The one flattening is columnar (:class:`FlatTable`): layer codes, net
codes with their name table and an ``(N, 4)`` coordinate array.  The
sign-off passes (DRC, GDS export, extraction) read its arrays;
:meth:`Cell.flattened` is a :class:`Shape` view of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import LayoutError
from repro.layout.geometry import Orientation, Rect, bounding_box
from repro.layout.layers import Layer


@dataclass(frozen=True, slots=True)
class Shape:
    """One rectangle on one layer, optionally bound to a net."""

    layer: Layer
    rect: Rect
    net: Optional[str] = None


#: Layer codes of a :class:`FlatTable`: a layer's code is its index here.
LAYERS: Tuple[Layer, ...] = tuple(Layer)
LAYER_CODE: Dict[Layer, int] = {
    layer: code for code, layer in enumerate(LAYERS)
}

#: Per orientation, the source column and sign of each output column of
#: an ``(x0, y0, x1, y1)`` row: the corner order of :meth:`Rect.transformed`
#: (negation by a ``-1.0`` factor is exact, as is ``1.0``).
_ORIENT: Dict[Orientation, Tuple[List[int], np.ndarray]] = {
    Orientation.R0: ([0, 1, 2, 3], np.array([1.0, 1.0, 1.0, 1.0])),
    Orientation.R90: ([3, 0, 1, 2], np.array([-1.0, 1.0, -1.0, 1.0])),
    Orientation.R180: ([2, 3, 0, 1], np.array([-1.0, -1.0, -1.0, -1.0])),
    Orientation.R270: ([1, 2, 3, 0], np.array([1.0, -1.0, 1.0, -1.0])),
    Orientation.MX: ([0, 3, 2, 1], np.array([1.0, -1.0, 1.0, -1.0])),
    Orientation.MY: ([2, 1, 0, 3], np.array([-1.0, 1.0, -1.0, 1.0])),
}


@dataclass(frozen=True, eq=False)
class FlatTable:
    """A cell's flattened shapes as columns, in :meth:`Cell.flattened`
    order: local shapes first, then each instance's table in instance
    order.  Read-only by convention."""

    layers: np.ndarray
    """``(N,)`` layer codes (indices into :data:`LAYERS`)."""
    nets: np.ndarray
    """``(N,)`` net codes into :attr:`names`; ``-1`` for no net."""
    names: Tuple[str, ...]
    """Net names in order of first appearance."""
    coords: np.ndarray
    """``(N, 4)`` float rows of ``(x0, y0, x1, y1)``."""

    def __len__(self) -> int:
        return len(self.layers)

    def on(self, layer: Layer) -> np.ndarray:
        """Row mask of the shapes on ``layer``."""
        return self.layers == LAYER_CODE[layer]

    def named(self) -> np.ndarray:
        """Row mask of the shapes whose net is a non-empty name."""
        # Net code -1 (no net) reads the trailing False.
        truthy = np.array([bool(name) for name in self.names] + [False])
        return truthy[self.nets]

    def net_name(self, code: int) -> Optional[str]:
        return self.names[code] if code >= 0 else None

    def rows(
        self, mask: Optional[np.ndarray] = None
    ) -> Iterator[Tuple[Layer, Rect, Optional[str]]]:
        """``(layer, rect, net)`` of the rows selected by ``mask`` (all
        rows by default), in table order."""
        layers, nets, coords = self.layers, self.nets, self.coords
        if mask is not None:
            layers, nets, coords = layers[mask], nets[mask], coords[mask]
        names = self.names + (None,)  # net code -1 reads the last slot
        for code, net, (x0, y0, x1, y1) in zip(
            layers.tolist(), nets.tolist(), coords.tolist()
        ):
            yield LAYERS[code], Rect(x0, y0, x1, y1), names[net]


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
        self._table_cache: Optional[Tuple[object, FlatTable]] = None

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

    def table(self) -> FlatTable:
        """The flattened shapes as a :class:`FlatTable`.

        Built on the first read, never at draw time, and memoized per
        subtree with the same version stamp that guards :meth:`bbox`.
        Each instance's child table is transformed with the float
        operations of :meth:`Rect.transformed` then
        :meth:`Rect.translated`, and its nets are renamed through the
        instance's ``net_map`` once per name.
        """
        stamp = self._stamp()
        if self._table_cache is not None and self._table_cache[0] == stamp:
            return self._table_cache[1]
        names: List[str] = []
        codes: Dict[Optional[str], int] = {None: -1}

        def code(net: Optional[str]) -> int:
            found = codes.get(net)
            if found is None:
                found = codes[net] = len(names)
                names.append(net)
            return found

        shapes = self.shapes
        layers = [np.array([LAYER_CODE[s.layer] for s in shapes], np.intp)]
        nets = [np.array([code(s.net) for s in shapes], np.intp)]
        coords = [np.array(
            [(s.rect.x0, s.rect.y0, s.rect.x1, s.rect.y1) for s in shapes]
        ).reshape(-1, 4)]
        for instance in self.instances:
            child = instance.cell.table()
            net_map = instance.net_map
            remap = np.array(
                [code(net_map.get(net, net)) for net in child.names] + [-1],
                np.intp,
            )
            columns, signs = _ORIENT[instance.orientation]
            dx, dy = instance.dx, instance.dy
            layers.append(child.layers)
            nets.append(remap[child.nets])
            coords.append(
                child.coords[:, columns] * signs + np.array([dx, dy, dx, dy])
            )
        table = FlatTable(
            layers=np.concatenate(layers),
            nets=np.concatenate(nets),
            names=tuple(names),
            coords=np.concatenate(coords),
        )
        self._table_cache = (stamp, table)
        return table

    def flattened(self) -> Iterator[Shape]:
        """Yield every shape with transforms applied and nets remapped:
        a :class:`Shape` view of :meth:`table`."""
        for layer, rect, net in self.table().rows():
            yield Shape(layer=layer, rect=rect, net=net)

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
        return sorted(self.table().names)

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
