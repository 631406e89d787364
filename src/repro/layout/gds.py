"""Minimal GDSII stream writer.

Implements the subset of the GDSII binary format needed to export flat
rectangle layouts: HEADER/BGNLIB/LIBNAME/UNITS, one structure with BOUNDARY
elements per rectangle, and the closing records.  Output opens in standard
tools (KLayout etc.).  The elements are encoded in one structured array
over the cell's columnar flattening; the record-at-a-time writer the
tests compare against lives in ``tests/oracles/layout.py``.

Record framing: 2-byte big-endian length (including the 4-byte header),
1-byte record type, 1-byte data type.
"""

from __future__ import annotations

import struct
from datetime import datetime

import numpy as np

from repro.errors import LayoutError
from repro.layout.cell import LAYERS, Cell
from repro.layout.geometry import Rect
from repro.layout.layers import GDS_LAYER_NUMBERS

# Record types.
_HEADER = 0x00
_BGNLIB = 0x01
_LIBNAME = 0x02
_UNITS = 0x03
_ENDLIB = 0x04
_BGNSTR = 0x05
_STRNAME = 0x06
_ENDSTR = 0x07
_BOUNDARY = 0x08
_LAYER = 0x0D
_DATATYPE = 0x0E
_XY = 0x10
_ENDEL = 0x11

# Data types.
_NO_DATA = 0x00
_INT2 = 0x02
_INT4 = 0x03
_REAL8 = 0x05
_ASCII = 0x06

DB_UNIT = 1e-9
"""Database unit: 1 nm."""


def _record(record_type: int, data_type: int, payload: bytes = b"") -> bytes:
    length = 4 + len(payload)
    return struct.pack(">HBB", length, record_type, data_type) + payload


def _ascii(text: str) -> bytes:
    data = text.encode("ascii")
    if len(data) % 2:
        data += b"\0"
    return data


def _real8(value: float) -> bytes:
    """GDSII 8-byte excess-64 base-16 real."""
    if value == 0.0:
        return b"\0" * 8
    sign = 0
    if value < 0.0:
        sign = 0x80
        value = -value
    exponent = 64
    # Normalise mantissa into [1/16, 1).
    while value >= 1.0:
        value /= 16.0
        exponent += 1
    while value < 1.0 / 16.0:
        value *= 16.0
        exponent -= 1
    mantissa = int(value * (1 << 56))
    return struct.pack(">BB", sign | exponent, (mantissa >> 48) & 0xFF) + struct.pack(
        ">HI", (mantissa >> 32) & 0xFFFF, mantissa & 0xFFFFFFFF
    )


def _timestamp() -> bytes:
    now = datetime(2000, 1, 1)  # deterministic output
    fields = (now.year, now.month, now.day, now.hour, now.minute, now.second)
    return struct.pack(">6H", *fields) * 2


#: One BOUNDARY element: BOUNDARY, LAYER, DATATYPE, XY (a closed
#: five-point outline) and ENDEL records.  Each record header is two
#: big-endian words: the record length and ``type << 8 | data type``.
_ELEMENT = np.dtype([
    ("boundary", ">u2", (2,)),
    ("layer_head", ">u2", (2,)),
    ("layer", ">i2"),
    ("datatype_head", ">u2", (2,)),
    ("datatype", ">i2"),
    ("xy_head", ">u2", (2,)),
    ("xy", ">i4", (10,)),
    ("endel", ">u2", (2,)),
])

#: GDS layer and data type numbers per flat-table layer code.
_LAYER_NUMBERS = np.array([GDS_LAYER_NUMBERS[layer][0] for layer in LAYERS])
_DATATYPE_NUMBERS = np.array(
    [GDS_LAYER_NUMBERS[layer][1] for layer in LAYERS]
)

#: Outline corners (x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0) as
#: columns of an ``(x0, y0, x1, y1)`` row.
_OUTLINE = [0, 1, 2, 1, 2, 3, 0, 3, 0, 1]

_INT4_MIN = -(2 ** 31)
_INT4_MAX = 2 ** 31 - 1


def _elements(cell: Cell) -> bytes:
    """Every flattened shape of ``cell`` as one BOUNDARY element, in
    table order, encoded as one structured record array.

    A coordinate that is not finite or does not fit a 4-byte integer in
    database units raises :class:`~repro.errors.LayoutError` naming the
    cell, layer and rectangle.
    """
    table = cell.table()
    scaled = np.rint(table.coords / DB_UNIT)
    fits = (scaled >= _INT4_MIN) & (scaled <= _INT4_MAX)
    if not fits.all():
        row = int(np.flatnonzero(~fits.all(axis=1))[0])
        layer, rect, net = next(table.rows(np.array([row])))
        raise LayoutError(
            f"cell {cell.name!r}: {layer.value} rectangle "
            f"({rect.x0!r}, {rect.y0!r}, {rect.x1!r}, {rect.y1!r}) "
            f"(net {net}) has a coordinate that is not a finite 4-byte "
            f"integer in {DB_UNIT:g} m database units"
        )
    records = np.empty(len(table), dtype=_ELEMENT)
    records["boundary"] = (4, _BOUNDARY << 8 | _NO_DATA)
    records["layer_head"] = (6, _LAYER << 8 | _INT2)
    records["layer"] = _LAYER_NUMBERS[table.layers]
    records["datatype_head"] = (6, _DATATYPE << 8 | _INT2)
    records["datatype"] = _DATATYPE_NUMBERS[table.layers]
    records["xy_head"] = (44, _XY << 8 | _INT4)
    records["xy"] = scaled[:, _OUTLINE]
    records["endel"] = (4, _ENDEL << 8 | _NO_DATA)
    return records.tobytes()


def cell_to_gds(cell: Cell, library: str = "REPRO") -> bytes:
    """Serialise a cell (flattened) into a GDSII byte stream."""
    return b"".join((
        _record(_HEADER, _INT2, struct.pack(">h", 600)),
        _record(_BGNLIB, _INT2, _timestamp()),
        _record(_LIBNAME, _ASCII, _ascii(library)),
        _record(_UNITS, _REAL8, _real8(DB_UNIT / 1e-6) + _real8(DB_UNIT)),
        _record(_BGNSTR, _INT2, _timestamp()),
        _record(_STRNAME, _ASCII, _ascii(cell.name.upper()[:32] or "TOP")),
        _elements(cell),
        _record(_ENDSTR, _NO_DATA),
        _record(_ENDLIB, _NO_DATA),
    ))


def write_gds(cell: Cell, path: str, library: str = "REPRO") -> None:
    """Serialise ``cell`` and write the stream to ``path`` (atomically —
    a killed export leaves either the old stream or the new one, never a
    truncated GDSII file that downstream tools would choke on)."""
    from repro.ioutil import atomic_write

    atomic_write(path, cell_to_gds(cell, library=library))


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

_NUMBER_TO_LAYER = {
    numbers[0]: layer for layer, numbers in GDS_LAYER_NUMBERS.items()
}


def _iter_records(stream: bytes):
    """Yield ``(record_type, payload)`` pairs from a GDSII stream."""
    offset = 0
    total = len(stream)
    while offset < total:
        if offset + 4 > total:
            raise ValueError("truncated GDSII record header")
        length, record_type, _data_type = struct.unpack(
            ">HBB", stream[offset:offset + 4]
        )
        if length < 4 or offset + length > total:
            raise ValueError("malformed GDSII record length")
        yield record_type, stream[offset + 4:offset + length]
        offset += length


def gds_to_cell(stream: bytes, name: str = "imported") -> Cell:
    """Parse a (flat, rectangle-only) GDSII stream back into a cell.

    Only BOUNDARY elements whose five-point outline is axis-aligned are
    accepted — exactly what :func:`cell_to_gds` emits.  Unknown layer
    numbers are skipped.
    """
    cell = Cell(name)
    layer_number = None
    coordinates = None
    structure_name = None
    for record_type, payload in _iter_records(stream):
        if record_type == _STRNAME:
            structure_name = payload.rstrip(b"\0").decode("ascii")
        elif record_type == _LAYER:
            layer_number = struct.unpack(">h", payload)[0]
        elif record_type == _XY:
            count = len(payload) // 4
            coordinates = struct.unpack(f">{count}i", payload)
        elif record_type == _ENDEL:
            if layer_number is not None and coordinates is not None:
                layer = _NUMBER_TO_LAYER.get(layer_number)
                if layer is not None:
                    xs = coordinates[0::2]
                    ys = coordinates[1::2]
                    rect = Rect(
                        min(xs) * DB_UNIT,
                        min(ys) * DB_UNIT,
                        max(xs) * DB_UNIT,
                        max(ys) * DB_UNIT,
                    )
                    cell.add_shape(layer, rect)
            layer_number = None
            coordinates = None
        elif record_type == _ENDLIB:
            break
    if structure_name:
        cell.name = structure_name.lower()
    return cell


def read_gds(path: str, name: str = "imported") -> Cell:
    """Read a GDSII file written by :func:`write_gds`."""
    with open(path, "rb") as handle:
        return gds_to_cell(handle.read(), name=name)
