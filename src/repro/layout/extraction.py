"""Geometric extraction of a generated layout.

Plays the role the commercial extractor (Cadence) plays in the paper: an
*independent* measurement of the drawn geometry used to produce the
"values between brackets" of Table 1.  It never consults the estimator's
bookkeeping — everything is recomputed from the flattened shapes:

* **interconnect capacitance** per net from every poly/metal shape (area +
  perimeter fringe), with gate poly over active excluded (that is channel
  capacitance, owned by the device model);
* **coupling capacitance** between same-layer shapes of different nets
  within a proximity window;
* **diffusion junctions** re-derived from active/poly crossings: strips
  between gates, nets resolved from the contacts above them, then
  distributed to the circuit's devices in proportion to their widths;
* **well junctions** from n-well shapes.

The resulting annotated circuit is what the simulator measures for the
bracketed columns.  :func:`extract_cell` runs every pass and is the
only ``layout.extract``; it does not memoize: the one memo over
extraction keys the verification extraction on the layout request that
drew the cell (:func:`repro.core.cases.extract_and_measure`).  The
parasitic-calculation mode runs :func:`interconnect_parasitics` — every
pass but the diffusion strips — on workspaces built from module frames'
shape enumerations, never on a drawn cell
(:mod:`repro.layout.parasitics`).

Each layer is flattened into one ``(N, 4)`` coordinate array with nets
encoded as int codes, built once per call and shared by the passes, and
the wire-cap, poly-over-active, coupling-window and junction-strip
passes run as array arithmetic.  The per-shape reference the tests
compare against lives in ``tests/oracles/layout.py``.  Reports are
canonically ordered (coupling keyed by sorted net pairs, all dicts in
sorted key order) so downstream annotation is deterministic regardless
of shape iteration order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.circuit.elements import Mos
from repro.circuit.net import canonical
from repro.circuit.netlist import Circuit
from repro.layout.cell import LAYER_CODE, LAYERS, Cell, FlatTable
from repro.layout.geometry import Rect, interval_pairs
from repro.layout.layers import ROUTING_LAYERS, Layer, metal_name
from repro.mos.junction import DiffusionGeometry
from repro.technology.process import Technology


#: One shape as the passes read it: ``(layer, rect, net)``.
ShapeRow = Tuple[Layer, Rect, Optional[str]]

_ROUTING_CODES = [LAYER_CODE[layer] for layer in ROUTING_LAYERS]


@dataclass
class ExtractedParasitics:
    """Raw geometric extraction results."""

    net_wire_cap: Dict[str, float] = field(default_factory=dict)
    coupling: Dict[Tuple[str, str], float] = field(default_factory=dict)
    diffusion: Dict[Tuple[str, str], Tuple[float, float]] = field(
        default_factory=dict
    )
    """(net, polarity) -> (area, perimeter) of source/drain diffusion."""
    well: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    """net -> (area, perimeter) of n-well."""


def _wells(rows: Iterable[ShapeRow]) -> Dict[str, Tuple[float, float]]:
    result: Dict[str, Tuple[float, float]] = defaultdict(lambda: (0.0, 0.0))
    for layer, rect, net in rows:
        if layer is Layer.NWELL and net is not None:
            area, perimeter = result[net]
            result[net] = (area + rect.area, perimeter + rect.perimeter)
    return dict(result)


# -- Array passes --------------------------------------------------------------
#
# One (N, 4) float array of (x0, y0, x1, y1) rows per layer, nets encoded
# as int codes in sorted-name order (so min/max of a code pair *is* the
# sorted net-name pair).  Candidate coupling pairs come from the shared
# sorted-sweep in :func:`repro.layout.geometry.interval_pairs`; every
# candidate is re-tested with the exact per-shape predicate, so these
# passes agree with the per-shape oracle on the pair/strip *sets* exactly
# and on the accumulated float totals to within summation-order noise
# (rtol 1e-12 in the equivalence tests).


def _rect_array(rects: List[Rect]) -> Optional[np.ndarray]:
    if not rects:
        return None
    return np.array([(r.x0, r.y0, r.x1, r.y1) for r in rects])


class ExtractionWorkspace:
    """One cell's interconnect as numpy arrays, shared by its passes.

    Built once per extraction in drawing order, from a cell's columnar
    flattening (:meth:`from_table`) or from a module frame's enumeration
    as ``(layer, rect, net)`` rows
    (:class:`repro.layout.parasitics.ModuleView`): nets become int codes
    in sorted-name order, and each interconnect layer (in order of first
    appearance) one ``(N, 4)`` coordinate array that the wire-cap pass
    reads as is and the coupling pass reads sorted by ``x0``.  The
    buffers are read-only by convention.
    """

    def __init__(self, rows: Iterable[ShapeRow]):
        by_layer: Dict[Layer, List[Tuple[Rect, str]]] = {}
        actives: List[Rect] = []
        for layer, rect, net in rows:
            if layer in ROUTING_LAYERS:
                if net:
                    by_layer.setdefault(layer, []).append((rect, net))
            elif layer is Layer.ACTIVE:
                actives.append(rect)
        self.names = sorted(
            {net for members in by_layer.values() for _rect, net in members}
        )
        codes = {net: index for index, net in enumerate(self.names)}
        self.layers = {
            layer: (
                np.array([(r.x0, r.y0, r.x1, r.y1) for r, _net in members]),
                np.array([codes[net] for _r, net in members], dtype=np.intp),
            )
            for layer, members in by_layer.items()
        }
        self.actives = _rect_array(actives)

    @classmethod
    def from_table(cls, table: FlatTable) -> "ExtractionWorkspace":
        """The workspace of a cell's columnar flattening: the arrays the
        constructor builds from the same shapes as ``(layer, rect, net)``
        rows."""
        ws = cls.__new__(cls)
        routing = np.isin(table.layers, _ROUTING_CODES) & table.named()
        used = np.unique(table.nets[routing]).tolist()
        used.sort(key=table.names.__getitem__)
        ws.names = [table.names[code] for code in used]
        recode = np.full(len(table.names), -1, dtype=np.intp)
        recode[used] = np.arange(len(used), dtype=np.intp)
        present, first = np.unique(table.layers[routing], return_index=True)
        ws.layers = {}
        for code in present[np.argsort(first)].tolist():
            rows = routing & (table.layers == code)
            ws.layers[LAYERS[code]] = (
                table.coords[rows], recode[table.nets[rows]]
            )
        actives = table.coords[table.on(Layer.ACTIVE)]
        ws.actives = actives if len(actives) else None
        return ws


def _wire_capacitance(
    tech: Technology, ws: ExtractionWorkspace
) -> Dict[str, float]:
    """Ground capacitance per net over all netted interconnect shapes."""
    totals = np.zeros(len(ws.names))
    touched = np.zeros(len(ws.names), dtype=bool)
    active_arr = ws.actives
    for layer, (coords, net_codes) in ws.layers.items():
        metal = tech.metal(metal_name(layer))
        width = coords[:, 2] - coords[:, 0]
        height = coords[:, 3] - coords[:, 1]
        area = width * height
        if layer is Layer.POLY and active_arr is not None:
            # Gate poly over active is channel, not wire: subtract every
            # strict overlap, and drop shapes left with no wire area
            # (their fringe term goes with them, as in the oracle).
            ox = np.minimum(coords[:, 2, None], active_arr[None, :, 2]) - np.maximum(
                coords[:, 0, None], active_arr[None, :, 0]
            )
            oy = np.minimum(coords[:, 3, None], active_arr[None, :, 3]) - np.maximum(
                coords[:, 1, None], active_arr[None, :, 1]
            )
            covered = np.where((ox > 0.0) & (oy > 0.0), ox * oy, 0.0)
            area = area - covered.sum(axis=1)
            keep = area > 0.0
            if not keep.all():
                area = area[keep]
                width = width[keep]
                height = height[keep]
                net_codes = net_codes[keep]
        values = metal.area_cap * area + metal.fringe_cap * (
            2.0 * (width + height)
        )
        np.add.at(totals, net_codes, values)
        touched[net_codes] = True
    return {ws.names[i]: float(totals[i]) for i in np.flatnonzero(touched)}


def _coupling(
    tech: Technology, ws: ExtractionWorkspace, window_factor: float = 3.0
) -> Dict[Tuple[str, str], float]:
    """Same-layer lateral coupling between different nets, via the
    shared interval sweep."""
    result: Dict[Tuple[str, str], float] = {}
    names = ws.names
    n_names = len(names)
    for layer, (coords, net_codes) in ws.layers.items():
        metal = tech.metal(metal_name(layer))
        window = window_factor * metal.min_spacing
        order = np.argsort(coords[:, 0], kind="stable")
        coords = coords[order]
        net_codes = net_codes[order]
        ii, jj = interval_pairs(coords[:, 0], coords[:, 2], window)
        if ii.size == 0:
            continue
        a = coords[ii]
        b = coords[jj]
        run_x = np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
        run_y = np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
        # Lateral only: overlapping different nets (both runs positive)
        # are excluded, exactly as in the per-shape predicate.
        lateral_x = (run_x > 0.0) & ~(run_y > 0.0)
        lateral_y = (run_y > 0.0) & ~(run_x > 0.0)
        spacing = np.where(
            lateral_x,
            np.maximum(b[:, 1] - a[:, 3], a[:, 1] - b[:, 3]),
            np.maximum(b[:, 0] - a[:, 2], a[:, 0] - b[:, 2]),
        )
        run = np.where(lateral_x, run_x, run_y)
        ca = net_codes[ii]
        cb = net_codes[jj]
        mask = (
            (ca != cb)
            & (lateral_x | lateral_y)
            & (spacing > 0.0)
            & (spacing <= window)
        )
        if not mask.any():
            continue
        values = metal.coupling_cap * run[mask] * (
            metal.min_spacing / spacing[mask]
        )
        lo = np.minimum(ca[mask], cb[mask])
        hi = np.maximum(ca[mask], cb[mask])
        pair_ids = lo * n_names + hi
        unique_ids, inverse = np.unique(pair_ids, return_inverse=True)
        sums = np.bincount(inverse, weights=values)
        for pair_id, value in zip(unique_ids.tolist(), sums.tolist()):
            # Codes are in sorted-name order, so (lo, hi) is the sorted pair.
            key = (names[pair_id // n_names], names[pair_id % n_names])
            result[key] = result.get(key, 0.0) + value
    return result


def _diffusion_strips(
    table: FlatTable,
) -> Dict[Tuple[str, str], Tuple[float, float]]:
    """Re-derive diffusion strips from active/poly/contact geometry.

    The per-active strip walk stays a Python loop (actives are few); the
    hot inner scans — gate finding over all polys and net resolution over
    all contacts — run as array tests.
    """
    def layer_array(mask: np.ndarray) -> Optional[np.ndarray]:
        coords = table.coords[mask]
        return coords if len(coords) else None

    actives = [rect for _l, rect, _n in table.rows(table.on(Layer.ACTIVE))]
    contacts = table.on(Layer.CONTACT) & table.named()
    poly_arr = layer_array(table.on(Layer.POLY))
    contact_arr = layer_array(contacts)
    contact_nets = [table.names[c] for c in table.nets[contacts].tolist()]
    nimp_arr = layer_array(table.on(Layer.NIMPLANT))

    result: Dict[Tuple[str, str], Tuple[float, float]] = defaultdict(
        lambda: (0.0, 0.0)
    )
    for active in actives:
        if nimp_arr is not None and bool(
            np.any(
                (nimp_arr[:, 0] <= active.x0)
                & (nimp_arr[:, 1] <= active.y0)
                & (nimp_arr[:, 2] >= active.x1)
                & (nimp_arr[:, 3] >= active.y1)
            )
        ):
            polarity = "n"
        else:
            polarity = "p"
        gates: List[Tuple[float, float]] = []
        if poly_arr is not None:
            gx0 = np.maximum(poly_arr[:, 0], active.x0)
            gx1 = np.minimum(poly_arr[:, 2], active.x1)
            crossing = (
                (gx1 > gx0)
                & (np.minimum(poly_arr[:, 3], active.y1)
                   > np.maximum(poly_arr[:, 1], active.y0))
                & (poly_arr[:, 1] <= active.y0)
                & (poly_arr[:, 3] >= active.y1)
            )
            for index in np.flatnonzero(crossing):
                gates.append((float(gx0[index]), float(gx1[index])))
        gates.sort()
        boundaries = [active.x0]
        for x0, x1 in gates:
            boundaries.extend((x0, x1))
        boundaries.append(active.x1)
        for i in range(0, len(boundaries), 2):
            x0, x1 = boundaries[i], boundaries[i + 1]
            if x1 - x0 <= 0.0:
                continue
            net = None
            if contact_arr is not None:
                hits = (
                    (contact_arr[:, 0] < x1)
                    & (x0 < contact_arr[:, 2])
                    & (contact_arr[:, 1] < active.y1)
                    & (active.y0 < contact_arr[:, 3])
                )
                first = int(np.argmax(hits))
                if hits[first]:
                    net = contact_nets[first]
            if net is None:
                continue
            width = x1 - x0
            height = active.y1 - active.y0
            area = width * height
            perimeter = 2.0 * width
            if abs(x0 - active.x0) < 1e-12:
                perimeter += height
            if abs(x1 - active.x1) < 1e-12:
                perimeter += height
            key = (net, polarity)
            total_area, total_perimeter = result[key]
            result[key] = (total_area + area, total_perimeter + perimeter)
    return dict(result)


def interconnect_parasitics(
    tech: Technology,
    ws: ExtractionWorkspace,
    wells: Dict[str, Tuple[float, float]],
) -> ExtractedParasitics:
    """The wire-cap, coupling and well passes over one workspace, in the
    canonical report order; ``diffusion`` is left empty."""
    return ExtractedParasitics(
        net_wire_cap=dict(sorted(_wire_capacitance(tech, ws).items())),
        coupling=dict(sorted(_coupling(tech, ws).items())),
        well=dict(sorted(wells.items())),
    )


def extract_cell(cell: Cell, tech: Technology) -> ExtractedParasitics:
    """Full geometric extraction of a (hierarchical) cell.

    The report is canonically ordered: coupling keys are sorted net
    tuples and every result dict is in sorted key order, so the
    annotation (and everything solved from it) is independent of shape
    iteration order.
    """
    with telemetry.span("layout.extract", cell=cell.name):
        telemetry.count("layout.extract")
        table = cell.table()
        extracted = interconnect_parasitics(
            tech,
            ExtractionWorkspace.from_table(table),
            _wells(table.rows(table.on(Layer.NWELL))),
        )
        extracted.diffusion = dict(sorted(_diffusion_strips(table).items()))
        return extracted


def annotate_circuit(
    circuit: Circuit,
    extracted: ExtractedParasitics,
    tech: Technology,
    supply_nets: Tuple[str, ...] = ("vdd!", "0"),
    net_alias: Optional[Dict[str, str]] = None,
) -> Circuit:
    """Back-annotate extraction onto a schematic.

    Returns a clone of ``circuit`` with

    * parasitic capacitors for wire, coupling and well capacitance
      (supply-to-supply capacitors are dropped — they do not affect the
      small-signal behaviour and only slow the solver);
    * per-device junction geometry distributed from the per-net diffusion
      totals in proportion to device widths.

    ``net_alias`` maps layout net names to schematic net names when they
    differ.
    """
    alias = net_alias or {}

    def to_circuit_net(net: str) -> str:
        return alias.get(net, net)

    annotated = circuit.clone(circuit.name + "_extracted")
    annotated.strip_parasitics()

    for net, value in extracted.net_wire_cap.items():
        circuit_net = to_circuit_net(net)
        if canonical(circuit_net) == "0":
            continue
        annotated.attach_parasitic_cap(circuit_net, "0", value)

    for (net_a, net_b), value in extracted.coupling.items():
        a, b = to_circuit_net(net_a), to_circuit_net(net_b)
        if canonical(a) == canonical(b):
            continue
        annotated.attach_parasitic_cap(a, b, value)

    for net, (area, perimeter) in extracted.well.items():
        circuit_net = to_circuit_net(net)
        if circuit_net in supply_nets or canonical(circuit_net) == "0":
            continue
        annotated.attach_parasitic_cap(
            circuit_net, "0", tech.well.capacitance(area, perimeter)
        )

    _distribute_diffusion(annotated, extracted, alias)
    return annotated


def _distribute_diffusion(
    circuit: Circuit,
    extracted: ExtractedParasitics,
    alias: Dict[str, str],
) -> None:
    """Assign per-net diffusion totals to device terminals by width."""

    def to_circuit_net(net: str) -> str:
        return alias.get(net, net)

    # (net, polarity) -> [(device, terminal, width)]
    claims: Dict[Tuple[str, str], List[Tuple[Mos, str]]] = defaultdict(list)
    for mos in circuit.mos_devices:
        assert mos.params is not None
        claims[(canonical(mos.d), mos.polarity)].append((mos, "d"))
        claims[(canonical(mos.s), mos.polarity)].append((mos, "s"))

    assignments: Dict[str, Dict[str, Tuple[float, float]]] = defaultdict(dict)
    for (net, polarity), (area, perimeter) in extracted.diffusion.items():
        key = (canonical(to_circuit_net(net)), polarity)
        claimants = claims.get(key, [])
        total_width = sum(mos.w for mos, _terminal in claimants)
        if not claimants or total_width <= 0.0:
            continue
        for mos, terminal in claimants:
            weight = mos.w / total_width
            assignments[mos.name][terminal] = (area * weight, perimeter * weight)

    for mos in circuit.mos_devices:
        terminals = assignments.get(mos.name)
        if not terminals:
            continue
        ad, pd = terminals.get("d", (0.0, 0.0))
        as_, ps = terminals.get("s", (0.0, 0.0))
        mos.geometry = DiffusionGeometry(ad=ad, pd=pd, as_=as_, ps=ps)
