"""Folded-cascode OTA layout generator (paper Figure 5).

Assembles the OTA from generated modules in four rows, mirroring the
paper's layout:

====  =========================================  =======================
row   modules                                    paper devices
====  =========================================  =======================
3     PMOS mirror stack + tail                   MP3/MP4, MP5
2     PMOS cascodes                              MP3C, MP4C
1     input pair (common centroid + dummies)     MP1/MP2 + dummies
0     NMOS cascodes + sink stack                 MN1C, MN5-MN6, MN2C
====  =========================================  =======================

Fold counts per device are *not* inputs: each module exposes several fold
variants and the slicing-tree area optimisation under the caller's shape
constraint picks one — "layout area optimization, based on the given shape
constraint, results in a given number of folds for each transistor".

Area optimisation reads only each variant's footprint — the exact
(width, height) its module frame computes without emitting a shape — so
only the ten placed modules are ever drawn.

Two modes, as in the paper:

* ``estimate`` — parasitic calculation mode; returns only the
  :class:`~repro.layout.parasitics.ParasiticReport`;
* ``generate`` — additionally returns the drawn top-level cell.

Both run one build (placed modules drawn, routed and extracted); the
modes differ only in what the result exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import time

from repro import telemetry
from repro.errors import LayoutError
from repro.telemetry import metrics
from repro.layout.cell import Cell
from repro.layout.devices import (
    ModuleFrame,
    current_mirror_frame,
    differential_pair_frame,
    single_device_frame,
)
from repro.layout.parasitics import ParasiticReport, module_report
from repro.layout.placement import LeafNode, ModuleVariant, SliceNode, optimize
from repro.layout.routing import ChannelRouter, PlacedModule
from repro.layout.tap import TapFrame
from repro.technology.process import Technology
from repro.units import UM

#: Module name -> (row index, device names).  Row 0 is the bottom row.
#: Each NMOS/PMOS region carries its bulk tap column (substrate tap to
#: ground beside the sinks, well tap to the supply beside the mirror).
MODULE_ROWS: Dict[str, Tuple[int, Tuple[str, ...]]] = {
    "ncas1": (0, ("mn1c",)),
    "sink": (0, ("mn5", "mn6")),
    "ncas2": (0, ("mn2c",)),
    "ntap": (0, ()),
    "pair": (1, ("mp1", "mp2")),
    "pcas3": (2, ("mp3c",)),
    "pcas4": (2, ("mp4c",)),
    "mirror": (3, ("mp3", "mp4")),
    "tail": (3, ("mp5",)),
    "welltap": (3, ()),
}

ROW_COUNT = 4

#: Inter-module nets the channel router must connect, with the *channels*
#: their pins reach (channel 0 below row 0, channel i between rows i-1/i,
#: channel 4 above row 3).  A bottom-edge pin (stack/motif drain rails)
#: reaches its row's channel; a top-edge pin (source and gate rails) the
#: channel above — so no stub ever crosses a module.  Derived from the
#: Figure 4 connectivity and the generators' rail sides.
NET_PIN_CHANNELS: Dict[str, List[int]] = {
    "fold1": [0, 1],   # sink drain (c0), ncas source (c1), pair drain (c1)
    "fold2": [0, 1],
    "mir": [0, 2, 4],  # ncas1 drain (c0), pcas3 drain (c2), mirror gate (c4)
    "vout": [0, 2],    # ncas2 drain (c0), pcas4 drain (c2)
    "tail": [2, 3],    # pair source (c2), tail drain (c3)
    "x3": [3],         # mirror drain (c3), pcas source (c3)
    "x4": [3],
    "vdd!": [4],       # mirror + tail source rails (top of row 3)
    "0": [1],          # sink source rail (top of row 0)
    "inp": [2],
    "inn": [2],
    "vc1": [1],
    "vbn": [1],
    "vc3": [3],
    "vp1": [4],
}


@dataclass
class OtaLayoutRequest:
    """Inputs to the OTA layout generator.

    ``sizes`` maps the 11 canonical device names to requested (W, L);
    ``currents`` carries the DC drain currents the reliability rules need.
    """

    technology: Technology
    sizes: Mapping[str, Tuple[float, float]]
    currents: Mapping[str, float]
    aspect: Optional[float] = 1.0
    height: Optional[float] = None
    width: Optional[float] = None
    pair_style: str = "common_centroid"
    prefer_even_folds: bool = True
    """Paper's parasitic control: even folds with internal drains on the
    frequency-critical nets.  Disabled by the folding ablation bench."""
    max_variants: int = 4
    input_pair_well_to_source: bool = False
    """Tie the input pair's well to the tail node (floating well loads the
    tail with the well junction capacitance the layout tool reports)."""


@dataclass
class OtaLayoutResult:
    """Output of one layout call."""

    report: ParasiticReport
    fold_config: Dict[str, int]
    cell: Optional[Cell] = None
    placements: Dict[str, PlacedModule] = field(default_factory=dict)
    mode: str = "estimate"
    key: Optional[str] = None
    """The request's ``layout`` memo key; ``None`` when the call bypassed
    the memo.  Equal keys mean identical drawn cells, so work done on
    the cell can be memoized under it."""


def _fold_candidates(
    tech: Technology, width: float, prefer_even: bool, max_variants: int
) -> List[int]:
    """Plausible fold counts for a device of the given width."""
    rules = tech.rules
    max_nf = max(1, int(width / rules.active_min_width))
    if prefer_even:
        pool = [1, 2, 4, 6, 8, 12, 16]
    else:
        pool = [1, 3, 5, 7, 9, 11, 13]
    # Prefer finger widths in a comfortable band around 8-15 um.
    target = 12.0 * UM
    candidates = [nf for nf in pool if nf <= max_nf]
    if not candidates:
        candidates = [1]
    candidates.sort(key=lambda nf: abs(width / nf - target))
    return candidates[:max_variants]


def _net_currents(currents: Mapping[str, float]) -> Dict[str, float]:
    """DC current per routed net, derived from device drain currents."""
    i_tail = abs(currents.get("mp5", 0.0))
    i_sink = abs(currents.get("mn5", 0.0))
    i_casc = abs(currents.get("mn1c", 0.0))
    return {
        "vdd!": i_tail + 2.0 * i_casc,
        "0": 2.0 * i_sink,
        "tail": i_tail,
        "fold1": i_sink,
        "fold2": i_sink,
        "mir": i_casc,
        "vout": i_casc,
        "x3": i_casc,
        "x4": i_casc,
    }


#: A fold variant before placement: its tag and a frame factory (which
#: raises :class:`LayoutError` when the variant is infeasible).
Candidate = Tuple[Dict[str, int], Callable[[], ModuleFrame]]


def _candidates(request: OtaLayoutRequest) -> Dict[str, List[Candidate]]:
    """Every module's fold variants, in :data:`MODULE_ROWS` order."""
    tech = request.technology
    sizes = request.sizes
    currents = request.currents
    prefer_even = request.prefer_even_folds
    pair_bulk = "tail" if request.input_pair_well_to_source else "vdd!"

    def folds(device: str) -> List[int]:
        return _fold_candidates(
            tech, sizes[device][0], prefer_even, request.max_variants
        )

    def single(
        device: str, polarity: str, nets: Tuple[str, str, str, str]
    ) -> List[Candidate]:
        w, l = sizes[device]
        return [
            (
                {device: nf},
                partial(
                    single_device_frame, tech, polarity, w, l, nf, nets,
                    drain_current=currents.get(device, 0.0),
                    drain_internal=prefer_even, name=device,
                ),
            )
            for nf in folds(device)
        ]

    # Mirror stack MP3/MP4 (1:1) and sink stack MN5/MN6 (1:1).
    def stack(
        module: str,
        devices: Tuple[str, str],
        polarity: str,
        drains: Tuple[str, str],
        gate: str,
        source: str,
        bulk: str,
    ) -> List[Candidate]:
        w, l = sizes[devices[0]]
        return [
            (
                {devices[0]: nf, devices[1]: nf},
                partial(
                    current_mirror_frame, tech, polarity,
                    {devices[0]: nf, devices[1]: nf},
                    unit_width=w / nf, l=l,
                    drains={devices[0]: drains[0], devices[1]: drains[1]},
                    gate=gate, source=source, bulk=bulk,
                    currents={d: currents.get(d, 0.0) for d in devices},
                    name=module,
                ),
            )
            for nf in folds(devices[0])
        ]

    # Input pair: common centroid (or interdigitated) with dummies.
    w_in, l_in = sizes["mp1"]
    pair = [
        (
            {"mp1": nf, "mp2": nf},
            partial(
                differential_pair_frame, tech, "p", w_in, l_in, nf,
                names=("mp1", "mp2"), drains=("fold1", "fold2"),
                gates=("inp", "inn"), source="tail", bulk=pair_bulk,
                current_per_side=currents.get("mp1", 0.0),
                style=request.pair_style, name="pair",
            ),
        )
        for nf in folds("mp1")
        if nf >= 2
    ]

    # Bulk taps: one column per MOS region flavour.
    tap_height = 10.0 * tech.rules.active_min_width
    return {
        "ncas1": single("mn1c", "n", ("mir", "vc1", "fold1", "0")),
        "ncas2": single("mn2c", "n", ("vout", "vc1", "fold2", "0")),
        "pcas3": single("mp3c", "p", ("mir", "vc3", "x3", "vdd!")),
        "pcas4": single("mp4c", "p", ("vout", "vc3", "x4", "vdd!")),
        "tail": single("mp5", "p", ("tail", "vp1", "vdd!", "vdd!")),
        "pair": pair,
        "mirror": stack(
            "mirror", ("mp3", "mp4"), "p", ("x3", "x4"), "mir", "vdd!", "vdd!"
        ),
        "sink": stack(
            "sink", ("mn5", "mn6"), "n", ("fold1", "fold2"), "vbn", "0", "0"
        ),
        "ntap": [({}, partial(
            TapFrame, tech, "substrate", "0", tap_height, name="ntap"
        ))],
        "welltap": [({}, partial(
            TapFrame, tech, "well", "vdd!", tap_height, name="welltap"
        ))],
    }


def _build_variants(
    request: OtaLayoutRequest,
) -> Dict[str, List[ModuleVariant]]:
    """Feasible fold variants of every module, as footprints.

    Each variant carries its frame's exact footprint and draws itself
    only if placement picks it.
    """
    variants: Dict[str, List[ModuleVariant]] = {}
    for module, candidates in _candidates(request).items():
        items = []
        for tag, make_frame in candidates:
            try:
                frame = make_frame()
            except LayoutError:
                continue
            items.append(ModuleVariant(tag, *frame.footprint, frame.draw))
        if not items:
            devices = ", ".join(MODULE_ROWS[module][1])
            raise LayoutError(
                f"no feasible fold variant for module {module} ({devices})"
            )
        variants[module] = items
    return variants


def _request_key(request: OtaLayoutRequest) -> str:
    """Content digest of every field the generator reads."""
    from repro.runtime.artifacts import cache_key

    return cache_key(
        "layout-call",
        "ota",
        request.technology.fingerprint(),
        tuple(sorted(dict(request.sizes).items())),
        tuple(sorted(dict(request.currents).items())),
        request.aspect,
        request.height,
        request.width,
        request.pair_style,
        request.prefer_even_folds,
        request.max_variants,
        request.input_pair_well_to_source,
    )


def _project(
    result: OtaLayoutResult, mode: str, key: Optional[str]
) -> OtaLayoutResult:
    """The per-mode view of one fully built layout result."""
    return replace(
        result, cell=result.cell if mode == "generate" else None, mode=mode,
        key=key,
    )


def generate_ota_layout(
    request: OtaLayoutRequest, mode: str = "estimate"
) -> OtaLayoutResult:
    """Run the OTA layout generator.

    ``mode='estimate'`` is the parasitic calculation mode (no cell in the
    result); ``mode='generate'`` also returns the drawn layout.

    Both modes run the same build: area optimisation places every module
    from its fold variants' footprints alone, and only the placed modules
    are drawn, routed and extracted for the parasitic report.  The full
    result is one ``layout`` memo entry (:mod:`repro.layout.incremental`)
    keyed on request content — a converged synthesis round's ``generate``
    pass, and any later call with identical inputs, is served without a
    rebuild.  The key rides on the result (:attr:`OtaLayoutResult.key`).
    """
    from repro.layout import incremental

    if mode not in ("estimate", "generate"):
        raise LayoutError(f"mode must be 'estimate' or 'generate', got {mode!r}")
    t0 = time.perf_counter()
    with telemetry.span(
        "layout.call", mode=mode, aspect=request.aspect
    ) as span:
        telemetry.count(f"layout.calls.{mode}")
        key = _request_key(request) if incremental.enabled() else None
        result, source = incremental.memo(
            "layout", lambda: key, lambda: _generate(request)
        )
        span.annotate(source=source)
    if source == "computed" and metrics.enabled():
        metrics.observe("layout.call.seconds", time.perf_counter() - t0)
    return _project(result, mode, key)


def _generate(request: OtaLayoutRequest) -> OtaLayoutResult:
    missing = [d for d in _all_devices() if d not in request.sizes]
    if missing:
        raise LayoutError(f"missing sizes for devices: {missing}")
    return _place_and_route(request, _build_variants(request))


def _place_and_route(
    request: OtaLayoutRequest, variants: Dict[str, List[ModuleVariant]]
) -> OtaLayoutResult:
    """Place the modules, draw the placed variants, route and report."""
    tech = request.technology
    rules = tech.rules
    net_currents = _net_currents(request.currents)
    router = ChannelRouter(tech, net_currents)
    channel_plan = router.plan_channels(
        row_count=ROW_COUNT, net_pins=NET_PIN_CHANNELS
    )

    # Slicing tree: rows of leaves, stacked with the heights of the
    # channels *between* rows (channels 0 and ROW_COUNT extend the
    # assembly below and above).
    module_gap = 4.0 * rules.metal1_spacing
    leaves = {name: LeafNode(name, items) for name, items in variants.items()}
    rows: List[SliceNode] = []
    for row_index in range(ROW_COUNT):
        members = [
            name for name, (row, _devs) in MODULE_ROWS.items() if row == row_index
        ]
        members.sort()
        children = [leaves[name] for name in members]
        spacings = [module_gap] * (len(children) - 1)
        rows.append(SliceNode("h", children, spacings, align="center"))
    root = SliceNode(
        "v", rows, spacings=channel_plan.heights[1:ROW_COUNT], align="center"
    )

    point, placements_list = optimize(
        root, aspect=request.aspect, height=request.height, width=request.width
    )

    placements: Dict[str, PlacedModule] = {}
    fold_config: Dict[str, int] = {}
    for placement in placements_list:
        layout = placement.variant.layout  # drawn here, on placement
        box = layout.cell.bbox()
        module = PlacedModule(
            name=placement.name,
            layout=layout,
            dx=placement.dx - box.x0,
            dy=placement.dy - box.y0,
        )
        placements[placement.name] = module
        fold_config.update(placement.variant.tag)

    # Channel bottom y per channel: channel 0 hangs below the bottom row,
    # channel i (1..ROW_COUNT-1) starts at the top of row i-1, and the
    # last channel starts at the top of the top row.
    def row_members(row_index: int) -> List[PlacedModule]:
        return [
            m
            for name, m in placements.items()
            if MODULE_ROWS[name][0] == row_index
        ]

    bottom = min(m.bbox().y0 for m in row_members(0))
    channel_y: List[float] = [bottom - channel_plan.heights[0]]
    for row_index in range(ROW_COUNT):
        channel_y.append(max(m.bbox().y1 for m in row_members(row_index)))

    top = Cell("ota")
    for module in placements.values():
        top.add_instance(module.layout.cell, dx=module.dx, dy=module.dy)

    x_extent = (0.0, point.width)
    row_of_module = {name: MODULE_ROWS[name][0] for name in placements}
    routing = router.route(
        top, list(placements.values()), row_of_module, channel_plan, channel_y, x_extent
    )

    report = module_report(
        tech, point, placements, routing,
        {device: width for device, (width, _l) in request.sizes.items()},
        {
            device: request.prefer_even_folds
            for module in placements.values()
            for device in module.layout.device_geometry
        },
    )

    return OtaLayoutResult(
        report=report,
        fold_config=fold_config,
        cell=top,
        placements=placements,
        mode="generate",
    )


def _all_devices() -> Tuple[str, ...]:
    names: List[str] = []
    for _row, devices in MODULE_ROWS.values():
        names.extend(devices)
    return tuple(names)
