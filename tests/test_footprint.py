"""Module frames: the footprint and the shapes are the drawn module's.

Placement reads each fold variant's footprint, so the generated OTA is
unchanged only if every generator's frame gives exactly ``(cell.width,
cell.height)`` of the cell its drawing emits — under ``==``, float
rounding included — and refuses exactly the inputs the drawing refuses.

The parasitic-calculation mode reads no drawn cell either: it takes each
placed module's interconnect arrays, pins, metal and junctions from the
frame (:class:`~repro.layout.parasitics.ModuleView`), so those must equal
what the drawn module gives — its extraction workspace array for array,
its pins and metal shape for shape, and its wiring parasitics ``==`` the
extraction of the drawn module.

Checked over random sizes, folds, currents, polarities and all three
technology presets.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, reject, settings, strategies as st

from repro.errors import LayoutError
from repro.layout.capacitor import plate_capacitor
from repro.layout.devices import (
    CellFrame,
    DeviceFrame,
    StackFrame,
    current_mirror_frame,
    current_mirror_layout,
    differential_pair_frame,
    differential_pair_layout,
    render_stack,
    single_device_frame,
    single_device_layout,
)
from repro.layout.extraction import (
    ExtractionWorkspace,
    extract_cell,
    interconnect_parasitics,
)
from repro.layout.layers import Layer
from repro.layout.motif import MotifFrame, generate_mos_motif
from repro.layout.parasitics import ModuleView
from repro.layout.resistor import poly_resistor
from repro.layout.stack import generate_stack
from repro.layout.tap import TapFrame, tap_column
from repro.units import UM
from tests.conftest import PRESETS
from tests.oracles import layout as oracle

TECHNOLOGIES = {preset: make() for preset, make in PRESETS.items()}

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

technologies = st.sampled_from(sorted(TECHNOLOGIES)).map(TECHNOLOGIES.get)
widths = st.floats(0.5 * UM, 200 * UM)
lengths = st.floats(0.2 * UM, 6 * UM)
#: Up to 3 mA: high enough that narrow fingers fail the contact fit.
currents = st.floats(0.0, 3e-3)
polarities = st.sampled_from(["n", "p"])


def _outcome(build):
    """``(result, error type)`` of one call."""
    try:
        return build(), None
    except LayoutError as error:
        return None, type(error)


def assert_exact(make_frame, draw, cell_of):
    """The frame's footprint is the drawn cell's size; both refuse alike."""
    frame, frame_error = _outcome(make_frame)
    drawn, draw_error = _outcome(draw)
    assert frame_error == draw_error
    if frame is None:
        return
    cell = cell_of(drawn)
    assert frame.footprint == (cell.width, cell.height)
    # Drawing the frame itself never refuses what the frame accepted.
    assert cell_of(frame.draw()).bbox() == frame.bbox


class TestMotif:
    @SETTINGS
    @given(technologies, polarities, widths, lengths, st.integers(1, 16),
           st.booleans(), currents)
    def test_footprint_is_drawn_bbox(
        self, tech, polarity, w, l, nf, drain_internal, current
    ):
        kwargs = dict(
            nf=nf, drain_internal=drain_internal, net_d="d", net_g="g",
            net_s="s", net_b="b", drain_current=current,
        )
        assert_exact(
            lambda: MotifFrame(tech, polarity, w, l, **kwargs),
            lambda: generate_mos_motif(tech, polarity, w, l, **kwargs),
            lambda motif: motif.cell,
        )

    @SETTINGS
    @given(technologies, polarities, widths, lengths, st.integers(1, 16),
           st.booleans(), currents)
    def test_single_device(self, tech, polarity, w, l, nf, drain_internal,
                           current):
        args = (tech, polarity, w, l, nf, ("mir", "vc1", "fold1", "0"))
        kwargs = dict(drain_current=current, drain_internal=drain_internal,
                      name="mn1c")
        assert_exact(
            lambda: single_device_frame(*args, **kwargs),
            lambda: single_device_layout(*args, **kwargs),
            lambda layout: layout.cell,
        )


class TestStacks:
    @SETTINGS
    @given(technologies, polarities, widths, lengths, st.integers(1, 8),
           st.sampled_from(["common_centroid", "interdigitated"]),
           st.booleans(), currents)
    def test_differential_pair(self, tech, polarity, w, l, nf, style,
                               dummies, current):
        args = (tech, polarity, w, l, nf, ("mp1", "mp2"), ("fold1", "fold2"),
                ("inp", "inn"), "tail", "vdd!")
        kwargs = dict(current_per_side=current, style=style,
                      with_dummies=dummies, name="pair")
        assert_exact(
            lambda: differential_pair_frame(*args, **kwargs),
            lambda: differential_pair_layout(*args, **kwargs),
            lambda layout: layout.cell,
        )

    @SETTINGS
    @given(technologies, polarities, st.integers(1, 4), st.integers(1, 4),
           st.floats(0.5 * UM, 40 * UM), lengths, st.booleans(),
           st.booleans(), currents)
    def test_current_mirror(self, tech, polarity, ratio_a, ratio_b, unit,
                            l, diode, dummies, current):
        # A diode-connected input shares its drain with the gate net, which
        # adds a connector column past the module's left edge.
        drains = {"ma": "mir" if diode else "x3", "mb": "x4"}
        args = (tech, polarity, {"ma": ratio_a, "mb": ratio_b}, unit, l,
                drains, "mir", "vdd!", "vdd!")
        kwargs = dict(currents={"ma": current, "mb": current / 2},
                      with_dummies=dummies, name="mirror")
        assert_exact(
            lambda: current_mirror_frame(*args, **kwargs),
            lambda: current_mirror_layout(*args, **kwargs),
            lambda layout: layout.cell,
        )

    @SETTINGS
    @given(technologies, polarities, st.integers(1, 6),
           st.floats(0.5 * UM, 40 * UM), lengths, currents)
    def test_single_device_stack(self, tech, polarity, units, finger, l,
                                 current):
        args = (tech, generate_stack({"a": units}), polarity, finger, l,
                {"a": ("d", "g", "s")}, "b")
        kwargs = dict(currents={"a": current})
        assert_exact(
            lambda: StackFrame(*args, **kwargs),
            lambda: render_stack(*args, **kwargs),
            lambda layout: layout.cell,
        )


class TestTap:
    @SETTINGS
    @given(technologies, st.sampled_from(["substrate", "well"]),
           st.floats(0.2 * UM, 60 * UM))
    def test_footprint_is_drawn_bbox(self, tech, kind, height):
        assert_exact(
            lambda: TapFrame(tech, kind, "0", height, name="ntap"),
            lambda: tap_column(tech, kind, "0", height, name="ntap"),
            lambda layout: layout.cell,
        )


#: One module frame per generator, from a preset and a hypothesis draw.
FRAME_GENERATORS = {
    "motif": lambda tech, d: DeviceFrame(MotifFrame(
        tech, d.draw(polarities), d.draw(widths), d.draw(lengths),
        nf=d.draw(st.integers(1, 16)), drain_internal=d.draw(st.booleans()),
        net_d="d", net_g="g", net_s="s", net_b="b",
        drain_current=d.draw(currents),
    ), "m"),
    "single": lambda tech, d: single_device_frame(
        tech, d.draw(polarities), d.draw(widths), d.draw(lengths),
        d.draw(st.integers(1, 16)), ("mir", "vc1", "fold1", "0"),
        drain_current=d.draw(currents), name="mn1c",
    ),
    "pair": lambda tech, d: differential_pair_frame(
        tech, d.draw(polarities), d.draw(widths), d.draw(lengths),
        d.draw(st.integers(1, 8)), ("mp1", "mp2"), ("fold1", "fold2"),
        ("inp", "inn"), "tail", "vdd!",
        current_per_side=d.draw(currents),
        style=d.draw(st.sampled_from(["common_centroid", "interdigitated"])),
        with_dummies=d.draw(st.booleans()), name="pair",
    ),
    "mirror": lambda tech, d: current_mirror_frame(
        tech, d.draw(polarities),
        {"ma": d.draw(st.integers(1, 4)), "mb": d.draw(st.integers(1, 4))},
        d.draw(st.floats(0.5 * UM, 40 * UM)), d.draw(lengths),
        {"ma": d.draw(st.sampled_from(["mir", "x3"])), "mb": "x4"},
        "mir", "vdd!", "vdd!", currents={"ma": d.draw(currents)},
        with_dummies=d.draw(st.booleans()), name="mirror",
    ),
    "tap": lambda tech, d: TapFrame(
        tech, d.draw(st.sampled_from(["substrate", "well"])), "0",
        d.draw(st.floats(0.2 * UM, 60 * UM)), name="tap",
    ),
    "capacitor": lambda tech, d: CellFrame(plate_capacitor(
        tech, d.draw(st.floats(0.05e-12, 5e-12)), "d2", "vout",
        aspect=d.draw(st.floats(0.5, 2.0)),
    )),
    "resistor": lambda tech, d: CellFrame(poly_resistor(
        tech, d.draw(st.floats(1e3, 1e5)), "a", "b",
    )),
}

CONTRACT = settings(max_examples=80, deadline=None, derandomize=True)


def _frame(preset, generator, data):
    try:
        return FRAME_GENERATORS[generator](TECHNOLOGIES[preset], data)
    except LayoutError:
        reject()


class TestFrameDrawContract:
    """What the estimator reads off a frame is what its drawing holds."""

    @CONTRACT
    @given(preset=st.sampled_from(sorted(TECHNOLOGIES)),
           generator=st.sampled_from(sorted(FRAME_GENERATORS)),
           data=st.data())
    def test_view_arrays_are_drawn_arrays(self, preset, generator, data):
        frame = _frame(preset, generator, data)
        drawn = frame.draw()
        shapes = list(drawn.cell.flattened())
        view = ModuleView.of(frame)

        # Interconnect arrays, in draw order, as extraction builds them.
        workspace = ExtractionWorkspace(
            [(s.layer, s.rect, s.net) for s in shapes]
        )
        assert view.workspace.names == workspace.names
        assert list(view.workspace.layers) == list(workspace.layers)
        for layer, (coords, codes) in workspace.layers.items():
            got_coords, got_codes = view.workspace.layers[layer]
            assert np.array_equal(got_coords, coords)
            assert np.array_equal(got_codes, codes)
        if workspace.actives is None:
            assert view.workspace.actives is None
        else:
            assert np.array_equal(view.workspace.actives, workspace.actives)

        # Pins in declaration order, and every metal obstacle.
        assert list(view.pins) == list(drawn.cell.pins)
        for net, pins in drawn.cell.pins.items():
            assert view.pins[net] == [(pin.rect, pin.layer) for pin in pins]
        for layer in (Layer.METAL1, Layer.METAL2):
            metal = [s for s in shapes if s.layer is layer]
            coords, nets = view.metal[layer]
            assert np.array_equal(
                coords,
                np.array(
                    [(s.rect.x0, s.rect.y0, s.rect.x1, s.rect.y1)
                     for s in metal]
                ).reshape(-1, 4),
            )
            assert nets == [s.net for s in metal]

        # Stack junctions from one walk equal the all-pairs position
        # match over the drawn strips.
        if isinstance(frame, StackFrame):
            assert drawn.device_geometry == oracle.stack_device_geometry(
                frame
            )

    @CONTRACT
    @given(preset=st.sampled_from(sorted(TECHNOLOGIES)),
           generator=st.sampled_from(sorted(FRAME_GENERATORS)),
           data=st.data())
    def test_numeric_parasitics_equal_drawn_extraction(
        self, preset, generator, data
    ):
        frame = _frame(preset, generator, data)
        tech = TECHNOLOGIES[preset]
        view = ModuleView.of(frame)
        numeric = interconnect_parasitics(tech, view.workspace, view.wells)
        full = extract_cell(frame.draw().cell, tech)
        assert numeric.diffusion == {}
        assert numeric == replace(full, diffusion={})
        for field in ("net_wire_cap", "coupling", "well"):
            assert list(getattr(numeric, field)) == list(getattr(full, field))
