"""Module footprints: the frame's bbox is the drawn cell's, bit for bit.

Placement reads each fold variant's footprint and draws only the placed
ones, so the generated OTA is unchanged only if every generator's frame
gives exactly ``(cell.width, cell.height)`` of the cell its drawing
emits — under ``==``, float rounding included — and refuses exactly
the inputs the drawing refuses.  Checked over random sizes, folds,
currents, polarities and all three technology presets.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import LayoutError
from repro.layout.devices import (
    StackFrame,
    current_mirror_frame,
    current_mirror_layout,
    differential_pair_frame,
    differential_pair_layout,
    render_stack,
    single_device_frame,
    single_device_layout,
)
from repro.layout.motif import MotifFrame, generate_mos_motif
from repro.layout.stack import generate_stack
from repro.layout.tap import TapFrame, tap_column
from repro.technology import generic_035, generic_060, generic_080
from repro.units import UM

TECHNOLOGIES = {
    "0.35": generic_035(),
    "0.6": generic_060(),
    "0.8": generic_080(),
}

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
