"""The columnar flattening and the sign-off passes that read it.

:meth:`Cell.table` must hold the reference flattening row for row (layer,
coordinates under ``==`` and bit for bit, net) over nested instances,
every orientation, net maps and empty cells.  The GDS encoder must write
the reference writer's bytes on every generator's cells and refuse a
coordinate it cannot represent, naming the shape.  The DRC cut pre-pass
must leave the checker's violations those of the all-pairs oracle on
the cells that reach its exact fallback.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LayoutError
from repro.layout import drc as drc_module
from repro.layout.cell import LAYERS, Cell
from repro.layout.drc import DrcChecker
from repro.layout.gds import cell_to_gds
from repro.layout.geometry import Orientation, Rect
from repro.layout.layers import Layer
from repro.units import PF, UM
from tests.conftest import PRESETS
from tests.designs import hand_sizes
from tests.oracles import layout as oracle

NETS = [None, "", "a", "b", "c"]

coordinate = st.floats(-1e-4, 1e-4, allow_nan=False)
extent = st.floats(0.0, 2e-5, allow_nan=False)


@st.composite
def rects(draw):
    x0, y0 = draw(coordinate), draw(coordinate)
    return Rect(x0, y0, x0 + draw(extent), y0 + draw(extent))


@st.composite
def cells(draw, depth=2):
    """A cell with up to five shapes and, above the leaves, up to three
    children each placed up to twice (a child shared by placements)."""
    cell = Cell(f"c{depth}")
    for _ in range(draw(st.integers(0, 5))):
        cell.add_shape(
            draw(st.sampled_from(LAYERS)), draw(rects()),
            net=draw(st.sampled_from(NETS)),
        )
    if depth:
        for child in draw(st.lists(cells(depth - 1), max_size=3)):
            for _ in range(draw(st.integers(1, 2))):
                cell.add_instance(
                    child, dx=draw(coordinate), dy=draw(coordinate),
                    orientation=draw(st.sampled_from(list(Orientation))),
                    net_map=draw(st.dictionaries(
                        st.sampled_from(NETS[1:]),
                        st.sampled_from(["", "a", "x", "y"]), max_size=3,
                    )),
                )
    return cell


def _assert_table_is_reference(cell):
    table = cell.table()
    want = oracle.flatten(cell)
    coords = np.array(
        [(s.rect.x0, s.rect.y0, s.rect.x1, s.rect.y1) for s in want]
    ).reshape(-1, 4)
    assert [LAYERS[code] for code in table.layers] == [s.layer for s in want]
    assert [table.net_name(code) for code in table.nets] == [
        s.net for s in want
    ]
    assert (table.coords == coords).all()
    assert np.array_equal(table.coords.view(np.uint64), coords.view(np.uint64))
    assert list(cell.flattened()) == want


class TestTableIsReferenceFlattening:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cell=cells())
    def test_table_rows_are_reference_rows(self, cell):
        _assert_table_is_reference(cell)

    def test_empty_cells(self):
        leaf = Cell("empty")
        top = Cell("top")
        top.add_instance(leaf, dx=1e-6, orientation=Orientation.R90)
        for cell in (leaf, top):
            table = cell.table()
            assert len(table) == 0
            assert table.coords.shape == (0, 4)
            assert list(cell.flattened()) == []

    def test_rebuilt_after_a_child_grows(self):
        leaf = Cell("leaf")
        leaf.add_shape(Layer.METAL1, Rect(0, 0, 1e-6, 2e-6), net="a")
        top = Cell("top")
        top.add_instance(leaf, dx=3e-6, orientation=Orientation.MX,
                         net_map={"a": "out"})
        first = top.table()
        assert top.table() is first  # memoized
        leaf.add_shape(Layer.METAL2, Rect(0, 0, 1e-6, 1e-6), net="b")
        assert len(top.table()) == 2
        _assert_table_is_reference(top)


# -- GDS ---------------------------------------------------------------------


def _ota_cell(tech):
    from repro.layout.ota import OtaLayoutRequest, generate_ota_layout

    sizes, currents = hand_sizes(tech)
    request = OtaLayoutRequest(
        technology=tech, sizes=sizes, currents=currents, aspect=1.0
    )
    return generate_ota_layout(request, mode="generate").cell


def _two_stage_cell(tech):
    from repro.layout.two_stage_ota import (
        TwoStageLayoutRequest,
        generate_two_stage_layout,
    )
    from repro.sizing.plans.two_stage import TwoStagePlan
    from repro.sizing.specs import OtaSpecs, ParasiticMode

    specs = OtaSpecs(
        vdd=3.3, gbw=30e6, phase_margin=60.0, cload=2e-12,
        input_cm_range=(1.0, 2.0), output_range=(0.4, 2.9),
    )
    result = TwoStagePlan(tech).size(specs, ParasiticMode.SINGLE_FOLD)
    request = TwoStageLayoutRequest(
        technology=tech, sizes=result.sizes, currents=result.currents,
        cc=result.biases["_cc"], aspect=1.0,
    )
    return generate_two_stage_layout(request, mode="generate").cell


def _cairo_cell(tech):
    """A mirror, a poly resistor, a plate capacitor and a tap."""
    from repro.layout.cairo import CairoProgram

    program = CairoProgram(tech, "rc_bias")
    program.mirror(
        "mirror", "n", ratios={"mref": 1, "mout": 2},
        unit_width=8 * UM, l=2 * UM,
        drains={"mref": "iref", "mout": "ibias"},
        gate="iref", source="0", bulk="0",
        currents={"mref": 50e-6, "mout": 100e-6},
    )
    program.resistor("rfilt", 20e3, "iref", "iref_q")
    program.capacitor("cfilt", 2 * PF, net_top="iref_q", net_bottom="0")
    program.tap("ptap", "substrate", "0", 12 * UM)
    program.row("mirror", "ptap")
    program.row("rfilt", "cfilt")
    program.shape(aspect=1.0)
    cell, _ = program.generate()
    return cell


def _orientations_cell():
    """One leaf placed in every orientation, at offsets on odd half
    nanometres so coordinates round half to even."""
    leaf = Cell("leaf")
    leaf.add_shape(Layer.ACTIVE, Rect(0.0, 0.0, 4.0005e-6, 2.5e-9))
    leaf.add_shape(Layer.METAL1, Rect(1.5e-9, -3.5e-9, 2e-6, 1e-6), net="a")
    top = Cell("every_orientation")
    top.add_shape(Layer.METAL2, Rect(-0.5e-9, 0.5e-9, 1.5e-9, 2.5e-9))
    for k, orientation in enumerate(Orientation):
        top.add_instance(leaf, dx=k * 10.0005e-6, dy=-k * 0.5e-9,
                         orientation=orientation, net_map={"a": f"n{k}"})
    return top


class TestGdsMatchesReference:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_ota(self, preset):
        cell = _ota_cell(PRESETS[preset]())
        assert cell_to_gds(cell) == oracle.gds_stream(cell)

    def test_two_stage_ota(self, tech):
        cell = _two_stage_cell(tech)
        assert cell_to_gds(cell) == oracle.gds_stream(cell)

    def test_cairo_cell_with_passives(self, tech):
        cell = _cairo_cell(tech)
        assert Layer.POLY2 in {shape.layer for shape in cell.flattened()}
        assert cell_to_gds(cell, library="RC") == oracle.gds_stream(
            cell, library="RC"
        )

    def test_every_orientation(self):
        cell = _orientations_cell()
        assert {i.orientation for i in cell.instances} == set(Orientation)
        assert cell_to_gds(cell) == oracle.gds_stream(cell)


class TestGdsRefusesUnrepresentableCoordinates:
    """A coordinate that is not finite or past a 4-byte integer of 1 nm
    units raises ``LayoutError`` naming the cell, layer and rectangle."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 3.0],
                             ids=["nan", "inf", "past_int32"])
    def test_names_the_shape(self, bad):
        leaf = Cell("leaf")
        leaf.add_shape(Layer.METAL1, Rect(0.0, 0.0, 1e-6, 1e-6), net="a")
        leaf.add_shape(Layer.VIA1, Rect(0.0, 0.0, bad, 1e-6), net="a")
        top = Cell("chip")
        top.add_shape(Layer.POLY, Rect(0.0, 0.0, 1e-6, 1e-6))
        top.add_instance(leaf, dx=2e-6)
        with pytest.raises(LayoutError) as raised:
            cell_to_gds(top)
        message = str(raised.value)
        assert "'chip'" in message
        assert "via1" in message
        assert repr(bad + 2e-6) in message


# -- DRC cut fallback --------------------------------------------------------


def _cut(cell, tech, layer, x, y, net, size=None):
    """A cut with its lower-left corner at (x, y)."""
    rules = tech.rules
    if size is None:
        size = rules.contact_size if layer is Layer.CONTACT else rules.via_size
    cell.add_shape(layer, Rect(x, y, x + size, y + size), net=net)


def _fallback_cell(tech):
    """Cuts that no single same-net landing shape encloses."""
    rules = tech.rules
    size = rules.contact_size
    margin = rules.contact_metal_enclosure
    cell = Cell("fallback")
    # Union-only enclosure: two overlapping same-net halves.
    x = 0.0
    _cut(cell, tech, Layer.CONTACT, x, 0.0, "a")
    cell.add_shape(Layer.METAL1, Rect(x - margin, -margin,
                                      x + size / 2 + 1e-7, size + margin),
                   net="a")
    cell.add_shape(Layer.METAL1, Rect(x + size / 2 - 1e-7, -margin,
                                      x + size + margin, size + margin),
                   net="a")
    # Gapped union: the halves leave a slit over the cut.
    x = 10 * UM
    _cut(cell, tech, Layer.CONTACT, x, 0.0, "b")
    cell.add_shape(Layer.METAL1, Rect(x - margin, -margin,
                                      x + size / 2 - 5e-8, size + margin),
                   net="b")
    cell.add_shape(Layer.METAL1, Rect(x + size / 2 + 5e-8, -margin,
                                      x + size + margin, size + margin),
                   net="b")
    # A cut with no net lands on any net, here a union of two.
    x = 20 * UM
    _cut(cell, tech, Layer.CONTACT, x, 0.0, None)
    cell.add_shape(Layer.METAL1, Rect(x - margin, -margin,
                                      x + size / 2, size + margin), net="c")
    cell.add_shape(Layer.METAL1, Rect(x + size / 2, -margin,
                                      x + size + margin, size + margin),
                   net="d")
    # A wrong-size cut between two good ones on one strap.
    x = 30 * UM
    cell.add_shape(Layer.METAL1, Rect(x - margin, -margin,
                                      x + 6 * size + margin, size + margin),
                   net="e")
    _cut(cell, tech, Layer.CONTACT, x, 0.0, "e")
    _cut(cell, tech, Layer.CONTACT, x + 2.5 * size, 0.0, "e",
         size=size * 0.9)
    _cut(cell, tech, Layer.CONTACT, x + 5 * size, 0.0, "e")
    # The only container is on another net.
    x = 40 * UM
    _cut(cell, tech, Layer.CONTACT, x, 0.0, "f")
    cell.add_shape(Layer.METAL1, Rect(x - 2 * margin, -2 * margin,
                                      x + size + 2 * margin,
                                      size + 2 * margin), net="g")
    # A via enclosed on metal1 by one shape, on metal2 by a union.
    x = 50 * UM
    vmargin = rules.via_metal_enclosure
    vsize = rules.via_size
    _cut(cell, tech, Layer.VIA1, x, 0.0, "h")
    cell.add_shape(Layer.METAL1, Rect(x - vmargin, -vmargin,
                                      x + vsize + vmargin, vsize + vmargin),
                   net="h")
    cell.add_shape(Layer.METAL2, Rect(x - vmargin, -vmargin,
                                      x + vsize + vmargin, vsize / 2),
                   net="h")
    cell.add_shape(Layer.METAL2, Rect(x - vmargin, vsize / 3,
                                      x + vsize + vmargin, vsize + vmargin),
                   net="h")
    return cell


class TestDrcCutFallback:
    def test_matches_all_pairs_oracle(self, tech, monkeypatch):
        cell = _fallback_cell(tech)
        checker = DrcChecker(tech)
        probes = []
        union_covers = drc_module._union_covers

        def counting(needed, rects, depth=32):
            if depth == 32:  # a probe, not one of its recursive pieces
                probes.append(len(rects))
            return union_covers(needed, rects, depth)

        monkeypatch.setattr(drc_module, "_union_covers", counting)
        got = checker.check(cell)
        want = oracle.drc_check(checker, cell)
        assert got == want  # field for field, in order
        # Union, gap, no-net, other-net cuts and the via's metal2 landing
        # reach the exact fallback; the good cuts do not.
        assert len(probes) == 5
        cuts = [v for v in got if v.kind in ("cut_size", "enclosure")]
        assert [(v.kind, v.rect.x0) for v in cuts] == [
            ("enclosure", 10 * UM),
            ("cut_size", 30 * UM + 2.5 * tech.rules.contact_size),
            ("enclosure", 40 * UM),
        ]
        shapes = list(cell.flattened())
        assert oracle.indexed_cuts(checker, shapes) == cuts

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_random_cuts_match_all_pairs_oracle(self, tech, data):
        """Cuts of right and wrong sizes, on nets or none, among landing
        shapes on a 0.1 um grid (so enclosures meet the rule exactly)."""
        rules = tech.rules
        grid = st.integers(0, 40).map(lambda v: v * 1e-7)
        cell = Cell("random_cuts")
        for _ in range(data.draw(st.integers(0, 12))):
            layer = data.draw(st.sampled_from([Layer.METAL1, Layer.METAL2]))
            x0, y0 = data.draw(grid), data.draw(grid)
            cell.add_shape(
                layer,
                Rect(x0, y0, x0 + data.draw(grid), y0 + data.draw(grid)),
                net=data.draw(st.sampled_from([None, "a", "b"])),
            )
        for _ in range(data.draw(st.integers(1, 6))):
            layer = data.draw(st.sampled_from([Layer.CONTACT, Layer.VIA1]))
            size = data.draw(st.sampled_from([
                rules.contact_size if layer is Layer.CONTACT
                else rules.via_size, 0.5e-6,
            ]))
            x0, y0 = data.draw(grid), data.draw(grid)
            cell.add_shape(layer, Rect(x0, y0, x0 + size, y0 + size),
                           net=data.draw(st.sampled_from([None, "a", "b"])))
        checker = DrcChecker(tech)
        assert checker.check(cell) == oracle.drc_check(checker, cell)

    def test_generated_cells_need_no_fallback(self, tech, monkeypatch):
        monkeypatch.setattr(
            drc_module, "_union_covers",
            lambda *args: pytest.fail("cut left to the fallback"),
        )
        cell = _ota_cell(tech)
        assert DrcChecker(tech).check(cell) == []
