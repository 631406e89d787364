"""Layout path: equivalence with the per-shape oracle, spatial index,
composition.

The array extraction and grid-indexed DRC are exact replacements for the
per-shape references in :mod:`tests.oracles.layout` — same keys, same
floats (within 1e-12), same violation order — verified here on both OTA
topologies, on generated OTA layouts of random sizes and folds, and on
synthetic cells that hit every violation kind.  The footprint-placed OTA
build draws nothing in estimate mode, only its placed modules in generate
mode, and matches the oracle build that draws every fold variant first
and extracts the drawn modules.  Index-combo Stockmeyer
composition rebuilds exactly the frontier the direct enumeration
produces.
"""

from __future__ import annotations

import pytest
from hypothesis import given, reject, settings, strategies as st

from repro.errors import LayoutError
from repro.layout import cell as cell_module
from repro.layout import incremental, ota
from repro.layout.cell import Cell
from repro.layout.devices import ModuleFrame
from repro.layout.drc import DrcChecker
from repro.layout.extraction import extract_cell
from repro.layout.geometry import GridIndex, Rect, interval_pairs
from repro.layout.layers import Layer
from repro.layout.ota import OtaLayoutRequest, generate_ota_layout
from repro.layout.shape import ShapeFunction, ShapePoint, compose_frontier
from repro.units import UM
from tests.conftest import PRESETS
from tests.designs import hand_sizes
from tests.oracles import layout as oracle


@pytest.fixture(scope="module")
def two_stage_cell(tech):
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


@pytest.fixture
def dirty_cell(tech):
    """A cell tripping every violation kind the checker knows."""
    rules = tech.rules
    cell = Cell("dirty")
    # Short: different nets overlapping on metal1.
    cell.add_shape(Layer.METAL1, Rect(0, 0, 5 * UM, 1 * UM), net="a")
    cell.add_shape(Layer.METAL1, Rect(4 * UM, 0, 9 * UM, 1 * UM), net="b")
    # Spacing: two metal2 wires half a rule apart.
    gap = rules.metal2_spacing / 2
    cell.add_shape(Layer.METAL2, Rect(0, 0, 5 * UM, 1 * UM), net="c")
    cell.add_shape(
        Layer.METAL2, Rect(0, 1 * UM + gap, 5 * UM, 2 * UM + gap), net="d"
    )
    # Min width: a sliver of metal1 far from everything else.
    cell.add_shape(
        Layer.METAL1,
        Rect(20 * UM, 0, 25 * UM, rules.metal1_min_width / 2),
        net="e",
    )
    # Cut size: an oversized contact; enclosure: a bare correctly-sized one.
    size = rules.contact_size
    cell.add_shape(
        Layer.CONTACT, Rect(40 * UM, 0, 40 * UM + 2 * size, size), net="f"
    )
    cell.add_shape(
        Layer.CONTACT, Rect(60 * UM, 0, 60 * UM + size, size), net="g"
    )
    return cell


def _assert_extractions_match(cell, tech):
    reference = oracle.extract_cell(cell, tech)
    got_all = extract_cell(cell, tech)
    for attr in ("net_wire_cap", "coupling", "diffusion", "well"):
        got = getattr(got_all, attr)
        want = getattr(reference, attr)
        assert list(got) == list(want), f"{attr} keys differ"
        for key in want:
            assert got[key] == pytest.approx(
                want[key], rel=1e-12, abs=1e-30
            ), f"{attr}[{key}]"


@st.composite
def ota_requests(draw, tech):
    """Layout requests for the hand-sized OTA with every width scaled by
    up to 2x either way, at a random aspect and fold preference — so the
    generator picks different fold counts and placements."""
    sizes, currents = hand_sizes(tech)
    factors = draw(
        st.lists(st.floats(0.5, 2.0), min_size=len(sizes), max_size=len(sizes))
    )
    return OtaLayoutRequest(
        technology=tech,
        sizes={
            name: (width * factor, length)
            for (name, (width, length)), factor in zip(
                sorted(sizes.items()), factors
            )
        },
        currents=currents,
        aspect=draw(st.sampled_from([0.5, 1.0, 2.0])),
        prefer_even_folds=draw(st.booleans()),
    )


class TestExtractionGolden:
    def test_folded_cascode_matches_scalar(self, ota_layout, tech):
        _assert_extractions_match(ota_layout.cell, tech)

    def test_two_stage_matches_scalar(self, two_stage_cell, tech):
        _assert_extractions_match(two_stage_cell, tech)

    def test_coupling_keys_canonical(self, ota_layout, tech):
        for extracted in (
            extract_cell(ota_layout.cell, tech),
            oracle.extract_cell(ota_layout.cell, tech),
        ):
            for net_a, net_b in extracted.coupling:
                assert net_a < net_b
            assert list(extracted.coupling) == sorted(extracted.coupling)


class TestDrcGolden:
    def test_clean_cell_identical(self, ota_layout, tech):
        checker = DrcChecker(tech)
        grid = checker.check(ota_layout.cell)
        allpairs = oracle.drc_check(checker, ota_layout.cell)
        assert grid == allpairs == []

    def test_two_stage_identical(self, two_stage_cell, tech):
        checker = DrcChecker(tech)
        assert checker.check(two_stage_cell) == oracle.drc_check(
            checker, two_stage_cell
        )

    def test_dirty_cell_identical_and_ordered(self, dirty_cell, tech):
        checker = DrcChecker(tech)
        grid = checker.check(dirty_cell)
        allpairs = oracle.drc_check(checker, dirty_cell)
        kinds = {v.kind for v in allpairs}
        assert {"short", "spacing", "min_width", "cut_size",
                "enclosure"} <= kinds
        # Same violations in the same order, field for field.
        assert grid == allpairs


class TestGeneratedLayoutsMatchOracle:
    """Extraction and DRC agree with the per-shape oracle on generated
    OTA layouts, not just the fixtures above."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_extraction_and_drc_match(self, tech, data):
        request = data.draw(ota_requests(tech))
        try:
            cell = generate_ota_layout(request, mode="generate").cell
        except LayoutError:
            # Some extreme requests congest the routing channels; that is
            # the generator's typed refusal, not an equivalence question.
            reject()
        _assert_extractions_match(cell, tech)
        checker = DrcChecker(tech)
        assert checker.check(cell) == oracle.drc_check(checker, cell)


class TestFootprintPlacementMatchesEager:
    """Placing by frame footprints and computing parasitics from the
    placed frames' shape enumerations gives exactly the report of the
    build that draws every variant first and extracts the drawn modules
    (:func:`tests.oracles.layout.eager_ota_layout`); ``generate`` draws
    exactly its layout.  On every technology preset."""

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(data=st.data(), preset=st.sampled_from(sorted(PRESETS)),
           mode=st.sampled_from(["estimate", "generate"]))
    def test_matches_eager_build(self, data, preset, mode):
        tech = PRESETS[preset]()
        request = data.draw(ota_requests(tech))
        try:
            want = oracle.eager_ota_layout(request)
        except LayoutError:
            reject()  # routing congestion, as above
        with incremental.using(False):
            got = generate_ota_layout(request, mode=mode)
        assert got.report == want.report
        assert got.fold_config == want.fold_config
        assert list(got.placements) == list(want.placements)
        for name, placed in got.placements.items():
            drawn, dx, dy = want.placements[name]
            assert (placed.dx, placed.dy) == (dx, dy)
            # The placed frame's drawing is the drawn build's module.
            assert (list(placed.frame.cell().flattened())
                    == list(drawn.cell.flattened()))
        if mode == "generate":
            assert list(got.cell.flattened()) == list(want.cell.flattened())
        else:
            assert got.cell is None

    def _count_drawing(self, monkeypatch):
        """Count module drawings, cell and shape constructions."""
        counts = {"draw": 0, "cell": 0, "shape": 0}

        def counting(frame, cell=ModuleFrame.cell):
            counts["draw"] += 1
            return cell(frame)

        monkeypatch.setattr(ModuleFrame, "cell", counting)

        def cell_init(cell, *args, init=Cell.__init__, **kwargs):
            counts["cell"] += 1
            init(cell, *args, **kwargs)

        monkeypatch.setattr(Cell, "__init__", cell_init)

        def shape(*args, make=cell_module.Shape, **kwargs):
            counts["shape"] += 1
            return make(*args, **kwargs)

        monkeypatch.setattr(cell_module, "Shape", shape)
        return counts

    def test_draws_only_placed_modules(self, tech, hand_sized, monkeypatch):
        """Estimate mode constructs no cell and draws no module;
        generate mode draws each placed module once."""
        sizes, currents = hand_sized
        request = OtaLayoutRequest(
            technology=tech, sizes=sizes, currents=currents, aspect=1.0
        )
        counts = self._count_drawing(monkeypatch)
        with incremental.using(False):
            estimate = generate_ota_layout(request, mode="estimate")
        assert counts == {"draw": 0, "cell": 0, "shape": 0}
        assert estimate.cell is None
        with incremental.using(False):
            generated = generate_ota_layout(request, mode="generate")
        assert counts["draw"] == len(generated.placements) == len(
            ota.MODULE_ROWS
        )
        # The ten module cells and the top cell, with every shape drawn.
        assert counts["cell"] == len(ota.MODULE_ROWS) + 1
        drawn = counts["shape"]
        assert drawn == sum(1 for _ in generated.cell.flattened())

    def test_memoized_generate_draws_without_placing(
        self, tech, hand_sized, monkeypatch
    ):
        sizes, currents = hand_sized
        request = OtaLayoutRequest(
            technology=tech, sizes=sizes, currents=currents, aspect=0.5
        )
        incremental.clear()
        estimate = generate_ota_layout(request, mode="estimate")
        monkeypatch.setattr(
            ota, "_generate",
            lambda request: pytest.fail("placed and routed again"),
        )
        counts = self._count_drawing(monkeypatch)
        generated = generate_ota_layout(request, mode="generate")
        assert generated.report is estimate.report
        assert counts["draw"] == len(ota.MODULE_ROWS)
        assert list(generated.cell.flattened()) == list(
            oracle.eager_ota_layout(request).cell.flattened()
        )


class TestGridIndex:
    def _brute(self, rects, window, margin):
        grown = Rect(
            window.x0 - margin, window.y0 - margin,
            window.x1 + margin, window.y1 + margin,
        )
        return [
            i for i, r in enumerate(rects)
            if grown.x0 < r.x1 and r.x0 < grown.x1
            and grown.y0 < r.y1 and r.y0 < grown.y1
        ]

    def test_query_matches_brute_force(self):
        rects = [
            Rect(x * 1.5, y * 2.0, x * 1.5 + 1.0, y * 2.0 + 1.2)
            for x in range(7)
            for y in range(5)
        ]
        index = GridIndex.for_rects(rects)
        for window in (
            Rect(0.0, 0.0, 1.0, 1.0),
            Rect(2.2, 1.1, 6.4, 3.3),
            Rect(-5.0, -5.0, 50.0, 50.0),
            Rect(100.0, 100.0, 101.0, 101.0),
        ):
            for margin in (0.0, 0.7):
                got = index.query(window, margin)
                assert got == self._brute(rects, window, margin)

    def test_results_sorted_and_unique(self):
        rects = [Rect(0, 0, 10, 10) for _ in range(4)]
        index = GridIndex.for_rects(rects)
        hits = index.query(Rect(1, 1, 2, 2))
        assert hits == sorted(set(hits)) == [0, 1, 2, 3]

    def test_incremental_insert(self):
        index = GridIndex.for_rects([Rect(0, 0, 1, 1)])
        index.insert(Rect(0.5, 0.5, 1.5, 1.5))
        assert index.query(Rect(1.2, 1.2, 1.4, 1.4)) == [1]

    def test_query_counter(self):
        index = GridIndex.for_rects([Rect(0, 0, 1, 1)])
        before = index.queries
        index.query(Rect(0, 0, 1, 1))
        index.query(Rect(5, 5, 6, 6))
        assert index.queries == before + 2


class TestIntervalPairs:
    def test_matches_brute_force(self):
        starts = [0.0, 0.5, 2.0, 2.1, 10.0]
        ends = [1.0, 1.5, 3.0, 2.6, 11.0]
        for window in (0.0, 0.5, 5.0):
            ii, jj = interval_pairs(starts, ends, window)
            got = sorted(zip(ii.tolist(), jj.tolist()))
            # Brute force: pairs whose x-extents come within `window`.
            want = sorted(
                (i, j)
                for i in range(len(starts))
                for j in range(i + 1, len(starts))
                if max(starts[i], starts[j]) - min(ends[i], ends[j])
                <= window
            )
            assert got == want

    def test_empty_input(self):
        ii, jj = interval_pairs([], [], 1.0)
        assert ii.size == 0 and jj.size == 0


class TestComposeFrontier:
    def test_matches_direct_stockmeyer(self):
        left = ShapeFunction(
            [ShapePoint(1.0, 4.0), ShapePoint(2.0, 2.5), ShapePoint(4.0, 1.0)]
        )
        right = ShapeFunction([ShapePoint(1.5, 3.0), ShapePoint(3.0, 1.5)])
        direct = ShapeFunction.horizontal(left, right, spacing=0.25)
        combos = compose_frontier(
            "h", [left.points, right.points], 0.25
        )
        rebuilt = [
            (
                left.points[i].width + right.points[j].width + 0.25,
                max(left.points[i].height, right.points[j].height),
            )
            for i, j in combos
        ]
        assert rebuilt == [(p.width, p.height) for p in direct.points]

    def test_vertical_composition(self):
        bottom = ShapeFunction([ShapePoint(1.0, 2.0), ShapePoint(3.0, 1.0)])
        top = ShapeFunction([ShapePoint(2.0, 2.0), ShapePoint(4.0, 0.5)])
        direct = ShapeFunction.vertical(bottom, top, spacing=0.1)
        combos = compose_frontier(
            "v", [bottom.points, top.points], 0.1
        )
        rebuilt = [
            (
                max(bottom.points[i].width, top.points[j].width),
                bottom.points[i].height + top.points[j].height + 0.1,
            )
            for i, j in combos
        ]
        assert rebuilt == [(p.width, p.height) for p in direct.points]
