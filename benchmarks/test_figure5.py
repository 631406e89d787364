"""Figure 5 — generated layout of the case-4 OTA.

Generates the final layout of the layout-oriented synthesis and checks
the paper's remarks about it:

* "all transistor folds are chosen such that drains are internal
  diffusions to minimize drain capacitance";
* "the input differential pair is in a common centroid style with dummy
  transistors at the end".

The cell is exported to SVG and GDSII under ``benchmarks/results/``.
"""

import pytest

from repro.layout.folding import capacitance_reduction_factor, DiffusionPosition
from repro.layout.gds import write_gds
from repro.layout.svg import write_svg
from repro.units import UM


@pytest.fixture(scope="module")
def layout(synthesis_outcome, results_dir):
    result = synthesis_outcome.layout
    write_svg(result.cell, str(results_dir / "figure5_ota.svg"), scale=6)
    write_gds(result.cell, str(results_dir / "figure5_ota.gds"))
    print(
        "\nFigure 5 layout: %.1f x %.1f um, folds %s"
        % (result.report.width / UM, result.report.height / UM,
           result.fold_config)
    )
    return result


def test_benchmark_generation_mode(benchmark, synthesis_outcome, tech):
    """Time the generation-mode layout call for the converged sizes."""
    from repro.layout.ota import OtaLayoutRequest, generate_ota_layout

    sizing = synthesis_outcome.sizing
    request = OtaLayoutRequest(
        technology=tech, sizes=sizing.sizes, currents=sizing.currents,
        aspect=1.0,
    )
    result = benchmark.pedantic(
        generate_ota_layout, args=(request,), kwargs={"mode": "generate"},
        rounds=1, iterations=1,
    )
    assert result.cell is not None


class TestFigure5Claims:
    def test_drains_internal_on_folded_devices(self, layout):
        """Even fold counts put every drain on internal diffusions: the
        drain sees F = 1/2 of its unfolded capacitance."""
        for name, info in layout.report.devices.items():
            if info.nf >= 2:
                assert info.nf % 2 == 0, name
                assert info.drain_internal, name

    def test_drain_capacitance_actually_halved(self, layout, tech):
        info = layout.report.devices["mp1"]
        if info.nf >= 2:
            finger = info.finger_width
            internal = tech.rules.contacted_diffusion_width
            strips = info.nf // 2
            assert info.geometry.ad == pytest.approx(
                strips * finger * internal, rel=0.01
            )

    def test_input_pair_common_centroid_with_dummies(self, layout):
        pair = layout.placements["pair"].frame
        assert pair.plan is not None
        dummies = [f for f in pair.plan.fingers if f.is_dummy]
        assert len(dummies) == 2
        assert pair.plan.centroid_offset("mp1") == 0.0
        assert pair.plan.centroid_offset("mp2") == 0.0

    def test_row_structure_matches_figure(self, layout):
        """Input pair between the NMOS row and the PMOS rows."""
        from repro.layout.ota import MODULE_ROWS

        pair_row = MODULE_ROWS["pair"][0]
        assert MODULE_ROWS["sink"][0] < pair_row
        assert MODULE_ROWS["mirror"][0] > pair_row

    def test_area_compact(self, layout):
        """The layout is a compact block, not a degenerate strip."""
        aspect = layout.report.height / layout.report.width
        assert 0.4 < aspect < 2.5

    def test_exports_written(self, layout, results_dir):
        assert (results_dir / "figure5_ota.svg").stat().st_size > 10_000
        assert (results_dir / "figure5_ota.gds").stat().st_size > 10_000

    def test_layout_is_drc_clean(self, layout, tech):
        """The generated Figure-5 layout passes width/spacing/short/
        enclosure checks — procedural correctness by construction."""
        from repro.layout.drc import DrcChecker

        DrcChecker(tech).assert_clean(layout.cell)
