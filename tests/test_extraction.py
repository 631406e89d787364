"""Geometric extraction (the independent 'Cadence' role)."""

import pytest
from hypothesis import given, reject, settings, strategies as st

from repro.circuit.net import canonical
from repro.errors import LayoutError
from repro.layout.extraction import annotate_circuit, extract_cell
from repro.layout.motif import generate_mos_motif
from repro.layout.ota import OtaLayoutRequest, generate_ota_layout
from repro.units import UM
from tests.conftest import JITTER, PRESETS


class TestMotifExtraction:
    """Extraction re-derives what the motif generator drew."""

    @pytest.fixture(scope="class")
    def extracted(self, tech):
        motif = generate_mos_motif(
            tech, "n", 40 * UM, 1 * UM, nf=4,
            net_d="fold1", net_g="vc1", net_s="0",
        )
        return motif, extract_cell(motif.cell, tech)

    def test_drain_diffusion_rederived(self, extracted, tech):
        motif, result = extracted
        area, _perimeter = result.diffusion[("fold1", "n")]
        assert area == pytest.approx(motif.geometry.ad, rel=0.01)

    def test_source_diffusion_rederived(self, extracted):
        motif, result = extracted
        area, _perimeter = result.diffusion[("0", "n")]
        assert area == pytest.approx(motif.geometry.as_, rel=0.01)

    def test_polarity_tagged(self, extracted):
        _motif, result = extracted
        assert all(polarity == "n" for _net, polarity in result.diffusion)

    def test_wire_caps_cover_terminals(self, extracted):
        _motif, result = extracted
        assert result.net_wire_cap["fold1"] > 0
        assert result.net_wire_cap["vc1"] > 0

    def test_gate_poly_over_channel_excluded(self, tech):
        """Gate poly over active is channel charge, not wire capacitance:
        the same gate on a wider device must not add proportional cap."""
        narrow = generate_mos_motif(tech, "n", 10 * UM, 1 * UM, nf=1,
                                    net_g="g")
        wide = generate_mos_motif(tech, "n", 60 * UM, 1 * UM, nf=1,
                                  net_g="g")
        cap_narrow = extract_cell(narrow.cell, tech).net_wire_cap["g"]
        cap_wide = extract_cell(wide.cell, tech).net_wire_cap["g"]
        # Channel area grew 6x; wire cap should grow much less.
        assert cap_wide < 3 * cap_narrow

    def test_pmos_wells_extracted(self, tech):
        motif = generate_mos_motif(tech, "p", 40 * UM, 1 * UM, nf=2,
                                   net_b="vdd!")
        result = extract_cell(motif.cell, tech)
        area, perimeter = result.well["vdd!"]
        assert area == pytest.approx(motif.well_rect.area)
        assert perimeter == pytest.approx(motif.well_rect.perimeter)


class TestCouplingExtraction:
    def test_adjacent_gates_couple(self, tech):
        motif = generate_mos_motif(tech, "n", 40 * UM, 1 * UM, nf=4,
                                   net_d="d", net_g="g", net_s="s")
        result = extract_cell(motif.cell, tech)
        # Vertical drain/source metal-1 straps run parallel to gates.
        assert any("g" in pair for pair in result.coupling)

    def test_coupling_symmetric_keys(self, ota_extraction):
        for net_a, net_b in ota_extraction.coupling:
            assert net_a <= net_b

    def test_fold_nodes_couple_in_channel(self, ota_extraction):
        assert ota_extraction.coupling.get(("fold1", "fold2"), 0.0) > 0


class TestOtaExtraction:
    def test_estimate_close_to_extraction(self, ota_layout, ota_extraction):
        """The paper's case-4 premise: the layout tool's estimate tracks
        the extractor within a few percent per net."""
        for net, extracted in ota_extraction.net_wire_cap.items():
            estimated = ota_layout.report.net_capacitance.get(net, 0.0)
            assert estimated == pytest.approx(extracted, rel=0.12), net

    def test_extraction_slightly_pessimistic(self, ota_layout, ota_extraction):
        total_extracted = sum(ota_extraction.net_wire_cap.values())
        total_estimated = sum(ota_layout.report.net_capacitance.values())
        assert total_extracted >= total_estimated * 0.98

    def test_diffusion_on_both_polarities_at_fold(self, ota_extraction):
        assert ("fold1", "n") in ota_extraction.diffusion
        assert ("fold1", "p") in ota_extraction.diffusion


class TestEstimatorTracksExtraction:
    """The paper's case-4 premise on generated layouts, not one fixture.

    Folded cascodes sized for each preset, every width jittered by up to
    +/-30 %, at a random aspect and fold preference: the estimate-mode
    report's capacitance on every extracted net is within 8 % of the
    extractor's.  Over these 200 examples the worst net is ``x4`` on
    the 0.8 um preset at 6.6 % (0.35 um: 4.6 %, 0.6 um: 5.1 %, also
    ``x4``), the estimate below the extraction.
    """

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        preset=st.sampled_from(sorted(PRESETS)),
        factors=JITTER,
        aspect=st.sampled_from([0.5, 1.0, 2.0]),
        prefer_even=st.booleans(),
    )
    def test_estimate_within_bound(self, sized_designs, preset, factors,
                                   aspect, prefer_even):
        plan, sizing, _specs = sized_designs[preset, "folded_cascode"]
        tech = plan.technology
        request = OtaLayoutRequest(
            technology=tech,
            sizes={
                device: (width * factor, length)
                for (device, (width, length)), factor in zip(
                    sorted(sizing.sizes.items()), factors
                )
            },
            currents=sizing.currents,
            aspect=aspect,
            prefer_even_folds=prefer_even,
        )
        try:
            estimate = generate_ota_layout(request, mode="estimate")
        except LayoutError:
            reject()  # routing congestion: the generator's typed refusal
        cell = generate_ota_layout(request, mode="generate").cell
        extracted = extract_cell(cell, tech).net_wire_cap
        for net, value in extracted.items():
            estimated = estimate.report.net_capacitance.get(net, 0.0)
            assert estimated == pytest.approx(value, rel=0.08), net


class TestAnnotation:
    def test_devices_get_geometry(self, tech, ota_layout, ota_extraction,
                                  hand_testbench):
        annotated = annotate_circuit(
            hand_testbench.circuit, ota_extraction, tech
        )
        mp1 = annotated.mos("mp1")
        assert mp1.geometry is not None
        assert mp1.geometry.ad > 0

    def test_parasitic_caps_attached(self, tech, ota_extraction,
                                     hand_testbench):
        annotated = annotate_circuit(
            hand_testbench.circuit, ota_extraction, tech
        )
        assert annotated.total_parasitic_on_net("fold1") > 10e-15

    def test_original_untouched(self, tech, ota_extraction, hand_testbench):
        annotate_circuit(hand_testbench.circuit, ota_extraction, tech)
        assert hand_testbench.circuit.total_parasitic_on_net("fold1") == 0.0

    def test_width_weighted_distribution(self, tech, ota_extraction,
                                         hand_testbench):
        """Devices sharing a net split its diffusion by width."""
        annotated = annotate_circuit(
            hand_testbench.circuit, ota_extraction, tech
        )
        mn5 = annotated.mos("mn5")     # drain on fold1
        mn1c = annotated.mos("mn1c")   # source on fold1
        total = mn5.geometry.ad + mn1c.geometry.as_
        extracted_area, _ = ota_extraction.diffusion[("fold1", "n")]
        assert total == pytest.approx(extracted_area, rel=1e-6)

    def test_supply_well_not_grounded_as_signal(self, tech, ota_extraction,
                                                hand_testbench):
        annotated = annotate_circuit(
            hand_testbench.circuit, ota_extraction, tech,
            supply_nets=("vdd!", "0"),
        )
        # The vdd! well cap must not appear as a vdd-to-ground parasitic
        # burden on signal nets; check no capacitor named for the well.
        well_caps = [
            c for c in annotated.capacitors
            if c.parasitic and canonical(c.a) == "vdd!" and c.value > 500e-15
        ]
        assert not well_caps


