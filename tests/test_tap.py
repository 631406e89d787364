"""Substrate/well tap generator and its integration."""

import pytest

from repro.errors import LayoutError
from repro.layout.drc import DrcChecker
from repro.layout.layers import Layer
from repro.layout.tap import tap_column, taps_needed
from repro.units import UM


class TestTapColumn:
    @pytest.fixture(scope="class")
    def substrate_tap(self, tech):
        return tap_column(tech, "substrate", "0", 15 * UM, name="ntap")

    @pytest.fixture(scope="class")
    def well_tap(self, tech):
        return tap_column(tech, "well", "vdd!", 15 * UM, name="welltap")

    def test_substrate_tap_uses_p_implant(self, substrate_tap):
        assert substrate_tap.cell.shapes_on(Layer.PIMPLANT)
        assert not substrate_tap.cell.shapes_on(Layer.NWELL)

    def test_well_tap_has_well_and_n_implant(self, well_tap):
        assert well_tap.cell.shapes_on(Layer.NIMPLANT)
        wells = well_tap.cell.shapes_on(Layer.NWELL)
        assert wells and wells[0].net == "vdd!"

    def test_contacts_fill_column(self, substrate_tap, tech):
        contacts = substrate_tap.cell.shapes_on(Layer.CONTACT)
        assert len(contacts) >= 4
        assert all(s.net == "0" for s in contacts)

    def test_pin_at_top_edge(self, substrate_tap):
        pin = substrate_tap.cell.pin_rect("0")
        box = substrate_tap.cell.bbox()
        assert pin.center.y > box.center.y

    def test_drc_clean(self, substrate_tap, well_tap, tech):
        checker = DrcChecker(tech)
        checker.assert_clean(substrate_tap.cell)
        checker.assert_clean(well_tap.cell)

    def test_bad_kind_rejected(self, tech):
        with pytest.raises(LayoutError):
            tap_column(tech, "moon", "0", 15 * UM)

    def test_too_short_rejected(self, tech):
        with pytest.raises(LayoutError):
            tap_column(tech, "substrate", "0", 0.1 * UM)


class TestTapPitchRule:
    def test_narrow_row_one_tap(self, tech):
        assert taps_needed(20 * UM, tech) == 1

    def test_wide_row_more_taps(self, tech):
        pitch = tech.rules.well_contact_pitch
        assert taps_needed(2.5 * pitch, tech) == 3


class TestOtaIntegration:
    def test_ota_includes_both_taps(self, ota_layout):
        assert "ntap" in ota_layout.placements
        assert "welltap" in ota_layout.placements

    def test_taps_tie_the_rails(self, ota_layout):
        ntap = ota_layout.placements["ntap"]
        welltap = ota_layout.placements["welltap"]
        assert "0" in ntap.frame.cell().pins
        assert "vdd!" in welltap.frame.cell().pins

    def test_tap_in_dsl(self, tech):
        from repro.layout.cairo import CairoProgram

        program = CairoProgram(tech)
        program.device("m", "n", 20 * UM, 1 * UM, ("d", "g", "s", "0"), nf=2)
        program.tap("ptap", "substrate", "0", 10 * UM)
        program.row("m", "ptap")
        cell, report = program.generate()
        DrcChecker(tech).assert_clean(cell)
        assert report.net_capacitance.get("0", 0.0) > 0
