"""The CAIRO-style procedural layout language."""

import pytest

from repro.errors import LayoutError
from repro.layout.cairo import CairoProgram
from repro.units import UM


@pytest.fixture
def mirror_program(tech):
    program = CairoProgram(tech, "mirror_example")
    program.mirror(
        "mir", "n", {"m1": 1, "m2": 3, "m3": 6},
        unit_width=5 * UM, l=2 * UM,
        drains={"m1": "bias", "m2": "o2", "m3": "o3"},
        gate="bias", source="0", bulk="0",
        currents={"m1": 100e-6, "m2": 300e-6, "m3": 600e-6},
    )
    program.device("cas", "n", 20 * UM, 1 * UM, ("out", "vc", "o2", "0"),
                   nf=2, current=300e-6)
    program.row("mir")
    program.row("cas")
    program.net_current("o2", 300e-6)
    return program


class TestProgramStructure:
    def test_duplicate_module_rejected(self, tech):
        program = CairoProgram(tech)
        program.device("a", "n", 10 * UM, 1 * UM, ("d", "g", "s", "b"))
        with pytest.raises(LayoutError):
            program.device("a", "n", 10 * UM, 1 * UM, ("d", "g", "s", "b"))

    def test_unknown_module_in_row_rejected(self, tech):
        program = CairoProgram(tech)
        with pytest.raises(LayoutError):
            program.row("ghost")

    def test_no_rows_rejected(self, tech):
        program = CairoProgram(tech)
        program.device("a", "n", 10 * UM, 1 * UM, ("d", "g", "s", "b"))
        with pytest.raises(LayoutError):
            program.calculate_parasitics()


class TestParasiticMode:
    def test_report_covers_all_devices(self, mirror_program):
        report = mirror_program.calculate_parasitics()
        assert set(report.devices) == {"m1", "m2", "m3", "cas"}

    def test_shared_net_capacitance(self, mirror_program):
        report = mirror_program.calculate_parasitics()
        assert report.net_capacitance["o2"] > 0

    def test_device_reports_declared_drain_style(self, tech):
        program = CairoProgram(tech)
        program.device("ext", "n", 40 * UM, 1 * UM, ("d1", "g", "s", "0"),
                       nf=4, drain_internal=False)
        program.device("int", "n", 40 * UM, 1 * UM, ("d2", "g", "s", "0"),
                       nf=4)
        program.row("ext", "int")
        report = program.calculate_parasitics()
        assert report.devices["ext"].drain_internal is False
        assert report.devices["int"].drain_internal is True

    def test_area_reported(self, mirror_program):
        report = mirror_program.calculate_parasitics()
        assert report.width > 10 * UM
        assert report.height > 10 * UM


class TestGenerateMode:
    def test_cell_and_report(self, mirror_program):
        cell, report = mirror_program.generate()
        assert len(list(cell.flattened())) > 50
        assert report.net_capacitance

    def test_shape_constraint_respected(self, tech):
        def build(aspect):
            program = CairoProgram(tech)
            program.device("a", "n", 80 * UM, 1 * UM, ("d1", "g1", "s", "0"),
                           nf=4)
            program.device("b", "n", 80 * UM, 1 * UM, ("d2", "g2", "s", "0"),
                           nf=4)
            program.row("a")
            program.row("b")
            program.shape(aspect=aspect)
            return program.calculate_parasitics()

        square = build(1.0)
        assert square.width > 0

    def test_single_row_program(self, tech):
        program = CairoProgram(tech)
        program.device("a", "n", 20 * UM, 1 * UM, ("d", "g", "s", "0"), nf=2)
        program.row("a")
        cell, report = program.generate()
        assert "d" in report.net_capacitance

    def test_pair_declaration(self, tech):
        program = CairoProgram(tech)
        program.pair(
            "p1", "p", 40 * UM, 1 * UM, nf=2,
            names=("ma", "mb"), drains=("da", "db"), gates=("ga", "gb"),
            source="tail", bulk="vdd!",
        )
        program.row("p1")
        report = program.calculate_parasitics()
        assert set(report.devices) == {"ma", "mb"}
        assert report.well_capacitance.get("vdd!", 0.0) > 0
