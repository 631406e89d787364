"""Table-1 report formatting."""

import pytest

from repro.core.cases import run_case
from repro.core.report import (
    SERVED_FOOTNOTE,
    TABLE1_ROWS,
    format_table1,
    metrics_rows,
)
from repro.layout import incremental
from repro.sizing.specs import ParasiticMode


class TestMetricsRows:
    def test_all_rows_present(self, case4_result):
        rows = metrics_rows(case4_result.synthesized)
        assert len(rows) == len(TABLE1_ROWS)
        assert "GBW (MHz)" in rows

    def test_scaling_applied(self, case4_result):
        rows = metrics_rows(case4_result.synthesized)
        assert rows["GBW (MHz)"] == pytest.approx(
            case4_result.synthesized.gbw / 1e6
        )
        assert rows["Power dissipation (mW)"] == pytest.approx(
            case4_result.synthesized.power * 1e3
        )


class TestFormatTable1:
    def test_paper_layout(self, case4_result):
        table = format_table1([case4_result])
        assert "Case (4)" in table
        assert "DC gain (dB)" in table
        assert "Phase margin (degrees)" in table

    def test_bracket_convention(self, case4_result):
        """Every cell is synthesized(extracted), as in the paper."""
        table = format_table1([case4_result])
        gbw_line = next(l for l in table.splitlines() if l.startswith("GBW"))
        assert "(" in gbw_line and ")" in gbw_line

    def test_layout_calls_row(self, case4_result):
        table = format_table1([case4_result])
        assert "Layout tool calls" in table

    def test_multiple_columns(self, case4_result):
        table = format_table1([case4_result, case4_result])
        header = table.splitlines()[1]
        assert header.count("Case (4)") == 2

    def test_custom_title(self, case4_result):
        table = format_table1([case4_result], title="My experiment")
        assert table.startswith("My experiment")


class TestServedSizingTime:
    """A sizing time that leaves out memo-served rounds is marked."""

    @pytest.fixture(scope="class")
    def cold_and_warm(self, tech, specs):
        incremental.clear()
        cold = run_case(tech, specs, ParasiticMode.FULL)
        warm = run_case(tech, specs, ParasiticMode.FULL)
        return cold, warm

    def test_sources_recorded(self, cold_and_warm):
        cold, warm = cold_and_warm
        assert cold.sizing_sources == ("computed",) * cold.layout_calls
        assert not cold.sizing_served
        assert warm.sizing_sources == ("memo",) * warm.layout_calls
        assert warm.sizing_served
        assert warm.fingerprint() == cold.fingerprint()

    def test_warm_cell_marked_cold_not(self, cold_and_warm):
        cold, warm = cold_and_warm
        table = format_table1([cold, warm])
        line = next(
            l for l in table.splitlines() if l.startswith("Sizing time")
        )
        cold_cell, warm_cell = line.split()[-2:]
        assert not cold_cell.endswith("*")
        assert warm_cell.endswith("*")
        assert SERVED_FOOTNOTE in table.splitlines()

    def test_cold_table_has_no_footnote(self, cold_and_warm):
        cold, _warm = cold_and_warm
        assert SERVED_FOOTNOTE not in format_table1([cold])

    def test_non_layout_case_is_computed(self, tech, specs):
        case1 = run_case(tech, specs, ParasiticMode.NONE)
        assert case1.sizing_sources == ("computed",)
