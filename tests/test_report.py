"""Table-1 report formatting."""

import dataclasses

import pytest

from repro.core.batch import BatchTask, run_batch
from repro.core.cases import run_case
from repro.core.report import (
    SERVED_FOOTNOTE,
    TABLE1_ROWS,
    format_table1,
    metrics_rows,
)
from repro.layout import incremental
from repro.resilience import faults
from repro.resilience.faults import SimulatedKill
from repro.resilience.journal import RunJournal
from repro.runtime import artifacts
from repro.sizing.specs import ParasiticMode, SpecMiss


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


class TestSizingStatus:
    """Each case's final sizing status, with the specs a miss left out."""

    @staticmethod
    def _missed(result):
        sizing = dataclasses.replace(
            result.sizing,
            status="knobs_exhausted",
            iterations=9,
            misses=(
                SpecMiss("gbw", 65e6, 58.2e6),
                SpecMiss("phase_margin", 65.0, 61.3),
            ),
        )
        return dataclasses.replace(result, sizing=sizing)

    def test_status_row(self, case4_result):
        table = format_table1([case4_result, self._missed(case4_result)])
        line = next(
            l for l in table.splitlines() if l.startswith("Sizing status")
        )
        assert line.split()[-2:] == ["met", "knobs_exhausted"]

    def test_footnote_names_each_miss(self, case4_result):
        table = format_table1([case4_result, self._missed(case4_result)])
        assert table.splitlines()[-1] == (
            "Case (4) sizing knobs_exhausted after 9 iterations: "
            "gbw 58.2 MHz (target 65.0), "
            "phase_margin 61.3 deg (target 65.0)"
        )

    def test_met_cases_have_no_footnote(self, case4_result):
        table = format_table1([case4_result])
        assert table.splitlines()[-1].startswith("Sizing status")


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


def _cheap_tasks(specs):
    """Two fast non-layout cases (sizing only, no synthesis loop)."""
    return [
        BatchTask(kind="case", technology="0.6um", specs=specs,
                  mode=mode.name)
        for mode in (ParasiticMode.NONE, ParasiticMode.SINGLE_FOLD)
    ]


def _sizing_cells(results):
    table = format_table1(results)
    line = next(l for l in table.splitlines() if l.startswith("Sizing time"))
    return line.split()[-len(results):], table


class TestRestoredSizingTime:
    """A batch-restored case shows the original run's sizing time, so
    every one of its rounds is marked as not computed in this run."""

    def test_warm_cache_marks_every_restored_case(self, specs, tmp_path):
        with artifacts.using(str(tmp_path)):
            cold = run_batch(_cheap_tasks(specs), jobs=1)
            warm = run_batch(_cheap_tasks(specs), jobs=1)
        assert [s.status for s in warm.statuses] == ["cached", "cached"]
        for result in cold.results:
            assert set(result.sizing_sources) == {"computed"}
        for result in warm.results:
            assert set(result.sizing_sources) == {"disk"}
        assert [r.fingerprint() for r in warm.results] == [
            r.fingerprint() for r in cold.results
        ]
        cells, table = _sizing_cells(warm.results)
        assert all(cell.endswith("*") for cell in cells)
        assert SERVED_FOOTNOTE in table.splitlines()
        cold_cells, _ = _sizing_cells(cold.results)
        assert not any(cell.endswith("*") for cell in cold_cells)

    def test_resume_marks_journaled_cases(self, specs, tmp_path):
        clean = run_batch(_cheap_tasks(specs), jobs=1)
        run_dir = str(tmp_path / "run")
        journal = RunJournal.create(run_dir, "table1")
        with pytest.raises(SimulatedKill):
            with faults.inject("process.kill", at=1):
                run_batch(_cheap_tasks(specs), jobs=1, journal=journal)
        journal.close()
        resumed = RunJournal.resume(run_dir, kind="table1")
        batch = run_batch(_cheap_tasks(specs), jobs=1, journal=resumed)
        resumed.complete()
        resumed.close()
        assert [s.status for s in batch.statuses] == ["journaled", "serial"]
        assert set(batch.results[0].sizing_sources) == {"journal"}
        assert set(batch.results[1].sizing_sources) == {"computed"}
        assert [r.fingerprint() for r in batch.results] == [
            r.fingerprint() for r in clean.results
        ]
        journaled, computed = _sizing_cells(batch.results)[0]
        assert journaled.endswith("*") and not computed.endswith("*")
