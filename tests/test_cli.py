"""Command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.technology == "0.6um"
        assert args.gbw == 65.0

    def test_spec_overrides(self):
        args = build_parser().parse_args(
            ["synthesize", "--gbw", "40", "--cload", "5", "--vdd", "5.0"]
        )
        assert args.gbw == 40.0
        assert args.cload == 5.0
        assert args.vdd == 5.0

    def test_monitor_flag_shapes(self):
        parser = build_parser()
        assert parser.parse_args(["synthesize"]).monitor is None
        # Bare --monitor means heartbeat only (no HTTP server).
        assert parser.parse_args(["synthesize", "--monitor"]).monitor == -1
        assert parser.parse_args(["table1", "--monitor", "0"]).monitor == 0
        args = parser.parse_args(["flows", "--monitor", "8123"])
        assert args.monitor == 8123

    def test_positive_values_parse(self):
        parser = build_parser()
        assert parser.parse_args(["table1", "--jobs", "2"]).jobs == 2
        args = parser.parse_args(["figure2", "--max-folds", "1"])
        assert args.max_folds == 1
        args = parser.parse_args(["synthesize", "--deadline", "0.5"])
        assert args.deadline == 0.5

    @pytest.mark.parametrize("argv", [
        ["table1", "--jobs", "0"],
        ["flows", "--jobs", "-3"],
        ["profile", "run.jsonl", "--top", "-1"],
        ["profile", "run.jsonl", "--top", "0"],
        ["figure2", "--max-folds", "0"],
        ["figure2", "--max-folds", "-2"],
        ["synthesize", "--deadline", "0"],
        ["synthesize", "--deadline", "-1"],
        ["table1", "--jobs", "two"],
        ["synthesize", "--deadline", "soon"],
    ])
    def test_non_positive_values_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {argv[-2]}: " in captured.err

    def test_profile_flags(self):
        args = build_parser().parse_args(
            ["profile", "run.jsonl", "--top", "7", "--collapsed", "c.txt"]
        )
        assert args.file == "run.jsonl"
        assert args.top == 7
        assert args.collapsed == "c.txt"


class TestCommands:
    def test_unknown_fault_site_is_a_usage_error(self, capsys, monkeypatch):
        from repro.resilience import faults

        monkeypatch.setenv(
            "REPRO_FAULTS", "process.kil:at=2,action=crash"
        )
        assert main(["figure2", "--max-folds", "2"]) == 2
        captured = capsys.readouterr()
        assert "unknown fault site 'process.kil'" in captured.err
        assert "process.kill" in captured.err
        assert captured.out == ""
        assert not faults.active()

    def test_corners_naming_no_corner_is_a_usage_error(self, capsys):
        assert main(["table1", "--corners", ","]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --corners ',' names no corner\n"

    def test_figure2_prints_curve(self, capsys):
        assert main(["figure2", "--max-folds", "6"]) == 0
        out = capsys.readouterr().out
        assert "0.5000" in out
        assert "0.6667" in out

    def test_figure3_prints_stack(self, capsys, tmp_path):
        svg = tmp_path / "mirror.svg"
        assert main(["figure3", "--svg", str(svg)]) == 0
        out = capsys.readouterr().out
        assert "centroid" in out
        assert svg.stat().st_size > 1000

    def test_evaluate_ranks(self, capsys):
        assert main(["evaluate", "--gbw", "65"]) == 0
        out = capsys.readouterr().out
        assert "generic-0.35um" in out
        assert "headroom" in out

    def test_synthesize_runs(self, capsys, tmp_path):
        svg = tmp_path / "ota.svg"
        code = main([
            "synthesize", "--gbw", "30", "--cload", "2",
            "--svg", str(svg),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "converged in" in captured.out
        assert "GBW" in captured.out
        # Prose notices go to stderr; stdout carries the machine line.
        assert "layout written to" in captured.err
        assert f"svg: {svg}" in captured.out
        assert svg.stat().st_size > 10_000

    def test_synthesize_with_trace_writes_replayable_jsonl(
        self, capsys, tmp_path
    ):
        trace = tmp_path / "run.jsonl"
        code = main([
            "synthesize", "--gbw", "30", "--cload", "2",
            "--trace", str(trace),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert f"trace: {trace}" in captured.out
        assert "trace written to" in captured.err
        assert trace.stat().st_size > 0

        from repro.telemetry import read_jsonl, summarize

        summary = summarize(read_jsonl(str(trace)))
        # The acceptance shape: per-round solver activity and layout
        # call modes are all recoverable from the exported trace.
        assert summary.span_count("synthesis.round") >= 3
        assert summary.counter("solver.solves") > 0
        assert summary.counter("solver.rung.direct-newton") > 0
        assert summary.counter("layout.calls.estimate") >= 3
        assert summary.counter("layout.calls.generate") == 1
        for round_span in summary.spans("synthesis.round"):
            counts = round_span.totals
            assert counts.get("solver.solves", 0) > 0
            assert counts.get("layout.calls.estimate", 0) == 1

        # And the trace subcommand replays it.
        assert main(["trace", str(trace)]) == 0
        replay = capsys.readouterr()
        assert "cli.synthesize" in replay.out
        assert "synthesis.round" in replay.out

        assert main(["trace", str(trace), "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-trace-summary-v1"
        assert payload["counters"]["synthesis.rounds"] >= 3

    def test_trace_missing_file_is_an_error(self, capsys):
        assert main(["trace", "/nonexistent/trace.jsonl"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_profile_reports_self_time_and_collapsed(
        self, capsys, tmp_path
    ):
        trace = tmp_path / "run.jsonl"
        assert main([
            "synthesize", "--gbw", "30", "--cload", "2",
            "--trace", str(trace),
        ]) == 0
        capsys.readouterr()  # drain the synthesize output

        collapsed = tmp_path / "collapsed.txt"
        code = main([
            "profile", str(trace), "--top", "25",
            "--collapsed", str(collapsed),
        ])
        assert code == 0
        captured = capsys.readouterr()
        # Table header plus the hot spans from the synthesis loop.
        assert "self (s)" in captured.out
        assert "synthesis.round" in captured.out
        assert f"collapsed: {collapsed}" in captured.out

        # Collapsed stacks are flamegraph.pl-compatible: each line is
        # "root;child;... <integer microseconds>".
        lines = collapsed.read_text().splitlines()
        assert lines
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert stack
            assert int(value) > 0
        assert any(
            "synthesis.round" in line.rsplit(" ", 1)[0] for line in lines
        )

    def test_profile_missing_file_is_an_error(self, capsys):
        assert main(["profile", "/nonexistent/trace.jsonl"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err
