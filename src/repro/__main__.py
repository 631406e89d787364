"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's experiments:

* ``table1``      — the four parasitic-awareness cases (Table 1);
* ``synthesize``  — layout-oriented synthesis for custom specs (Fig 1b);
* ``flows``       — traditional vs layout-oriented flow comparison;
* ``figure2``     — the capacitance reduction factor curves;
* ``figure3``     — the 1:3:6 current-mirror stack;
* ``evaluate``    — technology characterisation and ranking;
* ``trace``       — replay a JSONL telemetry trace written by ``--trace``;
* ``profile``     — self-time per span name of such a trace.

Output discipline: stdout carries the command's report (tables, metrics,
machine-readable ``key: path`` lines); progress notices and diagnostics go
to stderr, so stdout stays pipeable.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional

from repro.errors import (
    BudgetExceededError,
    ConvergenceError,
    JournalError,
    ReproError,
    RunInterrupted,
)
from repro.sizing.specs import OtaSpecs, ParasiticMode
from repro.technology import generic_035, generic_060, generic_080
from repro.units import UM

#: Exit code of a run stopped cleanly by SIGINT/SIGTERM with a resumable
#: journal checkpoint on disk.
EXIT_INTERRUPTED = 3


def dump_failure(error: ReproError) -> None:
    """Structured stderr dump of a typed failure (diagnostics included)."""
    print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
    if isinstance(error, BudgetExceededError):
        if error.site is not None:
            print(f"  budget tripped at: {error.site}", file=sys.stderr)
        if error.elapsed is not None:
            print(f"  elapsed: {error.elapsed:.3f} s", file=sys.stderr)
        records = error.partial or []
        if records:
            print(f"  completed rounds before expiry: {len(records)}",
                  file=sys.stderr)
            for record in records:
                distance = (
                    "inf" if record.distance == float("inf")
                    else f"{record.distance:.3e} F"
                )
                print(f"    round {record.round_index}: parasitic distance "
                      f"{distance}", file=sys.stderr)
    report = getattr(error, "report", None)
    if report is None and isinstance(error.__cause__, ConvergenceError):
        report = error.__cause__.report
    if report is not None:
        for line in report.summary().splitlines():
            print(f"  {line}", file=sys.stderr)

_TECHNOLOGIES = {
    "0.35um": generic_035,
    "0.6um": generic_060,
    "0.8um": generic_080,
}


def _positive_int(text: str) -> int:
    """argparse type of ``--jobs``, ``--top`` and ``--max-folds``: an
    integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type of ``--deadline``: a number > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _add_technology_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--technology", choices=sorted(_TECHNOLOGIES), default="0.6um",
        help="process preset (default: the paper's 0.6um)",
    )


def _specs_from_args(args: argparse.Namespace) -> OtaSpecs:
    return OtaSpecs(
        vdd=args.vdd,
        gbw=args.gbw * 1e6,
        phase_margin=args.phase_margin,
        cload=args.cload * 1e-12,
        input_cm_range=(0.55 * args.vdd / 3.3, 1.84 * args.vdd / 3.3),
        output_range=(0.51 * args.vdd / 3.3, 2.31 * args.vdd / 3.3),
    )


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record a JSONL telemetry trace of the run to FILE "
             "(replay it with 'python -m repro trace FILE', profile it "
             "with 'python -m repro profile FILE')",
    )


def _add_monitor_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--monitor", metavar="PORT", nargs="?", const=-1, type=int,
        default=None,
        help="live progress heartbeat on stderr (units done/total, ETA, "
             "last-unit seconds); with PORT also serve GET /metrics "
             "(Prometheus text) and /status (JSON) on 127.0.0.1:PORT "
             "(0 picks a free port); results stay bit-identical",
    )


def _add_metrics_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="write a Prometheus text snapshot of the run's counters and "
             "histograms to FILE at exit (observation only; results stay "
             "bit-identical)",
    )


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", metavar="DIR", nargs="?", const="", default=None,
        help="enable the cross-run artifact cache rooted at DIR (no "
             "value: ~/.cache/repro); later runs with identical inputs "
             "are served from disk, bit-identical to a cold run",
    )
    parser.add_argument(
        "--no-incremental", action="store_true",
        help="disable the differential layout/sizing caches and recompute "
             "every round from scratch (results are bit-identical either "
             "way; this flag only trades wall-clock for memory)",
    )


def _configure_runtime(args: argparse.Namespace) -> None:
    """Apply --cache-dir / --no-incremental before any dispatch."""
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is not None:
        from repro.runtime import artifacts

        root = artifacts.default_root() if cache_dir == "" else cache_dir
        artifacts.configure(root)
        print(f"artifact cache: {root}", file=sys.stderr)
    if getattr(args, "no_incremental", False):
        from repro.layout import incremental

        incremental.set_on(False)


def _add_journal_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--journal", metavar="RUN_DIR", default=None,
        help="journal completed units of work to RUN_DIR/journal.jsonl "
             "(crash-safe; continue a killed run with --resume RUN_DIR)",
    )
    group.add_argument(
        "--resume", metavar="RUN_DIR", default=None,
        help="resume a journaled run: restore completed units from "
             "RUN_DIR and run only the remaining work (results are "
             "bit-identical to an uninterrupted run)",
    )


def _open_journal(args: argparse.Namespace, kind: str, config: dict):
    """The run's :class:`RunJournal` per --journal/--resume, or None."""
    from repro.resilience.journal import RunJournal

    run_dir = getattr(args, "resume", None)
    if run_dir:
        journal = RunJournal.resume(run_dir, kind=kind, config=config)
        print(f"resuming {kind} run from {run_dir}: "
              f"{journal.resumed_unit_count} journaled unit(s) restored",
              file=sys.stderr)
        return journal
    run_dir = getattr(args, "journal", None)
    if run_dir:
        return RunJournal.create(run_dir, kind=kind, config=config)
    return None


def _report_interrupt(error: RunInterrupted) -> int:
    """Stderr checkpoint notice for a cleanly interrupted run."""
    journal = error.journal
    signal_name = error.signal_name or "signal"
    units = len(journal) if journal is not None else 0
    print(f"interrupted by {signal_name}: {units} completed unit(s) "
          f"checkpointed", file=sys.stderr)
    if journal is not None:
        print(f"continue with: --resume {journal.run_dir}", file=sys.stderr)
    return EXIT_INTERRUPTED


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gbw", type=float, default=65.0,
                        help="gain-bandwidth target, MHz (default 65)")
    parser.add_argument("--phase-margin", type=float, default=65.0,
                        help="phase margin target, degrees (default 65)")
    parser.add_argument("--cload", type=float, default=3.0,
                        help="load capacitance, pF (default 3)")
    parser.add_argument("--vdd", type=float, default=3.3,
                        help="supply voltage, V (default 3.3)")


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.core.batch import BatchTask, run_batch
    from repro.core.report import format_table1
    from repro.technology.corners import CORNERS

    specs = _specs_from_args(args)
    if args.corners:
        corners = [name.strip() for name in args.corners.split(",")
                   if name.strip()]
        if not corners:
            print(f"error: --corners {args.corners!r} names no corner",
                  file=sys.stderr)
            return 2
        unknown = sorted(set(corners) - set(CORNERS))
        if unknown:
            print(f"error: unknown corners {unknown} "
                  f"(choose from {list(CORNERS)})", file=sys.stderr)
            return 2
    else:
        corners = [None]
    modes = list(ParasiticMode)
    tasks = [
        BatchTask(kind="case", technology=args.technology, specs=specs,
                  mode=mode.name, corner=corner)
        for corner in corners
        for mode in modes
    ]
    config = {
        "technology": args.technology,
        "specs": dataclasses.asdict(specs),
        "corners": corners,
        "modes": [mode.name for mode in modes],
    }
    try:
        journal = _open_journal(args, "table1", config)
    except JournalError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for task in tasks:
        print(f"running {task.label} ...", file=sys.stderr)
    try:
        if journal is not None:
            with journal, journal.shutdown_guard():
                batch = run_batch(tasks, jobs=args.jobs, journal=journal)
                journal.complete()
        else:
            batch = run_batch(tasks, jobs=args.jobs)
    except RunInterrupted as error:
        return _report_interrupt(error)
    if batch.jobs > 1:
        print(f"ran {len(tasks)} cases on {batch.jobs} workers",
              file=sys.stderr)
    for block, corner in enumerate(corners):
        results = batch.results[block * len(modes):(block + 1) * len(modes)]
        title = "Table 1" if corner is None else f"Table 1 [{corner}]"
        if block:
            print()
        print(format_table1(results, title=title))
        if args.fingerprint:
            for result in results:
                suffix = "" if corner is None else f" [{corner}]"
                print(f"fingerprint {result.label}{suffix}: "
                      f"{result.fingerprint()}")
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    from repro.core.synthesis import LayoutOrientedSynthesizer
    from repro.layout.gds import write_gds
    from repro.layout.svg import write_svg
    from repro.resilience.budget import Budget

    technology = _TECHNOLOGIES[args.technology]()
    specs = _specs_from_args(args)
    budget = (
        Budget.from_seconds(args.deadline)
        if args.deadline is not None else None
    )
    synthesizer = LayoutOrientedSynthesizer(technology, aspect=args.aspect)
    config = {
        "technology": args.technology,
        "specs": dataclasses.asdict(specs),
        "aspect": args.aspect,
    }
    try:
        journal = _open_journal(args, "synthesize", config)
    except JournalError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        if journal is not None:
            with journal, journal.shutdown_guard():
                outcome = synthesizer.run(
                    specs, mode=ParasiticMode.FULL, generate=True,
                    budget=budget, journal=journal,
                )
                journal.complete()
        else:
            outcome = synthesizer.run(
                specs, mode=ParasiticMode.FULL, generate=True,
                budget=budget,
            )
    except RunInterrupted as error:
        return _report_interrupt(error)
    except ReproError as error:
        dump_failure(error)
        return 1

    metrics = outcome.sizing.predicted
    status = "converged" if outcome.converged else "DEGRADED"
    print(f"{status} in {outcome.layout_calls} layout calls "
          f"({outcome.elapsed:.1f} s)")
    if args.fingerprint:
        print(f"fingerprint: {outcome.fingerprint()}")
    if outcome.diagnostics:
        print(f"diagnostics: {outcome.diagnostics}", file=sys.stderr)
    print(f"  sizing        {outcome.sizing.describe_status()}")
    print(f"  DC gain       {metrics.dc_gain_db:7.1f} dB")
    print(f"  GBW           {metrics.gbw / 1e6:7.1f} MHz")
    print(f"  phase margin  {metrics.phase_margin_deg:7.1f} deg")
    print(f"  slew rate     {metrics.slew_rate / 1e6:7.1f} V/us")
    print(f"  power         {metrics.power * 1e3:7.2f} mW")
    if outcome.layout is not None and outcome.layout.cell is not None:
        report = outcome.layout.report
        print(f"  layout        {report.width / UM:.1f} x "
              f"{report.height / UM:.1f} um")
    for name in sorted(outcome.sizing.sizes):
        width, length = outcome.sizing.sizes[name]
        info = outcome.feedback.devices[name]
        print(f"    {name:<5} W/L {width / UM:7.1f}/{length / UM:4.2f} um  "
              f"nf={info.nf}")
    if outcome.layout is not None and outcome.layout.cell is not None:
        if args.svg:
            write_svg(outcome.layout.cell, args.svg, scale=8)
            print(f"layout written to {args.svg}", file=sys.stderr)
            print(f"svg: {args.svg}")
        if args.gds:
            write_gds(outcome.layout.cell, args.gds)
            print(f"GDSII written to {args.gds}", file=sys.stderr)
            print(f"gds: {args.gds}")
    if args.verify_corners:
        from repro.sizing.verification import VerificationInterface

        reports = VerificationInterface().verify_corners(
            synthesizer.plan, outcome.sizing, specs
        )
        print("corner verification (stacked ensemble):")
        for name, report in reports.items():
            if report.metrics is None:
                print(f"  {name}  FAIL  ({report.failure_reason})")
                continue
            verdict = "pass" if report.passed else "FAIL"
            failed = [k for k, ok in report.failures().items() if not ok]
            detail = f"  [{', '.join(failed)}]" if failed else ""
            print(f"  {name}  {verdict}  "
                  f"gbw {report.metrics.gbw / 1e6:6.1f} MHz  "
                  f"pm {report.metrics.phase_margin_deg:5.1f} deg{detail}")
    return 0


def cmd_flows(args: argparse.Namespace) -> int:
    from repro.core.batch import BatchTask, run_batch

    specs = _specs_from_args(args)
    tasks = [
        BatchTask(kind="flow", technology=args.technology, specs=specs,
                  variant=variant)
        for variant in ("traditional", "oriented")
    ]
    config = {
        "technology": args.technology,
        "specs": dataclasses.asdict(specs),
        "variants": [task.variant for task in tasks],
    }
    try:
        journal = _open_journal(args, "flows", config)
    except JournalError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        if journal is not None:
            with journal, journal.shutdown_guard():
                batch = run_batch(tasks, jobs=args.jobs, journal=journal)
                journal.complete()
        else:
            batch = run_batch(tasks, jobs=args.jobs)
    except RunInterrupted as error:
        return _report_interrupt(error)
    traditional, oriented = batch.results
    print(f"{'flow':<18}{'rounds':>8}{'time (s)':>10}"
          f"{'GBW (MHz)':>11}{'PM (deg)':>10}")
    print(f"{'traditional':<18}{traditional.full_layout_rounds:>8}"
          f"{traditional.elapsed:>10.1f}"
          f"{traditional.extracted.gbw / 1e6:>11.1f}"
          f"{traditional.extracted.phase_margin_deg:>10.1f}")
    metrics = oriented.sizing.predicted
    print(f"{'layout-oriented':<18}{oriented.layout_calls:>8}"
          f"{oriented.elapsed:>10.1f}"
          f"{metrics.gbw / 1e6:>11.1f}"
          f"{metrics.phase_margin_deg:>10.1f}")
    return 0


def cmd_figure2(args: argparse.Namespace) -> int:
    from repro.layout.folding import (
        DiffusionPosition,
        capacitance_reduction_factor,
    )

    print("Nf    F(a) internal   F(b) external   F(c) odd")
    for nf in range(1, args.max_folds + 1):
        if nf == 1:
            print(f"{nf:<5} {1.0:>13.4f} {1.0:>15.4f} {1.0:>10.4f}")
        elif nf % 2 == 0:
            internal = capacitance_reduction_factor(
                nf, DiffusionPosition.INTERNAL
            )
            external = capacitance_reduction_factor(
                nf, DiffusionPosition.EXTERNAL
            )
            print(f"{nf:<5} {internal:>13.4f} {external:>15.4f} {'-':>10}")
        else:
            odd = capacitance_reduction_factor(
                nf, DiffusionPosition.ALTERNATING
            )
            print(f"{nf:<5} {'-':>13} {'-':>15} {odd:>10.4f}")
    return 0


def cmd_figure3(args: argparse.Namespace) -> int:
    from repro.layout.devices import current_mirror_layout
    from repro.layout.svg import write_svg

    technology = _TECHNOLOGIES[args.technology]()
    mirror = current_mirror_layout(
        technology, "n", {"m1": 1, "m2": 3, "m3": 6},
        unit_width=6 * UM, l=2 * UM,
        drains={"m1": "bias", "m2": "out2", "m3": "out3"},
        gate="bias", source="0", bulk="0",
        currents={"m1": 0.1e-3, "m2": 0.3e-3, "m3": 0.6e-3},
    )
    assert mirror.plan is not None
    print("stack  :", mirror.plan.pattern())
    for device in ("m1", "m2", "m3"):
        print(f"{device}: centroid {mirror.plan.centroid_offset(device):+.2f} "
              f"pitches, orientation balance "
              f"{mirror.plan.orientation_balance(device):+d}")
    if args.svg:
        write_svg(mirror.cell, args.svg, scale=12)
        print(f"layout written to {args.svg}", file=sys.stderr)
        print(f"svg: {args.svg}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.telemetry import read_jsonl, summarize
    from repro.telemetry.profile import (
        collapsed_stacks,
        format_collapsed,
        format_profile_table,
    )

    try:
        records = read_jsonl(args.file)
    except (OSError, ValueError) as error:
        print(f"error: cannot read trace {args.file!r}: {error}",
              file=sys.stderr)
        return 2
    summary = summarize(records)
    roots = summary.roots
    if not roots:
        print(f"error: trace {args.file!r} has no spans to profile",
              file=sys.stderr)
        return 2
    wall = sum(root.dur for root in roots)
    # Write the artifact before touching stdout so a closed pipe
    # (profile ... | head) cannot lose the collapsed stacks.
    if args.collapsed:
        stacks = collapsed_stacks(roots)
        with open(args.collapsed, "w", encoding="utf-8") as handle:
            handle.write(format_collapsed(stacks) + "\n")
        print(f"collapsed stacks written to {args.collapsed} "
              f"({len(stacks)} unique stacks; feed to flamegraph.pl)",
              file=sys.stderr)
    print(format_profile_table(
        summary.profile, top=args.top, wall_s=wall or None
    ))
    if args.collapsed:
        print(f"collapsed: {args.collapsed}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import read_jsonl, summarize

    try:
        records = read_jsonl(args.file)
    except (OSError, ValueError) as error:
        print(f"error: cannot read trace {args.file!r}: {error}",
              file=sys.stderr)
        return 2
    summary = summarize(records)
    if args.json:
        print(summary.format_json())
    else:
        print(summary.format_tree())
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.technology.evaluation import (
        TechnologyEvaluator,
        rank_technologies,
    )

    technologies = [factory() for factory in _TECHNOLOGIES.values()]
    for technology in technologies:
        print(TechnologyEvaluator(technology).report().format())
        print()
    print(f"ranking for GBW = {args.gbw:.0f} MHz:")
    for technology, headroom in rank_technologies(
        technologies, args.gbw * 1e6
    ):
        print(f"  {technology.name:<16} fT headroom {headroom:8.1f}x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Layout-oriented analog synthesis (DATE 2000 "
                    "reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table1 = subparsers.add_parser("table1", help="reproduce Table 1")
    _add_technology_argument(table1)
    _add_spec_arguments(table1)
    table1.add_argument("--jobs", type=_positive_int, default=1,
                        help="run cases concurrently on N worker processes "
                             "(results are bit-identical to --jobs 1)")
    table1.add_argument("--corners", default=None, metavar="NAMES",
                        help="comma-separated process corners "
                             "(tt,ss,ff,sf,fs); one table per corner")
    table1.add_argument("--fingerprint", action="store_true",
                        help="print a deterministic content hash per case "
                             "(excludes timings; for determinism checks)")
    _add_trace_argument(table1)
    _add_monitor_argument(table1)
    _add_metrics_argument(table1)
    _add_journal_arguments(table1)
    _add_runtime_arguments(table1)
    table1.set_defaults(func=cmd_table1)

    synthesize = subparsers.add_parser(
        "synthesize", help="layout-oriented synthesis (case 4)"
    )
    _add_technology_argument(synthesize)
    _add_spec_arguments(synthesize)
    synthesize.add_argument("--aspect", type=float, default=1.0,
                            help="layout aspect ratio H/W (default 1.0)")
    synthesize.add_argument("--deadline", type=_positive_float, default=None,
                            help="wall-clock budget in seconds; expiry "
                                 "aborts at a round boundary with a "
                                 "diagnostics dump")
    synthesize.add_argument("--svg", help="write the layout as SVG")
    synthesize.add_argument("--gds", help="write the layout as GDSII")
    synthesize.add_argument(
        "--verify-corners", action="store_true",
        help="re-verify the synthesized sizing at the five process "
             "corners as one stacked ensemble measurement")
    synthesize.add_argument(
        "--fingerprint", action="store_true",
        help="print the outcome's content fingerprint (a short digest of "
             "sizes, feedback and layout; identical runs print identical "
             "fingerprints regardless of caches)")
    _add_trace_argument(synthesize)
    _add_monitor_argument(synthesize)
    _add_metrics_argument(synthesize)
    _add_journal_arguments(synthesize)
    _add_runtime_arguments(synthesize)
    synthesize.set_defaults(func=cmd_synthesize)

    flows = subparsers.add_parser(
        "flows", help="traditional vs layout-oriented flow"
    )
    _add_technology_argument(flows)
    _add_spec_arguments(flows)
    flows.add_argument("--jobs", type=_positive_int, default=1,
                       help="run the two flows concurrently on N worker "
                            "processes")
    _add_trace_argument(flows)
    _add_monitor_argument(flows)
    _add_metrics_argument(flows)
    _add_journal_arguments(flows)
    _add_runtime_arguments(flows)
    flows.set_defaults(func=cmd_flows)

    figure2 = subparsers.add_parser(
        "figure2", help="capacitance reduction factor curves"
    )
    figure2.add_argument("--max-folds", type=_positive_int, default=20)
    figure2.set_defaults(func=cmd_figure2)

    figure3 = subparsers.add_parser(
        "figure3", help="the 1:3:6 current-mirror stack"
    )
    _add_technology_argument(figure3)
    figure3.add_argument("--svg", help="write the layout as SVG")
    figure3.set_defaults(func=cmd_figure3)

    trace = subparsers.add_parser(
        "trace", help="replay a JSONL telemetry trace"
    )
    trace.add_argument("file", help="trace file written by --trace")
    trace.add_argument("--json", action="store_true",
                       help="emit the summary as JSON instead of a tree")
    trace.set_defaults(func=cmd_trace)

    profile = subparsers.add_parser(
        "profile",
        help="profile a JSONL telemetry trace (self-time per span name)",
    )
    profile.add_argument("file", help="trace file written by --trace")
    profile.add_argument("--top", type=_positive_int, default=None,
                         metavar="N",
                         help="only the N hottest rows (by self-time)")
    profile.add_argument(
        "--collapsed", default=None, metavar="FILE",
        help="also write flamegraph-collapsed 'stack;path count' lines "
             "to FILE (input for flamegraph.pl / speedscope)")
    profile.set_defaults(func=cmd_profile)

    evaluate = subparsers.add_parser(
        "evaluate", help="characterise and rank the bundled technologies"
    )
    evaluate.add_argument("--gbw", type=float, default=65.0,
                          help="GBW target for the ranking, MHz")
    evaluate.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: Optional[list] = None) -> int:
    from repro.resilience import faults

    # The CI kill-resume smoke job (and any operator) can arm fault
    # sites from the environment, e.g.
    # REPRO_FAULTS="process.kill:at=2,action=crash".  A malformed plan
    # is a usage error: nothing is armed and the run does not start.
    try:
        faults.arm_from_env()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    # Each CLI invocation is its own process in real use; in-process
    # callers (tests, scripts calling main() repeatedly) share the
    # module-level differential stores, which would make a later
    # invocation's trace and timings reflect an earlier one's work.
    # Start every invocation cold so one `main()` call behaves like one
    # process.
    from repro.layout import incremental

    incremental.clear()
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_runtime(args)
    trace_path = getattr(args, "trace", None)
    monitor_port = getattr(args, "monitor", None)
    metrics_path = getattr(args, "metrics", None)
    if not trace_path and monitor_port is None and not metrics_path:
        return args.func(args)

    from contextlib import ExitStack

    from repro import telemetry
    from repro.ioutil import atomic_write
    from repro.telemetry import metrics as metrics_mod
    from repro.telemetry import monitor as monitor_mod

    # --monitor and --metrics imply a tracer even without --trace: every
    # count()/gauge() call reaches the registry through the active
    # tracer, and pool workers ship their metrics home only inside a
    # trace payload, so /metrics (and the --metrics snapshot) would be
    # empty with no tracer armed.  Observation only — results are
    # bit-identical with or without any of these flags.
    name = f"cli.{args.command}"
    tracer = telemetry.Tracer()
    with ExitStack() as stack:
        if monitor_port is not None or metrics_path:
            stack.enter_context(metrics_mod.collecting(fresh=True))
        if monitor_port is not None:
            run_monitor = monitor_mod.RunMonitor(
                label=args.command,
                port=None if monitor_port < 0 else monitor_port,
            )
            stack.enter_context(run_monitor)
            if run_monitor.port is not None:
                print(f"monitor: http://127.0.0.1:{run_monitor.port}/status "
                      f"(and /metrics)", file=sys.stderr)
        try:
            with tracer.activate(), tracer.span(name):
                code = args.func(args)
        finally:
            if trace_path:
                # Partial traces are still replayable; export them even
                # when the command dies mid-run.  A resumed run appends a
                # new trace segment instead of erasing the original legs.
                tracer.write_jsonl(
                    trace_path, name=name,
                    append=bool(getattr(args, "resume", None)),
                )
                print(f"trace written to {trace_path}", file=sys.stderr)
            if metrics_path:
                # Snapshot before collecting() pops the registry; a run
                # that died mid-way still leaves a usable snapshot.
                atomic_write(
                    metrics_path, metrics_mod.registry().to_prometheus()
                )
                print(f"metrics written to {metrics_path}",
                      file=sys.stderr)
    if trace_path:
        print(f"trace: {trace_path}")
    if metrics_path:
        print(f"metrics: {metrics_path}")
    return code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early: not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
