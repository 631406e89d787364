"""Crash-safe run journal and deterministic resume.

Contract under test (the durability tentpole): every long-running driver
— Table-1 batches, Monte-Carlo shards, synthesis rounds — journals each
completed unit of work durably, a kill at ANY journal boundary leaves a
valid-JSONL journal, and ``--resume`` reproduces the uninterrupted run's
results bit-identically: ``CaseResult.fingerprint()``, Monte-Carlo
statistics and synthesis warm-start chains included.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import threading

import pytest

from repro.analysis.montecarlo import run_monte_carlo
from repro.core.batch import BatchTask, run_batch
from repro.core.synthesis import LayoutOrientedSynthesizer
from repro.errors import AnalysisError, JournalError, RunInterrupted
from repro.ioutil import atomic_write
from repro.resilience import faults
from repro.resilience.faults import SimulatedKill
from repro.resilience.journal import (
    JOURNAL_FILENAME,
    JOURNAL_SCHEMA,
    RunJournal,
)
from repro.sizing.specs import ParasiticMode
from tests.designs import hand_testbench


def journal_lines(run_dir):
    """Parse every line of the journal — fails if any line is invalid."""
    path = os.path.join(str(run_dir), JOURNAL_FILENAME)
    with open(path, "r", encoding="utf-8") as handle:
        raw = handle.read()
    assert raw.endswith("\n"), "journal does not end in a newline"
    return [json.loads(line) for line in raw.splitlines() if line.strip()]


class TestAtomicWrite:
    def test_writes_text_and_bytes(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write(str(path), "hello\n")
        assert path.read_text() == "hello\n"
        atomic_write(str(path), b"\x00\x01")
        assert path.read_bytes() == b"\x00\x01"

    def test_replaces_existing_content(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write(str(path), "new")
        assert path.read_text() == "new"

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write(str(tmp_path / "a.json"), "{}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]


class TestJournalCore:
    def test_create_writes_schema_header(self, tmp_path):
        journal = RunJournal.create(str(tmp_path / "run"), "demo", {"n": 3})
        journal.close()
        header = journal_lines(tmp_path / "run")[0]
        assert header["type"] == "header"
        assert header["schema"] == JOURNAL_SCHEMA
        assert header["kind"] == "demo"
        assert header["config"] == {"n": 3}

    def test_create_refuses_existing_journal(self, tmp_path):
        RunJournal.create(str(tmp_path), "demo").close()
        with pytest.raises(JournalError, match="already exists"):
            RunJournal.create(str(tmp_path), "demo")

    def test_record_and_resume_round_trip(self, tmp_path):
        with RunJournal.create(str(tmp_path), "demo") as journal:
            journal.record("unit.a", {"x": 1.5}, label="a")
            journal.record("unit.b", [1, 2, 3])
            journal.complete()
        resumed = RunJournal.resume(str(tmp_path), kind="demo")
        assert resumed.resumed_unit_count == 2
        assert resumed.is_complete
        assert sorted(resumed.keys()) == ["unit.a", "unit.b"]
        assert resumed.result("unit.a") == {"x": 1.5}
        assert resumed.result_or_none("unit.b") == [1, 2, 3]
        assert resumed.result_or_none("unit.c") is None
        assert resumed.unit_meta("unit.a")["label"] == "a"
        assert "payload" not in resumed.unit_meta("unit.a")

    def test_duplicate_key_refused(self, tmp_path):
        with RunJournal.create(str(tmp_path), "demo") as journal:
            journal.record("unit.a", 1)
            with pytest.raises(JournalError, match="already journaled"):
                journal.record("unit.a", 2)

    def test_resume_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError, match="no journal to resume"):
            RunJournal.resume(str(tmp_path / "nope"))

    def test_resume_rejects_wrong_kind(self, tmp_path):
        RunJournal.create(str(tmp_path), "table1").close()
        with pytest.raises(JournalError, match="not a 'flows' run"):
            RunJournal.resume(str(tmp_path), kind="flows")

    def test_resume_rejects_different_config(self, tmp_path):
        RunJournal.create(str(tmp_path), "demo", {"seed": 1}).close()
        with pytest.raises(JournalError, match="different run"):
            RunJournal.resume(str(tmp_path), kind="demo", config={"seed": 2})

    def test_config_normalizes_tuples_to_lists(self, tmp_path):
        RunJournal.create(str(tmp_path), "demo", {"span": (0, 4)}).close()
        resumed = RunJournal.resume(
            str(tmp_path), kind="demo", config={"span": [0, 4]}
        )
        assert resumed.config == {"span": [0, 4]}

    def test_unserialisable_config_rejected(self, tmp_path):
        with pytest.raises(JournalError, match="JSON-serialisable"):
            RunJournal.create(str(tmp_path), "demo", {"f": object()})

    def test_torn_tail_self_heals(self, tmp_path):
        with RunJournal.create(str(tmp_path), "demo") as journal:
            journal.record("unit.a", 1)
            journal.record("unit.b", 2)
        path = tmp_path / JOURNAL_FILENAME
        with open(path, "ab") as handle:
            handle.write(b'{"type": "unit", "seq": 2, "key": "unit.c"')
        resumed = RunJournal.resume(str(tmp_path), kind="demo")
        assert sorted(resumed.keys()) == ["unit.a", "unit.b"]
        # The file was truncated back to valid JSONL on disk.
        assert [r["type"] for r in journal_lines(tmp_path)] == [
            "header", "unit", "unit",
        ]

    def test_terminated_corrupt_line_raises(self, tmp_path):
        RunJournal.create(str(tmp_path), "demo").close()
        with open(tmp_path / JOURNAL_FILENAME, "ab") as handle:
            handle.write(b"not json at all\n")
        with pytest.raises(JournalError, match="malformed journal line"):
            RunJournal.resume(str(tmp_path))

    def test_fully_torn_file_raises(self, tmp_path):
        tmp_path.joinpath(JOURNAL_FILENAME).write_bytes(b'{"type": "hea')
        with pytest.raises(JournalError, match="no journal header"):
            RunJournal.resume(str(tmp_path))

    def test_unknown_record_types_skipped(self, tmp_path):
        with RunJournal.create(str(tmp_path), "demo") as journal:
            journal.record("unit.a", 1)
        with open(tmp_path / JOURNAL_FILENAME, "a", encoding="utf-8") as fh:
            fh.write('{"type": "note", "text": "future extension"}\n')
        resumed = RunJournal.resume(str(tmp_path), kind="demo")
        assert resumed.keys() == ["unit.a"]

    def test_resumed_journal_appends_after_last_seq(self, tmp_path):
        with RunJournal.create(str(tmp_path), "demo") as journal:
            journal.record("unit.a", 1)
        with RunJournal.resume(str(tmp_path)) as resumed:
            resumed.record("unit.b", 2)
        seqs = [
            r["seq"] for r in journal_lines(tmp_path) if r["type"] == "unit"
        ]
        assert seqs == [0, 1]

    def test_complete_is_idempotent(self, tmp_path):
        with RunJournal.create(str(tmp_path), "demo") as journal:
            journal.complete()
            journal.complete()
        types = [r["type"] for r in journal_lines(tmp_path)]
        assert types.count("complete") == 1


@pytest.mark.faults
class TestJournalFaultSites:
    def test_journal_write_fault_raises(self, tmp_path):
        with RunJournal.create(str(tmp_path), "demo") as journal:
            with faults.inject(
                "journal.write", error=AnalysisError("disk full")
            ):
                with pytest.raises(AnalysisError, match="disk full"):
                    journal.record("unit.a", 1)
            # The failed write journaled nothing; the key is still free.
            journal.record("unit.a", 1)
        assert RunJournal.resume(str(tmp_path)).keys() == ["unit.a"]

    def test_process_kill_fires_after_durable_append(self, tmp_path):
        with RunJournal.create(str(tmp_path), "demo") as journal:
            journal.record("unit.a", 1)
            with pytest.raises(SimulatedKill):
                with faults.inject("process.kill"):
                    journal.record("unit.b", 2)
        # The unit that triggered the kill is already on disk.
        resumed = RunJournal.resume(str(tmp_path))
        assert sorted(resumed.keys()) == ["unit.a", "unit.b"]

    def test_arm_from_env_parses_spec(self):
        armed = faults.arm_from_env(
            {"REPRO_FAULTS": "process.kill:at=2,action=crash; mc.worker:index=1"}
        )
        try:
            assert [f.site for f in armed] == ["process.kill", "mc.worker"]
            assert armed[0].at == 2
            assert armed[0].action == "crash"
            assert armed[1].index == 1
            assert faults.active()
        finally:
            faults.disarm_all()
        assert not faults.active()

    def test_arm_from_env_unset_is_noop(self):
        assert faults.arm_from_env({}) == []
        assert not faults.active()

    def test_arm_from_env_rejects_unknown_option(self):
        with pytest.raises(ValueError, match="unknown option"):
            faults.arm_from_env({"REPRO_FAULTS": "process.kill:when=later"})
        faults.disarm_all()

    def test_arm_from_env_rejects_unknown_site(self):
        """A misspelt site would never fire, yet an armed plan turns off
        every memo; nothing is armed, not even the valid entry."""
        with pytest.raises(ValueError) as excinfo:
            faults.arm_from_env(
                {"REPRO_FAULTS": "mc.worker:index=1; process.kil:at=2"}
            )
        message = str(excinfo.value)
        assert "'process.kil'" in message
        assert all(site in message for site in faults.SITES)
        assert not faults.active()


class TestShutdownGuard:
    def test_signal_converts_to_clean_interrupt(self, tmp_path):
        with RunJournal.create(str(tmp_path), "demo") as journal:
            with journal.shutdown_guard():
                assert not journal.interrupted
                journal.check_interrupt("before")  # no-op without a signal
                os.kill(os.getpid(), signal.SIGTERM)
                assert journal.interrupted
                with pytest.raises(RunInterrupted) as excinfo:
                    journal.check_interrupt("unit.boundary")
        error = excinfo.value
        assert error.site == "unit.boundary"
        assert error.signal_name == "SIGTERM"
        assert error.journal is journal

    def test_guard_restores_previous_handlers(self, tmp_path):
        before = signal.getsignal(signal.SIGTERM)
        with RunJournal.create(str(tmp_path), "demo") as journal:
            with journal.shutdown_guard():
                assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_guard_is_noop_off_main_thread(self, tmp_path):
        outcome = {}

        def body():
            with RunJournal.create(str(tmp_path), "demo") as journal:
                with journal.shutdown_guard():
                    outcome["ok"] = True

        thread = threading.Thread(target=body)
        thread.start()
        thread.join()
        assert outcome == {"ok": True}


def _cheap_tasks(specs):
    """Two fast non-layout cases (sizing only, no synthesis loop)."""
    return [
        BatchTask(kind="case", technology="0.6um", specs=specs,
                  mode=mode.name)
        for mode in (ParasiticMode.NONE, ParasiticMode.SINGLE_FOLD)
    ]


@pytest.fixture(scope="module")
def cheap_fingerprints(specs):
    clean = run_batch(_cheap_tasks(specs), jobs=1)
    return [result.fingerprint() for result in clean.results]


@pytest.mark.faults
class TestBatchKillResume:
    def test_serial_kill_at_every_boundary(
        self, specs, cheap_fingerprints, tmp_path
    ):
        for at in (1, 2):
            run_dir = str(tmp_path / f"serial.{at}")
            journal = RunJournal.create(run_dir, "table1")
            with pytest.raises(SimulatedKill):
                with faults.inject("process.kill", at=at) as fault:
                    run_batch(_cheap_tasks(specs), jobs=1, journal=journal)
            journal.close()
            assert fault.fired == 1
            journal_lines(run_dir)  # valid JSONL after the kill
            resumed = RunJournal.resume(run_dir, kind="table1")
            assert resumed.resumed_unit_count == at
            batch = run_batch(_cheap_tasks(specs), jobs=1, journal=resumed)
            resumed.complete()
            resumed.close()
            assert [
                r.fingerprint() for r in batch.results
            ] == cheap_fingerprints
            statuses = [s.status for s in batch.statuses]
            assert statuses[:at] == ["journaled"] * at

    def test_pooled_kill_then_resume(
        self, specs, cheap_fingerprints, tmp_path
    ):
        journal = RunJournal.create(str(tmp_path), "table1")
        with pytest.raises(SimulatedKill):
            with faults.inject("process.kill", at=1):
                run_batch(_cheap_tasks(specs), jobs=2, journal=journal)
        journal.close()
        resumed = RunJournal.resume(str(tmp_path), kind="table1")
        assert resumed.resumed_unit_count >= 1
        batch = run_batch(_cheap_tasks(specs), jobs=2, journal=resumed)
        resumed.close()
        assert [r.fingerprint() for r in batch.results] == cheap_fingerprints

    def test_serial_interrupt_stops_before_work(self, specs, tmp_path):
        journal = RunJournal.create(str(tmp_path), "table1")
        journal._interrupt_signal = "SIGINT"
        with pytest.raises(RunInterrupted):
            run_batch(_cheap_tasks(specs), jobs=1, journal=journal)
        journal.close()
        assert len(RunJournal.resume(str(tmp_path)).keys()) == 0

    def test_pooled_interrupt_drains_in_flight_work(
        self, specs, cheap_fingerprints, tmp_path
    ):
        journal = RunJournal.create(str(tmp_path), "table1")
        # The signal "arrives" before collection starts: both tasks are
        # already submitted, so the drain must wait for them, journal
        # both results, and only then stop.
        journal._interrupt_signal = "SIGTERM"
        with pytest.raises(RunInterrupted) as excinfo:
            run_batch(_cheap_tasks(specs), jobs=2, journal=journal)
        journal.close()
        assert excinfo.value.site == "batch.drain"
        resumed = RunJournal.resume(str(tmp_path), kind="table1")
        assert resumed.resumed_unit_count == 2
        batch = run_batch(_cheap_tasks(specs), jobs=2, journal=resumed)
        resumed.close()
        assert [s.status for s in batch.statuses] == ["journaled"] * 2
        assert [r.fingerprint() for r in batch.results] == cheap_fingerprints


@pytest.fixture(scope="module")
def clean_case4(tech, specs):
    """An uninterrupted case-4 synthesis run (the resume reference)."""
    return LayoutOrientedSynthesizer(tech).run(
        specs, mode=ParasiticMode.FULL, generate=False
    )


def _assert_outcomes_identical(resumed, clean):
    assert resumed.layout_calls == clean.layout_calls
    assert resumed.converged == clean.converged
    assert resumed.diagnostics == clean.diagnostics
    for got, ref in zip(resumed.records, clean.records):
        assert got.round_index == ref.round_index
        assert got.distance == ref.distance
        assert pickle.dumps(got.sizing.sizes) == pickle.dumps(
            ref.sizing.sizes
        )
    assert pickle.dumps(resumed.sizing.sizes) == pickle.dumps(
        clean.sizing.sizes
    )


@pytest.mark.faults
class TestSynthesisKillResume:
    def test_kill_at_every_round_boundary(self, tech, specs, clean_case4, tmp_path):
        """Walk the whole kill matrix: killed after round k for every k,
        the resumed run must replay rounds 1..k (warm-start chain
        included) and finish bit-identical to the uninterrupted run."""
        boundaries = clean_case4.layout_calls
        assert boundaries >= 2
        for at in range(1, boundaries + 1):
            run_dir = str(tmp_path / f"kill.{at}")
            journal = RunJournal.create(run_dir, "synthesize")
            with pytest.raises(SimulatedKill):
                with faults.inject("process.kill", at=at) as fault:
                    LayoutOrientedSynthesizer(tech).run(
                        specs, mode=ParasiticMode.FULL, generate=False,
                        journal=journal,
                    )
            journal.close()
            assert fault.fired == 1
            journal_lines(run_dir)  # valid JSONL after the kill
            resumed_journal = RunJournal.resume(run_dir, kind="synthesize")
            assert resumed_journal.resumed_unit_count == at
            resumed = LayoutOrientedSynthesizer(tech).run(
                specs, mode=ParasiticMode.FULL, generate=False,
                journal=resumed_journal,
            )
            resumed_journal.complete()
            resumed_journal.close()
            _assert_outcomes_identical(resumed, clean_case4)

    def test_interrupt_at_round_boundary_is_resumable(
        self, tech, specs, clean_case4, tmp_path
    ):
        journal = RunJournal.create(str(tmp_path), "synthesize")
        journal._interrupt_signal = "SIGINT"
        with pytest.raises(RunInterrupted) as excinfo:
            LayoutOrientedSynthesizer(tech).run(
                specs, mode=ParasiticMode.FULL, generate=False,
                journal=journal,
            )
        journal.close()
        assert excinfo.value.site == "synthesis.round"
        resumed_journal = RunJournal.resume(str(tmp_path), kind="synthesize")
        resumed = LayoutOrientedSynthesizer(tech).run(
            specs, mode=ParasiticMode.FULL, generate=False,
            journal=resumed_journal,
        )
        resumed_journal.close()
        _assert_outcomes_identical(resumed, clean_case4)


@pytest.fixture(scope="module")
def mc_testbench():
    return hand_testbench()


@pytest.fixture(scope="module")
def clean_mc_samples(mc_testbench):
    result = run_monte_carlo(mc_testbench, runs=12, seed=77, workers=4)
    assert result.n_failed == 0
    return result.samples


@pytest.mark.faults
class TestMonteCarloKillResume:
    def test_kill_at_every_shard_boundary(
        self, mc_testbench, clean_mc_samples, tmp_path
    ):
        """workers=4 partitions 12 pre-drawn samples into 4 shards; a
        kill after any shard's journal append must resume to statistics
        bit-identical to the uninterrupted pooled run."""
        for at in range(1, 5):
            run_dir = str(tmp_path / f"kill.{at}")
            journal = RunJournal.create(run_dir, "mc")
            with pytest.raises(SimulatedKill):
                with faults.inject("process.kill", at=at) as fault:
                    run_monte_carlo(
                        mc_testbench, runs=12, seed=77, workers=4,
                        journal=journal,
                    )
            journal.close()
            assert fault.fired == 1
            journal_lines(run_dir)  # valid JSONL after the kill
            resumed_journal = RunJournal.resume(run_dir, kind="mc")
            assert resumed_journal.resumed_unit_count == at
            resumed = run_monte_carlo(
                mc_testbench, runs=12, seed=77, workers=4,
                journal=resumed_journal,
            )
            resumed_journal.complete()
            resumed_journal.close()
            assert resumed.samples == clean_mc_samples
            statuses = [s.status for s in resumed.shards]
            assert statuses.count("journaled") == at

    def test_resume_with_different_worker_count_is_identical(
        self, mc_testbench, clean_mc_samples, tmp_path
    ):
        """The shard partition follows the worker count, so a journal
        recorded at workers=4 offers no skippable spans at workers=2 —
        but the pre-drawn samples still make the statistics identical."""
        journal = RunJournal.create(str(tmp_path), "mc")
        with pytest.raises(SimulatedKill):
            with faults.inject("process.kill", at=2):
                run_monte_carlo(
                    mc_testbench, runs=12, seed=77, workers=4,
                    journal=journal,
                )
        journal.close()
        resumed_journal = RunJournal.resume(str(tmp_path), kind="mc")
        resumed = run_monte_carlo(
            mc_testbench, runs=12, seed=77, workers=2,
            journal=resumed_journal,
        )
        resumed_journal.close()
        assert resumed.samples == clean_mc_samples

    def test_pooled_interrupt_drains_in_flight_shards(
        self, mc_testbench, clean_mc_samples, tmp_path
    ):
        journal = RunJournal.create(str(tmp_path), "mc")
        # Same contract as the batch drain: the signal "arrives" before
        # collection starts, with both shards already on the two
        # workers, so the drain must journal both and only then stop.
        journal._interrupt_signal = "SIGTERM"
        with pytest.raises(RunInterrupted) as excinfo:
            run_monte_carlo(
                mc_testbench, runs=12, seed=77, workers=2, journal=journal
            )
        journal.close()
        assert excinfo.value.site == "mc.drain"
        resumed_journal = RunJournal.resume(str(tmp_path), kind="mc")
        assert resumed_journal.resumed_unit_count == 2
        resumed = run_monte_carlo(
            mc_testbench, runs=12, seed=77, workers=2,
            journal=resumed_journal,
        )
        resumed_journal.close()
        assert [s.status for s in resumed.shards] == ["journaled"] * 2
        assert resumed.samples == clean_mc_samples

    def test_serial_run_journals_one_shard(
        self, mc_testbench, clean_mc_samples, tmp_path
    ):
        journal = RunJournal.create(str(tmp_path), "mc")
        first = run_monte_carlo(
            mc_testbench, runs=12, seed=77, workers=1, journal=journal
        )
        assert journal.keys() == ["mc.shard.0.12"]
        # A second pass restores the journaled shard without re-running.
        replay = run_monte_carlo(
            mc_testbench, runs=12, seed=77, workers=1, journal=journal
        )
        journal.close()
        assert replay.samples == first.samples == clean_mc_samples


class TestCliJournalFlags:
    def test_flags_parse(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(["table1", "--journal", "run.d"])
        assert args.journal == "run.d"
        assert args.resume is None
        args = build_parser().parse_args(["synthesize", "--resume", "run.d"])
        assert args.resume == "run.d"

    def test_journal_and_resume_mutually_exclusive(self):
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["flows", "--journal", "a", "--resume", "b"]
            )

    def test_resume_missing_run_dir_fails_cleanly(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(
            ["synthesize", "--resume", str(tmp_path / "missing")]
        )
        assert code == 2
        assert "no journal to resume" in capsys.readouterr().err

    def test_resume_rejects_different_specs(self, tmp_path, capsys):
        from repro.__main__ import main

        run_dir = str(tmp_path / "run")
        with faults.inject("process.kill", at=1):
            with pytest.raises(SimulatedKill):
                main(["synthesize", "--gbw", "30", "--cload", "2",
                      "--journal", run_dir])
        code = main(["synthesize", "--gbw", "42", "--cload", "2",
                     "--resume", run_dir])
        assert code == 2
        assert "different run" in capsys.readouterr().err

    def test_report_interrupt_exit_code(self, tmp_path, capsys):
        from repro.__main__ import EXIT_INTERRUPTED, _report_interrupt

        with RunJournal.create(str(tmp_path), "demo") as journal:
            journal.record("unit.a", 1)
            error = RunInterrupted(
                "stop", site="x", signal_name="SIGINT", journal=journal
            )
            assert _report_interrupt(error) == EXIT_INTERRUPTED
        err = capsys.readouterr().err
        assert "1 completed unit(s) checkpointed" in err
        assert f"--resume {journal.run_dir}" in err


@pytest.mark.faults
class TestCliKillResume:
    def test_synthesize_kill_then_resume_end_to_end(self, tmp_path, capsys):
        from repro.__main__ import main

        argv = ["synthesize", "--gbw", "30", "--cload", "2"]
        assert main(argv) == 0
        clean_out = capsys.readouterr().out

        run_dir = str(tmp_path / "run")
        with faults.inject("process.kill", at=2):
            with pytest.raises(SimulatedKill):
                main(argv + ["--journal", run_dir])
        capsys.readouterr()
        assert main(argv + ["--resume", run_dir]) == 0
        captured = capsys.readouterr()
        assert "resuming synthesize run" in captured.err
        # Everything except the wall-clock line is identical.
        clean_lines = clean_out.splitlines()
        resumed_lines = captured.out.splitlines()
        assert resumed_lines[0].startswith("converged in")
        assert resumed_lines[1:] == clean_lines[1:]
