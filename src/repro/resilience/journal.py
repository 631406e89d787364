"""Crash-safe run journal and deterministic resume.

Long-running drivers — synthesis rounds, Monte-Carlo shards, Table-1
batches — die to crashes, OOM kills and preemption; without durability a
killed ``table1 --jobs 8`` loses hours of work.  A :class:`RunJournal`
makes every *completed unit of work* durable the moment it finishes:

* the journal is an **append-only JSONL file** (``journal.jsonl`` inside
  a run directory) with a schema-versioned header line
  (``repro-journal-v2``) recording the run kind and its configuration
  fingerprint;
* each unit append is written in one call, flushed and fsynced before
  the driver moves on, so a kill at any instant loses at most the unit
  in flight — never a journaled one;
* resuming (:meth:`RunJournal.resume`) validates the kind/configuration
  against the original run (mixing results from different specs is
  refused with :class:`~repro.errors.JournalError`), self-heals a torn
  trailing line (the one partial-write state a hard kill can leave), and
  hands completed units back to the driver so it skips straight to the
  remaining work;
* :meth:`shutdown_guard` installs SIGINT/SIGTERM handlers that convert
  the signal into a *clean* stop: drivers poll :meth:`check_interrupt`
  at unit boundaries, drain in-flight workers, journal their results and
  raise :class:`~repro.errors.RunInterrupted` — Ctrl-C produces a
  resumable checkpoint, not a stack trace.

Determinism: a unit's payload is the pickled result object itself, so a
resumed run recombines *exactly* the bytes an uninterrupted run would
have produced (``CaseResult.fingerprint()`` and Monte-Carlo statistics
are bit-identical for any kill point and worker count — pinned by
``tests/test_journal.py`` and the CI kill-resume smoke job).  The
``journal.write`` and ``process.kill`` fault sites
(:mod:`repro.resilience.faults`) make the whole kill-resume matrix
deterministically testable.
"""

from __future__ import annotations

import base64
import io
import json
import os
import pickle
import signal
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro import telemetry
from repro.errors import JournalError, RunInterrupted
from repro.ioutil import fsync_directory
from repro.resilience import faults

#: Schema tag of the journal container (header line of every file).
JOURNAL_SCHEMA = "repro-journal-v2"

#: File name of the journal inside a run directory.
JOURNAL_FILENAME = "journal.jsonl"


def encode_payload(payload: Any) -> str:
    """Pickle ``payload`` into a JSON-safe ASCII string."""
    return base64.b64encode(
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_payload(encoded: str) -> Any:
    """Inverse of :func:`encode_payload`."""
    return pickle.loads(base64.b64decode(encoded.encode("ascii")))


def _normalize_config(config: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Round-trip ``config`` through JSON so tuples/ints normalise the
    same way whether they come from the caller or from a journal file."""
    if config is None:
        return {}
    try:
        return json.loads(json.dumps(config, sort_keys=True))
    except (TypeError, ValueError) as error:
        raise JournalError(
            f"journal configuration must be JSON-serialisable: {error}"
        ) from error


class RunJournal:
    """Append-only, crash-safe record of one run's completed units.

    Use :meth:`create` for a fresh run and :meth:`resume` to continue a
    journaled one; the constructor is internal.  Thread-unsafe by design
    (one driver owns the journal; pool workers never touch it — results
    are journaled parent-side).
    """

    def __init__(
        self,
        run_dir: str,
        kind: str,
        config: Dict[str, Any],
        resumed_units: Optional[Dict[str, Dict[str, Any]]] = None,
        next_seq: int = 0,
        complete: bool = False,
    ):
        self.run_dir = run_dir
        self.kind = kind
        self.config = config
        self.path = os.path.join(run_dir, JOURNAL_FILENAME)
        self._units: Dict[str, Dict[str, Any]] = resumed_units or {}
        self._decoded: Dict[str, Any] = {}
        self._next_seq = next_seq
        self._complete = complete
        self._resumed_unit_count = len(self._units)
        self._handle: Optional[io.TextIOWrapper] = None
        self._interrupt_signal: Optional[str] = None

    # -- Construction ------------------------------------------------------

    @classmethod
    def create(
        cls,
        run_dir: str,
        kind: str,
        config: Optional[Dict[str, Any]] = None,
    ) -> "RunJournal":
        """Start a fresh journal under ``run_dir`` (created if missing).

        Refuses to overwrite an existing journal — a stale run directory
        holds state someone may want to resume; delete it explicitly.
        """
        config = _normalize_config(config)
        path = os.path.join(run_dir, JOURNAL_FILENAME)
        if os.path.exists(path):
            raise JournalError(
                f"journal already exists at {path!r}; resume it with "
                f"--resume or remove the run directory to start over"
            )
        os.makedirs(run_dir, exist_ok=True)
        journal = cls(run_dir, kind, config)
        journal._append(
            {
                "type": "header",
                "schema": JOURNAL_SCHEMA,
                "kind": kind,
                "config": config,
                "pid": os.getpid(),
            }
        )
        fsync_directory(run_dir)
        telemetry.event("journal.created", kind=kind, path=path)
        return journal

    @classmethod
    def resume(
        cls,
        run_dir: str,
        kind: Optional[str] = None,
        config: Optional[Dict[str, Any]] = None,
    ) -> "RunJournal":
        """Reopen the journal under ``run_dir`` and load completed units.

        Validates the schema, the run ``kind`` and (when given) the run
        ``config`` against the header — resuming with a different
        configuration would mix incompatible results, so it raises
        :class:`~repro.errors.JournalError` instead.  A torn trailing
        line (hard kill mid-append) is truncated away; any other
        malformed line is an error.
        """
        path = os.path.join(run_dir, JOURNAL_FILENAME)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as error:
            raise JournalError(
                f"no journal to resume at {path!r}: {error}"
            ) from error
        header, units, next_seq, complete, keep = cls._parse(raw, path)
        if kind is not None and header.get("kind") != kind:
            raise JournalError(
                f"{path!r} journals a {header.get('kind')!r} run, not a "
                f"{kind!r} run"
            )
        if config is not None:
            wanted = _normalize_config(config)
            if header.get("config") != wanted:
                raise JournalError(
                    f"{path!r} was recorded with a different run "
                    f"configuration; refusing to resume (journaled: "
                    f"{header.get('config')!r}, requested: {wanted!r})"
                )
        if len(keep) < len(raw):
            # Self-heal the torn tail so the file is valid JSONL again.
            with open(path, "r+b") as handle:
                handle.truncate(len(keep))
            telemetry.event(
                "journal.torn_tail_truncated", path=path,
                dropped_bytes=len(raw) - len(keep),
            )
        journal = cls(
            run_dir,
            header.get("kind", ""),
            header.get("config", {}),
            resumed_units=units,
            next_seq=next_seq,
            complete=complete,
        )
        telemetry.event(
            "journal.resumed", kind=journal.kind, path=path,
            units=len(units), complete=complete,
        )
        telemetry.count("journal.resumed_units", len(units))
        return journal

    @staticmethod
    def _parse(raw: bytes, path: str):
        """Parse journal bytes -> (header, units, next_seq, complete, keep).

        Every append is one newline-terminated line written in a single
        flush+fsync, so the only partial state a hard kill can leave is
        a newline-less tail: ``keep`` is the prefix up to the last
        newline and everything past it is dropped.  A *terminated* line
        that fails to parse means external corruption and raises.
        """
        header: Optional[Dict[str, Any]] = None
        units: Dict[str, Dict[str, Any]] = {}
        next_seq = 0
        complete = False
        keep = raw[: raw.rfind(b"\n") + 1]
        for line_number, line in enumerate(
            keep.decode("utf-8").split("\n")[:-1], start=1
        ):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise JournalError(
                    f"{path}:{line_number}: malformed journal line: {error}"
                ) from error
            if header is None:
                if (
                    record.get("type") != "header"
                    or record.get("schema") != JOURNAL_SCHEMA
                ):
                    raise JournalError(
                        f"{path}: not a {JOURNAL_SCHEMA} journal "
                        f"(first line: {record!r})"
                    )
                header = record
            elif record.get("type") == "unit":
                units[record["key"]] = record
                next_seq = max(next_seq, int(record.get("seq", -1)) + 1)
            elif record.get("type") == "complete":
                complete = True
            # Unknown record types are skipped (forward compatibility).
        if header is None:
            raise JournalError(
                f"{path}: no journal header survived (empty or fully torn "
                f"file)"
            )
        return header, units, next_seq, complete, keep

    # -- Durable append ----------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record(self, key: str, payload: Any, **meta: Any) -> None:
        """Durably journal one completed unit of work.

        The unit is on disk (written, flushed, fsynced) before this
        returns; ``process.kill`` then fires, making "killed at this
        journal boundary" a deterministic test point.  Re-recording an
        existing key is refused — units are immutable history.
        """
        if key in self._units:
            raise JournalError(f"unit {key!r} is already journaled")
        faults.maybe_raise("journal.write")
        record = {
            "type": "unit",
            "seq": self._next_seq,
            "key": key,
            "payload": encode_payload(payload),
        }
        for name, value in meta.items():
            record[name] = value
        self._append(record)
        self._next_seq += 1
        self._units[key] = record
        self._decoded[key] = payload
        telemetry.count("journal.appends")
        if faults.active():
            faults.maybe_kill("process.kill")

    def complete(self, **meta: Any) -> None:
        """Append the run-complete marker (idempotent)."""
        if self._complete:
            return
        record = {"type": "complete", "seq": self._next_seq, "units": len(self._units)}
        record.update(meta)
        self._append(record)
        self._next_seq += 1
        self._complete = True
        telemetry.event("journal.complete", units=len(self._units))

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    # -- Reading back ------------------------------------------------------

    @property
    def is_complete(self) -> bool:
        return self._complete

    @property
    def resumed_unit_count(self) -> int:
        """Units loaded from disk at resume time (0 for a fresh run)."""
        return self._resumed_unit_count

    def __len__(self) -> int:
        return len(self._units)

    def keys(self) -> List[str]:
        return list(self._units)

    def has(self, key: str) -> bool:
        return key in self._units

    def result(self, key: str) -> Any:
        """The journaled payload for ``key`` (unpickled, cached)."""
        if key not in self._decoded:
            self._decoded[key] = decode_payload(self._units[key]["payload"])
        return self._decoded[key]

    def result_or_none(self, key: str) -> Optional[Any]:
        if key not in self._units:
            return None
        return self.result(key)

    def unit_meta(self, key: str) -> Dict[str, Any]:
        """The journaled unit record for ``key`` minus its payload —
        the ``seq`` number and any keyword metadata :meth:`record` took
        (drivers use this to cross-check a unit's identity on resume)."""
        record = dict(self._units[key])
        record.pop("payload", None)
        return record

    # -- Graceful shutdown -------------------------------------------------

    @property
    def interrupted(self) -> bool:
        return self._interrupt_signal is not None

    def check_interrupt(self, site: str) -> None:
        """Raise :class:`~repro.errors.RunInterrupted` at ``site`` if a
        shutdown signal arrived (drivers call this at unit boundaries)."""
        if self._interrupt_signal is None:
            return
        telemetry.event(
            "journal.interrupted", site=site, signal=self._interrupt_signal
        )
        raise RunInterrupted(
            f"run interrupted by {self._interrupt_signal} at {site!r}; "
            f"{len(self._units)} completed unit(s) journaled in "
            f"{self.run_dir!r}",
            site=site,
            signal_name=self._interrupt_signal,
            journal=self,
        )

    @contextmanager
    def shutdown_guard(self) -> Iterator["RunJournal"]:
        """Convert SIGINT/SIGTERM into a clean checkpointed stop.

        While active, the first signal sets the interrupt flag (drivers
        stop at the next unit boundary via :meth:`check_interrupt`); a
        second SIGINT falls through to the previous handler (normally
        ``KeyboardInterrupt``) for users who really mean *now*.  Only
        the main thread can install signal handlers; elsewhere the guard
        is a no-op and the run relies on the default handlers.
        """
        if threading.current_thread() is not threading.main_thread():
            yield self
            return
        previous = {}

        def handler(signum: int, _frame: Any) -> None:
            name = signal.Signals(signum).name
            if self._interrupt_signal is not None and signum == signal.SIGINT:
                original = previous.get(signal.SIGINT)
                if callable(original):
                    original(signum, _frame)
                return
            self._interrupt_signal = name

        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, handler)
        try:
            yield self
        finally:
            for sig, original in previous.items():
                signal.signal(sig, original)


def ignore_sigint() -> None:
    """Process-pool worker initializer: the parent owns shutdown.

    Ctrl-C sends SIGINT to the whole foreground process group; without
    this the workers die first and the parent sees a useless
    ``BrokenProcessPool`` instead of draining them into a checkpoint.
    SIGTERM goes back to the default action: a worker forked inside
    :meth:`RunJournal.shutdown_guard` would otherwise inherit the guard's
    handler, turn ``kill`` into an interrupt flag nobody polls, and
    outlive its parent.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
