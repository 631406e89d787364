"""Hierarchical tracing core: spans, events, counters and gauges.

A :class:`Tracer` records one run's telemetry as a flat list of plain-dict
records (spans close child-before-parent; the tree is rebuilt from parent
ids by :mod:`repro.telemetry.replay`).  Tracers are *thread-local*: a
tracer is activated on the current thread with :meth:`Tracer.activate`
(or the :func:`trace_run` convenience) and the module-level helpers
:func:`span` / :func:`event` / :func:`count` / :func:`gauge` route to it.

The disabled fast path is a single module-global integer comparison
(``_active_tracers``), mirroring :func:`repro.resilience.faults.active`:
instrumented hot sites (Newton solves, model-cache lookups, router
placement loops) call :func:`enabled` first and pay near-zero when no
tracer is armed anywhere in the process.  ``tests/test_telemetry.py``
guards this with an overhead benchmark.

The records are the only per-run store: a run's counter and gauge
totals are derived from them (:meth:`Tracer.summary`).  Process-pool
workers (batch tasks, Monte-Carlo shards) cannot share the parent's
tracer; each unit runs under a fresh worker tracer, then ships its
picklable ``{"records"}`` payload back (:meth:`Tracer.trace_payload`)
for the parent to graft under the current span with
:meth:`Tracer.absorb` — ids are remapped and worker-relative timestamps
shifted to the parent timeline.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Schema tag of the JSONL trace container (header line of every file).
TRACE_SCHEMA = "repro-trace-v1"

_state = threading.local()
#: Count of activated tracers across all threads.  Read without a lock —
#: the GIL makes the int access atomic, and the value is only a gate: the
#: authoritative test is the thread-local lookup in :func:`current`.
_active_tracers = 0


def enabled() -> bool:
    """True when a tracer is active on the *current* thread (cheap)."""
    return _active_tracers > 0 and getattr(_state, "tracer", None) is not None


def current() -> Optional["Tracer"]:
    """The current thread's active tracer, or ``None``."""
    if _active_tracers == 0:
        return None
    return getattr(_state, "tracer", None)


class _NullSpan:
    """Reusable no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span; records itself on exit (exception-safe)."""

    __slots__ = ("_tracer", "_name", "_attrs", "_id", "_parent", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._id: Optional[int] = None
        self._parent: Optional[int] = None
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self._id = tracer._allocate_id()
        self._parent = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self._id)
        self._t0 = tracer.now()
        return self

    def annotate(self, **attrs: Any) -> None:
        """Add attributes known only once the span's work has run."""
        self._attrs.update(attrs)

    def __exit__(self, exc_type, exc, _tb) -> bool:
        tracer = self._tracer
        duration = tracer.now() - self._t0
        tracer._stack.pop()
        tracer.records.append(
            {
                "type": "span",
                "id": self._id,
                "parent": self._parent,
                "name": self._name,
                "t0": self._t0,
                "dur": duration,
                "status": "ok" if exc_type is None else "error",
                "error": None if exc is None else repr(exc),
                "attrs": self._attrs,
            }
        )
        return False


class Tracer:
    """Collects one run's spans, events, counters and gauges as records.

    ``clock`` is injectable for deterministic tests; timestamps are
    seconds relative to the tracer's construction.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.records: List[Dict[str, Any]] = []
        self._clock = clock
        self._origin = clock()
        self._stack: List[int] = []
        self._next_id = 0

    # -- Internals ---------------------------------------------------------

    def now(self) -> float:
        """Current tracer-relative timestamp (the unit of all records)."""
        return self._clock() - self._origin

    def _allocate_id(self) -> int:
        span_id = self._next_id
        self._next_id = span_id + 1
        return span_id

    def _parent_id(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    # -- Recording surface -------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _Span:
        """Context manager recording a hierarchical timed span."""
        return _Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """A point-in-time typed event under the current span."""
        self.records.append(
            {
                "type": "event",
                "name": name,
                "t": self.now(),
                "parent": self._parent_id(),
                "attrs": attrs,
            }
        )

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to the monotonic counter ``name`` (under the current
        span, so replay can aggregate counters per subtree)."""
        self.records.append(
            {
                "type": "count",
                "name": name,
                "n": n,
                "t": self.now(),
                "parent": self._parent_id(),
            }
        )

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of ``name`` (last write wins)."""
        self.records.append(
            {
                "type": "gauge",
                "name": name,
                "value": float(value),
                "t": self.now(),
                "parent": self._parent_id(),
            }
        )

    # -- Activation --------------------------------------------------------

    @contextmanager
    def activate(self) -> Iterator["Tracer"]:
        """Make this tracer the current thread's active tracer."""
        global _active_tracers
        previous = getattr(_state, "tracer", None)
        _state.tracer = self
        _active_tracers += 1
        try:
            yield self
        finally:
            _state.tracer = previous
            _active_tracers -= 1

    # -- Cross-process protocol -------------------------------------------

    def trace_payload(self) -> Dict[str, Any]:
        """Picklable ``{"records"}`` snapshot for shipping across a
        process boundary."""
        return {"records": self.records}

    def absorb(self, payload: Dict[str, Any], t_offset: float = 0.0) -> None:
        """Graft a worker tracer's payload under the current span.

        Record ids are remapped past this tracer's id space, the
        payload's root records are re-parented to the current span, and
        timestamps are shifted by ``t_offset`` seconds so the worker's
        records sit on this tracer's timeline.
        """
        base = self._next_id
        parent = self._parent_id()
        max_id = -1
        for record in payload["records"]:
            record = dict(record)
            record_id = record.get("id")
            if record_id is not None:
                max_id = max(max_id, record_id)
                record["id"] = record_id + base
            old_parent = record.get("parent")
            record["parent"] = (
                parent if old_parent is None else old_parent + base
            )
            if "t0" in record:
                record["t0"] += t_offset
            if "t" in record:
                record["t"] += t_offset
            self.records.append(record)
        self._next_id = base + max_id + 1

    # -- Export ------------------------------------------------------------

    def write_jsonl(
        self, path: str, name: str = "trace", append: bool = False
    ) -> None:
        """Write this tracer's records as a JSONL trace file.

        ``append=True`` adds a new trace segment instead of replacing the
        file — how a resumed run extends the original run's trace.
        """
        from repro.telemetry.export import write_jsonl

        write_jsonl(self.records, path, name=name, append=append)

    def summary(self):
        """The :class:`~repro.telemetry.replay.TraceSummary` of this
        tracer's records so far: the run's span tree and its counter and
        gauge totals."""
        from repro.telemetry.replay import summarize

        return summarize(self.records)


# -- Module-level helpers (route to the current thread's tracer) -----------


def span(name: str, **attrs: Any):
    """A span on the current tracer, or a shared no-op when disabled."""
    tracer = current()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    tracer = current()
    if tracer is not None:
        tracer.event(name, **attrs)


def count(name: str, n: float = 1) -> None:
    tracer = current()
    if tracer is not None:
        tracer.count(name, n)


def gauge(name: str, value: float) -> None:
    tracer = current()
    if tracer is not None:
        tracer.gauge(name, value)


@contextmanager
def trace_run(name: str = "run", **attrs: Any) -> Iterator[Tracer]:
    """Activate a fresh tracer with one root span for the block."""
    tracer = Tracer()
    with tracer.activate():
        with tracer.span(name, **attrs):
            yield tracer

