"""Dependency-free synthesis telemetry.

The observability substrate of the stack (DESIGN.md §8): a thread-local
:class:`Tracer` whose records (hierarchical spans, typed events,
counters and gauges) are the only telemetry store, a JSONL trace
container, a replay pass that folds a trace into a per-phase
timing/counter tree and per-name profile rows in one walk
(:class:`~repro.telemetry.replay.TraceSummary`), and the renderings of
that summary: the replay tree and JSON, the profiler's table, and the
Prometheus text snapshot that ``--metrics FILE`` writes.

Instrumentation sites use the module-level helpers, which no-op at the
cost of one global integer test when no tracer is active::

    from repro import telemetry

    with telemetry.span("synthesis.round", round=i):
        telemetry.count("solver.newton_iterations", n)

Enable tracing for a block with :func:`trace_run` (tests, library use)
or the ``--trace FILE`` CLI flag; replay a written file with
``python -m repro trace FILE``.
"""

from repro.telemetry import profile
from repro.telemetry.core import (
    TRACE_SCHEMA,
    Tracer,
    count,
    current,
    enabled,
    event,
    gauge,
    span,
    trace_run,
)
from repro.telemetry.export import read_jsonl, write_jsonl
from repro.telemetry.replay import (
    SUMMARY_SCHEMA,
    SpanNode,
    TraceSummary,
    summarize,
)

__all__ = [
    "TRACE_SCHEMA",
    "SUMMARY_SCHEMA",
    "Tracer",
    "TraceSummary",
    "SpanNode",
    "count",
    "current",
    "enabled",
    "event",
    "gauge",
    "profile",
    "read_jsonl",
    "span",
    "summarize",
    "trace_run",
    "write_jsonl",
]
