"""Trace-driven profiler: self-time attribution over recorded span trees.

:mod:`repro.telemetry.replay` answers "what happened" (the span tree);
this module answers "where did the time go".  The per-name rows — call
count, total (inclusive) seconds, **self** (exclusive) seconds, and
p50/p95 of the per-call durations — are built by the same single pass
that rebuilds the tree (:attr:`TraceSummary.profile
<repro.telemetry.replay.TraceSummary.profile>`); this module renders
them (:func:`format_profile_table`) and emits the ``stack;path count``
lines standard flamegraph tooling consumes (:func:`collapsed_stacks`:
Brendan Gregg's ``flamegraph.pl``, speedscope, inferno).

Self-time is defined the usual way: a span's duration minus the summed
durations of its *direct* children.  Attribution is exact on a serial
trace — the self-times of every span partition the root's wall clock, so
``sum(self) == root.dur`` — and intentionally *not* clamped for absorbed
process-pool subtrees, where children overlap in wall time and a
parent's self-time can legitimately go negative (the pool span waited
while K workers burned K times the wall clock; a negative self reads as
"this span's children overlapped").  Collapsed-stack output clamps at
zero because flamegraph counts must be non-negative.

CLI: ``python -m repro profile TRACE [--top N] [--collapsed FILE]``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.telemetry.replay import SpanNode, SpanProfile


def collapsed_stacks(
    roots: List[SpanNode], scale: float = 1e6
) -> Dict[str, int]:
    """Flamegraph-collapsed mapping ``"a;b;c" -> self-time units``.

    Each key is the ``;``-joined span-name path from a root down; each
    value is that path's summed self-time in integer units (microseconds
    by default — flamegraph tooling wants integer counts).  Identical
    paths from repeated calls merge; zero/negative self-times (absorbed
    parallel subtrees) are dropped, as a flamegraph cannot draw them.
    """
    stacks: Dict[str, float] = {}

    def walk(node: SpanNode, prefix: str) -> None:
        path = f"{prefix};{node.name}" if prefix else node.name
        stacks[path] = stacks.get(path, 0.0) + node.self_s
        for child in node.children:
            walk(child, path)

    for root in roots:
        walk(root, "")
    collapsed = {}
    for path in sorted(stacks):
        units = int(round(stacks[path] * scale))
        if units > 0:
            collapsed[path] = units
    return collapsed


def format_collapsed(stacks: Dict[str, int]) -> str:
    """One ``stack;path count`` line per entry (flamegraph.pl input)."""
    return "\n".join(f"{path} {count}" for path, count in stacks.items())


def format_profile_table(
    rows: List[SpanProfile],
    top: Optional[int] = None,
    wall_s: Optional[float] = None,
) -> str:
    """Human-readable profile table (ranked by self-time).

    ``wall_s`` (typically the root span's duration) adds a ``self%``
    column attributing wall clock per name.
    """
    if top is not None:
        rows = rows[:top]
    header: Tuple[str, ...] = (
        "span", "calls", "total (s)", "self (s)",
        "self%", "p50 (ms)", "p95 (ms)",
    )
    table: List[Tuple[str, ...]] = [header]
    for row in rows:
        share = (
            f"{100.0 * row.self_s / wall_s:.1f}%"
            if wall_s else "-"
        )
        table.append(
            (
                row.name,
                str(row.count),
                f"{row.total_s:.3f}",
                f"{row.self_s:.3f}",
                share,
                f"{row.p50_s * 1e3:.1f}",
                f"{row.p95_s * 1e3:.1f}",
            )
        )
    widths = [
        max(len(line[col]) for line in table) for col in range(len(header))
    ]
    lines = []
    for i, line in enumerate(table):
        cells = [line[0].ljust(widths[0])]
        cells += [
            cell.rjust(widths[col])
            for col, cell in enumerate(line[1:], start=1)
        ]
        lines.append("  ".join(cells).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
