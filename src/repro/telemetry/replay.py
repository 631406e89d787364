"""Trace replay: rebuild the span tree and aggregate its signals.

:func:`summarize` turns a flat record list (live from a
:class:`~repro.telemetry.core.Tracer` or read back from JSONL) into a
:class:`TraceSummary`: the span tree, global counter/gauge totals, and
per-name profile rows.  After linking the records into a tree it makes
one post-order pass: every node gets its subtree counter totals
(:attr:`SpanNode.totals`) and its self time (:attr:`SpanNode.self_s`),
and the per-name :class:`SpanProfile` rows (calls, total, self, p50,
p95) are built.  ``TraceSummary.format_tree`` (the ``python -m repro
trace`` text), ``TraceSummary.to_json``, ``TraceSummary.to_prometheus``
(the ``--metrics FILE`` snapshot) and the profiler's table and collapsed
stacks (:mod:`repro.telemetry.profile`) only read those values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

#: Schema tag of the machine-readable summary (``repro trace --json``).
SUMMARY_SCHEMA = "repro-trace-summary-v1"


@dataclass
class SpanNode:
    """One span in the rebuilt tree."""

    id: int
    name: str
    t0: float
    dur: float
    status: str
    error: Optional[str]
    attrs: Dict[str, Any]
    children: List["SpanNode"] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    """Counter increments recorded directly under this span."""
    events: List[Dict[str, Any]] = field(default_factory=list)
    totals: Dict[str, float] = field(default_factory=dict)
    """Counter totals over this span and all its descendants."""
    self_s: float = 0.0
    """Exclusive seconds: duration minus the direct children's.  Not
    clamped: under an absorbed process-pool subtree the children overlap
    in wall time and a parent's self time can go negative."""

    def walk(self) -> Iterator["SpanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class SpanProfile:
    """Aggregate profile row for one span name."""

    name: str
    count: int
    total_s: float
    """Inclusive seconds summed over every occurrence."""
    self_s: float
    """Exclusive seconds: total minus time inside direct children."""
    p50_s: float
    p95_s: float
    """Percentiles of the per-call *inclusive* durations."""


@dataclass
class TraceSummary:
    """Aggregated view of one trace."""

    counters: Dict[str, float]
    gauges: Dict[str, float]
    profile: List[SpanProfile]
    """One row per span name, ranked by self time (descending), total
    time breaking ties."""
    roots: List[SpanNode]

    def counter(self, name: str, default: float = 0.0) -> float:
        return self.counters.get(name, default)

    def span_count(self, name: str) -> int:
        return next(
            (row.count for row in self.profile if row.name == name), 0
        )

    def spans(self, name: str) -> List[SpanNode]:
        """Every span named ``name``, in tree order."""
        found: List[SpanNode] = []
        for root in self.roots:
            for node in root.walk():
                if node.name == name:
                    found.append(node)
        return found

    # -- Rendering ---------------------------------------------------------

    def format_tree(self, counters_per_span: bool = True) -> str:
        """Human-readable per-phase timing/counter tree."""
        lines: List[str] = []
        for root in self.roots:
            self._format_node(root, "", "", lines, counters_per_span)
        if self.counters:
            lines.append("counters:")
            width = max(len(name) for name in self.counters)
            for name in sorted(self.counters):
                lines.append(
                    f"  {name:<{width}}  {_format_number(self.counters[name])}"
                )
        if self.gauges:
            lines.append("gauges:")
            width = max(len(name) for name in self.gauges)
            for name in sorted(self.gauges):
                lines.append(
                    f"  {name:<{width}}  {self.gauges[name]:g}"
                )
        return "\n".join(lines)

    def _format_node(
        self,
        node: SpanNode,
        prefix: str,
        child_prefix: str,
        lines: List[str],
        counters_per_span: bool,
    ) -> None:
        label = node.name
        if node.attrs:
            inner = ", ".join(
                f"{key}={node.attrs[key]}" for key in sorted(node.attrs)
            )
            label += f" ({inner})"
        label += f"  {node.dur:.3f} s"
        if node.status != "ok":
            label += f"  [ERROR: {node.error}]"
        if counters_per_span:
            totals = node.totals
            if totals:
                inner = ", ".join(
                    f"{name}={_format_number(totals[name])}"
                    for name in sorted(totals)
                )
                label += f"  [{inner}]"
        lines.append(prefix + label)
        for i, child in enumerate(node.children):
            last = i == len(node.children) - 1
            branch = "└─ " if last else "├─ "
            extend = "   " if last else "│  "
            self._format_node(
                child,
                child_prefix + branch,
                child_prefix + extend,
                lines,
                counters_per_span,
            )

    def to_json(self) -> Dict[str, Any]:
        """Machine-readable summary (stable keys, JSON-serialisable)."""

        def node_json(node: SpanNode) -> Dict[str, Any]:
            return {
                "name": node.name,
                "t0": node.t0,
                "dur": node.dur,
                "status": node.status,
                "error": node.error,
                "attrs": node.attrs,
                "counts": node.totals,
                "events": node.events,
                "children": [node_json(child) for child in node.children],
            }

        return {
            "schema": SUMMARY_SCHEMA,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "spans": {
                row.name: {"count": row.count, "total_s": row.total_s}
                for row in self.profile
            },
            "tree": [node_json(root) for root in self.roots],
        }

    def format_json(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition (format 0.0.4) of the counter and
        gauge totals.

        Names are sanitised (``.`` and other non-identifier characters
        become ``_``) and prefixed with ``repro_``; counters get the
        conventional ``_total`` suffix.  Each kind is sorted by name, so
        the output is golden-testable.
        """
        lines: List[str] = []
        for kind, values, suffix in (
            ("counter", self.counters, "_total"),
            ("gauge", self.gauges, ""),
        ):
            for name in sorted(values):
                metric = "repro_" + _prometheus_name(name) + suffix
                lines.append(f"# TYPE {metric} {kind}")
                lines.append(f"{metric} {_prometheus_number(values[name])}")
        return "\n".join(lines) + "\n"


def _format_number(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:g}"


def _prometheus_name(name: str) -> str:
    text = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    return "_" + text if text[:1].isdigit() else text


def _prometheus_number(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _percentile(ordered: List[float], q: float) -> float:
    """Linear-interpolation percentile of an already-sorted sample list."""
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    lo = int(position)
    hi = min(lo + 1, len(ordered) - 1)
    fraction = position - lo
    return ordered[lo] * (1.0 - fraction) + ordered[hi] * fraction


def summarize(records: List[Dict[str, Any]]) -> TraceSummary:
    """Rebuild the span tree and aggregates from a flat record list.

    Tolerant of partial traces: the children of a span that never
    closed (crash mid-span) surface as roots, and counters recorded
    under it still reach the global totals.
    """
    nodes: Dict[int, SpanNode] = {}
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    # parent id -> deferred children/counters/events (children close
    # before their parent exists as a node).
    pending_children: Dict[int, List[SpanNode]] = {}
    pending_counts: Dict[int, Dict[str, float]] = {}
    pending_events: Dict[int, List[Dict[str, Any]]] = {}
    roots: List[SpanNode] = []

    for record in records:
        kind = record.get("type")
        if kind == "span":
            node = SpanNode(
                id=record["id"],
                name=record["name"],
                t0=record.get("t0", 0.0),
                dur=record.get("dur", 0.0),
                status=record.get("status", "ok"),
                error=record.get("error"),
                attrs=record.get("attrs", {}) or {},
            )
            nodes[node.id] = node
            # Adopt anything recorded under this span before it closed.
            node.children.extend(pending_children.pop(node.id, []))
            node.counts.update(pending_counts.pop(node.id, {}))
            node.events.extend(pending_events.pop(node.id, []))
            parent = record.get("parent")
            if parent is None:
                roots.append(node)
            elif parent in nodes:
                nodes[parent].children.append(node)
            else:
                pending_children.setdefault(parent, []).append(node)
        elif kind == "count":
            name = record["name"]
            n = record.get("n", 1)
            counters[name] = counters.get(name, 0.0) + n
            parent = record.get("parent")
            if parent is not None:
                node = nodes.get(parent)
                bucket = (
                    node.counts if node is not None
                    else pending_counts.setdefault(parent, {})
                )
                bucket[name] = bucket.get(name, 0.0) + n
        elif kind == "gauge":
            gauges[record["name"]] = record.get("value", 0.0)
        elif kind == "event":
            parent = record.get("parent")
            payload = {
                "name": record.get("name"),
                "t": record.get("t"),
                "attrs": record.get("attrs", {}) or {},
            }
            if parent is not None:
                node = nodes.get(parent)
                if node is not None:
                    node.events.append(payload)
                else:
                    pending_events.setdefault(parent, []).append(payload)
        # Unknown record types are skipped (forward compatibility).

    # Spans that never closed: surface their orphaned children as roots.
    for children in pending_children.values():
        roots.extend(children)
    roots.sort(key=lambda node: node.t0)

    durations: Dict[str, List[float]] = {}
    self_times: Dict[str, float] = {}

    def finish(node: SpanNode) -> None:
        # Children close before parents, so adopted child lists are in
        # completion order; visit them by start time.
        node.children.sort(key=lambda child: child.t0)
        totals = dict(node.counts)
        for child in node.children:
            finish(child)
            for name, value in child.totals.items():
                totals[name] = totals.get(name, 0.0) + value
        node.totals = totals
        node.self_s = node.dur - sum(child.dur for child in node.children)
        durations.setdefault(node.name, []).append(node.dur)
        self_times[node.name] = self_times.get(node.name, 0.0) + node.self_s

    for root in roots:
        finish(root)

    profile = []
    for name, samples in durations.items():
        ordered = sorted(samples)
        profile.append(
            SpanProfile(
                name=name,
                count=len(samples),
                total_s=sum(samples),
                self_s=self_times[name],
                p50_s=_percentile(ordered, 0.50),
                p95_s=_percentile(ordered, 0.95),
            )
        )
    profile.sort(key=lambda row: (-row.self_s, -row.total_s, row.name))
    return TraceSummary(
        counters=counters, gauges=gauges, profile=profile, roots=roots
    )
