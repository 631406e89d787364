"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

Where :mod:`repro.telemetry.core` records a *trace* (every span and
counter increment, in order, for replay), this module keeps *aggregates*:
monotonic counters, last-write-wins gauges and fixed-bucket histograms
(``newton.iterations``, ``layout.call.seconds``, ``mc.shard.seconds``)
cheap enough to stay live for a multi-hour batch and small enough to
serve over HTTP while the run is still going.

Activation mirrors the tracer's cheap-gate idiom: nothing is recorded
unless :func:`enable` (or the :func:`collecting` context manager) armed
the registry, and instrumented hot sites test :func:`enabled` — one
module-global int comparison — before touching a clock.  The registry is
**process-wide** (not thread-local): aggregates are what a monitor
scrapes, so every thread folds into the same totals under a lock.

Population has two feeds:

* **live hooks** — an active :class:`~repro.telemetry.core.Tracer`
  forwards every ``count()``/``gauge()`` to the registry while metrics
  are enabled, so the whole counter vocabulary (``solver.solves``,
  ``layout.calls.estimate``, ...) shows up in ``/metrics`` without a
  second hook at each site; the solver/layout/shard hot sites call
  :func:`observe` directly for latency and iteration distributions;
* **cross-process merge** — a pool worker runs its unit under
  :func:`~repro.telemetry.core.traced_worker`, which ships the
  :meth:`MetricsRegistry.delta_since` of the unit inside the trace
  payload, and :meth:`Tracer.absorb
  <repro.telemetry.core.Tracer.absorb>` merges it here.  A unit
  recovered in-process runs under the parent's own tracer and feeds the
  registry live, so aggregate totals match a clean serial run.

Exposition is Prometheus text format 0.0.4 (:func:`to_prometheus`),
served by :mod:`repro.telemetry.monitor` at ``/metrics``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Schema tag of snapshot payloads (crosses process boundaries pickled).
METRICS_SCHEMA = "repro-metrics-v1"

#: Default histogram buckets for second-valued observations (upper
#: bounds, ``le`` semantics): sub-millisecond solver calls through
#: multi-minute synthesis tasks.
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0,
    60.0, 120.0, 300.0, 600.0,
)

#: Default buckets for small-count observations (Newton iterations,
#: rounds, retries).
COUNT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0, 89.0, 144.0,
)

#: Known histogram names -> their bucket boundaries.  ``observe`` on an
#: unknown name falls back to :data:`SECONDS_BUCKETS` for ``*.seconds``
#: metrics and :data:`COUNT_BUCKETS` otherwise.
DEFAULT_BUCKETS: Dict[str, Tuple[float, ...]] = {
    "newton.iterations": COUNT_BUCKETS,
    "layout.call.seconds": SECONDS_BUCKETS,
    "mc.shard.seconds": SECONDS_BUCKETS,
    "batch.task.seconds": SECONDS_BUCKETS,
    "synthesis.round.seconds": SECONDS_BUCKETS,
    "runtime.dispatch.seconds": SECONDS_BUCKETS,
}


def default_buckets(name: str) -> Tuple[float, ...]:
    """The bucket boundaries a histogram named ``name`` defaults to."""
    known = DEFAULT_BUCKETS.get(name)
    if known is not None:
        return known
    return SECONDS_BUCKETS if name.endswith(".seconds") else COUNT_BUCKETS


class Histogram:
    """Fixed-bucket histogram (Prometheus ``le`` upper-bound semantics).

    ``bounds`` are strictly increasing finite upper bounds; an implicit
    ``+Inf`` bucket catches everything above the last bound.  A value
    exactly on a boundary lands in that boundary's bucket (``v <= le``),
    matching Prometheus' cumulative-bucket convention.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float]):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram bounds must be strictly increasing: {bounds!r}"
            )
        self.bounds = bounds
        #: Per-bucket (non-cumulative) counts; index ``len(bounds)`` is
        #: the overflow (+Inf) bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[int]:
        """Cumulative counts per bound (Prometheus ``_bucket`` values),
        excluding the trailing ``+Inf`` entry (== :attr:`count`)."""
        total = 0
        out = []
        for n in self.counts[:-1]:
            total += n
            out.append(total)
        return out

    def to_payload(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def merge_payload(self, payload: Dict[str, Any]) -> None:
        if tuple(payload["bounds"]) != self.bounds:
            raise ValueError(
                f"cannot merge histogram with bounds "
                f"{tuple(payload['bounds'])!r} into one with {self.bounds!r}"
            )
        for i, n in enumerate(payload["counts"]):
            self.counts[i] += n
        self.sum += payload["sum"]
        self.count += payload["count"]


class MetricsRegistry:
    """Thread-safe aggregate store: counters, gauges and histograms.

    The process singleton lives behind :func:`registry`; constructing
    private instances is fine for tests and for delta arithmetic.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- Recording ---------------------------------------------------------

    def inc(self, name: str, n: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + n

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def observe(
        self, name: str, value: float,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = Histogram(
                    buckets if buckets is not None else default_buckets(name)
                )
                self._histograms[name] = histogram
            histogram.observe(value)

    # -- Reading -----------------------------------------------------------

    def counter(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            return self._counters.get(name, default)

    def gauge(self, name: str, default: float = float("nan")) -> float:
        with self._lock:
            return self._gauges.get(name, default)

    def histogram(self, name: str) -> Optional[Histogram]:
        with self._lock:
            return self._histograms.get(name)

    def __len__(self) -> int:
        with self._lock:
            return (
                len(self._counters) + len(self._gauges)
                + len(self._histograms)
            )

    # -- Snapshot / delta / merge -----------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Picklable, JSON-safe copy of every aggregate right now."""
        with self._lock:
            return {
                "schema": METRICS_SCHEMA,
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: histogram.to_payload()
                    for name, histogram in self._histograms.items()
                },
            }

    def delta_since(self, base: Dict[str, Any]) -> Dict[str, Any]:
        """What happened between ``base`` (an earlier :meth:`snapshot`)
        and now, as a mergeable payload.

        Counters and histogram bucket counts subtract; gauges keep their
        latest value (a gauge has no meaningful difference).  This is
        how a reused pool worker ships *per-unit* metrics home without
        re-counting work from units it ran earlier.
        """
        now = self.snapshot()
        counters = {
            name: value - base.get("counters", {}).get(name, 0.0)
            for name, value in now["counters"].items()
        }
        histograms: Dict[str, Any] = {}
        base_histograms = base.get("histograms", {})
        for name, payload in now["histograms"].items():
            before = base_histograms.get(name)
            if before is not None and (
                tuple(before["bounds"]) == tuple(payload["bounds"])
            ):
                payload = {
                    "bounds": payload["bounds"],
                    "counts": [
                        n - m
                        for n, m in zip(payload["counts"], before["counts"])
                    ],
                    "sum": payload["sum"] - before["sum"],
                    "count": payload["count"] - before["count"],
                }
            histograms[name] = payload
        return {
            "schema": METRICS_SCHEMA,
            "counters": {k: v for k, v in counters.items() if v != 0.0},
            "gauges": now["gauges"],
            "histograms": {
                k: v for k, v in histograms.items() if v["count"] != 0
            },
        }

    def merge(self, payload: Optional[Dict[str, Any]]) -> None:
        """Fold a :meth:`snapshot`/:meth:`delta_since` payload in.

        Counters add, gauges last-write-win, histograms add bucketwise
        (mismatched bucket boundaries raise — both sides run this code,
        so a mismatch means genuinely different configurations).
        """
        if not payload:
            return
        with self._lock:
            for name, value in payload.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0.0) + value
            for name, value in payload.get("gauges", {}).items():
                self._gauges[name] = float(value)
            for name, data in payload.get("histograms", {}).items():
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = Histogram(data["bounds"])
                    self._histograms[name] = histogram
                histogram.merge_payload(data)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- Exposition --------------------------------------------------------

    def to_prometheus(self, prefix: str = "repro_") -> str:
        """Prometheus text exposition format 0.0.4 of every aggregate.

        Metric names are sanitised (``.`` and other non-identifier
        characters become ``_``) and prefixed; counters get the
        conventional ``_total`` suffix.  Output is sorted by name so the
        format is golden-testable.
        """
        snapshot = self.snapshot()
        lines: List[str] = []
        for name in sorted(snapshot["counters"]):
            metric = prefix + _sanitize(name) + "_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_number(snapshot['counters'][name])}")
        for name in sorted(snapshot["gauges"]):
            metric = prefix + _sanitize(name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_number(snapshot['gauges'][name])}")
        for name in sorted(snapshot["histograms"]):
            data = snapshot["histograms"][name]
            metric = prefix + _sanitize(name)
            lines.append(f"# TYPE {metric} histogram")
            total = 0
            for bound, n in zip(data["bounds"], data["counts"]):
                total += n
                lines.append(
                    f'{metric}_bucket{{le="{_number(bound)}"}} {total}'
                )
            lines.append(f'{metric}_bucket{{le="+Inf"}} {data["count"]}')
            lines.append(f"{metric}_sum {_number(data['sum'])}")
            lines.append(f"{metric}_count {data['count']}")
        return "\n".join(lines) + "\n"


def _sanitize(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    text = "".join(out)
    if text and text[0].isdigit():
        text = "_" + text
    return text


def _number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


# -- Process-wide gate and hooks --------------------------------------------

_REGISTRY = MetricsRegistry()
#: Enable nesting depth.  Read without a lock — the GIL makes the int
#: access atomic and it is only a gate, exactly like
#: ``telemetry.core._active_tracers``.
_enabled = 0


def registry() -> MetricsRegistry:
    """The process-wide registry (always usable; hooks only feed it
    while :func:`enabled`)."""
    return _REGISTRY


def enabled() -> bool:
    """True when metrics collection is armed (cheap: one global int)."""
    return _enabled > 0


def enable() -> None:
    """Arm the registry (re-entrant; pair with :func:`disable`)."""
    global _enabled
    _enabled += 1


def disable() -> None:
    global _enabled
    _enabled = max(0, _enabled - 1)


@contextmanager
def collecting(fresh: bool = False) -> Iterator[MetricsRegistry]:
    """Arm the process registry for a block (``fresh=True`` resets it
    first — test and single-run convenience)."""
    if fresh:
        _REGISTRY.reset()
    enable()
    try:
        yield _REGISTRY
    finally:
        disable()


def observe(
    name: str, value: float, buckets: Optional[Sequence[float]] = None
) -> None:
    """Record one histogram observation (no-op while disabled)."""
    if _enabled:
        _REGISTRY.observe(name, value, buckets)
