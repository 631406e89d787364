"""The process-wide memo for the incremental synthesis path.

The synthesis loop (paper Figure 1b) and its verification re-run three
pure computations with largely repeated inputs, one memo *kind* each:

* ``extraction`` — the verification extraction of a generated layout
  (:func:`repro.core.cases.extract_and_measure`), keyed on the layout
  request that drew the cell: an undo to an earlier design and every
  warm re-run extract a cell that was already extracted;
* ``layout`` — whole layout calls: a converged round's ``generate``
  pass, an undo to an earlier sizing and every warm re-run rebuild a
  layout for a sizing that was already built;
* ``sizing`` — sizing rounds: a re-run (benchmark repeat, journal
  resume, warm artifact cache) re-derives the same sizing from the same
  specs, feedback and warm-start state.

Every site goes through :func:`memo`, so capacity, bypass, counters and
the disk tier are decided here.  Keys cover full content (technology
fingerprints, canonicalized request fields), so a
hit returns the result of a computation with bit-identical inputs and
the incremental path is *exact*: switching it off (:func:`set_on`,
``--no-incremental``) changes wall-clock, never output bits.
Fault-injection runs (:mod:`repro.resilience.faults`) bypass the memo —
injected failures must reach the real computation.

The ``layout`` kind is also kept on disk when the cross-run artifact
store (:mod:`repro.runtime.artifacts`) is active, so a fresh process
with ``--cache-dir`` is served the built layout (report, fold config,
placed module frames and routing record; a ``generate`` call draws the
cell from them) without placing or routing again.

Counters (:mod:`repro.telemetry`): ``memo.<kind>.hit``,
``memo.<kind>.miss`` and ``memo.<kind>.evict``; the disk store keeps its
own ``runtime.artifact.{hit,miss}``.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Hashable, Iterator, Optional, Tuple

from repro import telemetry
from repro.resilience import faults


class LruStore:
    """A bounded mapping with least-recently-used eviction.

    Plain ``OrderedDict`` discipline: ``get`` refreshes recency, ``put``
    evicts the oldest entry past ``capacity``.  Iteration order is
    therefore deterministic for a deterministic call sequence, which
    keeps cache *behaviour* (not just cache contents) reproducible.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Any) -> Optional[Any]:
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Any, value: Any) -> int:
        """Insert ``value``; returns how many old entries were evicted."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        evicted = 0
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            evicted += 1
        self.evictions += evicted
        return evicted

    def clear(self) -> None:
        """Drop entries and reset counters (a fresh-store baseline)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


#: Memo kind -> LRU capacity.  Layout results hold their placed module
#: frames and routing record, so that store stays small; an extraction
#: is one per generated layout it verifies, so it gets the same bound; a
#: sizing round is (SizingResult, warm-start snapshot).
CAPACITY: Dict[str, int] = {"extraction": 32, "layout": 32, "sizing": 128}

#: The kind whose values also live in the on-disk artifact store.
DISK_KIND = "layout"

_stores: Dict[str, LruStore] = {
    kind: LruStore(capacity) for kind, capacity in CAPACITY.items()
}

#: Process-wide on/off switch; ``--no-incremental`` turns it off.
_on = True


def set_on(on: bool) -> None:
    """Switch incremental reuse on or off for the whole process."""
    global _on
    _on = bool(on)


@contextmanager
def using(on: bool) -> Iterator[None]:
    """Scoped :func:`set_on` (benchmarks, tests); restores the previous
    setting on exit, error or not."""
    previous = _on
    set_on(on)
    try:
        yield
    finally:
        set_on(previous)


def enabled() -> bool:
    """True when incremental reuse is on and no fault plan is armed.

    Fault-injection runs must reach the real computations — a cache hit
    would swallow the very failure the test armed — so an active fault
    plan disables every store regardless of :func:`set_on`.
    """
    return _on and not faults.active()


def memo(
    kind: str,
    key: Callable[[], Optional[Hashable]],
    compute: Callable[[], Any],
) -> Tuple[Any, str]:
    """``compute()``, served from the ``kind`` memo where possible.

    ``key`` is a zero-argument callable returning the full content key
    of the computation, or ``None`` when this call must not be memoized
    (a stateful stand-in, a budgeted round); it runs only when
    :func:`enabled`, so a bypassed call pays nothing for hashing.
    Returns ``(value, source)`` with ``source`` one of ``"computed"``,
    ``"memo"`` or ``"disk"``.  ``compute`` must not return ``None``.
    """
    content = key() if enabled() else None
    if content is None:
        return compute(), "computed"
    store = _stores[kind]
    value = store.get(content)
    if value is not None:
        telemetry.count(f"memo.{kind}.hit")
        return value, "memo"
    telemetry.count(f"memo.{kind}.miss")
    disk = None
    if kind == DISK_KIND:
        from repro.runtime import artifacts

        disk = artifacts.active()
    value = None if disk is None else disk.get(kind, content)
    source = "disk"
    if value is None:
        value, source = compute(), "computed"
        if disk is not None:
            disk.put(kind, content, value)
    evicted = store.put(content, value)
    if evicted:
        telemetry.count(f"memo.{kind}.evict", evicted)
    return value, source


def clear() -> None:
    """Drop every process-wide store (tests, benchmarks)."""
    for store in _stores.values():
        store.clear()


def stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/eviction counters per kind (observability, tests)."""
    return {
        kind: {
            "entries": len(store),
            "hits": store.hits,
            "misses": store.misses,
            "evictions": store.evictions,
        }
        for kind, store in _stores.items()
    }
