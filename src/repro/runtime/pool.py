"""Process-wide persistent executor and the shared dispatch engine.

Every parallel entry point in the stack (``table1 --jobs``, ``flows
--jobs``, Monte-Carlo shards) used to build a fresh
``ProcessPoolExecutor`` per run — and per retry round — so dispatch cost
was dominated by process spawn plus the numpy/repro import in every
worker.  This module hoists all of that into one place:

- :func:`acquire` hands out a lease on a process-wide executor that is
  created once and reused across runs (``runtime.pool.reuse`` counts the
  wins).  A lease over a pool that saw a timeout or a worker death is
  discarded — a broken pool must never be reused — and the next round
  acquires a fresh one.  :func:`shutdown` drops the live pool, so the
  next dispatch starts cold; results are bit-identical either way
  because worker count and pool lifetime never feed back into the
  computation.

- :func:`run_dispatch` is the one dispatch loop both
  :mod:`repro.core.batch` and :mod:`repro.analysis.montecarlo` are thin
  clients of.  It preserves the shard-recovery contract those modules
  grew independently: pickle pre-validation stays client-side (before
  any worker spawns), a unit whose worker dies or times out is
  resubmitted a bounded number of times and then run in-process, the
  journal drain harvests completed futures on SIGINT/SIGTERM before
  :class:`~repro.errors.RunInterrupted` propagates, and budget checks
  run at round and fallback boundaries.

  Every unit crosses through one worker-side wrapper (the crash-fault
  hook, plus a worker tracer only when the parent traces); the engine
  grafts the worker's trace payload under the parent's span, so clients
  never see tracing, and a unit recovered in-process runs under the
  parent's own tracer.

- :func:`resident_object` is the worker-side content-keyed cache:
  instead of re-shipping and recompiling a testbench per shard, tasks
  carry a content hash plus an optional payload.  A worker that already
  holds the compiled state under that key skips the rebuild; a worker
  asked to work without a payload it does not hold answers with a
  :class:`CacheMiss` sentinel and the dispatcher resubmits with the
  payload attached (an uncounted round: cache misses are not failures).
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro import telemetry
from repro.resilience import faults
from repro.resilience.budget import Budget
from repro.resilience.journal import RunJournal, ignore_sigint
from repro.telemetry import metrics

# --------------------------------------------------------------------------
# Persistent executor


class PoolLease:
    """The process-wide executor plus its payload-shipping ledger.

    :func:`acquire` hands the live pool to every dispatch round; a clean
    round simply drops it and the pool stays warm.  :meth:`discard`
    tears it down, which is mandatory after a timeout or worker death.
    """

    __slots__ = ("executor", "max_workers", "generation", "shipped")

    def __init__(self, executor: Any, max_workers: int, generation: int):
        self.executor = executor
        self.max_workers = max_workers
        self.generation = generation
        #: Content keys whose payload at least one worker of this pool
        #: generation has acknowledged (see :meth:`mark_shipped`).
        self.shipped: Set[str] = set()

    def key_shipped(self, key: str) -> bool:
        """Whether this pool's workers have seen ``key``'s payload."""
        return key in self.shipped

    def mark_shipped(self, key: str) -> None:
        self.shipped.add(key)

    def unship(self, key: str) -> None:
        """Forget ``key`` (a worker reported a :class:`CacheMiss`)."""
        self.shipped.discard(key)

    def discard(self, wait: bool) -> None:
        """Tear the pool down (timeout, worker death, or propagating
        error); the next :func:`acquire` starts a fresh generation."""
        global _STATE
        try:
            self.executor.shutdown(wait=wait, cancel_futures=True)
        finally:
            if _STATE is self:
                _STATE = None


_STATE: Optional[PoolLease] = None
_GENERATION = 0

#: Seconds between a worker's checks that its parent is still alive.
_PARENT_POLL_S = 0.5


def _init_worker() -> None:
    """Pool worker initializer: the parent owns shutdown and lifetime.

    Workers ignore SIGINT (:func:`~repro.resilience.journal.ignore_sigint`)
    and exit once their parent is gone.  A parent killed outright (the
    ``process.kill`` fault, SIGKILL, OOM) never shuts its pool down, and
    its workers would otherwise wait on the call queue forever.  A daemon
    thread compares ``os.getppid()`` with the parent recorded at
    start-up: re-parenting means the parent process died.
    (``PR_SET_PDEATHSIG`` fires when the parent *thread* that forked the
    worker exits, which for an executor is not the parent's lifetime.)
    """
    ignore_sigint()
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(
        target=watch, name="repro-parent-watch", daemon=True
    ).start()


def acquire(max_workers: int) -> PoolLease:
    """Lease an executor with at least ``max_workers`` workers.

    Reuses the process-wide pool when the live pool is big enough;
    otherwise (first call, after :func:`shutdown` or a discard, or pool
    too small) creates one.  Workers always ignore SIGINT so Ctrl-C —
    delivered to the whole process group — leaves the pool intact for
    the parent's journal drain, and exit on their own when the parent
    dies (:func:`_init_worker`).
    """
    global _STATE, _GENERATION
    from concurrent.futures import ProcessPoolExecutor

    state = _STATE
    if (
        state is not None
        and not getattr(state.executor, "_broken", False)
        and state.max_workers >= max_workers
    ):
        telemetry.count("runtime.pool.reuse")
        return state
    if state is not None:
        _STATE = None
        state.executor.shutdown(wait=True, cancel_futures=True)
    _GENERATION += 1
    executor = ProcessPoolExecutor(
        max_workers=max_workers, initializer=_init_worker
    )
    _STATE = PoolLease(executor, max_workers, _GENERATION)
    telemetry.count("runtime.pool.create")
    return _STATE


def shutdown(wait: bool = True) -> None:
    """Shut down the persistent executor (atexit, tests, benchmarks)."""
    global _STATE
    state = _STATE
    _STATE = None
    if state is not None:
        state.executor.shutdown(wait=wait, cancel_futures=True)


def pool_generation() -> int:
    """Generation of the live persistent pool (0 when none exists)."""
    return _STATE.generation if _STATE is not None else 0


atexit.register(shutdown)


# --------------------------------------------------------------------------
# Worker-resident content-keyed object cache


class CacheMiss:
    """Picklable worker answer: "I don't hold ``key``, resend the payload".

    Crossing the pool boundary as a *result* (never an exception) keeps
    the miss distinct from every failure path the dispatcher recovers
    from.
    """

    __slots__ = ("key",)

    def __init__(self, key: str):
        self.key = key

    def __reduce__(self):
        return (CacheMiss, (self.key,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheMiss({self.key!r})"


class NeedPayload(Exception):
    """Raised worker-side by :func:`resident_object` on a cold cache.

    Worker entry points convert it into a returned :class:`CacheMiss`;
    it never crosses the process boundary itself.
    """

    def __init__(self, key: str):
        super().__init__(key)
        self.key = key


#: Compiled state cached per worker process, keyed on content hashes.
#: Bounded: entries are distinct testbench/measure payloads, a handful
#: per realistic session, but a runaway caller must not grow worker RSS.
_RESIDENT: "OrderedDict[str, Any]" = OrderedDict()
_RESIDENT_CAP = 8


def resident_object(
    key: str, payload: Optional[bytes], build: Callable[[bytes], Any]
) -> Any:
    """The worker-resident object under ``key``, building it on demand.

    ``payload`` is the serialized construction recipe (or ``None`` when
    the parent believes this pool already holds the object); ``build``
    turns the raw bytes into the resident state.  Raises
    :class:`NeedPayload` when asked to build without a payload.
    """
    entry = _RESIDENT.get(key)
    if entry is not None:
        _RESIDENT.move_to_end(key)
        telemetry.count("runtime.resident.hit")
        return entry
    if payload is None:
        raise NeedPayload(key)
    telemetry.count("runtime.resident.miss")
    entry = build(payload)
    _RESIDENT[key] = entry
    while len(_RESIDENT) > _RESIDENT_CAP:
        _RESIDENT.popitem(last=False)
    return entry


def resident_cache_size() -> int:
    return len(_RESIDENT)


def clear_resident() -> None:
    _RESIDENT.clear()


# --------------------------------------------------------------------------
# The shared dispatch engine


def _run_in_worker(
    fn: Callable[..., Any], args: Tuple[Any, ...], traced: bool, crash: bool
) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """Pool-side wrapper of every unit: ``(outcome, trace payload)``.

    ``crash`` is the fault-injection hook: the parent's fault registry
    decided this unit's worker should die, and it obliges with an
    unclean exit so the recovery path sees a genuine broken pool.
    ``fn`` is the same per-unit entry the parent runs in-process; only
    when the parent traces does it run under a worker tracer
    (:func:`~repro.telemetry.core.traced_worker`), whose payload the
    parent grafts under its current span.
    """
    if crash:
        os._exit(1)
    if not traced:
        return fn(*args), None
    with telemetry.traced_worker() as tracer:
        outcome = fn(*args)
    return outcome, tracer.trace_payload()


@dataclass(frozen=True)
class DispatchSites:
    """Per-caller names for the dispatch engine's instrumentation and
    checkpoint sites, so batch and Monte-Carlo keep their established
    budget/journal/fault vocabularies through the shared loop."""

    fault_site: str
    """Fault-injection site fired per submission (``faults.fire``)."""
    budget_round: str
    """Budget checkpoint at the top of every dispatch round."""
    drain_site: str
    """Journal interrupt site after draining in-flight futures."""
    fallback_check: str
    """Journal interrupt site before each in-process fallback unit."""
    budget_fallback: str
    """Budget checkpoint before each in-process fallback unit."""
    unit_kw: str
    """Keyword naming the unit index in fallback budget checks."""
    transport_shutdown_wait: bool = False
    """Drain the pool before raising a transport (result-pickling)
    error — Monte-Carlo's historical behavior; batch fails immediately."""


def run_dispatch(
    client: Any,
    pending: List[int],
    jobs: int,
    unit_timeout: Optional[float],
    max_retries: int,
    budget: Optional[Budget],
    journal: Optional[RunJournal],
    sites: DispatchSites,
) -> None:
    """Run ``pending`` unit indices through the pool with bounded recovery.

    The client owns unit semantics; the engine owns the lifecycle.  A
    client provides::

        job(lease, i, resend) -> (fn, args)  # picklable worker call
        accept(i, outcome)                # harvest one result
        has_result(i) -> bool             # for the journal drain
        begin_attempt(i)                  # attempts ledger
        note_timeout(i, timeout)          # status + telemetry
        note_death(i, error)              # status + telemetry
        transport_exceptions              # tuple caught as fail-fast
        transport_error(i, error) -> Exception
        fallback(i)                       # in-process recovery

    A unit whose worker dies or times out is resubmitted on a fresh pool
    up to ``max_retries`` times and then handed to ``fallback``.  A
    worker answering :class:`CacheMiss` gets its unit resubmitted with
    the payload forced — on the same attempt, without consuming a retry
    round, because a cold cache is not a failure.  With a tracer
    active, each worker's trace payload is grafted under the current
    span at the unit's submit time before ``accept`` sees the outcome.
    Whole-dispatch wall time lands in the ``runtime.dispatch.seconds``
    histogram.
    """
    from concurrent.futures import BrokenExecutor
    from concurrent.futures import TimeoutError as FuturesTimeoutError
    from concurrent.futures import wait

    tracer = telemetry.current()
    traced = tracer is not None
    submit_times: Dict[int, float] = {}

    def harvest(i: int, result: Tuple[Any, Any]) -> Any:
        """Graft the unit's worker trace; return its outcome."""
        outcome, trace = result
        if trace is not None and not isinstance(outcome, CacheMiss):
            tracer.absorb(trace, t_offset=submit_times[i])
        return outcome

    t_start = time.perf_counter()
    rounds_used = 0
    resend: Set[int] = set()
    try:
        while pending and rounds_used <= max_retries:
            if any(i not in resend for i in pending):
                rounds_used += 1
            if budget is not None:
                budget.check(sites.budget_round, pending=len(pending))
            retry: List[int] = []
            next_resend: Set[int] = set()
            workers = min(jobs, len(pending))
            lease = acquire(workers)
            pool = lease.executor
            had_timeout = False
            had_death = False
            futures: Dict[int, Any] = {}
            try:
                broken_at_submit = False
                for i in pending:
                    if broken_at_submit:
                        # The pool broke mid-submission; this unit was
                        # never attempted — carry it to the next round.
                        retry.append(i)
                        if i in resend:
                            next_resend.add(i)
                        continue
                    crash = (
                        faults.fire(sites.fault_site, index=i) is not None
                    )
                    if i not in resend:
                        client.begin_attempt(i)
                    if traced:
                        submit_times[i] = tracer.now()
                    try:
                        fn, args = client.job(lease, i, i in resend)
                        futures[i] = pool.submit(
                            _run_in_worker, fn, args, traced, crash
                        )
                    except (BrokenExecutor, OSError) as error:
                        # Only a *warm* pool can break while we are
                        # still submitting: an earlier unit's worker is
                        # already executing and died.  Recover the same
                        # way a harvest-time death does.
                        broken_at_submit = True
                        had_death = True
                        client.note_death(i, error)
                        retry.append(i)
                for i, future in futures.items():
                    if journal is not None and journal.interrupted:
                        # Shutdown signal: let the units already handed
                        # to the workers finish, cancel the queued rest,
                        # journal every result that made it home, then
                        # stop cleanly.  Cancelling straight away would
                        # also cancel a submitted unit the executor had
                        # not yet moved to an idle worker.
                        unfinished = [
                            f for f in futures.values() if not f.done()
                        ]
                        wait(unfinished[:workers], timeout=unit_timeout)
                        pool.shutdown(wait=True, cancel_futures=True)
                        for j, done in futures.items():
                            if (
                                not client.has_result(j)
                                and done.done()
                                and not done.cancelled()
                                and done.exception() is None
                            ):
                                outcome = harvest(j, done.result())
                                if not isinstance(outcome, CacheMiss):
                                    client.accept(j, outcome)
                        journal.check_interrupt(sites.drain_site)
                    try:
                        outcome = harvest(
                            i, future.result(timeout=unit_timeout)
                        )
                        if isinstance(outcome, CacheMiss):
                            lease.unship(outcome.key)
                            telemetry.count("runtime.resident.resend")
                            next_resend.add(i)
                            retry.append(i)
                            continue
                        client.accept(i, outcome)
                    except client.transport_exceptions as error:
                        # A result that cannot cross back can never
                        # succeed on a retry: fail fast with context.
                        if sites.transport_shutdown_wait:
                            pool.shutdown(wait=True, cancel_futures=True)
                        raise client.transport_error(i, error) from error
                    except FuturesTimeoutError:
                        had_timeout = True
                        client.note_timeout(i, unit_timeout)
                        retry.append(i)
                    except (BrokenExecutor, OSError, EOFError) as error:
                        had_death = True
                        client.note_death(i, error)
                        retry.append(i)
            except BaseException:
                # A unit-level error propagates to the caller like a
                # serial run's would; don't leave workers running behind
                # it, and never hand a possibly-wedged pool to the next
                # dispatch.
                lease.discard(wait=False)
                raise
            if had_timeout:
                # A timed-out worker may still be running; don't block
                # on it, and don't reuse a pool with a stale unit.
                lease.discard(wait=False)
            elif had_death:
                lease.discard(wait=True)
            pending = sorted(retry)
            resend = next_resend
    finally:
        metrics.observe(
            "runtime.dispatch.seconds", time.perf_counter() - t_start
        )

    # Bounded retries exhausted: bring the stragglers home in-process.
    for i in pending:
        if journal is not None:
            journal.check_interrupt(sites.fallback_check)
        if budget is not None:
            budget.check(sites.budget_fallback, **{sites.unit_kw: i})
        client.begin_attempt(i)
        client.fallback(i)
