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
  parent's own tracer.  The wrapper pickles its own result, so a result
  that cannot cross back raises :class:`UnpicklableResult` and every
  other unit exception propagates exactly as it would serially.

Workers hold no state between units: each unit's call carries
everything it needs.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.resilience import faults
from repro.resilience.budget import Budget
from repro.resilience.journal import RunJournal, ignore_sigint

# --------------------------------------------------------------------------
# Persistent executor


class PoolLease:
    """The process-wide executor and its generation.

    :func:`acquire` hands the live pool to every dispatch round; a clean
    round simply drops it and the pool stays warm.  :meth:`discard`
    tears it down, which is mandatory after a timeout or worker death.
    """

    __slots__ = ("executor", "max_workers", "generation")

    def __init__(self, executor: Any, max_workers: int, generation: int):
        self.executor = executor
        self.max_workers = max_workers
        self.generation = generation

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
# The shared dispatch engine


class UnpicklableResult(Exception):
    """Raised worker-side when a unit's result cannot be pickled back.

    The one error :func:`run_dispatch` reports through the client's
    ``transport_error``: a unit's own exceptions propagate unchanged.
    """


def _run_in_worker(
    fn: Callable[..., Any], args: Tuple[Any, ...], traced: bool, crash: bool
) -> bytes:
    """Pool-side wrapper of every unit: pickled ``(outcome, trace payload)``.

    ``crash`` is the fault-injection hook: the parent's fault registry
    decided this unit's worker should die, and it obliges with an
    unclean exit so the recovery path sees a genuine broken pool.
    ``fn`` is the same per-unit entry the parent runs in-process; only
    when the parent traces does it run under a fresh worker tracer,
    whose records the parent grafts under its current span.  Pickling
    here, not in the executor, tells a result that cannot cross back
    (:class:`UnpicklableResult`) apart from an exception ``fn`` raised.
    """
    if crash:
        os._exit(1)
    if not traced:
        outcome, trace = fn(*args), None
    else:
        with telemetry.Tracer().activate() as tracer:
            outcome = fn(*args)
        trace = tracer.trace_payload()
    try:
        return pickle.dumps((outcome, trace))
    except Exception as error:
        raise UnpicklableResult(repr(error)) from None


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

        job(i) -> (fn, args)         # picklable worker call
        accept(i, outcome)           # harvest one result
        has_result(i) -> bool        # for the journal drain
        begin_attempt(i)             # attempts ledger
        note_timeout(i, timeout)     # status + telemetry
        note_death(i, error)         # status + telemetry
        transport_error(i, error) -> Exception  # unpicklable result
        fallback(i)                  # in-process recovery

    A unit whose worker dies or times out is resubmitted on a fresh pool
    up to ``max_retries`` times and then handed to ``fallback``.  A unit
    whose result cannot be pickled fails fast through
    ``transport_error`` (a retry would fail the same way); any other
    unit exception propagates as it would serially.  With a tracer
    active, each worker's trace payload is grafted under the current
    span at the unit's submit time before ``accept`` sees the outcome.
    """
    from concurrent.futures import BrokenExecutor
    from concurrent.futures import TimeoutError as FuturesTimeoutError
    from concurrent.futures import wait

    tracer = telemetry.current()
    traced = tracer is not None
    submit_times: Dict[int, float] = {}

    def harvest(i: int, result: bytes) -> Any:
        """Graft the unit's worker trace; return its outcome."""
        outcome, trace = pickle.loads(result)
        if trace is not None:
            tracer.absorb(trace, t_offset=submit_times[i])
        return outcome

    rounds_used = 0
    while pending and rounds_used <= max_retries:
        rounds_used += 1
        if budget is not None:
            budget.check(sites.budget_round, pending=len(pending))
        retry: List[int] = []
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
                    continue
                crash = (
                    faults.fire(sites.fault_site, index=i) is not None
                )
                client.begin_attempt(i)
                if traced:
                    submit_times[i] = tracer.now()
                try:
                    fn, args = client.job(i)
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
                            client.accept(j, harvest(j, done.result()))
                    journal.check_interrupt(sites.drain_site)
                try:
                    client.accept(
                        i, harvest(i, future.result(timeout=unit_timeout))
                    )
                except UnpicklableResult as error:
                    # A result that cannot cross back can never
                    # succeed on a retry: fail fast with context.
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

    # Bounded retries exhausted: bring the stragglers home in-process.
    for i in pending:
        if journal is not None:
            journal.check_interrupt(sites.fallback_check)
        if budget is not None:
            budget.check(sites.budget_fallback, **{sites.unit_kw: i})
        client.begin_attempt(i)
        client.fallback(i)
