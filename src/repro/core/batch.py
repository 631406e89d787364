"""Parallel batch driver for multi-case experiments.

Runs Table-1 cases, process-corner replicas and flow variants
concurrently on a process pool behind ``python -m repro table1 --jobs N``.
The dispatch discipline reuses the Monte-Carlo shard-recovery machinery
(:mod:`repro.analysis.montecarlo`): task payloads are pickle-validated
before any worker spawns, a task whose worker dies (or times out) is
resubmitted on a fresh pool a bounded number of times and then run
in-process.  Every task runs through one entry (:func:`_run_unit`) —
serially, in a pool worker, or recovered in-process — so it reports the
same ``batch.task`` span, counters and metrics wherever it ran.

Determinism: every :class:`BatchTask` is a self-contained value — the
worker rebuilds its technology from the preset registry, so no solver or
layout cache state is shared between tasks — and results are returned in
task order, never completion order.  A parallel run is therefore
bit-identical to the serial one; :meth:`CaseResult.fingerprint` is the
comparison handle (it excludes wall-clock timings by construction).
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.errors import JournalError, SynthesisError
from repro.resilience.budget import Budget
from repro.resilience.journal import RunJournal
from repro.runtime import artifacts, pool as runtime_pool
from repro.sizing.specs import OtaSpecs, ParasiticMode
from repro.telemetry import metrics, monitor
from repro.technology import generic_035, generic_060, generic_080
from repro.technology.corners import corner as technology_corner
from repro.technology.process import Technology

#: Preset registry keyed the way the CLI names technologies.  Tasks carry
#: the key, not the object: workers rebuild the technology in-process,
#: which keeps payloads small and every per-technology cache task-local.
TECHNOLOGY_PRESETS: Dict[str, Callable[[], Technology]] = {
    "0.35um": generic_035,
    "0.6um": generic_060,
    "0.8um": generic_080,
}


@dataclass(frozen=True)
class BatchTask:
    """One self-contained unit of batch work (picklable by construction)."""

    kind: str
    """``case`` (one Table-1 column) or ``flow`` (one flow variant)."""
    technology: str
    """Preset key in :data:`TECHNOLOGY_PRESETS`."""
    specs: OtaSpecs
    mode: str = ParasiticMode.FULL.name
    """ParasiticMode *name* for ``case`` tasks."""
    variant: str = "oriented"
    """``traditional`` or ``oriented`` for ``flow`` tasks."""
    corner: Optional[str] = None
    """Optional process-corner name (``tt``/``ss``/``ff``/``sf``/``fs``)."""
    model_level: int = 1
    aspect: Optional[float] = 1.0

    @property
    def label(self) -> str:
        suffix = f"@{self.corner}" if self.corner else ""
        if self.kind == "case":
            return f"case.{self.mode.lower()}{suffix}"
        return f"flow.{self.variant}{suffix}"


@dataclass
class TaskStatus:
    """Fate of one batch task (mirrors the Monte-Carlo ``ShardStatus``)."""

    index: int
    label: str
    attempts: int = 0
    status: str = "pending"
    """``ok`` | ``resubmitted`` | ``in-process`` | ``serial`` |
    ``journaled`` (restored from a resumed run journal, zero attempts) |
    ``cached`` (served by the cross-run artifact cache, zero attempts)."""
    error: Optional[str] = None
    """Last failure seen (worker death, timeout), even when recovered."""


@dataclass
class BatchResult:
    """Results in task order plus the per-task dispatch record."""

    results: List[object]
    statuses: List[TaskStatus]
    jobs: int


def _build_technology(task: BatchTask) -> Technology:
    try:
        factory = TECHNOLOGY_PRESETS[task.technology]
    except KeyError:
        raise SynthesisError(
            f"unknown technology preset {task.technology!r} "
            f"(expected one of {sorted(TECHNOLOGY_PRESETS)})"
        ) from None
    technology = factory()
    if task.corner is not None:
        technology = technology_corner(technology, task.corner)
    return technology


def verify_task_corners(
    task: BatchTask,
    result: object,
    corners: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Process-corner verification of a completed ``case`` task.

    Rebuilds the task's nominal technology from the preset registry,
    re-plans it, and re-verifies the task's converged sizing at each
    corner — all corner replicas share one compiled program (see
    :meth:`~repro.sizing.verification.VerificationInterface.verify_corners`).
    Returns ``{corner: VerificationReport}``.
    """
    from repro.sizing.plans.folded_cascode import FoldedCascodePlan
    from repro.sizing.verification import VerificationInterface
    from repro.technology.corners import CORNERS, corner_set

    if task.kind != "case":
        raise SynthesisError(
            f"corner verification needs a 'case' task, got {task.kind!r}"
        )
    sizing = getattr(result, "sizing", None)
    if sizing is None:
        raise SynthesisError(
            "corner verification needs a completed CaseResult with a sizing"
        )
    nominal = _build_technology(
        BatchTask(kind=task.kind, technology=task.technology, specs=task.specs)
    )
    plan = FoldedCascodePlan(nominal, task.model_level)
    names = tuple(corners) if corners is not None else CORNERS
    with telemetry.span(
        "batch.verify_corners", technology=task.technology, corners=len(names)
    ):
        return VerificationInterface().verify_corners(
            plan,
            sizing,
            task.specs,
            corners=corner_set(nominal, names),
        )


def run_task(task: BatchTask) -> object:
    """Execute one task; the single entry point serial and pooled paths share.

    ``case`` tasks return a :class:`~repro.core.cases.CaseResult`;
    ``flow`` tasks return a
    :class:`~repro.core.traditional.TraditionalOutcome` or a
    :class:`~repro.core.synthesis.SynthesisOutcome` depending on the
    variant.
    """
    technology = _build_technology(task)
    if task.kind == "case":
        from repro.core.cases import run_case

        return run_case(
            technology,
            task.specs,
            ParasiticMode[task.mode],
            model_level=task.model_level,
            aspect=task.aspect,
        )
    if task.kind == "flow":
        if task.variant == "traditional":
            from repro.core.traditional import TraditionalFlow

            return TraditionalFlow(
                technology, model_level=task.model_level, aspect=task.aspect
            ).run(task.specs)
        if task.variant == "oriented":
            from repro.core.synthesis import LayoutOrientedSynthesizer

            return LayoutOrientedSynthesizer(
                technology, model_level=task.model_level, aspect=task.aspect
            ).run(task.specs, ParasiticMode.FULL, generate=False)
        raise SynthesisError(f"unknown flow variant {task.variant!r}")
    raise SynthesisError(f"unknown batch task kind {task.kind!r}")


def _run_unit(task: BatchTask, index: int) -> Tuple[object, float]:
    """Run task ``index`` under its ``batch.task`` span; return the
    result and the task's wall seconds.

    The one per-task entry: the serial loop, the in-process fallback and
    the pool worker (:func:`_run_task_payload`) all call it, so a task
    reports the same span and ``batch.task.seconds`` observation
    wherever it ran.
    """
    t0 = time.perf_counter()
    with telemetry.span("batch.task", index=index, label=task.label):
        result = run_task(task)
    seconds = time.perf_counter() - t0
    metrics.observe("batch.task.seconds", seconds)
    return result, seconds


def _run_task_payload(payload: bytes, index: int) -> Tuple[object, float]:
    """Pool-side entry over the pre-validated pickled task.

    Submitting the validation pass's own bytes means each task is
    pickled exactly once, parent-side, and the worker does the single
    ``loads`` the executor's argument machinery would have done anyway.
    """
    return _run_unit(pickle.loads(payload), index)


def _task_key(index: int) -> str:
    return f"task.{index}"


def _case_artifact_key(task: BatchTask) -> Optional[str]:
    """Content address of a ``case`` task's result, or ``None``.

    Keys fold the full task value (specs, mode, corner, model level,
    aspect) and the resolved technology's content fingerprint, so an
    edited preset never collides with the stock one.  Flow tasks return
    ``None``: their outcome objects carry stateful flow history that is
    cheap to recompute and awkward to address.
    """
    if task.kind != "case":
        return None
    return artifacts.cache_key(
        "case-result", task, _build_technology(task).fingerprint()
    )


def _mark_restored(result: object, source: str) -> object:
    """``result`` with every sizing round marked as served from ``source``.

    A restored :class:`~repro.core.cases.CaseResult` carries the original
    run's ``elapsed`` and ``sizing_sources``; marking the sources
    (``"disk"`` or ``"journal"``) makes ``table1`` flag its sizing time
    as not computed in this run.  ``fingerprint()`` ignores the field.
    """
    from repro.core.cases import CaseResult

    if not isinstance(result, CaseResult):
        return result
    rounds = max(1, len(result.sizing_sources))
    return replace(result, sizing_sources=(source,) * rounds)


def _restore_cached(
    tasks: Sequence[BatchTask],
    statuses: List[TaskStatus],
    results: List[object],
    pending: List[int],
    journal: Optional[RunJournal],
) -> Tuple[List[int], List[Optional[str]]]:
    """Serve pending tasks from the cross-run artifact cache.

    Returns the still-pending indices plus each task's content key (for
    publishing computed results).  A hit is journaled like a computed
    result so a later resume restores it from the journal, which remains
    the authority on this run's history.  A restored case's sizing rounds
    are marked ``disk``.  No-op (all pending, no keys) when no cache is
    active.
    """
    store = artifacts.active()
    keys: List[Optional[str]] = [None] * len(tasks)
    if store is None:
        return pending, keys
    still: List[int] = []
    for i in pending:
        task = tasks[i]
        keys[i] = _case_artifact_key(task)
        hit = store.get("case-result", keys[i]) if keys[i] else None
        if hit is None:
            still.append(i)
            continue
        results[i] = _mark_restored(hit, "disk")
        statuses[i].status = "cached"
        telemetry.count("batch.cached_tasks")
        monitor.unit_complete("task", label=task.label, restored=True)
        if journal is not None:
            journal.record(_task_key(i), hit, label=task.label)
    return still, keys


def _store_artifact(key: Optional[str], result: object) -> None:
    """Publish a freshly computed case result (no-op without a cache)."""
    if key is None:
        return
    store = artifacts.active()
    if store is not None:
        store.put("case-result", key, result)


def _restore_journaled(
    tasks: Sequence[BatchTask],
    statuses: List[TaskStatus],
    results: List[object],
    journal: Optional[RunJournal],
) -> List[int]:
    """Fill ``results`` from the journal; return the still-pending indices.

    A journaled unit whose recorded label does not match the task at the
    same index means the resumed invocation built a different task list —
    refuse rather than silently mix incompatible results.  A restored
    case's sizing rounds are marked ``journal``.
    """
    pending: List[int] = []
    for i, task in enumerate(tasks):
        key = _task_key(i)
        if journal is None or not journal.has(key):
            pending.append(i)
            continue
        label = journal.unit_meta(key).get("label")
        if label is not None and label != task.label:
            raise JournalError(
                f"journaled unit {key!r} is {label!r} but this run's task "
                f"{i} is {task.label!r}; the task list changed — refusing "
                f"to resume"
            )
        results[i] = _mark_restored(journal.result(key), "journal")
        statuses[i].status = "journaled"
        telemetry.count("batch.journaled_tasks")
        monitor.unit_complete("task", label=task.label, restored=True)
    return pending


def _complete(
    task: BatchTask,
    index: int,
    result: object,
    seconds: float,
    journal: Optional[RunJournal],
    cache_key: Optional[str],
) -> None:
    """Report, journal and publish one task computed in this run."""
    monitor.unit_complete("task", label=task.label, seconds=seconds)
    if journal is not None:
        journal.record(_task_key(index), result, label=task.label)
    _store_artifact(cache_key, result)


def _run_serial(
    tasks: Sequence[BatchTask],
    statuses: List[TaskStatus],
    budget: Optional[Budget],
    journal: Optional[RunJournal] = None,
) -> List[object]:
    results: List[object] = [None] * len(tasks)
    pending = _restore_journaled(tasks, statuses, results, journal)
    pending, cache_keys = _restore_cached(
        tasks, statuses, results, pending, journal
    )
    for i in pending:
        if journal is not None:
            journal.check_interrupt("batch.task")
        if budget is not None:
            budget.check("batch.task", index=i)
        statuses[i].attempts += 1
        results[i], seconds = _run_unit(tasks[i], i)
        statuses[i].status = "serial"
        _complete(tasks[i], i, results[i], seconds, journal, cache_keys[i])
    return results


#: Batch's site vocabulary for the shared dispatch engine — the
#: budget/journal/fault names batch tasks have always used.
_BATCH_SITES = runtime_pool.DispatchSites(
    fault_site="batch.worker",
    budget_round="batch.round",
    drain_site="batch.drain",
    fallback_check="batch.task-fallback",
    budget_fallback="batch.task-fallback",
    unit_kw="task",
)


class _BatchDispatch:
    """Batch's unit semantics for :func:`repro.runtime.pool.run_dispatch`:
    which worker call runs a task, how to harvest its result, record a
    failure, and recover in-process.  The engine owns pool lifecycle,
    retry rounds, journal drain and budget checkpoints."""

    transport_exceptions = (pickle.PicklingError,)

    def __init__(
        self,
        tasks: Sequence[BatchTask],
        payloads: Sequence[bytes],
        statuses: List[TaskStatus],
        results: List[object],
        cache_keys: Sequence[Optional[str]],
        journal: Optional[RunJournal],
        jobs: int,
    ):
        self.tasks = tasks
        self.payloads = payloads
        self.statuses = statuses
        self.results = results
        self.cache_keys = cache_keys
        self.journal = journal
        self.jobs = jobs

    def begin_attempt(self, i: int) -> None:
        self.statuses[i].attempts += 1

    def has_result(self, i: int) -> bool:
        return self.results[i] is not None

    def job(self, lease, i: int, resend: bool):
        # Tasks are unique values, so there is no resident state to
        # fingerprint: the pre-validated payload bytes ship every time.
        return _run_task_payload, (self.payloads[i], i)

    def accept(self, i: int, outcome) -> None:
        """Accept one completed task result (and journal it durably)."""
        self.results[i], seconds = outcome
        self.statuses[i].status = (
            "ok" if self.statuses[i].attempts == 1 else "resubmitted"
        )
        _complete(
            self.tasks[i], i, self.results[i], seconds,
            self.journal, self.cache_keys[i],
        )

    def note_timeout(self, i: int, timeout: Optional[float]) -> None:
        self.statuses[i].error = f"task timed out after {timeout:g} s"
        telemetry.count("batch.retries")
        telemetry.event("batch.task_timeout", task=i, timeout_s=timeout)

    def note_death(self, i: int, error: BaseException) -> None:
        self.statuses[i].error = (
            f"worker died: {error!r} (task {i} of {len(self.tasks)}, "
            f"jobs={self.jobs})"
        )
        telemetry.count("batch.retries")
        telemetry.event("batch.worker_death", task=i, error=repr(error))

    def transport_error(self, i: int, error: BaseException) -> Exception:
        # A result that cannot cross back can never succeed on a retry:
        # fail fast with context.
        return SynthesisError(
            f"batch task {i} ({self.tasks[i].label}) result could "
            f"not cross the process boundary: {error!r}"
        )

    def fallback(self, i: int) -> None:
        """In-process recovery, under this process's own tracer; task
        exceptions propagate here too — parity with the serial path."""
        with telemetry.span(
            "batch.task_fallback", index=i, label=self.tasks[i].label
        ):
            self.results[i], seconds = _run_unit(self.tasks[i], i)
        telemetry.count("batch.in_process")
        self.statuses[i].status = "in-process"
        _complete(
            self.tasks[i], i, self.results[i], seconds,
            self.journal, self.cache_keys[i],
        )


def _run_pooled(
    tasks: Sequence[BatchTask],
    statuses: List[TaskStatus],
    jobs: int,
    task_timeout: Optional[float],
    max_retries: int,
    budget: Optional[Budget],
    journal: Optional[RunJournal] = None,
) -> List[object]:
    payloads: List[bytes] = []
    for i, task in enumerate(tasks):
        try:
            # The validation pass produces the submission payload: each
            # task is pickled exactly once (previously the whole list
            # was dumped for validation and every task dumped again at
            # submit time).
            payloads.append(pickle.dumps(task))
        except Exception as error:
            # Submitting an unpicklable payload would wedge the pool's
            # queue feeder (unrecoverable on CPython < 3.12): refuse
            # before any worker is spawned.
            raise SynthesisError(
                f"batch payload cannot cross the process boundary "
                f"(jobs={jobs}, task {i}: {task.label}): {error!r}"
            ) from error

    results: List[object] = [None] * len(tasks)
    pending = _restore_journaled(tasks, statuses, results, journal)
    pending, cache_keys = _restore_cached(
        tasks, statuses, results, pending, journal
    )
    dispatch = _BatchDispatch(
        tasks, payloads, statuses, results, cache_keys, journal, jobs
    )
    runtime_pool.run_dispatch(
        dispatch, pending, jobs, task_timeout, max_retries,
        budget, journal, _BATCH_SITES,
    )
    return results


def run_batch(
    tasks: Sequence[BatchTask],
    jobs: int = 1,
    task_timeout: Optional[float] = None,
    max_retries: int = 1,
    budget: Optional[Budget] = None,
    journal: Optional[RunJournal] = None,
) -> BatchResult:
    """Run every task, serially (``jobs=1``) or on a process pool.

    Results come back in task order regardless of completion order, and
    are bit-identical for any ``jobs`` value: tasks share no state, so
    parallelism only changes wall-clock time.  A task whose worker dies
    or exceeds ``task_timeout`` seconds is resubmitted up to
    ``max_retries`` times and then run in-process; a task that fails
    deterministically (raises inside the work itself) propagates its
    error exactly as a serial run would.  ``budget`` bounds wall-clock
    time at task/round boundaries via
    :class:`~repro.errors.BudgetExceededError`.

    ``journal`` makes the batch crash-safe: every completed task is
    appended durably, tasks already journaled by a previous run are
    restored without re-running (bit-identical — tasks are
    self-contained values), and a SIGINT/SIGTERM observed through the
    journal's shutdown guard drains in-flight workers into the journal
    before raising :class:`~repro.errors.RunInterrupted`.
    """
    if jobs < 1:
        raise SynthesisError(f"jobs must be >= 1, got {jobs!r}")
    tasks = list(tasks)
    statuses = [
        TaskStatus(index=i, label=task.label)
        for i, task in enumerate(tasks)
    ]
    effective_jobs = min(jobs, len(tasks)) if tasks else 1
    monitor.declare("task", len(tasks))
    with telemetry.span("batch.run", tasks=len(tasks), jobs=effective_jobs):
        telemetry.count("batch.tasks", len(tasks))
        if effective_jobs <= 1:
            results = _run_serial(tasks, statuses, budget, journal)
        else:
            results = _run_pooled(
                tasks, statuses, effective_jobs,
                task_timeout, max_retries, budget, journal,
            )
    return BatchResult(results=results, statuses=statuses, jobs=effective_jobs)
