"""Monte-Carlo mismatch analysis.

The paper's sizing tool "permits to undergo statistical analysis to check
the reliability of the synthesized circuit".  We implement the standard
Pelgrom mismatch model: each device draws an independent threshold shift
with ``sigma_VT = A_VT / sqrt(W L)`` and a relative current-factor error
with ``sigma_beta = A_beta / sqrt(W L)``, then the requested measurement is
re-run per sample.

All samples are drawn up front (one vectorized RNG call whose stream
matches :func:`apply_mismatch`'s per-device draw order), the feedback
circuit is compiled into one :class:`~repro.analysis.stamps.StampProgram`
and every shard of rows is solved as one stacked ensemble instead of
re-cloning and re-stamping per sample; with ``workers=N`` the pre-drawn
sample rows are partitioned over a process pool.  Because the draws are
fixed before any work is scheduled, results are identical for any worker
count.

Pooled dispatch goes through the persistent executor runtime
(:mod:`repro.runtime`): the pool is reused across calls, each shard's
sample rows travel as a pickled slice of the pre-drawn matrices, and
workers hold the compiled feedback program in a content-keyed resident
cache so repeated dispatches ship a fingerprint instead of the
testbench.  A cold pool and a warm one give the same sampled values.
"""

from __future__ import annotations

import hashlib
import math
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import telemetry
from repro.analysis.ensemble import EnsembleProgram
from repro.analysis.stamps import StampProgram
from repro.circuit.netlist import Circuit
from repro.circuit.testbench import OtaTestbench
from repro.errors import AnalysisError, ConvergenceError
from repro.resilience.budget import Budget
from repro.resilience.journal import RunJournal
from repro.resilience.policy import COMPILED_POLICY
from repro.runtime import pool as runtime_pool
from repro.telemetry import metrics, monitor


@dataclass
class ShardStatus:
    """Fate of one worker-pool shard of pre-drawn samples."""

    index: int
    span: Tuple[int, int]
    """Half-open sample range ``[lo, hi)`` this shard covers."""
    attempts: int = 0
    status: str = "pending"
    """``ok`` | ``resubmitted`` | ``in-process`` | ``failed`` |
    ``journaled`` (restored from a run journal, not re-run)."""
    error: Optional[str] = None
    """Last failure seen (worker death, timeout), even when recovered."""


@dataclass
class MonteCarloResult:
    """Sampled statistic collection."""

    samples: Dict[str, List[float]] = field(default_factory=dict)
    n_failed: int = 0
    """Samples lost to unrecoverable shard failures (0 on a clean run)."""
    shards: List[ShardStatus] = field(default_factory=list)
    """Per-shard dispatch record when a process pool was used."""

    def mean(self, key: str) -> float:
        return float(np.mean(self.samples[key]))

    def std(self, key: str) -> float:
        """Sample standard deviation (``ddof=1``); needs two samples."""
        count = len(self.samples[key])
        if count < 2:
            raise AnalysisError(
                f"Monte-Carlo sigma of {key!r} needs at least 2 samples, "
                f"got {count}"
            )
        return float(np.std(self.samples[key], ddof=1))

    def worst(self, key: str) -> float:
        """Sample farthest from the mean."""
        values = np.asarray(self.samples[key])
        return float(values[np.argmax(np.abs(values - values.mean()))])

    def summary(self) -> str:
        lines = []
        for key in sorted(self.samples):
            # A key holds at least one sample; one sample has no sigma.
            sigma = (
                f"{self.std(key):.4g}" if len(self.samples[key]) > 1
                else "n/a (1 sample)"
            )
            lines.append(f"{key}: mean={self.mean(key):.4g} sigma={sigma}")
        return "\n".join(lines)


def apply_mismatch(circuit: Circuit, rng: np.random.Generator) -> Circuit:
    """Clone ``circuit`` with Pelgrom-sampled per-device mismatch."""
    clone = circuit.clone(circuit.name + "_mc")
    for mos in clone.mos_devices:
        assert mos.params is not None
        area = mos.w * mos.l
        sigma_vt = mos.params.avt / math.sqrt(area)
        sigma_beta = mos.params.abeta / math.sqrt(area)
        mos.mismatch_vth = float(rng.normal(0.0, sigma_vt))
        mos.mismatch_beta = float(rng.normal(0.0, sigma_beta))
    return clone


def draw_mismatch_samples(
    circuit: Circuit, runs: int, seed: int
) -> Tuple[List[str], np.ndarray, np.ndarray]:
    """All Pelgrom samples for ``runs`` trials in one vectorized draw.

    Returns ``(names, vth, beta)`` with the matrices shaped
    ``(runs, n_devices)`` in circuit device order.  The flattened draw
    order (run-major, then device, then vth-before-beta) reproduces the
    stream :func:`apply_mismatch` consumes from the same seed, so a
    row equals the mismatch :func:`apply_mismatch` would draw for that
    sample.
    """
    devices = circuit.mos_devices
    sigma_vt = np.empty(len(devices))
    sigma_beta = np.empty(len(devices))
    for i, mos in enumerate(devices):
        assert mos.params is not None
        root_area = math.sqrt(mos.w * mos.l)
        sigma_vt[i] = mos.params.avt / root_area
        sigma_beta[i] = mos.params.abeta / root_area
    rng = np.random.default_rng(seed)
    sigma = np.stack([sigma_vt, sigma_beta], axis=1)
    draws = rng.normal(0.0, np.broadcast_to(sigma, (runs,) + sigma.shape))
    return (
        [mos.name for mos in devices],
        draws[:, :, 0],
        draws[:, :, 1],
    )


def _testbench_with_mismatch(
    tb: OtaTestbench,
    names: Sequence[str],
    vth_row: np.ndarray,
    beta_row: np.ndarray,
) -> OtaTestbench:
    """A cloned testbench with one pre-drawn sample row applied."""
    clone = tb.circuit.clone(tb.circuit.name + "_mc")
    for name, d_vth, d_beta in zip(names, vth_row, beta_row):
        mos = clone.mos(name)
        mos.mismatch_vth = float(d_vth)
        mos.mismatch_beta = float(d_beta)
    return OtaTestbench(
        circuit=clone,
        source_pos=tb.source_pos,
        source_neg=tb.source_neg,
        input_neg_net=tb.input_neg_net,
        output_net=tb.output_net,
        supply_sources=tb.supply_sources,
        slew_devices=tb.slew_devices,
    )


class _CompiledOffset:
    """The default offset measurement, compiled once per testbench.

    Holds the feedback-loop :class:`~repro.analysis.stamps.StampProgram`,
    the permutation that maps pre-drawn sample columns (circuit device
    order) onto program device order, and the design's ``nominal``
    operating point: the feedback program solved once at zero mismatch
    with the compiled ladder, or ``None`` when that solve fails.  A
    mismatch sample is the nominal circuit with threshold shifts of a
    few mV, so every sample's Newton starts from ``nominal`` (the
    :class:`~repro.resilience.policy.WarmStart` rung, then the cold
    ladder if the seeded stages fail); on the 1000-sample ``yield_mc``
    workload this cut the Newton iterations per sample from 16.7 to 5.8.
    Compilation and the seed are pure functions of the testbench, and
    :meth:`measure` is stateless across calls (``set_mismatch`` deltas
    are overwritten per sample; :meth:`EnsembleProgram.from_mismatch
    <repro.analysis.ensemble.EnsembleProgram.from_mismatch>` takes
    explicit rows), so one instance may serve any number of shards —
    which is exactly what the worker-resident cache in
    :mod:`repro.runtime.pool` does with it.
    """

    __slots__ = ("names", "program", "out_node", "vcm", "permutation",
                 "nominal")

    def __init__(self, tb: OtaTestbench, names: Sequence[str]):
        feedback = tb.circuit.clone(tb.circuit.name + "_fb")
        feedback.remove(tb.source_neg)
        feedback.add_vsource("_fb", tb.input_neg_net, tb.output_net, dc=0.0)
        self.program = StampProgram(feedback)
        self.out_node = self.program.index.node(tb.output_net)
        self.vcm = tb.common_mode_voltage()
        self.names = tuple(names)
        order = {name: i for i, name in enumerate(self.names)}
        self.permutation = np.array(
            [order[name] for name in self.program.mos_names], dtype=np.intp
        )
        zeros = np.zeros(len(self.permutation))
        self.program.set_mismatch(zeros, zeros)
        try:
            self.nominal, _report = COMPILED_POLICY.run(self.program)
        except ConvergenceError:
            self.nominal = None

    def measure(
        self, vth_rows: np.ndarray, beta_rows: np.ndarray
    ) -> List[Dict[str, float]]:
        """Offset samples for a chunk of pre-drawn rows.

        Every row becomes one member of a single batched ``(K, n, n)``
        Newton solve seeded from ``nominal``; each member equals a
        ``warm_policy(nominal).run(program)`` solve of its row alone
        (``COMPILED_POLICY`` when there is no nominal).  The first
        failing member raises, so a shard fails as a unit.
        """
        if not len(vth_rows):
            return []
        stacked = EnsembleProgram.from_mismatch(
            self.program,
            np.asarray(vth_rows)[:, self.permutation],
            np.asarray(beta_rows)[:, self.permutation],
        )
        solution = stacked.solve(seed=self.nominal)
        solution.raise_on_failure()
        return [
            {"offset_voltage": float(v[self.out_node]) - self.vcm}
            for v in solution.voltages
        ]


def _offset_chunk(
    tb: OtaTestbench,
    names: Sequence[str],
    vth_rows: np.ndarray,
    beta_rows: np.ndarray,
) -> List[Dict[str, float]]:
    """Default measurement (input offset) for a chunk of sample rows.

    One compiled feedback program (:class:`_CompiledOffset`) is shared
    by the whole chunk.
    """
    return _CompiledOffset(tb, names).measure(vth_rows, beta_rows)


def _measure_chunk(
    tb: OtaTestbench,
    names: Sequence[str],
    vth_rows: np.ndarray,
    beta_rows: np.ndarray,
    measure: Callable[[OtaTestbench], Dict[str, float]],
) -> List[Dict[str, float]]:
    """Custom measurement for a chunk of pre-drawn sample rows."""
    return [
        dict(measure(_testbench_with_mismatch(tb, names, vth_row, beta_row)))
        for vth_row, beta_row in zip(vth_rows, beta_rows)
    ]


def _run_chunk(
    tb: OtaTestbench,
    names: Sequence[str],
    vth_rows: np.ndarray,
    beta_rows: np.ndarray,
    measure: Optional[Callable[[OtaTestbench], Dict[str, float]]],
) -> List[Dict[str, float]]:
    """Dispatch one chunk to the right measurement implementation.

    A custom ``measure`` always runs per sample (it takes a whole
    testbench); only the default offset measurement has a stacked form.
    """
    if measure is None:
        return _offset_chunk(tb, names, vth_rows, beta_rows)
    return _measure_chunk(tb, names, vth_rows, beta_rows, measure)


def _run_shard(
    index: int, lo: int, hi: int, run: Callable[[], List[Dict[str, float]]]
) -> Tuple[List[Dict[str, float]], float]:
    """Measure shard ``index`` (sample rows ``[lo, hi)``) under its
    ``mc.shard`` span; return the samples and the shard's wall seconds.

    The one per-shard entry: the single-worker path, the in-process
    fallback and the pool worker (:func:`_run_shard_job`) all call it,
    so a shard reports the same span, ``mc.samples_measured`` count and
    ``mc.shard.seconds`` observation wherever it ran.  Telemetry never
    touches the pre-drawn sample rows, so results stay bit-identical
    with tracing on or off.
    """
    t0 = time.perf_counter()
    with telemetry.span("mc.shard", index=index, lo=lo, hi=hi):
        stats = run()
        telemetry.count("mc.samples_measured", hi - lo)
    seconds = time.perf_counter() - t0
    metrics.observe("mc.shard.seconds", seconds)
    return stats, seconds


class _ResidentChunk:
    """Worker-resident Monte-Carlo state: the unpickled testbench plus a
    lazily compiled :class:`_CompiledOffset`.

    Cached per worker process under the parent's payload content hash
    (:func:`repro.runtime.pool.resident_object`), so repeated dispatches
    against a persistent pool ship a fingerprint instead of re-shipping
    the testbench and recompiling the feedback program per shard.
    """

    __slots__ = ("tb", "measure", "_compiled")

    def __init__(self, tb: OtaTestbench, measure):
        self.tb = tb
        self.measure = measure
        self._compiled: Optional[_CompiledOffset] = None

    def run(
        self,
        names: Sequence[str],
        vth_rows: np.ndarray,
        beta_rows: np.ndarray,
    ) -> List[Dict[str, float]]:
        if self.measure is not None:
            return _measure_chunk(
                self.tb, names, vth_rows, beta_rows, self.measure
            )
        compiled = self._compiled
        if compiled is None or compiled.names != tuple(names):
            compiled = _CompiledOffset(self.tb, names)
            self._compiled = compiled
        return compiled.measure(vth_rows, beta_rows)


def _build_resident_chunk(payload: bytes) -> _ResidentChunk:
    tb, measure = pickle.loads(payload)
    return _ResidentChunk(tb, measure)


@dataclass(frozen=True)
class _ShardJob:
    """Everything one pooled shard needs, picklable by construction.

    ``payload`` is the pickled ``(tb, measure)`` recipe — or ``None``
    when the parent believes this pool generation already holds the
    resident state under ``key``.  ``vth_rows``/``beta_rows`` are the
    shard's ``[lo, hi)`` slices of the pre-drawn sample matrices.
    """

    key: str
    payload: Optional[bytes]
    names: Tuple[str, ...]
    lo: int
    hi: int
    index: int
    vth_rows: np.ndarray
    beta_rows: np.ndarray


def _run_shard_job(job: _ShardJob):
    """Pool-side shard entry: one shard on the worker-resident state.

    A cold resident cache answers :class:`~repro.runtime.pool.CacheMiss`
    (the dispatcher resends with the payload and drops this attempt's
    telemetry, so the resend's span is the only one the parent keeps).
    """

    def run() -> List[Dict[str, float]]:
        state = runtime_pool.resident_object(
            job.key, job.payload, _build_resident_chunk
        )
        return state.run(job.names, job.vth_rows, job.beta_rows)

    try:
        return _run_shard(job.index, job.lo, job.hi, run)
    except runtime_pool.NeedPayload:
        return runtime_pool.CacheMiss(job.key)


def _shard_key(span: Tuple[int, int]) -> str:
    """Journal key of the shard covering sample rows ``[lo, hi)``."""
    return f"mc.shard.{span[0]}.{span[1]}"


#: Monte-Carlo's site vocabulary for the shared dispatch engine — the
#: budget/journal/fault names shards have always used.
_MC_SITES = runtime_pool.DispatchSites(
    fault_site="mc.worker",
    budget_round="montecarlo.shards",
    drain_site="mc.drain",
    fallback_check="mc.shard-fallback",
    budget_fallback="montecarlo.shard-fallback",
    unit_kw="shard",
    transport_shutdown_wait=True,
)


class _ShardDispatch:
    """Monte-Carlo's unit semantics for :func:`repro.runtime.pool
    .run_dispatch`: how to submit a shard, harvest its result, record a
    failure, and recover in-process.  The engine owns pool lifecycle,
    retry rounds, journal drain and budget checkpoints."""

    transport_exceptions = (pickle.PicklingError, AttributeError, TypeError)

    def __init__(
        self,
        tb: OtaTestbench,
        names: Sequence[str],
        vth: np.ndarray,
        beta: np.ndarray,
        measure,
        spans: Sequence[Tuple[int, int]],
        chunks: List[Optional[List[Dict[str, float]]]],
        statuses: List[ShardStatus],
        journal: Optional[RunJournal],
        key: str,
        payload: bytes,
        max_workers: int,
    ):
        self.tb = tb
        self.names = tuple(names)
        self.vth = vth
        self.beta = beta
        self.measure = measure
        self.spans = spans
        self.chunks = chunks
        self.statuses = statuses
        self.journal = journal
        self.key = key
        self.payload = payload
        self.max_workers = max_workers
        self._payload_sent: Set[int] = set()
        self._lease: Optional[runtime_pool.PoolLease] = None

    def begin_attempt(self, i: int) -> None:
        self.statuses[i].attempts += 1

    def has_result(self, i: int) -> bool:
        return self.chunks[i] is not None

    def job(self, lease, i: int, resend: bool):
        lo, hi = self.spans[i]
        self._lease = lease
        # Ship the (tb, measure) payload until this pool generation has
        # acknowledged it (or when a worker explicitly asked again); a
        # warm pool gets the content hash alone.
        ship = resend or not lease.key_shipped(self.key)
        if ship:
            self._payload_sent.add(i)
        else:
            self._payload_sent.discard(i)
        job = _ShardJob(
            key=self.key, payload=self.payload if ship else None,
            names=self.names, lo=lo, hi=hi, index=i,
            vth_rows=self.vth[lo:hi], beta_rows=self.beta[lo:hi],
        )
        return _run_shard_job, (job,)

    def accept(self, i: int, outcome) -> None:
        """Accept one completed shard result (and journal it durably)."""
        self.chunks[i], seconds = outcome
        self.statuses[i].status = (
            "ok" if self.statuses[i].attempts == 1 else "resubmitted"
        )
        self._complete(i, seconds)
        if i in self._payload_sent and self._lease is not None:
            # At least one worker of this generation built the resident
            # state; later dispatches ship the hash alone (a cold worker
            # answers CacheMiss and gets the payload resent).
            self._lease.mark_shipped(self.key)

    def _complete(self, i: int, seconds: float) -> None:
        """Report and journal one shard computed in this run."""
        monitor.unit_complete(
            "mc.shard", label=_shard_key(self.spans[i]), seconds=seconds
        )
        if self.journal is not None:
            lo, hi = self.spans[i]
            self.journal.record(
                _shard_key(self.spans[i]), self.chunks[i], lo=lo, hi=hi
            )

    def note_timeout(self, i: int, timeout: Optional[float]) -> None:
        self.statuses[i].error = f"shard timed out after {timeout:g} s"
        telemetry.count("mc.shard_retries")
        telemetry.event("mc.shard_timeout", shard=i, timeout_s=timeout)

    def note_death(self, i: int, error: BaseException) -> None:
        self.statuses[i].error = (
            f"worker died: {error!r} (shard {i} of {len(self.spans)}, "
            f"workers={self.max_workers})"
        )
        telemetry.count("mc.shard_retries")
        telemetry.event("mc.worker_death", shard=i, error=repr(error))

    def transport_error(self, i: int, error: BaseException) -> Exception:
        # A result that cannot cross back (worker-side pickling) can
        # never succeed on a retry.  (Parent-side pickling is
        # pre-validated before dispatch, because a feeder-thread
        # PicklingError wedges the pool beyond recovery on CPython
        # < 3.12.)
        return AnalysisError(
            f"Monte-Carlo shard {i} of {len(self.spans)} "
            f"(workers={self.max_workers}) could not cross the "
            f"process boundary: {error!r}; a custom measure "
            f"function must be module-level (picklable)"
        )

    def fallback(self, i: int) -> None:
        """In-process recovery after bounded retries are exhausted, under
        this process's own tracer."""
        lo, hi = self.spans[i]
        try:
            with telemetry.span("mc.shard_fallback", index=i, lo=lo, hi=hi):
                self.chunks[i], seconds = _run_shard(
                    i, lo, hi,
                    lambda: _run_chunk(
                        self.tb, self.names, self.vth[lo:hi],
                        self.beta[lo:hi], self.measure,
                    ),
                )
            telemetry.count("mc.shards_in_process")
            self.statuses[i].status = "in-process"
            self._complete(i, seconds)
        except Exception as error:  # noqa: BLE001 - recorded, not masked
            telemetry.count("mc.shards_failed")
            self.statuses[i].status = "failed"
            self.statuses[i].error = repr(error)


def _run_shards(
    tb: OtaTestbench,
    names: Sequence[str],
    vth: np.ndarray,
    beta: np.ndarray,
    measure: Optional[Callable[[OtaTestbench], Dict[str, float]]],
    spans: Sequence[Tuple[int, int]],
    max_workers: int,
    shard_timeout: Optional[float],
    max_shard_retries: int,
    budget: Optional[Budget],
    journal: Optional[RunJournal] = None,
    payload: Optional[bytes] = None,
) -> Tuple[List[Optional[List[Dict[str, float]]]], List[ShardStatus]]:
    """Run every shard through the shared dispatch engine.

    A shard whose worker dies (or times out) is resubmitted on a fresh
    pool up to ``max_shard_retries`` times, then run in-process; only a
    shard that *also* fails in-process is reported as lost.  Because every
    sample row was drawn before any work was scheduled, a recovered shard
    reproduces exactly the values the dead worker would have produced.

    With a ``journal``, shards already recorded by a previous run are
    restored instead of re-run (bit-identical, for the same pre-drawn
    reason), every completed shard is appended durably, and a shutdown
    signal drains in-flight workers into the journal before raising
    :class:`~repro.errors.RunInterrupted`.

    ``payload`` is the pre-validated pickled ``(tb, measure)`` recipe —
    its content hash keys the worker-resident compiled state, so a warm
    persistent pool receives the hash instead of the testbench.
    """
    chunks: List[Optional[List[Dict[str, float]]]] = [None] * len(spans)
    statuses = [
        ShardStatus(index=i, span=span) for i, span in enumerate(spans)
    ]
    monitor.declare("mc.shard", len(spans))
    pending = []
    for i, span in enumerate(spans):
        if journal is not None and journal.has(_shard_key(span)):
            chunks[i] = journal.result(_shard_key(span))
            statuses[i].status = "journaled"
            telemetry.count("mc.journaled_shards")
            monitor.unit_complete(
                "mc.shard", label=_shard_key(span), restored=True
            )
        else:
            pending.append(i)
    if payload is None:
        payload = pickle.dumps((tb, measure))
    dispatch = _ShardDispatch(
        tb, names, vth, beta, measure, spans, chunks, statuses, journal,
        key=hashlib.sha256(payload).hexdigest(),
        payload=payload,
        max_workers=max_workers,
    )
    runtime_pool.run_dispatch(
        dispatch, pending, max_workers, shard_timeout, max_shard_retries,
        budget, journal, _MC_SITES,
    )
    return chunks, statuses


def run_monte_carlo(
    tb: OtaTestbench,
    runs: int = 50,
    seed: int = 1234,
    measure: Optional[Callable[[OtaTestbench], Dict[str, float]]] = None,
    workers: int = 1,
    budget: Optional[Budget] = None,
    shard_timeout: Optional[float] = None,
    max_shard_retries: int = 1,
    journal: Optional[RunJournal] = None,
) -> MonteCarloResult:
    """Sample mismatch and collect statistics.

    By default only the input-referred offset is measured per sample (one
    DC solve); pass ``measure`` for a custom (more expensive) extraction
    returning a dict of named statistics.  ``workers > 1`` partitions the
    pre-drawn samples over a process pool (a custom ``measure`` must then
    be picklable, i.e. a module-level function).
    Results are independent of ``workers`` because every sample is drawn
    before any work is scheduled — and this holds through shard recovery:
    a shard whose worker dies (or exceeds ``shard_timeout`` seconds) is
    resubmitted up to ``max_shard_retries`` times, then run in-process,
    reproducing exactly the rows the dead worker would have produced.  A
    shard that fails even in-process is reported, not raised: the result
    carries the surviving samples plus ``n_failed`` and per-shard
    :class:`ShardStatus` records.  ``budget`` bounds wall-clock time at
    run start and shard boundaries via
    :class:`~repro.errors.BudgetExceededError`.

    The default offset measurement solves each shard of pre-drawn rows
    as one batched ensemble Newton, starting every sample from the
    design's nominal (zero-mismatch) operating point, one seed per
    testbench, so results agree across any worker count.

    ``journal`` makes the run crash-safe: completed shards are appended
    durably and restored on resume without re-running.  Because every
    sample is pre-drawn from ``seed``, a resumed run's statistics are
    bit-identical to an uninterrupted run's, for any kill point.  (The
    shard partition follows ``workers``, so resuming with a *different*
    worker count re-runs the unmatched spans — still bit-identical, just
    without the skip.)
    """
    if runs < 1:
        raise AnalysisError(f"runs must be >= 1, got {runs!r}")
    if workers < 1:
        raise AnalysisError(f"workers must be >= 1, got {workers!r}")
    result = MonteCarloResult()

    with telemetry.span("mc.run", runs=runs, workers=workers):
        telemetry.count("mc.samples", runs)

        names, vth, beta = draw_mismatch_samples(tb.circuit, runs, seed)

        if workers == 1:
            monitor.declare("mc.shard", 1)
            key = _shard_key((0, runs))
            cached = (
                journal.result_or_none(key) if journal is not None else None
            )
            if cached is not None:
                telemetry.count("mc.journaled_shards")
                monitor.unit_complete("mc.shard", label=key, restored=True)
                chunks: List[Optional[List[Dict[str, float]]]] = [cached]
            else:
                if journal is not None:
                    journal.check_interrupt("mc.start")
                if budget is not None:
                    budget.check("montecarlo.start", runs=runs)
                stats, seconds = _run_shard(
                    0, 0, runs,
                    lambda: _run_chunk(tb, names, vth, beta, measure),
                )
                chunks = [stats]
                monitor.unit_complete("mc.shard", label=key, seconds=seconds)
                if journal is not None:
                    journal.record(key, chunks[0], lo=0, hi=runs)
        else:
            try:
                payload = pickle.dumps((tb, measure))
            except Exception as error:
                # Submitting an unpicklable payload would wedge the pool's
                # queue feeder (unrecoverable on CPython < 3.12), so refuse
                # before any worker is spawned.  The validated bytes are
                # the submission payload itself (and its hash keys the
                # worker-resident cache) — nothing is pickled twice.
                raise AnalysisError(
                    f"Monte-Carlo payload cannot cross the process boundary "
                    f"(workers={workers}): {error!r}; a custom measure "
                    f"function must be module-level (picklable)"
                ) from error
            bounds = np.linspace(0, runs, workers + 1).astype(int)
            spans = [
                (int(bounds[i]), int(bounds[i + 1]))
                for i in range(workers)
                if bounds[i + 1] > bounds[i]
            ]
            # Each shard job carries its own pickled row slices of the
            # pre-drawn matrices, so a worker computes on exactly the
            # rows the serial path would.
            chunks, statuses = _run_shards(
                tb, names, vth, beta, measure, spans,
                max_workers=len(spans),
                shard_timeout=shard_timeout,
                max_shard_retries=max_shard_retries,
                budget=budget,
                journal=journal,
                payload=payload,
            )
            result.shards = statuses
            result.n_failed = sum(
                status.span[1] - status.span[0]
                for status, chunk in zip(statuses, chunks)
                if chunk is None
            )

        for chunk in chunks:
            if chunk is None:
                continue  # lost shard; accounted in n_failed
            for stats in chunk:
                for key, value in stats.items():
                    result.samples.setdefault(key, []).append(float(value))
        return result
