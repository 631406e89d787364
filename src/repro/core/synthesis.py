"""Layout-oriented synthesis loop (paper Figure 1b).

The sizing tool and the layout tool call each other until the layout
parasitics converge:

1. size the circuit (first pass assumes one fold per transistor and
   diffusion capacitance only);
2. call the layout tool in *parasitic calculation mode* — area
   optimisation fixes fold counts and wiring, and the parasitic report
   comes back (no geometry emitted);
3. re-size compensating the reported parasitics, starting from the
   knobs the previous round's sizing accepted
   (:attr:`~repro.sizing.specs.SizingResult.knobs`) so the plan only
   corrects for the change in the report;
4. repeat until the report stops changing ("till the calculated parasitics
   remain unchanged" — three layout calls in the paper's example);
5. call the layout tool in *generation mode* for the physical layout.
"""

from __future__ import annotations

import copy
import hashlib
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import telemetry
from repro.errors import (
    BudgetExceededError,
    DegradedRunWarning,
    LayoutGenerationWarning,
    ReproError,
    SoftAcceptWarning,
    SynthesisError,
)
from repro.layout.ota import OtaLayoutRequest, OtaLayoutResult, generate_ota_layout
from repro.layout.parasitics import ParasiticReport
from repro.resilience import faults
from repro.resilience.budget import Budget
from repro.resilience.journal import RunJournal
from repro.runtime import artifacts
from repro.telemetry import metrics, monitor
from repro.sizing.plans.folded_cascode import FoldedCascodePlan
from repro.sizing.specs import OtaSpecs, ParasiticMode, SizingResult
from repro.technology.process import Technology
from repro.telemetry.replay import TraceSummary
from repro.units import FF


@dataclass
class SynthesisRecord:
    """One sizing + layout-estimation round."""

    round_index: int
    sizing: SizingResult
    report: ParasiticReport
    distance: float
    """Parasitic change vs the previous round, F (inf for the first)."""


@dataclass
class SynthesisOutcome:
    """Result of a full layout-oriented synthesis."""

    sizing: SizingResult
    feedback: ParasiticReport
    layout_calls: int
    records: List[SynthesisRecord] = field(default_factory=list)
    layout: Optional[OtaLayoutResult] = None
    elapsed: float = 0.0
    converged: bool = True
    diagnostics: Dict[str, object] = field(default_factory=dict)
    """Degradation record: ``soft_accept`` when the 10x-tolerance fallback
    fired, ``degraded``/``failed_round``/``failed_stage``/``failure`` when a
    mid-loop failure fell back to the last good round, ``generate_failure``
    when only the final generation pass failed."""
    trace: Optional[TraceSummary] = None
    """Telemetry summary of the run when a tracer was active, else None."""
    sizing_sources: List[str] = field(default_factory=list)
    """Where each round's sizing came from, in round order: the
    ``synthesis.sizing`` memo source (``computed``, ``memo``) or
    ``journal`` for a round replayed from a run journal."""

    def fingerprint(self) -> str:
        """Stable content hash of the deterministic result payload.

        Covers the sizing, the converged feedback report, every round
        record and the final layout's report/fold configuration, and
        deliberately excludes wall-clock ``elapsed``, the geometry cell
        object, diagnostics text, the trace and ``sizing_sources`` — so a
        run hashes identically whether its rounds were computed, replayed
        from a journal or served from the incremental caches.  The CI
        incremental-on/off determinism check compares these.
        """
        payload = (
            self.converged,
            self.layout_calls,
            self.sizing,
            self.feedback,
            tuple(self.records),
            None
            if self.layout is None
            else (self.layout.fold_config, self.layout.report),
        )
        joined = "\x1f".join(artifacts.canonical_tokens(payload))
        return hashlib.sha256(joined.encode()).hexdigest()[:16]


def _round_key(round_index: int) -> str:
    """Journal key of one synthesis round."""
    return f"round.{round_index}"


def _warm_digest() -> str:
    """Exact digest of the innermost warm-start session's seeds.

    Hashes the raw float64 bytes (never a repr, which rounds), because
    a seed steers the Newton iterate path: two sizing rounds are only
    interchangeable when their warm state matches bit-for-bit.
    """
    from repro.analysis import warmstart

    digest = hashlib.sha256(b"repro-warm-v1")
    for key, seed in warmstart.snapshot().items():
        digest.update(repr(key).encode())
        digest.update(seed.tobytes())
    return digest.hexdigest()


class LayoutOrientedSynthesizer:
    """Couples the sizing plan with the layout generator (Figure 1b)."""

    def __init__(
        self,
        technology: Technology,
        model_level: int = 1,
        aspect: Optional[float] = 1.0,
        convergence_tolerance: float = 2.0 * FF,
        max_layout_calls: int = 6,
        prefer_even_folds: bool = True,
        plan=None,
        layout_tool=None,
    ):
        """``plan`` defaults to the folded-cascode plan; ``layout_tool``
        is a callable ``(sizing, mode) -> result-with-.report`` letting
        other topologies (e.g. the two-stage OTA) reuse the same loop."""
        if max_layout_calls < 1:
            raise SynthesisError(
                f"max_layout_calls must be >= 1 (the loop needs at least "
                f"one sizing/estimation round), got {max_layout_calls!r}"
            )
        if not convergence_tolerance > 0.0:
            raise SynthesisError(
                f"convergence_tolerance must be positive, "
                f"got {convergence_tolerance!r}"
            )
        technology.validate()
        self.technology = technology
        self.model_level = model_level
        self.aspect = aspect
        self.convergence_tolerance = convergence_tolerance
        self.max_layout_calls = max_layout_calls
        self.prefer_even_folds = prefer_even_folds
        self.plan = plan or FoldedCascodePlan(technology, model_level)
        self.layout_tool = layout_tool or self._default_layout_tool

    def _layout_request(self, sizing: SizingResult) -> OtaLayoutRequest:
        return OtaLayoutRequest(
            technology=self.technology,
            sizes=sizing.sizes,
            currents=sizing.currents,
            aspect=self.aspect,
            prefer_even_folds=self.prefer_even_folds,
        )

    def _default_layout_tool(self, sizing: SizingResult, mode: str):
        return generate_ota_layout(self._layout_request(sizing), mode=mode)

    def _sizing_key(
        self, specs, mode, feedback, budget, start
    ) -> Optional[str]:
        """Memo key for one whole sizing round, or None.

        Only pure rounds are memoizable: the plan must publish a
        config key (:meth:`~repro.sizing.plans.base.DesignPlan.config_key`)
        and no budget may be active (a budget can cap iterations
        differently per call).  The key covers the ``start`` knobs the
        round is seeded with, and an exact digest of the warm-start
        state because that state steers the DC iterate path the plan's
        verification solves take.
        """
        if budget is not None:
            return None
        # Duck-typed: stub plans in tests may not subclass DesignPlan at
        # all — no config key means no memoization, same as None.
        config = getattr(self.plan, "config_key", lambda: None)()
        if config is None:
            return None
        return artifacts.cache_key(
            "sizing-round",
            config,
            specs,
            mode.name,
            feedback,
            start,
            _warm_digest(),
        )

    def _size_round(self, specs, mode, feedback, budget, start):
        """One sizing round through the ``sizing`` memo: ``(sizing, source)``.

        The memo value carries the warm-start snapshot taken *after* the
        original call; a hit restores it, so every downstream DC solve —
        the next round's, the Monte-Carlo stage's — sees the exact seed
        state a recomputation would have produced and the run's bits are
        independent of cache temperature.  The caller gets a private
        copy, never the memo's own object.
        """
        from repro.analysis import warmstart
        from repro.layout import incremental

        def compute():
            sizing = self.plan.size(
                specs, mode, feedback, budget=budget, start=start
            )
            return sizing, warmstart.snapshot()

        with telemetry.span("synthesis.sizing") as span:
            (sizing, warm_after), source = incremental.memo(
                "sizing",
                lambda: self._sizing_key(specs, mode, feedback, budget, start),
                compute,
            )
            span.annotate(source=source)
        if source != "computed":
            warmstart.restore(warm_after)
        return copy.deepcopy(sizing), source

    def run(
        self,
        specs: OtaSpecs,
        mode: ParasiticMode = ParasiticMode.FULL,
        generate: bool = True,
        budget: Optional[Budget] = None,
        journal: Optional[RunJournal] = None,
    ) -> SynthesisOutcome:
        """Run the coupled loop.

        ``mode`` must be one of the layout-aware modes (cases 3/4); the
        non-layout cases have nothing to iterate with.

        ``budget`` bounds the loop: its deadline is checked at every round
        boundary (and inside the sizing plan), and expiry raises
        :class:`~repro.errors.BudgetExceededError` whose ``partial``
        attribute carries the completed :class:`SynthesisRecord` list.

        A sizing or layout-tool failure after at least one completed round
        degrades to the last good round — ``converged=False`` and a
        populated :attr:`SynthesisOutcome.diagnostics` — instead of losing
        all progress; a failure on the very first round (nothing to fall
        back to) raises :class:`SynthesisError`.

        With a tracer active (:mod:`repro.telemetry`), the loop records a
        ``synthesis.run`` span with one ``synthesis.round`` child per
        round, and the returned outcome carries the
        :class:`~repro.telemetry.replay.TraceSummary` of this run's
        records in ``.trace``.

        ``journal`` makes the loop crash-safe: every completed round is
        appended durably together with a snapshot of the warm-start
        session, and on resume the journaled rounds are replayed — record
        list (whose last sizing carries the knobs that seed the next
        round), feedback report *and* warm-start seeds restored — so the
        remaining rounds produce bit-identical Newton iterates and the
        final outcome matches an uninterrupted run exactly.
        """
        if not mode.uses_layout:
            raise SynthesisError(
                "layout-oriented synthesis needs a layout-aware parasitic "
                "mode (LAYOUT_DIFFUSION or FULL)"
            )
        from repro.analysis import warmstart

        tracer = telemetry.current()
        first_record = len(tracer.records) if tracer is not None else 0
        with telemetry.span(
            "synthesis.run",
            topology=self.plan.topology,
            mode=mode.name,
            generate=generate,
        ), warmstart.session():
            # Round r+1's verification bench has round r's node layout, so
            # each round's DC solve seeds from the previous converged
            # voltages (repro.analysis.warmstart); the session dies with
            # this run, keeping runs independent and batch fingerprints
            # serial/parallel-identical.
            outcome = self._run(specs, mode, generate, budget, journal)
        if tracer is not None:
            # This run's records only: a tracer spanning several runs
            # (table1, a batch) must not fold earlier runs in.
            outcome.trace = telemetry.summarize(tracer.records[first_record:])
        return outcome

    def _run(
        self,
        specs: OtaSpecs,
        mode: ParasiticMode,
        generate: bool,
        budget: Optional[Budget],
        journal: Optional[RunJournal] = None,
    ) -> SynthesisOutcome:
        from repro.analysis import warmstart

        start = time.perf_counter()
        records: List[SynthesisRecord] = []
        sizing_sources: List[str] = []
        feedback: Optional[ParasiticReport] = None
        sizing: Optional[SizingResult] = None
        converged = False
        degraded = False
        diagnostics: Dict[str, object] = {}

        monitor.declare("round", self.max_layout_calls)
        try:
            for round_index in range(1, self.max_layout_calls + 1):
                if journal is not None:
                    unit = journal.result_or_none(_round_key(round_index))
                    if unit is not None:
                        # Replay a journaled round: restore the record,
                        # the feedback report and the warm-start seeds,
                        # then run the same convergence logic a live
                        # round would — the remaining live rounds see
                        # exactly the state the original run had here.
                        record = unit["record"]
                        warmstart.restore(unit["warm"])
                        records.append(record)
                        sizing_sources.append("journal")
                        sizing = record.sizing
                        previous = feedback
                        feedback = record.report
                        telemetry.count("synthesis.journaled_rounds")
                        telemetry.event(
                            "synthesis.round.journaled",
                            round=round_index,
                            distance=record.distance,
                        )
                        monitor.unit_complete(
                            "round",
                            label=f"round {round_index}",
                            restored=True,
                        )
                        if (
                            previous is not None
                            and record.distance <= self.convergence_tolerance
                        ):
                            converged = True
                            break
                        continue
                    journal.check_interrupt("synthesis.round")
                if budget is not None:
                    budget.check("synthesis.round", round=round_index)
                instrumented = metrics.enabled() or monitor.active()
                round_t0 = time.perf_counter() if instrumented else 0.0
                with telemetry.span("synthesis.round", round=round_index):
                    telemetry.count("synthesis.rounds")
                    stage = "sizing"
                    try:
                        if faults.active():
                            faults.maybe_raise(
                                "synthesis.sizing", index=round_index
                            )
                        # Round 1 starts cold; every later round resumes
                        # from the knobs the previous round accepted.
                        knobs = records[-1].sizing.knobs if records else None
                        sizing, source = self._size_round(
                            specs, mode, feedback, budget, knobs
                        )
                        sizing_sources.append(source)
                        stage = "layout"
                        if faults.active():
                            faults.maybe_raise(
                                "synthesis.layout", index=round_index
                            )
                        estimate = self.layout_tool(sizing, "estimate")
                    except BudgetExceededError:
                        raise
                    except ReproError as error:
                        if not records:
                            raise SynthesisError(
                                f"{stage} failed on synthesis round 1 with "
                                f"no completed round to fall back to: {error}"
                            ) from error
                        degraded = True
                        diagnostics.update(
                            degraded=True,
                            failed_round=round_index,
                            failed_stage=stage,
                            failure=repr(error),
                        )
                        telemetry.count("synthesis.degraded_rounds")
                        telemetry.event(
                            "synthesis.degraded",
                            round=round_index,
                            stage=stage,
                            error=repr(error),
                        )
                        warnings.warn(
                            f"synthesis {stage} failed on round "
                            f"{round_index} ({error}); degrading to the "
                            f"last good round {records[-1].round_index}",
                            DegradedRunWarning,
                            stacklevel=2,
                        )
                        break
                    if feedback is None:
                        distance = float("inf")
                    else:
                        distance = estimate.report.distance(feedback)
                    records.append(
                        SynthesisRecord(
                            round_index=round_index,
                            sizing=sizing,
                            report=estimate.report,
                            distance=distance,
                        )
                    )
                    previous = feedback
                    feedback = estimate.report
                    telemetry.event(
                        "synthesis.round.complete",
                        round=round_index,
                        distance=distance,
                        width=getattr(estimate.report, "width", None),
                        height=getattr(estimate.report, "height", None),
                    )
                    if instrumented:
                        round_seconds = time.perf_counter() - round_t0
                        metrics.observe(
                            "synthesis.round.seconds", round_seconds
                        )
                        monitor.unit_complete(
                            "round",
                            label=f"round {round_index}",
                            seconds=round_seconds,
                        )
                    if journal is not None:
                        # The warm-start snapshot rides along so a resume
                        # re-enters the next round with identical Newton
                        # seeds (bit-identical warm-start chains).
                        journal.record(
                            _round_key(round_index),
                            {
                                "record": records[-1],
                                "warm": warmstart.snapshot(),
                            },
                            distance=distance,
                        )
                    if (
                        previous is not None
                        and distance <= self.convergence_tolerance
                    ):
                        converged = True
                        break
        except BudgetExceededError as error:
            # Hand the partial progress to the caller for diagnosis.
            if error.partial is None:
                error.partial = list(records)
            raise

        if degraded:
            # Fall back to the last round that produced a report.
            sizing = records[-1].sizing
            feedback = records[-1].report
        assert sizing is not None and feedback is not None
        if not degraded and not converged and len(records) >= self.max_layout_calls:
            # Accept the last round but flag how far off it still was.
            converged = records[-1].distance <= 10.0 * self.convergence_tolerance
            if converged:
                diagnostics["soft_accept"] = True
                diagnostics["final_distance"] = records[-1].distance
                telemetry.event(
                    "synthesis.soft_accept", distance=records[-1].distance
                )
                warnings.warn(
                    f"synthesis of {self.plan.topology!r} stopped at "
                    f"max_layout_calls={self.max_layout_calls} with the "
                    f"parasitic distance at {records[-1].distance:.3e} F — "
                    f"within 10x the tolerance, soft-accepting a "
                    f"non-fixed-point result",
                    SoftAcceptWarning,
                    stacklevel=2,
                )

        layout = None
        if generate:
            try:
                layout = self.layout_tool(sizing, "generate")
            except ReproError as error:
                diagnostics["generate_failure"] = repr(error)
                telemetry.event(
                    "synthesis.generate_failure", error=repr(error)
                )
                warnings.warn(
                    f"layout generation failed after a converged sizing "
                    f"({error}); returning the sizing without geometry",
                    LayoutGenerationWarning,
                    stacklevel=2,
                )

        return SynthesisOutcome(
            sizing=sizing,
            feedback=feedback,
            layout_calls=len(records),
            records=records,
            layout=layout,
            elapsed=time.perf_counter() - start,
            converged=converged and not degraded,
            diagnostics=diagnostics,
            sizing_sources=sizing_sources,
        )
