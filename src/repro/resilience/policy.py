"""Declarative solver escalation policies.

The DC operating-point solvers used to hard-code their safety nets as
nested control flow (direct Newton, then gmin stepping, then source
stepping), and a failure threw away everything learned along the way.
A :class:`SolverPolicy` makes the ladder explicit data: an ordered tuple
of strategy *rungs*, each of which attempts a full solve on a solver
*backend* and records what happened in a structured
:class:`ConvergenceReport`.  The report is attached both to successful
solutions (``DcSolution.convergence``) and to the final
:class:`~repro.errors.ConvergenceError` when every rung fails — residual
history, achieved gmin and the worst-residual nodes survive the failure.

A backend is anything with this small duck-typed surface
(:class:`~repro.analysis.stamps.StampProgram` in the library; the
per-element reference in ``tests/oracles/analysis.py`` runs its own
ladder through the same rungs):

* ``circuit_name`` — for messages;
* ``initial_guess()`` / ``zeros()`` — start vectors;
* ``newton(start, gmin, source_scale, max_iterations)`` returning
  ``(voltages, converged, iterations, residual_norm)``;
* ``worst_residual_nodes(voltages, count)`` — failure forensics.

The rung arithmetic reproduces the previous hard-coded ladders exactly
(same stages, same iteration caps, same restart points), so the happy
path is numerically untouched — equivalence tests pin this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.errors import ConvergenceError

#: The classic gmin relaxation ladder (large shunt -> fully removed).
DEFAULT_GMIN_SEQUENCE: Tuple[float, ...] = (
    1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 0.0
)


@dataclass
class RungRecord:
    """One Newton attempt inside one escalation rung."""

    strategy: str
    stage: str
    converged: bool
    iterations: int
    residual_norm: float

    def format(self) -> str:
        mark = "ok" if self.converged else "FAILED"
        return (
            f"{self.strategy:<16} {self.stage:<12} iters={self.iterations:<4d} "
            f"residual={self.residual_norm:.3e}  {mark}"
        )


@dataclass
class ConvergenceReport:
    """Structured record of one escalation-ladder run.

    Populated for successful solves (``converged=True``, ``strategy`` names
    the winning rung) and attached to :class:`~repro.errors.ConvergenceError`
    when the ladder is exhausted (``worst_nodes`` then carries the nodes
    with the largest KCL residual at the last iterate).
    """

    circuit: str
    converged: bool = False
    strategy: Optional[str] = None
    achieved_gmin: float = 0.0
    rungs: List[RungRecord] = field(default_factory=list)
    worst_nodes: List[Tuple[str, float]] = field(default_factory=list)
    final_voltages: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def iterations(self) -> int:
        """Total Newton iterations across every attempted rung."""
        return sum(record.iterations for record in self.rungs)

    def residual_history(self) -> List[float]:
        """Final residual norm of every attempted stage, in order."""
        return [record.residual_norm for record in self.rungs]

    def add(
        self,
        strategy: str,
        stage: str,
        converged: bool,
        iterations: int,
        residual_norm: float,
    ) -> None:
        self.rungs.append(
            RungRecord(strategy, stage, converged, iterations, residual_norm)
        )

    def summary(self) -> str:
        """Human-readable dump (the CLI prints this on failure)."""
        status = (
            f"converged via {self.strategy!r}" if self.converged
            else "NOT CONVERGED (ladder exhausted)"
        )
        lines = [
            f"convergence report for {self.circuit!r}: {status}",
            f"  total Newton iterations: {self.iterations}, "
            f"achieved gmin: {self.achieved_gmin:g}",
        ]
        for record in self.rungs:
            lines.append("  " + record.format())
        if self.worst_nodes:
            worst = ", ".join(
                f"{name}={residual:.3e}A" for name, residual in self.worst_nodes
            )
            lines.append(f"  worst-residual nodes: {worst}")
        return "\n".join(lines)


@dataclass(frozen=True)
class DirectNewton:
    """Straight two-stage Newton from the initial guess.

    Most well-posed circuits converge directly, making any continuation
    pure overhead; the per-stage cap keeps a hopeless direct attempt from
    eating the whole iteration budget before the ladder escalates.
    """

    name: str = "direct-newton"
    gmins: Tuple[float, ...] = (1e-12, 0.0)
    iteration_cap: int = 50

    def attempt(
        self, backend: Any, max_iterations: int, report: ConvergenceReport
    ) -> Optional[Tuple[np.ndarray, float]]:
        voltages = backend.initial_guess()
        for gmin in self.gmins:
            voltages, ok, iterations, norm = backend.newton(
                voltages, gmin,
                max_iterations=min(max_iterations, self.iteration_cap),
            )
            report.add(self.name, f"gmin={gmin:g}", ok, iterations, norm)
            if not ok:
                report.final_voltages = voltages
                return None
        return voltages, self.gmins[-1]


@dataclass(frozen=True, eq=False)
class WarmStart:
    """Direct Newton seeded from a previously converged solution.

    Prepended to the default ladder when a warm-start session (see
    :mod:`repro.analysis.warmstart`) holds node voltages for a
    structurally matching circuit — e.g. the previous synthesis round's
    verification bench.  A stale seed simply fails this rung and the
    standard ladder takes over from its own initial guess, so the result
    is identical either way; only the iteration count changes.
    """

    seed: np.ndarray
    name: str = "warm-start"
    gmins: Tuple[float, ...] = (1e-12, 0.0)
    iteration_cap: int = 50

    def attempt(
        self, backend: Any, max_iterations: int, report: ConvergenceReport
    ) -> Optional[Tuple[np.ndarray, float]]:
        voltages = np.array(self.seed, dtype=float, copy=True)
        for gmin in self.gmins:
            voltages, ok, iterations, norm = backend.newton(
                voltages, gmin,
                max_iterations=min(max_iterations, self.iteration_cap),
            )
            report.add(self.name, f"gmin={gmin:g}", ok, iterations, norm)
            if not ok:
                report.final_voltages = voltages
                return None
        return voltages, self.gmins[-1]


@dataclass(frozen=True)
class GminRamp:
    """Gmin continuation: relax a node-to-ground shunt geometrically.

    Succeeds only when the fully relaxed (gmin = 0) system converges; a
    ramp stranded at a nonzero shunt hands over to the next rung.
    """

    sequence: Tuple[float, ...] = DEFAULT_GMIN_SEQUENCE
    name: str = "gmin-ramp"

    def attempt(
        self, backend: Any, max_iterations: int, report: ConvergenceReport
    ) -> Optional[Tuple[np.ndarray, float]]:
        voltages = backend.initial_guess()
        converged = False
        achieved = self.sequence[0] if self.sequence else 0.0
        for gmin in self.sequence:
            voltages, converged, iterations, norm = backend.newton(
                voltages, gmin, max_iterations=max_iterations
            )
            report.add(self.name, f"gmin={gmin:g}", converged, iterations, norm)
            if not converged:
                break
            achieved = gmin
        if converged and achieved == 0.0:
            return voltages, 0.0
        report.final_voltages = voltages
        return None


@dataclass(frozen=True)
class SourceStepping:
    """Ramp the supplies from a cold start, then drop the residual gmin."""

    scales: Tuple[float, ...] = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
    gmin: float = 1e-12
    name: str = "source-stepping"

    def attempt(
        self, backend: Any, max_iterations: int, report: ConvergenceReport
    ) -> Optional[Tuple[np.ndarray, float]]:
        voltages = backend.zeros()
        for scale in self.scales:
            voltages, ok, iterations, norm = backend.newton(
                voltages, self.gmin, source_scale=scale,
                max_iterations=max_iterations,
            )
            report.add(self.name, f"scale={scale:g}", ok, iterations, norm)
            if not ok:
                report.final_voltages = voltages
                return None
        voltages, ok, iterations, norm = backend.newton(
            voltages, 0.0, max_iterations=max_iterations
        )
        report.add(self.name, "gmin=0", ok, iterations, norm)
        if ok:
            return voltages, 0.0
        report.final_voltages = voltages
        return None


@dataclass(frozen=True)
class SolverPolicy:
    """An ordered ladder of solve strategies.

    :meth:`run` tries each rung in turn; the first success returns with a
    populated report, exhaustion raises :class:`ConvergenceError` with the
    same report (worst-residual nodes included) attached.
    """

    rungs: Tuple[Any, ...]

    def run(
        self,
        backend: Any,
        max_iterations: int = 200,
        deadline: Optional[Any] = None,
    ) -> Tuple[np.ndarray, ConvergenceReport]:
        report = ConvergenceReport(circuit=backend.circuit_name)
        for rung_index, rung in enumerate(self.rungs):
            if deadline is not None:
                deadline.check(f"solver.{rung.name}", circuit=backend.circuit_name)
            outcome = rung.attempt(backend, max_iterations, report)
            if outcome is not None:
                voltages, gmin = outcome
                report.converged = True
                report.strategy = rung.name
                report.achieved_gmin = gmin
                report.final_voltages = None
                if telemetry.enabled():
                    _record_telemetry(report, rung_index)
                return voltages, report
        if telemetry.enabled():
            _record_telemetry(report, len(self.rungs) - 1, failed=True)
        if report.final_voltages is not None:
            report.worst_nodes = backend.worst_residual_nodes(
                report.final_voltages
            )
            report.final_voltages = None
        raise ConvergenceError(
            f"DC analysis of {backend.circuit_name!r} failed after "
            f"{report.iterations} Newton iterations "
            f"({len(self.rungs)} strategies exhausted)",
            report=report,
        )


def _record_telemetry(
    report: ConvergenceReport, rung_index: int, failed: bool = False
) -> None:
    """Fold one escalation-ladder run into the active tracer."""
    telemetry.count("solver.solves")
    telemetry.count("solver.newton_iterations", report.iterations)
    attempts: dict = {}
    for record in report.rungs:
        attempts[record.strategy] = attempts.get(record.strategy, 0) + 1
    for strategy, n in attempts.items():
        telemetry.count(f"solver.rung.{strategy}", n)
    if rung_index > 0:
        telemetry.count("solver.escalations")
    if failed:
        telemetry.count("solver.failures")
    if report.rungs:
        telemetry.gauge("solver.last_residual", report.rungs[-1].residual_norm)


#: The default DC ladder (fast direct attempt first).
COMPILED_POLICY = SolverPolicy(
    rungs=(DirectNewton(), GminRamp(), SourceStepping())
)


def ramp_policy(sequence: Tuple[float, ...]) -> SolverPolicy:
    """Ladder for a caller-pinned gmin sequence (no direct fast path)."""
    return SolverPolicy(rungs=(GminRamp(tuple(sequence)), SourceStepping()))


def warm_policy(seed: np.ndarray) -> SolverPolicy:
    """The default ladder with a warm-start rung bolted on front.

    Same terminal behaviour as :data:`COMPILED_POLICY` (the full ladder
    still runs if the seed misleads Newton), but a good seed converges in
    a handful of iterations before :class:`DirectNewton` would even
    start."""
    return SolverPolicy(rungs=(WarmStart(seed),) + COMPILED_POLICY.rungs)

