"""Resilient-runtime subsystem: escalation policies, budgets, fault injection.

The layout-oriented flow (paper Fig. 1b) is an iterative fixed-point loop
in which every stage can fail — Newton non-convergence, singular MNA
matrices, unsatisfiable sizing specs, worker death during Monte-Carlo.
This package turns those failures from bare exceptions into a managed
degradation architecture:

* :mod:`repro.resilience.policy` — declarative solver escalation ladders
  (:class:`SolverPolicy`) whose every rung is recorded in a structured
  :class:`ConvergenceReport`;
* :mod:`repro.resilience.budget` — wall-clock :class:`Deadline` and
  :class:`Budget` objects threaded through synthesis, sizing and
  Monte-Carlo so runaway cases abort at clean boundaries with
  :class:`~repro.errors.BudgetExceededError`;
* :mod:`repro.resilience.faults` — a deterministic fault-injection
  registry so every degradation path is testable without contriving
  pathological circuits;
* :mod:`repro.resilience.journal` — a crash-safe, append-only run
  journal (:class:`RunJournal`, schema ``repro-journal-v2``) plus
  SIGINT/SIGTERM shutdown guards, giving every long-running driver
  durable checkpoints and deterministic ``--resume``.
"""

from repro.resilience.budget import Budget, Deadline
from repro.resilience.journal import JOURNAL_SCHEMA, RunJournal, ignore_sigint
from repro.resilience.policy import (
    DEFAULT_GMIN_SEQUENCE,
    ConvergenceReport,
    DirectNewton,
    GminRamp,
    RungRecord,
    SolverPolicy,
    SourceStepping,
)

__all__ = [
    "Budget",
    "ConvergenceReport",
    "Deadline",
    "DEFAULT_GMIN_SEQUENCE",
    "DirectNewton",
    "GminRamp",
    "JOURNAL_SCHEMA",
    "RunJournal",
    "RungRecord",
    "SolverPolicy",
    "SourceStepping",
    "ignore_sigint",
]
