"""Deterministic fault-injection registry.

Degradation paths (solver escalation, Monte-Carlo shard resubmission,
synthesis-round fallback, journal crash safety) are hard to reach with
real inputs: they need a singular matrix on exactly the third
linear solve, or a worker process that dies on shard 2 but not on its
resubmission.  This module lets tests *declare* such failures at named
sites instead of contriving pathological circuits:

    with faults.inject("solve.linear", error=AnalysisError("injected")):
        solve_dc(circuit)        # first linear solve fails, ladder escalates

Instrumented sites (:data:`SITES`, the only ``site`` strings
:func:`inject` and ``REPRO_FAULTS`` accept):

===================== =========================================================
``solve.linear``      every Newton linear solve (single circuit and stacked
                      ensemble); the injected error is handled like a
                      singular matrix, so the current escalation rung fails
                      and the ladder moves on
``model.eval``        the batched MOS model evaluation of a Newton
                      iteration; ``action="nan"`` poisons the device
                      currents with NaN, any other action raises the
                      injected error
``mc.worker``         Monte-Carlo shard submission (``index`` = shard); a
                      firing makes the worker process die (``os._exit``),
                      exercising shard resubmission and in-process fallback
``batch.worker``      batch-task submission (``index`` = task); a firing
                      makes the task's worker process die, exercising the
                      batch driver's resubmission/in-process recovery
``synthesis.sizing``  the sizing call of a synthesis round (``index`` = round)
``synthesis.layout``  the layout-tool call of a synthesis round
                      (``index`` = round)
``journal.write``     the start of every :meth:`RunJournal.record
                      <repro.resilience.journal.RunJournal.record>` append;
                      an injected error simulates a failed journal write
``process.kill``      every *journal boundary* — fired after a unit has been
                      durably appended.  ``action="crash"`` hard-kills the
                      process (``os._exit(137)``); the default action raises
                      :class:`SimulatedKill` (a ``BaseException``) so tests
                      can simulate process death in-process: nothing in the
                      library catches it, and the on-disk journal is exactly
                      what a real kill would have left
===================== =========================================================

For kill-resume tests that need a *real* process death (the CI smoke
job), faults can be armed from the environment: :func:`arm_from_env`
parses ``REPRO_FAULTS`` (``site[:key=value,...]`` entries separated by
``;``, e.g. ``process.kill:at=2,action=crash``) and is called by the CLI
entry point before any command runs.

Every instrumented site is guarded by :func:`active`, a single module-level
truthiness test, so the registry costs nothing when no fault is armed.
Counters live in the :class:`Fault` object itself and are torn down with the
``with`` block, making every injection deterministic and repeatable.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Mapping, Optional

from repro.errors import AnalysisError

#: Every instrumented site, in the order of the table above.  A fault
#: armed anywhere else could never fire, yet would still make
#: :func:`active` true and so bypass every memo; :class:`Fault` rejects it.
SITES = (
    "solve.linear",
    "model.eval",
    "mc.worker",
    "batch.worker",
    "synthesis.sizing",
    "synthesis.layout",
    "journal.write",
    "process.kill",
)

#: Armed faults, in arming order.  Instrumented sites consult this list via
#: :func:`fire`; an empty list short-circuits every check.
_ACTIVE: List["Fault"] = []

#: Exit code of an ``action="crash"`` process kill (mirrors SIGKILL's
#: conventional 128+9 so the CI smoke job can assert on it).  The kill
#: runs no cleanup at all, exactly like a real SIGKILL: the run journal
#: is the only state a resumed run relies on.
KILL_EXIT_CODE = 137


class SimulatedKill(BaseException):
    """In-process stand-in for a hard process kill.

    Derives from :class:`BaseException` so no library ``except Exception``
    handler can absorb it — the stack unwinds exactly as ``os._exit``
    would have cut it, leaving the on-disk journal in the same state.
    """


@dataclass
class Fault:
    """One armed fault.

    ``site`` names the instrumented location; ``index`` (when given)
    restricts the fault to one shard / round / call index.  The fault fires
    on the ``at``-th matching hit and on every subsequent hit until it has
    fired ``times`` times.  ``action`` selects what the site does with a
    firing: ``"raise"`` (the default) raises :attr:`error`, ``"nan"`` and
    ``"crash"`` are site-specific degradations (NaN device currents,
    worker-process death).
    """

    site: str
    error: Optional[BaseException] = None
    at: int = 1
    times: int = 1
    index: Optional[int] = None
    action: str = "raise"
    hits: int = field(default=0, repr=False)
    fired: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known sites: "
                f"{', '.join(SITES)}"
            )

    def exception(self) -> BaseException:
        """The exception a ``raise``-action firing should raise."""
        if self.error is not None:
            return self.error
        return AnalysisError(f"injected fault at {self.site!r}")


def active() -> bool:
    """True when at least one fault is armed (cheap hot-path guard)."""
    return bool(_ACTIVE)


def fire(site: str, index: Optional[int] = None) -> Optional[Fault]:
    """Consult the registry at an instrumented site.

    Increments the hit counter of every armed fault matching ``site`` (and
    ``index`` when the fault pins one) and returns the first fault that is
    due to fire, or ``None``.  The caller decides how to degrade based on
    :attr:`Fault.action`.
    """
    if not _ACTIVE:
        return None
    for fault in _ACTIVE:
        if fault.site != site:
            continue
        if fault.index is not None and index is not None and fault.index != index:
            continue
        fault.hits += 1
        if fault.hits >= fault.at and fault.fired < fault.times:
            fault.fired += 1
            return fault
    return None


def maybe_raise(site: str, index: Optional[int] = None) -> None:
    """Raise the armed fault's error if one fires at ``site``.

    Convenience for sites whose only degradation is an exception.
    """
    fault = fire(site, index)
    if fault is not None:
        raise fault.exception()


def maybe_kill(site: str = "process.kill", index: Optional[int] = None) -> None:
    """Die at ``site`` if an armed kill fault fires.

    ``action="crash"`` is a plain ``os._exit(137)`` (a genuine kill: no
    atexit handlers, no finally blocks); any other action raises
    :class:`SimulatedKill` so in-process tests can walk the kill-resume
    matrix without spawning subprocesses.
    """
    fault = fire(site, index)
    if fault is None:
        return
    if fault.action == "crash":
        os._exit(KILL_EXIT_CODE)
    raise SimulatedKill(f"simulated process kill at {site!r}")


def arm(fault: Fault) -> Fault:
    """Arm ``fault`` persistently (no scope; cleared by :func:`disarm_all`)."""
    _ACTIVE.append(fault)
    return fault


def disarm_all() -> None:
    """Clear every armed fault (scoped and persistent)."""
    _ACTIVE.clear()


def arm_from_env(environ: Optional[Mapping[str, str]] = None) -> List[Fault]:
    """Arm faults described by the ``REPRO_FAULTS`` environment variable.

    Format: ``site[:key=value,...]`` entries separated by ``;``.  Keys
    are the integer fields ``at``/``times``/``index`` and the string
    field ``action``.  Example::

        REPRO_FAULTS="process.kill:at=2,action=crash"

    kills the process (exit :data:`KILL_EXIT_CODE`) at the second journal
    boundary — the lever the CI kill-resume smoke job pulls.  Returns the
    armed faults (empty when the variable is unset).  An unknown site or
    option raises ``ValueError`` and arms nothing.
    """
    if environ is None:
        environ = os.environ
    spec = environ.get("REPRO_FAULTS", "").strip()
    if not spec:
        return []
    parsed: List[Fault] = []
    for entry in spec.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        site, _, options = entry.partition(":")
        fields = {}
        for option in filter(None, options.split(",")):
            key, _, value = option.partition("=")
            key = key.strip()
            if key in ("at", "times", "index"):
                fields[key] = int(value)
            elif key == "action":
                fields[key] = value.strip()
            else:
                raise ValueError(
                    f"REPRO_FAULTS: unknown option {key!r} in {entry!r}"
                )
        try:
            parsed.append(Fault(site=site.strip(), **fields))
        except ValueError as error:
            raise ValueError(f"REPRO_FAULTS: {error}") from None
    return [arm(fault) for fault in parsed]


@contextmanager
def inject(
    site: str,
    error: Optional[BaseException] = None,
    at: int = 1,
    times: int = 1,
    index: Optional[int] = None,
    action: str = "raise",
) -> Iterator[Fault]:
    """Arm a fault for the duration of the ``with`` block.

    Yields the :class:`Fault` so tests can assert on ``fired`` afterwards.
    """
    fault = Fault(
        site=site, error=error, at=at, times=times, index=index, action=action
    )
    _ACTIVE.append(fault)
    try:
        yield fault
    finally:
        _ACTIVE.remove(fault)
