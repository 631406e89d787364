"""Design plan interface.

A design plan owns all sizing knowledge for one topology.  The hierarchy
mirrors the paper's claim that "the use of hierarchy simplifies the
addition of new topologies in the tool": adding a topology means
implementing one subclass over the shared building blocks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.circuit.testbench import OtaTestbench
from repro.layout.parasitics import ParasiticReport
from repro.resilience.budget import Budget
from repro.sizing.specs import OtaSpecs, ParasiticMode, SizingResult
from repro.technology.process import Technology


class DesignPlan(ABC):
    """Base class for topology sizing plans."""

    topology: str = "abstract"

    def __init__(self, technology: Technology, model_level: int = 1):
        technology.validate()
        self.technology = technology
        self.model_level = model_level

    def config_key(self) -> Optional[tuple]:
        """Canonical tuple of everything that parameterizes :meth:`size`.

        A plan whose sizing is a pure function of (this key, specs,
        mode, feedback, ``start`` seed, warm-start state) may return a
        tuple here, which lets the synthesis loop serve whole sizing
        rounds from the ``sizing`` kind of
        :func:`repro.layout.incremental.memo`.  The default ``None`` is a
        ``None`` memo key — scripted or stateful plans are computed every
        round, never served from the memo.
        """
        return None

    @abstractmethod
    def size(
        self,
        specs: OtaSpecs,
        mode: ParasiticMode = ParasiticMode.NONE,
        feedback: Optional[ParasiticReport] = None,
        budget: Optional[Budget] = None,
        start: Optional[object] = None,
    ) -> SizingResult:
        """Size the topology for ``specs``.

        ``mode`` selects the parasitic knowledge level (Table 1 cases);
        ``feedback`` is the layout tool's parasitic report for the
        layout-aware modes.  ``budget`` (when given) is checked at every
        iteration of the sizing fixed-point loop and may cap the
        iteration count (:meth:`Budget.sizing_iteration_cap`).

        ``start`` seeds the search with the :attr:`SizingResult.knobs` of
        an earlier sizing of this plan, so a re-size under slightly
        changed feedback resumes where that sizing ended; ``None`` starts
        cold from the plan's own initial knobs.  The result records how
        the search ended (:attr:`SizingResult.status`) and its own final
        knobs.
        """

    @abstractmethod
    def build_testbench(
        self,
        result: SizingResult,
        specs: OtaSpecs,
        mode: ParasiticMode = ParasiticMode.NONE,
        feedback: Optional[ParasiticReport] = None,
    ) -> OtaTestbench:
        """Materialise a sizing result into a measurable circuit, with the
        parasitic annotations implied by ``mode``."""
