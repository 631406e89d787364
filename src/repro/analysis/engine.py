"""Engine selection switches.

Every analysis entry point (:func:`~repro.analysis.dcop.solve_dc`,
:func:`~repro.analysis.ac.ac_sweep`, :class:`~repro.analysis.noise.NoiseAnalysis`,
:func:`~repro.analysis.metrics.measure_ota`) accepts an ``engine`` argument,
resolved through :data:`analysis_engine`:

* ``"compiled"`` — the vectorized compiled-stamp engine
  (:mod:`repro.analysis.stamps`): one walk over the circuit produces a
  stamp program of flat numpy index/value arrays, Newton iterations update
  the system with scatter-adds and batched model evaluation, and AC sweeps
  solve all frequencies as one stacked tensor;
* ``"legacy"`` — the original per-element, per-frequency reference
  implementation, kept as the golden oracle for equivalence tests and as
  the "before" side of the benchmark harness.

``None`` (the default everywhere) resolves to the process-wide default,
so a single ``analysis_engine.use(...)`` context flips a whole flow —
this is how ``python -m repro bench`` measures before/after on identical
code paths.

A second, independent knob (:data:`ensemble_engine`) selects how
*ensembles* of parameter vectors (Monte-Carlo mismatch samples, process
corners) are evaluated on top of the compiled engine:

* ``"stacked"`` — :mod:`repro.analysis.ensemble` solves all K members as
  one batched ``(K, n, n)`` Newton with per-member convergence masking;
* ``"per-sample"`` — the original one-solve-per-member loop, kept as the
  golden reference (equivalence pinned sample-for-sample at rtol 1e-9).

:class:`EngineSwitch` is also the type of the layout-side switches in
:mod:`repro.layout.engine`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

COMPILED = "compiled"
LEGACY = "legacy"

STACKED = "stacked"
PERSAMPLE = "per-sample"


class EngineSwitch:
    """One process-wide engine knob with scoped override support."""

    __slots__ = ("label", "options", "_current")

    def __init__(self, label: str, default: str, options: Tuple[str, ...]):
        self.label = label
        self.options = options
        self._current = self._validated(default)

    def _validated(self, name: str) -> str:
        if name not in self.options:
            raise ValueError(
                f"unknown {self.label} engine {name!r}; "
                f"expected one of {self.options}"
            )
        return name

    def default(self) -> str:
        """The engine used when callers pass ``engine=None``."""
        return self._current

    def set_default(self, name: str) -> None:
        self._current = self._validated(name)

    def resolve(self, engine: Optional[str]) -> str:
        """Resolve an ``engine`` argument to a concrete engine name."""
        if engine is None:
            return self._current
        return self._validated(engine)

    @contextmanager
    def use(self, name: str) -> Iterator[str]:
        """Temporarily switch the default (benchmarks, golden tests)."""
        previous = self._current
        self._current = self._validated(name)
        try:
            yield self._current
        finally:
            self._current = previous


#: Which implementation backs every analysis entry point.
analysis_engine = EngineSwitch("analysis", COMPILED, (COMPILED, LEGACY))

#: How K-member parameter ensembles are solved on the compiled engine.
ensemble_engine = EngineSwitch("ensemble", STACKED, (STACKED, PERSAMPLE))
