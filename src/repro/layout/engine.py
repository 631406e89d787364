"""Layout fast-path engine selection.

The geometric side of the flow, switched by the same
:class:`~repro.analysis.engine.EngineSwitch` as the analysis engines.
The layout path has three independently selectable switches:

* **extraction** — ``"vector"`` runs the array-based extractor
  (flat numpy coordinate arrays per layer, net ids as int codes);
  ``"scalar"`` runs the original per-shape reference implementation,
  kept as the golden oracle for equivalence tests and benchmarks.
* **drc** — ``"grid"`` resolves pair checks through the shared
  :class:`~repro.layout.geometry.GridIndex`; ``"allpairs"`` keeps the
  original sorted-sweep scan as the reference.
* **incremental** — ``"on"`` serves layout work (per-module extraction
  contributions, whole layout calls, sizing rounds) from the one
  process-wide content-keyed memo, :func:`repro.layout.incremental.memo`
  (kinds ``extraction``, ``layout``, ``sizing``); ``"off"`` recomputes
  everything from scratch and never touches the memo's disk tier.
  Unlike the other switches this one is bit-exact by construction — a
  memo hit returns the stored result of an identical earlier
  computation — so flipping it changes wall-clock only, never a single
  output bit.

``None`` (the default everywhere) resolves to the process-wide default,
so a single ``use(...)`` context flips a whole flow — this is how
``python -m repro bench`` measures before/after on identical code paths.
"""

from __future__ import annotations

from repro.analysis.engine import EngineSwitch

VECTOR = "vector"
SCALAR = "scalar"
GRID = "grid"
ALLPAIRS = "allpairs"
INCREMENTAL = "on"
FROM_SCRATCH = "off"

extraction_engine = EngineSwitch("extraction", VECTOR, (VECTOR, SCALAR))
drc_engine = EngineSwitch("drc", GRID, (GRID, ALLPAIRS))
incremental_engine = EngineSwitch(
    "incremental", INCREMENTAL, (INCREMENTAL, FROM_SCRATCH)
)
