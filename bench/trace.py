"""Outside tracer: spans around the public entry points of ``repro``.

The tracer measures every layer from outside the program.  It replaces
each entry point named in :data:`ENTRY_POINTS` with a thin wrapper that
records one span (name, start, end, parent) per call, and it does so *by
identity*: every module attribute of a loaded ``repro.*`` module, and
every attribute of a class defined there, that is bound to the original
function object is rebound to the wrapper.  ``from repro.analysis.metrics
import measure_ota`` call sites are therefore covered as well as the
defining module.  Nothing under ``src/`` changes.

Spans stay in memory until :meth:`Tracer.summary` folds them into
per-layer self times: a span's duration minus the durations of its
direct children.  Every span the tracer records lies inside an ``op``
root span opened by the harness, and the ``op`` root's own self time is
the time no wrapped layer claims (``unattributed_s``), so the layer self
times plus ``unattributed_s`` sum to the traced wall time of the ops.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

ROOT = "op"


def _mode_layer(args, kwargs) -> str:
    """``layout.estimate`` / ``layout.generate`` from a generator call."""
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "estimate")
    return f"layout.{mode}"


def _newton_iterations(args, kwargs, result) -> Dict[str, float]:
    return {"newton_iters": result.iterations}


def _plan_iterations(args, kwargs, result) -> Dict[str, float]:
    return {"iterations": result.iterations}


def _synthesis_rounds(args, kwargs, result) -> Dict[str, float]:
    return {"rounds": result.layout_calls,
            "unconverged": int(not result.converged)}


def _mc_samples(args, kwargs, result) -> Dict[str, float]:
    return {"samples": sum(len(v) for v in result.samples.values())}


def _drc_violations(args, kwargs, result) -> Dict[str, float]:
    return {"violations": len(result)}


def _gds_bytes(args, kwargs, result) -> Dict[str, float]:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path)}


#: (module, qualified name, layer name or namer, count observer).  The
#: layer names are the per-layer metric prefixes in BENCHMARK.json.
ENTRY_POINTS: Tuple[Tuple[str, str, object, Optional[Callable]], ...] = (
    ("repro.core.synthesis", "LayoutOrientedSynthesizer.run",
     "core.synthesis", _synthesis_rounds),
    ("repro.core.cases", "extract_and_measure", "core.cases", None),
    ("repro.sizing.plans.folded_cascode", "FoldedCascodePlan.size",
     "sizing.plan", _plan_iterations),
    ("repro.sizing.plans.two_stage", "TwoStagePlan.size",
     "sizing.plan", _plan_iterations),
    ("repro.sizing.plans.folded_cascode", "FoldedCascodePlan.build_testbench",
     "circuit.testbench", None),
    ("repro.sizing.plans.two_stage", "TwoStagePlan.build_testbench",
     "circuit.testbench", None),
    ("repro.analysis.dcop", "solve_dc", "analysis.dc", _newton_iterations),
    ("repro.analysis.metrics", "measure_ota", "analysis.measure", None),
    ("repro.analysis.ensemble", "measure_ota_ensemble",
     "analysis.ensemble", None),
    ("repro.analysis.ensemble", "EnsembleProgram.from_mismatch",
     "analysis.ensemble", None),
    ("repro.analysis.ensemble", "EnsembleProgram.from_variants",
     "analysis.ensemble", None),
    ("repro.analysis.ensemble", "EnsembleProgram.solve",
     "analysis.ensemble", None),
    ("repro.analysis.montecarlo", "run_monte_carlo",
     "analysis.montecarlo", _mc_samples),
    ("repro.layout.ota", "generate_ota_layout", _mode_layer, None),
    ("repro.layout.two_stage_ota", "generate_two_stage_layout",
     _mode_layer, None),
    ("repro.layout.extraction", "extract_cell", "layout.extract", None),
    ("repro.layout.extraction", "annotate_circuit", "layout.annotate", None),
    ("repro.layout.drc", "DrcChecker.check", "layout.drc", _drc_violations),
    ("repro.layout.gds", "write_gds", "layout.gds", _gds_bytes),
)

#: Every layer an entry point can report under (``_mode_layer`` yields
#: the two layout modes).
LAYERS = (
    "core.synthesis", "core.cases", "sizing.plan", "circuit.testbench",
    "analysis.dc", "analysis.measure", "analysis.ensemble",
    "analysis.montecarlo", "layout.estimate", "layout.generate",
    "layout.extract", "layout.annotate", "layout.drc", "layout.gds",
)


def _resolve(module_name: str, qualname: str):
    """One entry point as stored in its owner's namespace (a classmethod
    stays a classmethod object)."""
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[attribute]


def _rebind(mapping: Dict[int, Tuple[object, object]]) -> None:
    """Rebind, in every loaded ``repro.*`` module and in every class
    defined there, each attribute whose value is a key object of
    ``mapping`` (``id -> (old, new)``) to its new value."""
    for module_name in sorted(sys.modules):
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        module = sys.modules[module_name]
        if module is None:
            continue
        owners = [module] + [
            value for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module_name
        ]
        for owner in owners:
            for attribute, value in list(vars(owner).items()):
                hit = mapping.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attribute, hit[1])


class Tracer:
    """Records spans around wrapped ``repro`` entry points.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original binding.  :meth:`op` opens the root span of
    one harness operation.
    """

    def __init__(self, entries=ENTRY_POINTS):
        self.entries = entries
        #: [name, start, end, parent index, counts or None]
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: id(wrapper) -> (wrapper, original raw attribute)
        self._undo: Dict[int, Tuple[object, object]] = {}

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, function, layer, observe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        named = callable(layer)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = [
                layer(args, kwargs) if named else layer,
                0.0,
                0.0,
                stack[-1] if stack else -1,
                None,
            ]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[4] = observe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point and rebind all aliases of it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for module_name, qualname, layer, observe in self.entries:
            raw = _resolve(module_name, qualname)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapper = type(raw)(self._wrap(raw.__func__, layer, observe))
            else:
                wrapper = self._wrap(raw, layer, observe)
            replacements[id(raw)] = (raw, wrapper)
            self._undo[id(wrapper)] = (wrapper, raw)
        _rebind(replacements)

    def uninstall(self) -> None:
        """Restore the originals wherever a wrapper is bound, including
        in modules first imported while the tracer was installed."""
        _rebind(self._undo)
        self._undo = {}

    @contextmanager
    def op(self):
        """Root span of one harness operation."""
        if self._stack:
            raise RuntimeError("op spans do not nest")
        span = [ROOT, 0.0, 0.0, -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-layer ``calls``, ``self_s``, ``total_s`` and counts.

        ``total_s`` sums the durations of a layer's outermost spans, so
        a layer that recurses into itself is not counted twice.  The
        ``op`` entry holds the root spans: their ``self_s`` is the
        unattributed time and their ``total_s`` the traced wall time.
        """
        out: Dict[str, Dict[str, float]] = {}
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        for index, (name, start, end, parent, counts) in enumerate(self.spans):
            entry = out.setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            )
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            if not self._inside(parent, name):
                entry["total_s"] += end - start
            for key, value in (counts or {}).items():
                entry[key] = entry.get(key, 0) + value
        return out

    def _inside(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
