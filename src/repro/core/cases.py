"""The four parasitic-awareness cases of Table 1.

Each case sizes the same folded-cascode OTA for the same specifications
with a different amount of layout knowledge, then (independently) generates
the layout, extracts it and simulates the extracted netlist — producing
the "value(value-in-brackets)" pairs of the paper's Table 1.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro import telemetry
from repro.analysis.metrics import OtaMetrics, measure_ota
from repro.layout import incremental
from repro.layout.extraction import annotate_circuit, extract_cell
from repro.layout.ota import OtaLayoutRequest, OtaLayoutResult, generate_ota_layout
from repro.circuit.testbench import OtaTestbench
from repro.core.synthesis import LayoutOrientedSynthesizer
from repro.runtime.artifacts import canonical_tokens as _tokens
from repro.sizing.plans.folded_cascode import FoldedCascodePlan
from repro.sizing.specs import OtaSpecs, ParasiticMode, SizingResult
from repro.technology.process import Technology


@dataclass
class CaseResult:
    """One Table-1 column: synthesized and extracted measurements."""

    mode: ParasiticMode
    sizing: SizingResult
    synthesized: OtaMetrics
    extracted: OtaMetrics
    layout: OtaLayoutResult
    layout_calls: int
    elapsed: float
    sizing_sources: Tuple[str, ...] = ()
    """Per-round sizing provenance (:attr:`SynthesisOutcome.sizing_sources`;
    ``("computed",)`` for the single sizing of a non-layout case).  The
    batch driver marks every round ``"disk"`` or ``"journal"`` on a case
    it restores instead of running."""

    @property
    def label(self) -> str:
        return f"Case ({self.mode.value})"

    @property
    def sizing_served(self) -> bool:
        """True when some sizing round was not computed in this run, so
        :attr:`elapsed` leaves out that round's work."""
        return any(source != "computed" for source in self.sizing_sources)

    def fingerprint(self) -> str:
        """Stable content hash of the deterministic result payload.

        Covers everything a Table-1 column is built from — the mode,
        the sizing, both measurement sets, the layout report and fold
        configuration — and deliberately excludes wall-clock ``elapsed``,
        ``sizing_sources`` and the geometry cell object, so identical designs hash
        identically no matter how long the run took or which process
        produced it.  The batch driver's serial-vs-parallel determinism
        check compares these.
        """
        payload = (
            self.mode,
            self.layout_calls,
            self.sizing,
            self.synthesized,
            self.extracted,
            self.layout.fold_config,
            self.layout.report,
        )
        digest = hashlib.sha256("\x1f".join(_tokens(payload)).encode())
        return digest.hexdigest()[:16]


def extract_and_measure(
    plan: FoldedCascodePlan,
    sizing: SizingResult,
    specs: OtaSpecs,
    layout: OtaLayoutResult,
    technology: Technology,
) -> OtaMetrics:
    """Generate-extract-simulate: the bracketed values of Table 1.

    The extracted netlist uses the *drawn* device widths (grid-snapped by
    the motif generator — the mechanism behind the paper's post-folding
    offset remark) and the extractor's own diffusion/wire/coupling/well
    capacitances.

    The extraction is memoized (``extraction`` kind of
    :mod:`repro.layout.incremental`) on the layout's request key and the
    technology: the same request always draws the same cell, so an undo
    to an earlier design is not re-extracted.  A layout built with the
    memo off carries no key and is always extracted.
    """
    assert layout.cell is not None, "extraction needs a generated layout"
    with telemetry.span("cases.extract") as span:
        extracted_parasitics, source = incremental.memo(
            "extraction",
            lambda: None if layout.key is None
            else (layout.key, technology.fingerprint()),
            lambda: extract_cell(layout.cell, technology),
        )
        span.annotate(source=source)

    # Base circuit with no sizing-side parasitics: everything measured on
    # this netlist comes from the extractor.
    bench = plan.build_testbench(sizing, specs, mode=ParasiticMode.NONE)
    circuit = bench.circuit
    for mos in circuit.mos_devices:
        if mos.name in layout.report.devices:
            info = layout.report.devices[mos.name]
            mos.w = info.actual_width
            mos.nf = info.nf
    annotated = annotate_circuit(circuit, extracted_parasitics, technology)
    extracted_bench = OtaTestbench(
        circuit=annotated,
        source_pos=bench.source_pos,
        source_neg=bench.source_neg,
        input_neg_net=bench.input_neg_net,
        output_net=bench.output_net,
        supply_sources=bench.supply_sources,
        slew_devices=bench.slew_devices,
    )
    return measure_ota(extracted_bench)


def run_case(
    technology: Technology,
    specs: OtaSpecs,
    mode: ParasiticMode,
    model_level: int = 1,
    aspect: Optional[float] = 1.0,
    plan: Optional[FoldedCascodePlan] = None,
) -> CaseResult:
    """Size, lay out, extract and measure one Table-1 case."""
    start = time.perf_counter()
    plan = plan or FoldedCascodePlan(technology, model_level)

    if mode.uses_layout:
        synthesizer = LayoutOrientedSynthesizer(
            technology, model_level=model_level, aspect=aspect, plan=plan
        )
        outcome = synthesizer.run(specs, mode=mode, generate=True)
        sizing = outcome.sizing
        layout = outcome.layout
        layout_calls = outcome.layout_calls
        sizing_sources = tuple(outcome.sizing_sources)
        assert layout is not None
    else:
        sizing = plan.size(specs, mode)
        request = OtaLayoutRequest(
            technology=technology,
            sizes=sizing.sizes,
            currents=sizing.currents,
            aspect=aspect,
        )
        layout = generate_ota_layout(request, mode="generate")
        layout_calls = 0
        sizing_sources = ("computed",)

    synthesized = sizing.predicted
    assert synthesized is not None
    extracted = extract_and_measure(plan, sizing, specs, layout, technology)

    return CaseResult(
        mode=mode,
        sizing=sizing,
        synthesized=synthesized,
        extracted=extracted,
        layout=layout,
        layout_calls=layout_calls,
        elapsed=time.perf_counter() - start,
        sizing_sources=sizing_sources,
    )
