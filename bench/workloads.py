"""The three benchmark workloads.

Each workload builds its untimed fixtures in ``__init__`` (part of
``setup_s``) and then serves an endless, seeded stream of operations:
``op(i)`` runs operation ``i``, checks its outputs and returns a
fingerprint of them.  A failed check raises :class:`CheckFailed`.  The
program sees only the specs and sizings generated here from the seed.
The op stream repeats a pattern of ``CYCLE`` ops (session steps, bases
and aspect ratios, designs), and a timed pass runs whole cycles, so
every pass has the same mix of cheap and costly ops.

Presets and spec ranges are chosen so that no operation raises and
every design passes its checks on the program's default configuration,
and so that a run's timings do not hinge on a few rare specs: on the
0.6 and 0.8 um presets one folded-cascode spec in 10-40 stops at
``max_layout_calls`` without a fixed point, and such a synthesis takes
about twice as long, so a run's timings would hinge on how many it
drew.  On 0.35 um it happens to one or two syntheses in a hundred, so
the synthesis workload runs there.  A synthesis that stops without a
fixed point still returns a design that meets its specs: it is counted
(``core.synthesis.unconverged``), not failed.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from typing import Dict, Tuple

from repro.analysis import montecarlo
from repro.core import cases
from repro.core.synthesis import LayoutOrientedSynthesizer
from repro.layout import extraction, gds, ota
from repro.layout.drc import DrcChecker
from repro.sizing.plans.folded_cascode import FoldedCascodePlan
from repro.sizing.specs import OtaSpecs, ParasiticMode
from repro.sizing.verification import VerificationInterface
from repro.technology.corners import CORNERS
from repro.technology.presets import generic_035, generic_060, generic_080
from repro.units import PF


class CheckFailed(Exception):
    """An operation completed but its output failed a check."""


def _digest(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def folded_cascode_specs(technology, gbw_mhz, pm, cload_pf) -> OtaSpecs:
    """Table-1 style specs, voltage ranges scaled with the supply."""
    scale = technology.supply_nominal / 3.3
    return OtaSpecs(
        vdd=technology.supply_nominal, gbw=gbw_mhz * 1e6, phase_margin=pm,
        cload=cload_pf * PF,
        input_cm_range=(0.55 * scale, 1.84 * scale),
        output_range=(0.51 * scale, 2.31 * scale),
    )


def _radical_inverse(index: int, base: int) -> float:
    """``index`` mirrored about the radix point in ``base``: one
    coordinate of the Halton sequence."""
    value, unit = 0.0, 1.0
    while index:
        index, digit = divmod(index, base)
        unit /= base
        value += digit * unit
    return value


class SpecDraws:
    """Spec points (GBW in MHz, phase margin, load in pF) spread evenly
    over ``ranges``.

    Point ``k`` is the ``k``-th point of the Halton sequence in bases 2,
    3 and 5, shifted by a seeded offset modulo 1.  Every stretch of
    consecutive points then covers the ranges about as evenly as the
    whole sequence.  An op's cost depends on its spec, so independent
    uniform draws would let a run's mean cost depend on the seed.
    """

    BASES = (2, 3, 5)

    def __init__(self, rng: random.Random, ranges):
        self.offsets = [rng.random() for _ in self.BASES]
        self.ranges = [ranges[key] for key in ("gbw", "pm", "cload")]
        self.count = 0

    def next(self) -> Tuple[float, float, float]:
        self.count += 1
        return tuple(
            low + (high - low)
            * ((_radical_inverse(self.count, base) + offset) % 1.0)
            for (low, high), base, offset
            in zip(self.ranges, self.BASES, self.offsets)
        )


def design_and_verify(plan, synthesizer, specs) -> str:
    """Case-4 synthesis with layout generation, then extraction and
    simulation of the drawn layout; returns the design fingerprint.

    Checks the case-4 signature: the synthesized GBW is within 3% of
    spec with the phase margin no more than 1 degree short, and the
    extracted GBW/PM agree with the synthesized ones within 5% / 2.5
    degrees.  Whether the loop reached a fixed point is part of the
    fingerprint.
    """
    outcome = synthesizer.run(specs, ParasiticMode.FULL, generate=True)
    extracted = cases.extract_and_measure(
        plan, outcome.sizing, specs, outcome.layout, synthesizer.technology
    )
    synthesized = outcome.sizing.predicted
    if abs(synthesized.gbw / specs.gbw - 1.0) > 0.03:
        raise CheckFailed(f"synthesized GBW {synthesized.gbw:.4g} Hz")
    if synthesized.phase_margin_deg < specs.phase_margin - 1.0:
        raise CheckFailed(
            f"synthesized PM {synthesized.phase_margin_deg:.2f} deg"
        )
    if abs(extracted.gbw / synthesized.gbw - 1.0) > 0.05:
        raise CheckFailed(f"extracted GBW {extracted.gbw:.4g} Hz")
    if abs(extracted.phase_margin_deg - synthesized.phase_margin_deg) > 2.5:
        raise CheckFailed(f"extracted PM {extracted.phase_margin_deg:.2f} deg")
    return _digest(
        outcome.fingerprint(), extracted.gbw, extracted.phase_margin_deg,
        extracted.dc_gain_db,
    )


class Respin:
    """Designer sessions on 0.35 um folded cascodes, in one warm process.

    Each session starts from a new seeded spec (from :class:`SpecDraws`
    over :data:`STARTS`), nudges one of GBW, phase margin or load by
    0.5-2%, then undoes the nudge: the third step returns to the start.
    One synthesizer serves every session and the process stays warm, so
    the layout and sizing-round memos carry over from step to step.  A
    revisit must reproduce the first visit's fingerprint exactly.

    A run holds many short sessions rather than a few long ones because
    how many layout calls a synthesis takes (2 to 6, and an op's cost
    grows with them) depends on where its session started: a nudge is
    likelier to take an extra call when its start did, so a run of a few
    long sessions spread by what those few starts drew.  Starts with a
    phase margin above 66 degrees often converge in two calls and those
    below 63 more often take four, so the starts stay between.
    """

    SESSION_STEPS = CYCLE = 3
    #: (low, high) ranges of the session starts: GBW in MHz, phase margin
    #: in degrees, load in pF.
    STARTS = {"gbw": (52.0, 64.0), "pm": (63.0, 66.0), "cload": (2.4, 2.9)}

    def __init__(self, seed: int):
        self.rng = random.Random(f"respin:{seed}")
        self.starts = SpecDraws(self.rng, self.STARTS)
        self.technology = generic_035()
        self.plan = FoldedCascodePlan(self.technology)
        self.synthesizer = LayoutOrientedSynthesizer(
            self.technology, plan=self.plan
        )
        self.start: Tuple[float, float, float] = ()
        self.fingerprints: Dict[Tuple[float, float, float], str] = {}

    def _step(self, index: int) -> Tuple[float, float, float]:
        step = index % self.SESSION_STEPS
        if step == 0:
            self.start = self.starts.next()
        if step != 1:
            return self.start
        values = list(self.start)
        field = self.rng.randrange(3)
        change = self.rng.uniform(0.005, 0.02) * self.rng.choice((-1, 1))
        values[field] *= 1.0 + change
        return tuple(values)

    def op(self, index: int) -> str:
        point = self._step(index)
        specs = folded_cascode_specs(self.technology, *point)
        fingerprint = design_and_verify(self.plan, self.synthesizer, specs)
        first = self.fingerprints.setdefault(point, fingerprint)
        if first != fingerprint:
            raise CheckFailed(f"revisit of {point} changed the design")
        return fingerprint


class LayoutSignoff:
    """Layout generation, extraction, DRC and GDS with no sizing.

    Setup sizes :data:`BASES` seeded 0.6 um folded cascodes (specs from
    :class:`SpecDraws`); op ``i`` jitters every device width of base
    ``i mod BASES`` by up to +/-30%, takes the aspect ratio from
    {0.5, 1, 2} in turn (every base meets every aspect ratio equally
    often), generates the layout, extracts it, checks it against the
    design rules and streams it out as GDSII.  Layout cost depends on the base (device widths set the
    fold counts), so several bases keep one draw from setting a run's
    timing.  The base specs stay below 55 MHz and 2.5 pF: wider devices
    sometimes leave the router no room for the ``vc1`` stub (a
    routing-congestion LayoutError).
    """

    ASPECTS = (0.5, 1.0, 2.0)
    BASES = 8
    CYCLE = BASES * len(ASPECTS)
    RANGES = {"gbw": (45.0, 55.0), "pm": (60.0, 68.0), "cload": (2.0, 2.5)}

    def __init__(self, seed: int, scratch_dir: str):
        self.rng = random.Random(f"layout_signoff:{seed}")
        self.technology = generic_060()
        self.checker = DrcChecker(self.technology)
        plan = FoldedCascodePlan(self.technology)
        draws = SpecDraws(self.rng, self.RANGES)
        self.bases = [
            plan.size(
                folded_cascode_specs(self.technology, *draws.next()),
                ParasiticMode.SINGLE_FOLD,
            )
            for _ in range(self.BASES)
        ]
        self.gds_path = os.path.join(scratch_dir, "signoff.gds")

    def op(self, index: int) -> str:
        base = self.bases[index % self.BASES]
        sizes = {
            device: (width * self.rng.uniform(0.7, 1.3), length)
            for device, (width, length) in sorted(base.sizes.items())
        }
        request = ota.OtaLayoutRequest(
            technology=self.technology, sizes=sizes,
            currents=base.currents,
            aspect=self.ASPECTS[(index // self.BASES) % len(self.ASPECTS)],
        )
        layout = ota.generate_ota_layout(request, mode="generate")
        extracted = extraction.extract_cell(layout.cell, self.technology)
        violations = self.checker.check(layout.cell)
        gds.write_gds(layout.cell, self.gds_path)
        with open(self.gds_path, "rb") as handle:
            stream = handle.read()
        if violations:
            raise CheckFailed(f"{len(violations)} DRC violations: "
                              f"{violations[0]}")
        if not extracted.net_wire_cap or not extracted.diffusion:
            raise CheckFailed("empty extraction")
        if not stream:
            raise CheckFailed("empty GDS stream")
        return _digest(
            sorted(layout.fold_config.items()), layout.report.area,
            sorted(extracted.net_wire_cap.items()),
            hashlib.sha256(stream).hexdigest(),
        )


class YieldMc:
    """Statistical verification of sized designs.

    Setup sizes five seeded folded cascodes per technology preset
    (specs from one :class:`SpecDraws` per preset).
    Each op builds one design's testbench, runs a 1000-sample mismatch
    Monte-Carlo (its own sample seed per op) and verifies the five
    process corners as one stacked ensemble.  The designs use ideal
    fixed bias voltages, so some corners fail verification (the sf
    corner usually has no unity-gain crossing at all); the check asks
    for five reports, a passing typical corner, and a reason for every
    corner that could not be measured.

    The specs stay near the paper's Table-1 point: below 60 MHz the
    0.6 um Monte-Carlo takes up to three times longer per sample, and a
    seed that drew one such design would move the workload's timings by
    itself.
    """

    RUNS = 1000
    PER_PRESET = 5
    CYCLE = 3 * PER_PRESET
    RANGES = {"gbw": (62.0, 72.0), "pm": (63.0, 67.0), "cload": (2.7, 3.3)}

    def __init__(self, seed: int):
        self.rng = random.Random(f"yield_mc:{seed}")
        self.verifier = VerificationInterface()
        self.designs = []
        technologies = (generic_035(), generic_060(), generic_080())
        draws = [SpecDraws(self.rng, self.RANGES) for _ in technologies]
        for technology, spec_draws in (list(zip(technologies, draws))
                                       * self.PER_PRESET):
            specs = folded_cascode_specs(technology, *spec_draws.next())
            plan = FoldedCascodePlan(technology)
            sizing = plan.size(specs, ParasiticMode.SINGLE_FOLD)
            self.designs.append((plan, sizing, specs))

    def op(self, index: int) -> str:
        plan, sizing, specs = self.designs[index % self.CYCLE]
        bench = plan.build_testbench(sizing, specs, ParasiticMode.SINGLE_FOLD)
        statistics = montecarlo.run_monte_carlo(
            bench, runs=self.RUNS, seed=self.rng.randrange(2**31)
        )
        corners = self.verifier.verify_corners(plan, sizing, specs)
        sigma = statistics.std("offset_voltage")
        if statistics.n_failed:
            raise CheckFailed(f"{statistics.n_failed} samples failed")
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise CheckFailed(f"offset sigma {sigma!r}")
        if sorted(corners) != sorted(CORNERS):
            raise CheckFailed(f"corner reports {sorted(corners)}")
        if not corners["tt"].passed:
            raise CheckFailed(f"typical corner fails: {corners['tt']}")
        if any(r.metrics is None and not r.failure_reason
               for r in corners.values()):
            raise CheckFailed("a corner failed without a reason")
        return _digest(
            statistics.mean("offset_voltage"), sigma,
            [(name, r.passed, r.metrics and r.metrics.gbw)
             for name, r in sorted(corners.items())],
        )


def create(name: str, seed: int, scratch_dir: str):
    """The named workload's fixtures for ``seed``."""
    if name == "respin":
        return Respin(seed)
    if name == "layout_signoff":
        return LayoutSignoff(seed, scratch_dir)
    if name == "yield_mc":
        return YieldMc(seed)
    raise ValueError(f"unknown workload {name!r}")
