"""Shared fixtures.

Expensive artefacts (sized OTAs, generated layouts, synthesis outcomes)
are session-scoped so the suite exercises the full pipeline exactly once
and every test reads from the cached results.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import strategies as st

from repro.core.cases import run_case
from repro.core.synthesis import LayoutOrientedSynthesizer
from repro.layout.extraction import extract_cell
from repro.mos import make_model
from repro.sizing.plans.folded_cascode import FoldedCascodePlan
from repro.sizing.plans.two_stage import TwoStagePlan
from repro.sizing.specs import OtaSpecs, ParasiticMode
from repro.technology import generic_035, generic_060, generic_080
from repro.units import PF
from tests import designs


@pytest.fixture(scope="session")
def tech():
    """The paper's 0.6 um technology."""
    return generic_060()


@pytest.fixture(scope="session")
def tech_035():
    return generic_035()


@pytest.fixture(scope="session")
def tech_080():
    return generic_080()


@pytest.fixture(scope="session")
def specs():
    """The paper's Table-1 input specifications."""
    return designs.table1_specs()


@pytest.fixture(scope="session")
def nmos_model(tech):
    return make_model(tech.nmos, level=1)


@pytest.fixture(scope="session")
def pmos_model(tech):
    return make_model(tech.pmos, level=1)


@pytest.fixture(scope="session")
def hand_sized(tech):
    """(sizes, currents) for a plausible hand-designed OTA."""
    return designs.hand_sizes(tech)


@pytest.fixture(scope="session")
def hand_testbench(tech):
    """A measurable hand-designed folded-cascode testbench."""
    return designs.hand_testbench(tech)


@pytest.fixture(scope="session")
def ota_layout(tech):
    """A generated OTA layout (generate mode) for the hand-sized design."""
    return designs.hand_ota_layout(tech)


@pytest.fixture(scope="session")
def ota_extraction(tech, ota_layout):
    """Geometric extraction of the generated OTA layout."""
    return extract_cell(ota_layout.cell, tech)


@pytest.fixture(scope="session")
def plan(tech):
    return FoldedCascodePlan(tech)


@pytest.fixture(scope="session")
def sized_case1(plan, specs):
    """Case-1 sizing result (no layout capacitances)."""
    return plan.size(specs, ParasiticMode.NONE)


@pytest.fixture(scope="session")
def sized_case2(plan, specs):
    """Case-2 sizing result (single-fold diffusion assumption)."""
    return plan.size(specs, ParasiticMode.SINGLE_FOLD)


@pytest.fixture(scope="session")
def synthesis_outcome(tech, specs, plan):
    """Full layout-oriented synthesis (case 4) with generated layout."""
    synthesizer = LayoutOrientedSynthesizer(tech, plan=plan)
    return synthesizer.run(specs, mode=ParasiticMode.FULL, generate=True)


@pytest.fixture(scope="session")
def case4_result(tech, specs):
    """Complete case-4 run including extraction."""
    return run_case(tech, specs, ParasiticMode.FULL)


# -- Sized designs for property tests -----------------------------------------

PRESETS = {
    "0.35": generic_035,
    "0.6": generic_060,
    "0.8": generic_080,
}


def _design_specs(technology, topology: str) -> OtaSpecs:
    """Table-1 style specs per topology, voltage ranges scaled with the
    preset's supply."""
    scale = technology.supply_nominal / 3.3
    if topology == "folded_cascode":
        return OtaSpecs(
            vdd=technology.supply_nominal, gbw=65e6, phase_margin=65.0,
            cload=3 * PF, input_cm_range=(0.55 * scale, 1.84 * scale),
            output_range=(0.51 * scale, 2.31 * scale),
        )
    return OtaSpecs(
        vdd=technology.supply_nominal, gbw=30e6, phase_margin=60.0,
        cload=2 * PF, input_cm_range=(1.0 * scale, 2.0 * scale),
        output_range=(0.4 * scale, 2.9 * scale),
    )


@pytest.fixture(scope="session")
def sized_designs():
    """(plan, sizing, specs) per (preset, topology), sized once."""
    designs = {}
    for preset, make in PRESETS.items():
        technology = make()
        for plan_class in (FoldedCascodePlan, TwoStagePlan):
            plan = plan_class(technology)
            specs = _design_specs(technology, plan.topology)
            sizing = plan.size(specs, ParasiticMode.SINGLE_FOLD)
            designs[preset, plan.topology] = (plan, sizing, specs)
    return designs


#: Keys of :func:`sized_designs`, for ``st.sampled_from``.
DESIGN_KEYS = [
    (preset, topology)
    for preset in PRESETS
    for topology in ("folded_cascode", "two_stage")
]

#: One width factor per device (the folded cascode has 11), +-30 %.
JITTER = st.lists(st.floats(0.7, 1.3), min_size=11, max_size=11)


def jittered_bench(designs, key, factors):
    """The sized design's testbench with every width scaled by a factor."""
    plan, sizing, specs = designs[key]
    jittered = copy.deepcopy(sizing)
    jittered.sizes = {
        device: (width * factor, length)
        for (device, (width, length)), factor in zip(
            sorted(sizing.sizes.items()), factors
        )
    }
    return plan.build_testbench(jittered, specs, ParasiticMode.SINGLE_FOLD)
