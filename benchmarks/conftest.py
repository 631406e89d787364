"""Benchmark fixtures.

The expensive experiment artefacts (the four Table-1 case runs, the
synthesis outcome) are computed once per session and shared by all
benches; the ``benchmark`` fixture then times the representative kernel of
each experiment.  Regenerated tables/figures are written to
``benchmarks/results/``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core.cases import run_case
from repro.core.synthesis import LayoutOrientedSynthesizer
from repro.layout import incremental
from repro.sizing.plans.folded_cascode import FoldedCascodePlan
from repro.sizing.specs import ParasiticMode
from repro.technology import generic_060
from tests.designs import table1_specs

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def tech():
    return generic_060()


@pytest.fixture(scope="session")
def specs():
    """The paper's Table-1 input specification block."""
    return table1_specs()


@pytest.fixture(scope="session")
def all_cases(tech, specs):
    """All four Table-1 cases, keyed by ParasiticMode.

    Each case starts from an empty process memo, as in a fresh
    ``python -m repro table1``: other fixtures may already have sized
    the same design, and a memo-served round would report a sizing
    time of ~0 s in Table 1.
    """
    cases = {}
    for mode in ParasiticMode:
        incremental.clear()
        cases[mode] = run_case(tech, specs, mode)
    return cases


@pytest.fixture(scope="session")
def synthesis_outcome(tech, specs):
    synthesizer = LayoutOrientedSynthesizer(tech)
    return synthesizer.run(specs, mode=ParasiticMode.FULL, generate=True)


@pytest.fixture(scope="session")
def plan(tech):
    return FoldedCascodePlan(tech)
