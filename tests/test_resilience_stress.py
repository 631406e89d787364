"""Randomized fault-injection stress for the synthesis runtime.

A Table-1 case-4 synthesis is run under faults whose sites and firing
schedules are drawn from a seeded RNG.  The contract under test is the
resilience guarantee, not any particular number: every run must
*terminate* with either a valid :class:`SynthesisOutcome` or a typed
:class:`ReproError` — never a hang, a bare ``AssertionError``, or an
exception from outside the library's hierarchy.
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro.core.synthesis import LayoutOrientedSynthesizer, SynthesisOutcome
from repro.errors import LayoutError, ReproError, SizingError
from repro.resilience import faults
from repro.sizing.specs import ParasiticMode

pytestmark = pytest.mark.faults

#: Site pool: each entry draws its firing schedule from the seeded RNG.
_SITE_POOL = [
    ("solve.linear",
     lambda rng: dict(at=rng.randint(1, 40), times=rng.randint(1, 3))),
    ("model.eval",
     lambda rng: dict(action="nan", at=rng.randint(1, 20), times=1)),
    ("synthesis.layout",
     lambda rng: dict(index=rng.randint(1, 3),
                      error=LayoutError("injected layout failure"))),
    ("synthesis.sizing",
     lambda rng: dict(index=rng.randint(2, 3),
                      error=SizingError("injected sizing failure"))),
]


def _scenarios(seed: int = 20260805, count: int = 5):
    rng = random.Random(seed)
    drawn = []
    for _ in range(count):
        site, draw = rng.choice(_SITE_POOL)
        drawn.append((site, draw(rng)))
    return drawn


_SCENARIOS = _scenarios()


@pytest.mark.parametrize(
    "site,kwargs",
    _SCENARIOS,
    ids=[f"{i}-{site}" for i, (site, _) in enumerate(_SCENARIOS)],
)
def test_case4_synthesis_survives_injected_faults(tech, specs, site, kwargs):
    synthesizer = LayoutOrientedSynthesizer(tech, max_layout_calls=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with faults.inject(site, **kwargs):
            try:
                outcome = synthesizer.run(
                    specs, ParasiticMode.FULL, generate=False
                )
            except ReproError as error:
                # Typed, diagnosable failure is an acceptable terminal state.
                assert str(error)
                return
    assert isinstance(outcome, SynthesisOutcome)
    assert outcome.sizing is not None
    assert outcome.feedback is not None
    assert outcome.layout_calls >= 1
