"""The seeded sizing chain of the layout-oriented loop.

Every synthesis round after the first re-sizes from the knobs the
previous round accepted (``plan.size(..., start=previous.knobs)``).  The
invariants pinned here:

* idempotence: re-sizing from a ``met`` sizing's own knobs under the same
  feedback reproduces its sizes in exactly one iteration, for both plans
  on all three presets;
* determinism: the seeded chain gives the same
  :meth:`SynthesisOutcome.fingerprint` computed with the memo on, served
  from it, computed with it off, and after a run killed at its second
  round boundary is resumed from its journal.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.synthesis import LayoutOrientedSynthesizer
from repro.layout import incremental
from repro.resilience import faults
from repro.resilience.faults import SimulatedKill
from repro.resilience.journal import RunJournal
from repro.sizing.specs import OtaSpecs, ParasiticMode
from repro.units import PF
from tests.conftest import DESIGN_KEYS


@pytest.mark.parametrize("key", DESIGN_KEYS, ids="-".join)
def test_resize_from_own_knobs_is_idempotent(sized_designs, key):
    plan, sizing, specs = sized_designs[key]
    assert sizing.status == "met"
    again = plan.size(specs, ParasiticMode.SINGLE_FOLD, start=sizing.knobs)
    assert again.sizes == sizing.sizes
    assert again.iterations == 1
    assert again.status == "met"


def test_final_round_resize_is_idempotent(synthesis_outcome, plan, specs):
    """The converged case-4 sizing, re-sized from its own knobs under the
    feedback its round was sized with, is a fixed point of the plan."""
    records = synthesis_outcome.records
    assert len(records) >= 2
    final = records[-1].sizing
    assert final.status == "met"
    again = plan.size(
        specs, ParasiticMode.FULL, records[-2].report, start=final.knobs
    )
    assert again.sizes == final.sizes
    assert again.iterations == 1


def _radical_inverse(index: int, base: int) -> float:
    value, unit = 0.0, 1.0
    while index:
        index, digit = divmod(index, base)
        unit /= base
        value += digit * unit
    return value


#: (low, high) per Halton coordinate: GBW in Hz, phase margin in
#: degrees, load in F.
_RANGES = ((52e6, 64e6), (63.0, 66.0), (2.4 * PF, 2.9 * PF))


def _halton_specs(technology, index: int) -> OtaSpecs:
    """Point ``index`` of the Halton sequence in bases 2, 3 and 5 over
    :data:`_RANGES`, with Table-1 voltage ranges scaled to the supply."""
    gbw, pm, cload = (
        low + (high - low) * _radical_inverse(index, base)
        for (low, high), base in zip(_RANGES, (2, 3, 5))
    )
    scale = technology.supply_nominal / 3.3
    return OtaSpecs(
        vdd=technology.supply_nominal, gbw=gbw, phase_margin=pm,
        cload=cload, input_cm_range=(0.55 * scale, 1.84 * scale),
        output_range=(0.51 * scale, 2.31 * scale),
    )


@pytest.mark.faults
@settings(max_examples=5, deadline=None, derandomize=True)
@given(index=st.integers(min_value=1, max_value=255))
def test_chain_is_deterministic(tech_035, tmp_path_factory, index):
    specs = _halton_specs(tech_035, index)

    def run(journal=None):
        return LayoutOrientedSynthesizer(tech_035).run(
            specs, ParasiticMode.FULL, generate=False, journal=journal
        )

    memo_on = run()
    assert memo_on.layout_calls >= 2
    served = run()
    assert set(served.sizing_sources) == {"memo"}
    with incremental.using(False):
        memo_off = run()
        run_dir = str(tmp_path_factory.mktemp("chain"))
        journal = RunJournal.create(run_dir, "synthesize")
        with pytest.raises(SimulatedKill):
            with faults.inject("process.kill", at=2):
                run(journal)
        journal.close()
        resumed_journal = RunJournal.resume(run_dir, kind="synthesize")
        assert resumed_journal.resumed_unit_count == 2
        resumed = run(resumed_journal)
        resumed_journal.close()
    assert resumed.sizing_sources[:2] == ["journal", "journal"]
    assert served.fingerprint() == memo_on.fingerprint()
    assert memo_off.fingerprint() == memo_on.fingerprint()
    assert resumed.fingerprint() == memo_on.fingerprint()
