"""Golden-equivalence tests: compiled-stamp engine vs legacy engine.

The compiled engine must be a pure performance change — every analysis
result has to match the legacy per-element reference to tight floating
point tolerance (rtol=1e-9) on both bundled OTA topologies (the
folded-cascode benchmark circuit and the Miller two-stage).  The
Monte-Carlo test additionally pins the workers=1 vs workers=4 process
pool to bit-identical samples: all mismatch draws happen before any work
is scheduled, so the partitioning cannot change the statistics.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.ac import ac_sweep
from repro.analysis.dcop import solve_dc
from repro.analysis.engine import COMPILED, LEGACY, analysis_engine
from repro.analysis.metrics import measure_ota
from repro.analysis.montecarlo import run_monte_carlo
from repro.analysis.noise import NoiseAnalysis
from repro.perf import default_testbench, two_stage_testbench

RTOL = 1e-9
ATOL = 1e-9

TESTBENCHES = {
    "folded_cascode": default_testbench,
    "two_stage": two_stage_testbench,
}


@pytest.fixture(scope="module", params=sorted(TESTBENCHES))
def tb(request):
    return TESTBENCHES[request.param]()


@pytest.fixture(scope="module")
def feedback(tb):
    circuit = tb.circuit.clone("golden_fb")
    circuit.remove(tb.source_neg)
    circuit.add_vsource("_fb", tb.input_neg_net, tb.output_net, dc=0.0)
    return circuit


@pytest.fixture(scope="module")
def dc_pair(feedback):
    with analysis_engine.use(LEGACY):
        legacy = solve_dc(feedback)
    with analysis_engine.use(COMPILED):
        compiled = solve_dc(feedback)
    return legacy, compiled


def _op_numbers(op):
    return {
        f.name: getattr(op, f.name)
        for f in dataclasses.fields(op)
        if isinstance(getattr(op, f.name), float)
    }


def test_dc_voltages_match(dc_pair):
    legacy, compiled = dc_pair
    assert set(legacy.voltages) == set(compiled.voltages)
    for net, value in legacy.voltages.items():
        assert compiled.voltages[net] == pytest.approx(
            value, rel=RTOL, abs=ATOL
        ), net


def test_dc_device_operating_points_match(dc_pair):
    legacy, compiled = dc_pair
    assert set(legacy.devices) == set(compiled.devices)
    for name, ref in legacy.devices.items():
        got = compiled.devices[name]
        assert got.swapped == ref.swapped
        assert got.op.region == ref.op.region
        assert got.terminal_current == pytest.approx(
            ref.terminal_current, rel=RTOL, abs=1e-15
        )
        for field, value in _op_numbers(ref.op).items():
            assert getattr(got.op, field) == pytest.approx(
                value, rel=RTOL, abs=1e-15
            ), f"{name}.{field}"


def test_dc_source_currents_match(dc_pair):
    legacy, compiled = dc_pair
    assert set(legacy.source_currents) == set(compiled.source_currents)
    for name, value in legacy.source_currents.items():
        assert compiled.source_currents[name] == pytest.approx(
            value, rel=RTOL, abs=1e-15
        ), name


def test_ac_sweep_matches(tb, feedback, dc_pair):
    legacy_dc, _ = dc_pair
    frequencies = np.logspace(0.0, 9.0, 120)
    drive = {tb.source_pos: 0.5, "_fb": 0.0}
    with analysis_engine.use(LEGACY):
        legacy = ac_sweep(feedback, legacy_dc, frequencies, drive)
    with analysis_engine.use(COMPILED):
        compiled = ac_sweep(feedback, legacy_dc, frequencies, drive)
    np.testing.assert_allclose(
        compiled.solutions, legacy.solutions, rtol=RTOL, atol=ATOL
    )


def test_noise_matches(tb, feedback, dc_pair):
    legacy_dc, _ = dc_pair
    frequencies = np.logspace(0.0, 9.0, 60)
    drive = {tb.source_pos: 1.0, "_fb": 0.0}
    with analysis_engine.use(LEGACY):
        legacy = NoiseAnalysis(
            feedback, legacy_dc, tb.output_net, input_overrides=drive
        ).run(frequencies)
    with analysis_engine.use(COMPILED):
        compiled = NoiseAnalysis(
            feedback, legacy_dc, tb.output_net, input_overrides=drive
        ).run(frequencies)
    np.testing.assert_allclose(
        compiled.output_psd, legacy.output_psd, rtol=RTOL, atol=0.0
    )
    np.testing.assert_allclose(
        compiled.input_psd, legacy.input_psd, rtol=RTOL, atol=0.0
    )
    assert set(compiled.contributions) == set(legacy.contributions)
    for name, ref in legacy.contributions.items():
        np.testing.assert_allclose(
            compiled.contributions[name], ref, rtol=RTOL, atol=0.0
        )


def test_full_metrics_match(tb):
    """End to end: the entire Table-1 measurement suite agrees."""
    with analysis_engine.use(LEGACY):
        legacy = measure_ota(tb)
    with analysis_engine.use(COMPILED):
        compiled = measure_ota(tb)
    for field in dataclasses.fields(legacy):
        ref = getattr(legacy, field.name)
        if not isinstance(ref, float):
            continue
        assert getattr(compiled, field.name) == pytest.approx(
            ref, rel=1e-6, abs=1e-12
        ), field.name


def test_monte_carlo_workers_deterministic():
    """The process pool must not change any sampled statistic."""
    tb = default_testbench()
    with analysis_engine.use(COMPILED):
        serial = run_monte_carlo(tb, runs=12, seed=77, workers=1)
        pooled = run_monte_carlo(tb, runs=12, seed=77, workers=4)
    assert set(serial.samples) == set(pooled.samples)
    for key, values in serial.samples.items():
        assert pooled.samples[key] == values, key


def test_monte_carlo_seed_reproducible():
    tb = default_testbench()
    with analysis_engine.use(COMPILED):
        first = run_monte_carlo(tb, runs=8, seed=5)
        second = run_monte_carlo(tb, runs=8, seed=5)
    assert first.samples == second.samples
