"""Equivalence tests: the compiled-stamp engine vs the per-element oracle.

Every analysis result has to match the dense per-element reference in
:mod:`tests.oracles.analysis` to tight floating point tolerance
(rtol=1e-9) — on both bundled OTA topologies (the folded-cascode
benchmark circuit and the Miller two-stage), and on sized designs of
both topologies with every width jittered by up to 30 % on the 0.35, 0.6
and 0.8 um presets.  The Monte-Carlo tests additionally pin the
workers=1 vs workers=4 process pool to bit-identical samples: all
mismatch draws happen before any work is scheduled, so the partitioning
cannot change the statistics.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.ac import ac_sweep
from repro.analysis.dcop import solve_dc
from repro.analysis.metrics import measure_ota
from repro.analysis.montecarlo import run_monte_carlo
from repro.analysis.noise import NoiseAnalysis
from tests.conftest import DESIGN_KEYS, JITTER, jittered_bench
from tests.designs import hand_testbench, two_stage_testbench
from tests.oracles import analysis as oracle

RTOL = 1e-9
ATOL = 1e-9

TESTBENCHES = {
    "folded_cascode": hand_testbench,
    "two_stage": two_stage_testbench,
}


def _feedback(tb, name="golden_fb"):
    circuit = tb.circuit.clone(name)
    circuit.remove(tb.source_neg)
    circuit.add_vsource("_fb", tb.input_neg_net, tb.output_net, dc=0.0)
    return circuit


@pytest.fixture(scope="module", params=sorted(TESTBENCHES))
def tb(request):
    return TESTBENCHES[request.param]()


@pytest.fixture(scope="module")
def feedback(tb):
    return _feedback(tb)


@pytest.fixture(scope="module")
def dc_pair(feedback):
    return oracle.solve_dc(feedback), solve_dc(feedback)


def _op_numbers(op):
    return {
        f.name: getattr(op, f.name)
        for f in dataclasses.fields(op)
        if isinstance(getattr(op, f.name), float)
    }


def _assert_voltages_match(reference, compiled):
    assert set(reference.voltages) == set(compiled.voltages)
    for net, value in reference.voltages.items():
        assert compiled.voltages[net] == pytest.approx(
            value, rel=RTOL, abs=ATOL
        ), net


def _assert_devices_match(reference, compiled):
    assert set(reference.devices) == set(compiled.devices)
    for name, ref in reference.devices.items():
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


def _assert_source_currents_match(reference, compiled):
    assert set(reference.source_currents) == set(compiled.source_currents)
    for name, value in reference.source_currents.items():
        assert compiled.source_currents[name] == pytest.approx(
            value, rel=RTOL, abs=1e-15
        ), name


def _assert_ac_match(circuit, dc, frequencies, drive):
    np.testing.assert_allclose(
        ac_sweep(circuit, dc, frequencies, drive).solutions,
        oracle.ac_sweep(circuit, dc, frequencies, drive).solutions,
        rtol=RTOL,
        atol=ATOL,
    )


def _assert_noise_match(circuit, dc, output_net, frequencies, drive):
    reference = oracle.noise(circuit, dc, output_net, frequencies, drive)
    compiled = NoiseAnalysis(
        circuit, dc, output_net, input_overrides=drive
    ).run(frequencies)
    np.testing.assert_allclose(
        compiled.output_psd, reference.output_psd, rtol=RTOL, atol=0.0
    )
    np.testing.assert_allclose(
        compiled.input_psd, reference.input_psd, rtol=RTOL, atol=0.0
    )
    assert set(compiled.contributions) == set(reference.contributions)
    for name, ref in reference.contributions.items():
        np.testing.assert_allclose(
            compiled.contributions[name], ref, rtol=RTOL, atol=0.0
        )


def test_dc_voltages_match(dc_pair):
    _assert_voltages_match(*dc_pair)


def test_dc_device_operating_points_match(dc_pair):
    _assert_devices_match(*dc_pair)


def test_dc_source_currents_match(dc_pair):
    _assert_source_currents_match(*dc_pair)


def test_ac_sweep_matches(tb, feedback, dc_pair):
    reference_dc, _ = dc_pair
    _assert_ac_match(
        feedback,
        reference_dc,
        np.logspace(0.0, 9.0, 120),
        {tb.source_pos: 0.5, "_fb": 0.0},
    )


def test_noise_matches(tb, feedback, dc_pair):
    reference_dc, _ = dc_pair
    _assert_noise_match(
        feedback,
        reference_dc,
        tb.output_net,
        np.logspace(0.0, 9.0, 60),
        {tb.source_pos: 1.0, "_fb": 0.0},
    )


def test_full_metrics_match(tb):
    """End to end: the entire Table-1 measurement suite agrees with the
    oracle's separate sweeps, impedance probe and noise run."""
    reference = oracle.measure_ota(tb)
    compiled = measure_ota(tb)
    for field in dataclasses.fields(reference):
        ref = getattr(reference, field.name)
        if not isinstance(ref, float):
            continue
        assert getattr(compiled, field.name) == pytest.approx(
            ref, rel=1e-6, abs=1e-12
        ), field.name


@settings(max_examples=30, deadline=None, derandomize=True)
@given(key=st.sampled_from(DESIGN_KEYS), factors=JITTER)
def test_jittered_designs_match_oracle(sized_designs, key, factors):
    """DC, AC and noise agree with the oracle on generated designs, not
    just the two fixtures above."""
    bench = jittered_bench(sized_designs, key, factors)
    circuit = _feedback(bench, "jittered_fb")
    reference_dc = oracle.solve_dc(circuit)
    compiled_dc = solve_dc(circuit)
    _assert_voltages_match(reference_dc, compiled_dc)
    _assert_devices_match(reference_dc, compiled_dc)
    _assert_source_currents_match(reference_dc, compiled_dc)
    drive = {bench.source_pos: 0.5, "_fb": 0.0}
    _assert_ac_match(
        circuit, reference_dc, np.logspace(0.0, 9.0, 40), drive
    )
    _assert_noise_match(
        circuit,
        reference_dc,
        bench.output_net,
        np.logspace(0.0, 9.0, 20),
        drive,
    )


def test_monte_carlo_workers_deterministic():
    """The process pool must not change any sampled statistic."""
    tb = hand_testbench()
    serial = run_monte_carlo(tb, runs=12, seed=77, workers=1)
    pooled = run_monte_carlo(tb, runs=12, seed=77, workers=4)
    assert set(serial.samples) == set(pooled.samples)
    for key, values in serial.samples.items():
        assert pooled.samples[key] == values, key


def test_monte_carlo_seed_reproducible():
    tb = hand_testbench()
    first = run_monte_carlo(tb, runs=8, seed=5)
    second = run_monte_carlo(tb, runs=8, seed=5)
    assert first.samples == second.samples
