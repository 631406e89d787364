"""The stacked Newton kernels against their exact references.

``EnsembleProgram.residual_and_jacobian`` assembles into one contiguous
block through flat scatters, and ``MosModel.evaluate_batch`` skips the
formulas of regions no element is in.  Both are pure performance
transforms of the padded, tuple-indexed assembly and the all-branch
evaluation kept in :mod:`tests.oracles.analysis`, so every comparison
here is ``np.array_equal`` plus equal ``np.signbit`` (never ``allclose``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.ensemble import EnsembleProgram
from repro.analysis.stamps import StampProgram
from repro.circuit.netlist import Circuit
from repro.mos import make_model
from repro.technology import generic_035
from repro.technology.corners import corner_set
from repro.units import UM
from tests.designs import hand_testbench, two_stage_testbench
from tests.oracles import analysis as oracle

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)

#: Terminal nets of the synthetic circuits; "0" puts a terminal on ground.
NETS = ("0", "a", "b", "c")

TECH = generic_035()


def assert_bitwise(actual, expected) -> None:
    """Equal shape, dtype, values (NaN matching NaN) and sign bits.

    Sign bits are compared off NaN: IEEE-754 leaves the sign of a NaN
    produced by ``nan + nan`` unspecified (x86 keeps the first operand's),
    and numpy's flat ``np.add.at`` adds ``target + value`` where the
    tuple-indexed form adds ``value + target``.  Every finite value,
    signed zeros included, must match exactly.
    """
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected, equal_nan=True)
    if actual.dtype.kind == "f":
        number = ~np.isnan(expected)
        assert np.array_equal(
            np.signbit(actual[number]), np.signbit(expected[number])
        )


# -- Stacked assembly ---------------------------------------------------------


def _synthetic_circuit(devices, technology=TECH) -> Circuit:
    """MOS devices wired to arbitrary nets (ground included), one supply
    and a resistor from every other net to ground."""
    circuit = Circuit("kernel")
    circuit.add_vsource("vdd", "a", "0", dc=3.3)
    circuit.add_resistor("rb", "b", "0", 1e4)
    circuit.add_resistor("rc", "c", "0", 2e4)
    for k, (pmos, level, d, g, s, b, w, l) in enumerate(devices):
        circuit.add_mos(
            f"m{k}", d, g, s, b,
            params=technology.pmos if pmos else technology.nmos,
            w=w * UM, l=l * UM, model_level=level,
        )
    return circuit


def _devices(levels=(1, 3)):
    net = st.sampled_from(NETS)
    return st.lists(
        st.tuples(
            st.booleans(),
            st.sampled_from(levels),
            net, net, net, net,
            st.floats(1.0, 50.0),
            st.floats(0.35, 4.0),
        ),
        min_size=1,
        max_size=6,
    )


def _member_rows(data, members, n_mos, scale):
    return np.array(
        data.draw(
            st.lists(
                st.lists(
                    st.floats(-scale, scale), min_size=n_mos, max_size=n_mos
                ),
                min_size=members,
                max_size=members,
            )
        )
    ).reshape(members, n_mos)


def _voltages(data, members, size):
    """Iterates spanning every region and both conduction directions,
    with whole NaN rows and single NaN entries mixed in."""
    voltages = np.array(
        data.draw(
            st.lists(
                st.floats(-4.0, 4.0),
                min_size=members * size,
                max_size=members * size,
            )
        )
    ).reshape(members, size)
    for k in data.draw(st.sets(st.integers(0, members - 1), max_size=2)):
        if data.draw(st.booleans()):
            voltages[k] = np.nan
        else:
            voltages[k, data.draw(st.integers(0, size - 1))] = np.nan
    return voltages


def _live_rows(data, members):
    rows = data.draw(
        st.sets(st.integers(0, members - 1), min_size=1, max_size=members)
    )
    return np.array(sorted(rows), dtype=np.intp)


def _assert_assembly_matches(ensemble, voltages, idx, gmin, source_scale):
    residual, jacobian = ensemble.residual_and_jacobian(
        voltages, idx, gmin, source_scale
    )
    ref_residual, ref_jacobian = oracle.stacked_residual_and_jacobian(
        ensemble, voltages, idx, gmin, source_scale
    )
    assert jacobian.flags.c_contiguous
    assert_bitwise(residual, ref_residual)
    assert_bitwise(jacobian, ref_jacobian)


GMIN = st.sampled_from((0.0, 1e-12, 1e-3))
SOURCE_SCALE = st.sampled_from((1.0, 0.5, 0.0))


class TestStackedAssembly:
    @SETTINGS
    @given(devices=_devices(), data=st.data())
    def test_mismatch_members(self, devices, data):
        program = StampProgram(_synthetic_circuit(devices))
        members = data.draw(st.integers(1, 6))
        ensemble = EnsembleProgram.from_mismatch(
            program,
            _member_rows(data, members, program._n_mos, 0.05),
            _member_rows(data, members, program._n_mos, 0.05),
        )
        _assert_assembly_matches(
            ensemble,
            _voltages(data, members, program.size),
            _live_rows(data, members),
            data.draw(GMIN),
            data.draw(SOURCE_SCALE),
        )

    @SETTINGS
    @given(devices=_devices(levels=(1,)), data=st.data())
    def test_corner_variants(self, devices, data):
        """Stacked per-member model parameters (the corner path)."""
        ensemble = EnsembleProgram.from_variants(
            [
                _synthetic_circuit(devices, technology)
                for technology in corner_set(TECH).values()
            ]
        )
        members = ensemble.members
        _assert_assembly_matches(
            ensemble,
            _voltages(data, members, ensemble.program.size),
            _live_rows(data, members),
            data.draw(GMIN),
            data.draw(SOURCE_SCALE),
        )

    @pytest.mark.parametrize(
        "make_bench", [hand_testbench, two_stage_testbench]
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_testbench_near_operating_point(self, make_bench, data):
        """Iterates around a real design's initial guess: mostly
        saturated devices, the regime the Monte-Carlo loop lives in."""
        tb = make_bench()
        program = StampProgram(tb.circuit)
        members = data.draw(st.integers(1, 8))
        ensemble = EnsembleProgram.from_mismatch(
            program,
            _member_rows(data, members, program._n_mos, 0.02),
            _member_rows(data, members, program._n_mos, 0.02),
        )
        spread = data.draw(st.sampled_from((1e-3, 0.1, 1.0)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        voltages = program.initial_guess() + spread * rng.standard_normal(
            (members, program.size)
        )
        _assert_assembly_matches(
            ensemble, voltages, _live_rows(data, members),
            data.draw(GMIN), 1.0,
        )

    def test_swapped_device_with_drain_on_ground(self):
        """An NMOS whose drain terminal is ground and whose source sits
        at 1.5 V conducts reversed (its stamps swap drain and source),
        next to a NaN member."""
        devices = [
            (False, 1, "0", "a", "b", "0", 10.0, 1.0),
            (True, 1, "c", "b", "a", "a", 20.0, 0.5),
        ]
        program = StampProgram(_synthetic_circuit(devices))
        ensemble = EnsembleProgram.from_mismatch(
            program, np.zeros((3, 2)), np.zeros((3, 2))
        )
        voltages = np.tile(program.initial_guess(), (3, 1))
        voltages[:, program.index.node("b")] = 1.5
        voltages[2] = np.nan
        _assert_assembly_matches(
            ensemble, voltages, np.arange(3), 1e-12, 1.0
        )


# -- Batched device evaluation ------------------------------------------------


MODELS = {
    f"{polarity}_level{level}": make_model(
        getattr(TECH, polarity), level=level
    )
    for polarity in ("nmos", "pmos")
    for level in (1, 3)
}


def _bias_arrays(data, n, regime):
    def floats(lo, hi):
        return np.array(
            data.draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))
        )

    if regime == "saturated":
        vgs, vds, vsb = floats(2.0, 3.0), floats(3.5, 5.0), floats(0.0, 1.0)
    else:
        vgs, vds, vsb = floats(-1.0, 3.0), floats(0.0, 5.0), floats(-0.5, 2.0)
    if regime == "nan":
        for array in (vgs, vds, vsb):
            for j in data.draw(st.sets(st.integers(0, n - 1), max_size=2)):
                array[j] = np.nan
    return vgs, vds, vsb


class TestEvaluateBatch:
    @SETTINGS
    @given(
        name=st.sampled_from(sorted(MODELS)),
        regime=st.sampled_from(("saturated", "mixed", "nan")),
        data=st.data(),
    )
    def test_matches_all_branch_reference(self, name, regime, data):
        model = MODELS[name]
        n = data.draw(st.integers(1, 12))
        vgs, vds, vsb = _bias_arrays(data, n, regime)
        width = np.array(
            data.draw(st.lists(st.floats(1.0, 50.0), min_size=n, max_size=n))
        ) * UM
        length = data.draw(st.floats(0.35, 4.0)) * UM
        actual = model.evaluate_batch(width, length, vgs, vds, vsb)
        expected = oracle.evaluate_batch(model, width, length, vgs, vds, vsb)
        if regime == "saturated":
            assert (expected[4] == 2).all()
        for got, want in zip(actual, expected):
            assert_bitwise(got, want)

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize(
        "bias",
        [(2.5, 4.0, 0.3), (2.5, 0.05, 0.0), (0.2, 1.0, 0.5),
         (np.nan, 1.0, 0.0), (1.0, np.nan, 0.0)],
        ids=["saturated", "triode", "weak", "nan_vgs", "nan_vds"],
    )
    def test_zero_dimensional_inputs_keep_return_types(self, name, bias):
        model = MODELS[name]
        vgs, vds, vsb = bias
        actual = model.evaluate_batch(10 * UM, 1 * UM, vgs, vds, vsb)
        expected = oracle.evaluate_batch(model, 10 * UM, 1 * UM, vgs, vds, vsb)
        for got, want in zip(actual, expected):
            assert type(got) is type(want)
            assert_bitwise(got, want)

    def test_stacked_member_axis(self):
        """(K, n) biases against (n,) geometry, as the ensemble calls it."""
        model = MODELS["nmos_level1"]
        rng = np.random.default_rng(5)
        vgs = rng.uniform(-0.5, 3.0, (4, 6))
        vds = rng.uniform(0.0, 4.0, (4, 6))
        vsb = rng.uniform(0.0, 1.5, (4, 6))
        width = rng.uniform(1.0, 40.0, 6) * UM
        length = rng.uniform(0.35, 2.0, 6) * UM
        actual = model.evaluate_batch(width, length, vgs, vds, vsb)
        expected = oracle.evaluate_batch(model, width, length, vgs, vds, vsb)
        for got, want in zip(actual, expected):
            assert_bitwise(got, want)
