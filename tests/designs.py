"""Hand-sized reference designs shared by the tests and the benchmarks.

Plain functions, so ``tests/conftest.py`` fixtures, test modules and
``benchmarks/`` all build exactly the same circuits and layouts
(``from tests.designs import hand_testbench``, run from the repo root):

* :func:`table1_specs` — the paper's Table-1 input specifications;
* :func:`hand_sizes` — a hand-sized folded-cascode OTA's device sizes
  and drain currents;
* :func:`hand_testbench` — that OTA as a measurable testbench;
* :func:`hand_ota_layout` — that OTA's generated layout;
* :func:`two_stage_testbench` — a hand-sized Miller two-stage OTA.
"""

from __future__ import annotations

from repro.circuit.topologies import (
    DeviceSize,
    FoldedCascodeDesign,
    TwoStageDesign,
    build_folded_cascode,
    build_two_stage,
)
from repro.layout.ota import OtaLayoutRequest, generate_ota_layout
from repro.mos import make_model, width_for_current
from repro.sizing.specs import OtaSpecs
from repro.technology import generic_060
from repro.units import PF, UM


def table1_specs() -> OtaSpecs:
    """The paper's Table-1 input specifications (the case-4 input)."""
    return OtaSpecs(
        vdd=3.3,
        gbw=65e6,
        phase_margin=65.0,
        cload=3 * PF,
        input_cm_range=(0.55, 1.84),
        output_range=(0.51, 2.31),
    )


def hand_sizes(tech):
    """``(sizes, currents)`` of a plausible hand-designed folded cascode."""
    mn = make_model(tech.nmos, 1)
    mp = make_model(tech.pmos, 1)
    length = 1.0 * UM
    i_tail, i_sink = 200e-6, 200e-6
    i_casc = i_sink - i_tail / 2.0

    def w(model, current, veff):
        return width_for_current(model, current, length, veff)

    sizes = {
        "mp1": (w(mp, i_tail / 2, 0.2), length),
        "mp2": (w(mp, i_tail / 2, 0.2), length),
        "mp5": (w(mp, i_tail, 0.25), length),
        "mn5": (w(mn, i_sink, 0.25), length),
        "mn6": (w(mn, i_sink, 0.25), length),
        "mn1c": (w(mn, i_casc, 0.2), length),
        "mn2c": (w(mn, i_casc, 0.2), length),
        "mp3": (w(mp, i_casc, 0.25), length),
        "mp4": (w(mp, i_casc, 0.25), length),
        "mp3c": (w(mp, i_casc, 0.2), length),
        "mp4c": (w(mp, i_casc, 0.2), length),
    }
    currents = {
        "mp1": i_tail / 2, "mp2": i_tail / 2, "mp5": i_tail,
        "mn5": i_sink, "mn6": i_sink,
        "mn1c": i_casc, "mn2c": i_casc,
        "mp3": i_casc, "mp4": i_casc, "mp3c": i_casc, "mp4c": i_casc,
    }
    return sizes, currents


def hand_testbench(tech=None):
    """The :func:`hand_sizes` folded cascode as a measurable testbench
    (default technology: the paper's 0.6 um)."""
    tech = tech if tech is not None else generic_060()
    mn = make_model(tech.nmos, 1)
    mp = make_model(tech.pmos, 1)
    sizes, _currents = hand_sizes(tech)
    vdd = 3.3
    veff_sink, veff_ncas, veff_mirror, veff_pcas = 0.25, 0.2, 0.25, 0.2
    veff_tail = 0.25
    fold = veff_sink + 0.15
    x_node = vdd - veff_mirror - 0.15
    biases = {
        "vbn": mn.threshold(0.0) + veff_sink,
        "vc1": fold + mn.threshold(fold) + veff_ncas,
        "vp1": vdd - (mp.threshold(0.0) + veff_tail),
        "vc3": x_node - (mp.threshold(vdd - x_node) + veff_pcas),
    }
    design = FoldedCascodeDesign(
        technology=tech,
        sizes={name: DeviceSize(w=w, l=l) for name, (w, l) in sizes.items()},
        biases=biases,
        vdd=vdd,
        vcm=1.2,
        cload=3 * PF,
    )
    return build_folded_cascode(design)


def hand_ota_layout(tech=None):
    """The :func:`hand_sizes` folded cascode's generated (generate-mode)
    layout (default technology: the paper's 0.6 um)."""
    tech = tech if tech is not None else generic_060()
    sizes, currents = hand_sizes(tech)
    request = OtaLayoutRequest(
        technology=tech, sizes=sizes, currents=currents, aspect=1.0
    )
    return generate_ota_layout(request, mode="generate")


def two_stage_testbench(tech=None):
    """A hand-sized Miller two-stage OTA testbench.

    The second topology of the oracle-equivalence suite: a different
    device count, a compensation network (Miller cap) and an NMOS-input
    stage.
    """
    tech = tech if tech is not None else generic_060()
    mn = make_model(tech.nmos, 1)
    design = TwoStageDesign(
        technology=tech,
        sizes={
            "m1": DeviceSize(w=30 * UM, l=1 * UM),
            "m2": DeviceSize(w=30 * UM, l=1 * UM),
            "m3": DeviceSize(w=15 * UM, l=1 * UM),
            "m4": DeviceSize(w=15 * UM, l=1 * UM),
            "m5": DeviceSize(w=30 * UM, l=1 * UM),
            "m6": DeviceSize(w=120 * UM, l=0.8 * UM),
            "m7": DeviceSize(w=60 * UM, l=0.8 * UM),
        },
        vbn=mn.threshold(0.0) + 0.2,
        vdd=3.3,
        vcm=1.4,
        cload=3 * PF,
        cc=0.8 * PF,
    )
    return build_two_stage(design)
