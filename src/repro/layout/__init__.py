"""Procedural analog layout generation (the CAIRO substrate).

The package mirrors the structure the paper describes in section 3:

* :mod:`repro.layout.motif` — the single transistor *motif generator* every
  device is built from, with full control of terminals and wires;
* :mod:`repro.layout.folding` — the capacitance reduction factor ``F``
  (paper Figure 2) and fold-count selection with drain-internal control;
* :mod:`repro.layout.stack` — analog stacks with dummy transistors,
  symmetric (common-centroid) placement and current-direction control
  (paper Figure 3);
* :mod:`repro.layout.devices` — device generators (differential pairs,
  current mirrors) built on the motif;
* :mod:`repro.layout.shape` / :mod:`repro.layout.placement` — shape
  functions and slicing-tree area optimisation under a shape constraint;
* :mod:`repro.layout.routing` — net routing with electromigration-aware
  wire widths and contact counts (reliability constraints);
* :mod:`repro.layout.parasitics` — the *parasitic calculation mode*: fold
  counts, diffusion geometry, routing/coupling/well capacitances, with no
  geometry emitted;
* :mod:`repro.layout.assembly` — the one place/route/report path both
  generators share, and the generation mode's drawing;
* :mod:`repro.layout.extraction` — independent geometric extraction of a
  *generated* layout (the role Cadence plays in the paper);
* :mod:`repro.layout.svg` / :mod:`repro.layout.gds` — SVG and GDSII export.
"""

from repro.layout.geometry import Orientation, Point, Rect
from repro.layout.layers import Layer
from repro.layout.cell import Cell, Shape
from repro.layout.folding import (
    DiffusionPosition,
    capacitance_reduction_factor,
    choose_fold_count,
    effective_widths,
    folded_diffusion_geometry,
)
from repro.layout.motif import MosMotif, generate_mos_motif
from repro.layout.stack import StackPlan, generate_stack
from repro.layout.shape import ShapePoint, ShapeFunction
from repro.layout.drc import DrcChecker, DrcViolation
from repro.layout.capacitor import plate_capacitor
from repro.layout.resistor import poly_resistor
from repro.layout.tap import tap_column
from repro.layout.cairo import CairoProgram
from repro.layout.matching import (
    compare_pair_styles,
    pair_offset_voltage,
    stack_gradient_impact,
)

__all__ = [
    "CairoProgram",
    "Cell",
    "DiffusionPosition",
    "DrcChecker",
    "DrcViolation",
    "Layer",
    "MosMotif",
    "Orientation",
    "Point",
    "Rect",
    "Shape",
    "ShapeFunction",
    "ShapePoint",
    "StackPlan",
    "capacitance_reduction_factor",
    "choose_fold_count",
    "compare_pair_styles",
    "effective_widths",
    "folded_diffusion_geometry",
    "generate_mos_motif",
    "generate_stack",
    "pair_offset_voltage",
    "plate_capacitor",
    "poly_resistor",
    "stack_gradient_impact",
    "tap_column",
]
