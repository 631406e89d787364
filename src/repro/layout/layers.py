"""Mask layers.

A deliberately small but complete CMOS layer set, with GDSII layer numbers
for export and display colours for the SVG renderer.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Tuple


class Layer(Enum):
    """Drawn mask layers."""

    NWELL = "nwell"
    ACTIVE = "active"
    NIMPLANT = "nimplant"
    PIMPLANT = "pimplant"
    POLY = "poly"
    POLY2 = "poly2"
    """Second poly: capacitor top plates."""
    CONTACT = "contact"
    METAL1 = "metal1"
    VIA1 = "via1"
    METAL2 = "metal2"
    TEXT = "text"


GDS_LAYER_NUMBERS: Dict[Layer, Tuple[int, int]] = {
    Layer.NWELL: (1, 0),
    Layer.ACTIVE: (2, 0),
    Layer.NIMPLANT: (3, 0),
    Layer.PIMPLANT: (4, 0),
    Layer.POLY: (5, 0),
    Layer.POLY2: (10, 0),
    Layer.CONTACT: (6, 0),
    Layer.METAL1: (7, 0),
    Layer.VIA1: (8, 0),
    Layer.METAL2: (9, 0),
    Layer.TEXT: (63, 0),
}
"""(layer, datatype) pairs used by the GDSII writer."""

SVG_STYLE: Dict[Layer, Tuple[str, float]] = {
    Layer.NWELL: ("#ffe9a8", 0.45),
    Layer.ACTIVE: ("#3cb44b", 0.55),
    Layer.NIMPLANT: ("#9ae29a", 0.25),
    Layer.PIMPLANT: ("#e2b09a", 0.25),
    Layer.POLY: ("#e6194b", 0.65),
    Layer.POLY2: ("#f58231", 0.6),
    Layer.CONTACT: ("#222222", 0.9),
    Layer.METAL1: ("#4363d8", 0.55),
    Layer.VIA1: ("#111111", 0.9),
    Layer.METAL2: ("#b86bd8", 0.5),
    Layer.TEXT: ("#000000", 1.0),
}
"""Fill colour and opacity per layer for the SVG renderer."""

ROUTING_LAYERS = (Layer.POLY, Layer.METAL1, Layer.METAL2)
"""Layers the extractor treats as interconnect."""

CUT_LAYERS = (Layer.CONTACT, Layer.VIA1)
"""Contact and via cuts: no parasitic pass or router obstacle reads them,
so a frame enumerated for the estimator leaves them out."""


def metal_name(layer: Layer) -> str:
    """Technology metal-stack key for a routing layer."""
    if layer is Layer.METAL1:
        return "metal1"
    if layer is Layer.METAL2:
        return "metal2"
    if layer is Layer.POLY:
        return "poly"
    raise ValueError(f"{layer} is not a routing layer")
