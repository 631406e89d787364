"""Slicing-tree placement and area optimisation."""

import pytest

from repro.errors import LayoutError
from repro.layout.placement import LeafNode, ModuleVariant, SliceNode, optimize, realize
from repro.units import UM


def block(name, width, height):
    """A module with one rectangular variant."""
    return ModuleVariant(name, width, height)


def leaf(name, *sizes):
    return LeafNode(name, [block(f"{name}{i}", w, h) for i, (w, h) in enumerate(sizes)])


class TestLeaf:
    def test_variants_become_frontier(self):
        node = leaf("a", (1 * UM, 4 * UM), (4 * UM, 1 * UM), (2 * UM, 2 * UM))
        assert len(node.shape_function()) == 3

    def test_empty_variants_rejected(self):
        with pytest.raises(LayoutError):
            LeafNode("x", [])


class TestSliceComposition:
    def test_horizontal_dimensions(self):
        root = SliceNode("h", [leaf("a", (2e-6, 3e-6)), leaf("b", (1e-6, 5e-6))],
                         spacings=[1e-6])
        point = root.shape_function().points[0]
        assert point.width == pytest.approx(4e-6)
        assert point.height == pytest.approx(5e-6)

    def test_vertical_dimensions(self):
        root = SliceNode("v", [leaf("a", (2e-6, 3e-6)), leaf("b", (1e-6, 5e-6))])
        point = root.shape_function().points[0]
        assert point.width == pytest.approx(2e-6)
        assert point.height == pytest.approx(8e-6)

    def test_bad_kind_rejected(self):
        with pytest.raises(LayoutError):
            SliceNode("x", [leaf("a", (1e-6, 1e-6))])

    def test_wrong_spacing_count_rejected(self):
        with pytest.raises(LayoutError):
            SliceNode("h", [leaf("a", (1e-6, 1e-6))], spacings=[1.0, 2.0])


class TestRealize:
    def test_horizontal_positions(self):
        root = SliceNode(
            "h", [leaf("a", (2e-6, 3e-6)), leaf("b", (1e-6, 3e-6))],
            spacings=[1e-6], align="min",
        )
        point = root.shape_function().points[0]
        placements = {p.name: p for p in realize(point)}
        assert placements["a"].dx == pytest.approx(0.0)
        assert placements["b"].dx == pytest.approx(3e-6)

    def test_vertical_positions(self):
        root = SliceNode(
            "v", [leaf("a", (2e-6, 3e-6)), leaf("b", (2e-6, 1e-6))],
            spacings=[2e-6], align="min",
        )
        point = root.shape_function().points[0]
        placements = {p.name: p for p in realize(point)}
        assert placements["b"].dy == pytest.approx(5e-6)

    def test_center_alignment(self):
        root = SliceNode(
            "v", [leaf("wide", (4e-6, 1e-6)), leaf("narrow", (2e-6, 1e-6))],
            align="center",
        )
        point = root.shape_function().points[0]
        placements = {p.name: p for p in realize(point)}
        assert placements["narrow"].dx == pytest.approx(1e-6)

    def test_variant_selection_by_aspect(self):
        node = leaf("a", (1e-6, 16e-6), (4e-6, 4e-6), (16e-6, 1e-6))
        point, placements = optimize(node, aspect=1.0)
        assert placements[0].variant.width == pytest.approx(4e-6)

    def test_fold_choice_responds_to_constraint(self):
        """The paper's point: the shape constraint picks implementations."""
        node = leaf("a", (1e-6, 16e-6), (16e-6, 1e-6))
        _point, tall = optimize(node, aspect=16.0)
        _point, flat = optimize(node, aspect=1.0 / 16.0)
        assert tall[0].variant.height > flat[0].variant.height

    def test_conflicting_constraints_rejected(self):
        node = leaf("a", (1e-6, 1e-6))
        with pytest.raises(LayoutError):
            optimize(node, aspect=1.0, height=2e-6)

    def test_minimum_area_default(self):
        node = leaf("a", (1e-6, 9e-6), (2e-6, 2e-6), (9e-6, 1e-6))
        point, _ = optimize(node)
        assert point.area == pytest.approx(4e-12)

    def test_nested_tree(self):
        bottom = SliceNode("h", [leaf("a", (2e-6, 2e-6)), leaf("b", (2e-6, 2e-6))])
        root = SliceNode("v", [bottom, leaf("c", (3e-6, 1e-6))])
        point, placements = optimize(root)
        names = sorted(p.name for p in placements)
        assert names == ["a", "b", "c"]
        assert point.height == pytest.approx(3e-6)
