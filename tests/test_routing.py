"""Channel router: planning, recording and drawing, parasitics."""

import pytest

from repro.layout.cell import Cell
from repro.layout.devices import single_device_frame
from repro.layout.layers import Layer
from repro.layout.parasitics import ModuleView
from repro.layout.routing import ChannelRouter, PlacedModule
from repro.units import UM


@pytest.fixture(scope="module")
def router(tech):
    return ChannelRouter(tech, {"hot": 5e-3, "cold": 10e-6})


class TestPlanning:
    def test_spanning_net_gets_contiguous_tracks(self, router):
        """Pins in channels 0 and 2 need tracks in 0, 1 and 2."""
        plan = router.plan_channels(3, net_pins={"n1": [0, 2]})
        assert plan.net_tracks["n1"] == [0, 1, 2]

    def test_adjacent_channel_single_track(self, router):
        plan = router.plan_channels(3, net_pins={"n1": [1]})
        assert plan.net_tracks["n1"] == [1]

    def test_external_channels_exist(self, router):
        """row_count rows give row_count + 1 channels (one below the
        bottom row, one above the top row)."""
        plan = router.plan_channels(2, net_pins={"n1": [0], "n2": [2]})
        assert plan.net_tracks["n1"] == [0]
        assert plan.net_tracks["n2"] == [2]
        assert len(plan.heights) == 3

    def test_out_of_range_channel_rejected(self, router):
        from repro.errors import LayoutError

        with pytest.raises(LayoutError):
            router.plan_channels(2, net_pins={"n1": [5]})

    def test_channel_heights_scale_with_tracks(self, router):
        one = router.plan_channels(2, net_pins={"a": [1]})
        three = router.plan_channels(
            2, net_pins={"a": [1], "b": [1], "c": [1]}
        )
        assert three.heights[1] > one.heights[1]

    def test_em_width_in_plan(self, router, tech):
        plan = router.plan_channels(
            2, net_pins={"hot": [0, 1], "cold": [0, 1]}
        )
        assert plan.track_widths["hot"] > plan.track_widths["cold"]
        # Narrow tracks still land vias: floor is via + enclosure.
        floor = tech.rules.via_size + 2 * tech.rules.via_metal_enclosure
        assert plan.track_widths["cold"] >= floor


@pytest.fixture(scope="module")
def routed(tech):
    """Two modules stacked, one shared net routed between them."""
    bottom = single_device_frame(
        tech, "n", 20 * UM, 1 * UM, 2, ("mid", "g1", "0", "0"), name="m1"
    )
    top = single_device_frame(
        tech, "n", 20 * UM, 1 * UM, 2, ("d2", "g2", "mid", "0"), name="m2"
    )
    views = {"m1": ModuleView.of(bottom), "m2": ModuleView.of(top)}
    router = ChannelRouter(tech, {"mid": 100e-6})
    net_pins = {}
    for row, (name, frame) in enumerate((("m1", bottom), ("m2", top))):
        for net, pins in views[name].pins.items():
            for rect, _layer in pins:
                channel = (
                    row if rect.center.y < frame.bbox.center.y else row + 1
                )
                net_pins.setdefault(net, []).append(channel)
    plan = router.plan_channels(2, net_pins)

    gap = plan.heights[1]
    placed = [
        PlacedModule("m1", bottom, dx=0.0, dy=-bottom.bbox.y0),
        PlacedModule(
            "m2", top,
            dx=0.0,
            dy=-top.bbox.y0 + bottom.bbox.height + gap,
        ),
    ]
    channel_y = [
        placed[0].bbox().y0 - plan.heights[0],
        placed[0].bbox().y1,
        placed[1].bbox().y1,
    ]
    width = max(m.bbox().x1 for m in placed)
    result = router.route(
        placed, views, {"m1": 0, "m2": 1}, plan, channel_y, (0.0, width)
    )
    cell = Cell("assembly")
    for module in placed:
        cell.add_instance(module.frame.cell(), dx=module.dx, dy=module.dy)
    result.draw(cell)
    return cell, result, plan


class TestRouting:
    def test_every_net_routed(self, routed):
        _cell, result, plan = routed
        assert set(result.nets) == set(plan.net_tracks)

    def test_shared_net_has_track_and_stubs(self, routed):
        _cell, result, _plan = routed
        net = result.nets["mid"]
        metal2 = [w for w in net.wires if w.layer is Layer.METAL2]
        metal1 = [w for w in net.wires if w.layer is Layer.METAL1]
        assert len(metal2) >= 1
        assert len(metal1) >= 2  # one stub per pin

    def test_vias_connect_layers(self, routed):
        _cell, result, _plan = routed
        assert result.nets["mid"].via_count >= 4

    def test_ground_capacitance_positive(self, routed, tech):
        _cell, result, _plan = routed
        assert result.nets["mid"].ground_capacitance(tech) > 1e-16

    def test_tracks_recorded_in_order(self, routed):
        _cell, result, _plan = routed
        tracks = result.channel_tracks[1]
        ys = [rect.y0 for _net, rect in tracks]
        assert ys == sorted(ys)

    def test_adjacent_track_coupling(self, routed, tech):
        _cell, result, _plan = routed
        coupling = result.coupling_capacitances(tech)
        # Tracks that overlap horizontally couple.
        assert all(value >= 0 for value in coupling.values())

    def test_wires_drawn_into_cell(self, routed):
        cell, result, _plan = routed
        drawn = [s for s in cell.shapes if s.net == "mid"]
        assert len(drawn) >= 3

    def test_total_length_positive(self, routed):
        _cell, result, _plan = routed
        assert result.nets["mid"].total_length() > 1 * UM
