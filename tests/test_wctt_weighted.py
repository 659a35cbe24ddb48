"""Tests for the WaW+WaP WCTT analysis (:mod:`repro.core.wctt_weighted`)."""

from __future__ import annotations

import pytest

from repro.analysis.backends import make_analysis_backend
from repro.core.config import regular_mesh_config, waw_wap_config
from repro.core.flows import FlowSet
from repro.core.wctt import wctt_map, wctt_summary
from repro.core.wctt_regular import RegularMeshWCTTAnalysis
from repro.core.wctt_weighted import WaWWaPWCTTAnalysis
from repro.core.weights import WeightTable
from repro.geometry import Coord, Port


def memory_analysis(size: int, *, flits: int = 1) -> WaWWaPWCTTAnalysis:
    return WaWWaPWCTTAnalysis.for_memory_traffic(
        waw_wap_config(size, max_packet_flits=flits), include_replies=False
    )


class TestConstruction:
    def test_requires_waw_wap_configuration(self):
        with pytest.raises(ValueError):
            WaWWaPWCTTAnalysis(regular_mesh_config(4))

    def test_default_weights_are_closed_form(self):
        analysis = WaWWaPWCTTAnalysis(waw_wap_config(4))
        assert analysis.weights.output_round_flits(Coord(0, 0), Port.LOCAL) == 15

    def test_memory_traffic_constructor_uses_flow_weights(self):
        analysis = memory_analysis(8)
        assert analysis.weights.output_round_flits(Coord(0, 0), Port.LOCAL) == 63

    def test_factory_dispatch(self):
        assert isinstance(make_analysis_backend(None).analysis(waw_wap_config(4)), WaWWaPWCTTAnalysis)
        assert isinstance(make_analysis_backend(None).analysis(regular_mesh_config(4)), RegularMeshWCTTAnalysis)


class TestPacketBounds:
    def test_rejects_self_flow(self):
        with pytest.raises(ValueError):
            memory_analysis(4).wctt_packet(Coord(1, 1), Coord(1, 1))

    def test_rejects_oversized_packets(self):
        with pytest.raises(ValueError):
            memory_analysis(4).wctt_packet(Coord(1, 1), Coord(0, 0), packet_flits=4)

    def test_bound_exceeds_zero_load(self):
        a = memory_analysis(8)
        for src in [Coord(1, 0), Coord(4, 4), Coord(7, 7)]:
            assert a.wctt_packet(src, Coord(0, 0)) > a.zero_load_latency(src, Coord(0, 0))

    def test_bound_is_sum_of_hop_delays(self):
        a = memory_analysis(4)
        src, dst = Coord(3, 3), Coord(0, 0)
        assert a.wctt_packet(src, dst) == sum(b.delay for b in a.hop_breakdowns(src, dst))

    def test_hop_breakdowns_follow_the_route(self):
        a = memory_analysis(4)
        breakdowns = a.hop_breakdowns(Coord(2, 2), Coord(0, 0))
        assert breakdowns[0].router == Coord(2, 2)
        assert breakdowns[-1].router == Coord(0, 0)
        assert breakdowns[-1].out_port is Port.LOCAL
        assert all(b.delay > 0 for b in breakdowns)

    def test_growth_is_polynomial_not_exponential(self):
        """Doubling the mesh size must not blow the bound up by orders of magnitude."""
        maxima = {}
        for size in (4, 8):
            a = memory_analysis(size)
            far = Coord(size - 1, size - 1)
            maxima[size] = a.wctt_packet(far, Coord(0, 0))
        assert maxima[8] < 10 * maxima[4]

    def test_uniformity_across_flows(self):
        """WaW+WaP keeps all flows within a small factor of each other (8x8)."""
        a = memory_analysis(8)
        flows = FlowSet.all_to_one(a.mesh, Coord(0, 0))
        summary = wctt_summary(a, flows, packet_flits=1)
        assert summary.maximum / summary.minimum < 10
        # The paper's Table II max/min ratio at 8x8 is 310/127 ~ 2.4; ours
        # stays in the same qualitative band (single digits, not thousands).

    def test_beats_regular_mesh_for_distant_flows(self):
        """The proposal's entire point: distant flows get far better bounds."""
        size = 8
        waw = memory_analysis(size)
        regular = make_analysis_backend(None).analysis(regular_mesh_config(size, max_packet_flits=1))
        far = Coord(size - 1, size - 1)
        assert waw.wctt_packet(far, Coord(0, 0)) * 100 < regular.wctt_packet(
            far, Coord(0, 0), packet_flits=1
        )

    def test_may_lose_to_regular_mesh_next_to_the_destination(self):
        """Nodes adjacent to the MC can be slightly worse off (paper Table III)."""
        size = 8
        waw = memory_analysis(size)
        regular = make_analysis_backend(None).analysis(regular_mesh_config(size, max_packet_flits=1))
        near = Coord(1, 0)
        assert waw.wctt_packet(near, Coord(0, 0)) > regular.wctt_packet(
            near, Coord(0, 0), packet_flits=1
        )


class TestMessageBounds:
    def test_single_flit_message_equals_packet_bound(self):
        a = memory_analysis(4)
        src, dst = Coord(3, 3), Coord(0, 0)
        assert a.wctt_message(src, dst, payload_flits=1) == a.wctt_packet(src, dst)

    def test_cache_line_reply_is_five_slices(self):
        a = memory_analysis(8)
        src, dst = Coord(0, 0), Coord(5, 5)
        first = a.wctt_packet(src, dst)
        round_ = a.bottleneck_round(src, dst)
        assert a.wctt_message(src, dst, payload_flits=4) == first + 4 * round_

    def test_bottleneck_round_is_largest_port_round(self):
        a = memory_analysis(8)
        src, dst = Coord(7, 7), Coord(0, 0)
        rounds = [a.round_flits(h.router, h.out_port) for h in a.route(src, dst)]
        assert a.bottleneck_round(src, dst) == max(rounds)

    def test_message_bound_grows_with_payload(self):
        a = memory_analysis(4)
        src, dst = Coord(3, 3), Coord(0, 0)
        values = [a.wctt_message(src, dst, payload_flits=p) for p in (1, 4, 8, 16)]
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_invalid_payload_rejected(self):
        with pytest.raises(ValueError):
            memory_analysis(4).wctt_message(Coord(1, 1), Coord(0, 0), payload_flits=0)


class TestIndependenceFromMaxPacketSize:
    def test_bound_does_not_depend_on_max_packet_size(self):
        """The key WaP property: contenders cannot hold ports for L flits."""
        src, dst = Coord(7, 7), Coord(0, 0)
        bounds = []
        for flits in (1, 4, 8):
            bounds.append(memory_analysis(8, flits=flits).wctt_packet(src, dst))
        assert bounds[0] == bounds[1] == bounds[2]

    def test_regular_bound_does_depend_on_max_packet_size(self):
        src, dst = Coord(7, 7), Coord(0, 0)
        small = make_analysis_backend(None).analysis(regular_mesh_config(8, max_packet_flits=1))
        large = make_analysis_backend(None).analysis(regular_mesh_config(8, max_packet_flits=8))
        assert large.wctt_packet(src, dst, packet_flits=1) > small.wctt_packet(
            src, dst, packet_flits=1
        )


class TestWcttMap:
    def test_map_covers_every_node_but_the_destination(self):
        a = memory_analysis(4)
        mapping = wctt_map(a, Coord(0, 0))
        assert len(mapping) == 15
        assert Coord(0, 0) not in mapping
        assert all(v > 0 for v in mapping.values())

    def test_map_with_custom_weight_table(self):
        config = waw_wap_config(4)
        table = WeightTable.from_closed_form(config.mesh)
        a = WaWWaPWCTTAnalysis(config, table)
        mapping = wctt_map(a, Coord(3, 3))
        assert len(mapping) == 15
