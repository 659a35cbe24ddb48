"""Tests for the WaW+WaP WCTT analysis (:mod:`repro.core.wctt_weighted`)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.backends import make_analysis_backend
from repro.core.config import regular_mesh_config, waw_wap_config
from repro.core.flows import FlowSet
from repro.core.wctt import wctt_map, wctt_summary, zero_load_latency
from repro.core.wctt_regular import RegularMeshWCTTAnalysis
from repro.core.wctt_weighted import WaWWaPWCTTAnalysis
from repro.core.weights import WeightTable
from repro.geometry import Coord, Port


def memory_analysis(size: int, *, flits: int = 1) -> WaWWaPWCTTAnalysis:
    return WaWWaPWCTTAnalysis.for_memory_traffic(
        waw_wap_config(size, max_packet_flits=flits), include_replies=False
    )


def hop_charge(config, out_port: Port, round_slots: int, rounds: int = 1) -> int:
    """The paper's hop charge written out: pipeline, ``rounds`` full rounds
    of ``round_slots`` minimum-size packets, then the link (none on
    ejection)."""
    timing = config.timing
    link = 0 if out_port is Port.LOCAL else timing.link_latency
    slot = config.min_packet_flits * timing.flit_cycle
    return timing.routing_latency + rounds * round_slots * slot + link


def expected_packet_bound(analysis: WaWWaPWCTTAnalysis, source: Coord, destination: Coord) -> int:
    """Sum of the hop charges along the route.  A zero-weight port counts as
    one slot; unregulated contenders add the rounds that drain a full input
    buffer at the input's own share of each round."""
    config, weights = analysis.config, analysis.weights
    total = 0
    for hop in config.topology.route(source, destination):
        rounds = 1
        if not analysis.regulated_contenders:
            slots = max(1, weights.input_credits(hop.router, hop.in_port))
            rounds = math.ceil(config.buffer_depth / slots)
        round_slots = max(1, weights.output_round_flits(hop.router, hop.out_port))
        total += hop_charge(config, hop.out_port, round_slots, rounds)
    return total


def expected_message_bound(
    analysis: WaWWaPWCTTAnalysis, source: Coord, destination: Coord, payload_flits: int
) -> int:
    """First slice's packet bound, then one round of the route's largest
    port per further WaP slice."""
    config, weights = analysis.config, analysis.weights
    slot = config.min_packet_flits * config.timing.flit_cycle
    largest_round = max(
        max(1, weights.output_round_flits(hop.router, hop.out_port)) * slot
        for hop in config.topology.route(source, destination)
    )
    slices = config.messages.wap_slices(payload_flits)
    first = expected_packet_bound(analysis, source, destination)
    return first + (slices - 1) * largest_round


def node_pairs(mesh):
    return [(s, d) for s in mesh.nodes() for d in mesh.nodes() if s != d]


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
            assert a.wctt_packet(src, Coord(0, 0)) > zero_load_latency(a.config, src, Coord(0, 0))

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


class TestHopCharges:
    """Every bound is the sum of the paper's hop charges along the route."""

    def test_closed_form_weights(self):
        analysis = WaWWaPWCTTAnalysis(waw_wap_config(4, 3))
        for src, dst in node_pairs(analysis.mesh):
            assert analysis.wctt_packet(src, dst) == expected_packet_bound(analysis, src, dst)

    def test_memory_traffic_weights(self):
        config = waw_wap_config(4, 4)
        analysis = WaWWaPWCTTAnalysis.for_memory_traffic(config)
        mc = config.memory_controller
        pairs = [(node, mc) for node in config.mesh.nodes() if node != mc]
        pairs += [(mc, node) for node, _ in pairs]
        table = WeightTable.from_flow_set(FlowSet.from_pairs(config.mesh, pairs))
        for src, dst in node_pairs(config.mesh):
            for hop in config.topology.route(src, dst):
                round_slots = max(1, table.output_round_flits(hop.router, hop.out_port))
                assert analysis.hop_delay(hop.router, hop.in_port, hop.out_port) == (
                    hop_charge(config, hop.out_port, round_slots)
                )

    @pytest.mark.parametrize("buffer_depth", [1, 4, 9])
    def test_unregulated_contenders_drain_the_input_buffer(self, buffer_depth):
        config = waw_wap_config(4, 3, buffer_depth=buffer_depth)
        analysis = WaWWaPWCTTAnalysis(config, regulated_contenders=False)
        regulated = WaWWaPWCTTAnalysis(config)
        for src, dst in node_pairs(config.mesh):
            bound = analysis.wctt_packet(src, dst)
            assert bound == expected_packet_bound(analysis, src, dst)
            assert bound >= regulated.wctt_packet(src, dst)

    def test_single_flow_weight_table(self):
        """A one-flow table leaves most ports at weight 0: each port's round
        is charged as one slot."""
        config = waw_wap_config(3, 3)
        flows = FlowSet.from_pairs(config.mesh, [(Coord(2, 2), Coord(0, 0))])
        analysis = WaWWaPWCTTAnalysis(config, WeightTable.from_flow_set(flows))
        for src, dst in node_pairs(config.mesh):
            route = config.topology.route(src, dst)
            assert analysis.wctt_packet(src, dst) == sum(
                hop_charge(config, hop.out_port, 1) for hop in route
            )

    def test_single_flow_unregulated(self):
        """An input of no flow owns one slot per round, so a full buffer of
        ``buffer_depth`` flits takes ``buffer_depth`` rounds to drain."""
        config = waw_wap_config(3, 3, buffer_depth=6)
        flows = FlowSet.from_pairs(config.mesh, [(Coord(0, 2), Coord(2, 0))])
        analysis = WaWWaPWCTTAnalysis(
            config, WeightTable.from_flow_set(flows), regulated_contenders=False
        )
        for src, dst in node_pairs(config.mesh):
            route = config.topology.route(src, dst)
            assert analysis.wctt_packet(src, dst) == sum(
                hop_charge(config, hop.out_port, 1, rounds=6) for hop in route
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
        route = a.config.topology.route(src, dst)
        rounds = [a.round_flits(h.router, h.out_port) for h in route]
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

    @pytest.mark.parametrize("payload", [1, 2, 4, 7, 16])
    def test_messages_to_and_from_the_controller(self, payload):
        config = waw_wap_config(4, 3)
        analysis = WaWWaPWCTTAnalysis(config)
        mc = config.memory_controller
        for node in config.mesh.nodes():
            if node == mc:
                continue
            for src, dst in ((node, mc), (mc, node)):
                assert analysis.wctt_message(src, dst, payload_flits=payload) == (
                    expected_message_bound(analysis, src, dst, payload)
                )

    @given(
        width=st.integers(2, 5),
        height=st.integers(2, 5),
        payload=st.integers(1, 12),
        regulated=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_messages_both_directions(self, width, height, payload, regulated):
        config = waw_wap_config(width, height)
        analysis = WaWWaPWCTTAnalysis(config, regulated_contenders=regulated)
        mc = config.memory_controller
        for node in config.mesh.nodes():
            if node == mc:
                continue
            for src, dst in ((node, mc), (mc, node)):
                assert analysis.wctt_message(src, dst, payload_flits=payload) == (
                    expected_message_bound(analysis, src, dst, payload)
                )


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
