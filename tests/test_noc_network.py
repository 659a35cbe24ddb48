"""Integration tests for the cycle-accurate NoC (:mod:`repro.noc`).

These tests exercise the assembled network: delivery, latency, flit
conservation, wormhole semantics, credit flow control and both arbitration
policies.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.core.arbitration import make_arbiter
from repro.core.config import RouterTiming, regular_mesh_config, waw_wap_config
from repro.core.flows import FlowSet
from repro.core.weights import WeightTable
from repro.geometry import Coord, Port
from repro.noc.network import Network
from repro.noc.router import PORT_INDEX, PORTS


class TestBasicDelivery:
    def test_single_message_is_delivered(self):
        network = Network(regular_mesh_config(4))
        message = network.send(Coord(3, 3), Coord(0, 0), 4, kind="load")
        network.run_until_idle(max_cycles=2_000)
        assert message.completion_cycle is not None
        assert message.latency is not None and message.latency > 0
        assert network.stats.completed_messages == 1

    def test_zero_load_latency_close_to_analytical_model(self):
        """An uncontended packet's latency tracks hops * hop_latency + flits."""
        config = regular_mesh_config(8)
        network = Network(config)
        src, dst = Coord(7, 7), Coord(0, 0)
        message = network.send(src, dst, 1, kind="probe")
        network.run_until_idle(max_cycles=2_000)
        hops = src.manhattan(dst) + 1
        timing = config.timing
        expected = hops * timing.routing_latency + (hops - 1) * timing.link_latency + 1
        assert message.network_latency is not None
        # NIC injection/ejection add a couple of cycles on top of the model.
        assert expected <= message.network_latency <= expected + 6

    def test_adjacent_nodes_have_short_latency(self):
        network = Network(regular_mesh_config(4))
        message = network.send(Coord(1, 0), Coord(0, 0), 1)
        network.run_until_idle(max_cycles=500)
        assert message.network_latency < 20

    def test_message_to_every_destination_arrives(self):
        config = regular_mesh_config(3)
        network = Network(config)
        source = Coord(1, 1)
        messages = [
            network.send(source, dst, 2, kind="bcast")
            for dst in config.mesh.nodes()
            if dst != source
        ]
        network.run_until_idle(max_cycles=5_000)
        assert all(m.completion_cycle is not None for m in messages)

    def test_flit_conservation(self):
        """Every injected flit is eventually ejected, none duplicated or lost."""
        config = regular_mesh_config(4)
        network = Network(config)
        for src in config.mesh.nodes():
            if src != Coord(0, 0):
                network.send(src, Coord(0, 0), 3)
        network.run_until_idle(max_cycles=10_000)
        assert network.total_injected_flits() == network.total_ejected_flits() == 15 * 3
        assert network.buffered_flits() == 0


class TestWormholeSemantics:
    def test_packets_are_not_interleaved_on_a_link(self):
        """Wormhole: once a packet owns an output, its flits arrive contiguously."""
        config = regular_mesh_config(4, max_packet_flits=4)
        network = Network(config)
        arrival_order = []

        def listener(message, cycle):
            arrival_order.append(message.message_id)

        network.add_listener(Coord(0, 0), listener)
        # Two multi-flit packets from different sources share the final link.
        m1 = network.send(Coord(3, 0), Coord(0, 0), 4)
        m2 = network.send(Coord(0, 3), Coord(0, 0), 4)
        network.run_until_idle(max_cycles=2_000)
        assert len(arrival_order) == 2
        assert {m1.message_id, m2.message_id} == set(arrival_order)

    def test_full_congestion_drains_without_deadlock(self):
        """XY routing on a mesh is deadlock free; the simulator must agree."""
        config = regular_mesh_config(4, buffer_depth=2)
        network = Network(config)
        for _ in range(4):
            for src in config.mesh.nodes():
                if src != Coord(0, 0):
                    network.send(src, Coord(0, 0), 4, kind="hotspot")
        final_cycle = network.run_until_idle(max_cycles=100_000)
        assert network.stats.completed_messages == 60
        assert final_cycle > 0

    def test_event_backend_drains_an_8x8_hotspot(self):
        """Every other node of the 8x8 WaW+WaP mesh sends one 4-flit message
        to (0, 0); the event-driven backend delivers all 63."""
        config = Scenario.mesh(8).waw_wap().backend("event").build()
        network = Network(config)
        for src in config.mesh.nodes():
            if src != Coord(0, 0):
                network.send(src, Coord(0, 0), 4, kind="load")
        network.run_until_idle(max_cycles=500_000)
        assert network.stats.completed_messages == 63

    def test_backpressure_limits_buffered_flits(self):
        """Credit flow control never overflows any input buffer."""
        config = regular_mesh_config(3, buffer_depth=2)
        network = Network(config)
        for rep in range(10):
            for src in config.mesh.nodes():
                if src != Coord(0, 0):
                    network.send(src, Coord(0, 0), 4)
        # Step manually and check occupancy every cycle (push would raise on
        # overflow, but check explicitly for clarity).
        for _ in range(300):
            network.step()
            for router in network.routers.values():
                for port, buffer in router.buffers.items():
                    assert len(buffer) <= config.buffer_depth
        network.run_until_idle(max_cycles=100_000)


class TestArbitrationPolicies:
    def _saturate(self, config, cycles=600):
        network = Network(config)
        sources = [c for c in config.mesh.nodes() if c != Coord(0, 0)]
        # Keep a steady backlog from every node towards the corner.
        for _ in range(cycles):
            if network.cycle % 3 == 0:
                for src in sources:
                    network.send(src, Coord(0, 0), 1, kind="hotspot")
            network.step()
        network.run_until_idle(max_cycles=200_000)
        return network

    def test_waw_network_uses_weighted_arbiters(self):
        config = waw_wap_config(3)
        network = Network(config)
        router = network.router(Coord(0, 0))
        from repro.core.arbitration import WeightedRoundRobinArbiter

        assert isinstance(router.arbiters[Port.LOCAL], WeightedRoundRobinArbiter)

    def test_regular_network_uses_round_robin(self):
        config = regular_mesh_config(3)
        network = Network(config)
        from repro.core.arbitration import RoundRobinArbiter

        assert isinstance(network.router(Coord(1, 1)).arbiters[Port.LOCAL], RoundRobinArbiter)

    def test_waw_reduces_worst_case_spread_under_hotspot(self):
        """Under saturation towards the MC, WaW narrows the per-flow latency spread."""
        regular = self._saturate(regular_mesh_config(4, buffer_depth=2))
        waw = self._saturate(waw_wap_config(4, buffer_depth=2))

        def spread(network):
            worst_by_flow = []
            for src in network.config.mesh.nodes():
                if src == Coord(0, 0):
                    continue
                lats = network.stats.latencies(source=src, network_only=True)
                if lats:
                    worst_by_flow.append(max(lats))
            return max(worst_by_flow) / max(1, min(worst_by_flow))

        assert spread(waw) <= spread(regular) * 1.5

    def test_explicit_weight_table_is_used(self):
        config = waw_wap_config(3)
        table = WeightTable.from_closed_form(config.mesh)
        network = Network(config, weight_table=table)
        assert network.weight_table is table


#: Structures the reference check covers: (width, height, ``Scenario.topology`` arguments).
_STRUCTURES = {
    "mesh-xy": (4, 4, dict(kind="mesh")),
    "mesh-yx": (4, 4, dict(kind="mesh", routing="yx")),
    "torus": (4, 4, dict(kind="torus")),
    "ring": (8, 1, dict(kind="ring")),
    "cmesh": (4, 4, dict(kind="cmesh", concentration=2)),
}


class TestBuildMatchesPortReference:
    """Routers and the network build their arbiters and links from
    per-topology tables.  ``make_arbiter`` over the topology's legal
    contenders with ``WeightTable.arbitration_weights``, and the topology's
    ``downstream``/``upstream``, are the ``Port``-level reference."""

    @pytest.mark.parametrize("table", ["regular", "default", "all-to-one"])
    @pytest.mark.parametrize("structure", sorted(_STRUCTURES))
    def test_arbiters_and_links_equal_the_reference(self, structure, table):
        width, height, topology_args = _STRUCTURES[structure]
        scenario = Scenario.mesh(width, height).topology(**topology_args)
        config = (scenario.regular() if table == "regular" else scenario.waw_wap()).build()
        topology = config.topology
        weights = reference = None
        if table == "all-to-one":
            # check_bounds' table: the all-to-one traffic towards the MC.
            flows = FlowSet.all_to_one(config.mesh, config.memory_controller)
            weights = reference = WeightTable.from_flow_set(flows)
        elif table == "default":
            reference = WeightTable.from_closed_form(config.mesh)
        network = Network(config, weight_table=weights)

        for coord, router in network.routers.items():
            expected = {
                out: make_arbiter(
                    topology.legal_inputs_for_output(coord, out),
                    weighted=config.is_waw,
                    weights=None if reference is None else reference.arbitration_weights(coord, out),
                )
                for out in topology.output_ports(coord)
                if topology.legal_inputs_for_output(coord, out)
            }
            assert list(router.arbiters) == list(expected), coord
            for out, arbiter in router.arbiters.items():
                want = expected[out]
                assert type(arbiter) is type(want), (coord, out)
                assert arbiter.candidates == want.candidates, (coord, out)
                if config.is_waw:
                    assert list(arbiter.weights.items()) == list(want.weights.items()), (coord, out)
            # Each output's requester table maps a bit mask of input port
            # numbers to the positions of its legal contenders in the mask.
            for out, *_, table in router._plan:
                legal = topology.legal_inputs_for_output(coord, PORTS[out])
                assert len(table) == 1 << len(PORTS)
                for mask, positions in enumerate(table):
                    requesters = [port for port in legal if mask >> PORT_INDEX[port] & 1]
                    assert [legal[at] for at in positions] == requesters, (coord, out, mask)

            nic, downstream, upstream, _ = network._links[router]
            assert nic is network.nics[coord]
            for links, neighbour in ((downstream, topology.downstream), (upstream, topology.upstream)):
                for port in PORTS:
                    other = neighbour(coord, port)
                    want = None if other is None else network.routers[other]
                    assert links[PORT_INDEX[port]] is want, (coord, port, neighbour.__name__)


class TestNetworkAPI:
    def test_run_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            Network(regular_mesh_config(2)).run(-1)

    def test_run_until_idle_times_out(self):
        network = Network(regular_mesh_config(3))
        network.send(Coord(2, 2), Coord(0, 0), 4)
        with pytest.raises(RuntimeError):
            network.run_until_idle(max_cycles=2)

    def test_is_idle_initially(self):
        assert Network(regular_mesh_config(2)).is_idle()

    def test_custom_timing_is_respected(self):
        fast = Network(
            regular_mesh_config(4, timing=RouterTiming(routing_latency=1, link_latency=0))
        )
        slow = Network(
            regular_mesh_config(4, timing=RouterTiming(routing_latency=5, link_latency=2))
        )
        mf = fast.send(Coord(3, 3), Coord(0, 0), 1)
        ms = slow.send(Coord(3, 3), Coord(0, 0), 1)
        fast.run_until_idle(max_cycles=2_000)
        slow.run_until_idle(max_cycles=2_000)
        assert mf.network_latency < ms.network_latency

    def test_stats_latency_filters(self):
        network = Network(regular_mesh_config(3))
        network.send(Coord(1, 1), Coord(0, 0), 1, kind="load")
        network.send(Coord(2, 2), Coord(0, 0), 2, kind="reply")
        network.run_until_idle(max_cycles=2_000)
        assert len(network.stats.latencies(kind="load")) == 1
        assert len(network.stats.latencies(source=Coord(2, 2))) == 1
        assert network.stats.completed_for_flow(Coord(1, 1), Coord(0, 0)) == 1
        summary = network.stats.latency_summary()
        assert summary.count == 2
        assert summary.minimum <= summary.average <= summary.maximum
