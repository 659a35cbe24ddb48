"""Router- and NIC-level tests (:mod:`repro.noc.router`, :mod:`repro.noc.nic`)."""

from __future__ import annotations

import pytest

from repro.core.config import regular_mesh_config, waw_wap_config
from repro.geometry import Coord, Port
from repro.noc.flit import Message, Packet
from repro.noc.network import Network
from repro.noc.nic import NIC
from repro.noc.router import PORTS, Router


def make_flits(src, dst, size):
    message = Message(source=src, destination=dst, payload_flits=size)
    packet = Packet(message=message, size_flits=size, index=0, total=1)
    return packet.make_flits()


class TestRouter:
    def test_ports_match_position(self):
        config = regular_mesh_config(4)
        corner = Router(Coord(0, 0), config)
        assert set(corner.buffers) == {Port.LOCAL, Port.XMINUS, Port.YMINUS}
        interior = Router(Coord(1, 1), config)
        assert len(interior.buffers) == 5

    def test_accept_flit_respects_capacity(self):
        config = regular_mesh_config(4, buffer_depth=2)
        router = Router(Coord(1, 1), config)
        flits = make_flits(Coord(1, 1), Coord(0, 0), 3)
        router.accept_flit(Port.LOCAL, flits[0], 0)
        router.accept_flit(Port.LOCAL, flits[1], 0)
        with pytest.raises(OverflowError):
            router.accept_flit(Port.LOCAL, flits[2], 0)

    def test_head_flit_waits_for_pipeline_latency(self):
        config = regular_mesh_config(4)
        router = Router(Coord(1, 0), config)
        flit = make_flits(Coord(1, 0), Coord(0, 0), 1)[0]
        router.accept_flit(Port.LOCAL, flit, ready_cycle=3)
        events = []
        router.step(0, events)  # not ready yet
        assert not [e for e in events if e[0] == "forward"]
        events = []
        router.step(3, events)
        forwards = [e for e in events if e[0] == "forward"]
        assert len(forwards) == 1
        assert PORTS[forwards[0][2]] is Port.XMINUS  # XY routing towards (0,0)

    def test_ejection_event_for_local_destination(self):
        config = regular_mesh_config(4)
        router = Router(Coord(0, 0), config)
        flit = make_flits(Coord(1, 0), Coord(0, 0), 1)[0]
        router.accept_flit(Port.XMINUS, flit, ready_cycle=0)
        events = []
        router.step(0, events)
        assert any(e[0] == "eject" for e in events)
        assert any(e[0] == "credit" and PORTS[e[2]] is Port.XMINUS for e in events)

    def test_output_lock_until_tail(self):
        """A multi-flit packet holds its output port until the tail leaves."""
        config = regular_mesh_config(4)
        router = Router(Coord(1, 0), config)
        for flit in make_flits(Coord(1, 0), Coord(0, 0), 3):
            router.accept_flit(Port.LOCAL, flit, ready_cycle=0)
        events = []
        router.step(0, events)
        assert router.output_owner[Port.XMINUS] is Port.LOCAL
        router.step(1, events)
        assert router.output_owner[Port.XMINUS] is Port.LOCAL
        router.step(2, events)  # tail forwarded
        assert router.output_owner[Port.XMINUS] is None
        forwards = [e for e in events if e[0] == "forward"]
        assert len(forwards) == 3

    def test_no_forward_without_credit(self):
        config = regular_mesh_config(4, buffer_depth=1)
        router = Router(Coord(1, 0), config)
        first, second = (make_flits(Coord(1, 0), Coord(0, 0), 1)[0] for _ in range(2))
        router.accept_flit(Port.LOCAL, first, ready_cycle=0)
        events = []
        router.step(0, events)  # spends the only credit towards (0,0)
        assert [e for e in events if e[0] == "forward"]
        router.accept_flit(Port.LOCAL, second, ready_cycle=1)
        events = []
        router.step(1, events)
        assert not [e for e in events if e[0] == "forward"]
        router.return_credit(Port.XMINUS)
        router.step(2, events)
        assert [e for e in events if e[0] == "forward"]

    def test_tail_then_head_in_one_cycle(self):
        """A tail leaving through an earlier output frees its input, whose
        next head flit competes for the later outputs of the same cycle."""
        router = Router(Coord(1, 1), regular_mesh_config(4, buffer_depth=4))
        first = make_flits(Coord(0, 1), Coord(1, 1), 2)
        second = make_flits(Coord(0, 1), Coord(3, 1), 2)
        for flit in first + second[:1]:
            router.accept_flit(Port.XPLUS, flit, ready_cycle=0)
        router.step(0, [])  # the first head is ejected
        events = []
        router.step(1, events)
        ejects = [e for e in events if e[0] == "eject"]
        forwards = [e for e in events if e[0] == "forward"]
        assert len(ejects) == 1 and ejects[0][2] is first[1]
        assert len(forwards) == 1 and forwards[0][3] is second[0]
        assert PORTS[forwards[0][2]] is Port.XPLUS

    def test_flit_count_tracks_buffers(self):
        """has_work/buffered_flits read a maintained count that always
        equals the buffered flits."""
        router = Router(Coord(1, 1), regular_mesh_config(4, buffer_depth=2))
        assert not router.has_work() and router.next_ready_cycle() is None
        for port, dst in ((Port.LOCAL, Coord(0, 1)), (Port.XPLUS, Coord(3, 1))):
            for flit in make_flits(Coord(0, 0), dst, 2):
                router.accept_flit(port, flit, ready_cycle=0)
        for cycle in range(6):
            assert router.buffered_flits() == sum(len(b) for b in router.buffers.values())
            assert router.has_work() == (router.buffered_flits() > 0)
            router.step(cycle, [])
        assert router.buffered_flits() == 0
        assert router.forwarded_flits == 4

    def test_head_flits_carry_their_route(self):
        """Lookahead routing: a head is routed when it enters a buffer."""
        router = Router(Coord(1, 1), waw_wap_config(4))
        head, tail = make_flits(Coord(0, 0), Coord(1, 3), 2)
        router.accept_flit(Port.XPLUS, head, ready_cycle=0)
        router.accept_flit(Port.XPLUS, tail, ready_cycle=0)
        assert PORTS[head.route] is router.topology.output_port(Coord(1, 1), Coord(1, 3))
        assert tail.route == -1

    def test_credit_overflow_detected(self):
        config = regular_mesh_config(4)
        router = Router(Coord(1, 1), config)
        with pytest.raises(RuntimeError):
            router.return_credit(Port.XPLUS)

    def test_waw_router_builds_weighted_arbiters(self):
        from repro.core.arbitration import WeightedRoundRobinArbiter
        from repro.core.weights import WeightTable

        config = waw_wap_config(4)
        table = WeightTable.from_closed_form(config.mesh)
        router = Router(Coord(2, 2), config, table)
        assert all(
            isinstance(arb, WeightedRoundRobinArbiter) for arb in router.arbiters.values()
        )


class TestNIC:
    def test_send_message_validates_source(self):
        nic = NIC(Coord(1, 1), regular_mesh_config(4))
        wrong = Message(source=Coord(2, 2), destination=Coord(0, 0), payload_flits=1)
        with pytest.raises(ValueError):
            nic.send_message(wrong, 0)

    def test_regular_nic_queues_payload_flits(self):
        nic = NIC(Coord(1, 1), regular_mesh_config(4, max_packet_flits=4))
        message = Message(source=Coord(1, 1), destination=Coord(0, 0), payload_flits=4)
        nic.send_message(message, now=5)
        assert nic.pending_injection_flits() == 4
        assert message.created_cycle == 5

    def test_wap_nic_adds_control_flit_to_cache_line(self):
        nic = NIC(Coord(1, 1), waw_wap_config(4))
        message = Message(source=Coord(1, 1), destination=Coord(0, 0), payload_flits=4)
        nic.send_message(message, now=0)
        assert nic.pending_injection_flits() == 5  # the paper's 25 % overhead

    def test_injection_respects_credits_and_rate(self):
        config = regular_mesh_config(4, buffer_depth=2)
        nic = NIC(Coord(1, 1), config)
        message = Message(source=Coord(1, 1), destination=Coord(0, 0), payload_flits=4)
        nic.send_message(message, now=0)
        events = []
        for cycle in range(3):
            nic.step(cycle, events)
        # Only two credits were available: two flits injected, queue holds the rest.
        assert len([e for e in events if e[0] == "inject"]) == 2
        assert nic.injection_credits == 0
        nic.return_injection_credit()
        nic.step(3, events)
        assert len([e for e in events if e[0] == "inject"]) == 3

    def test_reassembly_and_listener(self):
        config = waw_wap_config(4)
        sender = NIC(Coord(1, 1), config)
        receiver = NIC(Coord(0, 0), config)
        completed = []
        receiver.add_listener(lambda message, cycle: completed.append((message, cycle)))

        message = Message(source=Coord(1, 1), destination=Coord(0, 0), payload_flits=4)
        sender.send_message(message, now=0)
        events = []
        while sender.has_work():
            sender.step(len(events), events)
            sender.return_injection_credit()
        flits = [e[2] for e in events if e[0] == "inject"]
        for i, flit in enumerate(flits[:-1]):
            receiver.receive_flit(flit, now=10 + i)
            assert not completed  # incomplete until the last slice arrives
        receiver.receive_flit(flits[-1], now=42)
        assert len(completed) == 1
        assert completed[0][0] is message
        assert message.completion_cycle == 42
        assert receiver.in_flight_messages() == 0

    def test_misrouted_flit_detected(self):
        config = regular_mesh_config(4)
        nic = NIC(Coord(3, 3), config)
        flits = make_flits(Coord(1, 1), Coord(0, 0), 1)
        with pytest.raises(RuntimeError):
            nic.receive_flit(flits[0], now=0)


class TestEndToEndCreditReturn:
    def test_injection_credits_recover_after_delivery(self):
        config = regular_mesh_config(3, buffer_depth=2)
        network = Network(config)
        nic = network.nic(Coord(2, 2))
        network.send(Coord(2, 2), Coord(0, 0), 4)
        network.run_until_idle(max_cycles=2_000)
        assert nic.injection_credits == config.buffer_depth
