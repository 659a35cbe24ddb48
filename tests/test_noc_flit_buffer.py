"""Tests for flits, packets and messages (:mod:`repro.noc.flit`)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Coord
from repro.noc.flit import FlitType, Message, Packet


def make_message(payload: int = 4) -> Message:
    return Message(source=Coord(1, 1), destination=Coord(0, 0), payload_flits=payload)


class TestMessage:
    def test_validation(self):
        with pytest.raises(ValueError):
            Message(source=Coord(0, 0), destination=Coord(0, 0), payload_flits=1)
        with pytest.raises(ValueError):
            Message(source=Coord(0, 0), destination=Coord(1, 1), payload_flits=0)

    def test_unique_ids(self):
        assert make_message().message_id != make_message().message_id

    def test_latency_accounting(self):
        message = make_message()
        assert message.latency is None and message.network_latency is None
        message.created_cycle = 10
        message.injection_cycle = 12
        message.completion_cycle = 40
        assert message.latency == 30
        assert message.network_latency == 28


class TestPacketAndFlit:
    def test_single_flit_packet_is_head_and_tail(self):
        packet = Packet(message=make_message(1), size_flits=1, index=0, total=1)
        flits = packet.make_flits()
        assert len(flits) == 1
        assert flits[0].flit_type == FlitType.HEAD_TAIL
        assert flits[0].is_head and flits[0].is_tail

    def test_multi_flit_packet_structure(self):
        packet = Packet(message=make_message(4), size_flits=4, index=0, total=1)
        flits = packet.make_flits()
        assert [f.flit_type for f in flits] == [
            FlitType.HEAD,
            FlitType.BODY,
            FlitType.BODY,
            FlitType.TAIL,
        ]
        assert flits[0].is_head and not flits[0].is_tail
        assert flits[-1].is_tail and not flits[-1].is_head
        assert [f.sequence for f in flits] == [0, 1, 2, 3]

    def test_flit_carries_routing_information(self):
        packet = Packet(message=make_message(2), size_flits=2, index=0, total=1)
        flit = packet.make_flits()[0]
        assert flit.source == Coord(1, 1)
        assert flit.destination == Coord(0, 0)

    def test_packet_size_validation(self):
        with pytest.raises(ValueError):
            Packet(message=make_message(), size_flits=0, index=0, total=1)

    @given(size=st.integers(1, 12))
    @settings(max_examples=20)
    def test_exactly_one_head_and_one_tail(self, size):
        packet = Packet(message=make_message(size), size_flits=size, index=0, total=1)
        flits = packet.make_flits()
        assert sum(f.is_head for f in flits) == 1
        assert sum(f.is_tail for f in flits) == 1
        assert len(flits) == size
