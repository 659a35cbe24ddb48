"""Tests for the packetization policies (:mod:`repro.core.packetization`)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import regular_mesh_config, waw_wap_config
from repro.core.packetization import (
    MessageDescriptor,
    PacketDescriptor,
    RegularPacketizer,
    WaPPacketizer,
    make_packetizer,
)


class TestDescriptors:
    def test_message_requires_payload(self):
        with pytest.raises(ValueError):
            MessageDescriptor(payload_flits=0)

    def test_packet_index_bounds(self):
        with pytest.raises(ValueError):
            PacketDescriptor(flits=1, index=2, total=2)
        with pytest.raises(ValueError):
            PacketDescriptor(flits=0, index=0, total=1)


class TestRegularPacketizer:
    def test_single_packet_when_message_fits(self):
        packetizer = RegularPacketizer(regular_mesh_config(4, max_packet_flits=4))
        packets = packetizer.packetize(MessageDescriptor(payload_flits=4, kind="reply"))
        assert len(packets) == 1
        assert packets[0].flits == 4
        assert packets[0].kind == "reply"

    def test_message_larger_than_max_is_split(self):
        packetizer = RegularPacketizer(regular_mesh_config(4, max_packet_flits=4))
        packets = packetizer.packetize(MessageDescriptor(payload_flits=10))
        assert [p.flits for p in packets] == [4, 4, 2]
        assert [p.index for p in packets] == [0, 1, 2]
        assert all(p.total == 3 for p in packets)

    def test_no_overhead(self):
        packetizer = RegularPacketizer(regular_mesh_config(4, max_packet_flits=8))
        msg = MessageDescriptor(payload_flits=6)
        assert packetizer.total_flits(msg) == 6
        assert packetizer.overhead_flits(msg) == 0

    def test_l1_network_splits_reply_into_four_packets(self):
        """With a 1-flit maximum packet size, a cache-line reply is 4 packets."""
        packetizer = RegularPacketizer(regular_mesh_config(8, max_packet_flits=1))
        packets = packetizer.packetize(MessageDescriptor(payload_flits=4))
        assert len(packets) == 4
        assert all(p.flits == 1 for p in packets)

    @given(payload=st.integers(1, 40), max_flits=st.integers(1, 10))
    @settings(max_examples=60)
    def test_flit_conservation(self, payload, max_flits):
        packetizer = RegularPacketizer(regular_mesh_config(4, max_packet_flits=max_flits))
        packets = packetizer.packetize(MessageDescriptor(payload_flits=payload))
        assert sum(p.flits for p in packets) == payload
        assert all(1 <= p.flits <= max_flits for p in packets)


class TestWaPPacketizer:
    def test_paper_overhead_example(self):
        """A 512-bit cache line over 132-bit flits becomes 5 one-flit packets.

        This is the paper's 25 % overhead example (512+5*16 bits over a
        132-bit channel).
        """
        config = waw_wap_config(8, max_packet_flits=4)
        packetizer = WaPPacketizer(config)
        packets = packetizer.packetize(MessageDescriptor(payload_flits=4, kind="reply"))
        assert len(packets) == 5
        assert all(p.flits == 1 for p in packets)
        assert packetizer.overhead_flits(MessageDescriptor(payload_flits=4)) == 1

    def test_single_flit_requests_pay_no_overhead(self):
        """The origin of the negligible average degradation: loads are 1 flit."""
        packetizer = WaPPacketizer(waw_wap_config(8))
        packets = packetizer.packetize(MessageDescriptor(payload_flits=1, kind="load"))
        assert len(packets) == 1
        assert packets[0].flits == 1
        assert packetizer.overhead_flits(MessageDescriptor(payload_flits=1)) == 0

    def test_all_packets_have_minimum_size(self):
        config = waw_wap_config(8, max_packet_flits=8)
        packetizer = WaPPacketizer(config)
        for payload in range(1, 12):
            for packet in packetizer.packetize(MessageDescriptor(payload_flits=payload)):
                assert packet.flits == config.min_packet_flits

    def test_packet_indices_are_sequential(self):
        packetizer = WaPPacketizer(waw_wap_config(8))
        packets = packetizer.packetize(MessageDescriptor(payload_flits=8))
        assert [p.index for p in packets] == list(range(len(packets)))
        assert all(p.total == len(packets) for p in packets)

    @given(payload=st.integers(1, 32))
    @settings(max_examples=50)
    def test_wap_never_loses_payload_capacity(self, payload):
        """The WaP slices always provide at least the payload's bit capacity."""
        config = waw_wap_config(8)
        messages = config.messages
        packetizer = WaPPacketizer(config)
        packets = packetizer.packetize(MessageDescriptor(payload_flits=payload))
        assert len(packets) == messages.wap_slices(payload)
        if payload == 1:
            assert len(packets) == 1
            return
        payload_bits = payload * messages.link_width_bits - messages.control_bits
        capacity = len(packets) * (messages.link_width_bits - messages.control_bits)
        assert capacity >= payload_bits

    @given(payload=st.integers(2, 32))
    @settings(max_examples=50)
    def test_wap_overhead_is_bounded(self, payload):
        """WaP adds at most ~one control flit per original payload flit."""
        packetizer = WaPPacketizer(waw_wap_config(8))
        msg = MessageDescriptor(payload_flits=payload)
        assert 0 <= packetizer.overhead_flits(msg) <= payload


class TestFactory:
    def test_factory_selects_policy(self):
        assert isinstance(make_packetizer(regular_mesh_config(4)), RegularPacketizer)
        assert isinstance(make_packetizer(waw_wap_config(4)), WaPPacketizer)

    def test_wap_and_regular_agree_on_single_flit_messages(self):
        regular = make_packetizer(regular_mesh_config(4))
        wap = make_packetizer(waw_wap_config(4))
        msg = MessageDescriptor(payload_flits=1)
        assert regular.total_flits(msg) == wap.total_flits(msg) == 1
