"""Tests for the design-point configuration objects (:mod:`repro.core.config`)."""

from __future__ import annotations

import pytest

from repro.core.config import (
    ArbitrationPolicy,
    MessageConfig,
    NoCConfig,
    PacketizationPolicy,
    RouterTiming,
    regular_mesh_config,
    waw_wap_config,
)
from repro.geometry import Coord, Mesh


class TestRouterTiming:
    def test_defaults(self):
        timing = RouterTiming()
        assert timing.routing_latency == 3
        assert timing.link_latency == 1
        assert timing.hop_latency == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            RouterTiming(routing_latency=0)
        with pytest.raises(ValueError):
            RouterTiming(link_latency=-1)
        with pytest.raises(ValueError):
            RouterTiming(flit_cycle=0)


class TestMessageConfig:
    def test_paper_defaults(self):
        msgs = MessageConfig()
        assert msgs.request_flits == 1
        assert msgs.reply_flits == 4
        assert msgs.eviction_flits == 4
        assert msgs.eviction_ack_flits == 1
        assert msgs.link_width_bits == 132

    def test_cache_line_fits_four_flits(self):
        """512 payload bits + 16 control bits over 132-bit links -> 4 flits."""
        msgs = MessageConfig()
        assert msgs.flits_for_payload_bits(512) == 4

    def test_wap_packets_for_cache_line(self):
        """512 payload bits with per-flit control -> 5 one-flit packets (25 %)."""
        msgs = MessageConfig()
        assert msgs.wap_packets_for_payload_bits(512) == 5

    def test_wap_slices_of_cache_line(self):
        """A 4-flit cache line is 5 WaP slices; a single flit stays one."""
        msgs = MessageConfig()
        assert msgs.wap_slices(4) == 5
        assert msgs.wap_slices(1) == 1
        with pytest.raises(ValueError):
            msgs.wap_slices(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MessageConfig(request_flits=0)
        with pytest.raises(ValueError):
            MessageConfig(link_width_bits=16, control_bits=16)
        with pytest.raises(ValueError):
            MessageConfig().flits_for_payload_bits(-1)
        with pytest.raises(ValueError):
            MessageConfig().wap_packets_for_payload_bits(-5)


class TestNoCConfig:
    def test_regular_factory(self):
        config = regular_mesh_config(8, max_packet_flits=4)
        assert config.mesh == Mesh(8, 8)
        assert config.arbitration is ArbitrationPolicy.ROUND_ROBIN
        assert config.packetization is PacketizationPolicy.SINGLE_PACKET
        assert not config.is_waw and not config.is_wap and not config.is_waw_wap
        assert config.memory_controller == Coord(0, 0)

    def test_waw_wap_factory(self):
        config = waw_wap_config(6, max_packet_flits=8)
        assert config.is_waw and config.is_wap and config.is_waw_wap
        assert config.arbitration_slot_flits == 1

    def test_rectangular_mesh(self):
        config = regular_mesh_config(4, 2)
        assert config.mesh.width == 4 and config.mesh.height == 2

    def test_arbitration_slot_reflects_packetization(self):
        assert regular_mesh_config(4, max_packet_flits=8).arbitration_slot_flits == 8
        assert waw_wap_config(4, max_packet_flits=8).arbitration_slot_flits == 1

    def test_validation_rules(self):
        mesh = Mesh(4, 4)
        with pytest.raises(ValueError):
            NoCConfig(mesh=mesh, max_packet_flits=0)
        with pytest.raises(ValueError):
            NoCConfig(mesh=mesh, min_packet_flits=0)
        with pytest.raises(ValueError):
            NoCConfig(mesh=mesh, max_packet_flits=2, min_packet_flits=4)
        with pytest.raises(ValueError):
            NoCConfig(mesh=mesh, buffer_depth=0)
        with pytest.raises(ValueError):
            NoCConfig(mesh=mesh, memory_controller=Coord(9, 9))

    def test_with_mesh_and_with_max_packet_flits(self):
        config = regular_mesh_config(4)
        bigger = config.with_mesh(Mesh(8, 8))
        assert bigger.mesh == Mesh(8, 8)
        assert bigger.arbitration is config.arbitration
        longer = config.with_max_packet_flits(8)
        assert longer.max_packet_flits == 8
        # The original is unchanged (frozen dataclass semantics).
        assert config.max_packet_flits == 4

    def test_describe_mentions_design_and_mesh(self):
        text = waw_wap_config(8).describe()
        assert "WaW+WaP" in text and "8x8" in text
        assert "regular" in regular_mesh_config(4).describe()

    def test_custom_memory_controller_location(self):
        config = regular_mesh_config(4, memory_controller=Coord(3, 3))
        assert config.memory_controller == Coord(3, 3)
