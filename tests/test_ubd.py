"""Tests for the UBD tables (:mod:`repro.core.ubd`)."""

from __future__ import annotations

import pytest

from repro.analysis.backends import make_analysis_backend
from repro.api import Scenario
from repro.core.config import regular_mesh_config, waw_wap_config
from repro.core.ubd import MemoryTiming, UBDEntry, UBDTable
from repro.core.wctt_regular import RegularMeshWCTTAnalysis
from repro.core.wctt_weighted import WaWWaPWCTTAnalysis
from repro.geometry import Coord


def assert_entries_from(table, analysis):
    """Every entry holds ``analysis``' four message bounds of its core."""
    config = table.config
    mc, msgs = config.memory_controller, config.messages
    service = table.memory.service_latency
    expected = {}
    for core in config.mesh.nodes():
        if core == mc:
            continue
        request = analysis.wctt_message(core, mc, payload_flits=msgs.request_flits)
        reply = analysis.wctt_message(mc, core, payload_flits=msgs.reply_flits)
        eviction = analysis.wctt_message(core, mc, payload_flits=msgs.eviction_flits)
        ack = analysis.wctt_message(mc, core, payload_flits=msgs.eviction_ack_flits)
        expected[core] = UBDEntry(
            core, request + service + reply, eviction + service + ack,
            request, reply, eviction, ack,
        )
    assert table.as_dict() == expected


class TestMemoryTiming:
    def test_default_and_validation(self):
        assert MemoryTiming().service_latency == 30
        with pytest.raises(ValueError):
            MemoryTiming(service_latency=-1)


class TestUBDTableRegular:
    def setup_method(self):
        self.config = regular_mesh_config(4, max_packet_flits=4)
        self.table = UBDTable(self.config)

    def test_covers_every_core_but_the_memory_controller(self):
        assert len(self.table) == 15
        assert Coord(0, 0) not in list(self.table.cores())

    def test_memory_controller_entry_rejected(self):
        with pytest.raises(ValueError):
            self.table.entry(Coord(0, 0))

    def test_load_ubd_composition(self):
        """UBD = request WCTT + memory service + reply WCTT."""
        analysis = make_analysis_backend(None).analysis(self.config)
        core = Coord(2, 3)
        entry = self.table.entry(core)
        expected_request = analysis.wctt_message(core, Coord(0, 0), payload_flits=1)
        expected_reply = analysis.wctt_message(Coord(0, 0), core, payload_flits=4)
        assert entry.request_wctt == expected_request
        assert entry.reply_wctt == expected_reply
        assert entry.load_ubd == expected_request + 30 + expected_reply

    def test_eviction_ubd_composition(self):
        analysis = make_analysis_backend(None).analysis(self.config)
        core = Coord(3, 1)
        entry = self.table.entry(core)
        expected_evict = analysis.wctt_message(core, Coord(0, 0), payload_flits=4)
        expected_ack = analysis.wctt_message(Coord(0, 0), core, payload_flits=1)
        assert entry.eviction_ubd == expected_evict + 30 + expected_ack

    def test_far_cores_have_larger_ubd(self):
        assert self.table.load_ubd(Coord(3, 3)) > self.table.load_ubd(Coord(1, 0))
        assert self.table.max_load_ubd() >= self.table.min_load_ubd()

    def test_custom_memory_latency_shifts_ubd(self):
        slow = UBDTable(self.config, memory=MemoryTiming(service_latency=100))
        core = Coord(2, 2)
        assert slow.load_ubd(core) == self.table.load_ubd(core) + 70


class TestUBDTableWaW:
    def test_default_analysis_uses_memory_traffic_weights(self):
        config = waw_wap_config(4, max_packet_flits=4)
        table = UBDTable(config)
        assert isinstance(table.analysis, WaWWaPWCTTAnalysis)
        # Memory-traffic weights: the ejection round of the MC covers all flows.
        assert table.analysis.weights.output_round_flits(Coord(0, 0), "PME") or True
        assert table.max_load_ubd() > 0

    def test_waw_narrows_the_ubd_spread(self):
        """The proposal makes guarantees uniform: max/min UBD ratio collapses."""
        regular = UBDTable(regular_mesh_config(8, max_packet_flits=4))
        waw = UBDTable(waw_wap_config(8, max_packet_flits=4))
        regular_spread = regular.max_load_ubd() / regular.min_load_ubd()
        waw_spread = waw.max_load_ubd() / waw.min_load_ubd()
        assert waw_spread < regular_spread / 10

    def test_waw_far_core_ubd_is_orders_of_magnitude_lower(self):
        regular = UBDTable(regular_mesh_config(8, max_packet_flits=4))
        waw = UBDTable(waw_wap_config(8, max_packet_flits=4))
        far = Coord(7, 7)
        assert waw.load_ubd(far) * 100 < regular.load_ubd(far)

    def test_waw_near_core_ubd_slightly_higher(self):
        """Cores adjacent to the MC pay a small price (paper Table III > 1)."""
        regular = UBDTable(regular_mesh_config(8, max_packet_flits=4))
        waw = UBDTable(waw_wap_config(8, max_packet_flits=4))
        near = Coord(1, 0)
        assert waw.load_ubd(near) > regular.load_ubd(near)
        assert waw.load_ubd(near) < 10 * regular.load_ubd(near)

    def test_explicit_analysis_override(self):
        config = waw_wap_config(4)
        analysis = WaWWaPWCTTAnalysis(config)
        table = UBDTable(config, analysis=analysis)
        assert table.analysis is analysis


class TestUBDTableBuild:
    """A table is filled by the paper's analysis of its design point, over
    the weights of the request/reply memory traffic on WaW designs."""

    @pytest.mark.parametrize("width,height", [(2, 2), (4, 4), (5, 3)])
    def test_waw_entries_are_memory_traffic_bounds(self, width, height):
        config = waw_wap_config(width, height)
        assert_entries_from(UBDTable(config), WaWWaPWCTTAnalysis.for_memory_traffic(config))

    def test_regular_entries_are_regular_bounds(self):
        config = regular_mesh_config(3, 3)
        assert_entries_from(UBDTable(config), RegularMeshWCTTAnalysis(config))

    def test_torus_entries_are_memory_traffic_bounds(self):
        config = Scenario.mesh(4).waw_wap().topology("torus").build()
        assert_entries_from(UBDTable(config), WaWWaPWCTTAnalysis.for_memory_traffic(config))
