"""Tests for the regular-mesh WCTT analysis (:mod:`repro.core.wctt_regular`)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RouterTiming, regular_mesh_config
from repro.core.flows import FlowSet
from repro.core.wctt import wctt_summary, zero_load_latency
from repro.core.wctt_regular import CONTENDER_POLICIES, RegularMeshWCTTAnalysis
from repro.geometry import Coord, Mesh, Port


def analysis_for(size: int, *, flits: int = 1, policy: str = "merging") -> RegularMeshWCTTAnalysis:
    return RegularMeshWCTTAnalysis(
        regular_mesh_config(size, max_packet_flits=flits), contender_policy=policy
    )


class TestBasicProperties:
    def test_rejects_self_flow(self):
        with pytest.raises(ValueError):
            analysis_for(4).wctt_packet(Coord(1, 1), Coord(1, 1))

    def test_rejects_invalid_packet_size(self):
        with pytest.raises(ValueError):
            analysis_for(4).wctt_packet(Coord(1, 1), Coord(0, 0), packet_flits=0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            RegularMeshWCTTAnalysis(regular_mesh_config(4), contender_policy="optimistic")
        assert set(CONTENDER_POLICIES) == {"merging", "any_direction"}

    def test_contender_count_examples(self):
        a = analysis_for(8)
        # Interior Y- output can be requested by Y-, X+, X- and LOCAL.
        assert a.contender_count(Coord(3, 3), Port.YMINUS) == 4
        # Interior X- output only by X- and LOCAL (no Y->X turns under XY).
        assert a.contender_count(Coord(3, 3), Port.XMINUS) == 2
        # Ejection at the corner only from the two existing directional inputs.
        assert a.contender_count(Coord(0, 0), Port.LOCAL) == 2

    def test_wctt_exceeds_zero_load_latency(self):
        a = analysis_for(6, flits=4)
        for src in [Coord(1, 0), Coord(3, 3), Coord(5, 5)]:
            wctt = a.wctt_packet(src, Coord(0, 0), packet_flits=1)
            assert wctt > zero_load_latency(a.config, src, Coord(0, 0), packet_flits=1)

    def test_wctt_positive_and_deterministic(self):
        a = analysis_for(5)
        first = a.wctt_packet(Coord(4, 4), Coord(0, 0), packet_flits=1)
        second = a.wctt_packet(Coord(4, 4), Coord(0, 0), packet_flits=1)
        assert first == second > 0


class TestMonotonicity:
    def test_wctt_grows_with_distance_along_a_row(self):
        a = analysis_for(8)
        dst = Coord(0, 0)
        values = [a.wctt_packet(Coord(x, 0), dst, packet_flits=1) for x in range(1, 8)]
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_wctt_grows_with_contender_packet_size(self):
        dst = Coord(0, 0)
        src = Coord(3, 3)
        small = RegularMeshWCTTAnalysis(regular_mesh_config(4, max_packet_flits=1))
        large = RegularMeshWCTTAnalysis(regular_mesh_config(4, max_packet_flits=8))
        assert large.wctt_packet(src, dst, packet_flits=1) > small.wctt_packet(
            src, dst, packet_flits=1
        )

    def test_wctt_grows_with_own_packet_size(self):
        a = analysis_for(4, flits=8)
        dst = Coord(0, 0)
        src = Coord(3, 3)
        assert a.wctt_packet(src, dst, packet_flits=8) > a.wctt_packet(src, dst, packet_flits=1)

    def test_max_wctt_explodes_with_mesh_size(self):
        """The paper's headline problem: the worst WCTT scales terribly."""
        maxima = []
        for size in (3, 4, 5, 6):
            a = analysis_for(size)
            far = Coord(size - 1, size - 1)
            maxima.append(a.wctt_packet(far, Coord(0, 0), packet_flits=1))
        # Each size step multiplies the worst case by a large factor.
        for smaller, larger in zip(maxima, maxima[1:]):
            assert larger > 3 * smaller

    def test_min_wctt_stays_flat_with_mesh_size(self):
        """Nodes adjacent to the destination keep a small, size-independent bound."""
        minima = []
        for size in (3, 5, 8):
            a = analysis_for(size)
            flows = FlowSet.all_to_one(a.mesh, Coord(0, 0))
            minima.append(
                min(a.wctt_packet(f.source, f.destination, packet_flits=1) for f in flows)
            )
        assert minima[0] == minima[1] == minima[2]

    @given(size=st.integers(2, 5))
    @settings(max_examples=8, deadline=None)
    def test_any_direction_policy_dominates_merging(self, size):
        """The destination-agnostic bound is always at least as pessimistic."""
        merging = analysis_for(size, policy="merging")
        any_dir = analysis_for(size, policy="any_direction")
        dst = Coord(0, 0)
        for src in merging.mesh.nodes():
            if src == dst:
                continue
            assert any_dir.wctt_packet(src, dst, packet_flits=1) >= merging.wctt_packet(
                src, dst, packet_flits=1
            )


class TestServiceTimes:
    def test_ejection_service_time_is_serialization(self):
        a = analysis_for(4, flits=4)
        assert a.service_time_any_direction(Coord(0, 0), Port.LOCAL) == 4

    def test_service_time_breakdown_records_worst_port(self):
        a = analysis_for(4)
        a.service_time_any_direction(Coord(3, 0), Port.XMINUS)
        breakdown = a.service_breakdown(Coord(3, 0), Port.XMINUS)
        assert breakdown.service_time > 0
        assert breakdown.worst_next_port is not None

    def test_service_time_is_cached(self):
        a = analysis_for(5)
        first = a.service_time_any_direction(Coord(4, 4), Port.XMINUS)
        assert a.service_time_any_direction(Coord(4, 4), Port.XMINUS) == first


class TestMessages:
    def test_message_within_max_packet_is_single_packet(self):
        a = analysis_for(4, flits=4)
        src, dst = Coord(3, 3), Coord(0, 0)
        assert a.wctt_message(src, dst, payload_flits=4) == a.wctt_packet(
            src, dst, packet_flits=4
        )

    def test_oversized_message_adds_per_packet_bounds(self):
        a = analysis_for(4, flits=4)
        src, dst = Coord(3, 3), Coord(0, 0)
        single = a.wctt_packet(src, dst, packet_flits=4)
        assert a.wctt_message(src, dst, payload_flits=8) == 2 * single

    def test_l1_reply_costs_four_packets(self):
        a = analysis_for(4, flits=1)
        src, dst = Coord(0, 0), Coord(3, 3)
        one = a.wctt_packet(src, dst, packet_flits=1)
        assert a.wctt_message(src, dst, payload_flits=4) == 4 * one

    def test_invalid_payload_rejected(self):
        with pytest.raises(ValueError):
            analysis_for(4).wctt_message(Coord(1, 1), Coord(0, 0), payload_flits=0)


class TestTimingSensitivity:
    def test_faster_router_gives_lower_bound(self):
        fast = RegularMeshWCTTAnalysis(
            regular_mesh_config(4, timing=RouterTiming(routing_latency=1, link_latency=0))
        )
        slow = RegularMeshWCTTAnalysis(
            regular_mesh_config(4, timing=RouterTiming(routing_latency=5, link_latency=2))
        )
        src, dst = Coord(3, 3), Coord(0, 0)
        assert fast.wctt_packet(src, dst, packet_flits=1) < slow.wctt_packet(
            src, dst, packet_flits=1
        )

    def test_summary_over_flow_set(self):
        a = analysis_for(4)
        flows = FlowSet.all_to_one(a.mesh, Coord(0, 0))
        summary = wctt_summary(a, flows, packet_flits=1)
        assert summary.minimum <= summary.average <= summary.maximum
        assert summary.flow_count == 15
        assert summary.design == "regular"
