"""Integration tests: analytical WCTT bounds vs the cycle-accurate simulator.

These are the safety checks of experiment E9: under the most adversarial
congestion the simulator can produce, no observed traversal may exceed the
analytical bound of its design point.
"""

from __future__ import annotations

import pytest

from repro.analysis.validation import validate_design, validate_flow_bound
from repro.api import Scenario
from repro.core.config import regular_mesh_config, waw_wap_config
from repro.geometry import Coord


class TestValidateFlowBound:
    def test_regular_design_bound_is_safe_for_far_flow(self):
        result = validate_flow_bound(
            regular_mesh_config(3, max_packet_flits=1),
            Coord(2, 2),
            Coord(0, 0),
            congestion_cycles=800,
        )
        assert result.design == "regular"
        assert result.is_safe
        assert 0 < result.tightness <= 1.0
        assert result.probes >= 1

    def test_waw_design_bound_is_safe_and_tight(self):
        result = validate_flow_bound(
            waw_wap_config(3, max_packet_flits=1),
            Coord(2, 2),
            Coord(0, 0),
            congestion_cycles=800,
        )
        assert result.design == "WaW+WaP"
        assert result.is_safe
        # WaW+WaP bounds should be close to what saturation actually produces.
        assert result.tightness > 0.3

    def test_near_flow_bounds_are_safe_on_both_designs(self):
        for config in (regular_mesh_config(3), waw_wap_config(3)):
            result = validate_flow_bound(
                config, Coord(1, 0), Coord(0, 0), congestion_cycles=600
            )
            assert result.is_safe

    def test_waw_only_design_has_no_paper_bound(self):
        # The regular-mesh bound assumes round-robin arbitration, so it is
        # not a bound for weighted arbitration without WaP.
        config = Scenario.mesh(3).waw_only().max_packet_flits(1).build()
        with pytest.raises(ValueError, match="assumes round-robin arbitration"):
            validate_flow_bound(config, Coord(2, 2), Coord(0, 0), congestion_cycles=400)


class TestValidateDesign:
    @pytest.mark.parametrize("factory", [regular_mesh_config, waw_wap_config])
    def test_representative_flows_are_safe(self, factory):
        config = factory(3, max_packet_flits=1)
        results = validate_design(config, congestion_cycles=600)
        assert len(results) == 3
        assert all(r.is_safe for r in results)

    def test_default_sources_cover_near_mid_far(self):
        config = regular_mesh_config(4, max_packet_flits=1)
        results = validate_design(config, congestion_cycles=400)
        distances = sorted(r.source.manhattan(r.destination) for r in results)
        assert distances[0] == 1
        assert distances[-1] == 6
