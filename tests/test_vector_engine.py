"""Edge cases and property tests for :mod:`repro.analysis.vector`.

Complements ``tests/test_differential_analysis.py`` (the fixed wide grid)
with degenerate shapes -- single-row/column meshes, one- and two-node
meshes -- and hypothesis-driven scalar-vs-vector equivalence over random
design points.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.backends import make_analysis_backend
from repro.analysis.vector import (
    make_vector_analysis,
    vector_wctt_map,
    vector_wctt_summary,
)
from repro.core import (
    FlowSet,
    regular_mesh_config,
    waw_wap_config,
    wctt_map,
    wctt_summary,
)
from repro.geometry import Coord

CONFIG_FNS = {"regular": regular_mesh_config, "waw_wap": waw_wap_config}


class TestDegenerateShapes:
    @pytest.mark.parametrize("width,height", [(1, 2), (1, 6), (2, 1), (6, 1)])
    @pytest.mark.parametrize("design", ["regular", "waw_wap"])
    def test_single_row_and_column_meshes(self, width, height, design):
        config = CONFIG_FNS[design](width, height)
        scalar = make_analysis_backend(None).analysis(config)
        vector = make_vector_analysis(config)
        for destination in config.mesh.nodes():
            assert vector_wctt_map(vector, destination) == wctt_map(
                scalar, destination
            ), destination

    def test_single_node_mesh_summary_raises_empty(self):
        config = waw_wap_config(1, 1)
        with pytest.raises(ValueError, match="flow set is empty"):
            vector_wctt_summary(config)

    def test_two_node_mesh(self):
        config = waw_wap_config(2, 1)
        summary = vector_wctt_summary(config)
        flows = FlowSet.all_to_one(config.mesh, config.memory_controller)
        assert summary == wctt_summary(make_analysis_backend(None).analysis(config), flows)


class TestProperties:
    @given(
        width=st.integers(1, 6),
        height=st.integers(1, 6),
        dx=st.integers(0, 5),
        dy=st.integers(0, 5),
        design=st.sampled_from(["regular", "waw_wap"]),
        buffer_depth=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_design_points_bit_identical(
        self, width, height, dx, dy, design, buffer_depth
    ):
        if dx >= width or dy >= height:
            return
        config = CONFIG_FNS[design](width, height, buffer_depth=buffer_depth)
        destination = Coord(dx, dy)
        scalar = make_analysis_backend(None).analysis(config)
        vector = make_vector_analysis(config)
        assert vector_wctt_map(vector, destination) == wctt_map(scalar, destination)

    def test_waw_packet_size_validation_matches_scalar(self):
        config = waw_wap_config(3, 3)
        vector = make_vector_analysis(config)
        too_big = config.min_packet_flits + 1
        with pytest.raises(ValueError, match="minimum size"):
            vector.wctt_grid_to(Coord(0, 0), packet_flits=too_big)
