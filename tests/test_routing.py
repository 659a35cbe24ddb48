"""Unit and property tests of XY routing on a plain mesh (``as_topology``)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Coord, Mesh, Port
from repro.topology import as_topology
from test_topology import validate_route

MESH8 = as_topology(Mesh(8, 8))

coords8 = st.builds(Coord, st.integers(0, 7), st.integers(0, 7))


def first_port(current, destination):
    """The output port XY routing selects at ``current`` for ``destination``."""
    return MESH8.route(current, destination)[0].out_port


class TestXYOutputPort:
    def test_prefers_x_dimension_first(self):
        assert first_port(Coord(0, 0), Coord(3, 3)) is Port.XPLUS
        assert first_port(Coord(3, 0), Coord(0, 3)) is Port.XMINUS

    def test_y_dimension_when_column_reached(self):
        assert first_port(Coord(3, 0), Coord(3, 3)) is Port.YPLUS
        assert first_port(Coord(3, 5), Coord(3, 3)) is Port.YMINUS

    def test_local_at_destination(self):
        assert first_port(Coord(2, 2), Coord(2, 2)) is Port.LOCAL


class TestXYRoute:
    def test_route_structure_adjacent(self):
        route = MESH8.route(Coord(1, 0), Coord(0, 0))
        assert len(route) == 2
        assert route[0].router == Coord(1, 0)
        assert route[0].in_port is Port.LOCAL
        assert route[0].out_port is Port.XMINUS
        assert route[1].router == Coord(0, 0)
        assert route[1].in_port is Port.XMINUS
        assert route[1].out_port is Port.LOCAL

    def test_route_to_self_is_single_hop(self):
        route = MESH8.route(Coord(2, 2), Coord(2, 2))
        assert len(route) == 1
        assert route[0].in_port is Port.LOCAL and route[0].out_port is Port.LOCAL

    def test_corner_to_corner_route(self):
        route = MESH8.route(Coord(7, 7), Coord(0, 0))
        # X phase first (7 hops), then Y phase (7 hops), then ejection router.
        assert len(route) == 15
        x_phase = route[:7]
        assert all(h.out_port is Port.XMINUS for h in x_phase)
        y_phase = route[7:14]
        assert all(h.out_port is Port.YMINUS for h in y_phase)
        assert route[-1].out_port is Port.LOCAL

    def test_route_length_is_manhattan_plus_one(self):
        src, dst = Coord(2, 5), Coord(6, 1)
        assert len(MESH8.route(src, dst)) == src.manhattan(dst) + 1

    def test_route_never_turns_from_y_to_x(self):
        for src in [Coord(0, 7), Coord(5, 5), Coord(7, 1)]:
            for dst in [Coord(0, 0), Coord(3, 6), Coord(7, 7)]:
                seen_y = False
                for hop in MESH8.route(src, dst):
                    if hop.out_port in (Port.YPLUS, Port.YMINUS):
                        seen_y = True
                    if seen_y:
                        assert hop.out_port not in (Port.XPLUS, Port.XMINUS)

    def test_route_outside_mesh_rejected(self):
        with pytest.raises(ValueError):
            MESH8.route(Coord(8, 0), Coord(0, 0))

    @given(src=coords8, dst=coords8)
    @settings(max_examples=60)
    def test_routes_are_valid_and_terminate_at_destination(self, src, dst):
        route = MESH8.route(src, dst)
        assert route[0].router == src
        assert route[-1].router == dst
        validate_route(MESH8, route)

    @given(src=coords8, dst=coords8)
    @settings(max_examples=60)
    def test_routes_are_minimal(self, src, dst):
        route = MESH8.route(src, dst)
        assert len(route) == src.manhattan(dst) + 1


class TestLegalTurns:
    def test_x_outputs_only_reachable_from_x_and_local(self):
        inputs = MESH8.legal_inputs_for_output(Coord(3, 3), Port.XPLUS)
        assert set(inputs) == {Port.XPLUS, Port.LOCAL}

    def test_y_outputs_reachable_from_everything_but_reverse(self):
        inputs = MESH8.legal_inputs_for_output(Coord(3, 3), Port.YMINUS)
        assert set(inputs) == {Port.YMINUS, Port.XPLUS, Port.XMINUS, Port.LOCAL}

    def test_local_output_not_requested_by_local_input(self):
        inputs = MESH8.legal_inputs_for_output(Coord(3, 3), Port.LOCAL)
        assert Port.LOCAL not in inputs
        assert len(inputs) == 4

    def test_edge_router_loses_missing_ports(self):
        # At (0, 0) there is no X+ or Y+ input (no neighbours at x=-1 / y=-1).
        inputs = MESH8.legal_inputs_for_output(Coord(0, 0), Port.LOCAL)
        assert set(inputs) == {Port.XMINUS, Port.YMINUS}

    def test_outputs_for_y_input_cannot_go_back_to_x(self):
        outputs = MESH8.legal_outputs_for_input(Coord(3, 3), Port.YPLUS)
        assert set(outputs) == {Port.YPLUS, Port.LOCAL}

    def test_outputs_for_x_input_can_turn(self):
        outputs = MESH8.legal_outputs_for_input(Coord(3, 3), Port.XMINUS)
        assert set(outputs) == {Port.XMINUS, Port.YPLUS, Port.YMINUS, Port.LOCAL}

    def test_local_input_can_go_anywhere(self):
        outputs = MESH8.legal_outputs_for_input(Coord(3, 3), Port.LOCAL)
        assert Port.LOCAL in outputs and len(outputs) == 5

    def test_turn_tables_are_mutually_consistent(self):
        for router in [Coord(0, 0), Coord(3, 3), Coord(7, 0), Coord(0, 7), Coord(7, 7)]:
            for out_port in MESH8.output_ports(router):
                for in_port in MESH8.legal_inputs_for_output(router, out_port):
                    assert out_port in MESH8.legal_outputs_for_input(router, in_port)


class TestValidateRoute:
    def test_rejects_empty_route(self):
        with pytest.raises(ValueError):
            validate_route(MESH8, [])

    def test_rejects_route_not_starting_at_local(self):
        route = MESH8.route(Coord(3, 3), Coord(0, 0))[1:]
        with pytest.raises(ValueError):
            validate_route(MESH8, route)

    def test_rejects_disconnected_route(self):
        good = MESH8.route(Coord(3, 0), Coord(0, 0))
        broken = [good[0], good[2]]
        with pytest.raises(ValueError):
            validate_route(MESH8, broken)

    def test_accepts_every_route_of_a_small_mesh(self):
        mesh = as_topology(Mesh(3, 3))
        for src in mesh.nodes():
            for dst in mesh.nodes():
                validate_route(mesh, mesh.route(src, dst))
