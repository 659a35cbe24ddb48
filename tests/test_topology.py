"""Topology subsystem: mesh equivalence, wrap-around routing, validation.

The heart of this module is the equivalence guarantee: ``Mesh2D`` with XY
routing must reproduce the seed's hard-coded mesh behaviour *exactly* --
routes, legal turns, WCTT bounds, WaW weights and cycle-accurate simulation
results.  The remaining classes cover the semantics of the new structures
(torus wrap-around, ring ordering, concentrated-mesh scaling, YX routing)
and the ``Scenario.topology(...)`` validation surface.
"""

import pytest

from repro.api import Scenario, ScenarioError, sweep
from repro.core.config import regular_mesh_config, waw_wap_config
from repro.core.flows import FlowSet
from repro.core.ubd import UBDTable
from repro.core.wctt import make_wctt_analysis
from repro.core.wctt_regular import RegularMeshWCTTAnalysis
from repro.core.weights import WeightTable
from repro.geometry import Coord, Mesh, Port
from repro.noc import Network
from repro.topology import (
    XY,
    YX,
    ConcentratedMesh,
    Mesh2D,
    Ring,
    Torus2D,
    as_topology,
    make_topology,
)


def xy_output_port(current, destination):
    """The seed's mesh-XY decision function: the reference for ``Mesh2D``.

    Returns ``Port.LOCAL`` when ``current == destination``.
    """
    if current.x < destination.x:
        return Port.XPLUS
    if current.x > destination.x:
        return Port.XMINUS
    if current.y < destination.y:
        return Port.YPLUS
    if current.y > destination.y:
        return Port.YMINUS
    return Port.LOCAL


def validate_route(topology, hops):
    """Validate that ``hops`` is a well-formed route of ``topology``.

    Raises ``ValueError`` with a description of the first violation found.
    """
    if not hops:
        raise ValueError("empty route")
    if hops[0].in_port is not Port.LOCAL:
        raise ValueError("route must start with a LOCAL injection")
    if hops[-1].out_port is not Port.LOCAL:
        raise ValueError("route must end with a LOCAL ejection")
    for i, hop in enumerate(hops):
        if hop.out_port not in topology.legal_outputs_for_input(hop.router, hop.in_port):
            raise ValueError(f"illegal turn at hop {i}: {hop}")
        if i + 1 < len(hops):
            nxt = topology.downstream(hop.router, hop.out_port)
            if nxt != hops[i + 1].router:
                raise ValueError(f"hop {i} does not connect to hop {i + 1}")
            if hops[i + 1].in_port is not hop.out_port:
                raise ValueError(f"inconsistent port naming between hops {i} and {i + 1}")


def _all_pairs(topology):
    for src in topology.nodes():
        for dst in topology.nodes():
            if src != dst:
                yield src, dst


# ----------------------------------------------------------------------
# Mesh2D == the seed mesh, byte for byte
# ----------------------------------------------------------------------
class TestMesh2DEquivalence:
    def test_routes_match_the_reference_implementation(self):
        """Mesh2D.route must replay the seed's XY walk hop by hop."""
        topology = Mesh2D(4, 3)
        for src, dst in _all_pairs(topology):
            route = topology.route(src, dst)
            # Reference walk: the seed's xy_output_port decision function.
            current, in_port = src, Port.LOCAL
            for hop in route:
                assert hop.router == current
                assert hop.in_port is in_port
                assert hop.out_port is xy_output_port(current, dst)
                if hop.out_port is not Port.LOCAL:
                    current = topology.downstream(current, hop.out_port)
                    in_port = hop.out_port
            assert route[-1].router == dst
            assert len(route) == src.manhattan(dst) + 1

    def test_plain_mesh_routes_like_mesh2d(self):
        plain, topology = Mesh(4, 3), Mesh2D(4, 3)
        for src, dst in _all_pairs(topology):
            assert as_topology(plain).route(src, dst) == topology.route(src, dst)

    def test_legal_turn_tables_match_the_seed(self):
        plain, topology = Mesh(3, 3), Mesh2D(3, 3)
        for router in topology.nodes():
            for port in Port:
                assert topology.legal_inputs_for_output(
                    router, port
                ) == as_topology(plain).legal_inputs_for_output(router, port)
                # The seed's exact ordering (arbiter candidate order).
                if port is Port.YPLUS and router == Coord(1, 1):
                    assert topology.legal_inputs_for_output(router, port) == (
                        Port.YPLUS,
                        Port.XPLUS,
                        Port.XMINUS,
                        Port.LOCAL,
                    )

    def test_wctt_bounds_identical_for_mesh_and_mesh2d(self):
        for design in (regular_mesh_config, waw_wap_config):
            plain_cfg = design(4)
            topo_cfg = design(4).with_mesh(Mesh2D(4, 4))
            plain_analysis = make_wctt_analysis(plain_cfg)
            topo_analysis = make_wctt_analysis(topo_cfg)
            for src, dst in _all_pairs(Mesh2D(4, 4)):
                assert plain_analysis.wctt_packet(
                    src, dst, packet_flits=1
                ) == topo_analysis.wctt_packet(src, dst, packet_flits=1)

    def test_weight_table_identical_for_mesh_and_mesh2d(self):
        plain = WeightTable.from_closed_form(Mesh(4, 4))
        topo = WeightTable.from_closed_form(Mesh2D(4, 4))
        for router in Mesh(4, 4).nodes():
            for port in Port:
                assert plain.counts(router).input_count(port) == topo.counts(
                    router
                ).input_count(port)
                assert plain.counts(router).output_count(port) == topo.counts(
                    router
                ).output_count(port)

    def test_simulation_byte_identical_for_mesh_and_mesh2d(self):
        """Same traffic, same per-message timestamps on both representations."""
        def run(config):
            network = Network(config)
            messages = [
                network.send(src, Coord(0, 0), payload_flits=4)
                for src in config.mesh.nodes()
                if src != Coord(0, 0)
            ]
            network.run_until_idle(max_cycles=100_000)
            return [
                (m.source, m.injection_cycle, m.completion_cycle) for m in messages
            ]

        for design in (regular_mesh_config, waw_wap_config):
            assert run(design(4)) == run(design(4).with_mesh(Mesh2D(4, 4)))

    def test_ubd_table_identical_for_mesh_and_mesh2d(self):
        plain = UBDTable(waw_wap_config(4))
        topo = UBDTable(waw_wap_config(4).with_mesh(Mesh2D(4, 4)))
        for core in plain.cores():
            assert plain.load_ubd(core) == topo.load_ubd(core)
            assert plain.eviction_ubd(core) == topo.eviction_ubd(core)

    def test_as_topology_normalises_and_passes_through(self):
        topo = as_topology(Mesh(5, 2))
        assert isinstance(topo, Mesh2D)
        assert (topo.width, topo.height) == (5, 2)
        torus = Torus2D(3, 3)
        assert as_topology(torus) is torus


# ----------------------------------------------------------------------
# Torus wrap-around
# ----------------------------------------------------------------------
class TestTorus:
    def test_wraparound_route_is_one_hop(self):
        torus = Torus2D(4, 4)
        route = torus.route(Coord(0, 0), Coord(3, 0))
        assert [h.router for h in route] == [Coord(0, 0), Coord(3, 0)]
        assert route[0].out_port is Port.XMINUS  # backwards over the wrap link

    def test_routes_are_minimal_and_valid(self):
        torus = Torus2D(4, 3)
        for src, dst in _all_pairs(torus):
            route = torus.route(src, dst)
            assert len(route) == torus.distance(src, dst) + 1
            assert route[-1].router == dst
            validate_route(torus, route)

    def test_tie_breaks_towards_positive_direction(self):
        torus = Torus2D(4, 1)
        route = torus.route(Coord(0, 0), Coord(2, 0))  # 2 hops either way
        assert route[0].out_port is Port.XPLUS

    def test_every_router_has_all_ports(self):
        torus = Torus2D(3, 3)
        for router in torus.nodes():
            assert set(torus.input_ports(router)) == set(Port)
            assert set(torus.output_ports(router)) == set(Port)

    def test_link_count_is_double_every_dimension(self):
        torus = Torus2D(4, 3)
        assert len(list(torus.links())) == 4 * torus.num_nodes

    def test_distance_shorter_than_mesh(self):
        torus, mesh = Torus2D(8, 8), Mesh2D(8, 8)
        assert torus.distance(Coord(0, 0), Coord(7, 7)) == 2
        assert mesh.distance(Coord(0, 0), Coord(7, 7)) == 14

    def test_any_direction_policy_is_rejected(self):
        config = regular_mesh_config(4).with_mesh(Torus2D(4, 4))
        with pytest.raises(ValueError, match="any_direction"):
            RegularMeshWCTTAnalysis(config, contender_policy="any_direction")

    def test_closed_form_weights_fall_back_to_flow_derivation(self):
        torus = Torus2D(3, 3)
        table = WeightTable.from_closed_form(torus)
        expected = WeightTable.from_flow_set(FlowSet.all_to_all(torus))
        for router in torus.nodes():
            for port in Port:
                assert table.counts(router).input_count(port) == expected.counts(
                    router
                ).input_count(port)
        with pytest.raises(ValueError, match="closed forms"):
            WeightTable.from_closed_form(torus, as_printed=True)

    def test_end_to_end_analysis_and_simulation(self):
        config = waw_wap_config(4).with_mesh(Torus2D(4, 4))
        analysis = make_wctt_analysis(config)
        bound = analysis.wctt_packet(Coord(3, 3), Coord(0, 0), packet_flits=1)
        assert bound > 0
        network = Network(config)
        message = network.send(Coord(3, 3), Coord(0, 0), payload_flits=1)
        network.run_until_idle(max_cycles=100_000)
        assert message.completion_cycle is not None
        # (3,3) -> (0,0) is two wrap hops on a 4x4 torus.
        assert message.network_latency <= bound


# ----------------------------------------------------------------------
# Ring ordering
# ----------------------------------------------------------------------
class TestRing:
    def test_construction_and_validation(self):
        ring = Ring(6)
        assert (ring.width, ring.height, ring.num_nodes) == (6, 1, 6)
        with pytest.raises(ValueError, match="single row"):
            Ring(4, 2)
        with pytest.raises(ValueError, match="at least 2"):
            Ring(1)

    def test_shorter_way_around_is_taken(self):
        ring = Ring(6)
        forward = ring.route(Coord(0, 0), Coord(2, 0))
        backward = ring.route(Coord(0, 0), Coord(4, 0))
        assert [h.out_port for h in forward[:-1]] == [Port.XPLUS, Port.XPLUS]
        assert [h.out_port for h in backward[:-1]] == [Port.XMINUS, Port.XMINUS]
        # Exact tie (half way around an even ring): positive direction.
        tie = ring.route(Coord(0, 0), Coord(3, 0))
        assert all(h.out_port is Port.XPLUS for h in tie[:-1])

    def test_only_x_and_local_ports_exist(self):
        ring = Ring(5)
        for router in ring.nodes():
            assert set(ring.output_ports(router)) == {
                Port.LOCAL,
                Port.XPLUS,
                Port.XMINUS,
            }

    def test_end_to_end_simulation(self):
        config = waw_wap_config(8, 1).with_mesh(Ring(8))
        network = Network(config)
        messages = [
            network.send(src, Coord(0, 0), payload_flits=4)
            for src in Ring(8).nodes()
            if src != Coord(0, 0)
        ]
        network.run_until_idle(max_cycles=100_000)
        assert all(m.completion_cycle is not None for m in messages)


# ----------------------------------------------------------------------
# Concentrated mesh
# ----------------------------------------------------------------------
class TestConcentratedMesh:
    def test_terminals_and_validation(self):
        cmesh = ConcentratedMesh(4, 4, concentration=4)
        assert cmesh.terminals_per_node == 4
        assert cmesh.num_terminals == 64
        with pytest.raises(ValueError, match="concentration"):
            ConcentratedMesh(4, 4, concentration=0)

    def test_routes_match_the_plain_mesh(self):
        cmesh, mesh = ConcentratedMesh(4, 3, concentration=2), Mesh2D(4, 3)
        for src, dst in _all_pairs(cmesh):
            assert cmesh.route(src, dst) == mesh.route(src, dst)

    def test_weights_scale_with_concentration(self):
        mesh_table = WeightTable.from_closed_form(Mesh2D(3, 3))
        cmesh_table = WeightTable.from_closed_form(ConcentratedMesh(3, 3, concentration=4))
        for router in Mesh2D(3, 3).nodes():
            for port in Port:
                assert cmesh_table.counts(router).input_count(
                    port
                ) == 4 * mesh_table.counts(router).input_count(port)

    def test_flow_set_weights_scale_too(self):
        cmesh = ConcentratedMesh(3, 3, concentration=2)
        flows = FlowSet.all_to_one(cmesh, Coord(0, 0))
        table = WeightTable.from_flow_set(flows)
        # 8 sending routers eject at the MC, each aggregating 2 terminals.
        assert table.counts(Coord(0, 0)).output_count(Port.LOCAL) == 16

    def test_end_to_end_simulation(self):
        config = waw_wap_config(4).with_mesh(ConcentratedMesh(4, 4, concentration=4))
        network = Network(config)
        messages = []
        for node in ConcentratedMesh(4, 4, concentration=4).nodes():
            if node == Coord(0, 0):
                continue
            for _ in range(4):  # one message per terminal of the cluster
                messages.append(network.send(node, Coord(0, 0), payload_flits=1))
        network.run_until_idle(max_cycles=200_000)
        assert all(m.completion_cycle is not None for m in messages)


# ----------------------------------------------------------------------
# YX routing strategy
# ----------------------------------------------------------------------
class TestYXRouting:
    def test_yx_resolves_y_first(self):
        topology = Mesh2D(4, 4, YX)
        route = topology.route(Coord(0, 0), Coord(2, 2))
        ports = [h.out_port for h in route]
        assert ports == [Port.YPLUS, Port.YPLUS, Port.XPLUS, Port.XPLUS, Port.LOCAL]

    def test_yx_legal_tables_mirror_xy(self):
        topology = Mesh2D(3, 3, YX)
        centre = Coord(1, 1)
        # Under YX the X ports are the "second axis": X+ accepts merges from Y.
        assert topology.legal_inputs_for_output(centre, Port.XPLUS) == (
            Port.XPLUS,
            Port.YPLUS,
            Port.YMINUS,
            Port.LOCAL,
        )
        assert topology.legal_inputs_for_output(centre, Port.YPLUS) == (
            Port.YPLUS,
            Port.LOCAL,
        )

    def test_yx_mesh_simulates_and_drains(self):
        config = regular_mesh_config(4).with_mesh(Mesh2D(4, 4, YX))
        network = Network(config)
        messages = [
            network.send(src, Coord(0, 0), payload_flits=4)
            for src in config.mesh.nodes()
            if src != Coord(0, 0)
        ]
        network.run_until_idle(max_cycles=100_000)
        assert all(m.completion_cycle is not None for m in messages)

    def test_strategies_are_singletons_by_name(self):
        assert make_topology("mesh", 4, routing="xy").routing is XY
        assert make_topology("mesh", 4, routing="yx").routing is YX


# ----------------------------------------------------------------------
# Scenario.topology() validation and sweeps
# ----------------------------------------------------------------------
class TestScenarioTopology:
    def test_builds_the_right_topology_class(self):
        assert isinstance(Scenario.mesh(4).topology("mesh").build().mesh, Mesh2D)
        assert isinstance(Scenario.mesh(4).topology("torus").build().mesh, Torus2D)
        assert isinstance(Scenario.mesh(8, 1).topology("ring").build().mesh, Ring)
        cmesh_cfg = Scenario.mesh(4).topology("cmesh", concentration=2).build()
        assert isinstance(cmesh_cfg.mesh, ConcentratedMesh)
        assert cmesh_cfg.mesh.concentration == 2

    def test_default_path_keeps_the_plain_mesh(self):
        config = Scenario.mesh(4).waw_wap().build()
        assert type(config.mesh) is Mesh

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ScenarioError, match="unknown topology"):
            Scenario.mesh(4).topology("hypercube")

    def test_unknown_routing_is_rejected(self):
        with pytest.raises(ScenarioError, match="unknown routing"):
            Scenario.mesh(4).topology("mesh", routing="zigzag")

    def test_concentration_outside_cmesh_is_rejected(self):
        with pytest.raises(ScenarioError, match="cmesh"):
            Scenario.mesh(4).topology("torus", concentration=2)

    def test_bad_concentration_value_is_rejected(self):
        with pytest.raises(ScenarioError, match="concentration"):
            Scenario.mesh(4).topology("cmesh", concentration=0)

    def test_ring_needs_a_single_row(self):
        with pytest.raises(ScenarioError, match="single row"):
            Scenario.mesh(4).topology("ring")

    def test_labels_carry_the_topology(self):
        assert Scenario.mesh(4).topology("torus").label() == "regular-4x4-torus"
        assert (
            Scenario.mesh(4).topology("cmesh", concentration=2).label()
            == "regular-4x4-cmesh2"
        )
        assert Scenario.mesh(4).topology("mesh", routing="yx").label() == "regular-4x4-yx"

    def test_sweep_topology_axis(self):
        points = sweep(
            Scenario.mesh(4),
            topology=("mesh", "torus", {"kind": "cmesh", "concentration": 2}),
            design=("regular", "waw_wap"),
        )
        assert len(points) == 6
        kinds = [type(p.build().mesh).__name__ for p in points]
        assert kinds == [
            "Mesh2D",
            "Mesh2D",
            "Torus2D",
            "Torus2D",
            "ConcentratedMesh",
            "ConcentratedMesh",
        ]

    def test_reselecting_topology_clears_cmesh_leftovers(self):
        """Sweeping the topology axis from a cmesh base must not drag the
        stale concentration into non-cmesh design points."""
        base = Scenario.mesh(4).topology("cmesh", concentration=2)
        points = sweep(base, topology=("mesh", "torus", "cmesh"))
        kinds = [type(p.build().mesh).__name__ for p in points]
        assert kinds == ["Mesh2D", "Torus2D", "ConcentratedMesh"]
        assert points[1].label() == "regular-4x4-torus"
        # cmesh re-selected without an explicit concentration: the default.
        assert points[2].build().mesh.concentration == 4

    def test_non_integer_concentration_is_rejected(self):
        with pytest.raises(ScenarioError, match="integer"):
            Scenario.mesh(4).topology("cmesh", concentration=2.5)

    def test_sweep_single_mapping_value(self):
        points = sweep(Scenario.mesh(4), topology={"kind": "cmesh", "concentration": 3})
        assert len(points) == 1
        assert points[0].build().mesh.concentration == 3

    def test_sweep_rejects_bad_topology_values(self):
        with pytest.raises(ScenarioError, match="kind"):
            sweep(Scenario.mesh(4), topology=[{"concentration": 2}])
        with pytest.raises(ScenarioError, match="unknown topology parameter"):
            sweep(Scenario.mesh(4), topology=[{"kind": "mesh", "depth": 2}])

    def test_table2_sweeps_over_topologies(self):
        from repro.api import BatchEngine

        engine = BatchEngine(use_cache=False)
        results = engine.sweep("table2", quick=True, topology=("mesh", "ring"))
        mesh_rows = results[0].result.to_dict()["rows"]
        ring_rows = results[1].result.to_dict()["rows"]
        assert mesh_rows[0]["NxM"] == "2x2"
        assert ring_rows[0]["NxM"] == "2-node ring"
