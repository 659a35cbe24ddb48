"""Tests for the WaW weight model (:mod:`repro.core.weights`), incl. Table I."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.flowaware import HolisticAnalysis
from repro.api import Scenario
from repro.core.flows import FlowSet
from repro.core.ubd import UBDTable
from repro.core.wctt_weighted import WaWWaPWCTTAnalysis
from repro.core.weights import (
    PortCounts,
    WeightTable,
    paper_port_counts,
    round_robin_weight,
    source_port_counts,
    waw_weight,
)
from repro.geometry import Coord, Mesh, Port
from repro.manycore.system import ManycoreSystem
from repro.noc.network import Network
from repro.noc.router import Router


class TestClosedForms:
    def test_paper_formulas_verbatim(self):
        """The closed forms exactly as printed (N=M=2, router (1,1))."""
        mesh = Mesh(2, 2)
        counts = paper_port_counts(mesh, Coord(1, 1))
        assert counts.input_count(Port.XPLUS) == 1
        assert counts.input_count(Port.YPLUS) == 2
        assert counts.input_count(Port.LOCAL) == 1
        assert counts.output_count(Port.LOCAL) == 3
        # The printed X- closed form counts one node beyond the mesh edge.
        assert counts.output_count(Port.XMINUS) == 2

    def test_source_counts_fix_the_xminus_off_by_one(self):
        mesh = Mesh(2, 2)
        counts = source_port_counts(mesh, Coord(1, 1))
        # Only the node itself can send traffic out of the X- output of the
        # right-most column, which is what the paper's Table I example uses.
        assert counts.output_count(Port.XMINUS) == 1
        assert counts.input_count(Port.XMINUS) == 0

    def test_source_counts_equal_paper_forms_on_non_xminus_ports(self):
        mesh = Mesh(8, 8)
        for router in [Coord(0, 0), Coord(3, 5), Coord(7, 7), Coord(4, 0)]:
            paper = paper_port_counts(mesh, router)
            source = source_port_counts(mesh, router)
            for port in (Port.XPLUS, Port.YPLUS, Port.YMINUS, Port.LOCAL):
                assert paper.input_count(port) == source.input_count(port)
                assert paper.output_count(port) == source.output_count(port)

    @given(
        w=st.integers(2, 8), h=st.integers(2, 8),
        x=st.integers(0, 7), y=st.integers(0, 7),
    )
    @settings(max_examples=50)
    def test_source_counts_match_all_to_all_flow_accounting(self, w, h, x, y):
        """The closed-form source counts equal counting over explicit flows."""
        if x >= w or y >= h:
            return
        mesh = Mesh(w, h)
        router = Coord(x, y)
        closed = source_port_counts(mesh, router)
        flows = FlowSet.all_to_all(mesh)
        for port in mesh.input_ports(router):
            assert closed.input_count(port) == flows.port_source_count(router, port, "in")
        for port in mesh.output_ports(router):
            assert closed.output_count(port) == flows.port_source_count(router, port, "out")


class TestWaWWeight:
    def test_weight_is_input_over_output(self):
        counts = PortCounts(Coord(1, 1), {Port.XPLUS: 2}, {Port.LOCAL: 6})
        assert waw_weight(counts, Port.XPLUS, Port.LOCAL) == Fraction(1, 3)

    def test_zero_output_count_gives_zero_weight(self):
        counts = PortCounts(Coord(0, 0), {Port.XPLUS: 1}, {Port.YMINUS: 0})
        assert waw_weight(counts, Port.XPLUS, Port.YMINUS) == 0


class TestTableI:
    """The paper's worked example: router R(1,1) of a 2x2 mesh."""

    def setup_method(self):
        self.mesh = Mesh(2, 2)
        self.flows = FlowSet.all_to_all(self.mesh)
        self.table = WeightTable.from_flow_set(self.flows, granularity="source")
        self.router = Coord(1, 1)

    def test_pme_output_split_one_third_two_thirds(self):
        assert self.table.weight(self.router, Port.XPLUS, Port.LOCAL) == Fraction(1, 3)
        assert self.table.weight(self.router, Port.YPLUS, Port.LOCAL) == Fraction(2, 3)

    def test_local_injection_weights(self):
        assert self.table.weight(self.router, Port.LOCAL, Port.XMINUS) == Fraction(1, 1)
        assert self.table.weight(self.router, Port.LOCAL, Port.YMINUS) == Fraction(1, 2)

    def test_turning_flow_weight(self):
        assert self.table.weight(self.router, Port.XPLUS, Port.YMINUS) == Fraction(1, 2)

    def test_round_robin_gives_equal_shares(self):
        rr = round_robin_weight(self.mesh, self.router, Port.XPLUS, Port.LOCAL, self.flows)
        assert rr == Fraction(1, 2)
        rr_y = round_robin_weight(self.mesh, self.router, Port.YPLUS, Port.LOCAL, self.flows)
        assert rr_y == Fraction(1, 2)

    def test_round_robin_single_user_port(self):
        rr = round_robin_weight(self.mesh, self.router, Port.LOCAL, Port.XMINUS, self.flows)
        assert rr == Fraction(1, 1)

    def test_table_rows_cover_the_paper_rows(self):
        rows = {(i.value, o.value): w for i, o, w in self.table.table_rows(self.router)}
        assert rows[("X+", "PME")] == Fraction(1, 3)
        assert rows[("Y+", "PME")] == Fraction(2, 3)
        assert rows[("PME", "X-")] == Fraction(1, 1)
        assert rows[("PME", "Y-")] == Fraction(1, 2)
        assert rows[("X+", "Y-")] == Fraction(1, 2)


class TestWeightTable:
    def test_from_closed_form_default_uses_source_counts(self):
        mesh = Mesh(4, 4)
        table = WeightTable.from_closed_form(mesh)
        assert table.output_round_flits(Coord(0, 0), Port.LOCAL) == 15

    def test_from_closed_form_as_printed(self):
        mesh = Mesh(2, 2)
        table = WeightTable.from_closed_form(mesh, as_printed=True)
        # The printed formulas keep the X- off-by-one.
        assert table.output_round_flits(Coord(1, 1), Port.XMINUS) == 2

    def test_from_flow_set_granularity_validation(self):
        mesh = Mesh(2, 2)
        flows = FlowSet.all_to_all(mesh)
        with pytest.raises(ValueError):
            WeightTable.from_flow_set(flows, granularity="packets")

    def test_memory_traffic_weights_concentrate_on_ejection(self):
        mesh = Mesh(8, 8)
        flows = FlowSet.all_to_one(mesh, Coord(0, 0))
        table = WeightTable.from_flow_set(flows)
        # All 63 flows end at the ejection port of the memory controller.
        assert table.output_round_flits(Coord(0, 0), Port.LOCAL) == 63
        # The Y- input of the MC carries the 56 flows of the 7 other rows.
        assert table.input_credits(Coord(0, 0), Port.YMINUS) == 56
        assert table.input_credits(Coord(0, 0), Port.XMINUS) == 7

    def test_arbitration_weights_cover_all_legal_inputs(self):
        mesh = Mesh(4, 4)
        table = WeightTable.from_closed_form(mesh)
        weights = table.arbitration_weights(Coord(2, 2), Port.YMINUS)
        assert set(weights) == {Port.YMINUS, Port.XPLUS, Port.XMINUS, Port.LOCAL}
        assert all(w >= 0 for w in weights.values())

    def test_weights_sum_matches_output_count_at_interior_router(self):
        """Input weights of an output port sum to (at most) the output count."""
        mesh = Mesh(6, 6)
        table = WeightTable.from_closed_form(mesh)
        flows = FlowSet.all_to_all(mesh)
        for router in [Coord(2, 3), Coord(4, 1)]:
            for out_port in mesh.output_ports(router):
                total_in = sum(
                    flows.port_source_count(router, p, "in")
                    for p in table.arbitration_weights(router, out_port)
                    if p is not Port.LOCAL
                ) + 1  # the local node itself
                assert table.output_round_flits(router, out_port) <= total_in

    def test_counts_rejects_unknown_router(self):
        mesh = Mesh(2, 2)
        table = WeightTable.from_closed_form(mesh)
        with pytest.raises(ValueError):
            table.counts(Coord(5, 5))


class TestRoundRobinLookupRegression:
    """The flow-aware round-robin weight must not re-derive the output's
    flow tuple once per input port (the old quadratic pattern)."""

    class _CountingFlows:
        """Delegate that counts lookups into a wrapped FlowSet."""

        def __init__(self, inner):
            self._inner = inner
            self.output_lookups = 0
            self.input_lookups = 0

        def flows_through_output(self, router, port):
            self.output_lookups += 1
            return self._inner.flows_through_output(router, port)

        def flows_through_input(self, router, port):
            self.input_lookups += 1
            return self._inner.flows_through_input(router, port)

    def test_one_output_lookup_per_call(self):
        mesh = Mesh(4, 4)
        flows = self._CountingFlows(FlowSet.all_to_one(mesh, Coord(0, 0)))
        round_robin_weight(mesh, Coord(2, 2), Port.XPLUS, Port.XPLUS, flows)
        assert flows.output_lookups == 1
        # One membership probe per legal input, not per (input, flow) pair.
        assert flows.input_lookups <= 5

    def test_set_membership_matches_quadratic_reference(self):
        """Identical Fractions to the old per-flow scan on all-to-one traffic."""
        mesh = Mesh(4, 4)
        flows = FlowSet.all_to_one(mesh, Coord(0, 0))
        for router in mesh.nodes():
            for out_port in mesh.output_ports(router):
                through_output = flows.flows_through_output(router, out_port)
                from repro.topology import as_topology

                legal = as_topology(mesh).legal_inputs_for_output(router, out_port)
                reference_active = [
                    p
                    for p in legal
                    if any(
                        f in through_output
                        for f in flows.flows_through_input(router, p)
                    )
                ]
                for in_port in mesh.input_ports(router):
                    expected = (
                        Fraction(1, len(reference_active))
                        if reference_active and in_port in reference_active
                        else Fraction(0)
                    )
                    assert (
                        round_robin_weight(mesh, router, in_port, out_port, flows)
                        == expected
                    ), (router, in_port, out_port)


class TestWeightTableCountsError:
    def test_missing_router_error_names_origin_and_coverage(self):
        mesh = Mesh(2, 2)
        table = WeightTable(mesh, {Coord(0, 0): source_port_counts(mesh, Coord(0, 0))})
        with pytest.raises(KeyError) as excinfo:
            table.counts(Coord(1, 1))
        message = str(excinfo.value)
        assert "(1,1)" in message
        assert "explicit per-router counts" in message
        assert "1 of 4 routers" in message

    def test_flow_set_origin_in_error(self):
        mesh = Mesh(3, 3)
        flows = FlowSet.all_to_one(mesh, Coord(0, 0))
        full = WeightTable.from_flow_set(flows)
        partial = WeightTable(
            mesh,
            {Coord(0, 0): full.counts(Coord(0, 0))},
            origin=full.origin,
        )
        with pytest.raises(KeyError, match="flow set"):
            partial.counts(Coord(2, 2))

    def test_outside_mesh_still_value_error(self):
        mesh = Mesh(2, 2)
        table = WeightTable.from_closed_form(mesh)
        with pytest.raises(ValueError):
            table.counts(Coord(9, 9))



_CONSUMERS = {
    "router": lambda config, table: Router(Coord(1, 1), config, table),
    "network": lambda config, table: Network(config, weight_table=table),
    "system": lambda config, table: ManycoreSystem(config, weight_table=table),
    "weighted": WaWWaPWCTTAnalysis,
    "flow-aware": lambda config, table: HolisticAnalysis(config, weight_table=table),
    "ubd": lambda config, table: UBDTable(config, weight_table=table),
}

#: (configured structure, table's structure, their labels in the error).
_MISMATCHES = {
    "8x8-table-in-4x4": (
        dict(width=4), dict(width=8), ("8x8 mesh (XY routing)", "4x4 mesh (XY routing)")
    ),
    "4x4-table-in-8x8": (
        dict(width=8), dict(width=4), ("4x4 mesh (XY routing)", "8x8 mesh (XY routing)")
    ),
    "torus-table-in-mesh": (
        dict(width=4), dict(width=4, kind="torus"),
        ("4x4 torus (XY routing)", "4x4 mesh (XY routing)"),
    ),
    "yx-table-in-xy-mesh": (
        dict(width=4), dict(width=4, routing="yx"),
        ("4x4 mesh (YX routing)", "4x4 mesh (XY routing)"),
    ),
}


def _waw_wap_config(width, kind="mesh", routing="xy"):
    return Scenario.mesh(width).topology(kind, routing=routing).waw_wap().build()


class TestWeightTableTopology:
    """A table holds the counts and contenders of the topology it was built
    on; every consumer that stores a caller's table refuses another
    topology's table instead of configuring the design with its weights."""

    @pytest.mark.parametrize("mismatch", sorted(_MISMATCHES))
    @pytest.mark.parametrize("consumer", sorted(_CONSUMERS))
    def test_table_of_another_topology_is_rejected(self, consumer, mismatch):
        configured, built_for, (table_label, config_label) = _MISMATCHES[mismatch]
        config = _waw_wap_config(**configured)
        table = WeightTable.from_closed_form(_waw_wap_config(**built_for).topology)
        with pytest.raises(ValueError) as excinfo:
            _CONSUMERS[consumer](config, table)
        message = str(excinfo.value)
        assert table_label in message and config_label in message, message

    @pytest.mark.parametrize("consumer", sorted(_CONSUMERS))
    def test_table_of_the_same_topology_is_accepted(self, consumer):
        """A table built on the plain ``Mesh`` configures the equivalent
        XY ``Mesh2D`` (and the other way round)."""
        config = Scenario.mesh(4).waw_wap().build()
        for mesh in (Mesh(4, 4), _waw_wap_config(4).topology):
            _CONSUMERS[consumer](config, WeightTable.from_closed_form(mesh))

    def test_require_topology_returns_the_table(self):
        config = _waw_wap_config(4, kind="torus")
        table = WeightTable.from_closed_form(config.topology)
        assert table.require_topology(config.topology) is table
