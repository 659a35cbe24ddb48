"""Differential harness: the vectorized engine vs the scalar reference.

The contract of :mod:`repro.analysis.vector` is *bit-identical integers*
(and bit-identical means: the scalar side takes :func:`statistics.mean` of
its python ints, the vector side an exact ``divmod`` rule, and the two must
agree in value and in type -- an ``int`` when the mean is whole): the
closed-form grids are a pure performance feature and must never change a
single bound.  This file sweeps a wide grid of design points and asserts
exact equality on every surface the engine exposes -- round counts, packet
maps, all-to-one summaries and the ``scenario_wctt`` experiment wiring.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.vector import (
    VectorRegularAnalysis,
    VectorWaWWaPAnalysis,
    make_vector_analysis,
    vector_supported,
    vector_wctt_map,
    vector_wctt_summary,
)
from repro.api.results import unwrap
from repro.api.scenario import Scenario, sweep
from repro.core import (
    FlowSet,
    UBDTable,
    WeightTable,
    regular_mesh_config,
    waw_wap_config,
    wctt_map,
    wctt_summary,
)
from repro.core.config import RouterTiming
from repro.core.wctt_regular import RegularMeshWCTTAnalysis
from repro.core.wctt_weighted import WaWWaPWCTTAnalysis
from repro.analysis.backends import make_analysis_backend
from repro.experiments import scenario_wctt
from repro.geometry import Coord, Mesh, Port
from repro.topology import ConcentratedMesh

MESHES = [(2, 2), (3, 3), (4, 4), (5, 3), (3, 5), (1, 5), (5, 1)]
CONFIG_FNS = {"regular": regular_mesh_config, "waw_wap": waw_wap_config}
#: The scalar reference: the paper's analysis of a design point.
paper_analysis = make_analysis_backend(None).analysis


def _destinations(mesh: Mesh):
    """Corner, centre and an edge node -- distinct route structures."""
    picks = {
        Coord(0, 0),
        Coord(mesh.width - 1, mesh.height - 1),
        Coord(mesh.width // 2, mesh.height // 2),
        Coord(mesh.width - 1, 0),
    }
    return sorted(picks)


class TestCountArrays:
    """The WaW+WaP kernel charges the closed-form table's output counts."""

    @staticmethod
    def _assert_match_weight_table(mesh):
        config = dataclasses.replace(waw_wap_config(mesh.width, mesh.height), mesh=mesh)
        kernel = VectorWaWWaPAnalysis(config)
        table = WeightTable.from_closed_form(mesh)
        by_column = (Port.XPLUS, Port.XMINUS)
        for router in mesh.nodes():
            counts = table.counts(router)
            for port, slots in kernel.round_slots.items():
                index = router.x if port in by_column else router.y
                assert slots[index] == counts.output_count(port), (router, port)
            assert kernel.eject_slots == counts.output_count(Port.LOCAL), router

    @pytest.mark.parametrize("width,height", MESHES)
    def test_closed_forms_match_weight_table(self, width, height):
        self._assert_match_weight_table(Mesh(width, height))

    def test_cmesh_scaling_matches_weight_table(self):
        self._assert_match_weight_table(ConcentratedMesh(3, 3, concentration=4))


class TestPacketMaps:
    @pytest.mark.parametrize("width,height", MESHES)
    @pytest.mark.parametrize("design", ["regular", "waw_wap"])
    def test_wctt_map_bit_identical(self, width, height, design):
        config = CONFIG_FNS[design](width, height)
        scalar = paper_analysis(config)
        vector = make_vector_analysis(config)
        for destination in _destinations(config.mesh):
            for packet_flits in (1, config.min_packet_flits if design == "waw_wap" else 7):
                assert vector_wctt_map(
                    vector, destination, packet_flits=packet_flits
                ) == wctt_map(scalar, destination, packet_flits=packet_flits)

    def test_nondefault_timing_bit_identical(self):
        timing = RouterTiming(routing_latency=3, link_latency=2, flit_cycle=2)
        for design, fn in CONFIG_FNS.items():
            config = fn(3, 4, timing=timing, buffer_depth=2)
            scalar = paper_analysis(config)
            vector = make_vector_analysis(config)
            for destination in _destinations(config.mesh):
                assert vector_wctt_map(vector, destination) == wctt_map(
                    scalar, destination
                ), design

    @pytest.mark.parametrize("concentration", [2, 4])
    @pytest.mark.parametrize("design", ["regular", "waw_wap"])
    def test_cmesh_bit_identical(self, concentration, design):
        base = CONFIG_FNS[design](3, 3)
        config = dataclasses.replace(
            base, mesh=ConcentratedMesh(3, 3, concentration=concentration)
        )
        scalar = paper_analysis(config)
        vector = make_vector_analysis(config)
        for destination in _destinations(config.mesh):
            assert vector_wctt_map(vector, destination) == wctt_map(scalar, destination)


class TestSummaries:
    @pytest.mark.parametrize("width,height", MESHES)
    @pytest.mark.parametrize("design", ["regular", "waw_wap"])
    def test_summary_bit_identical_including_mean(self, width, height, design):
        config = CONFIG_FNS[design](width, height)
        flows = FlowSet.all_to_one(config.mesh, config.memory_controller)
        scalar = wctt_summary(paper_analysis(config), flows)
        vector = vector_wctt_summary(config)
        # ``repr`` covers the float mean bit-for-bit and its type: 84 == 84.0
        # would hide a whole mean stored as a float.
        assert repr(vector) == repr(scalar)

    @pytest.mark.parametrize("name", ["holistic", "trajectory"])
    def test_scenario_wctt_honours_the_scenario_analysis(self, name):
        # A selected backend is a competing bound: scenario_wctt must give
        # that backend's summary, not the paper's.
        scenario = Scenario.mesh(4).waw_wap().analysis(name)
        summary = make_analysis_backend(name).wctt_summary(scenario.build())
        [point] = unwrap(scenario_wctt.run(scenario=scenario))
        assert (point.wctt_max, point.wctt_mean, point.wctt_min) == (
            summary.maximum,
            round(summary.average, 2),
            summary.minimum,
        )


class TestExperimentWiring:
    @pytest.mark.parametrize(
        "scenario",
        sweep(Scenario.mesh(4), design=("regular", "waw_wap"), buffer_depth=(1, 4)),
        ids=Scenario.label,
    )
    def test_engine_flag_never_changes_results(self, scenario):
        # ``repr`` covers the float mean bit-for-bit and its type.
        results = {
            engine: repr(unwrap(scenario_wctt.run(scenario=scenario, engine=engine)))
            for engine in scenario_wctt.ENGINES
        }
        assert results["scalar"] == results["auto"]

    def test_auto_falls_back_to_scalar_on_unsupported(self):
        scenario = Scenario.mesh(4).waw_wap().topology("torus")
        auto = unwrap(scenario_wctt.run(scenario=scenario, engine="auto"))
        scalar = unwrap(scenario_wctt.run(scenario=scenario, engine="scalar"))
        assert auto == scalar

    def test_auto_falls_back_to_scalar_on_yx_routing(self):
        # The regular kernel refuses YX routing outright, so a default run
        # that did not fall back would raise instead of matching.
        scenario = Scenario.mesh(4).regular().topology("mesh", routing="yx")
        assert "XY" in vector_supported(scenario.build())
        auto = unwrap(scenario_wctt.run(scenario=scenario))
        scalar = unwrap(scenario_wctt.run(scenario=scenario, engine="scalar"))
        assert auto == scalar

    def test_unknown_engine_rejected(self):
        # The default path vectorizes by itself, so "vector" is no engine.
        for engine in ("turbo", "vector"):
            with pytest.raises(ValueError, match="engine"):
                scenario_wctt.run(engine=engine)


class TestSupportPredicate:
    def test_plain_mesh_supported(self):
        assert vector_supported(waw_wap_config(4, 4)) is None
        assert vector_supported(regular_mesh_config(4, 4)) is None

    def test_reasons_are_descriptive(self):
        torus = Scenario.mesh(4).waw_wap().topology("torus").build()
        assert "wrap-around" in vector_supported(torus)
        yx = Scenario.mesh(4).waw_wap().topology("mesh", routing="yx").build()
        assert "XY" in vector_supported(yx)

    def test_giant_design_vectorizes_exactly(self):
        # (3,3)->(0,0) crosses seven routers of 2**61 pipeline cycles each,
        # so its bound does not fit an int64; python ints hold it exactly.
        config = waw_wap_config(4, 4, timing=RouterTiming(routing_latency=2**61))
        assert vector_supported(config) is None
        destination = Coord(0, 0)
        scalar = wctt_map(paper_analysis(config), destination)
        assert scalar[Coord(3, 3)] > 2**63 - 1
        assert vector_wctt_map(make_vector_analysis(config), destination) == scalar

    def test_deep_buffers_vectorize_bit_identically(self):
        # The kernel charges one arbitration round per hop, whatever the
        # buffer depth, so a deep buffer cannot overflow it.
        config = waw_wap_config(4, 4, buffer_depth=2**58)
        assert vector_supported(config) is None
        scalar = paper_analysis(config)
        vector = make_vector_analysis(config)
        for destination in _destinations(config.mesh):
            assert vector_wctt_map(vector, destination) == wctt_map(scalar, destination)

    def test_vector_analyses_refuse_unsupported_configs(self):
        torus = Scenario.mesh(4).waw_wap().topology("torus").build()
        with pytest.raises(ValueError, match="not vectorizable"):
            VectorWaWWaPAnalysis(torus)
        yx = Scenario.mesh(4).regular().topology("mesh", routing="yx").build()
        with pytest.raises(ValueError, match="not vectorizable"):
            VectorRegularAnalysis(yx)


#: The paper's analyses built directly, without the registry.
DIRECT = {"regular": RegularMeshWCTTAnalysis, "waw_wap": WaWWaPWCTTAnalysis}


class TestAnalysisBackendParity:
    """Refactor safety: the paper analyses routed through AnalysisBackend
    must stay bit-identical to the analyses built directly."""

    BACKEND_FOR_DESIGN = {"regular": "regular", "waw_wap": "weighted"}

    @pytest.mark.parametrize("width,height", MESHES)
    @pytest.mark.parametrize("design", ["regular", "waw_wap"])
    def test_packet_maps_bit_identical(self, width, height, design):
        config = CONFIG_FNS[design](width, height)
        backend = make_analysis_backend(self.BACKEND_FOR_DESIGN[design])
        direct = DIRECT[design](config)
        for destination in _destinations(config.mesh):
            assert backend.wctt_map(config, destination) == wctt_map(
                direct, destination
            )

    @pytest.mark.parametrize("width,height", MESHES)
    @pytest.mark.parametrize("design", ["regular", "waw_wap"])
    def test_summaries_bit_identical(self, width, height, design):
        config = CONFIG_FNS[design](width, height)
        backend = make_analysis_backend(self.BACKEND_FOR_DESIGN[design])
        flows = FlowSet.all_to_one(config.mesh, config.memory_controller)
        assert backend.wctt_summary(config) == wctt_summary(
            DIRECT[design](config), flows
        )

    @pytest.mark.parametrize("width,height", MESHES)
    @pytest.mark.parametrize("payload", [1, 4])
    def test_messages_bit_identical(self, width, height, payload):
        for design, name in self.BACKEND_FOR_DESIGN.items():
            config = CONFIG_FNS[design](width, height)
            backend = make_analysis_backend(name)
            direct = DIRECT[design](config)
            mc = config.memory_controller
            for node in _destinations(config.mesh):
                if node == mc:
                    continue
                assert backend.wctt_message(
                    config, node, mc, payload_flits=payload
                ) == direct.wctt_message(node, mc, payload_flits=payload), design

    @pytest.mark.parametrize("width,height", MESHES)
    @pytest.mark.parametrize("design", ["regular", "waw_wap"])
    def test_vector_kernels_match_paper_backend(self, width, height, design):
        # What the auto-wired paths compute on a supported design point must
        # be what the registry's paper backend returns for it.
        config = CONFIG_FNS[design](width, height)
        paper = make_analysis_backend(self.BACKEND_FOR_DESIGN[design])
        assert vector_supported(config) is None
        kernel = make_vector_analysis(config)
        for destination in _destinations(config.mesh):
            assert vector_wctt_map(kernel, destination) == paper.wctt_map(
                config, destination
            )
        assert vector_wctt_summary(config) == paper.wctt_summary(config)

    def test_ubd_backend_bit_identical(self):
        config = waw_wap_config(4, 4)
        assert (
            UBDTable(config, backend="weighted").as_dict() == UBDTable(config).as_dict()
        )

    def test_ubd_regular_backend_bit_identical(self):
        config = regular_mesh_config(3, 3)
        assert (
            UBDTable(config, backend="regular").as_dict() == UBDTable(config).as_dict()
        )
